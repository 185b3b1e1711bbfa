/**
 * @file
 * Sweep-executor implementation.
 *
 * Structure: a sweep runs in two phases — isolated-baseline warm-up
 * and the cases themselves — executed by a fixed pool of workers
 * that pop a shared atomic cursor. Because the cursor is popped in
 * submission order, the first error recorded with the lowest
 * submission priority is exactly the error the sequential path
 * would have hit first, which keeps failure reporting deterministic
 * under any job count.
 */

#include "harness/sweep.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "harness/run_report.hh"

namespace gqos
{

namespace
{

/**
 * Fault scopes of baseline jobs live in the top half of the id
 * space so they can never collide with case submission indices.
 */
constexpr std::uint64_t baselineScopeBase = 1ull << 63;

std::string
formatGoal(double goal)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", goal);
    return buf;
}

} // anonymous namespace

std::string
SweepCase::describe() const
{
    std::ostringstream os;
    os << policy;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        os << "|" << kernels[i] << ":"
           << (i < goals.size() ? formatGoal(goals[i]) : "?");
    }
    return os.str();
}

int
defaultSweepJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

Result<std::vector<CaseResult>>
runSweep(Runner &runner, const std::vector<SweepCase> &cases,
         const SweepOptions &opts, SweepStats *stats)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    const std::size_t n = cases.size();
    const int jobs =
        std::max(1, opts.jobs > 0 ? opts.jobs : defaultSweepJobs());

    if (stats)
        *stats = SweepStats{};
    if (n == 0)
        return std::vector<CaseResult>{};

    const std::uint64_t faultsBefore =
        FaultInjector::instance().totalInjected();

    // ---- baseline warm-up jobs (cached runs only) ----
    // Computing every referenced kernel's isolated IPC up front
    // means concurrent case workers always hit the shared cache for
    // baselines instead of racing to simulate the same one twice.
    const std::shared_ptr<ResultCache> cache = runner.sharedCache();
    std::vector<std::string> baselines;
    if (cache) {
        std::set<std::string> seen;
        for (const SweepCase &c : cases) {
            for (const std::string &kernel : c.kernels) {
                if (seen.insert(kernel).second)
                    baselines.push_back(kernel);
            }
        }
    }

    // ---- worker runners: the caller's options and cache ----
    // One job runs inline on the caller's Runner, the classic
    // sequential path; more jobs give each worker thread its own.
    const std::size_t maxWorkers =
        std::min<std::size_t>(jobs, std::max(baselines.size(), n));
    std::vector<Runner> workerRunners;
    for (std::size_t w = 0; maxWorkers > 1 && w < maxWorkers; ++w) {
        Result<Runner> r = Runner::make(runner.options(), cache);
        if (!r.ok())
            return r.error();
        workerRunners.push_back(std::move(r).value());
    }

    // ---- shared execution state ----
    std::vector<CaseResult> results(n);
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> hits{0};
    std::atomic<bool> abort{false};
    std::mutex errMutex;
    std::optional<Error> firstError;
    std::size_t firstErrorPriority = static_cast<std::size_t>(-1);

    auto recordError = [&](std::size_t priority, Error e) {
        std::lock_guard<std::mutex> guard(errMutex);
        if (priority < firstErrorPriority) {
            firstErrorPriority = priority;
            firstError = std::move(e);
        }
        abort.store(true, std::memory_order_relaxed);
    };

    auto elapsedSec = [&] {
        return std::chrono::duration<double>(Clock::now() - t0)
            .count();
    };

    const bool tty = ::isatty(2) != 0;
    std::mutex progressMutex;
    auto progressTick = [&] {
        if (!opts.progress || !tty)
            return;
        std::lock_guard<std::mutex> guard(progressMutex);
        std::fprintf(stderr,
                     "\r[%s] %zu/%zu cases, %zu cache hits, %.1fs ",
                     opts.label.c_str(), done.load(), n,
                     hits.load(), elapsedSec());
    };

    auto runBaseline = [&](Runner &r,
                           std::size_t j) -> Result<void> {
        FaultInjector::instance().beginScope(baselineScopeBase + j);
        Result<double> iso = r.isolatedIpc(baselines[j]);
        if (!iso.ok()) {
            return Error::format(
                iso.error().code(),
                "isolated baseline for kernel '%s': %s",
                baselines[j].c_str(),
                iso.error().message().c_str());
        }
        return {};
    };

    auto runOneCase = [&](Runner &r,
                          std::size_t i) -> Result<void> {
        FaultInjector::instance().beginScope(i);
        Result<CaseResult> cr =
            r.run(cases[i].kernels, cases[i].goals,
                  cases[i].policy);
        if (!cr.ok()) {
            return Error::format(
                cr.error().code(), "sweep case %zu/%zu (%s): %s",
                i + 1, n, cases[i].describe().c_str(),
                cr.error().message().c_str());
        }
        if (cr.value().fromCache)
            hits.fetch_add(1, std::memory_order_relaxed);
        results[i] = std::move(cr).value();
        done.fetch_add(1, std::memory_order_relaxed);
        progressTick();
        return {};
    };

    /**
     * Pop-and-run @p count items of one phase. Workers pop the
     * shared cursor (submission order) and run @p work on their own
     * Runner; with one worker the loop runs inline on the caller's.
     */
    auto runPhase = [&](std::size_t count, auto &&work,
                        std::size_t priorityBase) {
        if (count == 0 || abort.load(std::memory_order_relaxed))
            return;
        cursor.store(0);
        auto loop = [&](Runner &r) {
            for (;;) {
                if (abort.load(std::memory_order_relaxed))
                    break;
                std::size_t i = cursor.fetch_add(1);
                if (i >= count)
                    break;
                Result<void> w = work(r, i);
                if (!w.ok())
                    recordError(priorityBase + i, w.error());
            }
        };

        std::size_t workers = std::min<std::size_t>(jobs, count);
        if (workers <= 1) {
            loop(runner);
            return;
        }
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back([&, w] { loop(workerRunners[w]); });
        for (std::thread &t : pool)
            t.join();
    };

    runPhase(baselines.size(), runBaseline, 0);
    runPhase(n, runOneCase, baselines.size());

    // Make everything computed so far durable in one batch flush;
    // after this, at most nothing is pending — a later crash cannot
    // lose sweep results.
    if (cache)
        cache->flush();

    SweepStats summary;
    summary.total = n;
    summary.cacheHits = hits.load();
    summary.jobs = static_cast<int>(std::min<std::size_t>(jobs, n));
    summary.elapsedSec = elapsedSec();
    summary.faultsInjected =
        FaultInjector::instance().totalInjected() - faultsBefore;
    if (stats)
        *stats = summary;
    if (RunReport *report = runner.options().report) {
        // Every fault absorbed without surfacing an error counts as
        // recovered; an aborted sweep makes no such claim.
        report->addSweep({opts.label, summary,
                          firstError ? 0 : summary.faultsInjected});
    }
    if (MetricsRegistry *metrics = runner.options().metrics) {
        metrics->counter("harness.sweeps").inc();
        metrics->counter("harness.sweep_cases").inc(n);
        metrics->counter("harness.sweep_cache_hits")
            .inc(summary.cacheHits);
    }
    if (opts.progress) {
        std::fprintf(stderr,
                     "%s[%s] %zu/%zu cases, %zu cache hits, %.1fs, "
                     "%d job%s\n",
                     tty ? "\r" : "", opts.label.c_str(),
                     done.load(), n, summary.cacheHits,
                     summary.elapsedSec, summary.jobs,
                     summary.jobs == 1 ? "" : "s");
    }

    if (firstError)
        return *std::move(firstError);
    return results;
}

} // namespace gqos
