/**
 * @file
 * Harness implementation. The on-disk memoization lives in
 * harness/result_cache.{hh,cc}; the Runner translates cases into
 * cache keys, simulates on a miss, and derives the per-kernel
 * goal/baseline bookkeeping from the raw cached numbers.
 */

#include "harness/runner.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "gpu/gpu.hh"
#include "harness/run_report.hh"
#include "policy/policy_factory.hh"
#include "power/power_model.hh"
#include "telemetry/trace.hh"
#include "workloads/parboil.hh"

namespace gqos
{

bool
CaseResult::allReached() const
{
    for (const auto &k : kernels) {
        if (k.isQos && !k.reached())
            return false;
    }
    return true;
}

double
CaseResult::nonQosThroughput() const
{
    double sum = 0.0;
    int n = 0;
    for (const auto &k : kernels) {
        if (!k.isQos) {
            sum += k.normalizedThroughput();
            n++;
        }
    }
    return n ? sum / n : 0.0;
}

double
CaseResult::qosOvershoot() const
{
    double sum = 0.0;
    int n = 0;
    for (const auto &k : kernels) {
        if (k.isQos) {
            sum += k.normalizedToGoal();
            n++;
        }
    }
    return n ? sum / n : 0.0;
}

Result<Runner>
Runner::make(Options opts)
{
    return make(std::move(opts), nullptr);
}

Result<Runner>
Runner::make(Options opts, std::shared_ptr<ResultCache> cache)
{
    Result<GpuConfig> cfg = configByName(opts.configName);
    if (!cfg.ok())
        return cfg.error();
    if (opts.cycles < 1) {
        return Error::format(ErrorCode::InvalidArgument,
                             "cycles must be >= 1");
    }
    if (opts.warmupCycles >= opts.cycles) {
        return Error::format(
            ErrorCode::InvalidArgument,
            "cycles (%llu) must exceed warmupCycles (%llu); "
            "nothing would be measured",
            static_cast<unsigned long long>(opts.cycles),
            static_cast<unsigned long long>(opts.warmupCycles));
    }
    if (opts.useCache) {
        std::error_code ec;
        std::filesystem::create_directories(opts.cacheDir, ec);
        if (ec) {
            return Error::format(ErrorCode::IoError,
                                 "cannot create cache dir '%s' (%s)",
                                 opts.cacheDir.c_str(),
                                 ec.message().c_str());
        }
    }
    return Runner(std::move(opts), std::move(cfg).value(),
                  std::move(cache));
}

Runner::Runner(Options opts, GpuConfig cfg,
               std::shared_ptr<ResultCache> cache)
    : opts_(std::move(opts)), cfg_(std::move(cfg))
{
    if (opts_.freePreemption) {
        cfg_.preemptDrainCycles = 0;
        cfg_.chargePreemptTraffic = false;
    }
    if (opts_.useCache) {
        cachePath_ = opts_.cacheDir + "/results-" +
                     opts_.configName + "-" +
                     std::to_string(opts_.cycles) + "-" +
                     std::to_string(opts_.warmupCycles) +
                     (opts_.freePreemption ? "-freepre" : "") +
                     ".csv";
        if (cache) {
            gqos_assert(cache->path() == cachePath_);
            cache_ = std::move(cache);
        } else {
            cache_ = ResultCache::open(cachePath_);
        }
    }
}

std::string
Runner::caseKey(const std::vector<std::string> &kernels,
                const std::vector<double> &goal_frac,
                const std::string &policy) const
{
    std::ostringstream os;
    os << policy;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", goal_frac[i]);
        os << "|" << kernels[i] << ":" << buf;
    }
    return os.str();
}

Result<CachedCase>
Runner::simulate(const std::vector<std::string> &kernels,
                 const std::vector<double> &goal_frac,
                 const std::string &policy)
{
    std::vector<const KernelDesc *> descs;
    std::vector<QosSpec> specs;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        Result<const KernelDesc *> desc =
            findParboilKernel(kernels[i]);
        if (!desc.ok())
            return desc.error();
        descs.push_back(desc.value());
        if (goal_frac[i] > 0.0) {
            Result<double> iso = isolatedIpc(kernels[i]);
            if (!iso.ok())
                return iso.error();
            specs.push_back(QosSpec::qos(goal_frac[i] *
                                         iso.value()));
        } else {
            specs.push_back(QosSpec::nonQos());
        }
    }

    Gpu gpu(cfg_);
    gpu.launch(descs);
    // Cycle attribution rides along whenever the run is observed
    // (metrics or --stats-json); simulation results are identical
    // either way, the profiler only counts.
    const bool accounting = opts_.metrics || opts_.report;
    if (accounting)
        gpu.setCycleAccounting(true);
    Result<std::unique_ptr<SharingPolicy>> pol =
        makePolicy(policy, specs, cfg_);
    if (!pol.ok())
        return pol.error();
    // Stamp this case's records so a shared multi-case trace file
    // stays attributable; the proxy must outlive the run loop.
    std::unique_ptr<CaseLabelingSink> case_sink;
    if (opts_.traceSink) {
        case_sink = std::make_unique<CaseLabelingSink>(
            opts_.traceSink, caseKey(kernels, goal_frac, policy));
        gpu.setSmSliceCallback(
            [&case_sink](SmId sm, KernelId k, Cycle start,
                         Cycle end) {
                SmSliceRecord rec;
                rec.sm = sm;
                rec.kernel = k;
                rec.start = start;
                rec.end = end;
                case_sink->onSmSlice(rec);
            });
    }
    if (case_sink || opts_.metrics) {
        pol.value()->attachTelemetry(case_sink.get(),
                                     opts_.metrics);
    }
    pol.value()->onLaunch(gpu);

    // The stepping engine drives the cycle loop; its stall
    // watchdog aborts non-advancing simulations (a policy bug
    // gating every warp forever) with a structured error instead
    // of spinning: no instruction retired across a full epoch
    // (at least SimEngine::minStallWindow) while live warps exist.
    SimEngine engine(opts_.engine,
                     SimEngine::epochStallWindow(cfg_.epochLength));

    Cycle warmup = std::min(opts_.warmupCycles, opts_.cycles / 2);
    std::vector<std::uint64_t> instr_at_warmup(kernels.size(), 0);
    auto sim_t0 = std::chrono::steady_clock::now();
    bool stalled = engine.runUntil(gpu, *pol.value(), warmup);
    if (!stalled) {
        for (std::size_t i = 0; i < kernels.size(); ++i)
            instr_at_warmup[i] =
                gpu.threadInstrs(static_cast<KernelId>(i));
        stalled = engine.runUntil(gpu, *pol.value(), opts_.cycles);
    }
    double sim_wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - sim_t0).count();
    lastSimCyclesPerSec_ = sim_wall > 0.0
        ? static_cast<double>(gpu.now()) / sim_wall
        : 0.0;
    if (stalled) {
        return Error::format(
            ErrorCode::Stalled,
            "case '%s' retired no instruction for %llu "
            "cycles (at cycle %llu) with live warps; "
            "aborting the case",
            caseKey(kernels, goal_frac, policy).c_str(),
            static_cast<unsigned long long>(engine.stallWindow()),
            static_cast<unsigned long long>(gpu.now()));
    }

    pol.value()->onFinish(gpu);
    gpu.closeOpenSmSlices();

    lastBreakdown_.clear();
    if (accounting) {
        // Conservation invariant: per (sm, kernel), the categories
        // telescope exactly to the SM's cycle count, whichever
        // stepping engine ran the case.
        for (int s = 0; s < gpu.numSms(); ++s) {
            for (std::size_t k = 0; k < kernels.size(); ++k) {
                gqos_assert(
                    gpu.sm(s)
                        .cycleBreakdown(static_cast<KernelId>(k))
                        .total() == gpu.sm(s).stats().cycles);
            }
        }
        for (std::size_t k = 0; k < kernels.size(); ++k)
            lastBreakdown_.push_back(
                gpu.cycleBreakdown(static_cast<KernelId>(k)));
    }

    Cycle window = opts_.cycles - warmup;
    CachedCase out;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        std::uint64_t instr =
            gpu.threadInstrs(static_cast<KernelId>(i)) -
            instr_at_warmup[i];
        out.ipc.push_back(static_cast<double>(instr) / window);
    }
    out.instrPerWatt = instrPerWatt(gpu);
    std::uint64_t pre = 0;
    for (int s = 0; s < gpu.numSms(); ++s)
        pre += gpu.sm(s).stats().preemptions;
    out.preemptions = pre;
    out.dramPerKcycle = 1000.0 *
        gpu.mem().totalDramAccesses() / std::max<Cycle>(1, gpu.now());
    simulated_++;
    if (opts_.metrics) {
        for (const CycleBreakdown &b : lastBreakdown_) {
            for (int i = 0; i < numCycleCats; ++i) {
                opts_.metrics
                    ->counter(std::string("cycles.") +
                              toString(static_cast<CycleCat>(i)))
                    .inc(b.counts[i]);
            }
        }
        opts_.metrics->counter("harness.cases_simulated").inc();
        opts_.metrics->counter("engine.stepped_cycles")
            .inc(engine.stats().steppedCycles);
        opts_.metrics->counter("engine.skipped_cycles")
            .inc(engine.stats().skippedCycles);
        opts_.metrics->counter("engine.control_points")
            .inc(engine.stats().controlPoints);
        opts_.metrics->counter("engine.sm_skipped_cycles")
            .inc(gpu.smSkippedCycles());
    }
    if (opts_.verbose) {
        gqos_inform("simulated %s [%d done]",
                    caseKey(kernels, goal_frac, policy).c_str(),
                    simulated_);
    }
    return out;
}

Result<double>
Runner::isolatedIpc(const std::string &kernel)
{
    Result<CaseResult> r = run({kernel}, {0.0}, "even");
    if (!r.ok())
        return r.error();
    return r.value().kernels[0].ipc;
}

Result<CaseResult>
Runner::run(const std::vector<std::string> &kernels,
            const std::vector<double> &goal_frac,
            const std::string &policy)
{
    if (kernels.size() != goal_frac.size()) {
        return Error::format(
            ErrorCode::InvalidArgument,
            "kernels/goals size mismatch (%zu kernels, %zu goals)",
            kernels.size(), goal_frac.size());
    }
    if (kernels.empty()) {
        return Error::format(ErrorCode::InvalidArgument,
                             "need at least one kernel");
    }
    for (double g : goal_frac) {
        if (g < 0.0 || !std::isfinite(g)) {
            return Error::format(ErrorCode::InvalidArgument,
                                 "goal fraction %g is not a "
                                 "non-negative finite number", g);
        }
    }

    // Isolated-baseline lookups recurse through run(); only the
    // depth-1 (caller-visible) case feeds the report.
    runDepth_++;
    struct DepthGuard
    {
        int &d;
        ~DepthGuard() { d--; }
    } depth_guard{runDepth_};
    auto t0 = std::chrono::steady_clock::now();

    std::string key = caseKey(kernels, goal_frac, policy);
    CachedCase c;
    // Captured right after this case's own simulate(): the nested
    // isolated-baseline runs below would overwrite the members.
    double sim_cps = 0.0;
    std::vector<CycleBreakdown> breakdown;
    bool from_cache = cache_ && cache_->lookup(key, c) &&
                      c.ipc.size() == kernels.size();
    if (!from_cache) {
        Result<CachedCase> sim = simulate(kernels, goal_frac,
                                          policy);
        if (!sim.ok())
            return sim.error();
        c = std::move(sim).value();
        sim_cps = lastSimCyclesPerSec_;
        breakdown = std::move(lastBreakdown_);
        if (cache_) {
            cache_->insert(key, c);
            if (opts_.traceSink && !opts_.tracePath.empty())
                cache_->noteArtifact(key, opts_.tracePath);
        }
    } else {
        if (opts_.metrics)
            opts_.metrics->counter("harness.cache_hits").inc();
        if (opts_.traceSink) {
            // A hit skips the simulation, so nothing lands in the
            // requested trace. Point at the recorded artifact of
            // the run that produced the entry, if any.
            std::string prev =
                cache_ ? cache_->artifact(key) : "";
            if (!warnedTraceBypass_) {
                warnedTraceBypass_ = true;
                gqos_warn("cache hit for '%s' bypasses the "
                          "requested trace%s%s; rerun with the "
                          "cache disabled to re-trace cached cases",
                          key.c_str(),
                          prev.empty() ? ""
                                       : " (earlier trace: ",
                          prev.empty() ? "" : (prev + ")").c_str());
            }
        }
    }

    CaseResult result;
    result.fromCache = from_cache;
    result.instrPerWatt = c.instrPerWatt;
    result.preemptions = c.preemptions;
    result.dramPerKcycle = c.dramPerKcycle;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        KernelResult kr;
        kr.name = kernels[i];
        kr.ipc = c.ipc[i];
        kr.goalFrac = goal_frac[i];
        kr.isQos = goal_frac[i] > 0.0;
        // Isolated baseline: identity for the isolated run itself.
        if (kernels.size() == 1 && policy == "even") {
            kr.ipcIsolated = kr.ipc;
        } else {
            Result<double> iso = isolatedIpc(kernels[i]);
            if (!iso.ok())
                return iso.error();
            kr.ipcIsolated = iso.value();
        }
        kr.goalIpc = kr.isQos ? goal_frac[i] * kr.ipcIsolated : 0.0;
        result.kernels.push_back(std::move(kr));
    }

    if (opts_.report && runDepth_ == 1) {
        ReportCase rc;
        rc.key = key;
        rc.policy = policy;
        rc.config = opts_.configName;
        rc.engine = toString(opts_.engine);
        rc.simCyclesPerSec = sim_cps;
        rc.fromCache = from_cache;
        rc.wallSec = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();
        rc.instrPerWatt = result.instrPerWatt;
        rc.dramPerKcycle = result.dramPerKcycle;
        rc.preemptions = result.preemptions;
        rc.cycleBreakdown = std::move(breakdown);
        if (opts_.traceSink) {
            rc.tracePath = from_cache && cache_
                ? cache_->artifact(key)
                : opts_.tracePath;
        }
        for (const auto &k : result.kernels) {
            ReportKernel rk;
            rk.name = k.name;
            rk.isQos = k.isQos;
            rk.goalFrac = k.goalFrac;
            rk.goalIpc = k.goalIpc;
            rk.ipc = k.ipc;
            rk.ipcIsolated = k.ipcIsolated;
            rk.reached = k.reached();
            rc.kernels.push_back(std::move(rk));
        }
        if (opts_.metrics) {
            opts_.metrics->observe("harness.case_wall_sec",
                                   rc.wallSec);
        }
        opts_.report->addCase(std::move(rc));
    }
    return result;
}

std::vector<double>
paperGoalSweep()
{
    std::vector<double> goals;
    for (int pct = 50; pct <= 95; pct += 5)
        goals.push_back(pct / 100.0);
    return goals;
}

std::vector<double>
paperDualGoalSweep()
{
    std::vector<double> goals;
    for (int pct = 25; pct <= 70; pct += 5)
        goals.push_back(pct / 100.0);
    return goals;
}

} // namespace gqos
