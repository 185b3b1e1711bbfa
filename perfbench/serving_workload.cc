/**
 * @file
 * serving_overload: the ServingDriver's default 4-tenant mix under
 * seeded open-loop Poisson arrivals at 0.5x / 1x / 2x / 4x of the
 * base rate, with the JSONL trace and Perfetto timeline sinks
 * attached. Arrivals are generated in simulated time during set-up,
 * so the generator can never run late.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "harness/runner.hh"
#include "layers.hh"
#include "perfbench.hh"
#include "serving/arrival.hh"
#include "serving/server.hh"
#include "serving/tenant.hh"
#include "telemetry/timeline.hh"
#include "telemetry/trace.hh"

namespace perfbench
{

namespace
{

const std::vector<double> loads = {0.5, 1.0, 2.0, 4.0};
/** Base per-tenant arrivals per kcycle: 1x runs the default mix
 *  near capacity, 2x and 4x are sustained overload. */
constexpr double baseRate = 0.04;

struct Point
{
    double load = 1.0;
    double runS = 0.0;
    gqos::ServingReport report;
    bool ok = false;
};

struct Pass
{
    double setupS = 0.0;
    double runS = 0.0;
    std::vector<double> makeS;
    std::vector<Point> points;
    std::uint64_t simCycles = 0;
    std::uint64_t digest = 0;
    TelemetryTotals telemetry;
};

std::string
loadName(double load)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%gx", load);
    return buf;
}

/** The inputs of one pass over the load ladder. */
struct SetUp
{
    std::vector<std::vector<gqos::Arrival>> arrivals;
    std::vector<std::unique_ptr<gqos::ServingDriver>> drivers;
    std::vector<double> makeS;
    double seconds = 0.0;
};

/**
 * Set-up of one pass: per load point, generate the seeded arrival
 * stream and build a ServingDriver (which measures the tenants'
 * isolated baselines). Every point covers the same arrival window,
 * sized for @p launches arrivals at 1x, so a point at load L receives
 * about L times as many.
 */
SetUp
setUp(const std::vector<gqos::TenantSpec> &mix, std::uint64_t seed,
      int launches, gqos::MetricsRegistry *metrics, SpanRecorder &spans)
{
    const auto horizon = static_cast<gqos::Cycle>(std::ceil(
        launches * 1000.0 / (baseRate * static_cast<double>(mix.size()))));
    SetUp su;
    ScopedSpan setup(spans, "setup");
    const auto t0 = Clock::now();
    for (double load : loads) {
        gqos::ArrivalConfig acfg;
        acfg.kind = gqos::ArrivalKind::Poisson;
        acfg.ratePerKcycle = baseRate * load;
        acfg.numTenants = static_cast<int>(mix.size());
        acfg.seed = seed;
        acfg.horizon = horizon;
        {
            ScopedSpan s(spans, "arrivals.generate");
            su.arrivals.push_back(gqos::generateArrivals(acfg));
        }
        gqos::ServingOptions so;
        so.caseKey = "serving|x" + loadName(load);
        so.metrics = metrics;
        ScopedSpan s(spans, "serving.make");
        const auto tm = Clock::now();
        su.drivers.push_back(orDie(gqos::ServingDriver::make(mix, so),
                                   "ServingDriver::make"));
        su.makeS.push_back(secondsSince(tm));
    }
    su.seconds = secondsSince(t0);
    return su;
}

/**
 * One pass over the load ladder: set-up, then the timed
 * ServingDriver::run calls. With @p withSinks the JSONL trace and the
 * timeline are written to @p dir; a traced pass (enabled @p spans)
 * reaches them through a TimedSink.
 */
Pass
runPass(const std::vector<gqos::TenantSpec> &mix, std::uint64_t seed,
        int launches, bool withSinks, const std::string &dir,
        gqos::MetricsRegistry *metrics, SpanRecorder &spans,
        Report &report)
{
    Pass pass;
    std::unique_ptr<gqos::JsonlTraceSink> jsonl;
    std::unique_ptr<gqos::TimelineSink> timeline;
    std::unique_ptr<gqos::TeeTraceSink> tee;
    std::unique_ptr<TimedSink> timed;
    const std::string jsonlPath = dir + "/trace.jsonl";
    const std::string timelinePath = dir + "/timeline.json";
    if (withSinks) {
        auto j = gqos::JsonlTraceSink::open(jsonlPath);
        auto t = gqos::TimelineSink::open(timelinePath);
        if (!j.ok() || !t.ok())
            die("cannot open trace sinks in " + dir);
        jsonl = std::move(j).value();
        timeline = std::move(t).value();
        tee = std::make_unique<gqos::TeeTraceSink>(jsonl.get(),
                                                   timeline.get());
        if (spans.enabled())
            timed = std::make_unique<TimedSink>(*tee);
    }

    SetUp su = setUp(mix, seed, launches, metrics, spans);
    pass.setupS = su.seconds;
    pass.makeS = su.makeS;

    gqos::TraceSink *sink = tee.get();
    if (timed)
        sink = timed.get();
    Digest digest;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < loads.size(); ++i) {
        Point pt;
        pt.load = loads[i];
        ScopedSpan s(spans, "serving.run");
        const auto tp = Clock::now();
        auto r = su.drivers[i]->run(su.arrivals[i], sink);
        pt.runS = secondsSince(tp);
        pt.ok = r.ok();
        if (pt.ok)
            pt.report = std::move(r).value();
        pass.points.push_back(std::move(pt));
    }
    pass.runS = secondsSince(t0);

    // Output checks: conservation of every arrival and no stall.
    for (const Point &pt : pass.points) {
        const std::string at = "serving at " + loadName(pt.load);
        report.check(pt.ok, at + " ran");
        if (!pt.ok)
            continue;
        const gqos::ServingReport &r = pt.report;
        report.check(!r.engineStalled && !r.anyTenantStalled,
                     at + " did not stall");
        digest.f64(pt.load);
        digest.u64(r.endCycle);
        digest.u64(r.levelChanges);
        for (const gqos::TenantServingStats &t : r.tenants) {
            const std::uint64_t rejected = t.rejectedQueueFull +
                                           t.rejectedShed +
                                           t.rejectedProjected;
            report.check(t.arrivals == t.admitted + rejected &&
                             t.admitted == t.completed + t.abandoned +
                                               t.droppedAtShutdown,
                         at + " conserves " + t.name + "'s requests");
            for (std::uint64_t v :
                 {t.arrivals, t.admitted, t.completed, t.sloMet,
                  rejected, t.abandoned, t.droppedAtShutdown,
                  static_cast<std::uint64_t>(t.p50Latency),
                  static_cast<std::uint64_t>(t.p99Latency)}) {
                digest.u64(v);
            }
        }
        pass.simCycles += r.endCycle;
    }
    pass.digest = digest.value();
    if (timed) {
        pass.telemetry = timed->totals;
        tee.reset();
        jsonl.reset();
        timeline.reset();
        pass.telemetry.bytes =
            fileBytes(jsonlPath) + fileBytes(timelinePath);
    }
    return pass;
}

/** Sums over the given tenants' stats at the given points. */
struct Tally
{
    std::uint64_t arrivals = 0, sloMet = 0, completed = 0;
};

Tally
tally(const Pass &pass, bool (*tenantSel)(gqos::QosClass),
      double onlyLoad)
{
    Tally t;
    for (const Point &pt : pass.points) {
        if (onlyLoad > 0.0 && pt.load != onlyLoad)
            continue;
        for (const auto &s : pt.report.tenants) {
            if (!tenantSel(s.qosClass))
                continue;
            t.arrivals += s.arrivals;
            t.sloMet += s.sloMet;
            t.completed += s.completed;
        }
    }
    return t;
}

double
frac(std::uint64_t a, std::uint64_t b)
{
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

/** serving.* per-layer metrics of one pass. */
void
reportServingLayer(const Pass &pass, Report &report)
{
    report.metric("serving.make_s", median(pass.makeS), "s");
    for (const Point &pt : pass.points)
        report.metric("serving.point_s." + loadName(pt.load), pt.runS,
                      "s");
    std::uint64_t arrivals = 0, admitted = 0, rejected = 0,
                  abandoned = 0, levels = 0;
    for (const Point &pt : pass.points) {
        levels += pt.report.levelChanges;
        for (const auto &t : pt.report.tenants) {
            arrivals += t.arrivals;
            admitted += t.admitted;
            rejected += t.rejectedQueueFull + t.rejectedShed +
                        t.rejectedProjected;
            abandoned += t.abandoned;
        }
    }
    report.note("serving arrivals " + std::to_string(arrivals));
    report.metric("serving.admitted_frac", frac(admitted, arrivals),
                  "ratio");
    report.count("serving.rejected", rejected);
    report.count("serving.abandoned", abandoned);
    report.count("serving.level_changes", levels);
}

bool
isGuaranteed(gqos::QosClass c)
{
    return c == gqos::QosClass::Guaranteed;
}

bool
isSloBacked(gqos::QosClass c)
{
    return c != gqos::QosClass::BestEffort;
}

bool
isBestEffort(gqos::QosClass c)
{
    return c == gqos::QosClass::BestEffort;
}

/**
 * Simulated outcomes of one pass (deterministic for a seed):
 *  - qosreach_rollover: share of the SLO-backed (guaranteed and
 *    elastic) tenants' requests served within their SLO, over the
 *    whole ladder, under the rollover-quota serving policy;
 *  - nonqos_tput_rollover: share of the best-effort tenant's
 *    requests completed, over the whole ladder;
 *  - guaranteed_attainment_2x: share of the guaranteed tenants'
 *    requests at 2x load completed within their SLO; refused and
 *    abandoned requests count as misses;
 *  - slo_capacity_x: the highest load on the ladder at which every
 *    guaranteed tenant attains at least 0.9. At the base rate 1x sits
 *    at the edge of that limit, so this value jumps between ladder
 *    points from seed to seed; it is printed as a note and reported
 *    with the per-layer set rather than gated.
 */
void
reportOutcomes(const Pass &p, bool endToEnd, Report &report)
{
    double capacity = 0.0;
    for (const Point &pt : p.points) {
        bool all = true;
        for (const auto &t : pt.report.tenants) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "load %s tenant %s attainment %.4f",
                          loadName(pt.load).c_str(), t.name.c_str(),
                          t.sloAttainment);
            report.note(buf);
            if (isGuaranteed(t.qosClass) && t.sloAttainment < 0.9)
                all = false;
        }
        if (all)
            capacity = std::max(capacity, pt.load);
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "slo_capacity_x %.4f x", capacity);
    report.note(buf);
    if (!endToEnd) {
        report.metric("slo_capacity_x", capacity, "x");
        return;
    }
    const Tally slo = tally(p, isSloBacked, 0.0);
    const Tally be = tally(p, isBestEffort, 0.0);
    report.metric("qosreach_rollover", frac(slo.sloMet, slo.arrivals),
                  "ratio");
    report.metric("nonqos_tput_rollover", frac(be.completed, be.arrivals),
                  "ratio");
    const Tally g2 = tally(p, isGuaranteed, 2.0);
    report.metric("guaranteed_attainment_2x", frac(g2.sloMet, g2.arrivals),
                  "ratio");
}

} // anonymous namespace

void
reportServingProbe(const Options &opts, Report &report,
                   SpanRecorder &spans)
{
    // The sweeps never reach the serving layer; a short ladder of the
    // default mix measures it so its figures exist on every workload.
    ScopedSpan s(spans, "probe.serving");
    gqos::MetricsRegistry metrics;
    const Pass pass =
        runPass(gqos::defaultTenantMix(), opts.seed, opts.tiny ? 8 : 40,
                false, opts.workDir, &metrics, spans, report);
    reportServingLayer(pass, report);
}

void
runServingWorkload(const Options &opts, Report &report,
                   SpanRecorder &spans)
{
    const std::vector<gqos::TenantSpec> mix = gqos::defaultTenantMix();
    const int launches = opts.tiny ? 24 : 2000;
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "workload serving_overload seed %llu tenants %zu "
                      "launches_at_1x %d base_rate %.3f/kcycle "
                      "loads 0.5x,1x,2x,4x open-loop poisson",
                      static_cast<unsigned long long>(opts.seed),
                      mix.size(), launches, baseRate);
        report.note(buf);
    }

    SpanRecorder off(false);
    std::vector<Pass> passes;
    const auto start = Clock::now();
    const int maxPasses = opts.trace ? 1 : 100;
    while (static_cast<int>(passes.size()) < maxPasses) {
        const std::string dir =
            opts.workDir + "/pass" + std::to_string(passes.size());
        freshDir(dir);
        passes.push_back(runPass(mix, opts.seed, launches, true, dir,
                                 nullptr, off, report));
        freshDir(dir); // keep at most one pass of trace files on disk
        const double elapsed = secondsSince(start);
        if (elapsed * (passes.size() + 1) / passes.size() > opts.seconds)
            break;
    }
    for (const Pass &p : passes) {
        report.check(p.digest == passes.front().digest,
                     "every pass produces the same results");
    }
    report.digest("serving_overload", passes.front().digest);

    std::vector<double> setupS;
    for (const Pass &p : passes)
        setupS.push_back(p.setupS);
    while (!opts.trace && setupS.size() < setupReps)
        setupS.push_back(
            setUp(mix, opts.seed, launches, nullptr, off).seconds);

    std::vector<double> runS, pointMs;
    double simCycles = 0.0, runTotal = 0.0;
    for (const Pass &p : passes) {
        runS.push_back(p.runS);
        for (const Point &pt : p.points)
            pointMs.push_back(pt.runS * 1e3);
        simCycles += static_cast<double>(p.simCycles);
        runTotal += p.runS;
    }
    {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "passes %zu case_samples %zu sim_cycles %.0f pass_s",
                      passes.size(), pointMs.size(), simCycles);
        std::string line = buf;
        for (double r : runS) {
            std::snprintf(buf, sizeof(buf), " %.4f", r);
            line += buf;
        }
        report.note(line);
    }

    if (!opts.trace) {
        report.metric("run_s", median(runS), "s");
        report.metric("setup_s", median(setupS), "s");
        report.metric("sim_mcycles_per_s", simCycles / runTotal / 1e6,
                      "Mcycles/s");
        report.metric("case_p50_ms", percentile(pointMs, 50), "ms");
        report.metric("case_p90_ms", percentile(pointMs, 90), "ms");
        report.metric("peak_rss_mb", peakRssMb(), "MiB");
        reportOutcomes(passes.front(), true, report);
        return;
    }

    // ---- traced pass ----
    gqos::MetricsRegistry metrics;
    const std::string dir = opts.workDir + "/traced";
    freshDir(dir);
    const Pass traced = runPass(mix, opts.seed, launches, true, dir,
                                &metrics, spans, report);
    report.check(traced.digest == passes.front().digest,
                 "traced pass produces the untraced results");
    reportTrace(spans, "serving.run", traced.runS,
                passes.front().runS, report);
    reportOutcomes(passes.front(), false, report);
    reportServingLayer(traced, report);
    reportTelemetry(traced.telemetry, report);
    reportQosCounters(metrics, report);

    // ---- the tenant kernels as harness co-runs, for the layers
    // ServingDriver keeps internal (engine, policy, memory, SM) ----
    gqos::Runner::Options ro;
    ro.cycles = opts.tiny ? 6000 : 40000;
    ro.warmupCycles = opts.tiny ? 1000 : 10000;
    ro.cacheDir = opts.workDir + "/corun";
    gqos::MetricsRegistry harness;
    ro.metrics = &harness;
    freshDir(ro.cacheDir);
    gqos::Runner runner = orDie(gqos::Runner::make(ro), "Runner::make");
    std::vector<std::string> kernels;
    std::vector<double> goals;
    for (const gqos::TenantSpec &t : mix) {
        kernels.push_back(t.kernel);
        goals.push_back(isBestEffort(t.qosClass) ? 0.0 : t.goalFrac);
    }
    {
        ScopedSpan s(spans, "runner.baseline");
        const auto t0 = Clock::now();
        for (const std::string &k : kernels)
            report.check(runner.isolatedIpc(k).ok(),
                         "isolated baseline of " + k);
        report.metric("runner.baseline_s", secondsSince(t0), "s");
    }
    std::vector<gqos::SweepCase> cases;
    std::vector<gqos::CaseResult> results;
    for (const char *pol : {"serving", "rollover", "elastic", "spart"}) {
        gqos::SweepCase c;
        c.kernels = kernels;
        c.goals = goals;
        c.policy = pol;
        ScopedSpan s(spans, "runner.run");
        auto r = runner.run(c.kernels, c.goals, c.policy);
        report.check(r.ok(), c.describe());
        if (!r.ok())
            continue;
        cases.push_back(std::move(c));
        results.push_back(std::move(r).value());
    }
    report.count("result_cache.hits",
                 harness.counter("harness.cache_hits").value());
    report.count("result_cache.misses",
                 harness.counter("harness.cases_simulated").value());
    reportLayers(opts, runner, cases, results, report, spans);
}

} // namespace perfbench
