/**
 * @file
 * sweep_compute and sweep_memory: a Figure-6-shaped goal sweep over
 * one kernel class, run through the public harness (Runner::make,
 * Runner::isolatedIpc, Runner::run) at one job with a cold result
 * cache in a fresh directory for every pass.
 *
 * The pairs and trios form a balanced design over the kernel class;
 * the seed orders the cases and draws the samples that are checked
 * against the reference engine and replayed layer by layer.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "common/rng.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "layers.hh"
#include "perfbench.hh"
#include "telemetry/timeline.hh"
#include "telemetry/trace.hh"

namespace perfbench
{

namespace
{


enum class Group
{
    Pair,  //!< one QoS kernel + one background kernel
    Trio1, //!< trio with one QoS kernel
    Trio2  //!< trio with two QoS kernels
};

struct Plan
{
    gqos::Runner::Options runner;
    std::vector<std::string> kernels;
    std::vector<double> singleGoals;
    std::vector<gqos::SweepCase> cases;
    std::vector<Group> groups;
};

/** Seeded permutation of [0, n). */
std::vector<int>
permutation(int n, gqos::Rng &rng)
{
    std::vector<int> p(n);
    for (int i = 0; i < n; ++i)
        p[i] = i;
    for (int i = n - 1; i > 0; --i)
        std::swap(p[i], p[rng.below(static_cast<std::uint64_t>(i) + 1)]);
    return p;
}

Plan
makePlan(bool memory, const Options &opts)
{
    Plan plan;
    plan.kernels = memory
        ? std::vector<std::string>{"histo", "lbm", "sad", "spmv",
                                   "stencil"}
        : std::vector<std::string>{"cutcp", "mri-gridding", "mri-q",
                                   "sgemm", "tpacf"};
    // 40k cycles with a 10k warmup leaves three full 10k-cycle QoS
    // epochs of measurement, so the policies are past their first
    // transient; every case starts with empty caches.
    plan.runner.cycles = opts.tiny ? 6000 : 40000;
    plan.runner.warmupCycles = opts.tiny ? 1000 : 10000;
    plan.runner.engine = gqos::EngineKind::Event;
    plan.singleGoals = opts.tiny ? std::vector<double>{0.5}
                                 : std::vector<double>{0.5, 0.7, 0.9};
    const std::vector<double> dualGoals =
        opts.tiny ? std::vector<double>{0.25}
                  : std::vector<double>{0.25, 0.45, 0.65};

    // A balanced design over the class: pair i is (k[i], k[i+1]),
    // trio i is (k[i], k[i+1], k[i+3]), so every kernel is the QoS
    // kernel of one pair, the background of one, and sits once in
    // each trio position. The design does not depend on the seed:
    // the seed orders the cases and draws the cross-checked and
    // replayed samples, so the simulated outcomes are the same for
    // every seed and only host time varies between seeds.
    const int n = static_cast<int>(plan.kernels.size());
    std::vector<std::array<std::string, 3>> trios;
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < n; ++i) {
        pairs.emplace_back(plan.kernels[i], plan.kernels[(i + 1) % n]);
        trios.push_back({plan.kernels[i], plan.kernels[(i + 1) % n],
                         plan.kernels[(i + 3) % n]});
    }
    if (opts.tiny) {
        pairs.resize(2);
        trios.resize(1);
    }

    auto add = [&](std::vector<std::string> k, std::vector<double> g,
                   const char *policy, Group group) {
        gqos::SweepCase c;
        c.kernels = std::move(k);
        c.goals = std::move(g);
        c.policy = policy;
        plan.cases.push_back(std::move(c));
        plan.groups.push_back(group);
    };
    for (double goal : plan.singleGoals) {
        for (const char *pol : {"spart", "naive", "elastic", "rollover"}) {
            for (const auto &[q, o] : pairs)
                add({q, o}, {goal, 0.0}, pol, Group::Pair);
        }
        for (const char *pol : {"spart", "rollover"}) {
            for (const auto &t : trios)
                add({t[0], t[1], t[2]}, {goal, 0.0, 0.0}, pol,
                    Group::Trio1);
        }
    }
    for (double goal : dualGoals) {
        for (const char *pol : {"spart", "rollover"}) {
            for (const auto &t : trios)
                add({t[0], t[1], t[2]}, {goal, goal, 0.0}, pol,
                    Group::Trio2);
        }
    }
    gqos::Rng rng(opts.seed * 0x9e3779b97f4a7c15ull + (memory ? 2 : 1));
    const std::vector<int> order =
        permutation(static_cast<int>(plan.cases.size()), rng);
    std::vector<gqos::SweepCase> cases;
    std::vector<Group> groups;
    for (int i : order) {
        cases.push_back(plan.cases[i]);
        groups.push_back(plan.groups[i]);
    }
    plan.cases = std::move(cases);
    plan.groups = std::move(groups);
    return plan;
}

struct PassResult
{
    double setupS = 0.0;
    double baselineS = 0.0;
    double runS = 0.0;
    std::vector<double> caseMs;
    std::vector<gqos::CaseResult> results;
    std::uint64_t simCycles = 0;
    std::uint64_t digest = 0;
};

/**
 * Set-up of one pass: Runner::make on a fresh cache directory and the
 * isolated-baseline pre-pass. Returns the Runner; adds the set-up and
 * baseline times to @p pass.
 */
std::unique_ptr<gqos::Runner>
setUp(const Plan &plan, const gqos::Runner::Options &ro,
      SpanRecorder &spans, Report &report, PassResult &pass)
{
    freshDir(ro.cacheDir);
    ScopedSpan setup(spans, "setup");
    const auto t0 = Clock::now();
    std::unique_ptr<gqos::Runner> runner;
    {
        ScopedSpan s(spans, "runner.make");
        runner = std::make_unique<gqos::Runner>(
            orDie(gqos::Runner::make(ro), "Runner::make"));
    }
    const auto tb = Clock::now();
    for (const std::string &k : plan.kernels) {
        ScopedSpan s(spans, "runner.baseline");
        auto iso = runner->isolatedIpc(k);
        report.check(iso.ok(), "isolated baseline of " + k);
    }
    pass.baselineS = secondsSince(tb);
    pass.setupS = secondsSince(t0);
    return runner;
}

/**
 * One pass: set-up, then the timed sweep, one Runner::run per case.
 * @p runner receives the pass's Runner so a traced run can keep
 * using its baselines.
 */
PassResult
runPass(const Plan &plan, const gqos::Runner::Options &ro,
        SpanRecorder &spans, std::unique_ptr<gqos::Runner> &runner,
        Report &report)
{
    PassResult pass;
    runner = setUp(plan, ro, spans, report, pass);

    const int before = runner->simulatedCases();
    Digest d;
    const auto t0 = Clock::now();
    for (const gqos::SweepCase &c : plan.cases) {
        ScopedSpan s(spans, "runner.run");
        const auto tc = Clock::now();
        auto r = runner->run(c.kernels, c.goals, c.policy);
        pass.caseMs.push_back(secondsSince(tc) * 1e3);
        if (!r.ok()) {
            report.check(false, c.describe() + ": " +
                                    r.error().describe());
            pass.results.emplace_back();
            continue;
        }
        report.check(true, c.describe());
        digestResult(d, c, r.value());
        pass.results.push_back(std::move(r).value());
    }
    pass.runS = secondsSince(t0);
    pass.simCycles =
        static_cast<std::uint64_t>(runner->simulatedCases() - before) *
        plan.runner.cycles;
    pass.digest = d.value();
    return pass;
}

/**
 * Simulated outcomes of one pass (the same for every seed). All come
 * from the rollover cases:
 *  - qosreach_rollover: share of cases whose every QoS goal is
 *    reached (the paper's QoSreach);
 *  - nonqos_tput_rollover: mean non-QoS throughput, normalised to
 *    isolated execution;
 *  - guaranteed_attainment_2x: mean attained share of the goal,
 *    capped at 1, of the QoS kernels in trios with two QoS kernels;
 *  - slo_capacity_x: the highest single-QoS goal on the ladder that
 *    rollover reaches in at least 90% of its cases (0 if none).
 * The first three are end-to-end metrics; slo_capacity_x can be 0,
 * so it is printed as a note and reported with the per-layer set.
 */
void
reportOutcomes(const Plan &plan, const PassResult &pass, bool endToEnd,
               Report &report)
{
    int roCases = 0, roReached = 0;
    double tputSum = 0.0;
    int dualKernels = 0;
    double dualAttained = 0.0;
    std::vector<int> goalCases(plan.singleGoals.size(), 0);
    std::vector<int> goalReached(plan.singleGoals.size(), 0);
    for (std::size_t i = 0; i < plan.cases.size(); ++i) {
        const gqos::SweepCase &c = plan.cases[i];
        const gqos::CaseResult &r = pass.results[i];
        if (c.policy != "rollover" || r.kernels.empty())
            continue;
        roCases++;
        roReached += r.allReached();
        tputSum += r.nonQosThroughput();
        if (plan.groups[i] == Group::Trio2) {
            for (const auto &k : r.kernels) {
                if (k.isQos) {
                    dualKernels++;
                    dualAttained += std::min(1.0, k.normalizedToGoal());
                }
            }
            continue;
        }
        for (std::size_t g = 0; g < plan.singleGoals.size(); ++g) {
            if (c.goals[0] == plan.singleGoals[g]) {
                goalCases[g]++;
                goalReached[g] += r.allReached();
            }
        }
    }
    double capacity = 0.0;
    for (std::size_t g = 0; g < plan.singleGoals.size(); ++g) {
        const double reach =
            goalCases[g] ? static_cast<double>(goalReached[g]) /
                               goalCases[g]
                         : 0.0;
        char buf[96];
        std::snprintf(buf, sizeof(buf), "rollover reach at goal %.2f: %.4f",
                      plan.singleGoals[g], reach);
        report.note(buf);
        if (reach >= 0.9)
            capacity = plan.singleGoals[g];
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "slo_capacity_x %.4f x", capacity);
    report.note(buf);
    if (!endToEnd) {
        report.metric("slo_capacity_x", capacity, "x");
        return;
    }
    report.metric("qosreach_rollover",
                  roCases ? static_cast<double>(roReached) / roCases : 0.0,
                  "ratio");
    report.metric("nonqos_tput_rollover",
                  roCases ? tputSum / roCases : 0.0, "ratio");
    report.metric("guaranteed_attainment_2x",
                  dualKernels ? dualAttained / dualKernels : 0.0, "ratio");
}

} // anonymous namespace

void
runSweepWorkload(const Options &opts, bool memory, Report &report,
                 SpanRecorder &spans)
{
    const Plan plan = makePlan(memory, opts);
    const std::string name = memory ? "sweep_memory" : "sweep_compute";
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "workload %s seed %llu cases %zu cycles %llu "
                      "warmup %llu jobs 1",
                      name.c_str(),
                      static_cast<unsigned long long>(opts.seed),
                      plan.cases.size(),
                      static_cast<unsigned long long>(plan.runner.cycles),
                      static_cast<unsigned long long>(
                          plan.runner.warmupCycles));
        report.note(buf);
    }
    for (std::size_t i = 0; i < plan.cases.size(); ++i)
        report.note("case " + plan.cases[i].describe());

    // ---- untraced passes (the end-to-end measurement) ----
    SpanRecorder off(false);
    std::vector<PassResult> passes;
    std::unique_ptr<gqos::Runner> runner;
    const auto start = Clock::now();
    const int maxPasses = opts.trace ? 1 : 100;
    while (static_cast<int>(passes.size()) < maxPasses) {
        gqos::Runner::Options ro = plan.runner;
        ro.cacheDir = opts.workDir + "/pass" +
                      std::to_string(passes.size());
        passes.push_back(runPass(plan, ro, off, runner, report));
        // Stop when another pass of the mean length would overrun
        // the measuring time.
        const double elapsed = secondsSince(start);
        if (elapsed * (passes.size() + 1) / passes.size() > opts.seconds)
            break;
    }
    for (const PassResult &pass : passes) {
        report.check(pass.digest == passes.front().digest,
                     "every pass produces the same results");
    }
    report.digest(name, passes.front().digest);

    // Set-up is timed at least setupReps times: every pass counts,
    // extra set-ups fill the rest.
    std::vector<double> setupS;
    for (const PassResult &pass : passes)
        setupS.push_back(pass.setupS);
    while (!opts.trace && setupS.size() < setupReps) {
        gqos::Runner::Options ro = plan.runner;
        ro.cacheDir = opts.workDir + "/setup" +
                      std::to_string(setupS.size());
        PassResult pass;
        setUp(plan, ro, off, report, pass);
        setupS.push_back(pass.setupS);
    }

    // ---- reference-engine cross-check, outside the timed region ----
    {
        const auto idx = sampleIndices(plan.cases.size(),
                                       opts.tiny ? 2 : 3, opts.seed);
        std::vector<gqos::SweepCase> sample;
        std::vector<gqos::CaseResult> expected;
        for (std::size_t i : idx) {
            sample.push_back(plan.cases[i]);
            expected.push_back(passes.front().results[i]);
        }
        gqos::Runner::Options ro = plan.runner;
        ro.cacheDir = opts.workDir + "/reference";
        referenceCrossCheck(ro, sample, expected, report);
    }

    std::vector<double> runS, caseMs;
    double simCycles = 0.0, runTotal = 0.0;
    for (const PassResult &pass : passes) {
        runS.push_back(pass.runS);
        caseMs.insert(caseMs.end(), pass.caseMs.begin(), pass.caseMs.end());
        simCycles += static_cast<double>(pass.simCycles);
        runTotal += pass.runS;
    }
    {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "passes %zu case_samples %zu sim_cycles %.0f pass_s",
                      passes.size(), caseMs.size(), simCycles);
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
        report.metric("case_p50_ms", percentile(caseMs, 50), "ms");
        report.metric("case_p90_ms", percentile(caseMs, 90), "ms");
        report.metric("peak_rss_mb", peakRssMb(), "MiB");
        reportOutcomes(plan, passes.front(), true, report);
        return;
    }

    // ---- traced pass: spans around every public call, with the
    // metrics registry, a JSONL trace and a Perfetto timeline
    // attached through timing decorators ----
    const std::string telDir = opts.workDir + "/telemetry";
    freshDir(telDir);
    const std::string jsonlPath = telDir + "/trace.jsonl";
    const std::string timelinePath = telDir + "/timeline.json";
    auto jsonl = gqos::JsonlTraceSink::open(jsonlPath);
    auto timeline = gqos::TimelineSink::open(timelinePath);
    if (!jsonl.ok() || !timeline.ok())
        die("cannot open trace sinks in " + telDir);
    gqos::TeeTraceSink tee(jsonl.value().get(), timeline.value().get());
    TimedSink timedSink(tee);
    gqos::MetricsRegistry metrics;

    gqos::Runner::Options ro = plan.runner;
    ro.cacheDir = opts.workDir + "/traced";
    ro.traceSink = &timedSink;
    ro.tracePath = jsonlPath;
    ro.metrics = &metrics;
    std::unique_ptr<gqos::Runner> tracedRunner;
    PassResult traced = runPass(plan, ro, spans, tracedRunner, report);
    timedSink.flush();
    report.check(traced.digest == passes.front().digest,
                 "traced pass produces the untraced results");

    // The timed region's top-level spans are the Runner::run calls.
    reportTrace(spans, "runner.run", traced.runS,
                passes.front().runS, report);
    reportOutcomes(plan, passes.front(), false, report);
    report.metric("runner.baseline_s", traced.baselineS, "s");
    report.count("result_cache.hits",
                 metrics.counter("harness.cache_hits").value());
    report.count("result_cache.misses",
                 metrics.counter("harness.cases_simulated").value());
    reportQosCounters(metrics, report);

    timedSink.totals.bytes =
        fileBytes(jsonlPath) + fileBytes(timelinePath);
    reportTelemetry(timedSink.totals, report);

    // ---- decomposed replay of a seeded fifth of the cases, probes ----
    {
        const auto idx = sampleIndices(
            plan.cases.size(),
            std::max<std::size_t>(2, plan.cases.size() / 5),
            opts.seed + 1);
        std::vector<gqos::SweepCase> sample;
        std::vector<gqos::CaseResult> expected;
        for (std::size_t i : idx) {
            sample.push_back(plan.cases[i]);
            expected.push_back(traced.results[i]);
        }
        reportLayers(opts, *tracedRunner, sample, expected, report, spans);
    }
    reportServingProbe(opts, report, spans);
}

} // namespace perfbench
