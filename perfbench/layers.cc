/**
 * @file
 * Decorators, decomposed case replay and timed layer probes.
 */

#include "layers.hh"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/metrics.hh"
#include "common/rng.hh"
#include "engine/sim_engine.hh"
#include "gpu/gpu.hh"
#include "harness/result_cache.hh"
#include "mem/cache.hh"
#include "mem/mem_system.hh"
#include "policy/policy_factory.hh"
#include "power/power_model.hh"
#include "workloads/parboil.hh"

namespace perfbench
{

using gqos::Cycle;

namespace
{

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

} // anonymous namespace

// ---------------------------------------------------------------
// Decorators

void
TimedPolicy::onLaunch(gqos::Gpu &gpu)
{
    const auto t0 = Clock::now();
    inner_.onLaunch(gpu);
    ns_ += nsSince(t0);
}

void
TimedPolicy::onCycle(gqos::Gpu &gpu)
{
    const auto t0 = Clock::now();
    inner_.onCycle(gpu);
    ns_ += nsSince(t0);
    onCycleCalls_++;
}

Cycle
TimedPolicy::nextControlAt(const gqos::Gpu &gpu, Cycle now) const
{
    const auto t0 = Clock::now();
    const Cycle c = inner_.nextControlAt(gpu, now);
    ns_ += nsSince(t0);
    nextControlCalls_++;
    return c;
}

void
TimedPolicy::attachTelemetry(gqos::TraceSink *sink,
                             gqos::MetricsRegistry *metrics)
{
    inner_.attachTelemetry(sink, metrics);
}

void
TimedPolicy::onFinish(gqos::Gpu &gpu)
{
    const auto t0 = Clock::now();
    inner_.onFinish(gpu);
    ns_ += nsSince(t0);
}

const char *const recordKindNames[NumRecordKinds] = {
    "epoch_kernel", "epoch_mem", "alloc_event", "serving_event",
    "sm_slice"};

#define PERFBENCH_FORWARD(method, type, kind)                         \
    void TimedSink::method(const gqos::type &rec)                   \
    {                                                                 \
        const auto t0 = Clock::now();                                 \
        inner_.method(rec);                                           \
        totals.sinkSeconds += secondsSince(t0);                       \
        totals.records[kind]++;                                       \
    }
PERFBENCH_FORWARD(onEpochKernel, EpochKernelRecord, RecEpochKernel)
PERFBENCH_FORWARD(onEpochMem, EpochMemRecord, RecEpochMem)
PERFBENCH_FORWARD(onAllocEvent, AllocEventRecord, RecAllocEvent)
PERFBENCH_FORWARD(onServingEvent, ServingEventRecord, RecServingEvent)
PERFBENCH_FORWARD(onSmSlice, SmSliceRecord, RecSmSlice)
#undef PERFBENCH_FORWARD

void
TimedSink::flush()
{
    const auto t0 = Clock::now();
    inner_.flush();
    totals.flushSeconds += secondsSince(t0);
}

void
reportTelemetry(const TelemetryTotals &t, Report &report)
{
    for (int i = 0; i < NumRecordKinds; ++i) {
        report.count(std::string("telemetry.records.") +
                         recordKindNames[i],
                     t.records[i]);
    }
    report.count("telemetry.bytes", t.bytes, "bytes");
    report.metric("telemetry.sink_s", t.sinkSeconds, "s");
    report.metric("telemetry.flush_s", t.flushSeconds, "s");
}

void
reportTrace(const SpanRecorder &spans, const std::string &root,
            double tracedRunS, double untracedRunS, Report &report)
{
    const double topSelf = spans.topLevelSelf(root);
    report.metric("trace.run_s", tracedRunS, "s");
    report.metric("trace.untraced_run_s", untracedRunS, "s");
    report.metric("trace.top_self_frac", topSelf / tracedRunS, "ratio");
    report.check(topSelf <= tracedRunS && topSelf >= 0.95 * tracedRunS,
                 "top-level self times add up to the traced run_s");
    report.metric("trace.overhead", tracedRunS / untracedRunS - 1.0,
                  "ratio");
}

void
reportQosCounters(gqos::MetricsRegistry &metrics, Report &report)
{
    for (const char *name : {"qos.epochs", "qos.refill_grants",
                             "qos.tb_swaps", "qos.elastic_restarts"}) {
        report.count(name, metrics.counter(name).value());
    }
}

// ---------------------------------------------------------------
// Result comparison and digests

bool
sameResult(const gqos::CaseResult &a, const gqos::CaseResult &b)
{
    if (a.kernels.size() != b.kernels.size() ||
        !sameBits(a.instrPerWatt, b.instrPerWatt) ||
        a.preemptions != b.preemptions ||
        !sameBits(a.dramPerKcycle, b.dramPerKcycle)) {
        return false;
    }
    for (std::size_t i = 0; i < a.kernels.size(); ++i) {
        const auto &x = a.kernels[i];
        const auto &y = b.kernels[i];
        if (x.name != y.name || !sameBits(x.ipc, y.ipc) ||
            !sameBits(x.ipcIsolated, y.ipcIsolated) ||
            !sameBits(x.goalIpc, y.goalIpc)) {
            return false;
        }
    }
    return true;
}

void
digestResult(Digest &d, const gqos::SweepCase &c,
             const gqos::CaseResult &r)
{
    d.str(c.describe());
    for (const auto &k : r.kernels) {
        d.f64(k.ipc);
        d.f64(k.ipcIsolated);
        d.f64(k.goalIpc);
    }
    d.f64(r.instrPerWatt);
    d.u64(r.preemptions);
    d.f64(r.dramPerKcycle);
}

std::vector<std::size_t>
sampleIndices(std::size_t n, std::size_t k, std::uint64_t seed)
{
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i)
        idx[i] = i;
    gqos::Rng rng(seed);
    k = std::min(k, n);
    for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j = i + rng.below(n - i);
        std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    std::sort(idx.begin(), idx.end());
    return idx;
}

void
referenceCrossCheck(const gqos::Runner::Options &base,
                    const std::vector<gqos::SweepCase> &sample,
                    const std::vector<gqos::CaseResult> &expected,
                    Report &report)
{
    gqos::Runner::Options o = base;
    o.engine = gqos::EngineKind::Reference;
    freshDir(o.cacheDir);
    gqos::Runner ref = orDie(gqos::Runner::make(o), "reference runner");
    for (std::size_t i = 0; i < sample.size(); ++i) {
        const gqos::SweepCase &c = sample[i];
        auto r = ref.run(c.kernels, c.goals, c.policy);
        report.check(r.ok() && sameResult(r.value(), expected[i]),
                     "reference engine matches event engine on " +
                         c.describe());
    }
}

// ---------------------------------------------------------------
// Decomposed replay

namespace
{

/** Totals over every replayed case. */
struct ReplayTotals
{
    std::uint64_t warpInstrs = 0;
    std::uint64_t smCycles = 0;
    std::uint64_t smActiveCycles = 0;
    std::uint64_t smWalked = 0;
    std::uint64_t smSkipped = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t l1Accesses = 0, l1Misses = 0;
    std::uint64_t l2Accesses = 0, l2Misses = 0;
    std::uint64_t dramAccesses = 0;
    gqos::EngineStats engine;
    std::uint64_t onCycleCalls = 0, nextControlCalls = 0;
    double policySeconds = 0.0;
    double runUntilSeconds = 0.0;
    std::vector<double> buildMs;
    std::vector<double> powerUs;
};

/**
 * Replay @p c the way Runner::simulate does and return its result;
 * records spans around each public call and adds to @p tot.
 */
gqos::CaseResult
replayCase(gqos::Runner &runner, const gqos::SweepCase &c,
           SpanRecorder &spans, ReplayTotals &tot, bool *stalledOut)
{
    const gqos::GpuConfig &cfg = runner.config();
    const gqos::Runner::Options &ro = runner.options();
    ScopedSpan caseSpan(spans, "replay.case");

    std::vector<const gqos::KernelDesc *> descs;
    std::vector<gqos::QosSpec> specs;
    std::vector<double> iso;
    for (std::size_t i = 0; i < c.kernels.size(); ++i) {
        descs.push_back(orDie(gqos::findParboilKernel(c.kernels[i]),
                              "kernel"));
        iso.push_back(orDie(runner.isolatedIpc(c.kernels[i]),
                            "isolated baseline"));
        specs.push_back(c.goals[i] > 0.0
                            ? gqos::QosSpec::qos(c.goals[i] * iso[i])
                            : gqos::QosSpec::nonQos());
    }

    std::unique_ptr<gqos::Gpu> gpu;
    std::unique_ptr<gqos::SharingPolicy> pol;
    std::unique_ptr<TimedPolicy> timed;
    {
        ScopedSpan s(spans, "gpu.build");
        const auto t0 = Clock::now();
        gpu = std::make_unique<gqos::Gpu>(cfg);
        gpu->launch(descs);
        pol = orDie(gqos::makePolicy(c.policy, specs, cfg), "policy");
        timed = std::make_unique<TimedPolicy>(*pol);
        timed->onLaunch(*gpu);
        tot.buildMs.push_back(nsSince(t0) * 1e-6);
    }

    gqos::SimEngine engine(gqos::EngineKind::Event, cfg.epochLength);
    const Cycle warmup = std::min(ro.warmupCycles, ro.cycles / 2);
    std::vector<std::uint64_t> atWarmup(c.kernels.size(), 0);
    bool stalled = false;
    {
        ScopedSpan s(spans, "engine.run_until");
        const auto t0 = Clock::now();
        stalled = engine.runUntil(*gpu, *timed, warmup);
        tot.runUntilSeconds += secondsSince(t0);
    }
    if (!stalled) {
        for (std::size_t i = 0; i < c.kernels.size(); ++i)
            atWarmup[i] = gpu->threadInstrs(static_cast<int>(i));
        ScopedSpan s(spans, "engine.run_until");
        const auto t0 = Clock::now();
        stalled = engine.runUntil(*gpu, *timed, ro.cycles);
        tot.runUntilSeconds += secondsSince(t0);
    }
    *stalledOut = stalled;
    timed->onFinish(*gpu);
    gpu->closeOpenSmSlices();

    gqos::CaseResult out;
    const double window = static_cast<double>(ro.cycles - warmup);
    for (std::size_t i = 0; i < c.kernels.size(); ++i) {
        gqos::KernelResult kr;
        kr.name = c.kernels[i];
        kr.ipc = static_cast<double>(
                     gpu->threadInstrs(static_cast<int>(i)) -
                     atWarmup[i]) /
                 window;
        kr.ipcIsolated = iso[i];
        kr.goalFrac = c.goals[i];
        kr.isQos = c.goals[i] > 0.0;
        kr.goalIpc = kr.isQos ? c.goals[i] * iso[i] : 0.0;
        out.kernels.push_back(kr);
    }
    {
        ScopedSpan s(spans, "power.eval");
        const auto t0 = Clock::now();
        out.instrPerWatt = gqos::instrPerWatt(*gpu);
        tot.powerUs.push_back(nsSince(t0) * 1e-3);
    }
    for (int s = 0; s < gpu->numSms(); ++s) {
        const gqos::SmStats &st = gpu->sm(s).stats();
        out.preemptions += st.preemptions;
        tot.smCycles += st.cycles;
        tot.smActiveCycles += st.activeCycles;
    }
    out.dramPerKcycle = 1000.0 * gpu->mem().totalDramAccesses() /
                        std::max<Cycle>(1, gpu->now());

    const gqos::EngineStats &es = engine.stats();
    const std::uint64_t sms = static_cast<std::uint64_t>(gpu->numSms());
    tot.engine.steppedCycles += es.steppedCycles;
    tot.engine.skippedCycles += es.skippedCycles;
    tot.engine.skips += es.skips;
    tot.engine.controlPoints += es.controlPoints;
    tot.smWalked += es.steppedCycles * sms - gpu->smSkippedCycles();
    tot.smSkipped += es.skippedCycles * sms + gpu->smSkippedCycles();
    tot.preemptions += out.preemptions;
    for (int k = 0; k < gpu->numKernels(); ++k)
        tot.warpInstrs += gpu->warpInstrs(k);
    const gqos::MemSystem &mem = gpu->mem();
    tot.l1Accesses += mem.stats().l1Accesses;
    tot.l1Misses += mem.stats().l1Misses;
    tot.l2Accesses += mem.totalL2Accesses();
    tot.l2Misses += mem.totalL2Misses();
    tot.dramAccesses += mem.totalDramAccesses();
    tot.onCycleCalls += timed->onCycleCalls();
    tot.nextControlCalls += timed->nextControlCalls();
    tot.policySeconds += timed->seconds();
    return out;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

// ---------------------------------------------------------------
// Timed probes. Each times a batch of calls several times and keeps
// the median per-call cost.

constexpr int probeBatches = 15;

/** Warmed single-kernel machine; median ns per Gpu::step. */
double
probeStepNs(const gqos::GpuConfig &cfg, const std::string &kernel,
            bool tiny)
{
    gqos::Gpu gpu(cfg);
    gpu.launch({orDie(gqos::findParboilKernel(kernel), "kernel")});
    auto pol = orDie(gqos::makePolicy("even", {gqos::QosSpec::nonQos()},
                                      cfg),
                     "policy");
    pol->onLaunch(gpu);
    gqos::SimEngine engine(gqos::EngineKind::Reference,
                           cfg.epochLength);
    engine.runUntil(gpu, *pol, tiny ? 2000 : 20000);
    const int steps = tiny ? 50 : 400;
    std::vector<double> perStep;
    for (int b = 0; b < probeBatches; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < steps; ++i) {
            pol->onCycle(gpu);
            gpu.step(false);
        }
        perStep.push_back(nsSince(t0) / steps);
    }
    return median(perStep);
}

/** Median ns per MemSystem::load over a seeded address stream. */
double
probeLoadNs(const gqos::GpuConfig &cfg, std::uint64_t seed, bool tiny)
{
    gqos::MemSystem mem(cfg);
    gqos::Rng rng(seed ^ 0x6c6f6164ull);
    const int calls = tiny ? 2000 : 20000;
    // 8 MiB footprint: four times the total L2, so the stream
    // reaches every level of the hierarchy.
    constexpr std::uint64_t footprint = 8u << 20;
    Cycle now = 0;
    std::vector<double> perCall;
    for (int b = 0; b < probeBatches; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < calls; ++i) {
            const gqos::Addr a = rng.below(footprint) & ~0x7full;
            mem.load(i % cfg.numSms, 0, a, now);
            now += 2;
        }
        perCall.push_back(nsSince(t0) / calls);
    }
    return median(perCall);
}

/** Median ns per Cache::access on an L1-shaped cache. */
double
probeCacheAccessNs(const gqos::GpuConfig &cfg, std::uint64_t seed,
                   bool tiny)
{
    gqos::Cache cache(cfg.l1Bytes, cfg.l1Assoc);
    gqos::Rng rng(seed ^ 0x63616368ull);
    const int calls = tiny ? 5000 : 100000;
    // Twice the cache's capacity: a mix of hits and misses.
    const std::uint64_t footprint =
        2 * static_cast<std::uint64_t>(cfg.l1Bytes);
    std::vector<gqos::Addr> addrs(calls);
    for (auto &a : addrs)
        a = rng.below(footprint) & ~0x7full;
    std::vector<double> perCall;
    for (int b = 0; b < probeBatches; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < calls; ++i)
            cache.access(addrs[i], i & 1);
        perCall.push_back(nsSince(t0) / calls);
    }
    return median(perCall);
}

} // anonymous namespace

void
reportLayers(const Options &opts, gqos::Runner &runner,
             const std::vector<gqos::SweepCase> &sample,
             const std::vector<gqos::CaseResult> &expected,
             Report &report, SpanRecorder &spans)
{
    const gqos::GpuConfig &cfg = runner.config();

    // ---- decomposed replay ----
    ReplayTotals tot;
    for (std::size_t i = 0; i < sample.size(); ++i) {
        bool stalled = false;
        gqos::CaseResult r =
            replayCase(runner, sample[i], spans, tot, &stalled);
        report.check(!stalled && sameResult(r, expected[i]),
                     "decomposed replay matches Runner::run on " +
                         sample[i].describe());
    }
    report.note("replay cases " + std::to_string(sample.size()));
    report.count("sm.warp_instrs", tot.warpInstrs);
    report.metric("sm.active_frac",
                  ratio(tot.smActiveCycles, tot.smCycles), "ratio");
    report.metric("gpu.build_ms", median(tot.buildMs), "ms");
    report.count("gpu.sm_cycles_walked", tot.smWalked);
    report.count("gpu.sm_cycles_skipped", tot.smSkipped);
    report.count("gpu.preemptions", tot.preemptions);
    // The policy runs inside runUntil; its time is taken out so the
    // figure is the cost of one walked SM-cycle of machine state.
    const double machineNs =
        (tot.runUntilSeconds - tot.policySeconds) * 1e9;
    report.metric("gpu.ns_per_walked_sm_cycle",
                  tot.smWalked ? machineNs /
                                     static_cast<double>(tot.smWalked)
                               : 0.0,
                  "ns");
    report.count("mem.l1_accesses", tot.l1Accesses);
    report.metric("mem.l1_miss_frac",
                  ratio(tot.l1Misses, tot.l1Accesses), "ratio");
    report.count("mem.l2_accesses", tot.l2Accesses);
    report.metric("mem.l2_miss_frac",
                  ratio(tot.l2Misses, tot.l2Accesses), "ratio");
    report.count("mem.dram_accesses", tot.dramAccesses);
    report.metric("engine.run_until_s", tot.runUntilSeconds, "s");
    report.count("engine.stepped_cycles", tot.engine.steppedCycles);
    report.count("engine.skipped_cycles", tot.engine.skippedCycles);
    report.metric("engine.skip_frac",
                  ratio(tot.engine.skippedCycles,
                        tot.engine.skippedCycles +
                            tot.engine.steppedCycles),
                  "ratio");
    report.count("engine.skips", tot.engine.skips);
    report.count("engine.control_points", tot.engine.controlPoints);
    report.count("policy.on_cycle_calls", tot.onCycleCalls);
    report.count("policy.next_control_calls", tot.nextControlCalls);
    report.metric("policy.self_s", tot.policySeconds, "s");
    report.metric("power.eval_us", median(tot.powerUs), "us");

    // ---- layer probes ----
    {
        ScopedSpan s(spans, "probe.sm_step");
        report.metric("sm.step_ns_compute",
                      probeStepNs(cfg, "sgemm", opts.tiny), "ns");
        report.metric("sm.step_ns_memory",
                      probeStepNs(cfg, "lbm", opts.tiny), "ns");
    }
    {
        ScopedSpan s(spans, "probe.mem");
        report.metric("mem.load_ns",
                      probeLoadNs(cfg, opts.seed, opts.tiny), "ns");
        report.metric("mem.cache_access_ns",
                      probeCacheAccessNs(cfg, opts.seed, opts.tiny), "ns");
    }
    {
        // Result cache: insert + flush N entries into a fresh file,
        // reopen it (load + CRC check of every line), then look
        // every key up.
        ScopedSpan s(spans, "probe.result_cache");
        const int n = opts.tiny ? 64 : 2000;
        std::vector<std::string> keys;
        for (int i = 0; i < n; ++i) {
            char buf[64];
            std::snprintf(buf, sizeof(buf),
                          "rollover|probe%05d:0.5000|bg:0.0000", i);
            keys.emplace_back(buf);
        }
        gqos::CachedCase cc;
        cc.ipc = {123.25, 456.5};
        cc.instrPerWatt = 1.5e9;
        cc.preemptions = 7;
        cc.dramPerKcycle = 33.0;
        std::vector<double> insertMs, openMs, lookupUs;
        for (int rep = 0; rep < 5; ++rep) {
            const std::string path = opts.workDir + "/probe-cache-" +
                                     std::to_string(rep) + ".csv";
            {
                const auto t0 = Clock::now();
                auto c = gqos::ResultCache::open(path);
                for (const auto &k : keys)
                    c->insert(k, cc);
                c->flush();
                insertMs.push_back(nsSince(t0) * 1e-6);
            }
            const auto t1 = Clock::now();
            auto c = gqos::ResultCache::open(path);
            openMs.push_back(nsSince(t1) * 1e-6);
            gqos::CachedCase out;
            std::size_t found = 0;
            const auto t2 = Clock::now();
            for (const auto &k : keys)
                found += c->lookup(k, out);
            lookupUs.push_back(nsSince(t2) * 1e-3 / n);
            report.check(found == keys.size() && out.ipc == cc.ipc,
                         "result cache returns what was stored");
        }
        report.metric("result_cache.insert_flush_ms", median(insertMs),
                      "ms");
        report.metric("result_cache.open_ms", median(openMs), "ms");
        report.metric("result_cache.lookup_us", median(lookupUs), "us");
    }

    // ---- profiler on/off on the first sample case ----
    if (!sample.empty()) {
        ScopedSpan s(spans, "probe.profiler");
        const gqos::SweepCase &c = sample.front();
        std::vector<const gqos::KernelDesc *> descs;
        std::vector<gqos::QosSpec> specs;
        for (std::size_t i = 0; i < c.kernels.size(); ++i) {
            descs.push_back(
                orDie(gqos::findParboilKernel(c.kernels[i]), "kernel"));
            const double iso =
                orDie(runner.isolatedIpc(c.kernels[i]), "baseline");
            specs.push_back(c.goals[i] > 0.0
                                ? gqos::QosSpec::qos(c.goals[i] * iso)
                                : gqos::QosSpec::nonQos());
        }
        const Cycle cycles = runner.options().cycles;
        auto timeOnce = [&](bool accounting) {
            gqos::Gpu gpu(cfg);
            gpu.launch(descs);
            gpu.setCycleAccounting(accounting);
            auto pol =
                orDie(gqos::makePolicy(c.policy, specs, cfg), "policy");
            pol->onLaunch(gpu);
            gqos::SimEngine engine(gqos::EngineKind::Event,
                                   cfg.epochLength);
            const auto t0 = Clock::now();
            engine.runUntil(gpu, *pol, cycles);
            return secondsSince(t0);
        };
        std::vector<double> ratios;
        for (int rep = 0; rep < 3; ++rep) {
            const double off = timeOnce(false);
            const double on = timeOnce(true);
            ratios.push_back(on / off - 1.0);
        }
        report.metric("telemetry.profiler_overhead", median(ratios),
                      "ratio");
    }

    // ---- runSweep at 2 jobs against 1 job on the sample ----
    {
        ScopedSpan s(spans, "probe.sweep_jobs");
        const std::size_t n = std::min<std::size_t>(sample.size(), 8);
        std::vector<gqos::SweepCase> sub(sample.begin(),
                                         sample.begin() + n);
        double secs[2] = {0.0, 0.0};
        for (int jobs = 1; jobs <= 2; ++jobs) {
            gqos::Runner::Options o = runner.options();
            o.traceSink = nullptr;
            o.tracePath.clear();
            o.metrics = nullptr;
            o.report = nullptr;
            o.cacheDir = opts.workDir + "/sweep-j" + std::to_string(jobs);
            freshDir(o.cacheDir);
            gqos::Runner r = orDie(gqos::Runner::make(o), "runner");
            gqos::SweepOptions so;
            so.jobs = jobs;
            so.progress = false;
            const auto t0 = Clock::now();
            auto res = gqos::runSweep(r, sub, so);
            secs[jobs - 1] = secondsSince(t0);
            bool same = res.ok() && res.value().size() == n;
            for (std::size_t i = 0; same && i < n; ++i)
                same = sameResult(res.value()[i], expected[i]);
            report.check(same, "runSweep at " + std::to_string(jobs) +
                                   " jobs matches Runner::run");
        }
        report.metric("sweep.efficiency_j2",
                      secs[1] > 0.0 ? secs[0] / (2.0 * secs[1]) : 0.0,
                      "ratio");
    }
}

} // namespace perfbench
