/**
 * @file
 * Stepping-engine tests: SmCore/Gpu control-point contracts
 * (nextEventAt / skip accounting), SimEngine skip behaviour, and
 * the differential guarantee — every policy produces bit-identical
 * results, statistics and telemetry under the event engine and the
 * per-cycle reference engine.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "engine/sim_engine.hh"
#include "harness/runner.hh"
#include "mem/mem_system.hh"
#include "policy/even_share.hh"
#include "policy/policy_factory.hh"
#include "policy/smk_fair.hh"
#include "sm/kernel_run.hh"
#include "sm/sm_core.hh"
#include "telemetry/trace.hh"
#include "tests/test_util.hh"

namespace gqos
{
namespace
{

// ---------------------------------------------------------------
// Engine-kind parsing.
// ---------------------------------------------------------------

TEST(EngineKindParse, RoundTrip)
{
    EXPECT_EQ(parseEngineKind("event").value(), EngineKind::Event);
    EXPECT_EQ(parseEngineKind("reference").value(),
              EngineKind::Reference);
    EXPECT_STREQ(toString(EngineKind::Event), "event");
    EXPECT_STREQ(toString(EngineKind::Reference), "reference");
}

TEST(EngineKindParse, UnknownNameIsRecoverable)
{
    auto r = parseEngineKind("warp-speed");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message().find("warp-speed"),
              std::string::npos);
}

// ---------------------------------------------------------------
// SmCore::nextEventAt() / skipCycles() contract.
// ---------------------------------------------------------------

struct EngineSmFixture : public ::testing::Test
{
    EngineSmFixture()
        : cfg(defaultConfig()),
          descC(test::tinyComputeKernel()),
          descM(test::tinyMemoryKernel()),
          mem(cfg),
          sm(cfg, 0, mem),
          runC(descC, 0, cfg),
          runM(descM, 1, cfg)
    {
        sm.bindKernels({&runC, &runM});
    }

    void
    run(Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            bool sample = (now % 100) == 0;
            sm.cycle(now, sample);
            ASSERT_EQ(sm.checkIssueState(), "") << "cycle " << now;
            now++;
        }
    }

    GpuConfig cfg;
    KernelDesc descC, descM;
    MemSystem mem;
    SmCore sm;
    KernelRun runC, runM;
    Cycle now = 0;
};

TEST_F(EngineSmFixture, EmptySmIsInertForever)
{
    EXPECT_EQ(sm.nextEventAt(0), cycleNever);
    EXPECT_EQ(sm.nextEventAt(123456), cycleNever);
}

TEST_F(EngineSmFixture, SkipCyclesAccountsTimeOnEmptySm)
{
    sm.skipCycles(0, 1000, 10);
    EXPECT_EQ(sm.stats().cycles, 1000u);
    EXPECT_EQ(sm.stats().activeCycles, 0u);
    // No resident warps: samples record zero idle warps.
    EXPECT_EQ(sm.kernelStats(0).iwSamples, 10u);
    EXPECT_DOUBLE_EQ(sm.iwAverage(0), 0.0);
}

TEST_F(EngineSmFixture, DispatchWakeIsAFutureEvent)
{
    sm.dispatchTb(0, 0, 0, 0);
    Cycle t = sm.nextEventAt(0);
    // The dispatch latency wake is the only pending event: strictly
    // in the future, not never.
    EXPECT_GT(t, 0u);
    EXPECT_NE(t, cycleNever);
    // Stepping the claimed-inert span issues nothing...
    for (Cycle c = 0; c < t; ++c)
        EXPECT_FALSE(sm.cycle(c, false));
    // ...and execution begins right at (or just after) the event.
    Cycle issued_at = t;
    for (; issued_at < t + 100; ++issued_at) {
        if (sm.cycle(issued_at, false))
            break;
    }
    EXPECT_LT(issued_at, t + 100);
}

TEST_F(EngineSmFixture, QuotaGatedOnlySmIsInert)
{
    sm.setQuotaGating(true);
    sm.setQuota(0, -1.0); // gated before the first instruction
    sm.dispatchTb(0, 0, 0, 0);
    run(2000); // drain the dispatch wakes; nothing can issue
    EXPECT_EQ(sm.kernelStats(0).threadInstrs, 0u);
    EXPECT_EQ(sm.nextEventAt(now), cycleNever);
    // Refilling the quota makes the ready-but-gated warps an
    // immediate event again.
    sm.addQuota(0, 1e6);
    EXPECT_EQ(sm.nextEventAt(now), now);
}

TEST_F(EngineSmFixture, DrainIsAnEventUntilItCompletes)
{
    sm.dispatchTb(0, 0, 0, 0);
    run(100);
    ASSERT_TRUE(sm.startPreemption(0, now));
    EXPECT_NE(sm.nextEventAt(now), cycleNever);
    run(8000); // drain completes, in-flight memory settles
    EXPECT_FALSE(sm.preemptionPending());
    EXPECT_EQ(sm.totalResidentTbs(), 0);
    EXPECT_EQ(sm.nextEventAt(now), cycleNever);
}

TEST_F(EngineSmFixture, SkipMatchesSteppingThroughGatedSpan)
{
    // Two identical SMs reach a gated-idle state; one steps through
    // the span, the other skips it. All statistics must agree.
    MemSystem mem2(cfg);
    SmCore sm2(cfg, 0, mem2);
    sm2.bindKernels({&runC, &runM});
    for (SmCore *s : {&sm, &sm2}) {
        s->setQuotaGating(true);
        s->setQuota(0, -1.0);
        s->dispatchTb(0, 0, 0, 0);
    }
    for (Cycle c = 0; c < 2000; ++c) {
        sm.cycle(c, (c % 100) == 0);
        sm2.cycle(c, (c % 100) == 0);
        ASSERT_EQ(sm.checkIssueState(), "") << "cycle " << c;
        ASSERT_EQ(sm2.checkIssueState(), "") << "cycle " << c;
    }
    ASSERT_EQ(sm.nextEventAt(2000), cycleNever);
    // Span [2000, 12000): samples at 2000, 2100, ..., 11900.
    for (Cycle c = 2000; c < 12000; ++c)
        sm.cycle(c, (c % 100) == 0);
    sm2.skipCycles(2000, 10000, 100);
    EXPECT_EQ(sm.stats().cycles, sm2.stats().cycles);
    for (KernelId k = 0; k < 2; ++k) {
        const SmKernelStats &a = sm.kernelStats(k);
        const SmKernelStats &b = sm2.kernelStats(k);
        EXPECT_EQ(a.threadInstrs, b.threadInstrs) << "kernel " << k;
        EXPECT_EQ(a.iwSampleSum, b.iwSampleSum) << "kernel " << k;
        EXPECT_EQ(a.iwSamples, b.iwSamples) << "kernel " << k;
        EXPECT_EQ(a.gatedCycles, b.gatedCycles) << "kernel " << k;
        EXPECT_DOUBLE_EQ(sm.gatedFraction(k), sm2.gatedFraction(k));
        EXPECT_DOUBLE_EQ(sm.iwAverage(k), sm2.iwAverage(k));
    }
}

TEST_F(EngineSmFixture, InCycleBoundEqualsNextEventAt)
{
    // The bound a no-issue cycle() hands back and a fresh
    // nextEventAt() probe of the next cycle must agree exactly,
    // through memory-bound, compute, quota-gated and draining
    // phases. The attribution profiler proves each phase was hit.
    sm.setCycleAccounting(true);
    sm.setQuotaGating(true);
    std::uint64_t no_issue = 0;
    auto step = [&](Cycle cycles) {
        for (Cycle end = now + cycles; now < end; ++now) {
            Cycle bound = 0;
            bool issued = sm.cycle(now, (now % 100) == 0, &bound);
            ASSERT_EQ(sm.checkIssueState(), "") << "cycle " << now;
            if (issued)
                continue;
            no_issue++;
            ASSERT_EQ(bound, sm.nextEventAt(now + 1))
                << "cycle " << now;
        }
    };
    auto set_quotas = [&](double q) {
        sm.setQuota(0, q);
        sm.setQuota(1, q);
    };
    set_quotas(1e9);
    std::uint64_t seq = 0;
    for (int i = 0; i < 6; ++i, ++seq)
        sm.dispatchTb(1, seq, seq, now); // memory-bound
    step(4000);
    for (int i = 0; i < 4; ++i, ++seq)
        sm.dispatchTb(0, seq, seq, now); // compute joins
    step(4000);
    set_quotas(-1.0); // every kernel quota-gated
    step(3000);
    set_quotas(1e9);
    step(500);
    ASSERT_TRUE(sm.startPreemption(0, now));
    ASSERT_TRUE(sm.startPreemption(1, now));
    step(3000);
    // Evict every TB left, so the SM ends empty.
    for (KernelId k : {0, 1}) {
        while (sm.startPreemption(k, now))
            continue;
    }
    step(8000);

    EXPECT_GT(no_issue, 10000u);
    const CycleBreakdown &m = sm.cycleBreakdown(1);
    EXPECT_GT(m.at(CycleCat::MemStall), 0u);
    EXPECT_GT(m.at(CycleCat::QuotaGated), 0u);
    EXPECT_GT(m.at(CycleCat::DrainPreempt), 0u);
    EXPECT_GT(sm.cycleBreakdown(0).at(CycleCat::Issued), 0u);
    EXPECT_EQ(sm.totalResidentTbs(), 0);
}

// ---------------------------------------------------------------
// Gpu-level control points.
// ---------------------------------------------------------------

TEST(GpuEngine, IdleGpuWithZeroTargetsIsInert)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    Gpu gpu(cfg);
    gpu.launch({&d});
    // Targets stay 0: the dispatcher has nothing to converge
    // toward, so after the first (no-op) pass the GPU is inert.
    gpu.step();
    EXPECT_EQ(gpu.nextEventAt(), cycleNever);
}

TEST(GpuEngine, RunMatchesStepLoop)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc dc = test::tinyComputeKernel();
    KernelDesc dm = test::tinyMemoryKernel();
    auto setup = [&](Gpu &gpu) {
        gpu.launch({&dc, &dm});
        for (int s = 0; s < gpu.numSms(); ++s) {
            gpu.setTbTarget(s, 0, 2);
            gpu.setTbTarget(s, 1, 2);
        }
    };
    Gpu stepped(cfg), skipped(cfg);
    setup(stepped);
    setup(skipped);
    constexpr Cycle horizon = 60000;
    for (Cycle c = 0; c < horizon; ++c)
        stepped.step();
    skipped.run(horizon);
    ASSERT_EQ(stepped.now(), skipped.now());
    for (KernelId k = 0; k < 2; ++k) {
        EXPECT_EQ(stepped.threadInstrs(k), skipped.threadInstrs(k));
        EXPECT_EQ(stepped.warpInstrs(k), skipped.warpInstrs(k));
        EXPECT_EQ(stepped.totalResidentTbs(k),
                  skipped.totalResidentTbs(k));
        EXPECT_EQ(stepped.dispatchState(k).completedTbs,
                  skipped.dispatchState(k).completedTbs);
        EXPECT_DOUBLE_EQ(stepped.iwAverage(k), skipped.iwAverage(k));
    }
    for (int s = 0; s < stepped.numSms(); ++s) {
        EXPECT_EQ(stepped.sm(s).stats().cycles,
                  skipped.sm(s).stats().cycles);
        EXPECT_EQ(stepped.sm(s).stats().activeCycles,
                  skipped.sm(s).stats().activeCycles);
    }
}

// ---------------------------------------------------------------
// SimEngine behaviour.
// ---------------------------------------------------------------

TEST(SimEngineTest, SkipsAnIdleMachine)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    Gpu gpu(cfg);
    gpu.launch({&d});
    // No TB targets set: the machine never does anything, and the
    // even policy declares no control points.
    EvenSharePolicy pol;
    SimEngine engine(EngineKind::Event, cfg.epochLength);
    EXPECT_FALSE(engine.runUntil(gpu, pol, 100000));
    EXPECT_EQ(gpu.now(), 100000u);
    EXPECT_GT(engine.stats().skippedCycles, 90000u);
    EXPECT_EQ(engine.stats().steppedCycles +
                  engine.stats().skippedCycles,
              100000u);
}

TEST(SimEngineTest, ReferenceEngineNeverSkips)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    Gpu gpu(cfg);
    gpu.launch({&d});
    EvenSharePolicy pol;
    SimEngine engine(EngineKind::Reference, cfg.epochLength);
    EXPECT_FALSE(engine.runUntil(gpu, pol, 20000));
    EXPECT_EQ(engine.stats().skippedCycles, 0u);
    EXPECT_EQ(engine.stats().steppedCycles, 20000u);
}

TEST(SimEngineTest, ResumableAcrossWarmupBoundary)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc dc = test::tinyComputeKernel();
    KernelDesc dm = test::tinyMemoryKernel();
    auto run_split = [&](Cycle mid) {
        Gpu gpu(cfg);
        gpu.launch({&dc, &dm});
        EvenSharePolicy pol;
        pol.onLaunch(gpu);
        SimEngine engine(EngineKind::Event, cfg.epochLength);
        engine.runUntil(gpu, pol, mid);
        engine.runUntil(gpu, pol, 40000);
        return std::pair<std::uint64_t, std::uint64_t>(
            gpu.threadInstrs(0), gpu.threadInstrs(1));
    };
    EXPECT_EQ(run_split(10000), run_split(25000));
}

TEST(SimEngineTest, ShortEpochMemoryWaitIsNotAStall)
{
    // A 100-cycle epoch is a valid config, but a 3000-cycle DRAM
    // round trip retires nothing for longer than that: a window of
    // one epoch would abort a healthy run, the floored one must not.
    GpuConfig cfg = defaultConfig();
    cfg.numSms = 2;
    cfg.epochLength = 100;
    cfg.dramLatency = 3000;
    ASSERT_TRUE(cfg.check().ok());
    EXPECT_EQ(SimEngine::epochStallWindow(cfg.epochLength),
              SimEngine::minStallWindow);
    EXPECT_EQ(SimEngine::epochStallWindow(50000), 50000u);
    KernelDesc d = test::tinyMemoryKernel();
    d.gridTbs = 400;
    auto stalls = [&](Cycle window) {
        Gpu gpu(cfg);
        gpu.launch({&d});
        EvenSharePolicy pol;
        pol.onLaunch(gpu);
        SimEngine engine(EngineKind::Event, window);
        return engine.runUntil(gpu, pol, 60000);
    };
    EXPECT_TRUE(stalls(cfg.epochLength));
    EXPECT_FALSE(stalls(SimEngine::epochStallWindow(cfg.epochLength)));
}

// ---------------------------------------------------------------
// Differential: event vs. reference engine across every policy.
// ---------------------------------------------------------------

/** Per-engine harness run capturing results and telemetry. */
struct EngineRun
{
    CaseResult result;
    BufferingTraceSink trace;
};

class EngineDifferential : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = "/tmp/gqos_engine_diff_" + std::to_string(::getpid());
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir);
    }

    /** Run one case under @p kind with a fresh cache and sink. */
    void
    runOne(EngineKind kind, const std::string &policy,
           EngineRun &out)
    {
        Runner::Options opts;
        opts.cycles = 24000;
        opts.warmupCycles = 4000;
        // Separate cache dirs so both engines really simulate (the
        // production cache is shared between engines by design).
        opts.cacheDir = dir + "/" + toString(kind);
        opts.engine = kind;
        opts.traceSink = &out.trace;
        Runner runner = Runner::make(opts).value();
        out.result = runner.run({"sgemm", "lbm"}, {0.5, 0.0},
                                policy).value();
    }

    static void
    expectIdentical(const EngineRun &ev, const EngineRun &ref,
                    const std::string &policy)
    {
        SCOPED_TRACE("policy " + policy);
        const CaseResult &a = ev.result;
        const CaseResult &b = ref.result;
        ASSERT_EQ(a.kernels.size(), b.kernels.size());
        for (std::size_t i = 0; i < a.kernels.size(); ++i) {
            EXPECT_DOUBLE_EQ(a.kernels[i].ipc, b.kernels[i].ipc);
            EXPECT_DOUBLE_EQ(a.kernels[i].ipcIsolated,
                             b.kernels[i].ipcIsolated);
            EXPECT_DOUBLE_EQ(a.kernels[i].goalIpc,
                             b.kernels[i].goalIpc);
        }
        EXPECT_EQ(a.preemptions, b.preemptions);
        EXPECT_DOUBLE_EQ(a.dramPerKcycle, b.dramPerKcycle);
        EXPECT_DOUBLE_EQ(a.instrPerWatt, b.instrPerWatt);

        // Telemetry must match record by record, field by field,
        // across every record kind and in emission order
        // (isolated-baseline runs emit records too, so the stream
        // covers more than the co-run itself).
        const std::vector<TraceRecord> &x = ev.trace.records();
        const std::vector<TraceRecord> &y = ref.trace.records();
        ASSERT_EQ(x.size(), y.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            EXPECT_TRUE(x[i] == y[i]) << "trace record " << i;
    }

    std::string dir;
};

TEST_F(EngineDifferential, AllPoliciesBitIdentical)
{
    for (const char *policy :
         {"even", "naive", "elastic", "rollover", "rollover-time",
          "rollover-nohist", "rollover-nostatic", "spart"}) {
        EngineRun ev, ref;
        runOne(EngineKind::Event, policy, ev);
        runOne(EngineKind::Reference, policy, ref);
        expectIdentical(ev, ref, policy);
    }
}

TEST(EngineDifferentialSmkFair, BitIdenticalWithoutHarness)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc dc = test::tinyComputeKernel();
    KernelDesc dm = test::tinyMemoryKernel();
    auto run_kind = [&](EngineKind kind) {
        Gpu gpu(cfg);
        gpu.launch({&dc, &dm});
        SmkFairPolicy pol({250.0, 900.0}, cfg.epochLength);
        pol.onLaunch(gpu);
        SimEngine engine(kind, cfg.epochLength);
        EXPECT_FALSE(engine.runUntil(gpu, pol, 80000));
        return std::tuple<std::uint64_t, std::uint64_t, double>(
            gpu.threadInstrs(0), gpu.threadInstrs(1),
            pol.fairnessIndex());
    };
    auto ev = run_kind(EngineKind::Event);
    auto ref = run_kind(EngineKind::Reference);
    EXPECT_EQ(std::get<0>(ev), std::get<0>(ref));
    EXPECT_EQ(std::get<1>(ev), std::get<1>(ref));
    EXPECT_DOUBLE_EQ(std::get<2>(ev), std::get<2>(ref));
}

// ---------------------------------------------------------------
// Differential on non-Table-1 machines: full-width scheduler lanes
// (64 warps per scheduler) and wakes beyond one wake-wheel revolution.
// ---------------------------------------------------------------

/** Everything a manual-launch co-run observes. */
struct MachineRun
{
    std::vector<std::uint64_t> counters;
    std::vector<KernelDispatchState> dispatch;
    BufferingTraceSink trace;
    int peakWarps = 0; //!< most warps resident on one SM at a probe
};

/**
 * Run one grid of each of @p descs under @p policy with goals
 * @p specs on @p cfg for @p cycles, recording every statistic the
 * machine exposes plus SM-slice and policy telemetry. Probes per-SM
 * occupancy every 500 cycles, checks every SM's issue state at
 * least once per epoch, and checks that every kernel's cycle
 * breakdown covers every SM cycle.
 */
void
runMachine(const GpuConfig &cfg, const std::vector<KernelDesc> &descs,
           const std::string &policy, const std::vector<QosSpec> &specs,
           Cycle cycles, EngineKind kind, MachineRun &out)
{
    Gpu gpu(cfg);
    std::vector<const KernelDesc *> ptrs;
    for (const KernelDesc &d : descs)
        ptrs.push_back(&d);
    gpu.launch(ptrs);
    int nk = gpu.numKernels();
    for (int k = 0; k < nk; ++k)
        gpu.setManualLaunch(k);
    gpu.setCycleAccounting(true);
    gpu.setSmSliceCallback([&out](SmId sm, KernelId k, Cycle start,
                                  Cycle end) {
        out.trace.onSmSlice({"", sm, k, start, end});
    });
    auto pol = makePolicy(policy, specs, cfg).value();
    pol->attachTelemetry(&out.trace, nullptr);
    pol->onLaunch(gpu);
    for (int k = 0; k < nk; ++k)
        gpu.startGrid(k);
    SimEngine engine(kind, SimEngine::epochStallWindow(cfg.epochLength));
    // Check every SM's issue state at least once per epoch.
    Cycle step = cfg.epochLength < 500 ? 100 : 500;
    for (Cycle t = step; t <= cycles; t += step) {
        ASSERT_FALSE(engine.runUntil(gpu, *pol, t));
        for (int s = 0; s < gpu.numSms(); ++s) {
            ASSERT_EQ(gpu.sm(s).checkIssueState(), "")
                << "SM " << s << ", cycle " << t;
            if (t % 500 != 0)
                continue;
            int warps = 0;
            for (int k = 0; k < nk; ++k)
                warps += gpu.sm(s).residentWarps(k);
            out.peakWarps = std::max(out.peakWarps, warps);
        }
    }
    pol->onFinish(gpu);
    gpu.closeOpenSmSlices();

    auto &c = out.counters;
    for (int k = 0; k < nk; ++k) {
        const KernelDispatchState &ds = gpu.dispatchState(k);
        out.dispatch.push_back(ds);
        c.insert(c.end(), {gpu.threadInstrs(k), gpu.warpInstrs(k),
                           ds.completedTbs, ds.preemptedTbs,
                           ds.gridsCompleted, ds.lastGridCompletedAt});
        CycleBreakdown b = gpu.cycleBreakdown(k);
        EXPECT_EQ(b.total(), gpu.now() * gpu.numSms()) << "kernel " << k;
        c.insert(c.end(), b.counts.begin(), b.counts.end());
    }
    for (int s = 0; s < gpu.numSms(); ++s) {
        const SmStats &st = gpu.sm(s).stats();
        c.insert(c.end(), {st.cycles, st.activeCycles, st.issuedAlu,
                           st.issuedSfu, st.issuedSmem, st.issuedLoads,
                           st.issuedStores, st.preemptions});
        for (int k = 0; k < nk; ++k) {
            const SmKernelStats &ks = gpu.sm(s).kernelStats(k);
            c.insert(c.end(), {ks.threadInstrs, ks.warpInstrs,
                               ks.iwSampleSum, ks.iwSamples,
                               ks.gatedCycles, ks.quotaRefills});
        }
    }
    const MemSystemStats &ms = gpu.mem().stats();
    c.insert(c.end(), {ms.l1Accesses, ms.l1Misses, ms.stores,
                       gpu.mem().totalL2Accesses(),
                       gpu.mem().totalDramAccesses()});
}

/** Both engines' runs agree on every counter and trace record. */
void
expectRunsIdentical(const MachineRun &ev, const MachineRun &ref)
{
    EXPECT_EQ(ev.counters, ref.counters);
    EXPECT_EQ(ev.peakWarps, ref.peakWarps);
    const std::vector<TraceRecord> &x = ev.trace.records();
    const std::vector<TraceRecord> &y = ref.trace.records();
    ASSERT_EQ(x.size(), y.size());
    EXPECT_FALSE(x.empty());
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_TRUE(x[i] == y[i]) << "trace record " << i;
}

/**
 * A compute mix and a memory mix of 48-TB grids (@p threads_per_tb
 * threads per TB) on @p cfg, under even sharing and under rollover:
 * both engines must agree on every counter and trace record, some SM
 * must reach @p min_peak_warps resident warps, and under even sharing
 * (which never throttles a kernel) every dispatched TB must run to
 * completion within @p cycles, leaving nothing resident.
 */
void
expectMachineIdentical(const GpuConfig &cfg, int threads_per_tb,
                       Cycle cycles, int min_peak_warps)
{
    cfg.validate();
    constexpr int gridTbs = 48;
    auto mix = [&](KernelDesc d, double goal) {
        d.threadsPerTb = threads_per_tb;
        d.gridTbs = gridTbs;
        KernelDesc other = d;
        other.name += "-bg";
        other.seed += 100;
        return std::pair{std::vector<KernelDesc>{d, other}, goal};
    };
    KernelDesc m = test::tinyMemoryKernel();
    m.warpInstrPerTb = 40;
    for (const auto &[descs, goal] :
         {mix(test::tinyComputeKernel(), 50.0), mix(m, 5.0)}) {
        for (const char *policy : {"even", "rollover"}) {
            SCOPED_TRACE(descs[0].name + " mix, " + policy);
            MachineRun ev, ref;
            std::vector<QosSpec> specs = {QosSpec::qos(goal),
                                          QosSpec::nonQos()};
            runMachine(cfg, descs, policy, specs, cycles,
                       EngineKind::Event, ev);
            runMachine(cfg, descs, policy, specs, cycles,
                       EngineKind::Reference, ref);
            expectRunsIdentical(ev, ref);
            EXPECT_GE(ev.peakWarps, min_peak_warps);
            if (std::string(policy) != "even")
                continue;
            for (const KernelDispatchState &ds : ev.dispatch) {
                EXPECT_EQ(ds.gridsCompleted, 1u);
                EXPECT_EQ(ds.completedTbs,
                          static_cast<std::uint64_t>(gridTbs));
                EXPECT_EQ(ds.liveTbs, 0);
            }
        }
    }
}

TEST(EngineMachineDifferential, FourSchedulersOfSixtyFourWarps)
{
    GpuConfig cfg = defaultConfig();
    cfg.numSms = 2;
    cfg.maxThreadsPerSm = 8192; // 256 warps: 64 lanes per scheduler
    cfg.regFileBytes = 512 * 1024;
    expectMachineIdentical(cfg, 256, 200000, 256);
}

TEST(EngineMachineDifferential, OneSchedulerOfSixtyFourWarps)
{
    GpuConfig cfg = defaultConfig();
    cfg.numSms = 2;
    cfg.warpSchedulersPerSm = 1;
    expectMachineIdentical(cfg, 128, 200000, 64);
}

TEST(EngineMachineDifferential, WakesBeyondOneWheelRevolution)
{
    GpuConfig cfg = defaultConfig();
    cfg.numSms = 2;
    cfg.dramLatency = 3000; // load completions > 1024 cycles ahead
    expectMachineIdentical(cfg, 128, 800000, 64);
}

// ---------------------------------------------------------------
// Randomized differential: seeded machines, mixes and policies.
// ---------------------------------------------------------------

class RandomMachineDifferential
    : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * One seed draws a machine GpuConfig::check() accepts, a mix of 1-4
 * kernels varied from the tiny compute and memory kernels, and a
 * policy; both engines must then agree on every counter, cycle
 * breakdown and trace record.
 */
TEST_P(RandomMachineDifferential, EventMatchesReference)
{
    Rng rng(GetParam());
    auto pick = [&rng](auto... options) {
        const int values[] = {options...};
        return values[rng.below(sizeof...(options))];
    };
    GpuConfig cfg = defaultConfig();
    cfg.numSms = 1 + static_cast<int>(rng.below(4));
    cfg.warpSchedulersPerSm = pick(1, 2, 4);
    int warps_per_sched = pick(8, 16, 32, 48, 64);
    cfg.maxThreadsPerSm =
        cfg.warpSchedulersPerSm * warps_per_sched * warpSize;
    cfg.regFileBytes =
        std::max(cfg.regFileBytes, cfg.maxThreadsPerSm * 16 * 4);
    cfg.schedPolicy = rng.below(2) ? SchedPolicy::Lrr : SchedPolicy::Gto;
    cfg.l1Mshrs = pick(4, 8, 16, 32, 64);
    cfg.lsuPortsPerSm = pick(1, 2);
    cfg.epochLength = 100 + rng.below(9901);
    cfg.dramLatency = 100 + static_cast<int>(rng.below(2901));
    ASSERT_TRUE(cfg.check().ok());

    const std::vector<std::string> policies = knownPolicies();
    const std::string policy = policies[rng.below(policies.size())];
    int nk = 1 + static_cast<int>(rng.below(4));
    if (policy == "spart") // one SM per kernel at least
        cfg.numSms = std::max(cfg.numSms, nk);
    std::vector<KernelDesc> descs;
    std::vector<QosSpec> specs;
    for (int k = 0; k < nk; ++k) {
        KernelDesc d = rng.below(2) ? test::tinyMemoryKernel()
                                    : test::tinyComputeKernel();
        d.name += "-" + std::to_string(k);
        d.seed += 100 * k;
        d.threadsPerTb = warpSize * pick(1, 2, 4, 8);
        d.gridTbs = 4 + static_cast<int>(rng.below(45));
        d.warpInstrPerTb = 40 + static_cast<int>(rng.below(400));
        descs.push_back(d);
        specs.push_back(k == 0 || rng.below(3) == 0
                            ? QosSpec::qos(5.0 + rng.uniform() * 200.0)
                            : QosSpec::nonQos());
    }
    Cycle cycles = 20000 + 500 * rng.below(81);

    SCOPED_TRACE(cfg.summary() + ", " + std::to_string(nk) +
                 " kernels, " + policy);
    MachineRun ev, ref;
    runMachine(cfg, descs, policy, specs, cycles, EngineKind::Event,
               ev);
    runMachine(cfg, descs, policy, specs, cycles,
               EngineKind::Reference, ref);
    expectRunsIdentical(ev, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMachineDifferential,
                         ::testing::Range<std::uint64_t>(1, 97));

} // anonymous namespace
} // namespace gqos
