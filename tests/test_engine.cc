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

#include <filesystem>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/sim_engine.hh"
#include "harness/runner.hh"
#include "mem/mem_system.hh"
#include "policy/even_share.hh"
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
        SmkFairPolicy pol({250.0, 900.0}, SmkFairOptions{},
                          cfg.epochLength);
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

} // anonymous namespace
} // namespace gqos
