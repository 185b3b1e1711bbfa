/**
 * @file
 * Edge-case tests for subtle SM mechanics: wake-wheel wrap-around
 * under extreme memory latency, per-kernel MSHR fairness caps, and
 * store throttling under interconnect backlog.
 */

#include <gtest/gtest.h>

#include "mem/mem_system.hh"
#include "sm/kernel_run.hh"
#include "sm/sm_core.hh"
#include "tests/test_util.hh"

namespace gqos
{
namespace
{

TEST(SmEdge, WarpsSurviveLatenciesBeyondTheWakeRing)
{
    // Congest DRAM so badly that load latencies grow long; warps
    // must still wake (via clamped re-wakes once a load completes
    // beyond the 1024-bucket wake wheel) and the kernel must finish
    // its work.
    GpuConfig cfg = defaultConfig();
    cfg.dramSlotsPerCycle = 0.02; // pathological bandwidth
    KernelDesc d = test::tinyMemoryKernel();
    d.warpInstrPerTb = 60;
    MemSystem mem(cfg);
    SmCore sm(cfg, 0, mem);
    KernelRun run(d, 0, cfg);
    sm.bindKernels({&run});
    int done = 0;
    sm.setTbEventCallback(
        [&](SmId, KernelId, TbExit e) {
            if (e == TbExit::Completed)
                done++;
        });
    sm.dispatchTb(0, 0, 0, 0);
    for (Cycle c = 0; c < 400000 && !done; ++c)
        sm.cycle(c, false);
    EXPECT_EQ(done, 1);
}

TEST(SmEdge, MshrCapKeepsComputeKernelAlive)
{
    // A bandwidth-hungry kernel must not monopolize the MSHRs so
    // completely that a co-resident compute kernel's occasional
    // loads starve.
    GpuConfig cfg = defaultConfig();
    KernelDesc mem_kernel = test::tinyMemoryKernel("hog");
    mem_kernel.phases[0].memRatio = 0.5;
    mem_kernel.phases[0].avgTransPerMem = 8.0;
    mem_kernel.phases[0].hotFraction = 0.0;
    mem_kernel.warpInstrPerTb = 1 << 20; // effectively endless
    KernelDesc cmp = test::tinyComputeKernel("light");
    cmp.warpInstrPerTb = 1 << 20;

    MemSystem mem(cfg);
    SmCore sm(cfg, 0, mem);
    KernelRun r0(mem_kernel, 0, cfg), r1(cmp, 1, cfg);
    sm.bindKernels({&r0, &r1});
    for (int i = 0; i < 6; ++i)
        sm.dispatchTb(0, i, i, 0);
    sm.dispatchTb(1, 100, 0, 0);
    for (Cycle c = 0; c < 60000; ++c)
        sm.cycle(c, false);
    // The compute kernel has ~2% mem instructions; without the
    // MSHR reserve its loads starve behind the hog's misses and its
    // rate collapses by an order of magnitude (to the low hundreds
    // per warp over this window).
    double cmp_per_warp =
        static_cast<double>(sm.kernelStats(1).warpInstrs) /
        cmp.warpsPerTb();
    EXPECT_GT(cmp_per_warp, 1500.0); // > ~0.025 instr/warp/cycle
}

TEST(SmEdge, StoreHeavyKernelIsThrottledNotUnbounded)
{
    // A store-only kernel must not outrun the memory system: the
    // interconnect-backlog throttle has to bound in-flight traffic.
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyMemoryKernel("storer");
    d.phases[0].memRatio = 0.6;
    d.phases[0].storeFraction = 1.0;
    d.phases[0].hotFraction = 0.0;
    d.warpInstrPerTb = 1 << 20;
    MemSystem mem(cfg);
    SmCore sm(cfg, 0, mem);
    KernelRun run(d, 0, cfg);
    sm.bindKernels({&run});
    for (int i = 0; i < 8; ++i)
        sm.dispatchTb(0, i, i, 0);
    for (Cycle c = 0; c < 30000; ++c)
        sm.cycle(c, false);
    // Backlog stays bounded near the throttle threshold.
    EXPECT_LT(mem.interconnect().backlog(30000.0), 2000.0);
    EXPECT_GT(sm.stats().issuedStores, 100u);
}

TEST(SmEdge, DrainingTbDoesNotIssue)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    d.warpInstrPerTb = 1 << 20;
    MemSystem mem(cfg);
    SmCore sm(cfg, 0, mem);
    KernelRun run(d, 0, cfg);
    sm.bindKernels({&run});
    sm.dispatchTb(0, 0, 0, 0);
    Cycle now = 0;
    for (; now < 2000; ++now)
        sm.cycle(now, false);
    sm.startPreemption(0, now);
    std::uint64_t at_preempt = sm.kernelStats(0).warpInstrs;
    // Drain window: the sole (draining) TB must not issue anything.
    for (Cycle c = 0; c < 200; ++c)
        sm.cycle(now++, false);
    EXPECT_EQ(sm.kernelStats(0).warpInstrs, at_preempt);
}

TEST(SmEdge, ZeroQuotaBlocksFromTheFirstCycle)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    MemSystem mem(cfg);
    SmCore sm(cfg, 0, mem);
    KernelRun run(d, 0, cfg);
    sm.bindKernels({&run});
    sm.setQuotaGating(true);
    sm.setQuota(0, 0.0);
    sm.dispatchTb(0, 0, 0, 0);
    for (Cycle c = 0; c < 5000; ++c)
        sm.cycle(c, false);
    EXPECT_EQ(sm.kernelStats(0).threadInstrs, 0u);
}

TEST(SmEdge, ReusedWarpSlotsStartClean)
{
    // Complete a TB, dispatch another into the same slots, and
    // check the second TB retires exactly its own budget (stale
    // wake entries must not corrupt it).
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    d.warpInstrPerTb = 500;
    MemSystem mem(cfg);
    SmCore sm(cfg, 0, mem);
    KernelRun run(d, 0, cfg);
    sm.bindKernels({&run});
    int done = 0;
    sm.setTbEventCallback(
        [&](SmId, KernelId, TbExit) { done++; });
    Cycle now = 0;
    for (int round = 0; round < 3; ++round) {
        sm.dispatchTb(0, round, round, now);
        for (Cycle c = 0; c < 60000 && done == round; ++c)
            sm.cycle(now++, false);
    }
    EXPECT_EQ(done, 3);
    EXPECT_EQ(sm.kernelStats(0).warpInstrs,
              3u * d.warpsPerTb() * d.warpInstrPerTb);
}

} // anonymous namespace
} // namespace gqos
