/**
 * @file
 * Golden model-output test: pinned per-kernel instruction counts,
 * SM issue counters and cycle-breakdown totals of five small fixed
 * runs. The event-vs-reference differentials cannot see a behaviour
 * change in SmCore code both engines share; this test can. The
 * pinned numbers may only change together with a deliberate timing-
 * model change, and the new values are printed on a mismatch.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/sim_engine.hh"
#include "gpu/gpu.hh"
#include "policy/policy_factory.hh"
#include "tests/test_util.hh"

namespace gqos
{
namespace
{

/**
 * Run one continuous co-run of @p descs under @p policy for
 * @p cycles and flatten its model outputs: per kernel thread/warp
 * instructions, cycle-breakdown categories and quota refills; then
 * the SM issue counters summed over SMs.
 */
std::vector<std::uint64_t>
goldenRun(const GpuConfig &cfg, const std::vector<KernelDesc> &descs,
          const std::string &policy, const std::vector<QosSpec> &specs,
          Cycle cycles)
{
    cfg.validate();
    Gpu gpu(cfg);
    std::vector<const KernelDesc *> ptrs;
    for (const KernelDesc &d : descs)
        ptrs.push_back(&d);
    gpu.launch(ptrs);
    gpu.setCycleAccounting(true);
    auto pol = makePolicy(policy, specs, cfg).value();
    pol->onLaunch(gpu);
    SimEngine engine(EngineKind::Event,
                     SimEngine::epochStallWindow(cfg.epochLength));
    EXPECT_FALSE(engine.runUntil(gpu, *pol, cycles));
    pol->onFinish(gpu);

    std::vector<std::uint64_t> out;
    for (int k = 0; k < gpu.numKernels(); ++k) {
        out.push_back(gpu.threadInstrs(k));
        out.push_back(gpu.warpInstrs(k));
        CycleBreakdown b = gpu.cycleBreakdown(k);
        out.insert(out.end(), b.counts.begin(), b.counts.end());
        std::uint64_t refills = 0;
        for (int s = 0; s < gpu.numSms(); ++s)
            refills += gpu.sm(s).kernelStats(k).quotaRefills;
        out.push_back(refills);
    }
    SmStats sum;
    for (int s = 0; s < gpu.numSms(); ++s) {
        const SmStats &st = gpu.sm(s).stats();
        sum.activeCycles += st.activeCycles;
        sum.issuedAlu += st.issuedAlu;
        sum.issuedSfu += st.issuedSfu;
        sum.issuedSmem += st.issuedSmem;
        sum.issuedLoads += st.issuedLoads;
        sum.issuedStores += st.issuedStores;
        sum.preemptions += st.preemptions;
    }
    out.insert(out.end(), {sum.activeCycles, sum.issuedAlu,
                           sum.issuedSfu, sum.issuedSmem,
                           sum.issuedLoads, sum.issuedStores,
                           sum.preemptions});
    return out;
}

/** Printable form of @p v, for re-pinning after a model change. */
std::string
show(const std::vector<std::uint64_t> &v)
{
    std::string s = "{";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? ", " : "") + std::to_string(v[i]);
    return s + "}";
}

/** Per kernel: 2 instr counts, 6 categories, refills. */
constexpr std::size_t perKernel = 2 + numCycleCats + 1;

std::uint64_t
refillsOf(const std::vector<std::uint64_t> &v, int k)
{
    return v[k * perKernel + perKernel - 1];
}

std::uint64_t
preemptionsOf(const std::vector<std::uint64_t> &v)
{
    return v.back();
}

KernelDesc
variant(KernelDesc d, int k)
{
    d.name += "-" + std::to_string(k);
    d.seed += 100 * k;
    return d;
}

GpuConfig
smallMachine()
{
    GpuConfig cfg = defaultConfig();
    cfg.numSms = 2;
    cfg.epochLength = 5000;
    return cfg;
}

TEST(SmGolden, ComputePairUnderRollover)
{
    // Quota gating with mid-epoch refills.
    std::vector<std::uint64_t> got = goldenRun(
        smallMachine(),
        {variant(test::tinyComputeKernel(), 0),
         variant(test::tinyComputeKernel(), 1)},
        "rollover", {QosSpec::qos(60.0), QosSpec::nonQos()}, 40000);
    EXPECT_GT(refillsOf(got, 0) + refillsOf(got, 1), 0u);
    std::vector<std::uint64_t> want = {
        2448160, 76505, 28727, 50511, 80, 676, 3, 3, 0,
        6372992, 199156, 67203, 3575, 68, 7687, 0, 1467,
        249, 77178, 270004, 0, 0, 4563, 1094, 3};
    EXPECT_EQ(got, want) << show(got);
}

TEST(SmGolden, MemoryTrioUnderElasticWithMshrPressure)
{
    GpuConfig cfg = smallMachine();
    cfg.l1Mshrs = 8; // per-kernel MSHR cap binds
    std::vector<std::uint64_t> got = goldenRun(
        cfg,
        {variant(test::tinyMemoryKernel(), 0),
         variant(test::tinyMemoryKernel(), 1),
         variant(test::tinyMemoryKernel(), 2)},
        "elastic",
        {QosSpec::qos(20.0), QosSpec::nonQos(), QosSpec::nonQos()},
        100000);
    std::vector<std::uint64_t> want = {
        185824, 5807, 6059, 0, 193862, 75, 0, 4, 0, 22912,
        716, 735, 4914, 36096, 88, 3615, 154552, 0, 35424,
        1107, 1108, 6033, 34307, 190, 3850, 154512, 0, 7744,
        5444, 0, 0, 1708, 478, 16};
    EXPECT_EQ(got, want) << show(got);
}

TEST(SmGolden, SpartPreemptsWarpsWithPendingWakes)
{
    GpuConfig cfg = smallMachine();
    cfg.numSms = 4;
    std::vector<std::uint64_t> got = goldenRun(
        cfg,
        {variant(test::tinyMemoryKernel(), 0),
         variant(test::tinyComputeKernel(), 1)},
        "spart", {QosSpec::qos(30.0), QosSpec::nonQos()}, 60000);
    EXPECT_GT(preemptionsOf(got), 0u);
    std::vector<std::uint64_t> want = {
        826016, 25813, 26138, 0, 148196, 213, 0, 65453, 0,
        8096960, 253030, 65360, 0, 1, 753, 1096, 172790, 0,
        91378, 265831, 0, 0, 10417, 2595, 11};
    EXPECT_EQ(got, want) << show(got);
}

TEST(SmGolden, FarWakesAtLongDramLatency)
{
    GpuConfig cfg = smallMachine();
    cfg.dramLatency = 3000; // load completions beyond one wheel turn
    std::vector<std::uint64_t> got = goldenRun(
        cfg,
        {variant(test::tinyMemoryKernel(), 0),
         variant(test::tinyComputeKernel(), 1)},
        "rollover", {QosSpec::qos(10.0), QosSpec::nonQos()}, 100000);
    std::vector<std::uint64_t> want = {
        128608, 4019, 3582, 0, 196330, 85, 0, 3, 0, 100160,
        3130, 810, 199120, 0, 67, 0, 3, 0, 4345, 5918, 0, 0,
        976, 255, 0};
    EXPECT_EQ(got, want) << show(got);
}

TEST(SmGolden, LrrMachine)
{
    GpuConfig cfg = smallMachine();
    cfg.schedPolicy = SchedPolicy::Lrr;
    std::vector<std::uint64_t> got = goldenRun(
        cfg,
        {variant(test::tinyComputeKernel(), 0),
         variant(test::tinyMemoryKernel(), 1)},
        "rollover", {QosSpec::qos(40.0), QosSpec::nonQos()}, 40000);
    std::vector<std::uint64_t> want = {
        1632064, 51002, 31218, 35112, 12398, 660, 609, 3, 0,
        323136, 10098, 9910, 3501, 66131, 455, 0, 3, 21,
        37613, 57177, 0, 0, 3180, 743, 3};
    EXPECT_EQ(got, want) << show(got);
}

} // anonymous namespace
} // namespace gqos
