/**
 * @file
 * Policy tests: static allocator targets, Spart partitioning and
 * hill climbing, even-share, policy factory.
 */

#include <gtest/gtest.h>

#include "policy/even_share.hh"
#include "policy/fine_grain_qos.hh"
#include "policy/policy_factory.hh"
#include "policy/spart.hh"
#include "qos/static_alloc.hh"
#include "tests/test_util.hh"
#include "workloads/parboil.hh"

namespace gqos
{
namespace
{

TEST(StaticAllocator, InitialTargetsAreSymmetricAndFit)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc q = test::tinyComputeKernel("q");
    KernelDesc n1 = test::tinyMemoryKernel("n1");
    KernelDesc n2 = test::tinyMemoryKernel("n2");
    gpu.launch({&q, &n1, &n2});

    StaticAllocator alloc(
        {QosSpec::qos(100), QosSpec::nonQos(), QosSpec::nonQos()});
    // QoS kernel on every SM; non-QoS kernels split the SMs.
    auto t_first = alloc.initialTargetsForSm(gpu, 0);
    auto t_last = alloc.initialTargetsForSm(gpu, gpu.numSms() - 1);
    EXPECT_GT(t_first[0], 0);
    EXPECT_GT(t_last[0], 0);
    EXPECT_GT(t_first[1], 0);
    EXPECT_EQ(t_first[2], 0);
    EXPECT_EQ(t_last[1], 0);
    EXPECT_GT(t_last[2], 0);

    // Combined targets respect every SM resource.
    long threads = 0;
    for (std::size_t k = 0; k < t_first.size(); ++k)
        threads += static_cast<long>(t_first[k]) *
                   gpu.kernelDesc(k).threadsPerTb;
    EXPECT_LE(threads, cfg.maxThreadsPerSm);
}

TEST(StaticAllocator, HeavyKernelsAreTrimmedToFit)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc a = test::tinyComputeKernel("a");
    a.regsPerThread = 64; // register hog
    KernelDesc b = test::tinyComputeKernel("b");
    b.regsPerThread = 64;
    gpu.launch({&a, &b});
    StaticAllocator alloc({QosSpec::qos(100), QosSpec::nonQos()});
    auto t = alloc.initialTargetsForSm(gpu, 0);
    long regs = static_cast<long>(t[0]) * a.regsPerTb() +
                static_cast<long>(t[1]) * b.regsPerTb();
    EXPECT_LE(regs, cfg.regsPerSm());
    EXPECT_GE(t[0], 1);
    EXPECT_GE(t[1], 1);
}

TEST(Spart, InitialPartitionCoversAllSms)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc a = test::tinyComputeKernel("a");
    KernelDesc b = test::tinyMemoryKernel("b");
    gpu.launch({&a, &b});
    SpartPolicy spart({QosSpec::qos(100), QosSpec::nonQos()},
                      cfg.epochLength);
    spart.onLaunch(gpu);
    EXPECT_EQ(spart.smsOf(0) + spart.smsOf(1), gpu.numSms());
    EXPECT_GE(spart.smsOf(0), 1);
    EXPECT_GE(spart.smsOf(1), 1);
    // One kernel per SM: no SM has targets for both.
    for (int s = 0; s < gpu.numSms(); ++s) {
        EXPECT_TRUE(gpu.tbTarget(s, 0) == 0 ||
                    gpu.tbTarget(s, 1) == 0);
    }
}

TEST(Spart, HillClimbingGrowsUnderperformingQosKernel)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc a = test::tinyComputeKernel("a");
    a.gridTbs = 4000;
    KernelDesc b = test::tinyMemoryKernel("b");
    b.gridTbs = 4000;
    gpu.launch({&a, &b});
    // Demand near-isolated performance: Spart must give the QoS
    // kernel nearly all SMs.
    SpartPolicy spart({QosSpec::qos(1e5), QosSpec::nonQos()},
                      cfg.epochLength);
    spart.onLaunch(gpu);
    int initial = spart.smsOf(0);
    test::drive(gpu, spart, 20 * cfg.epochLength);
    EXPECT_GT(spart.smsOf(0), initial);
    EXPECT_GE(spart.smsOf(1), 1); // donor keeps one SM
}

TEST(Spart, GenerousGoalDonatesSmsBack)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc a = test::tinyComputeKernel("a");
    a.gridTbs = 4000;
    KernelDesc b = test::tinyMemoryKernel("b");
    b.gridTbs = 4000;
    gpu.launch({&a, &b});
    SpartPolicy spart({QosSpec::qos(20.0), QosSpec::nonQos()},
                      cfg.epochLength);
    spart.onLaunch(gpu);
    test::drive(gpu, spart, 25 * cfg.epochLength);
    // Trivial goal: hill climbing shrinks the QoS partition.
    EXPECT_LT(spart.smsOf(0), gpu.numSms() / 2);
}

TEST(EvenShare, SingleKernelGetsFullMachine)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc d = test::tinyComputeKernel();
    gpu.launch({&d});
    EvenSharePolicy even;
    even.onLaunch(gpu);
    for (int s = 0; s < gpu.numSms(); ++s)
        EXPECT_EQ(gpu.tbTarget(s, 0), d.maxTbsPerSm(cfg));
    EXPECT_FALSE(gpu.sm(0).quotaGating());
}

TEST(PolicyFactory, KnownNamesConstruct)
{
    GpuConfig cfg = defaultConfig();
    std::vector<QosSpec> specs = {QosSpec::qos(100),
                                  QosSpec::nonQos()};
    for (const auto &name : knownPolicies()) {
        auto p = makePolicy(name, specs, cfg);
        ASSERT_TRUE(p.ok()) << name;
        ASSERT_NE(p.value(), nullptr) << name;
    }
}

TEST(PolicyFactory, NamesRoundTripThroughPolicies)
{
    GpuConfig cfg = defaultConfig();
    std::vector<QosSpec> specs = {QosSpec::qos(100),
                                  QosSpec::nonQos()};
    EXPECT_EQ(makePolicy("rollover", specs, cfg).value()->name(),
              "rollover");
    EXPECT_EQ(makePolicy("rollover-time", specs, cfg).value()->name(),
              "rollover-time");
    EXPECT_EQ(makePolicy("naive-nohist", specs, cfg).value()->name(),
              "naive-nohist");
    EXPECT_EQ(makePolicy("rollover-nostatic", specs, cfg).value()->name(),
              "rollover-nostatic");
    EXPECT_EQ(makePolicy("spart", specs, cfg).value()->name(), "spart");
}

TEST(PolicyFactory, UnknownNameIsRecoverableError)
{
    GpuConfig cfg = defaultConfig();
    auto p = makePolicy("bogus", {QosSpec::nonQos()}, cfg);
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.error().code(), ErrorCode::NotFound);
    EXPECT_NE(p.error().message().find("bogus"), std::string::npos);
    // The error lists the valid spellings.
    EXPECT_NE(p.error().message().find("rollover"),
              std::string::npos);
}

TEST(FineGrainQos, AdjustmentGrowsStarvedQosKernel)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc a = test::tinyComputeKernel("a");
    a.gridTbs = 8000;
    KernelDesc b = test::tinyComputeKernel("b");
    b.gridTbs = 8000;
    b.seed = 99;
    gpu.launch({&a, &b});
    // Aggressive goal: the initial half-split TLP cannot reach it,
    // so the static adjuster must take TBs from the non-QoS kernel.
    FineGrainQosPolicy pol({QosSpec::qos(1e5), QosSpec::nonQos()},
                           FineGrainOptions{}, cfg.epochLength);
    pol.onLaunch(gpu);
    int initial_tbs = 0;
    for (int s = 0; s < gpu.numSms(); ++s)
        initial_tbs += gpu.tbTarget(s, 0);
    test::drive(gpu, pol, 15 * cfg.epochLength);
    EXPECT_GT(gpu.totalResidentTbs(0), initial_tbs);
}

} // anonymous namespace
} // namespace gqos
