/**
 * @file
 * Quota-controller tests: per-scheme carry rules, history-based
 * adjustment, the non-QoS goal search, mid-epoch refills, elastic
 * restarts and Rollover-Time blocking.
 */

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "qos/quota_controller.hh"
#include "tests/test_util.hh"

namespace gqos
{
namespace
{

struct QuotaFixture : public ::testing::Test
{
    QuotaFixture()
        : cfg(defaultConfig()),
          a(test::tinyComputeKernel("a")),
          b(test::tinyMemoryKernel("b"))
    {
        a.gridTbs = 4000;
        b.gridTbs = 4000;
    }

    std::unique_ptr<Gpu>
    makeGpu()
    {
        auto gpu = std::make_unique<Gpu>(cfg);
        gpu->launch({&a, &b});
        for (int s = 0; s < gpu->numSms(); ++s) {
            gpu->setTbTarget(s, 0, 6);
            gpu->setTbTarget(s, 1, 6);
        }
        return gpu;
    }

    void
    drive(Gpu &gpu, QuotaController &qc, Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            qc.onCycle(gpu);
            gpu.step();
        }
    }

    GpuConfig cfg;
    KernelDesc a, b;
};

TEST_F(QuotaFixture, GatingIsEnabledOnLaunch)
{
    auto gpu = makeGpu();
    QuotaController qc({QosSpec::qos(500.0), QosSpec::nonQos()},
                       QuotaOptions{}, cfg.epochLength);
    qc.onLaunch(*gpu);
    EXPECT_TRUE(gpu->sm(0).quotaGating());
    // Initial QoS quota is distributed over the SMs.
    double total = 0;
    for (int s = 0; s < gpu->numSms(); ++s)
        total += gpu->sm(s).quota(0);
    EXPECT_NEAR(total,
                500.0 * QuotaController::goalMargin *
                    cfg.epochLength, 1.0);
}

TEST_F(QuotaFixture, QosKernelThrottledAtQuota)
{
    auto gpu = makeGpu();
    // Low, easily achievable goal: the kernel must be throttled to
    // it, not run free.
    double goal = 100.0;
    QuotaController qc({QosSpec::qos(goal), QosSpec::nonQos()},
                       QuotaOptions{}, cfg.epochLength);
    qc.onLaunch(*gpu);
    drive(*gpu, qc, 100000);
    double ipc = static_cast<double>(gpu->threadInstrs(0)) /
                 gpu->now();
    EXPECT_GT(ipc, goal * 0.8);
    EXPECT_LT(ipc, goal * 1.6); // throttled near goal, not free
}

TEST_F(QuotaFixture, AlphaRisesWhenBehindGoal)
{
    auto gpu = makeGpu();
    // Unreachable goal: history stays below, alpha must exceed 1.
    QuotaController qc({QosSpec::qos(1e6), QosSpec::nonQos()},
                       QuotaOptions{}, cfg.epochLength);
    qc.onLaunch(*gpu);
    drive(*gpu, qc, 60000);
    EXPECT_GT(qc.alpha(0), 1.0);
    EXPECT_LT(qc.ipcHistory(0), 1e6);
}

TEST_F(QuotaFixture, HistoryDisabledKeepsAlphaOne)
{
    auto gpu = makeGpu();
    QuotaOptions opts;
    opts.historyAdjust = false;
    QuotaController qc({QosSpec::qos(1e6), QosSpec::nonQos()},
                       opts, cfg.epochLength);
    qc.onLaunch(*gpu);
    drive(*gpu, qc, 60000);
    EXPECT_DOUBLE_EQ(qc.alpha(0), 1.0);
}

TEST_F(QuotaFixture, NonQosGoalGrowsWithRefills)
{
    auto gpu = makeGpu();
    QuotaController qc({QosSpec::qos(100.0), QosSpec::nonQos()},
                       QuotaOptions{}, cfg.epochLength);
    qc.onLaunch(*gpu);
    EXPECT_DOUBLE_EQ(qc.nonQosGoal(1),
                     QuotaController::nonQosInitialIpc);
    drive(*gpu, qc, 100000);
    // The QoS kernel exhausts its small quota; refills let the
    // non-QoS kernel run, and the goal search follows its real IPC.
    EXPECT_GT(qc.nonQosGoal(1), 5.0);
    EXPECT_GT(gpu->threadInstrs(1), 0u);
}

TEST_F(QuotaFixture, RolloverCarriesUnusedQosQuota)
{
    auto gpu = makeGpu();
    // Goal above capability: quota is never fully consumed; the
    // rollover carry (capped at one share) must appear on top of
    // the next epoch's share.
    QuotaOptions opts;
    opts.scheme = QuotaScheme::Rollover;
    opts.historyAdjust = false; // keep shares comparable
    QuotaController qc({QosSpec::qos(5000.0), QosSpec::nonQos()},
                       opts, cfg.epochLength);
    qc.onLaunch(*gpu);
    double share0 = gpu->sm(0).quota(0);
    drive(*gpu, qc, cfg.epochLength + 2);
    EXPECT_GT(gpu->sm(0).quota(0), share0 * 1.2);
    EXPECT_LE(gpu->sm(0).quota(0), share0 * 2.01);
}

TEST_F(QuotaFixture, NaiveDiscardsUnusedQuota)
{
    auto gpu = makeGpu();
    QuotaOptions opts;
    opts.scheme = QuotaScheme::Naive;
    opts.historyAdjust = false;
    QuotaController qc({QosSpec::qos(5000.0), QosSpec::nonQos()},
                       opts, cfg.epochLength);
    qc.onLaunch(*gpu);
    double share0 = gpu->sm(0).quota(0);
    drive(*gpu, qc, cfg.epochLength + 2);
    // New counter is at most one share (plus redistribution noise).
    EXPECT_LE(gpu->sm(0).quota(0), share0 * 1.7);
}

TEST_F(QuotaFixture, ElasticRestartsEarly)
{
    auto gpu = makeGpu();
    QuotaOptions opts;
    opts.scheme = QuotaScheme::Elastic;
    // Two QoS kernels with tiny goals: all quotas drain long
    // before the nominal epoch ends, so elastic epochs are short.
    QuotaController qc({QosSpec::qos(50.0), QosSpec::qos(20.0)},
                       opts, cfg.epochLength);
    qc.onLaunch(*gpu);
    drive(*gpu, qc, 5 * cfg.epochLength);
    // More epochs than nominal boundaries would allow.
    EXPECT_GT(qc.epochIndex(), 5);
}

TEST_F(QuotaFixture, RolloverTimeBlocksNonQosFirst)
{
    auto gpu = makeGpu();
    QuotaOptions opts;
    opts.timeMux = true;
    QuotaController qc({QosSpec::qos(200.0), QosSpec::nonQos()},
                       opts, cfg.epochLength);
    qc.onLaunch(*gpu);
    // Right after launch, non-QoS quota is stashed (<= 0).
    EXPECT_LE(gpu->sm(0).quota(1), 0.0);
    drive(*gpu, qc, 100000);
    // Once QoS quotas drain each epoch the stash is released: the
    // non-QoS kernel does execute overall.
    EXPECT_GT(gpu->threadInstrs(1), 0u);
}

TEST_F(QuotaFixture, LastLeftoverSeparatesThrottledFromLimited)
{
    auto gpu = makeGpu();
    QuotaController qc({QosSpec::qos(50.0), QosSpec::qos(1e6)},
                       QuotaOptions{}, cfg.epochLength);
    qc.onLaunch(*gpu);
    drive(*gpu, qc, 3 * cfg.epochLength + 2);
    // Kernel 0 (easy goal) consumed its quota: leftover <= 0.
    EXPECT_LE(qc.lastLeftover(0, 0), 0.0);
    // Kernel 1 (impossible goal) could not: leftover > 0.
    EXPECT_GT(qc.lastLeftover(0, 1), 0.0);
}

TEST_F(QuotaFixture, SpecMismatchIsFatal)
{
    auto gpu = makeGpu();
    QuotaController qc({QosSpec::qos(100.0)}, QuotaOptions{},
                       cfg.epochLength);
    EXPECT_EXIT(qc.onLaunch(*gpu), ::testing::ExitedWithCode(1),
                "");
}

TEST(QuotaOptionsDeath, NonPositiveGoalIsFatal)
{
    EXPECT_EXIT(QuotaController({QosSpec::qos(0.0)},
                                QuotaOptions{}, 10000),
                ::testing::ExitedWithCode(1), "");
}

} // anonymous namespace
} // namespace gqos
