/**
 * @file
 * Cycle-attribution profiler and timeline-exporter tests: the
 * category conservation invariant (every SM cycle lands in exactly
 * one category), attribution bit-identity between the event and the
 * reference stepping engine — across every sharing policy — and the
 * structure and determinism of the exported Chrome-trace document.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "engine/sim_engine.hh"
#include "gpu/gpu.hh"
#include "harness/runner.hh"
#include "policy/even_share.hh"
#include "policy/smk_fair.hh"
#include "serving/arrival.hh"
#include "serving/server.hh"
#include "serving/tenant.hh"
#include "telemetry/cycle_accounting.hh"
#include "telemetry/timeline.hh"
#include "telemetry/trace.hh"
#include "tests/test_util.hh"

namespace gqos
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ---------------------------------------------------------------
// CycleBreakdown basics.
// ---------------------------------------------------------------

TEST(CycleAccounting, CategoryNamesAreStable)
{
    // These names are the cycles.* metric keys and the
    // cycle_breakdown JSON keys; changing one is a schema change.
    EXPECT_STREQ(toString(CycleCat::Issued), "issued");
    EXPECT_STREQ(toString(CycleCat::QuotaGated), "quota_gated");
    EXPECT_STREQ(toString(CycleCat::MemStall), "mem_stall");
    EXPECT_STREQ(toString(CycleCat::NoReadyWarp), "no_ready_warp");
    EXPECT_STREQ(toString(CycleCat::DrainPreempt), "drain_preempt");
    EXPECT_STREQ(toString(CycleCat::InertSkipped), "inert_skipped");
}

TEST(CycleAccounting, BreakdownArithmeticAndJson)
{
    CycleBreakdown a;
    a.add(CycleCat::Issued, 3);
    a.add(CycleCat::InertSkipped, 7);
    EXPECT_EQ(a.total(), 10u);
    EXPECT_EQ(a.at(CycleCat::Issued), 3u);

    CycleBreakdown b;
    b.add(CycleCat::Issued, 1);
    b.add(CycleCat::MemStall, 5);
    a += b;
    EXPECT_EQ(a.total(), 16u);
    EXPECT_EQ(jsonObject(a),
              "{\"issued\":4,\"quota_gated\":0,\"mem_stall\":5,"
              "\"no_ready_warp\":0,\"drain_preempt\":0,"
              "\"inert_skipped\":7}");
}

// ---------------------------------------------------------------
// Conservation and engine bit-identity at the Gpu level.
// ---------------------------------------------------------------

/** Run a two-kernel co-run under @p kind with attribution on and
 *  return the per-kernel GPU-wide breakdowns (after asserting the
 *  per-SM conservation invariant). */
std::vector<CycleBreakdown>
runAttribution(EngineKind kind, bool fair_quotas, Cycle horizon)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc dc = test::tinyComputeKernel();
    KernelDesc dm = test::tinyMemoryKernel();
    Gpu gpu(cfg);
    gpu.launch({&dc, &dm});
    gpu.setCycleAccounting(true);
    SimEngine engine(kind, cfg.epochLength);
    if (fair_quotas) {
        SmkFairPolicy pol({250.0, 900.0}, cfg.epochLength);
        pol.onLaunch(gpu);
        EXPECT_FALSE(engine.runUntil(gpu, pol, horizon));
    } else {
        EvenSharePolicy pol;
        pol.onLaunch(gpu);
        EXPECT_FALSE(engine.runUntil(gpu, pol, horizon));
    }
    for (int s = 0; s < gpu.numSms(); ++s) {
        for (KernelId k = 0; k < 2; ++k) {
            EXPECT_EQ(gpu.sm(s).cycleBreakdown(k).total(),
                      gpu.sm(s).stats().cycles)
                << "sm " << s << " kernel " << k;
        }
    }
    return {gpu.cycleBreakdown(0), gpu.cycleBreakdown(1)};
}

TEST(CycleAccounting, ConservedAndBitIdenticalAcrossEngines)
{
    for (bool fair : {false, true}) {
        SCOPED_TRACE(fair ? "smk-fair (quota gating)"
                          : "even share");
        auto ev = runAttribution(EngineKind::Event, fair, 60000);
        auto ref =
            runAttribution(EngineKind::Reference, fair, 60000);
        ASSERT_EQ(ev.size(), ref.size());
        for (std::size_t k = 0; k < ev.size(); ++k) {
            EXPECT_TRUE(ev[k] == ref[k])
                << "kernel " << k << "\n  event:     "
                << jsonObject(ev[k]) << "\n  reference: "
                << jsonObject(ref[k]);
        }
        // Real work happened and was attributed.
        EXPECT_GT(ev[0].at(CycleCat::Issued), 0u);
        EXPECT_GT(ev[1].at(CycleCat::Issued), 0u);
    }
}

TEST(CycleAccounting, QuotaGatingShowsUpAsQuotaGatedCycles)
{
    // Under smk-fair the tight 250-instr quota gates the compute
    // kernel for long stretches; the profiler must attribute those
    // stretches (mostly fast-forwarded by the event engine) to
    // quota_gated, not to inert_skipped.
    auto b = runAttribution(EngineKind::Event, true, 60000);
    EXPECT_GT(b[0].at(CycleCat::QuotaGated), 0u);
}

TEST(CycleAccounting, IdleMachineIsAllInertSkipped)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    Gpu gpu(cfg);
    gpu.launch({&d});
    gpu.setCycleAccounting(true);
    // No TB targets: the machine never dispatches, the event engine
    // skips nearly the whole horizon, and every cycle of every SM
    // must land in inert_skipped.
    EvenSharePolicy pol;
    SimEngine engine(EngineKind::Event, cfg.epochLength);
    EXPECT_FALSE(engine.runUntil(gpu, pol, 50000));
    CycleBreakdown b = gpu.cycleBreakdown(0);
    const std::uint64_t smCycles =
        static_cast<std::uint64_t>(gpu.numSms()) * 50000u;
    EXPECT_EQ(b.total(), smCycles);
    EXPECT_EQ(b.at(CycleCat::InertSkipped), smCycles);
}

TEST(CycleAccounting, ProfilerDoesNotPerturbResults)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc dc = test::tinyComputeKernel();
    KernelDesc dm = test::tinyMemoryKernel();
    auto run_one = [&](bool accounting) {
        Gpu gpu(cfg);
        gpu.launch({&dc, &dm});
        if (accounting)
            gpu.setCycleAccounting(true);
        EvenSharePolicy pol;
        pol.onLaunch(gpu);
        SimEngine engine(EngineKind::Event, cfg.epochLength);
        EXPECT_FALSE(engine.runUntil(gpu, pol, 40000));
        return std::pair<std::uint64_t, std::uint64_t>(
            gpu.threadInstrs(0), gpu.threadInstrs(1));
    };
    EXPECT_EQ(run_one(false), run_one(true));
}

// ---------------------------------------------------------------
// Conservation across every policy, through the harness.
// ---------------------------------------------------------------

class CycleAccountingHarness : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = "/tmp/gqos_acct_" + std::to_string(::getpid());
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir);
    }

    std::string dir;
};

TEST_F(CycleAccountingHarness, AllPoliciesConservedBothEngines)
{
    // Attaching a metrics registry turns the profiler on inside
    // Runner::simulate(), whose conservation assert then covers
    // every (sm, kernel) of every case — co-runs and the recursive
    // isolated baselines alike. The registries must agree between
    // engines category by category across the full policy suite.
    MetricsRegistry ev, ref;
    for (const char *policy :
         {"even", "naive", "elastic", "rollover", "rollover-time",
          "rollover-nohist", "rollover-nostatic", "spart"}) {
        SCOPED_TRACE(policy);
        for (EngineKind kind :
             {EngineKind::Event, EngineKind::Reference}) {
            Runner::Options opts;
            opts.cycles = 24000;
            opts.warmupCycles = 4000;
            // One cache per engine: both engines really simulate
            // every co-run, baselines are simulated once each.
            opts.cacheDir = dir + "/" + toString(kind);
            opts.engine = kind;
            opts.metrics =
                kind == EngineKind::Event ? &ev : &ref;
            Runner runner = Runner::make(opts).value();
            ASSERT_TRUE(runner
                            .run({"sgemm", "lbm"}, {0.5, 0.0},
                                 policy)
                            .ok());
        }
    }
    std::uint64_t total = 0;
    for (int i = 0; i < numCycleCats; ++i) {
        const std::string name =
            std::string("cycles.") +
            toString(static_cast<CycleCat>(i));
        EXPECT_EQ(ev.counter(name).value(),
                  ref.counter(name).value())
            << name;
        total += ev.counter(name).value();
    }
    EXPECT_GT(ev.counter("cycles.issued").value(), 0u);
    EXPECT_GT(total, 0u);
}

// ---------------------------------------------------------------
// Timeline exporter.
// ---------------------------------------------------------------

class TimelineFile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = "/tmp/gqos_timeline_" + std::to_string(::getpid());
        std::filesystem::create_directories(dir);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir);
    }

    std::string dir;
};

TEST_F(TimelineFile, OpenWritesAValidEmptyDocument)
{
    const std::string path = dir + "/empty.json";
    auto sink = TimelineSink::open(path);
    ASSERT_TRUE(sink.ok());
    const std::string doc = slurp(path);
    EXPECT_EQ(doc.rfind("{\"schema_version\":", 0), 0u) << doc;
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(doc.substr(doc.size() - 4), "\n]}\n");
}

TEST_F(TimelineFile, OpenRejectsAnUnwritablePath)
{
    auto sink = TimelineSink::open(dir + "/no/such/dir/t.json");
    EXPECT_FALSE(sink.ok());
}

TEST_F(TimelineFile, EventsGroupByCaseWithSortedPids)
{
    const std::string path = dir + "/grouped.json";
    auto sink = TimelineSink::open(path).value();

    // Push case "b" first: pid order must follow sorted case keys,
    // not arrival order, so --jobs scheduling cannot leak in.
    SmSliceRecord slice;
    slice.caseKey = "b|case";
    slice.sm = 3;
    slice.kernel = 1;
    slice.start = 10;
    slice.end = 50;
    sink->onSmSlice(slice);

    EpochKernelRecord ek;
    ek.caseKey = "a|case";
    ek.epoch = 0;
    ek.start = 0;
    ek.length = 500;
    ek.kernel = 0;
    ek.quotaRefills = 2;
    sink->onEpochKernel(ek);

    ServingEventRecord sv;
    sv.caseKey = "a|case";
    sv.cycle = 77;
    sv.event = "arrival";
    sv.tenant = "web";
    sv.queueDepth = 4;
    sink->onServingEvent(sv);

    sink->flush();
    const std::string doc = slurp(path);

    // Case "a|case" is pid 1, "b|case" is pid 2.
    EXPECT_NE(doc.find("{\"pid\":1,\"ph\":\"M\",\"tid\":0,"
                       "\"name\":\"process_name\",\"args\":"
                       "{\"name\":\"a|case\"}}"),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("{\"pid\":2,\"ph\":\"M\",\"tid\":0,"
                       "\"name\":\"process_name\",\"args\":"
                       "{\"name\":\"b|case\"}}"),
              std::string::npos);
    // The SM track is named and carries the occupancy slice.
    EXPECT_NE(doc.find("\"name\":\"thread_name\",\"args\":"
                       "{\"name\":\"SM 3\"}"),
              std::string::npos);
    EXPECT_NE(doc.find("{\"pid\":2,\"ph\":\"X\",\"tid\":1003,"
                       "\"ts\":10,\"dur\":40,\"name\":\"K1\"}"),
              std::string::npos);
    // Epoch counter + boundary instant + refill instant.
    EXPECT_NE(doc.find("\"name\":\"K0 epoch\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"epoch 0\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"quota_refill K0\""),
              std::string::npos);
    // Serving instant + queue-depth counter.
    EXPECT_NE(doc.find("\"name\":\"arrival\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"queue web\",\"args\":"
                       "{\"depth\":4}"),
              std::string::npos);

    // Flushing again (shutdown path) rewrites the same document.
    sink->flush();
    EXPECT_EQ(slurp(path), doc);
}

TEST_F(TimelineFile, HarnessExportIsIdenticalAcrossEngines)
{
    // The whole timeline — occupancy slices included — derives from
    // telemetry records, so the event engine's fast-forwarding must
    // be invisible in the exported document.
    auto run_kind = [&](EngineKind kind) {
        const std::string path =
            dir + "/" + toString(kind) + ".json";
        auto sink = TimelineSink::open(path).value();
        Runner::Options opts;
        opts.cycles = 24000;
        opts.warmupCycles = 4000;
        opts.cacheDir = dir + "/cache-" + toString(kind);
        opts.engine = kind;
        opts.traceSink = sink.get();
        Runner runner = Runner::make(opts).value();
        EXPECT_TRUE(runner
                        .run({"sgemm", "lbm"}, {0.5, 0.0},
                             "rollover")
                        .ok());
        sink->flush();
        return slurp(path);
    };
    const std::string ev = run_kind(EngineKind::Event);
    const std::string ref = run_kind(EngineKind::Reference);
    EXPECT_GT(ev.size(), 100u);
    EXPECT_EQ(ev, ref);
    // The co-run produced per-SM occupancy slices.
    EXPECT_NE(ev.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(TimelineFile, StalledServingRunStillFlushesAValidDocument)
{
    // The watchdog's tenant_stalled clean-shutdown must leave the
    // timeline finalized: a loadable document that records the
    // stall, not a truncated fragment.
    const std::string path = dir + "/stalled.json";
    auto sink = TimelineSink::open(path).value();

    std::vector<TenantSpec> mix(2);
    mix[0] = {"g", "sgemm", QosClass::Guaranteed, 0.4, 40000, 8};
    mix[1] = {"e", "stencil", QosClass::Elastic, 0.2, 60000, 8};
    ServingOptions opts;
    opts.caseKey = "stalled";
    opts.tick = 512;
    opts.drainGrace = 400000;
    opts.watchdogMs = 0.1;

    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Poisson;
    cfg.ratePerKcycle = 0.05;
    cfg.horizon = 250000;
    cfg.numTenants = 2;
    cfg.seed = 9;

    auto driver = ServingDriver::make(std::move(mix), opts);
    ASSERT_TRUE(driver.ok());
    driver.value()->forceStallForTest(1);
    auto report =
        driver.value()->run(generateArrivals(cfg), sink.get());
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().anyTenantStalled);

    const std::string doc = slurp(path);
    EXPECT_EQ(doc.rfind("{\"schema_version\":", 0), 0u);
    EXPECT_EQ(doc.substr(doc.size() - 4), "\n]}\n");
    EXPECT_NE(doc.find("\"name\":\"tenant_stalled\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
}

} // anonymous namespace
} // namespace gqos
