/**
 * @file
 * Sweep-executor tests: parallel/sequential result equivalence,
 * clean cancellation on a failing case, thread-shared cache
 * integrity, and fault-injection determinism across job counts.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.hh"
#include "common/metrics.hh"
#include "harness/result_cache.hh"
#include "harness/run_report.hh"
#include "harness/sweep.hh"
#include "telemetry/trace.hh"

namespace gqos
{
namespace
{

struct SweepFixture : public ::testing::Test
{
    SweepFixture()
    {
        base = "/tmp/gqos_test_sweep_" +
               std::to_string(::getpid());
    }

    ~SweepFixture() override
    {
        std::filesystem::remove_all(base);
        FaultInjector::instance().clear();
    }

    Runner::Options
    makeOptions(const std::string &tag, bool useCache = true) const
    {
        Runner::Options opts;
        opts.cycles = 40000;
        opts.warmupCycles = 8000;
        opts.cacheDir = base + "/" + tag;
        opts.useCache = useCache;
        return opts;
    }

    /** The small mixed-policy case list the tests sweep. */
    static std::vector<SweepCase>
    standardCases()
    {
        return {
            {{"sgemm", "lbm"}, {0.5, 0.0}, "rollover"},
            {{"sgemm", "lbm"}, {0.7, 0.0}, "rollover"},
            {{"lbm", "sgemm"}, {0.6, 0.0}, "rollover"},
            {{"sgemm", "lbm"}, {0.0, 0.0}, "even"},
            {{"sgemm", "lbm"}, {0.5, 0.0}, "spart"},
            {{"lbm", "sgemm"}, {0.0, 0.0}, "even"},
        };
    }

    /** Run standardCases() in @p tag's fresh cache dir. */
    std::vector<CaseResult>
    runStandard(const std::string &tag, int jobs,
                SweepStats *stats = nullptr)
    {
        Runner runner = Runner::make(makeOptions(tag)).value();
        SweepOptions so;
        so.jobs = jobs;
        so.progress = false;
        return runSweep(runner, standardCases(), so, stats).value();
    }

    static void
    expectBitIdentical(const std::vector<CaseResult> &a,
                       const std::vector<CaseResult> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].kernels.size(), b[i].kernels.size())
                << "case " << i;
            for (std::size_t k = 0; k < a[i].kernels.size(); ++k) {
                EXPECT_EQ(a[i].kernels[k].name, b[i].kernels[k].name);
                EXPECT_DOUBLE_EQ(a[i].kernels[k].ipc,
                                 b[i].kernels[k].ipc)
                    << "case " << i << " kernel " << k;
                EXPECT_DOUBLE_EQ(a[i].kernels[k].ipcIsolated,
                                 b[i].kernels[k].ipcIsolated);
                EXPECT_DOUBLE_EQ(a[i].kernels[k].goalIpc,
                                 b[i].kernels[k].goalIpc);
            }
            EXPECT_EQ(a[i].preemptions, b[i].preemptions);
            EXPECT_DOUBLE_EQ(a[i].instrPerWatt, b[i].instrPerWatt);
            EXPECT_DOUBLE_EQ(a[i].dramPerKcycle,
                             b[i].dramPerKcycle);
        }
    }

    std::string base;
};

// ---------------------------------------------------------------
// (i) Parallel and sequential sweeps return identical ordered
// results — cold caches, and again against a warm cache.
// ---------------------------------------------------------------

TEST_F(SweepFixture, ParallelMatchesSequential)
{
    SweepStats seq_stats, par_stats;
    auto seq = runStandard("seq", 1, &seq_stats);
    auto par = runStandard("par", 4, &par_stats);
    expectBitIdentical(seq, par);

    EXPECT_EQ(seq_stats.total, standardCases().size());
    EXPECT_EQ(par_stats.total, standardCases().size());
    EXPECT_EQ(seq_stats.jobs, 1);
    EXPECT_EQ(par_stats.jobs, 4);

    // Same dir again, warm: identical values, all from cache.
    SweepStats warm_stats;
    auto warm = runStandard("seq", 4, &warm_stats);
    expectBitIdentical(seq, warm);
    EXPECT_EQ(warm_stats.cacheHits, standardCases().size());
    for (const CaseResult &r : warm)
        EXPECT_TRUE(r.fromCache);
}

// ---------------------------------------------------------------
// (ii) A failing case cancels the sweep cleanly (no deadlock, no
// fatal) and the error names the failing case.
// ---------------------------------------------------------------

TEST_F(SweepFixture, FailingCaseCancelsAndIsReported)
{
    Runner::Options opts = makeOptions("err", /*useCache=*/false);
    Runner runner = Runner::make(opts).value();
    std::vector<SweepCase> cases = standardCases();
    cases[2].kernels[0] = "no-such-kernel";

    SweepOptions so;
    so.jobs = 4;
    so.progress = false;
    auto r = runSweep(runner, cases, so);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::NotFound);
    // The message carries the case's submission identity.
    EXPECT_NE(r.error().message().find("sweep case 3/6"),
              std::string::npos)
        << r.error().message();
    EXPECT_NE(r.error().message().find("no-such-kernel"),
              std::string::npos)
        << r.error().message();
}

TEST_F(SweepFixture, FailingBaselineNamesTheKernel)
{
    // With caching on, the unknown kernel already fails in the
    // isolated-baseline warm-up phase.
    Runner runner = Runner::make(makeOptions("errbase")).value();
    std::vector<SweepCase> cases = standardCases();
    cases[0].kernels[1] = "no-such-kernel";

    SweepOptions so;
    so.jobs = 2;
    so.progress = false;
    auto r = runSweep(runner, cases, so);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::NotFound);
    EXPECT_NE(r.error().message().find("isolated baseline"),
              std::string::npos)
        << r.error().message();
    EXPECT_NE(r.error().message().find("no-such-kernel"),
              std::string::npos)
        << r.error().message();
}

// ---------------------------------------------------------------
// (iii) Concurrent workers sharing one cache leave a file that
// round-trips cleanly: every line parses, nothing quarantines, and
// a fresh runner serves every case from it.
// ---------------------------------------------------------------

TEST_F(SweepFixture, SharedCacheFileRoundTrips)
{
    runStandard("shared", 4);

    Runner::Options opts = makeOptions("shared");
    Runner probe = Runner::make(opts).value();
    EXPECT_EQ(probe.sharedCache()->quarantinedLines(), 0);

    // Every non-header line must parse and re-validate its CRC.
    std::ifstream in(probe.cachePath());
    ASSERT_TRUE(in.is_open());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, ResultCache::header);
    int parsed = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string key;
        CachedCase c;
        EXPECT_TRUE(ResultCache::parseLine(line, key, c)) << line;
        parsed++;
    }
    // 6 cases + 2 isolated baselines, minus the overlap: the "even"
    // pair cases and baselines are distinct keys; exact count aside,
    // there must be at least one line per distinct case.
    EXPECT_GE(parsed, 6);

    // And the warm runner never needs to simulate.
    SweepOptions so;
    so.jobs = 1;
    so.progress = false;
    auto warm = runSweep(probe, standardCases(), so).value();
    for (const CaseResult &r : warm)
        EXPECT_TRUE(r.fromCache);
    EXPECT_EQ(probe.simulatedCases(), 0);
}

// ---------------------------------------------------------------
// (iv) Fault-injection sweeps are deterministic across job counts:
// the per-case decision streams depend only on (seed, case index).
// ---------------------------------------------------------------

TEST_F(SweepFixture, FaultSweepIsIdenticalAcrossJobCounts)
{
    auto faultRun = [&](const std::string &tag, int jobs,
                        std::uint64_t *injected) {
        FaultInjector &fi = FaultInjector::instance();
        fi.clear();
        fi.reseed(42);
        fi.setRate("cache_write", 0.5);
        auto results = runStandard(tag, jobs);
        *injected = fi.injected("cache_write");
        fi.clear();
        return results;
    };

    std::uint64_t seq_injected = 0, par_injected = 0;
    auto seq = faultRun("fault-seq", 1, &seq_injected);
    auto par = faultRun("fault-par", 4, &par_injected);

    // Same results and the *same fault decisions*: the number of
    // dropped appends cannot depend on thread placement.
    expectBitIdentical(seq, par);
    EXPECT_EQ(seq_injected, par_injected);
    EXPECT_GT(seq_injected, 0u); // the stress actually fired

    // The surviving cache files hold the same set of keys.
    auto cacheKeys = [&](const std::string &tag) {
        Runner::Options opts = makeOptions(tag);
        Runner probe = Runner::make(opts).value();
        std::set<std::string> keys;
        std::ifstream in(probe.cachePath());
        std::string line;
        while (std::getline(in, line)) {
            std::string key;
            CachedCase c;
            if (ResultCache::parseLine(line, key, c))
                keys.insert(key);
        }
        return keys;
    };
    EXPECT_EQ(cacheKeys("fault-seq"), cacheKeys("fault-par"));
}

// ---------------------------------------------------------------
// (v) A traced sweep warns that a cache hit bypasses the trace only
// for entries read from the cache file: a baseline simulated by
// another worker of the same sweep is already in the trace.
// ---------------------------------------------------------------

TEST_F(SweepFixture, TraceBypassWarnsOnlyForEntriesReadFromFile)
{
    std::filesystem::create_directories(base);
    const std::string tracePath = base + "/trace.jsonl";
    auto sink = openTraceSink(tracePath);
    ASSERT_TRUE(sink.ok());
    Runner::Options o = makeOptions("bypass");
    o.traceSink = sink.value().get();
    o.tracePath = tracePath;
    SweepOptions so;
    so.progress = false;

    // Sweep a fresh runner; return its stderr and --stats-json.
    auto tracedSweep = [&](int jobs, std::string &json) {
        RunReport report;
        o.report = &report;
        Runner runner = Runner::make(o).value();
        so.jobs = jobs;
        ::testing::internal::CaptureStderr();
        EXPECT_TRUE(runSweep(runner, standardCases(), so).ok());
        std::string err = ::testing::internal::GetCapturedStderr();
        std::ostringstream os;
        report.write(os);
        json = os.str();
        return err;
    };
    auto count = [](const std::string &text, const std::string &what) {
        int n = 0;
        for (auto at = text.find(what); at != std::string::npos;
             at = text.find(what, at + 1))
            ++n;
        return n;
    };
    const std::string bypass = "bypasses the requested trace";
    const std::string untraced = "\"trace\":\"\"";
    const std::string traced = "\"trace\":\"" + tracePath + "\"";

    std::string cold_json, warm_json;
    const std::string cold = tracedSweep(2, cold_json);
    EXPECT_EQ(count(cold, bypass), 0) << cold;
    EXPECT_EQ(count(cold_json, untraced), 0) << cold_json;

    const std::string warm = tracedSweep(1, warm_json);
    EXPECT_EQ(count(warm, bypass), 1) << warm;
    EXPECT_EQ(count(warm_json, traced), 0) << warm_json;
    EXPECT_EQ(count(warm_json, untraced), count(warm_json, "\"key\""));
}

// ---------------------------------------------------------------
// Smaller pieces of the sweep API.
// ---------------------------------------------------------------

TEST(SweepApi, DescribeNamesPolicyKernelsGoalsAndConfig)
{
    SweepCase c{{"sgemm", "lbm"}, {0.5, 0.0}, "rollover"};
    EXPECT_EQ(c.describe(), "rollover|sgemm:0.5000|lbm:0.0000");
}

TEST(SweepApi, DefaultJobsIsAtLeastOne)
{
    EXPECT_GE(defaultSweepJobs(), 1);
}

TEST(SweepApi, EmptySweepSucceeds)
{
    Runner::Options opts;
    opts.useCache = false;
    opts.cycles = 1000;
    opts.warmupCycles = 0;
    Runner runner = Runner::make(opts).value();
    SweepOptions so;
    so.progress = false;
    SweepStats stats;
    auto r = runSweep(runner, {}, so, &stats);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().empty());
    EXPECT_EQ(stats.total, 0u);
}

/**
 * A --stats-json document without the host-time fields, which vary
 * from run to run, and without the schema version (checked on its
 * own).
 */
std::string
comparableReport(std::string json)
{
    static const std::regex varying(
        R"re(,"(wall_sec|sim_cycles_per_sec|elapsed_sec)":[^,}]*)re");
    json = std::regex_replace(json, varying, "");
    const std::string version = "{\"schema_version\":" +
                                std::to_string(reportSchemaVersion);
    EXPECT_EQ(json.rfind(version, 0), 0u) << json.substr(0, 40);
    return "{" + json.substr(version.size() + 1);
}

/**
 * Golden --stats-json of two tiny uncached sweeps, one per GPU
 * configuration, sharing one report and registry. It pins every
 * reported number and the set of reported cases: the top-level
 * isolatedIpc() call is a case, the baseline lookups nested inside
 * each case's run() are not.
 */
TEST_F(SweepFixture, StatsJsonMatchesGolden)
{
    RunReport report;
    MetricsRegistry metrics;
    Runner::Options o = makeOptions("golden", false);
    o.cycles = 25000;
    o.warmupCycles = 5000;
    o.report = &report;
    o.metrics = &metrics;
    Runner runner = Runner::make(o).value();
    o.configName = "large";
    Runner large = Runner::make(o).value();
    ASSERT_TRUE(runner.isolatedIpc("sgemm").ok());
    const std::vector<SweepCase> cases = {
        {{"sgemm", "lbm"}, {0.5, 0.0}, "rollover"},
    };
    SweepOptions so;
    so.jobs = 2;
    so.progress = false;
    so.label = "golden";
    ASSERT_TRUE(runSweep(runner, cases, so).ok());
    so.label = "golden-large";
    ASSERT_TRUE(runSweep(large, cases, so).ok());

    std::ostringstream os;
    report.write(os, &metrics);
    const char *golden =
        "{\"cases\":[{\"key\":\"even|sgemm:0.0000\",\"policy\":\"even\""
        ",\"config\":\"default\",\"engine\":\"event\",\"from_cache\":fa"
        "lse,\"instr_per_watt\":16102264396.218422,\"dram_per_kcycle\":"
        "508.19999999999999,\"preemptions\":0,\"trace\":\"\",\"kernels"
        "\":[{\"name\":\"sgemm\",\"is_qos\":false,\"goal_frac\":0,\"goa"
        "l_ipc\":0,\"ipc\":1033.2991999999999,\"ipc_isolated\":1033.299"
        "1999999999,\"reached\":true}],\"cycle_breakdown\":[{\"issued\""
        ":364490,\"quota_gated\":0,\"mem_stall\":14094,\"no_ready_warp"
        "\":21400,\"drain_preempt\":0,\"inert_skipped\":16}]},{\"key\":"
        "\"rollover|sgemm:0.5000|lbm:0.0000\",\"policy\":\"rollover\","
        "\"config\":\"default\",\"engine\":\"event\",\"from_cache\":fal"
        "se,\"instr_per_watt\":4898239343.7279272,\"dram_per_kcycle\":5"
        "82.55999999999995,\"preemptions\":32,\"trace\":\"\",\"kernels"
        "\":[{\"name\":\"sgemm\",\"is_qos\":true,\"goal_frac\":0.5,\"go"
        "al_ipc\":516.64959999999996,\"ipc\":249.15199999999999,\"ipc_i"
        "solated\":1033.2991999999999,\"reached\":false},{\"name\":\"lb"
        "m\",\"is_qos\":false,\"goal_frac\":0,\"goal_ipc\":0,\"ipc\":1."
        "0016,\"ipc_isolated\":78.241600000000005,\"reached\":true}],\""
        "cycle_breakdown\":[{\"issued\":151752,\"quota_gated\":0,\"mem_"
        "stall\":962,\"no_ready_warp\":247262,\"drain_preempt\":0,\"ine"
        "rt_skipped\":24},{\"issued\":386,\"quota_gated\":338029,\"mem_"
        "stall\":0,\"no_ready_warp\":494,\"drain_preempt\":61067,\"iner"
        "t_skipped\":24}]},{\"key\":\"rollover|sgemm:0.5000|lbm:0.0000"
        "\",\"policy\":\"rollover\",\"config\":\"large\",\"engine\":\"e"
        "vent\",\"from_cache\":false,\"instr_per_watt\":6925943172.2039"
        "175,\"dram_per_kcycle\":1571.52,\"preemptions\":112,\"trace\":"
        "\"\",\"kernels\":[{\"name\":\"sgemm\",\"is_qos\":true,\"goal_f"
        "rac\":0.5,\"goal_ipc\":1458.0719999999999,\"ipc\":896.18079999"
        "999998,\"ipc_isolated\":2916.1439999999998,\"reached\":false},"
        "{\"name\":\"lbm\",\"is_qos\":false,\"goal_frac\":0,\"goal_ipc"
        "\":0,\"ipc\":1.0064,\"ipc_isolated\":204.696,\"reached\":true}"
        "],\"cycle_breakdown\":[{\"issued\":582387,\"quota_gated\":0,\""
        "mem_stall\":2779,\"no_ready_warp\":814750,\"drain_preempt\":0,"
        "\"inert_skipped\":84},{\"issued\":561,\"quota_gated\":1069996,"
        "\"mem_stall\":0,\"no_ready_warp\":1801,\"drain_preempt\":32755"
        "8,\"inert_skipped\":84}]}],\"sweeps\":[{\"label\":\"golden\","
        "\"total\":1,\"cache_hits\":0,\"jobs\":1,\"faults_injected\":0,"
        "\"faults_recovered\":0},{\"label\":\"golden-large\",\"total\":1"
        ",\"cache_hits\":0,\"jobs\":1,\"faults_injected\":0,\"faults_re"
        "covered\":0}],\"serving\":[],\"metrics\":{\"counter"
        "s\":{\"cycles.drain_preempt\":388625,\"cycles.inert_skipped\":"
        "448,\"cycles.issued\":4681711,\"cycles.mem_stall\":1616283,\"c"
        "ycles.no_ready_warp\":1304908,\"cycles.quota_gated\":1408025,"
        "\"engine.control_points\":0,\"engine.skipped_cycles\":1365,\"e"
        "ngine.sm_skipped_cycles\":2109258,\"engine.stepped_cycles\":22"
        "3635,\"harness.cases_simulated\":9,\"harness.sweep_cache_hits"
        "\":0,\"harness.sweep_cases\":2,\"harness.sweeps\":2,\"qos.elas"
        "tic_restarts\":0,\"qos.epochs\":4,\"qos.refill_grants\":0,\"qo"
        "s.tb_swaps\":288}}}\n";
    EXPECT_EQ(comparableReport(os.str()), golden);
}

} // anonymous namespace
} // namespace gqos
