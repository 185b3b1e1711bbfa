/**
 * @file
 * Telemetry tests: trace-record conservation laws on a Rollover
 * co-run (instruction deltas telescope to the run total, epoch
 * indices are contiguous, elastic epochs never exceed the nominal
 * length), JSONL well-formedness, observer-only guarantee (identical
 * simulation with and without a sink), the metrics registry and the
 * structured run report.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "common/metrics.hh"
#include "common/result.hh"
#include "harness/run_report.hh"
#include "policy/policy_factory.hh"
#include "telemetry/trace.hh"
#include "tests/test_util.hh"

namespace gqos
{
namespace
{

/** Co-run scaffold: two kernels, one policy, one optional sink. */
struct TracedCoRun
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu{cfg};
    KernelDesc q = test::tinyComputeKernel("q");
    KernelDesc b = test::tinyMemoryKernel("b");
    std::unique_ptr<SharingPolicy> policy;

    explicit TracedCoRun(const std::string &name)
    {
        q.gridTbs = 4000;
        b.gridTbs = 4000;
        gpu.launch({&q, &b});
        policy = okOrDie(makePolicy(
            name, {QosSpec::qos(50.0), QosSpec::nonQos()}, cfg));
    }

    /** Attach, launch, drive @p cycles, finish. */
    void
    run(TraceSink *sink, MetricsRegistry *metrics, Cycle cycles)
    {
        if (sink || metrics)
            policy->attachTelemetry(sink, metrics);
        policy->onLaunch(gpu);
        test::drive(gpu, *policy, cycles);
        policy->onFinish(gpu);
    }
};

/**
 * Minimal JSON object check: one line, balanced braces/brackets
 * outside string literals, string escapes honoured.
 */
bool
looksLikeJsonObject(const std::string &line)
{
    if (line.size() < 2 || line.front() != '{' || line.back() != '}')
        return false;
    int depth = 0;
    bool in_str = false, esc = false;
    for (char c : line) {
        if (esc) {
            esc = false;
            continue;
        }
        if (in_str) {
            if (c == '\\')
                esc = true;
            else if (c == '"')
                in_str = false;
            continue;
        }
        switch (c) {
          case '"': in_str = true; break;
          case '{':
          case '[': depth++; break;
          case '}':
          case ']':
            if (--depth < 0)
                return false;
            break;
          default: break;
        }
    }
    return depth == 0 && !in_str;
}

TEST(Trace, InstrDeltasSumToRunTotal)
{
    TracedCoRun run("rollover");
    BufferingTraceSink sink;
    // Deliberately end mid-epoch so the final-partial record must
    // cover the tail for the sums to telescope.
    const Cycle cycles =
        12 * run.cfg.epochLength + run.cfg.epochLength / 3;
    run.run(&sink, nullptr, cycles);

    ASSERT_FALSE(sink.all<EpochKernelRecord>().empty());
    std::vector<std::uint64_t> sums(2, 0);
    bool saw_final = false;
    for (const EpochKernelRecord &rec : sink.all<EpochKernelRecord>()) {
        ASSERT_GE(rec.kernel, 0);
        ASSERT_LT(rec.kernel, 2);
        sums[rec.kernel] += rec.instrDelta;
        saw_final = saw_final || rec.finalPartial;
    }
    EXPECT_TRUE(saw_final);
    for (int k = 0; k < 2; ++k) {
        EXPECT_EQ(sums[k],
                  run.gpu.threadInstrs(static_cast<KernelId>(k)))
            << "kernel " << k;
    }
}

TEST(Trace, EpochIndicesAreContiguous)
{
    TracedCoRun run("rollover");
    BufferingTraceSink sink;
    run.run(&sink, nullptr, 10 * run.cfg.epochLength);

    std::vector<int> per_kernel_next(2, 0);
    for (const EpochKernelRecord &rec : sink.all<EpochKernelRecord>())
        EXPECT_EQ(rec.epoch, per_kernel_next[rec.kernel]++);
    EXPECT_EQ(per_kernel_next[0], per_kernel_next[1]);
    EXPECT_GE(per_kernel_next[0], 9);

    int next_mem = 0;
    for (const EpochMemRecord &rec : sink.all<EpochMemRecord>())
        EXPECT_EQ(rec.epoch, next_mem++);
    EXPECT_EQ(next_mem, per_kernel_next[0]);
}

TEST(Trace, ElasticEpochLengthNeverExceedsNominal)
{
    TracedCoRun run("elastic");
    BufferingTraceSink sink;
    run.run(&sink, nullptr, 15 * run.cfg.epochLength);

    ASSERT_FALSE(sink.all<EpochKernelRecord>().empty());
    bool shortened = false;
    for (const EpochKernelRecord &rec : sink.all<EpochKernelRecord>()) {
        EXPECT_GE(rec.length, 1u);
        EXPECT_LE(rec.length, run.cfg.epochLength);
        shortened = shortened || rec.length < run.cfg.epochLength;
        EXPECT_EQ(rec.start + rec.length <= 15 * run.cfg.epochLength,
                  true);
    }
    // The whole point of Elastic: some epoch restarted early.
    EXPECT_TRUE(shortened);
}

TEST(Trace, JsonlLinesParseIndividually)
{
    const std::string path =
        testing::TempDir() + "gqos_trace_test.jsonl";
    {
        TracedCoRun run("rollover");
        auto sink = okOrDie(JsonlTraceSink::open(path));
        run.run(sink.get(), nullptr, 6 * run.cfg.epochLength);
        sink->flush();
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int lines = 0, kernel_recs = 0;
    while (std::getline(in, line)) {
        lines++;
        EXPECT_TRUE(looksLikeJsonObject(line)) << line;
        EXPECT_NE(line.find("\"type\":\""), std::string::npos);
        if (line.find("\"type\":\"epoch_kernel\"") !=
            std::string::npos)
            kernel_recs++;
    }
    EXPECT_GE(lines, 5);
    EXPECT_GE(kernel_recs, 5);
    std::remove(path.c_str());
}

TEST(Trace, SinkIsObserverOnly)
{
    // Identical co-runs, one traced and metered, one bare: every
    // simulation outcome must match exactly.
    const Cycle cycles = 8 * defaultConfig().epochLength + 123;
    TracedCoRun bare("rollover");
    bare.run(nullptr, nullptr, cycles);

    TracedCoRun traced("rollover");
    BufferingTraceSink sink;
    MetricsRegistry metrics;
    traced.run(&sink, &metrics, cycles);

    for (int k = 0; k < 2; ++k) {
        KernelId kid = static_cast<KernelId>(k);
        EXPECT_EQ(bare.gpu.threadInstrs(kid),
                  traced.gpu.threadInstrs(kid));
        EXPECT_EQ(bare.gpu.totalResidentTbs(kid),
                  traced.gpu.totalResidentTbs(kid));
    }
    EXPECT_GT(metrics.counter("qos.epochs").value(), 0u);
}

TEST(Trace, CaseLabelingSinkStampsEveryRecord)
{
    BufferingTraceSink inner;
    CaseLabelingSink labeled(&inner, "rollover|q:0.9000|b:0.0000");
    labeled.onEpochKernel(EpochKernelRecord{});
    labeled.onEpochMem(EpochMemRecord{});
    labeled.onAllocEvent(AllocEventRecord{});
    labeled.onServingEvent(ServingEventRecord{});
    labeled.onSmSlice(SmSliceRecord{});
    ASSERT_EQ(inner.size(), 5u);
    for (const TraceRecord &rec : inner.records()) {
        std::visit(
            [](const auto &r) {
                EXPECT_EQ(r.caseKey, "rollover|q:0.9000|b:0.0000");
            },
            rec);
    }
}

TEST(Trace, OpenTraceSinkRejectsRemovedCsvSpellings)
{
    const std::string base = testing::TempDir() + "gqos_spec_test";
    for (const std::string &spec :
         {base + ",csv", base + ".jsonl,jsonl", base + ".csv"}) {
        auto sink = openTraceSink(spec);
        ASSERT_FALSE(sink.ok()) << spec;
        EXPECT_EQ(sink.error().code(), ErrorCode::InvalidArgument);
        EXPECT_FALSE(std::ifstream(spec).good()) << spec;
    }
    // A plain path opens the JSONL backend.
    auto sink = openTraceSink(base + ".jsonl");
    ASSERT_TRUE(sink.ok());
    EXPECT_NE(dynamic_cast<JsonlTraceSink *>(sink.value().get()),
              nullptr);
    sink.value().reset();
    std::remove((base + ".jsonl").c_str());
}

TEST(Metrics, CountersGaugesAndJson)
{
    MetricsRegistry reg;
    MetricsRegistry::Counter &c = reg.counter("test.hits");
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    // counter() is create-or-get with stable references.
    EXPECT_EQ(&reg.counter("test.hits"), &c);
    reg.setGauge("test.level", 0.5);
    reg.observe("test.wall", 1.0);
    reg.observe("test.wall", 3.0);

    std::ostringstream os;
    reg.writeJson(os);
    const std::string json = os.str();
    EXPECT_TRUE(looksLikeJsonObject(json));
    EXPECT_NE(json.find("\"test.hits\":5"), std::string::npos);
    EXPECT_NE(json.find("test.level"), std::string::npos);
    EXPECT_NE(json.find("test.wall"), std::string::npos);
}

TEST(RunReport, WritesSortedCasesSweepsAndMetrics)
{
    RunReport report;
    ReportCase second;
    second.key = "spart|b:0.9";
    second.policy = "spart";
    ReportCase first;
    first.key = "rollover|a:0.9";
    first.policy = "rollover";
    ReportKernel k;
    k.name = "a";
    k.isQos = true;
    k.goalFrac = 0.9;
    first.kernels.push_back(k);
    report.addCase(second);
    report.addCase(first);
    ReportSweep sw;
    sw.label = "fig6";
    sw.total = 2;
    report.addSweep(sw);
    EXPECT_EQ(report.caseCount(), 2u);

    MetricsRegistry metrics;
    metrics.counter("harness.cases_simulated").inc(2);
    std::ostringstream os;
    report.write(os, &metrics);
    std::string json = os.str();
    while (!json.empty() && json.back() == '\n')
        json.pop_back();
    EXPECT_TRUE(looksLikeJsonObject(json));
    // Sorted by key: rollover case precedes spart case.
    EXPECT_LT(json.find("rollover|a:0.9"), json.find("spart|b:0.9"));
    EXPECT_NE(json.find("\"sweeps\""), std::string::npos);
    EXPECT_NE(json.find("fig6"), std::string::npos);
    EXPECT_NE(json.find("harness.cases_simulated"), std::string::npos);
}

} // anonymous namespace
} // namespace gqos
