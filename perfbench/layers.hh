/**
 * @file
 * Per-layer measurement for the traced run: forwarding decorators
 * that time the policy and trace-sink interfaces, the decomposed
 * replay of harness cases, and the timed layer probes.
 */

#ifndef GQOS_PERFBENCH_LAYERS_HH
#define GQOS_PERFBENCH_LAYERS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "perfbench.hh"
#include "policy/sharing_policy.hh"
#include "telemetry/trace.hh"

namespace perfbench
{

/**
 * Forwards every SharingPolicy call to @p inner and accumulates the
 * time spent inside it. The replay attaches no trace sink, so this
 * time is the policy's self time.
 */
class TimedPolicy : public gqos::SharingPolicy
{
  public:
    explicit TimedPolicy(gqos::SharingPolicy &inner) : inner_(inner) {}

    void onLaunch(gqos::Gpu &gpu) override;
    void onCycle(gqos::Gpu &gpu) override;
    gqos::Cycle nextControlAt(const gqos::Gpu &gpu,
                              gqos::Cycle now) const override;
    void attachTelemetry(gqos::TraceSink *sink,
                         gqos::MetricsRegistry *metrics) override;
    void onFinish(gqos::Gpu &gpu) override;
    std::string name() const override { return inner_.name(); }

    double seconds() const { return ns_ * 1e-9; }
    std::uint64_t onCycleCalls() const { return onCycleCalls_; }
    std::uint64_t nextControlCalls() const { return nextControlCalls_; }

  private:
    gqos::SharingPolicy &inner_;
    mutable double ns_ = 0.0;
    std::uint64_t onCycleCalls_ = 0;
    mutable std::uint64_t nextControlCalls_ = 0;
};

/** Record kinds a TraceSink receives, for per-type counts. */
enum RecordKind
{
    RecEpochKernel,
    RecEpochMem,
    RecAllocEvent,
    RecServingEvent,
    RecSmSlice,
    NumRecordKinds
};

extern const char *const recordKindNames[NumRecordKinds];

/** What a TimedSink saw, plus the bytes its files hold. */
struct TelemetryTotals
{
    std::array<std::uint64_t, NumRecordKinds> records{};
    std::uint64_t bytes = 0;
    double sinkSeconds = 0.0;
    double flushSeconds = 0.0;
};

/**
 * Forwards every TraceSink call to @p inner, counting records by
 * type and timing record delivery and flushes separately.
 */
class TimedSink : public gqos::TraceSink
{
  public:
    explicit TimedSink(gqos::TraceSink &inner) : inner_(inner) {}

    void onEpochKernel(const gqos::EpochKernelRecord &rec) override;
    void onEpochMem(const gqos::EpochMemRecord &rec) override;
    void onAllocEvent(const gqos::AllocEventRecord &rec) override;
    void onServingEvent(const gqos::ServingEventRecord &rec) override;
    void onSmSlice(const gqos::SmSliceRecord &rec) override;
    void flush() override;

    TelemetryTotals totals;

  private:
    gqos::TraceSink &inner_;
};

/** Print the telemetry.* per-layer metrics. */
void reportTelemetry(const TelemetryTotals &t, Report &report);

/**
 * Print the trace.* metrics of the traced pass, whose timed region is
 * the top-level spans named @p root, and check that their self times
 * add up to @p tracedRunS.
 */
void reportTrace(const SpanRecorder &spans, const std::string &root,
                 double tracedRunS, double untracedRunS, Report &report);

/** Print the qos.* counters of @p metrics. */
void reportQosCounters(gqos::MetricsRegistry &metrics,
                       Report &report);

/**
 * Layer section shared by every workload's traced run:
 *  - replays each case of @p sample from Gpu / makePolicy /
 *    SimEngine exactly as Runner::simulate does, behind TimedPolicy,
 *    and checks its IPCs and power figure bit for bit against
 *    @p expected (the same cases' Runner::run results);
 *  - reports the sm / gpu / mem / engine / policy / power metrics of
 *    that replay;
 *  - runs the timed layer probes (Gpu::step, MemSystem::load,
 *    Cache::access, ResultCache, instrPerWatt), the profiler
 *    on/off comparison and runSweep's 2-job efficiency.
 * @p runner must hold the isolated baselines of every sample kernel.
 */
void reportLayers(const Options &opts, gqos::Runner &runner,
                  const std::vector<gqos::SweepCase> &sample,
                  const std::vector<gqos::CaseResult> &expected,
                  Report &report, SpanRecorder &spans);

/** Seeded sample of @p k distinct indices out of [0, n), sorted. */
std::vector<std::size_t> sampleIndices(std::size_t n, std::size_t k,
                                       std::uint64_t seed);

/**
 * Re-run each case of @p sample with the reference engine, on a Runner
 * with its own fresh cache directory (so its isolated baselines come
 * from the reference engine too), and compare every result bit for
 * bit with @p expected. Each comparison is one checked operation.
 */
void referenceCrossCheck(const gqos::Runner::Options &base,
                         const std::vector<gqos::SweepCase> &sample,
                         const std::vector<gqos::CaseResult> &expected,
                         Report &report);

/** Bitwise equality of two case results (all simulated fields). */
bool sameResult(const gqos::CaseResult &a, const gqos::CaseResult &b);

/** Fold one case result into @p d. */
void digestResult(Digest &d, const gqos::SweepCase &c,
                  const gqos::CaseResult &r);

} // namespace perfbench

#endif // GQOS_PERFBENCH_LAYERS_HH
