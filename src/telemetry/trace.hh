/**
 * @file
 * Epoch-grained QoS telemetry: trace records and sinks.
 *
 * The simulator computes rich per-epoch state — alpha correction,
 * elastic epoch lengths, rollover carry, the multiplicative non-QoS
 * goal search — and without a trace it is all discarded at the next
 * epoch boundary. A TraceSink receives five record kinds, so a goal
 * miss or an oscillating non-QoS quota can be replayed offline:
 *
 *   - epoch_kernel: one per (epoch, kernel)
 *   - epoch_mem: one memory-system record per epoch
 *   - alloc_event: one per TB reallocation of the static allocator
 *   - serving_event: one per serving-driver lifecycle or control
 *     event
 *   - sm_slice: one per kernel-occupancy span on one SM
 *
 * Producers (QuotaController, StaticAllocator) hold a plain
 * `TraceSink *` that defaults to nullptr; every emission site is
 * guarded by that null check, so an untraced run pays one branch per
 * epoch and nothing else — simulation results are byte-identical
 * with tracing on or off, because sinks only observe.
 *
 * JSONL (one self-describing JSON object per line) is the only
 * serialized format; TimelineSink (telemetry/timeline.hh) renders
 * the same stream for Perfetto. Sinks are thread-safe: records are
 * appended atomically under a mutex, so sweep workers may share one
 * sink — records from different cases interleave but each carries
 * its case key (stamped by CaseLabelingSink). BufferingTraceSink
 * keeps records in memory as TraceRecord variants, for ordered
 * replay, tests and programmatic consumers.
 */

#ifndef GQOS_TELEMETRY_TRACE_HH
#define GQOS_TELEMETRY_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "arch/types.hh"
#include "common/result.hh"

namespace gqos
{

/**
 * Schema version stamped into every serialized trace record (JSONL
 * field "schema_version") so downstream tooling can diff and
 * version-gate outputs. Bump whenever a record gains, loses or
 * reinterprets a field.
 *
 *   1: initial JSONL/CSV layout
 *   2: schema_version stamped; serving_event gains queue_depth;
 *      new sm_slice record kind (cycle-attribution timeline)
 */
constexpr int traceSchemaVersion = 2;

/**
 * One record per (epoch, kernel), emitted at each epoch boundary
 * for the epoch that just ended (plus one final partial record at
 * run end so instruction deltas sum to the run total).
 */
struct EpochKernelRecord
{
    std::string caseKey;      //!< harness case identity ("" if none)
    int epoch = 0;            //!< epoch index, contiguous from 0
    Cycle start = 0;          //!< first cycle of the epoch
    Cycle length = 0;         //!< cycles (elastic: <= epochLength)
    bool finalPartial = false; //!< trailing sub-epoch at run end
    int kernel = 0;           //!< KernelId
    bool isQos = false;
    double goalIpc = 0.0;     //!< absolute IPC goal (0 = non-QoS)
    double nonQosGoal = 0.0;  //!< artificial goal (Section 3.5)
    double alpha = 1.0;       //!< history adjustment in effect
    double ipcEpoch = 0.0;    //!< thread-IPC over this epoch
    double ipcHistory = 0.0;  //!< post-settle lifetime IPC
    double attainment = 0.0;  //!< ipcEpoch / goalIpc (QoS only)
    double quotaGranted = 0.0; //!< total quota allocated this epoch
    std::uint64_t instrDelta = 0;    //!< thread instrs retired
    std::uint64_t completedTbs = 0;  //!< TBs completed this epoch
    std::uint64_t preemptedTbs = 0;  //!< TBs preempted this epoch
    std::uint64_t quotaRefills = 0;  //!< mid-epoch refill grants
    int tbTarget = 0;         //!< sum of per-SM TB targets (at end)
    int tbResident = 0;       //!< resident TBs across SMs (at end)
    double iwAverage = 0.0;   //!< mean idle-warp sample per SM
    double gatedFraction = 0.0; //!< mean EWS-gated cycle fraction
    std::vector<double> leftoverPerSm; //!< quota counters at end

    bool operator==(const EpochKernelRecord &) const = default;
};

/** Per-epoch memory-system activity (deltas over the epoch). */
struct EpochMemRecord
{
    std::string caseKey;
    int epoch = 0;
    Cycle start = 0;
    Cycle length = 0;
    bool finalPartial = false;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t dramAccesses = 0;
    std::uint64_t contextLines = 0; //!< preemption context traffic

    bool operator==(const EpochMemRecord &) const = default;
};

/** One TB-reallocation decision of the static allocator. */
struct AllocEventRecord
{
    std::string caseKey;
    int epoch = 0;
    Cycle cycle = 0;
    int sm = 0;
    int kernel = 0;
    int delta = 0;       //!< target change: +1 grow, -1 evict
    std::string reason;  //!< "grow", "evict", "restore", ...
    double iwAverage = 0.0; //!< kernel's idle-warp average on @p sm

    bool operator==(const AllocEventRecord &) const = default;
};

/**
 * One request-lifecycle or control event of the online serving
 * driver: arrivals, dispatches, completions, rejections, queue
 * abandonments, degradation-ladder moves, tenant stalls and
 * shutdown drops all flow through this record.
 */
struct ServingEventRecord
{
    std::string caseKey;
    Cycle cycle = 0;
    std::string event;   //!< "arrival", "dispatch", "complete", ...
    std::string tenant;  //!< tenant name ("" for server-wide events)
    std::uint64_t request = 0; //!< per-tenant request sequence number
    std::uint64_t latency = 0; //!< launch-to-done cycles (complete)
    int level = 0;       //!< degradation-ladder level when emitted
    std::string detail;  //!< outcome / reason, free-form but stable
    /** Tenant queue depth right after the event (server-wide events
     *  carry the total backlog); drives timeline counter tracks. */
    int queueDepth = 0;

    bool operator==(const ServingEventRecord &) const = default;
};

/**
 * One kernel-occupancy span on one SM: kernel @p kernel had >= 1
 * resident TB on SM @p sm for cycles [start, end). Produced by the
 * harness from Gpu::setSmSliceCallback for the timeline exporter's
 * per-SM tracks.
 */
struct SmSliceRecord
{
    std::string caseKey;
    int sm = 0;
    int kernel = 0;
    Cycle start = 0;
    Cycle end = 0;

    bool operator==(const SmSliceRecord &) const = default;
};

/** Any one trace record; the in-memory form of a trace stream. */
using TraceRecord =
    std::variant<EpochKernelRecord, EpochMemRecord, AllocEventRecord,
                 ServingEventRecord, SmSliceRecord>;

/**
 * Telemetry consumer interface. Implementations must tolerate
 * concurrent calls from multiple sweep worker threads.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    virtual void onEpochKernel(const EpochKernelRecord &rec) = 0;
    virtual void onEpochMem(const EpochMemRecord &rec) = 0;
    virtual void onAllocEvent(const AllocEventRecord &rec) = 0;

    /**
     * Serving-driver lifecycle event. Default no-op so batch-only
     * sinks (and out-of-tree implementations) need not care.
     */
    virtual void onServingEvent(const ServingEventRecord &) {}

    /**
     * Kernel-occupancy slice on one SM (timeline exporter input).
     * Default no-op: line-oriented backends can record it, but most
     * consumers only care about epoch records.
     */
    virtual void onSmSlice(const SmSliceRecord &) {}

    /** Make everything emitted so far durable (default no-op). */
    virtual void flush() {}

    /** Deliver @p rec to the on* method of its record kind. */
    void emit(const EpochKernelRecord &rec) { onEpochKernel(rec); }
    void emit(const EpochMemRecord &rec) { onEpochMem(rec); }
    void emit(const AllocEventRecord &rec) { onAllocEvent(rec); }
    void emit(const ServingEventRecord &rec) { onServingEvent(rec); }
    void emit(const SmSliceRecord &rec) { onSmSlice(rec); }
    void
    emit(const TraceRecord &rec)
    {
        std::visit([this](const auto &r) { emit(r); }, rec);
    }
};

/**
 * Decorator stamping every record with a case key before forwarding
 * to the shared backend. The harness wraps the run-wide sink in one
 * of these per simulated case, so records in a multi-case trace file
 * stay attributable even when sweep workers interleave.
 */
class CaseLabelingSink : public TraceSink
{
  public:
    CaseLabelingSink(TraceSink *inner, std::string case_key)
        : inner_(inner), caseKey_(std::move(case_key))
    {}

    void onEpochKernel(const EpochKernelRecord &r) override { label(r); }
    void onEpochMem(const EpochMemRecord &r) override { label(r); }
    void onAllocEvent(const AllocEventRecord &r) override { label(r); }
    void onServingEvent(const ServingEventRecord &r) override { label(r); }
    void onSmSlice(const SmSliceRecord &r) override { label(r); }
    void flush() override { inner_->flush(); }

  private:
    template <typename R>
    void
    label(R rec)
    {
        rec.caseKey = caseKey_;
        inner_->emit(rec);
    }

    TraceSink *inner_;
    std::string caseKey_;
};

/**
 * Fan-out decorator: forwards every record to two sinks. Used when
 * a bench is asked for both `--trace` and `--timeline` so producers
 * keep holding a single `TraceSink *`.
 */
class TeeTraceSink : public TraceSink
{
  public:
    TeeTraceSink(TraceSink *a, TraceSink *b) : a_(a), b_(b) {}

    void onEpochKernel(const EpochKernelRecord &r) override { both(r); }
    void onEpochMem(const EpochMemRecord &r) override { both(r); }
    void onAllocEvent(const AllocEventRecord &r) override { both(r); }
    void onServingEvent(const ServingEventRecord &r) override { both(r); }
    void onSmSlice(const SmSliceRecord &r) override { both(r); }

    void
    flush() override
    {
        a_->flush();
        b_->flush();
    }

  private:
    template <typename R>
    void
    both(const R &rec)
    {
        a_->emit(rec);
        b_->emit(rec);
    }

    TraceSink *a_;
    TraceSink *b_;
};

/**
 * Order-preserving in-memory buffer of every record kind. The
 * serving harness gives each concurrently-simulated load point its
 * own buffer, then replays the buffers into the real output sink in
 * submission order — so the trace file is byte-identical at any
 * `--jobs` level even though the simulations ran in parallel. Tests
 * and programmatic consumers read the records back directly; the
 * accessors are meant for after the run, once emission has stopped.
 */
class BufferingTraceSink : public TraceSink
{
  public:
    void onEpochKernel(const EpochKernelRecord &r) override { push(r); }
    void onEpochMem(const EpochMemRecord &r) override { push(r); }
    void onAllocEvent(const AllocEventRecord &r) override { push(r); }
    void onServingEvent(const ServingEventRecord &r) override { push(r); }
    void onSmSlice(const SmSliceRecord &r) override { push(r); }

    /** Forward every buffered record to @p sink, in emission order. */
    void
    replayTo(TraceSink &sink) const
    {
        for (const TraceRecord &rec : records_)
            sink.emit(rec);
    }

    /** Every record, in emission order. */
    const std::vector<TraceRecord> &records() const { return records_; }

    /** The records of kind @p R, in emission order. */
    template <typename R>
    std::vector<R>
    all() const
    {
        std::vector<R> out;
        for (const TraceRecord &rec : records_) {
            if (const R *r = std::get_if<R>(&rec))
                out.push_back(*r);
        }
        return out;
    }

    std::size_t size() const { return records_.size(); }

  private:
    template <typename R>
    void
    push(const R &rec)
    {
        std::lock_guard<std::mutex> guard(mutex_);
        records_.emplace_back(rec);
    }

    std::mutex mutex_;
    std::vector<TraceRecord> records_;
};

/**
 * JSONL backend: one self-describing JSON object per line, with a
 * "type" field naming the record kind ("epoch_kernel", "epoch_mem",
 * "alloc_event", "serving_event" or "sm_slice").
 */
class JsonlTraceSink : public TraceSink
{
  public:
    /** Open @p path for writing (truncates). */
    static Result<std::unique_ptr<JsonlTraceSink>> open(
        const std::string &path);

    ~JsonlTraceSink() override;

    void onEpochKernel(const EpochKernelRecord &rec) override;
    void onEpochMem(const EpochMemRecord &rec) override;
    void onAllocEvent(const AllocEventRecord &rec) override;
    void onServingEvent(const ServingEventRecord &rec) override;
    void onSmSlice(const SmSliceRecord &rec) override;
    void flush() override;

  private:
    explicit JsonlTraceSink(std::FILE *f) : file_(f) {}

    void writeLine(const std::string &line);

    std::mutex mutex_;
    std::FILE *file_;
};

/**
 * Open the `--trace` sink: JSONL written to @p path. The removed
 * CSV spellings ("FILE,csv", "FILE,jsonl", "*.csv") are rejected
 * with InvalidArgument, so an old command line fails loudly instead
 * of writing JSONL into a file named as CSV.
 */
Result<std::unique_ptr<TraceSink>> openTraceSink(
    const std::string &path);

} // namespace gqos

#endif // GQOS_TELEMETRY_TRACE_HH
