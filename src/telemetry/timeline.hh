/**
 * @file
 * Chrome-trace / Perfetto timeline exporter (`--timeline=FILE`).
 *
 * A TimelineSink is a TraceSink backend that renders the telemetry
 * stream as trace-event JSON loadable in Perfetto or
 * chrome://tracing (one simulated cycle = 1 us of trace time):
 *
 *   - one process per simulated case (pid assigned in sorted
 *     case-key order), named after the case key
 *   - one track per SM ("SM <n>", tid 1000+sm) carrying
 *     kernel-occupancy slices ("K<k>") from SmSliceRecord
 *   - counter tracks per kernel (epoch IPC, attainment, granted
 *     quota, gated fraction), per tenant (queue depth) and
 *     server-wide (admission level, DRAM accesses)
 *   - instant events for epoch boundaries, quota refills, static-
 *     allocator moves, and every serving-driver lifecycle event
 *     (admission/rejection, degradation-ladder transitions, grid
 *     launch/complete, watchdog trips)
 *
 * Determinism: events are buffered in arrival order per case and
 * the file is written grouped by case with pids assigned in sorted
 * key order, so the bytes are identical at any `--jobs` level even
 * when sweep workers interleave their emissions. flush() rewrites
 * the complete, valid JSON document from scratch — a run that is
 * cut short (serving watchdog `tenant_stalled`, first-error sweep
 * cancellation) still leaves a loadable file behind.
 */

#ifndef GQOS_TELEMETRY_TIMELINE_HH
#define GQOS_TELEMETRY_TIMELINE_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.hh"
#include "telemetry/trace.hh"

namespace gqos
{

class TimelineSink : public TraceSink
{
  public:
    /** Validate that @p path is writable and create the sink. */
    static Result<std::unique_ptr<TimelineSink>> open(
        const std::string &path);

    ~TimelineSink() override;

    void onEpochKernel(const EpochKernelRecord &rec) override;
    void onEpochMem(const EpochMemRecord &rec) override;
    void onAllocEvent(const AllocEventRecord &rec) override;
    void onServingEvent(const ServingEventRecord &rec) override;
    void onSmSlice(const SmSliceRecord &rec) override;

    /** Rewrite the complete timeline JSON document. */
    void flush() override;

  private:
    explicit TimelineSink(std::string path)
        : path_(std::move(path))
    {}

    /**
     * Queue one trace event. @p fragment is the event's JSON body
     * without the "pid" field (added at flush once the case's pid
     * is known); it must start with a key (no leading comma).
     */
    void push(const std::string &case_key, const std::string &fragment);

    /** Remember a thread name for (case, tid) metadata emission. */
    void nameThread(const std::string &case_key, int tid,
                    const std::string &name);

    /**
     * One case's queued events in arrival order: the fragments back
     * to back in one buffer, and where each ends. One allocation per
     * case instead of one (plus a copy of the case key) per event
     * keeps a long serving run's timeline at about its JSON size.
     */
    struct CaseEvents
    {
        std::string text;
        std::vector<std::size_t> ends;
    };

    std::mutex mutex_;
    std::string path_;
    /** case key -> events; std::map keeps the cases, and so the
     *  pids assigned at flush, in sorted key order. */
    std::map<std::string, CaseEvents> cases_;
    /** case key -> (tid -> thread name), sorted likewise. */
    std::map<std::string, std::map<int, std::string>> threads_;
};

} // namespace gqos

#endif // GQOS_TELEMETRY_TIMELINE_HH
