/**
 * @file
 * JSONL trace backend and the `--trace` sink factory.
 */

#include "telemetry/trace.hh"

#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/json.hh"

namespace gqos
{

namespace
{

std::string
jsonlEpochKernel(const EpochKernelRecord &r)
{
    std::ostringstream os;
    os << "{\"type\":\"epoch_kernel\""
       << ",\"schema_version\":" << traceSchemaVersion
       << ",\"case\":\"" << jsonEscape(r.caseKey) << "\""
       << ",\"epoch\":" << r.epoch
       << ",\"start\":" << r.start
       << ",\"length\":" << r.length
       << ",\"final_partial\":" << (r.finalPartial ? "true" : "false")
       << ",\"kernel\":" << r.kernel
       << ",\"is_qos\":" << (r.isQos ? "true" : "false")
       << ",\"goal_ipc\":" << jsonNumber(r.goalIpc)
       << ",\"non_qos_goal\":" << jsonNumber(r.nonQosGoal)
       << ",\"alpha\":" << jsonNumber(r.alpha)
       << ",\"ipc_epoch\":" << jsonNumber(r.ipcEpoch)
       << ",\"ipc_history\":" << jsonNumber(r.ipcHistory)
       << ",\"attainment\":" << jsonNumber(r.attainment)
       << ",\"quota_granted\":" << jsonNumber(r.quotaGranted)
       << ",\"instr_delta\":" << r.instrDelta
       << ",\"completed_tbs\":" << r.completedTbs
       << ",\"preempted_tbs\":" << r.preemptedTbs
       << ",\"quota_refills\":" << r.quotaRefills
       << ",\"tb_target\":" << r.tbTarget
       << ",\"tb_resident\":" << r.tbResident
       << ",\"iw_average\":" << jsonNumber(r.iwAverage)
       << ",\"gated_fraction\":" << jsonNumber(r.gatedFraction)
       << ",\"leftover_per_sm\":[";
    for (std::size_t i = 0; i < r.leftoverPerSm.size(); ++i)
        os << (i ? "," : "") << jsonNumber(r.leftoverPerSm[i]);
    os << "]}";
    return os.str();
}

std::string
jsonlEpochMem(const EpochMemRecord &r)
{
    std::ostringstream os;
    os << "{\"type\":\"epoch_mem\""
       << ",\"schema_version\":" << traceSchemaVersion
       << ",\"case\":\"" << jsonEscape(r.caseKey) << "\""
       << ",\"epoch\":" << r.epoch
       << ",\"start\":" << r.start
       << ",\"length\":" << r.length
       << ",\"final_partial\":" << (r.finalPartial ? "true" : "false")
       << ",\"l1_accesses\":" << r.l1Accesses
       << ",\"l1_misses\":" << r.l1Misses
       << ",\"l2_accesses\":" << r.l2Accesses
       << ",\"l2_misses\":" << r.l2Misses
       << ",\"dram_accesses\":" << r.dramAccesses
       << ",\"context_lines\":" << r.contextLines << "}";
    return os.str();
}

std::string
jsonlAllocEvent(const AllocEventRecord &r)
{
    std::ostringstream os;
    os << "{\"type\":\"alloc_event\""
       << ",\"schema_version\":" << traceSchemaVersion
       << ",\"case\":\"" << jsonEscape(r.caseKey) << "\""
       << ",\"epoch\":" << r.epoch
       << ",\"cycle\":" << r.cycle
       << ",\"sm\":" << r.sm
       << ",\"kernel\":" << r.kernel
       << ",\"delta\":" << r.delta
       << ",\"reason\":\"" << jsonEscape(r.reason) << "\""
       << ",\"iw_average\":" << jsonNumber(r.iwAverage) << "}";
    return os.str();
}

std::string
jsonlServingEvent(const ServingEventRecord &r)
{
    std::ostringstream os;
    os << "{\"type\":\"serving_event\""
       << ",\"schema_version\":" << traceSchemaVersion
       << ",\"case\":\"" << jsonEscape(r.caseKey) << "\""
       << ",\"cycle\":" << r.cycle
       << ",\"event\":\"" << jsonEscape(r.event) << "\""
       << ",\"tenant\":\"" << jsonEscape(r.tenant) << "\""
       << ",\"request\":" << r.request
       << ",\"latency\":" << r.latency
       << ",\"level\":" << r.level
       << ",\"queue_depth\":" << r.queueDepth
       << ",\"detail\":\"" << jsonEscape(r.detail) << "\"}";
    return os.str();
}

std::string
jsonlSmSlice(const SmSliceRecord &r)
{
    std::ostringstream os;
    os << "{\"type\":\"sm_slice\""
       << ",\"schema_version\":" << traceSchemaVersion
       << ",\"case\":\"" << jsonEscape(r.caseKey) << "\""
       << ",\"sm\":" << r.sm
       << ",\"kernel\":" << r.kernel
       << ",\"start\":" << r.start
       << ",\"end\":" << r.end << "}";
    return os.str();
}

} // anonymous namespace

Result<std::unique_ptr<JsonlTraceSink>>
JsonlTraceSink::open(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        return Error(ErrorCode::IoError,
                     "cannot open trace file '" + path +
                         "': " + std::strerror(errno));
    }
    return std::unique_ptr<JsonlTraceSink>(new JsonlTraceSink(f));
}

JsonlTraceSink::~JsonlTraceSink()
{
    std::fclose(file_);
}

void
JsonlTraceSink::writeLine(const std::string &line)
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
}

void
JsonlTraceSink::onEpochKernel(const EpochKernelRecord &rec)
{
    writeLine(jsonlEpochKernel(rec));
}

void
JsonlTraceSink::onEpochMem(const EpochMemRecord &rec)
{
    writeLine(jsonlEpochMem(rec));
}

void
JsonlTraceSink::onAllocEvent(const AllocEventRecord &rec)
{
    writeLine(jsonlAllocEvent(rec));
}

void
JsonlTraceSink::onServingEvent(const ServingEventRecord &rec)
{
    writeLine(jsonlServingEvent(rec));
}

void
JsonlTraceSink::onSmSlice(const SmSliceRecord &rec)
{
    writeLine(jsonlSmSlice(rec));
}

void
JsonlTraceSink::flush()
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::fflush(file_);
}

Result<std::unique_ptr<TraceSink>>
openTraceSink(const std::string &path)
{
    if (path.ends_with(",csv") || path.ends_with(",jsonl") ||
        path.ends_with(".csv")) {
        return Error(ErrorCode::InvalidArgument,
                     "trace file '" + path +
                         "': the CSV backend and the FILE,format "
                         "selector were removed; pass a plain FILE "
                         "(always JSONL)");
    }
    auto sink = JsonlTraceSink::open(path);
    if (!sink.ok())
        return sink.error();
    return std::unique_ptr<TraceSink>(std::move(sink.value()));
}

} // namespace gqos
