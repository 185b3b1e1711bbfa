/**
 * @file
 * Structured run-report serialization.
 */

#include "harness/run_report.hh"

#include <algorithm>
#include <fstream>

#include "common/json.hh"
#include "common/metrics.hh"

namespace gqos
{

namespace
{

void
writeKernel(std::ostream &os, const ReportKernel &k)
{
    os << "{\"name\":\"" << jsonEscape(k.name) << "\""
       << ",\"is_qos\":" << (k.isQos ? "true" : "false")
       << ",\"goal_frac\":" << jsonNumber(k.goalFrac)
       << ",\"goal_ipc\":" << jsonNumber(k.goalIpc)
       << ",\"ipc\":" << jsonNumber(k.ipc)
       << ",\"ipc_isolated\":" << jsonNumber(k.ipcIsolated)
       << ",\"reached\":" << (k.reached ? "true" : "false") << "}";
}

void
writeBreakdown(std::ostream &os,
               const std::vector<CycleBreakdown> &b)
{
    os << ",\"cycle_breakdown\":[";
    for (std::size_t i = 0; i < b.size(); ++i) {
        if (i)
            os << ",";
        os << jsonObject(b[i]);
    }
    os << "]";
}

void
writeCase(std::ostream &os, const ReportCase &c)
{
    os << "{\"key\":\"" << jsonEscape(c.key) << "\""
       << ",\"policy\":\"" << jsonEscape(c.policy) << "\""
       << ",\"config\":\"" << jsonEscape(c.config) << "\""
       << ",\"engine\":\"" << jsonEscape(c.engine) << "\""
       << ",\"from_cache\":" << (c.fromCache ? "true" : "false")
       << ",\"wall_sec\":" << jsonNumber(c.wallSec)
       << ",\"sim_cycles_per_sec\":" << jsonNumber(c.simCyclesPerSec)
       << ",\"instr_per_watt\":" << jsonNumber(c.instrPerWatt)
       << ",\"dram_per_kcycle\":" << jsonNumber(c.dramPerKcycle)
       << ",\"preemptions\":" << c.preemptions
       << ",\"trace\":\"" << jsonEscape(c.tracePath) << "\""
       << ",\"kernels\":[";
    for (std::size_t i = 0; i < c.kernels.size(); ++i) {
        if (i)
            os << ",";
        writeKernel(os, c.kernels[i]);
    }
    os << "]";
    writeBreakdown(os, c.cycleBreakdown);
    os << "}";
}

void
writeSweep(std::ostream &os, const ReportSweep &s)
{
    os << "{\"label\":\"" << jsonEscape(s.label) << "\""
       << ",\"total\":" << s.total
       << ",\"cache_hits\":" << s.cacheHits
       << ",\"jobs\":" << s.jobs
       << ",\"elapsed_sec\":" << jsonNumber(s.elapsedSec)
       << ",\"faults_injected\":" << s.faultsInjected
       << ",\"faults_recovered\":" << s.faultsRecovered << "}";
}

void
writeServingTenant(std::ostream &os, const ReportServingTenant &t)
{
    os << "{\"name\":\"" << jsonEscape(t.name) << "\""
       << ",\"class\":\"" << jsonEscape(t.qosClass) << "\""
       << ",\"arrivals\":" << t.arrivals
       << ",\"admitted\":" << t.admitted
       << ",\"completed\":" << t.completed
       << ",\"slo_met\":" << t.sloMet
       << ",\"rejected\":" << t.rejected
       << ",\"abandoned\":" << t.abandoned
       << ",\"dropped_at_shutdown\":" << t.droppedAtShutdown
       << ",\"max_queue_depth\":" << t.maxQueueDepth
       << ",\"p50_latency\":" << t.p50Latency
       << ",\"p99_latency\":" << t.p99Latency
       << ",\"slo_attainment\":" << jsonNumber(t.sloAttainment)
       << ",\"goodput\":" << jsonNumber(t.goodput)
       << ",\"stalled\":" << (t.stalled ? "true" : "false") << "}";
}

void
writeServing(std::ostream &os, const ReportServing &s)
{
    os << "{\"label\":\"" << jsonEscape(s.label) << "\""
       << ",\"policy\":\"" << jsonEscape(s.policy) << "\""
       << ",\"end_cycle\":" << s.endCycle
       << ",\"final_level\":" << s.finalLevel
       << ",\"level_changes\":" << s.levelChanges
       << ",\"drained\":" << (s.drained ? "true" : "false")
       << ",\"engine_stalled\":"
       << (s.engineStalled ? "true" : "false")
       << ",\"tenant_stalled\":"
       << (s.anyTenantStalled ? "true" : "false")
       << ",\"tenants\":[";
    for (std::size_t i = 0; i < s.tenants.size(); ++i) {
        if (i)
            os << ",";
        writeServingTenant(os, s.tenants[i]);
    }
    os << "]";
    writeBreakdown(os, s.cycleBreakdown);
    os << "}";
}

} // anonymous namespace

void
RunReport::addCase(ReportCase c)
{
    std::lock_guard<std::mutex> guard(mutex_);
    cases_.push_back(std::move(c));
}

void
RunReport::addSweep(ReportSweep s)
{
    std::lock_guard<std::mutex> guard(mutex_);
    sweeps_.push_back(std::move(s));
}

void
RunReport::addServing(ReportServing s)
{
    std::lock_guard<std::mutex> guard(mutex_);
    serving_.push_back(std::move(s));
}

std::size_t
RunReport::caseCount() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return cases_.size();
}

void
RunReport::write(std::ostream &os,
                 const MetricsRegistry *metrics) const
{
    std::vector<ReportCase> cases;
    std::vector<ReportSweep> sweeps;
    std::vector<ReportServing> serving;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        cases = cases_;
        sweeps = sweeps_;
        serving = serving_;
    }
    // Deterministic output under parallel sweeps: order by case
    // identity, not by worker completion time.
    std::stable_sort(cases.begin(), cases.end(),
                     [](const ReportCase &a, const ReportCase &b) {
                         if (a.key != b.key)
                             return a.key < b.key;
                         return a.config < b.config;
                     });

    os << "{\"schema_version\":" << reportSchemaVersion
       << ",\"cases\":[";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        if (i)
            os << ",";
        writeCase(os, cases[i]);
    }
    os << "],\"sweeps\":[";
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        if (i)
            os << ",";
        writeSweep(os, sweeps[i]);
    }
    // Serving entries sort by label for the same determinism
    // guarantee as cases (load points may finish out of order).
    std::stable_sort(serving.begin(), serving.end(),
                     [](const ReportServing &a,
                        const ReportServing &b) {
                         return a.label < b.label;
                     });
    os << "],\"serving\":[";
    for (std::size_t i = 0; i < serving.size(); ++i) {
        if (i)
            os << ",";
        writeServing(os, serving[i]);
    }
    os << "],\"metrics\":";
    if (metrics)
        metrics->writeJson(os);
    else
        os << "{}";
    os << "}\n";
}

Result<void>
RunReport::writeFile(const std::string &path,
                     const MetricsRegistry *metrics) const
{
    std::ofstream out(path);
    if (!out) {
        return Error::format(ErrorCode::IoError,
                             "cannot open stats file '%s'",
                             path.c_str());
    }
    write(out, metrics);
    out.close();
    if (!out) {
        return Error::format(ErrorCode::IoError,
                             "write to stats file '%s' failed",
                             path.c_str());
    }
    return {};
}

} // namespace gqos
