/**
 * @file
 * Epoch-by-epoch trace of a co-run under a chosen policy: per-kernel
 * epoch IPC, TB residency, quota state and preemption counts.
 * Intended for studying policy convergence behaviour.
 *
 * Usage: policy_trace [--kernels sgemm,lbm] [--goals 0.9,0]
 *                     [--policy rollover] [--cycles 200000]
 *                     [--trace epochs.jsonl] [--quiet|--verbose]
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/cli.hh"
#include "common/logging.hh"
#include "gpu/gpu.hh"
#include "harness/runner.hh"
#include "policy/policy_factory.hh"
#include "telemetry/trace.hh"
#include "workloads/parboil.hh"

using namespace gqos;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    applyLogLevelFlags(args);
    auto kernels = splitList(args.getString("kernels", "sgemm,lbm"));
    auto goal_strs = splitList(args.getString("goals", "0.9,0"));
    std::string policy = args.getString("policy", "rollover");
    Cycle cycles = args.getInt("cycles", 200000);
    if (kernels.size() != goal_strs.size())
        gqos_fatal("--kernels and --goals must have equal length");

    // Isolated baselines for the goal translation.
    Runner::Options ropts;
    ropts.cycles = cycles;
    ropts.warmupCycles = std::min<Cycle>(ropts.warmupCycles,
                                         cycles / 5);
    ropts.useCache = false;
    Runner runner = okOrDie(Runner::make(ropts));

    GpuConfig cfg = runner.config();
    std::vector<const KernelDesc *> descs;
    std::vector<QosSpec> specs;
    std::vector<double> iso;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        descs.push_back(&parboilKernel(kernels[i]));
        double frac = std::strtod(goal_strs[i].c_str(), nullptr);
        iso.push_back(okOrDie(runner.isolatedIpc(kernels[i])));
        specs.push_back(frac > 0.0
                            ? QosSpec::qos(frac * iso.back())
                            : QosSpec::nonQos());
        std::printf("# %s: isolated ipc %.1f, goal %s\n",
                    kernels[i].c_str(), iso.back(),
                    frac > 0 ? (std::to_string(frac).c_str())
                             : "none");
    }

    Gpu gpu(cfg);
    gpu.launch(descs);
    auto pol = okOrDie(makePolicy(policy, specs, cfg));
    // The structured counterpart of the table below: stream every
    // epoch record to a trace file while the ASCII trace prints.
    std::unique_ptr<TraceSink> sink;
    std::string trace_path = args.getString("trace", "");
    if (!trace_path.empty()) {
        sink = okOrDie(openTraceSink(trace_path));
        pol->attachTelemetry(sink.get(), nullptr);
    }
    pol->onLaunch(gpu);

    std::printf("# policy: %s\n", pol->name().c_str());
    std::printf("%6s", "epoch");
    for (const auto &k : kernels)
        std::printf(" | %-8s ipcE  tbs  q/sm    iw", k.c_str());
    std::printf(" | preempt\n");

    std::vector<std::uint64_t> last_instr(kernels.size(), 0);
    Cycle epoch = cfg.epochLength;
    int epoch_idx = 0;
    for (Cycle c = 0; c < cycles; ++c) {
        pol->onCycle(gpu);
        gpu.step();
        if (gpu.now() % epoch == 0) {
            epoch_idx++;
            std::printf("%6d", epoch_idx);
            for (std::size_t i = 0; i < kernels.size(); ++i) {
                std::uint64_t instr = gpu.threadInstrs(
                    static_cast<KernelId>(i));
                double ipc_e = static_cast<double>(
                    instr - last_instr[i]) / epoch;
                last_instr[i] = instr;
                double quota = 0.0, iw = 0.0;
                for (int s = 0; s < gpu.numSms(); ++s) {
                    quota += gpu.sm(s).quota(
                        static_cast<KernelId>(i));
                    iw += gpu.sm(s).iwAverage(
                        static_cast<KernelId>(i));
                }
                std::printf(" | %8.1f/%4.2f %4d %6.0f %5.1f",
                            ipc_e,
                            iso[i] > 0 ? ipc_e / iso[i] : 0.0,
                            gpu.totalResidentTbs(
                                static_cast<KernelId>(i)),
                            quota / gpu.numSms(),
                            iw / gpu.numSms());
            }
            std::uint64_t pre = 0;
            for (int s = 0; s < gpu.numSms(); ++s)
                pre += gpu.sm(s).stats().preemptions;
            std::printf(" | %llu\n",
                        static_cast<unsigned long long>(pre));
        }
    }
    pol->onFinish(gpu);
    return 0;
}
