/**
 * @file
 * Quickstart: share a GPU between a QoS kernel and a best-effort
 * kernel using the fine-grained Rollover scheme, and compare against
 * the Spart (spatial partitioning) baseline.
 *
 * Usage: quickstart [--qos sgemm] [--bg lbm] [--goal 0.9]
 *                   [--cycles 200000] [--policy rollover]
 *                   [--trace epochs.jsonl] [--quiet|--verbose]
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/cli.hh"
#include "harness/runner.hh"
#include "telemetry/trace.hh"
#include "workloads/parboil.hh"

using namespace gqos;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    applyLogLevelFlags(args);
    std::string qos_kernel = args.getString("qos", "sgemm");
    std::string bg_kernel = args.getString("bg", "lbm");
    double goal = args.getDouble("goal", 0.9);
    std::string policy = args.getString("policy", "rollover");

    Runner::Options opts;
    opts.cycles = args.getInt("cycles", 200000);
    opts.warmupCycles = std::min<Cycle>(opts.warmupCycles,
                                        opts.cycles / 5);
    opts.useCache = false;
    std::unique_ptr<TraceSink> trace;
    opts.tracePath = args.getString("trace", "");
    if (!opts.tracePath.empty()) {
        trace = okOrDie(openTraceSink(opts.tracePath));
        opts.traceSink = trace.get();
    }
    Runner runner = okOrDie(Runner::make(opts));

    std::printf("GPU: %s\n", runner.config().summary().c_str());
    std::printf("QoS kernel: %s (goal: %.0f%% of isolated IPC)\n",
                qos_kernel.c_str(), 100.0 * goal);
    std::printf("best-effort kernel: %s\n\n", bg_kernel.c_str());

    double iso_qos = okOrDie(runner.isolatedIpc(qos_kernel));
    double iso_bg = okOrDie(runner.isolatedIpc(bg_kernel));
    std::printf("isolated IPC: %s=%.1f  %s=%.1f\n\n",
                qos_kernel.c_str(), iso_qos, bg_kernel.c_str(),
                iso_bg);

    for (const std::string &pol : {policy, std::string("spart")}) {
        CaseResult r = okOrDie(runner.run({qos_kernel, bg_kernel},
                                          {goal, 0.0}, pol));
        const KernelResult &q = r.kernels[0];
        const KernelResult &b = r.kernels[1];
        std::printf("[%s]\n", pol.c_str());
        std::printf("  %-12s ipc %8.1f  goal %8.1f  -> %s "
                    "(%.1f%% of goal)\n",
                    q.name.c_str(), q.ipc, q.goalIpc,
                    q.reached() ? "REACHED" : "MISSED",
                    100.0 * q.normalizedToGoal());
        std::printf("  %-12s ipc %8.1f  (%.1f%% of isolated)\n",
                    b.name.c_str(), b.ipc,
                    100.0 * b.normalizedThroughput());
        std::printf("  preemptions %llu, DRAM %.2f lines/kcycle, "
                    "%.3g instr/s/W\n\n",
                    static_cast<unsigned long long>(r.preemptions),
                    r.dramPerKcycle, r.instrPerWatt);
    }
    return 0;
}
