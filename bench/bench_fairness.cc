/**
 * @file
 * Extension benchmark (beyond the paper's figures): fairness mode
 * vs QoS mode on the same co-runs. Section 3.3 notes the firmware
 * can switch between the two policies; this harness quantifies the
 * trade: SMK-fair equalizes slowdowns (high Jain index) without
 * guarantees, while Rollover guarantees the QoS kernel and gives
 * the leftovers to the other.
 */

#include "bench/bench_common.hh"

#include "policy/smk_fair.hh"

using namespace gqos;
using namespace gqos::bench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    Runner runner = makeRunner(args);
    auto pairs = subsample(parboilPairs(),
                           static_cast<int>(args.getInt("pairs", 8)));
    Cycle cycles = args.getInt("cycles", 200000);

    // The Rollover cases sweep in parallel (which also warms the
    // isolated baselines); the inline SMK-fair simulation below is
    // not a Runner case, so it stays sequential in the Emit pass,
    // guarded by planning().
    Sweep sweep(runner, sweepOptions(args, "fairness"));
    sweep.execute([&](Sweep &sw) {
        sw.header("Extension: fairness (SMK-fair) vs QoS (Rollover "
                  "70%) on the same pairs");
        sw.printf("%-22s | %8s %8s %8s | %8s %8s\n", "pair",
                  "fair.p0", "fair.p1", "jain", "qos.met",
                  "qos.nonQoS");

        MeanStat jain, qos_nq;
        int met = 0, total = 0;
        for (const auto &[k0, k1] : pairs) {
            // QoS mode (swept; placeholder during the Plan pass).
            CaseResult r = sw.run({k0, k1}, {0.7, 0.0}, "rollover");
            if (sw.planning())
                continue;

            // Fairness mode: baselines are warm from the sweep.
            GpuConfig cfg = runner.config();
            double iso0 = isolatedIpc(runner, k0);
            double iso1 = isolatedIpc(runner, k1);
            Gpu gpu(cfg);
            const KernelDesc &d0 = parboilKernel(k0);
            const KernelDesc &d1 = parboilKernel(k1);
            gpu.launch({&d0, &d1});
            SmkFairPolicy fair({iso0, iso1}, cfg.epochLength);
            fair.onLaunch(gpu);
            for (Cycle c = 0; c < cycles; ++c) {
                fair.onCycle(gpu);
                gpu.step();
            }

            total++;
            if (r.allReached())
                met++;
            jain.add(fair.fairnessIndex());
            if (r.allReached())
                qos_nq.add(r.nonQosThroughput());

            sw.printf("%-10s+%-11s | %8.2f %8.2f %8.3f | %8s "
                      "%8.2f\n", k0.c_str(), k1.c_str(),
                      fair.progress(0), fair.progress(1),
                      fair.fairnessIndex(),
                      r.allReached() ? "yes" : "no",
                      r.nonQosThroughput());
        }
        sw.printf("\nmean Jain index (fairness mode): %.3f; QoS "
                  "mode met %d/%d goals with mean non-QoS "
                  "throughput %.2f\n", jain.mean(), met, total,
                  qos_nq.mean());
    });
    return 0;
}
