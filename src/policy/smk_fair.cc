/**
 * @file
 * SMK fairness policy implementation.
 */

#include "policy/smk_fair.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace gqos
{

namespace
{

/** Per-epoch multiplicative step toward the fair point. */
constexpr double gain = 0.5;
/** Quota headroom over the fair rate (keeps the GPU busy). */
constexpr double slack = 1.10;

/** The work-conserving refill: @p sm sits fully drained with work. */
bool
refillDue(const SmCore &sm)
{
    return sm.allQuotasExhausted() && sm.totalResidentTbs() > 0;
}

} // anonymous namespace

SmkFairPolicy::SmkFairPolicy(std::vector<double> isolated_ipc,
                             Cycle epoch_length)
    : isolatedIpc_(std::move(isolated_ipc)),
      epochLength_(epoch_length)
{
    for (double ipc : isolatedIpc_) {
        if (ipc <= 0.0)
            gqos_fatal("isolated IPC baselines must be positive");
    }
}

void
SmkFairPolicy::onLaunch(Gpu &gpu)
{
    int nk = gpu.numKernels();
    if (static_cast<std::size_t>(nk) != isolatedIpc_.size())
        gqos_fatal("baseline count (%zu) != kernel count (%d)",
                   isolatedIpc_.size(), nk);
    gpu.setQuotaGatingAll(true);

    // Even fine-grained TB split, like the SMK baseline.
    const GpuConfig &cfg = gpu.config();
    int share = cfg.maxThreadsPerSm / nk;
    for (int s = 0; s < gpu.numSms(); ++s) {
        for (int k = 0; k < nk; ++k) {
            const KernelDesc &d = gpu.kernelDesc(k);
            int t = std::max(1, share / d.threadsPerTb);
            gpu.setTbTarget(s, k, std::min(t, d.maxTbsPerSm(cfg)));
        }
    }

    instrAtEpochStart_.assign(nk, 0);
    progress_.assign(nk, 0.0);
    // Start from an optimistic equal rate; the loop walks it down
    // to what the machine can actually sustain fairly.
    rateTarget_.assign(nk, 1.0 / nk);
    beginEpoch(gpu);
}

void
SmkFairPolicy::beginEpoch(Gpu &gpu)
{
    Cycle now = gpu.now();
    Cycle window = now - epochStart_;
    int nk = gpu.numKernels();

    if (window > 0) {
        double min_rate = 1e18;
        for (int k = 0; k < nk; ++k) {
            std::uint64_t instr = gpu.threadInstrs(k);
            progress_[k] = static_cast<double>(
                instr - instrAtEpochStart_[k]) /
                window / isolatedIpc_[k];
            instrAtEpochStart_[k] = instr;
            min_rate = std::min(min_rate, progress_[k]);
        }
        // Move every kernel's rate target toward the slowest
        // sharer's achieved rate: kernels ahead get throttled,
        // freeing resources that lift the one behind.
        for (int k = 0; k < nk; ++k) {
            double target = rateTarget_[k] +
                gain * (min_rate - rateTarget_[k]);
            rateTarget_[k] = std::clamp(target, 1e-4, 1.0);
        }
    }

    for (int k = 0; k < nk; ++k) {
        double quota = rateTarget_[k] * slack *
                       isolatedIpc_[k] * epochLength_;
        int total_tbs = gpu.totalResidentTbs(k);
        for (int s = 0; s < gpu.numSms(); ++s) {
            double share = total_tbs > 0
                ? quota * gpu.residentTbs(s, k) / total_tbs
                : quota / gpu.numSms();
            SmCore &sm = gpu.sm(s);
            sm.setQuota(k, share + std::min(sm.quota(k), 0.0));
        }
    }
    epochStart_ = now;
}

void
SmkFairPolicy::onCycle(Gpu &gpu)
{
    Cycle now = gpu.now();
    if (now - epochStart_ >= epochLength_) {
        beginEpoch(gpu);
        return;
    }
    // Work-conserving: once every kernel drained its fair quota,
    // hand out another equal round instead of idling the SM.
    for (int s = 0; s < gpu.numSms(); ++s) {
        SmCore &sm = gpu.sm(s);
        if (!refillDue(sm))
            continue;
        for (int k = 0; k < gpu.numKernels(); ++k) {
            if (sm.residentTbs(k) > 0) {
                sm.addQuota(k, rateTarget_[k] * isolatedIpc_[k] *
                                   epochLength_ / gpu.numSms());
            }
        }
    }
}

Cycle
SmkFairPolicy::nextControlAt(const Gpu &gpu, Cycle now) const
{
    Cycle boundary = epochStart_ + epochLength_;
    if (now >= boundary)
        return now;
    // Quota counters are frozen when the machine is idle, so a
    // refill not due now stays undue until the boundary.
    for (int s = 0; s < gpu.numSms(); ++s) {
        if (refillDue(gpu.sm(s)))
            return now;
    }
    return boundary;
}

double
SmkFairPolicy::progress(KernelId k) const
{
    gqos_assert(k >= 0 &&
                k < static_cast<int>(progress_.size()));
    return progress_[k];
}

double
SmkFairPolicy::fairnessIndex() const
{
    double sum = 0.0, sum_sq = 0.0;
    for (double p : progress_) {
        sum += p;
        sum_sq += p * p;
    }
    if (sum_sq <= 0.0)
        return 1.0;
    double n = static_cast<double>(progress_.size());
    return (sum * sum) / (n * sum_sq);
}

} // namespace gqos
