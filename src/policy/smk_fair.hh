/**
 * @file
 * SMK fairness policy (Wang et al., HPCA 2016 — the paper's
 * reference [42]).
 *
 * The QoS paper builds on SMK's fine-grained sharing and notes that
 * its quota machinery "is compatible with previous work to manage
 * fairness among sharer kernels ... which allows QoS and fairness
 * management to coexist. The GPU firmware can simply switch between
 * different policies" (Section 3.3). This policy is that other
 * mode: instead of differentiating kernels by goals, it equalizes
 * the *slowdown* of every kernel relative to isolated execution by
 * steering the same per-SM quota counters the QoS manager uses.
 */

#ifndef GQOS_POLICY_SMK_FAIR_HH
#define GQOS_POLICY_SMK_FAIR_HH

#include <vector>

#include "policy/sharing_policy.hh"

namespace gqos
{

/**
 * Fairness by slowdown equalization over EWS quotas.
 */
class SmkFairPolicy : public SharingPolicy
{
  public:
    /**
     * @param isolated_ipc per-kernel isolated IPC baselines
     *        (KernelId-indexed), used to normalize progress
     */
    SmkFairPolicy(std::vector<double> isolated_ipc,
                  Cycle epoch_length);

    void onLaunch(Gpu &gpu) override;
    void onCycle(Gpu &gpu) override;
    Cycle nextControlAt(const Gpu &gpu,
                        Cycle now) const override;
    std::string name() const override { return "smk-fair"; }

    /** Normalized progress of kernel @p k over the last epoch. */
    double progress(KernelId k) const;

    /**
     * Jain fairness index over the last epoch's normalized
     * progress: 1 = perfectly fair.
     */
    double fairnessIndex() const;

  private:
    void beginEpoch(Gpu &gpu);

    std::vector<double> isolatedIpc_;
    Cycle epochLength_;
    Cycle epochStart_ = 0;
    std::vector<std::uint64_t> instrAtEpochStart_;
    std::vector<double> progress_;
    std::vector<double> rateTarget_; //!< normalized rate quota
};

} // namespace gqos

#endif // GQOS_POLICY_SMK_FAIR_HH
