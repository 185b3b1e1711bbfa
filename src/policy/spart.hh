/**
 * @file
 * Spatial-partitioning QoS baseline ("Spart").
 *
 * Reimplements the coarse-grained comparison point of the paper:
 * QoS-aware dynamic resource allocation for spatial-multitasking
 * GPUs (Aguilera et al. [3]). Each SM runs exactly one kernel;
 * a hill-climbing controller moves whole SMs between kernels each
 * epoch: an under-goal QoS kernel takes an SM from the donor with
 * the most headroom, and a QoS kernel with comfortable margin
 * returns an SM to the non-QoS kernels. SM reassignment uses an
 * SM-granularity context switch (Tanasic et al. [37]).
 */

#ifndef GQOS_POLICY_SPART_HH
#define GQOS_POLICY_SPART_HH

#include <vector>

#include "policy/sharing_policy.hh"

namespace gqos
{

/**
 * Spatial partitioning with QoS-aware hill climbing.
 */
class SpartPolicy : public SharingPolicy
{
  public:
    SpartPolicy(std::vector<QosSpec> specs, Cycle epoch_length);

    void onLaunch(Gpu &gpu) override;
    void onCycle(Gpu &gpu) override;

    /** Purely time-driven: hill-climbs once per epoch. */
    Cycle
    nextControlAt(const Gpu &, Cycle now) const override
    {
        Cycle due = epochStart_ + epochLength_;
        return due <= now ? now : due;
    }

    std::string name() const override { return "spart"; }

    /** Current owner kernel of each SM (tests/reports). */
    const std::vector<int> &owners() const { return owner_; }

    /** Number of SMs currently owned by kernel @p k. */
    int smsOf(KernelId k) const;

  private:
    void assignSm(Gpu &gpu, SmId sm, KernelId k);
    void hillClimb(Gpu &gpu);
    int pickDonor(KernelId needy) const;

    std::vector<QosSpec> specs_;
    Cycle epochLength_;
    std::vector<int> qosIds_;
    std::vector<int> nonQosIds_;

    std::vector<int> owner_; //!< kernel owning each SM
    Cycle epochStart_ = 0;
    int epochIndex_ = 0;
    std::vector<std::uint64_t> instrAtEpochStart_;
    std::vector<double> ipcEpoch_;
};

} // namespace gqos

#endif // GQOS_POLICY_SPART_HH
