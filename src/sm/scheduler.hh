/**
 * @file
 * Per-warp-scheduler state and the GTO/LRR pick policies.
 *
 * Each SM has several warp schedulers; warp slot w belongs to
 * scheduler (w % numSchedulers) with local lane (w / numSchedulers),
 * modelling the hardware's equal distribution of warps to
 * schedulers. All sets are 64-bit masks over local lanes.
 */

#ifndef GQOS_SM_SCHEDULER_HH
#define GQOS_SM_SCHEDULER_HH

#include <cstdint>

#include "arch/gpu_config.hh"
#include "arch/types.hh"
#include "common/bitops.hh"

namespace gqos
{

/** Age rank of a lane that holds no warp (older than none). */
constexpr std::uint8_t noAgeRank = 0xFF;

/**
 * State of one warp scheduler (one issue port). The SM keeps every
 * mask exact by updating it at the events that change it (DESIGN.md
 * section 11, "Issue state"), so a cycle's arbitration is a few word
 * operations.
 */
struct SchedulerState
{
    std::uint64_t ready = 0;     //!< lanes with an issuable warp
    /**
     * Lanes whose decoded next instruction is a global load / store.
     * Written when the instruction is decoded and read only under
     * @c ready, so lanes that are not ready may hold stale bits.
     */
    std::uint64_t loadMask = 0;
    std::uint64_t storeMask = 0;
    /** Lanes belonging to each kernel (for EWS quota gating). */
    std::uint64_t kernelMask[maxKernels] = {};
    /** Lanes of kernels the EWS quota mask admits (cached). */
    std::uint64_t allowed = 0;
    /** Lanes of kernels at their per-kernel MSHR cap (cached). */
    std::uint64_t mshrBlocked = 0;
    /**
     * Age rank of each lane: 0 for the oldest occupied lane, then
     * dispatch order; noAgeRank for an empty lane. Rebuilt only when
     * warps enter or leave the scheduler.
     */
    std::uint8_t ageRank[64] = {};
    int lastIssued = -1;         //!< lane of last issue (GTO greedy)
};

/**
 * Rank @p sched's lanes by the @p count lanes listed oldest first in
 * @p lanes; lanes not listed get noAgeRank.
 */
inline void
setAgeOrder(SchedulerState &sched, const std::uint8_t *lanes, int count)
{
    for (std::uint8_t &r : sched.ageRank)
        r = noAgeRank;
    for (int i = 0; i < count; ++i)
        sched.ageRank[lanes[i]] = static_cast<std::uint8_t>(i);
}

/**
 * Pick a lane from @p candidates using greedy-then-oldest: the last
 * issued lane if it is a candidate, else the candidate of lowest age
 * rank.
 *
 * @param sched scheduler state (greedy hint + age ranks)
 * @param candidates non-zero mask of issuable lanes
 * @return chosen lane, or -1 if no candidate has an age rank
 */
inline int
pickGto(const SchedulerState &sched, std::uint64_t candidates)
{
    if (sched.lastIssued >= 0 &&
        testBit(candidates, sched.lastIssued)) {
        return sched.lastIssued;
    }
    int best = -1;
    int best_rank = noAgeRank;
    for (; candidates; candidates &= candidates - 1) {
        int lane = firstSetBit(candidates);
        int rank = sched.ageRank[lane];
        if (rank < best_rank) {
            best_rank = rank;
            best = lane;
        }
    }
    return best;
}

/**
 * Pick a lane using loose round-robin: the first candidate after the
 * previously issued lane.
 */
inline int
pickLrr(const SchedulerState &sched, std::uint64_t candidates)
{
    int start = sched.lastIssued + 1;
    if (start >= 64)
        start = 0;
    std::uint64_t rotated = (candidates >> start) |
        (start ? (candidates << (64 - start)) : 0);
    if (!rotated)
        return -1;
    int off = firstSetBit(rotated);
    return (start + off) & 63;
}

} // namespace gqos

#endif // GQOS_SM_SCHEDULER_HH
