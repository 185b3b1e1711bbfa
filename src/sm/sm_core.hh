/**
 * @file
 * Streaming-multiprocessor core model.
 *
 * Executes warps of co-resident thread blocks from multiple kernels
 * (fine-grained / SMK sharing). Implements the paper's Enhanced Warp
 * Scheduler: the baseline GTO policy is applied unmodified, but a
 * kernel whose per-SM quota counter is exhausted is excluded from
 * candidate selection (Section 3.3).
 */

#ifndef GQOS_SM_SM_CORE_HH
#define GQOS_SM_SM_CORE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "arch/gpu_config.hh"
#include "arch/types.hh"
#include "common/logging.hh"
#include "mem/mem_system.hh"
#include "sm/kernel_run.hh"
#include "sm/scheduler.hh"
#include "sm/warp.hh"
#include "telemetry/cycle_accounting.hh"

namespace gqos
{

/** Why a TB left the SM. */
enum class TbExit : std::uint8_t
{
    Completed, //!< ran to completion
    Preempted  //!< evicted by a partial context switch
};

/** Per-SM, per-kernel execution statistics. */
struct SmKernelStats
{
    std::uint64_t threadInstrs = 0; //!< lanes executed (IPC metric)
    std::uint64_t warpInstrs = 0;
    std::uint64_t iwSampleSum = 0;  //!< idle-warp sample accumulator
    std::uint32_t iwSamples = 0;
    std::uint64_t gatedCycles = 0;  //!< cycles spent quota-gated
    /**
     * Mid-epoch quota additions (refill grants and Rollover-Time
     * releases). Lifetime-monotonic: not cleared at epoch
     * boundaries, consumers snapshot and diff.
     */
    std::uint64_t quotaRefills = 0;
};

/** Per-SM activity statistics (power model inputs). */
struct SmStats
{
    std::uint64_t cycles = 0;
    std::uint64_t activeCycles = 0; //!< cycles with >= 1 issue
    std::uint64_t issuedAlu = 0;
    std::uint64_t issuedSfu = 0;
    std::uint64_t issuedSmem = 0;
    std::uint64_t issuedLoads = 0;
    std::uint64_t issuedStores = 0;
    std::uint64_t preemptions = 0;
};

/**
 * One SM: warp contexts, TB slots, warp schedulers, LSU port and
 * MSHR accounting, plus the EWS quota counters.
 */
class SmCore
{
  public:
    /** Callback invoked when a TB leaves the SM. */
    using TbEventFn =
        std::function<void(SmId, KernelId, TbExit)>;

    SmCore(const GpuConfig &cfg, SmId id, MemSystem &mem);

    /** Bind the co-run's kernels; index in @p runs is the KernelId. */
    void bindKernels(const std::vector<const KernelRun *> &runs);

    /** Register the TB-exit callback (TB scheduler). */
    void setTbEventCallback(TbEventFn fn) { tbEvent_ = std::move(fn); }

    // ---- TB lifecycle ----

    /** True if a TB of kernel @p k fits right now. */
    bool canAccept(KernelId k) const;

    /**
     * Dispatch one TB of kernel @p k.
     * @param tb_seq global dispatch sequence number (issue age)
     * @param launch_pos TB index within the kernel's launch (grid
     *        position; selects the instruction stream & intensity)
     * @return false if it does not fit
     */
    bool dispatchTb(KernelId k, std::uint64_t tb_seq,
                    std::uint64_t launch_pos, Cycle now);

    /**
     * Begin a partial context switch evicting one TB of kernel
     * @p k (the youngest resident TB). The TB-exit callback fires
     * when the context transfer completes.
     * @return false if no evictable TB exists
     */
    bool startPreemption(KernelId k, Cycle now);

    /** Evict every resident TB (SM-granularity context switch). */
    void preemptAll(Cycle now);

    /** True while any context switch is in flight (Section 3.6). */
    bool preemptionPending() const { return !drains_.empty(); }

    // ---- execution ----

    /**
     * Advance one core cycle.
     * @param sample_iw record an idle-warp sample this cycle
     * @param next_event when non-null and no instruction issued,
     *        receives nextEventAt(now + 1): the blocked-candidate
     *        facts this cycle's arbitration already derived go
     *        through the same eventBound() that nextEventAt() uses.
     *        Untouched when the SM issued.
     * @return true if any scheduler issued an instruction
     */
    bool cycle(Cycle now, bool sample_iw,
               Cycle *next_event = nullptr);

    // ---- event-engine control points ----

    /**
     * Earliest cycle >= @p now at which this SM might do real work:
     * issue an instruction, process a wake/drain/MSHR release, or
     * change any idle-warp sampling input. Returning @p now means
     * "step me this cycle"; cycleNever means the SM is fully inert
     * until external input (a dispatch or a quota change) arrives.
     *
     * The contract backing the event engine's bit-identity claim:
     * if nextEventAt(now) == X > now, then running cycle() for
     * every cycle in [now, X) would change nothing except the
     * pure-function-of-time counters that skipCycles() batch-applies
     * (cycles, epochCycles_, gated cycles, idle-warp samples, and
     * the schedulers' greedy hints, which a no-candidate cycle
     * resets to -1 anyway).
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * Batch-account @p span cycles starting at @p now that
     * nextEventAt() proved inert, including @p samples idle-warp
     * sampling points falling inside the span. Must only be called
     * when nextEventAt(now) >= now + span.
     *
     * The samples are taken at once: every sampling input (ready
     * and class masks, the quota mask, MSHR credits, and the store
     * throttle at @p now) is frozen across the span, none of them is
     * owed accounting, and the LSU is never full on a no-issue
     * cycle. The span itself only joins the owed count: its cycles,
     * gated cycles and attribution are settled lazily, once per
     * inert stretch. Every reader of an owed counter and every
     * external mutator settles first, so no observer sees a stale
     * view, and the state a settlement classifies is the one every
     * owed cycle saw.
     */
    void
    skipCycles(Cycle now, Cycle span, Cycle samples)
    {
        gqos_assert(span >= 1);
        deferredInert_ += span;
        if (samples > 0)
            sampleIdleWarps(allowedKernels(), false,
                            storeThrottled(now), samples);
    }

    /**
     * External-mutation version, for the event engine's per-SM
     * inertia cache (Gpu::step(event_aware)). Bumped by every
     * mutation arriving from outside cycle() that can change this
     * SM's inertness: TB dispatch, preemption start, quota updates
     * and gating toggles. A nextEventAt() bound computed at version
     * V stays valid while mutVersion() == V (internal evolution --
     * wakes, drains, MSHR releases -- is exactly what the bound
     * accounts for, and cross-SM interconnect traffic can only
     * delay a store-throttle unblock, never advance an event).
     */
    std::uint64_t mutVersion() const { return mutVersion_; }

    // ---- EWS quota interface ----

    /** Enable/disable quota gating (off = plain GTO sharing). */
    void setQuotaGating(bool on);
    bool quotaGating() const { return quotaGating_; }

    void setQuota(KernelId k, double q);
    void addQuota(KernelId k, double q);
    double quota(KernelId k) const;

    /**
     * True if every kernel with resident TBs has a non-positive
     * quota counter (the mid-epoch refill condition, Section 3.4.1).
     */
    bool
    allQuotasExhausted() const
    {
        return (residentKernels_ & quotaPositive_) == 0;
    }

    /** Kernels with resident TBs here (bit k: kernel k). */
    std::uint32_t residentKernels() const { return residentKernels_; }
    /** Kernels whose quota counter here is positive. */
    std::uint32_t quotaPositiveKernels() const { return quotaPositive_; }

    // ---- occupancy / resources ----

    int residentTbs(KernelId k) const;
    int residentWarps(KernelId k) const;
    int totalResidentTbs() const;
    int freeThreads() const { return maxThreads_ - threadsUsed_; }
    int threadsUsed() const { return threadsUsed_; }
    int numKernels() const { return static_cast<int>(runs_.size()); }

    // ---- cycle attribution (telemetry/cycle_accounting.hh) ----

    /**
     * Enable the cycle-attribution profiler. Must be called before
     * the SM's first cycle so the conservation invariant (every
     * category sum telescopes to stats().cycles) holds from cycle 0.
     * Off by default; the off path costs one predictable branch per
     * cycle and per issue.
     */
    void setCycleAccounting(bool on);
    bool cycleAccounting() const { return accounting_; }

    /**
     * Attribution counters of kernel @p k on this SM. With
     * accounting enabled, the categories of every bound kernel sum
     * exactly to stats().cycles — on both stepping engines.
     */
    const CycleBreakdown &
    cycleBreakdown(KernelId k) const
    {
        settle();
        return kernels_[k].breakdown;
    }

    // ---- statistics ----

    const SmKernelStats &kernelStats(KernelId k) const;
    /**
     * kernelStats(k).threadInstrs without settling: owed inert
     * cycles retire nothing, so control loops that poll progress do
     * not force a settlement per poll.
     */
    std::uint64_t
    threadInstrs(KernelId k) const
    {
        gqos_assert(k >= 0 && k < maxKernels);
        return kernels_[k].stats.threadInstrs;
    }
    const SmStats &
    stats() const
    {
        settle();
        return stats_;
    }

    /** Average idle warps of @p k over samples since last reset. */
    double iwAverage(KernelId k) const;

    /**
     * Fraction of cycles since the last sample reset that kernel
     * @p k spent with an exhausted quota (EWS-gated).
     */
    double gatedFraction(KernelId k) const;

    /** Clear per-epoch idle-warp/gating samples (epoch boundary). */
    void resetIwSamples();

    SmId id() const { return id_; }

    /**
     * Check the incrementally kept issue state against a
     * from-scratch derivation (DESIGN.md section 11, "Issue state"):
     * every Live warp is either ready or has exactly one wheel bit,
     * in the bucket of its wake cycle; other warps have neither; the
     * wheel occupancy bitmap and far-lane flags are exact; the
     * resident, quota-positive and draining kernel masks match the
     * per-kernel counts; the cached gate masks (unless an event has
     * marked them for refresh) and the age ranks match the warps.
     * For tests; the simulator never calls it.
     * @return empty if consistent, else the first violation found
     */
    std::string checkIssueState() const;

  private:
    struct KernelCtx
    {
        const KernelRun *run = nullptr;
        double quota = 0.0;
        int residentTbs = 0;
        int residentWarps = 0;
        int drainingTbs = 0; //!< TBs mid context-switch drain
        int mshrHeld = 0; //!< outstanding L1 misses of this kernel
        SmKernelStats stats;
        CycleBreakdown breakdown; //!< cycle attribution (if enabled)
    };

    struct Drain
    {
        Cycle finishAt;
        std::int16_t slot;
    };

    /**
     * Wake-wheel buckets. A power of two; large enough that the
     * clamp in scheduleWake() fires on under 0.5% of wakes in the
     * Figure-6 sweeps (DESIGN.md section 11).
     */
    static constexpr int wakeRingSize_ = 1024;

    int schedOf(int warp_slot) const
    {
        return warp_slot % numScheds_;
    }
    int laneOf(int warp_slot) const
    {
        return warp_slot / numScheds_;
    }
    int slotOf(int sched, int lane) const
    {
        return lane * numScheds_ + sched;
    }

    // Decisions shared by cycle() and the skip path, so a skipped
    // cycle is decided by the code a stepped one runs. The hot ones
    // are inline (defined in sm_core.cc ahead of their callers): at
    // -O2 GCC would otherwise leave them as calls on the per-cycle
    // path.

    /**
     * The EWS quota mask (kernels allowed to issue). First refreshes
     * every cached gate mask -- this, gatedKernels_, mshrCap_ and
     * each scheduler's allowed / mshrBlocked lanes -- if an event
     * marked them stale. Read only at the top of a cycle and on the
     * skip path, so the masks are a top-of-cycle snapshot: a quota
     * decrement or MSHR claim made by an issue takes effect next
     * cycle. Logically const, like settle().
     */
    std::uint32_t
    allowedKernels() const
    {
        if (gatesDirty_)
            const_cast<SmCore *>(this)->recomputeGates();
        return allowedKernels_;
    }
    void recomputeGates();
    /** The candidates the LSU, MSHRs and store throttle let issue. */
    inline std::uint64_t issuable(const SchedulerState &sc,
                                  std::uint64_t cand,
                                  bool lsu_free,
                                  bool store_blocked) const;
    /**
     * Earliest cycle >= @p at at which a no-issue SM can change (a
     * wake, drain, MSHR release or icnt unblock); @p at if due.
     */
    inline Cycle eventBound(Cycle at, bool load_blocked,
                            bool store_blocked) const;
    /** Kernels with a ready warp / a ready non-memory warp. */
    inline void readyFacts(std::uint32_t &ready,
                           std::uint32_t &nonmem) const;
    /**
     * Attribute @p span cycles to every bound kernel, from the facts
     * the issue arbiter derived: the kernels that @p issued, the EWS
     * quota mask @p allowed, and the kernels with a @p ready / ready
     * non-memory (@p nonmem) warp before arbitration. A pure function
     * of frozen state on inert cycles.
     */
    inline void attribute(std::uint32_t issued, std::uint32_t allowed,
                          std::uint32_t ready, std::uint32_t nonmem,
                          Cycle span);
    inline void addGatedCycles(Cycle span);
    void sampleIdleWarps(std::uint32_t allowed, bool lsu_full,
                         bool store_blocked, Cycle samples);

    /** Apply the owed accounting of an inert span (no samples). */
    void applyInertSpan(Cycle span);
    /**
     * Settle any deferred inert cycles. Logically const: it only
     * materializes accounting the SM already owes.
     */
    void
    settle() const
    {
        if (deferredInert_ > 0) {
            auto *self = const_cast<SmCore *>(this);
            self->applyInertSpan(std::exchange(self->deferredInert_, 0));
        }
    }

    void rebuildAgeOrder(int sched);
    Cycle nextWakeFrom(Cycle at) const;
    bool storeThrottled(Cycle now) const;
    /** Put the warp's wake for its readyAt on the wheel. */
    void scheduleWake(int warp_slot, Cycle now);
    /** Take a waiting warp's pending wake off the wheel. */
    void cancelWake(int warp_slot);
    void processWakes(Cycle now);
    void processDrains(Cycle now);
    /** Decode the warp's next instruction and set its class masks. */
    void generateNext(int warp_slot);
    void issueWarp(int warp_slot, Cycle now);
    /** Retire, then finish the warp or fetch its next instruction. */
    inline void retireInstr(int warp_slot, Cycle ready_at, Cycle now);
    inline void rearbitrate(int warp_slot, Cycle now);
    void finishWarp(int warp_slot);
    void freeTb(int tb_slot, TbExit exit);
    Addr genAddress(Warp &w, const PhaseRt &ph,
                    const KernelRun &run);

    // configuration (copied for locality)
    SmId id_;
    int numScheds_;
    int maxWarps_;
    int maxThreads_;
    int maxTbSlots_;
    int regsTotal_;
    int smemTotal_;
    int lsuPorts_;
    int mshrMax_;
    int sfuLatency_;
    int drainCycles_;
    int schedMask_; //!< numScheds_ - 1 if a power of two, else -1
    bool chargePreemptTraffic_;
    SchedPolicy policy_;

    MemSystem *mem_;
    std::vector<const KernelRun *> runs_;
    std::array<KernelCtx, maxKernels> kernels_;
    std::vector<Warp> warps_;
    std::vector<TbSlot> tbs_;
    std::vector<SchedulerState> scheds_;

    // resources
    int threadsUsed_ = 0;
    int regsUsed_ = 0;
    int smemUsed_ = 0;
    int tbSlotsUsed_ = 0;

    // wake machinery
    /**
     * Bitmask timing wheel: word [bucket * numScheds_ + sched] holds
     * the lanes of @c sched with a pending wake in that bucket. Every
     * bit is live: each waiting warp has exactly one, preemption
     * cancels it, and processWakes() ORs a bucket's words straight
     * into the schedulers' ready masks.
     */
    std::vector<std::uint64_t> wakeWheel_;
    /** Wake cycle per warp slot; meaningful while the warp waits. */
    std::vector<Cycle> wakeAt_;
    /**
     * Per scheduler: lanes whose pending wake was clamped to one
     * revolution ahead, short of their readyAt; processWakes()
     * re-checks only these.
     */
    std::vector<std::uint64_t> farLanes_;
    /**
     * Occupancy bitmap over the wheel: bit i set iff some word of
     * bucket i is nonzero. Turns nextEventAt()'s next-nonempty-
     * bucket scan into a word-at-a-time search.
     */
    std::array<std::uint64_t, wakeRingSize_ / 64> wakeBits_{};

    // MSHR release queue: (completion cycle, owning kernel). When
    // kernels share an SM, each kernel's in-flight misses are capped
    // below the pool size so one memory-intensive kernel cannot
    // permanently monopolize the MSHRs and starve the loads of its
    // co-resident kernels.
    std::priority_queue<std::pair<Cycle, KernelId>,
                        std::vector<std::pair<Cycle, KernelId>>,
                        std::greater<>> mshrRelease_;
    int mshrFree_;

    std::vector<Drain> drains_;

    // cached gate masks: see allowedKernels()
    std::uint32_t allowedKernels_ = 0;
    /** Kernels resident and quota-gated (gated-cycle accounting). */
    std::uint32_t gatedKernels_ = 0;
    /** Per-kernel MSHR cap: at this many misses a kernel's loads wait. */
    int mshrCap_ = 0;
    /**
     * Set by every event that can change a cached gate mask: a quota
     * crossing zero, setQuota/addQuota/setQuotaGating, bindKernels,
     * TB dispatch and free, and a kernel's MSHR count crossing
     * mshrCap_.
     */
    bool gatesDirty_ = true;

    // Kernel masks (bit k: kernel k), exact at all times
    /** Bound kernels: one bit per co-run kernel. */
    std::uint32_t boundKernels_ = 0;
    /** Kernels with resident TBs: set at dispatch, cleared at the last free. */
    std::uint32_t residentKernels_ = 0;
    /**
     * Kernels whose quota counter is positive: setQuota, addQuota,
     * and a retire that takes the counter to zero or below.
     */
    std::uint32_t quotaPositive_ = 0;
    /** Kernels with a TB draining: set at preemption, cleared at free. */
    std::uint32_t drainingKernels_ = 0;

    bool quotaGating_ = false;
    bool accounting_ = false; //!< cycle-attribution profiler on
    Cycle epochCycles_ = 0; //!< cycles since last sample reset
    std::uint64_t mutVersion_ = 0; //!< see mutVersion()
    Cycle deferredInert_ = 0; //!< owed inert cycles, see skipCycles()

    SmStats stats_;
    TbEventFn tbEvent_;
};

} // namespace gqos

#endif // GQOS_SM_SM_CORE_HH
