/**
 * @file
 * SM core implementation.
 */

#include "sm/sm_core.hh"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace gqos
{

namespace
{

/** Max memory transactions one warp issues per cycle (LSU width). */
constexpr int lsuBurst = 4;

/** Store issue is throttled once the icnt backlog exceeds this. */
constexpr double storeThrottleBacklog = 256.0;

/** TB dispatch-to-first-issue latency. */
constexpr Cycle tbDispatchLatency = 30;

/** MSHR credits kept reachable per co-resident kernel. */
constexpr int mshrReserve = 2;

} // anonymous namespace

SmCore::SmCore(const GpuConfig &cfg, SmId id, MemSystem &mem)
    : id_(id),
      numScheds_(cfg.warpSchedulersPerSm),
      maxWarps_(cfg.maxWarpsPerSm()),
      maxThreads_(cfg.maxThreadsPerSm),
      maxTbSlots_(cfg.maxTbsPerSm),
      regsTotal_(cfg.regsPerSm()),
      smemTotal_(cfg.sharedMemBytes),
      lsuPorts_(cfg.lsuPortsPerSm),
      mshrMax_(cfg.l1Mshrs),
      sfuLatency_(cfg.sfuLatency),
      drainCycles_(cfg.preemptDrainCycles),
      schedMask_(std::has_single_bit(
                     static_cast<unsigned>(cfg.warpSchedulersPerSm))
                     ? cfg.warpSchedulersPerSm - 1
                     : -1),
      chargePreemptTraffic_(cfg.chargePreemptTraffic),
      policy_(cfg.schedPolicy),
      mem_(&mem),
      warps_(cfg.maxWarpsPerSm()),
      tbs_(cfg.maxTbsPerSm),
      scheds_(cfg.warpSchedulersPerSm),
      wakeWheel_(static_cast<std::size_t>(wakeRingSize_) *
                 cfg.warpSchedulersPerSm),
      wakeAt_(cfg.maxWarpsPerSm(), cycleNever),
      farLanes_(cfg.warpSchedulersPerSm),
      mshrFree_(cfg.l1Mshrs)
{
}

void
SmCore::bindKernels(const std::vector<const KernelRun *> &runs)
{
    gqos_assert(static_cast<int>(runs.size()) <= maxKernels);
    gqos_assert(totalResidentTbs() == 0);
    settle();
    mutVersion_++;
    gatesDirty_ = true;
    runs_ = runs;
    for (auto &kc : kernels_)
        kc = KernelCtx();
    for (std::size_t k = 0; k < runs_.size(); ++k) {
        gqos_assert(runs_[k] != nullptr);
        gqos_assert(runs_[k]->id() == static_cast<KernelId>(k));
        kernels_[k].run = runs_[k];
    }
}

// ---------------------------------------------------------------
// TB lifecycle
// ---------------------------------------------------------------

bool
SmCore::canAccept(KernelId k) const
{
    if (k < 0 || k >= static_cast<int>(runs_.size()))
        return false;
    const KernelDesc &d = runs_[k]->desc();
    if (tbSlotsUsed_ >= maxTbSlots_)
        return false;
    if (threadsUsed_ + d.threadsPerTb > maxThreads_)
        return false;
    if (regsUsed_ + d.regsPerTb() > regsTotal_)
        return false;
    if (smemUsed_ + d.smemPerTb > smemTotal_)
        return false;
    return true;
}

bool
SmCore::dispatchTb(KernelId k, std::uint64_t tb_seq,
                   std::uint64_t launch_pos, Cycle now)
{
    if (!canAccept(k))
        return false;
    settle();
    mutVersion_++;
    gatesDirty_ = true;
    const KernelRun &run = *runs_[k];
    const KernelDesc &d = run.desc();
    int warps_needed = d.warpsPerTb();

    int tb_slot = -1;
    for (int i = 0; i < maxTbSlots_; ++i) {
        if (!tbs_[i].valid) {
            tb_slot = i;
            break;
        }
    }
    gqos_assert(tb_slot >= 0);

    TbSlot &tb = tbs_[tb_slot];
    tb.warpSlots.clear();
    tb.kernel = k;
    tb.warpsTotal = static_cast<std::int16_t>(warps_needed);
    tb.warpsFinished = 0;
    tb.tbSeq = tb_seq;
    tb.valid = true;
    tb.draining = false;

    int found = 0;
    for (int wslot = 0; wslot < maxWarps_ && found < warps_needed;
         ++wslot) {
        Warp &w = warps_[wslot];
        if (w.state != WarpState::Invalid)
            continue;
        tb.warpSlots.push_back(static_cast<std::int16_t>(wslot));
        w = Warp();
        w.kernel = k;
        w.tbSlot = static_cast<std::int16_t>(tb_slot);
        w.age = tb_seq * 64 + found;
        w.rng.reseed(run.warpSeed(launch_pos, found));
        w.intensity =
            static_cast<float>(run.tbIntensity(launch_pos));
        std::uint64_t sid = (tb_seq *
            static_cast<std::uint64_t>(warps_needed) + found) &
            0xFFFFull;
        w.coldBase = run.coldBase() + (sid << 20);
        w.state = WarpState::Live;
        generateNext(wslot);
        w.readyAt = now + tbDispatchLatency;
        SchedulerState &sc = scheds_[schedOf(wslot)];
        sc.kernelMask[k] = setBit(sc.kernelMask[k], laneOf(wslot));
        scheduleWake(wslot, now);
        found++;
    }
    gqos_assert(found == warps_needed);

    threadsUsed_ += d.threadsPerTb;
    regsUsed_ += d.regsPerTb();
    smemUsed_ += d.smemPerTb;
    tbSlotsUsed_++;
    kernels_[k].residentTbs++;
    kernels_[k].residentWarps += warps_needed;
    for (int s = 0; s < numScheds_; ++s)
        rebuildAgeOrder(s);
    return true;
}

bool
SmCore::startPreemption(KernelId k, Cycle now)
{
    int victim = -1;
    std::uint64_t newest = 0;
    for (int i = 0; i < maxTbSlots_; ++i) {
        const TbSlot &tb = tbs_[i];
        if (tb.valid && !tb.draining && tb.kernel == k &&
            (victim < 0 || tb.tbSeq > newest)) {
            victim = i;
            newest = tb.tbSeq;
        }
    }
    if (victim < 0)
        return false;
    settle();
    mutVersion_++;

    TbSlot &tb = tbs_[victim];
    tb.draining = true;
    kernels_[k].drainingTbs++;
    for (int wslot : tb.warpSlots) {
        Warp &w = warps_[wslot];
        if (w.state != WarpState::Live)
            continue;
        w.state = WarpState::Draining;
        SchedulerState &sc = scheds_[schedOf(wslot)];
        if (testBit(sc.ready, laneOf(wslot)))
            sc.ready = clearBit(sc.ready, laneOf(wslot));
        else
            cancelWake(wslot);
    }

    Cycle finish = now + drainCycles_;
    if (chargePreemptTraffic_) {
        const KernelDesc &d = runs_[k]->desc();
        Cycle t = mem_->injectContextTraffic(
            id_, d.contextBytesPerTb(), now);
        if (t > finish)
            finish = t;
    }
    drains_.push_back({finish, static_cast<std::int16_t>(victim)});
    stats_.preemptions++;
    return true;
}

void
SmCore::preemptAll(Cycle now)
{
    for (int i = 0; i < maxTbSlots_; ++i) {
        if (tbs_[i].valid && !tbs_[i].draining)
            startPreemption(tbs_[i].kernel, now);
    }
}

void
SmCore::processDrains(Cycle now)
{
    for (std::size_t i = 0; i < drains_.size();) {
        if (drains_[i].finishAt <= now) {
            int slot = drains_[i].slot;
            drains_[i] = drains_.back();
            drains_.pop_back();
            freeTb(slot, TbExit::Preempted);
        } else {
            ++i;
        }
    }
}

void
SmCore::freeTb(int tb_slot, TbExit exit)
{
    TbSlot &tb = tbs_[tb_slot];
    gqos_assert(tb.valid);
    KernelId k = tb.kernel;
    KernelCtx &kc = kernels_[k];
    const KernelDesc &d = kc.run->desc();

    // Every warp is Finished or Draining: none is ready or waiting.
    for (int wslot : tb.warpSlots) {
        warps_[wslot].state = WarpState::Invalid;
        SchedulerState &sc = scheds_[schedOf(wslot)];
        sc.kernelMask[k] = clearBit(sc.kernelMask[k], laneOf(wslot));
    }
    gatesDirty_ = true;
    bool was_draining = tb.draining;
    tb.valid = false;
    tb.draining = false;

    threadsUsed_ -= d.threadsPerTb;
    regsUsed_ -= d.regsPerTb();
    smemUsed_ -= d.smemPerTb;
    tbSlotsUsed_--;
    kc.residentTbs--;
    kc.residentWarps -= d.warpsPerTb();
    if (was_draining)
        kc.drainingTbs--;
    gqos_assert(kc.residentTbs >= 0 && threadsUsed_ >= 0 &&
                kc.drainingTbs >= 0);

    for (int s = 0; s < numScheds_; ++s)
        rebuildAgeOrder(s);

    if (kc.residentTbs == 0)
        mem_->invalidateKernelL1(id_, k);

    if (tbEvent_)
        tbEvent_(id_, k, exit);
}

// ---------------------------------------------------------------
// Wake machinery
// ---------------------------------------------------------------

void
SmCore::rebuildAgeOrder(int sched)
{
    std::uint8_t order[64];
    int count = 0;
    for (int lane = 0; lane < maxWarps_ / numScheds_; ++lane) {
        int slot = slotOf(sched, lane);
        if (warps_[slot].state != WarpState::Invalid)
            order[count++] = static_cast<std::uint8_t>(lane);
    }
    // Insertion sort by warp age (oldest first); count <= 64 and
    // rebuilds only happen on TB dispatch/free.
    for (int i = 1; i < count; ++i) {
        std::uint8_t lane = order[i];
        std::uint64_t a = warps_[slotOf(sched, lane)].age;
        int j = i - 1;
        while (j >= 0 && warps_[slotOf(sched, order[j])].age > a) {
            order[j + 1] = order[j];
            j--;
        }
        order[j + 1] = lane;
    }
    setAgeOrder(scheds_[sched], order, count);
}

void
SmCore::scheduleWake(int warp_slot, Cycle now)
{
    // Keep every wake inside one wheel revolution (and after the
    // current cycle, whose bucket is already processed). A wake
    // clamped short of its readyAt is flagged far, so processWakes()
    // re-checks it and wakes it again further on.
    int sched = schedOf(warp_slot);
    std::uint64_t lane_bit = std::uint64_t{1} << laneOf(warp_slot);
    Cycle at = warps_[warp_slot].readyAt;
    if (at >= now + wakeRingSize_) {
        at = now + wakeRingSize_ - 1;
        farLanes_[sched] |= lane_bit;
    } else if (at <= now) {
        at = now + 1;
    }
    wakeAt_[warp_slot] = at;
    std::size_t idx = at & (wakeRingSize_ - 1);
    wakeWheel_[idx * numScheds_ + sched] |= lane_bit;
    wakeBits_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
}

void
SmCore::cancelWake(int warp_slot)
{
    int sched = schedOf(warp_slot);
    std::uint64_t lane_bit = std::uint64_t{1} << laneOf(warp_slot);
    std::size_t idx = wakeAt_[warp_slot] & (wakeRingSize_ - 1);
    std::uint64_t *words = &wakeWheel_[idx * numScheds_];
    words[sched] &= ~lane_bit;
    farLanes_[sched] &= ~lane_bit;
    if (std::all_of(words, words + numScheds_,
                    [](std::uint64_t w) { return w == 0; }))
        wakeBits_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
}

void
SmCore::processWakes(Cycle now)
{
    std::size_t idx = now & (wakeRingSize_ - 1);
    std::uint64_t bit = std::uint64_t{1} << (idx & 63);
    if (!(wakeBits_[idx >> 6] & bit))
        return;
    // Re-wakes below always land in a different bucket (clamped to
    // (now, now + ring size)), so clearing this bucket first is
    // safe.
    wakeBits_[idx >> 6] &= ~bit;
    std::uint64_t *words = &wakeWheel_[idx * numScheds_];
    for (int s = 0; s < numScheds_; ++s) {
        std::uint64_t lanes = std::exchange(words[s], 0);
        std::uint64_t far = lanes & farLanes_[s];
        scheds_[s].ready |= lanes & ~far;
        if (!far)
            continue;
        farLanes_[s] &= ~far;
        for (; far; far &= far - 1) {
            int lane = std::countr_zero(far);
            int slot = slotOf(s, lane);
            if (warps_[slot].readyAt <= now)
                scheds_[s].ready = setBit(scheds_[s].ready, lane);
            else
                scheduleWake(slot, now);
        }
    }
}

// ---------------------------------------------------------------
// Execution
// ---------------------------------------------------------------

void
SmCore::generateNext(int warp_slot)
{
    Warp &w = warps_[warp_slot];
    const KernelRun &run = *kernels_[w.kernel].run;
    while (w.phaseIdx + 1 < run.numPhases() &&
           w.instrIdx >= run.phaseEnd(w.phaseIdx)) {
        w.phaseIdx++;
    }
    const PhaseRt &ph = run.phase(w.phaseIdx);
    NextInstr ni;
    ni.lanes = static_cast<std::uint8_t>(ph.lanes);
    // Grid-position intensity scales the memory ratio and the ALU
    // dependency latency (KernelDesc::tbVariance).
    double mem_thresh = ph.memThresh * w.intensity;
    if (mem_thresh > 0.95)
        mem_thresh = 0.95;
    double shift = mem_thresh - ph.memThresh;
    double u = w.rng.uniform();
    if (u < mem_thresh) {
        bool store = w.rng.uniform() < ph.storeFraction;
        int trans = ph.transBase +
            (w.rng.uniform() < ph.transFrac ? 1 : 0);
        ni.cls = store ? InstrClass::GlobalStore
                       : InstrClass::GlobalLoad;
        ni.transLeft = static_cast<std::uint8_t>(trans);
        ni.latency = 1;
    } else if (u < ph.sharedThresh + shift) {
        ni.cls = InstrClass::SharedMem;
        ni.latency = static_cast<std::uint16_t>(ph.smemLatency);
    } else if (u < ph.sfuThresh + shift) {
        ni.cls = InstrClass::Sfu;
        ni.latency = static_cast<std::uint16_t>(sfuLatency_);
    } else {
        ni.cls = InstrClass::Alu;
        ni.latency = static_cast<std::uint16_t>(
            ph.aluLatency * w.intensity + 0.5f);
    }
    w.next = ni;
    SchedulerState &sc = scheds_[schedOf(warp_slot)];
    std::uint64_t lane_bit = std::uint64_t{1} << laneOf(warp_slot);
    sc.loadMask = ni.cls == InstrClass::GlobalLoad
        ? sc.loadMask | lane_bit : sc.loadMask & ~lane_bit;
    sc.storeMask = ni.cls == InstrClass::GlobalStore
        ? sc.storeMask | lane_bit : sc.storeMask & ~lane_bit;
}

Addr
SmCore::genAddress(Warp &w, const PhaseRt &ph, const KernelRun &run)
{
    if (w.rng.uniform() < ph.hotFraction) {
        Addr line = w.rng.below(ph.hotLines);
        return run.hotBase() + line * lineSizeBytes;
    }
    Addr line = w.coldCursor++ & 8191;
    return w.coldBase + line * lineSizeBytes;
}

void
SmCore::retireInstr(int warp_slot, Cycle ready_at, Cycle now)
{
    Warp &w = warps_[warp_slot];
    KernelCtx &kc = kernels_[w.kernel];
    kc.stats.threadInstrs += w.next.lanes;
    kc.stats.warpInstrs++;
    if (quotaGating_) {
        bool had_quota = kc.quota > 0.0;
        kc.quota -= w.next.lanes;
        if (had_quota && kc.quota <= 0.0)
            gatesDirty_ = true;
    }
    w.instrIdx++;
    w.readyAt = ready_at;
    if (w.instrIdx >= kc.run->desc().warpInstrPerTb) {
        finishWarp(warp_slot);
    } else {
        generateNext(warp_slot);
        scheduleWake(warp_slot, now);
    }
}

void
SmCore::rearbitrate(int warp_slot, Cycle now)
{
    // Replay: the remaining transactions re-arbitrate for the LSU
    // next cycle (access-splitting, as in GPGPU-Sim).
    warps_[warp_slot].readyAt = now + 1;
    scheduleWake(warp_slot, now);
}

void
SmCore::finishWarp(int warp_slot)
{
    Warp &w = warps_[warp_slot];
    w.state = WarpState::Finished;
    TbSlot &tb = tbs_[w.tbSlot];
    tb.warpsFinished++;
    if (tb.warpsFinished == tb.warpsTotal && !tb.draining)
        freeTb(w.tbSlot, TbExit::Completed);
}

void
SmCore::issueWarp(int warp_slot, Cycle now)
{
    Warp &w = warps_[warp_slot];
    KernelCtx &kc = kernels_[w.kernel];
    const KernelRun &run = *kc.run;

    switch (w.next.cls) {
      case InstrClass::Alu:
      case InstrClass::Sfu:
      case InstrClass::SharedMem:
        if (w.next.cls == InstrClass::Alu)
            stats_.issuedAlu++;
        else if (w.next.cls == InstrClass::Sfu)
            stats_.issuedSfu++;
        else
            stats_.issuedSmem++;
        retireInstr(warp_slot, now + w.next.latency, now);
        break;
      case InstrClass::GlobalLoad: {
        const PhaseRt &ph = run.phase(w.phaseIdx);
        int burst = std::min({static_cast<int>(w.next.transLeft),
                              lsuBurst, mshrFree_});
        gqos_assert(burst >= 1);
        for (int i = 0; i < burst; ++i) {
            Addr addr = genAddress(w, ph, run);
            MemAccess acc = mem_->load(id_, w.kernel, addr, now);
            if (acc.l1Miss) {
                mshrFree_--;
                if (++kc.mshrHeld == mshrCap_)
                    gatesDirty_ = true;
                mshrRelease_.emplace(acc.readyAt, w.kernel);
            }
            if (acc.readyAt > w.memDoneAt)
                w.memDoneAt = acc.readyAt;
        }
        w.next.transLeft =
            static_cast<std::uint8_t>(w.next.transLeft - burst);
        if (w.next.transLeft > 0) {
            rearbitrate(warp_slot, now);
        } else {
            stats_.issuedLoads++;
            Cycle ready_at = std::max(w.memDoneAt, now + 1);
            w.memDoneAt = 0;
            retireInstr(warp_slot, ready_at, now);
        }
        break;
      }
      case InstrClass::GlobalStore: {
        const PhaseRt &ph = run.phase(w.phaseIdx);
        int burst = std::min(static_cast<int>(w.next.transLeft),
                             lsuBurst);
        for (int i = 0; i < burst; ++i) {
            Addr addr = genAddress(w, ph, run);
            mem_->store(id_, w.kernel, addr, now);
        }
        w.next.transLeft =
            static_cast<std::uint8_t>(w.next.transLeft - burst);
        if (w.next.transLeft > 0) {
            rearbitrate(warp_slot, now);
        } else {
            stats_.issuedStores++;
            retireInstr(warp_slot, now + 4, now); // store-buffer latency
        }
        break;
      }
    }
}

void
SmCore::recomputeGates()
{
    gatesDirty_ = false;
    int nk = static_cast<int>(runs_.size());
    // Per-kernel MSHR cap: leave a few credits reachable for every
    // co-resident kernel so memory-intensive sharers cannot starve
    // the others' loads. At least one: on a small pool shared by
    // many kernels a cap of zero would block every load forever.
    int resident_kernels = 0;
    for (int k = 0; k < nk; ++k) {
        if (kernels_[k].residentTbs > 0)
            resident_kernels++;
    }
    mshrCap_ = std::max(1, mshrMax_ - mshrReserve *
                               std::max(0, resident_kernels - 1));
    allowedKernels_ = 0;
    gatedKernels_ = 0;
    std::uint32_t mshr_full = 0;
    for (int k = 0; k < nk; ++k) {
        const KernelCtx &kc = kernels_[k];
        if (!quotaGating_ || kc.quota > 0.0)
            allowedKernels_ |= 1u << k;
        else if (kc.residentTbs > 0)
            gatedKernels_ |= 1u << k;
        if (kc.mshrHeld >= mshrCap_)
            mshr_full |= 1u << k;
    }
    for (SchedulerState &sc : scheds_) {
        sc.allowed = 0;
        sc.mshrBlocked = 0;
        for (int k = 0; k < nk; ++k) {
            if (allowedKernels_ & (1u << k))
                sc.allowed |= sc.kernelMask[k];
            if (mshr_full & (1u << k))
                sc.mshrBlocked |= sc.kernelMask[k];
        }
    }
}

bool
SmCore::storeThrottled(Cycle now) const
{
    return mem_->interconnect().backlog(
        static_cast<double>(now)) > storeThrottleBacklog;
}

std::uint64_t
SmCore::issuable(const SchedulerState &sc, std::uint64_t cand,
                 bool lsu_free, bool store_blocked) const
{
    if (!lsu_free)
        return cand & ~(sc.loadMask | sc.storeMask);
    cand &= ~(mshrFree_ > 0 ? sc.loadMask & sc.mshrBlocked
                            : sc.loadMask);
    if (store_blocked)
        cand &= ~sc.storeMask;
    return cand;
}

void
SmCore::readyFacts(std::uint32_t &ready, std::uint32_t &nonmem) const
{
    ready = 0;
    nonmem = 0;
    int nk = static_cast<int>(runs_.size());
    for (int s = 0; s < numScheds_; ++s) {
        const SchedulerState &sc = scheds_[s];
        std::uint64_t mem_mask = sc.loadMask | sc.storeMask;
        for (int k = 0; k < nk; ++k) {
            std::uint64_t r = sc.ready & sc.kernelMask[k];
            if (r)
                ready |= 1u << k;
            if (r & ~mem_mask)
                nonmem |= 1u << k;
        }
    }
}

void
SmCore::attribute(std::uint32_t issued, std::uint32_t allowed,
                  std::uint32_t ready, std::uint32_t nonmem,
                  Cycle span)
{
    // Exactly one category per bound kernel per cycle keeps the
    // conservation invariant (sum == stats_.cycles) structural.
    int nk = static_cast<int>(runs_.size());
    for (int k = 0; k < nk; ++k) {
        CycleCat cat = (issued & (1u << k))
            ? CycleCat::Issued
            : classifyStalled(k, allowed, (ready >> k) & 1,
                              (nonmem >> k) & 1);
        kernels_[k].breakdown.add(cat, span);
    }
}

void
SmCore::addGatedCycles(Cycle span)
{
    // Track the fraction of time each kernel spends quota-gated;
    // the static allocator uses it to estimate a throttled kernel's
    // true capability.
    epochCycles_ += span;
    for (std::uint32_t g = gatedKernels_; g; g &= g - 1)
        kernels_[std::countr_zero(g)].stats.gatedCycles += span;
}

void
SmCore::sampleIdleWarps(std::uint32_t allowed, bool lsu_full,
                        bool store_blocked, Cycle samples)
{
    // Idle warps: ready but not issued this cycle. Warps whose next
    // instruction is blocked on a saturated LSU / empty MSHR pool
    // are *not* idle TLP -- they feed memory-level parallelism --
    // so they are excluded for kernels that are allowed to issue.
    // For a quota-gated kernel every ready warp counts: that is
    // exactly the idle capacity the static allocator may donate
    // (Section 3.6 victim condition 2).
    int nk = static_cast<int>(runs_.size());
    for (int s = 0; s < numScheds_; ++s) {
        const SchedulerState &sc = scheds_[s];
        std::uint64_t blocked_cls = sc.loadMask | sc.storeMask;
        if (!lsu_full) {
            blocked_cls = 0;
            if (mshrFree_ <= 0)
                blocked_cls |= sc.loadMask;
            if (store_blocked)
                blocked_cls |= sc.storeMask;
        }
        for (int k = 0; k < nk; ++k) {
            std::uint64_t ready_k = sc.ready & sc.kernelMask[k];
            std::uint64_t idle = (allowed & (1u << k))
                ? ready_k & ~blocked_cls
                : ready_k;
            kernels_[k].stats.iwSampleSum +=
                static_cast<std::uint64_t>(popCount(idle)) * samples;
        }
    }
    for (int k = 0; k < nk; ++k)
        kernels_[k].stats.iwSamples +=
            static_cast<std::uint32_t>(samples);
}

Cycle
SmCore::eventBound(Cycle at, bool load_blocked,
                   bool store_blocked) const
{
    // Every ready warp is blocked; the block lifts at an MSHR
    // release or once the icnt backlog decays below the store
    // threshold. Both are also sampling inputs (blocked_cls), so a
    // skip must stop exactly there. A release due by @p at forces a
    // step even with no blocked load: the pop mutates the MSHR pool.
    Cycle next = cycleNever;
    if (!mshrRelease_.empty() &&
        (load_blocked || mshrRelease_.top().first <= at)) {
        next = mshrRelease_.top().first;
    } else if (load_blocked) {
        next = at; // empty queue: unreachable, but never over-skip
    }
    if (store_blocked) {
        next = std::min(next, mem_->interconnect().unblockCycle(
                                  storeThrottleBacklog));
    }
    for (const Drain &d : drains_)
        next = std::min(next, d.finishAt);
    // Never skip across a nonempty wake bucket: every bit is a
    // pending wake less than one revolution ahead, so the first
    // nonempty bucket in ring order from @p at is the next wake.
    next = std::min(next, nextWakeFrom(at));
    // Anything already due (a wake, drain or release nextEventAt()
    // finds unprocessed) means "step at @p at".
    return std::max(next, at);
}

bool
SmCore::cycle(Cycle now, bool sample_iw, Cycle *next_event)
{
    settle();
    stats_.cycles++;
    processWakes(now);
    if (!drains_.empty())
        processDrains(now);
    while (!mshrRelease_.empty() && mshrRelease_.top().first <= now) {
        mshrFree_++;
        if (kernels_[mshrRelease_.top().second].mshrHeld-- == mshrCap_)
            gatesDirty_ = true;
        mshrRelease_.pop();
    }

    std::uint32_t allowed = allowedKernels();
    bool store_blocked = storeThrottled(now);

    // Attribution snapshot: the issue loop consumes ready bits and
    // may free TBs, so the per-kernel ready facts must be captured
    // before arbitration mutates them.
    std::uint32_t acct_ready = 0;
    std::uint32_t acct_nonmem = 0;
    std::uint32_t issued_kernels = 0;
    if (accounting_)
        readyFacts(acct_ready, acct_nonmem);

    int lsu_used = 0;
    bool any_issue = false;
    // Blocked-candidate facts for the next-event bound below. Only
    // used when nothing issued: then lsu_used stayed 0 for every
    // scheduler, so they are exactly what nextEventAt() derives.
    bool blocked_load = false;
    bool blocked_store = false;

    int first = schedMask_ >= 0
        ? static_cast<int>(now & static_cast<Cycle>(schedMask_))
        : static_cast<int>(now % numScheds_);
    for (int i = 0; i < numScheds_; ++i) {
        int s = first + i;
        if (s >= numScheds_)
            s -= numScheds_;
        SchedulerState &sc = scheds_[s];

        std::uint64_t cand_pre = sc.ready & sc.allowed;
        std::uint64_t cand = issuable(sc, cand_pre,
                                      lsu_used < lsuPorts_,
                                      store_blocked);
        if (!cand) {
            // Candidates present but none issuable means every one
            // was a masked load (MSHRs) or store (icnt throttle).
            blocked_load |= (cand_pre & sc.loadMask) != 0;
            blocked_store |= (cand_pre & sc.storeMask) != 0;
            sc.lastIssued = -1;
            continue;
        }

        // cand is a subset of ready, which holds only Live lanes, and
        // every Live lane has an age rank: neither pick can decline.
        int lane = policy_ == SchedPolicy::Gto ? pickGto(sc, cand)
                                               : pickLrr(sc, cand);
        int slot = slotOf(s, lane);
        bool is_mem =
            warps_[slot].next.cls == InstrClass::GlobalLoad ||
            warps_[slot].next.cls == InstrClass::GlobalStore;
        if (accounting_)
            issued_kernels |= 1u << warps_[slot].kernel;
        sc.ready = clearBit(sc.ready, lane);
        issueWarp(slot, now);
        if (is_mem)
            lsu_used++;
        sc.lastIssued = lane;
        any_issue = true;
    }

    if (any_issue)
        stats_.activeCycles++;

    if (!any_issue && next_event)
        *next_event = eventBound(now + 1, blocked_load, blocked_store);

    addGatedCycles(1);

    // residentTbs/drainingTbs of a non-issuing kernel are unchanged
    // by the issue loop, so post-loop reads match the
    // pre-arbitration state the snapshot captured.
    if (accounting_)
        attribute(issued_kernels, allowed, acct_ready, acct_nonmem, 1);

    if (sample_iw)
        sampleIdleWarps(allowed, lsu_used >= lsuPorts_, store_blocked,
                        1);
    return any_issue;
}

// ---------------------------------------------------------------
// Event-engine control points
// ---------------------------------------------------------------

/**
 * First nonempty wake bucket at or after @p at, or cycleNever.
 * Word-at-a-time scan over the occupancy bitmap; the wrap
 * iteration (i == nwords) re-visits the start word's low bits,
 * which map to the far end of the ring revolution.
 */
Cycle
SmCore::nextWakeFrom(Cycle at) const
{
    constexpr int nwords = wakeRingSize_ / 64;
    const int start = static_cast<int>(at & (wakeRingSize_ - 1));
    int wi = start >> 6;
    std::uint64_t word =
        wakeBits_[wi] & (~std::uint64_t{0} << (start & 63));
    for (int i = 0; i <= nwords; ++i) {
        if (i == nwords)
            word = wakeBits_[start >> 6] &
                   ~(~std::uint64_t{0} << (start & 63));
        if (word) {
            int idx = (wi << 6) + std::countr_zero(word);
            return at + static_cast<Cycle>(
                            (idx - start) & (wakeRingSize_ - 1));
        }
        wi = (wi + 1) & (nwords - 1);
        word = wakeBits_[wi];
    }
    return cycleNever;
}

Cycle
SmCore::nextEventAt(Cycle now) const
{
    // Replay the issue arbitration read-only: if any scheduler has
    // an issuable candidate the SM must step. The LSU port is free
    // (nothing issued yet), so only MSHR credits and the store
    // throttle can block a ready memory warp.
    allowedKernels();
    bool store_blocked = storeThrottled(now);
    bool load_waiting = false;
    bool store_waiting = false;
    for (const SchedulerState &sc : scheds_) {
        std::uint64_t cand = sc.ready & sc.allowed;
        if (issuable(sc, cand, true, store_blocked))
            return now;
        load_waiting |= (cand & sc.loadMask) != 0;
        store_waiting |= (cand & sc.storeMask) != 0;
    }
    return eventBound(now, load_waiting, store_waiting);
}

CycleCat
SmCore::classifyStalled(int k, std::uint32_t allowed, bool any_ready,
                        bool any_nonmem_ready) const
{
    const KernelCtx &kc = kernels_[k];
    if (kc.drainingTbs > 0)
        return CycleCat::DrainPreempt;
    if (quotaGating_ && kc.residentTbs > 0 &&
        !(allowed & (1u << k)))
        return CycleCat::QuotaGated;
    if (any_ready) {
        // Ready warps but no issue: when every ready warp is a
        // global load/store, the kernel is blocked on MSHR credits,
        // the icnt store throttle, or LSU arbitration — a memory
        // stall. A ready ALU/SFU/shared warp instead lost plain
        // issue arbitration this cycle.
        return any_nonmem_ready ? CycleCat::NoReadyWarp
                                : CycleCat::MemStall;
    }
    if (kc.residentTbs > 0)
        return CycleCat::NoReadyWarp;
    return CycleCat::InertSkipped;
}

void
SmCore::applyInertSpan(Cycle span)
{
    stats_.cycles += span;
    // The reference loop resets every scheduler's greedy hint on a
    // no-candidate cycle; every skipped cycle is one.
    for (int s = 0; s < numScheds_; ++s)
        scheds_[s].lastIssued = -1;
    std::uint32_t allowed = allowedKernels(); // refreshes gatedKernels_
    addGatedCycles(span);
    if (accounting_) {
        // Every classification input (ready/instr masks, residency,
        // drains, quota gating) is frozen across an inert span, and
        // every mutator settles before it mutates, so the state
        // classified here is the one each skipped cycle would have
        // classified.
        std::uint32_t ready = 0;
        std::uint32_t nonmem = 0;
        readyFacts(ready, nonmem);
        attribute(0, allowed, ready, nonmem, span);
    }
}

void
SmCore::skipCycles(Cycle now, Cycle span, Cycle samples)
{
    gqos_assert(span >= 1);
    // Any owed deferred cycles saw the same frozen state as this
    // span, so one settlement accounts both.
    deferredInert_ += span;
    settle();
    // Every sampling input (ready/load/store masks, quota gating,
    // MSHR credits, store throttle) is frozen across an inert span
    // -- nextEventAt() stops a skip at the first cycle where any of
    // them could change -- so each sample in the span contributes
    // the same value. The LSU is never full on a no-issue cycle.
    if (samples > 0)
        sampleIdleWarps(allowedKernels(), false,
                        storeThrottled(now), samples);
}

// ---------------------------------------------------------------
// Quota interface
// ---------------------------------------------------------------

void
SmCore::setQuotaGating(bool on)
{
    settle();
    quotaGating_ = on;
    gatesDirty_ = true;
    mutVersion_++;
}

void
SmCore::setCycleAccounting(bool on)
{
    // Enabling mid-run would break conservation: cycles before the
    // switch were never attributed.
    gqos_assert(!on || stats_.cycles == 0);
    settle();
    accounting_ = on;
    mutVersion_++;
}

void
SmCore::setQuota(KernelId k, double q)
{
    gqos_assert(k >= 0 && k < maxKernels);
    settle();
    kernels_[k].quota = q;
    gatesDirty_ = true;
    mutVersion_++;
}

void
SmCore::addQuota(KernelId k, double q)
{
    gqos_assert(k >= 0 && k < maxKernels);
    settle();
    kernels_[k].quota += q;
    kernels_[k].stats.quotaRefills++;
    gatesDirty_ = true;
    mutVersion_++;
}

double
SmCore::quota(KernelId k) const
{
    gqos_assert(k >= 0 && k < maxKernels);
    return kernels_[k].quota;
}

bool
SmCore::allQuotasExhausted() const
{
    for (std::size_t k = 0; k < runs_.size(); ++k) {
        if (kernels_[k].residentTbs > 0 && kernels_[k].quota > 0.0)
            return false;
    }
    return true;
}

// ---------------------------------------------------------------
// Occupancy and statistics
// ---------------------------------------------------------------

int
SmCore::residentTbs(KernelId k) const
{
    gqos_assert(k >= 0 && k < maxKernels);
    return kernels_[k].residentTbs;
}

int
SmCore::residentWarps(KernelId k) const
{
    gqos_assert(k >= 0 && k < maxKernels);
    return kernels_[k].residentWarps;
}

int
SmCore::totalResidentTbs() const
{
    return tbSlotsUsed_;
}

const SmKernelStats &
SmCore::kernelStats(KernelId k) const
{
    gqos_assert(k >= 0 && k < maxKernels);
    settle();
    return kernels_[k].stats;
}

double
SmCore::iwAverage(KernelId k) const
{
    gqos_assert(k >= 0 && k < maxKernels);
    const SmKernelStats &s = kernels_[k].stats;
    return s.iwSamples ? static_cast<double>(s.iwSampleSum) /
                         s.iwSamples
                       : 0.0;
}

double
SmCore::gatedFraction(KernelId k) const
{
    gqos_assert(k >= 0 && k < maxKernels);
    settle();
    if (epochCycles_ == 0)
        return 0.0;
    return static_cast<double>(kernels_[k].stats.gatedCycles) /
           epochCycles_;
}

void
SmCore::resetIwSamples()
{
    settle();
    for (auto &kc : kernels_) {
        kc.stats.iwSampleSum = 0;
        kc.stats.iwSamples = 0;
        kc.stats.gatedCycles = 0;
    }
    epochCycles_ = 0;
}

// ---------------------------------------------------------------
// Issue-state invariant (tests only)
// ---------------------------------------------------------------

std::string
SmCore::checkIssueState() const
{
    auto at = [](const char *what, int slot) {
        return std::string(what) + " (warp slot " + std::to_string(slot) +
            ")";
    };
    const int lanes_per_sched = maxWarps_ / numScheds_;

    // Wheel: every bit a pending wake in its own bucket; the
    // occupancy bitmap exact.
    std::vector<int> wheel_bits(maxWarps_, 0);
    for (int b = 0; b < wakeRingSize_; ++b) {
        bool nonempty = false;
        for (int s = 0; s < numScheds_; ++s) {
            std::uint64_t word = wakeWheel_[b * numScheds_ + s];
            nonempty |= word != 0;
            for (; word; word &= word - 1) {
                int lane = std::countr_zero(word);
                if (lane >= lanes_per_sched)
                    return "wheel bit on lane " + std::to_string(lane) +
                        " beyond the scheduler's lanes";
                int slot = slotOf(s, lane);
                if (warps_[slot].state != WarpState::Live)
                    return at("wheel bit of a warp that is not Live", slot);
                if (static_cast<int>(wakeAt_[slot] &
                                     (wakeRingSize_ - 1)) != b)
                    return at("wheel bit outside the wake's bucket", slot);
                wheel_bits[slot]++;
            }
        }
        if (testBit(wakeBits_[b >> 6], b & 63) != nonempty)
            return "occupancy bit of bucket " + std::to_string(b) +
                " disagrees with its words";
    }

    // Per warp: ready xor one pending wake; far flag iff the wake
    // was clamped short of readyAt; class masks match the decode.
    for (int slot = 0; slot < maxWarps_; ++slot) {
        const Warp &w = warps_[slot];
        const SchedulerState &sc = scheds_[schedOf(slot)];
        int lane = laneOf(slot);
        bool ready = testBit(sc.ready, lane);
        bool far = testBit(farLanes_[schedOf(slot)], lane);
        if (w.state != WarpState::Live) {
            if (ready || wheel_bits[slot] || far)
                return at("non-Live warp is ready or waiting", slot);
            continue;
        }
        if ((ready ? 1 : 0) + wheel_bits[slot] != 1)
            return at("Live warp is not exactly one of ready/waiting",
                      slot);
        if (far != (!ready && w.readyAt > wakeAt_[slot]))
            return at("far-lane flag disagrees with the wake", slot);
        if (testBit(sc.loadMask, lane) !=
                (w.next.cls == InstrClass::GlobalLoad) ||
            testBit(sc.storeMask, lane) !=
                (w.next.cls == InstrClass::GlobalStore))
            return at("class masks disagree with the decode", slot);
    }

    // Cached gate masks, unless an event marked them for refresh.
    if (!gatesDirty_) {
        int nk = static_cast<int>(runs_.size());
        int resident = 0;
        for (int k = 0; k < nk; ++k)
            resident += kernels_[k].residentTbs > 0;
        int cap = std::max(1, mshrMax_ - mshrReserve *
                                  std::max(0, resident - 1));
        std::uint32_t allowed = 0;
        std::uint32_t gated = 0;
        for (int k = 0; k < nk; ++k) {
            bool ok = !quotaGating_ || kernels_[k].quota > 0.0;
            allowed |= static_cast<std::uint32_t>(ok) << k;
            gated |= static_cast<std::uint32_t>(
                         !ok && kernels_[k].residentTbs > 0) << k;
        }
        if (cap != mshrCap_ || allowed != allowedKernels_ ||
            gated != gatedKernels_)
            return "stale cached kernel gate masks";
        std::vector<std::uint64_t> allow_lanes(numScheds_, 0);
        std::vector<std::uint64_t> block_lanes(numScheds_, 0);
        for (int slot = 0; slot < maxWarps_; ++slot) {
            const Warp &w = warps_[slot];
            if (w.state == WarpState::Invalid)
                continue;
            std::uint64_t bit = std::uint64_t{1} << laneOf(slot);
            if (allowed & (1u << w.kernel))
                allow_lanes[schedOf(slot)] |= bit;
            if (kernels_[w.kernel].mshrHeld >= cap)
                block_lanes[schedOf(slot)] |= bit;
        }
        for (int s = 0; s < numScheds_; ++s) {
            if (scheds_[s].allowed != allow_lanes[s] ||
                scheds_[s].mshrBlocked != block_lanes[s])
                return "stale cached lanes of scheduler " +
                    std::to_string(s);
        }
    }

    // Age ranks: occupied lanes ranked 0, 1, ... by increasing age;
    // empty lanes unranked.
    for (int s = 0; s < numScheds_; ++s) {
        const SchedulerState &sc = scheds_[s];
        std::vector<int> by_rank(noAgeRank + 1, -1);
        int occupied = 0;
        for (int lane = 0; lane < 64; ++lane) {
            bool live = lane < lanes_per_sched &&
                warps_[slotOf(s, lane)].state != WarpState::Invalid;
            int rank = sc.ageRank[lane];
            if (live ? rank == noAgeRank || by_rank[rank] >= 0
                     : rank != noAgeRank)
                return "age rank of lane " + std::to_string(lane) +
                    " of scheduler " + std::to_string(s) + " is wrong";
            if (live) {
                by_rank[rank] = lane;
                occupied++;
            }
        }
        for (int r = 0; r < occupied; ++r) {
            if (by_rank[r] < 0 ||
                (r > 0 && warps_[slotOf(s, by_rank[r - 1])].age >=
                              warps_[slotOf(s, by_rank[r])].age))
                return "age ranks of scheduler " + std::to_string(s) +
                    " are not oldest first";
        }
    }
    return "";
}

} // namespace gqos
