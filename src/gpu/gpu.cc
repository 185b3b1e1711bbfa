/**
 * @file
 * Top-level GPU implementation.
 */

#include "gpu/gpu.hh"

#include "common/logging.hh"

namespace gqos
{

Gpu::Gpu(const GpuConfig &cfg)
    : cfg_(cfg)
{
    cfg_.validate();
    mem_ = std::make_unique<MemSystem>(cfg_);
    sms_.reserve(cfg_.numSms);
    for (int i = 0; i < cfg_.numSms; ++i)
        sms_.emplace_back(cfg_, i, *mem_);
    iwSampleInterval_ = cfg_.epochLength / cfg_.iwSamplesPerEpoch;
    if (iwSampleInterval_ == 0)
        iwSampleInterval_ = 1;
    smInertUntil_.assign(sms_.size(), 0);
    smCacheVersion_.assign(sms_.size(), 0);
}

void
Gpu::launch(const std::vector<const KernelDesc *> &descs)
{
    if (descs.empty())
        gqos_fatal("launch() needs at least one kernel");
    if (static_cast<int>(descs.size()) > maxKernels)
        gqos_fatal("at most %d concurrent kernels are supported",
                   maxKernels);
    gqos_assert(runs_.empty());

    runs_.reserve(descs.size());
    dispatch_.resize(descs.size());
    for (std::size_t k = 0; k < descs.size(); ++k) {
        runs_.emplace_back(*descs[k], static_cast<KernelId>(k),
                           cfg_);
        dispatch_[k].remainingInLaunch = descs[k]->gridTbs;
        dispatch_[k].launches = 1;
    }

    std::vector<const KernelRun *> run_ptrs;
    for (const auto &r : runs_)
        run_ptrs.push_back(&r);
    for (auto &sm : sms_) {
        sm.bindKernels(run_ptrs);
        sm.setTbEventCallback(
            [this](SmId s, KernelId k, TbExit e) {
                onTbEvent(s, k, e);
            });
    }

    tbTargets_.assign(sms_.size(),
                      std::vector<int>(runs_.size(), 0));
    sliceStart_.assign(sms_.size(),
                       std::vector<Cycle>(runs_.size(), cycleNever));
    dispatchDirty_ = true;
}

void
Gpu::onTbEvent(SmId sm, KernelId k, TbExit exit)
{
    KernelDispatchState &ds = dispatch_[k];
    ds.liveTbs--;
    gqos_assert(ds.liveTbs >= 0);
    if (exit == TbExit::Completed) {
        ds.completedTbs++;
    } else {
        // Preempted TB: its context conceptually lives in memory;
        // the work is requeued and re-dispatched later.
        ds.preemptedTbs++;
        ds.remainingInLaunch++;
    }
    if (ds.remainingInLaunch == 0 && ds.liveTbs == 0) {
        if (ds.manualLaunch) {
            // Serving mode: the grid is a request; record its exact
            // completion cycle and go idle until the next
            // startGrid().
            ds.gridsCompleted++;
            ds.lastGridCompletedAt = now_;
        } else {
            // Grid finished: immediately relaunch (the evaluation
            // re-executes kernels to fill the measurement window).
            const KernelDesc &d = runs_[k].desc();
            ds.remainingInLaunch = d.gridTbs;
            ds.launches++;
        }
    }
    // A freed TB slot (or a requeued TB) can enable a dispatch or
    // unblock a pending shrink decision.
    dispatchDirty_ = true;

    if (smSlice_ && sliceStart_[sm][k] != cycleNever &&
        sms_[sm].residentTbs(k) == 0) {
        smSlice_(sm, k, sliceStart_[sm][k], now_);
        sliceStart_[sm][k] = cycleNever;
    }
}

int
Gpu::shrinkVictim(std::size_t s) const
{
    // One pending preemption per SM at a time.
    const SmCore &sm = sms_[s];
    if (sm.preemptionPending())
        return -1;
    for (int k = 0; k < numKernels(); ++k) {
        if (sm.residentTbs(k) > tbTargets_[s][k])
            return k;
    }
    return -1;
}

bool
Gpu::canGrow(std::size_t s, KernelId k) const
{
    return dispatch_[k].remainingInLaunch > 0 &&
           sms_[s].residentTbs(k) < tbTargets_[s][k] &&
           sms_[s].canAccept(k);
}

bool
Gpu::dispatchCycle()
{
    bool acted = false;
    int nk = numKernels();
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        SmCore &sm = sms_[s];

        // Shrink first.
        int victim = shrinkVictim(s);
        if (victim >= 0) {
            sm.startPreemption(victim, now_);
            acted = true;
        }

        // Grow: at most one TB dispatched per SM per cycle.
        int start = static_cast<int>((now_ + s) %
                                     static_cast<Cycle>(nk));
        for (int i = 0; i < nk; ++i) {
            int k = start + i;
            if (k >= nk)
                k -= nk;
            if (!canGrow(s, k))
                continue;
            std::uint64_t launch_pos = static_cast<std::uint64_t>(
                runs_[k].desc().gridTbs -
                dispatch_[k].remainingInLaunch);
            bool was_empty = sm.residentTbs(k) == 0;
            sm.dispatchTb(k, tbSeq_++, launch_pos, now_);
            if (smSlice_ && was_empty)
                sliceStart_[s][k] = now_;
            dispatch_[k].remainingInLaunch--;
            dispatch_[k].liveTbs++;
            acted = true;
            break;
        }
    }
    return acted;
}

bool
Gpu::dispatcherWouldAct() const
{
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        if (shrinkVictim(s) >= 0)
            return true;
        for (int k = 0; k < numKernels(); ++k) {
            if (canGrow(s, k))
                return true;
        }
    }
    return false;
}

bool
Gpu::step(bool event_aware)
{
    bool sample_iw = (now_ % iwSampleInterval_) == 0;
    bool active = false;
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        SmCore &sm = sms_[s];
        if (event_aware && now_ < smInertUntil_[s] &&
            smCacheVersion_[s] == sm.mutVersion()) {
            // Proven inert this cycle: batch-account instead of
            // walking the SM pipeline. A sample is taken now, so the
            // sampling inputs that live outside the SM (the
            // interconnect store-throttle backlog) are read at the
            // sample cycle, exactly like the reference path.
            sm.skipCycles(now_, 1, sample_iw ? 1 : 0);
            smSkipped_++;
            continue;
        }
        Cycle bound = 0;
        bool issued = sm.cycle(now_, sample_iw,
                               event_aware ? &bound : nullptr);
        active |= issued;
        if (event_aware) {
            // A no-issue cycle hands back the next-event bound for
            // free; an issuing SM is hot and re-probes next cycle.
            smInertUntil_[s] = issued ? 0 : bound;
            smCacheVersion_[s] = sm.mutVersion();
        }
    }
    if (dispatchDirty_) {
        if (dispatchCycle())
            active = true;
        else
            dispatchDirty_ = false;
    }
    now_++;
    return active;
}

Cycle
Gpu::nextEventAt() const
{
    Cycle next = cycleNever;
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        // A version-valid inertia cache is itself a sound bound
        // (a cached bound <= now_ conservatively means "may act
        // now"), so an event-aware step keeps this probe free of
        // per-SM replays; reference-driven Gpus never write the
        // cache, so the version mismatches and the full probe
        // runs.
        Cycle t = (smCacheVersion_[s] == sms_[s].mutVersion())
            ? smInertUntil_[s]
            : sms_[s].nextEventAt(now_);
        if (t <= now_)
            return now_;
        next = std::min(next, t);
    }
    if (dispatchDirty_ && dispatcherWouldAct())
        return now_;
    return next;
}

void
Gpu::skipTo(Cycle target)
{
    gqos_assert(target > now_);
    // Idle-warp samples fall on cycles with c % interval == 0;
    // count those in [now, target).
    Cycle i = iwSampleInterval_;
    Cycle samples = (target + i - 1) / i - (now_ + i - 1) / i;
    for (auto &sm : sms_)
        sm.skipCycles(now_, target - now_, samples);
    now_ = target;
}

void
Gpu::run(Cycle until)
{
    while (now_ < until) {
        Cycle t = nextEventAt();
        if (t > now_)
            skipTo(std::min(t, until));
        else
            step();
    }
}

void
Gpu::setTbTarget(SmId sm, KernelId k, int target)
{
    gqos_assert(sm >= 0 && sm < numSms());
    gqos_assert(k >= 0 && k < numKernels());
    gqos_assert(target >= 0);
    if (tbTargets_[sm][k] != target)
        dispatchDirty_ = true;
    tbTargets_[sm][k] = target;
}

int
Gpu::tbTarget(SmId sm, KernelId k) const
{
    gqos_assert(sm >= 0 && sm < numSms());
    gqos_assert(k >= 0 && k < numKernels());
    return tbTargets_[sm][k];
}

int
Gpu::residentTbs(SmId sm, KernelId k) const
{
    gqos_assert(sm >= 0 && sm < numSms());
    gqos_assert(k >= 0 && k < numKernels());
    return sms_[sm].residentTbs(k);
}

int
Gpu::totalResidentTbs(KernelId k) const
{
    int n = 0;
    for (const auto &sm : sms_)
        n += sm.residentTbs(k);
    return n;
}

void
Gpu::setManualLaunch(KernelId k)
{
    gqos_assert(k >= 0 && k < numKernels());
    KernelDispatchState &ds = dispatch_[k];
    gqos_assert(ds.liveTbs == 0);
    ds.manualLaunch = true;
    ds.remainingInLaunch = 0;
    ds.launches = 0;
    dispatchDirty_ = true;
}

void
Gpu::startGrid(KernelId k)
{
    gqos_assert(k >= 0 && k < numKernels());
    KernelDispatchState &ds = dispatch_[k];
    gqos_assert(ds.manualLaunch);
    gqos_assert(ds.remainingInLaunch == 0 && ds.liveTbs == 0);
    ds.remainingInLaunch = runs_[k].desc().gridTbs;
    ds.launches++;
    dispatchDirty_ = true;
}

bool
Gpu::gridActive(KernelId k) const
{
    gqos_assert(k >= 0 && k < numKernels());
    const KernelDispatchState &ds = dispatch_[k];
    return ds.remainingInLaunch > 0 || ds.liveTbs > 0;
}

std::uint64_t
Gpu::gridsCompleted(KernelId k) const
{
    gqos_assert(k >= 0 && k < numKernels());
    return dispatch_[k].gridsCompleted;
}

Cycle
Gpu::lastGridCompletedAt(KernelId k) const
{
    gqos_assert(k >= 0 && k < numKernels());
    return dispatch_[k].lastGridCompletedAt;
}

void
Gpu::setQuotaGatingAll(bool on)
{
    for (auto &sm : sms_)
        sm.setQuotaGating(on);
}

void
Gpu::setCycleAccounting(bool on)
{
    accounting_ = on;
    for (auto &sm : sms_)
        sm.setCycleAccounting(on);
}

CycleBreakdown
Gpu::cycleBreakdown(KernelId k) const
{
    gqos_assert(k >= 0 && k < numKernels());
    CycleBreakdown b;
    for (const auto &sm : sms_)
        b += sm.cycleBreakdown(k);
    return b;
}

void
Gpu::setSmSliceCallback(SmSliceFn fn)
{
    smSlice_ = std::move(fn);
}

void
Gpu::closeOpenSmSlices()
{
    if (!smSlice_)
        return;
    for (std::size_t s = 0; s < sliceStart_.size(); ++s) {
        for (std::size_t k = 0; k < sliceStart_[s].size(); ++k) {
            if (sliceStart_[s][k] == cycleNever)
                continue;
            smSlice_(static_cast<SmId>(s),
                     static_cast<KernelId>(k), sliceStart_[s][k],
                     now_);
            sliceStart_[s][k] = cycleNever;
        }
    }
}

const KernelRun &
Gpu::kernelRun(KernelId k) const
{
    gqos_assert(k >= 0 && k < numKernels());
    return runs_[k];
}

const KernelDesc &
Gpu::kernelDesc(KernelId k) const
{
    return kernelRun(k).desc();
}

std::uint64_t
Gpu::threadInstrs(KernelId k) const
{
    std::uint64_t n = 0;
    for (const auto &sm : sms_)
        n += sm.threadInstrs(k);
    return n;
}

std::uint64_t
Gpu::warpInstrs(KernelId k) const
{
    std::uint64_t n = 0;
    for (const auto &sm : sms_)
        n += sm.kernelStats(k).warpInstrs;
    return n;
}

const KernelDispatchState &
Gpu::dispatchState(KernelId k) const
{
    gqos_assert(k >= 0 && k < numKernels());
    return dispatch_[k];
}

double
Gpu::ipc(KernelId k) const
{
    if (now_ == 0)
        return 0.0;
    return static_cast<double>(threadInstrs(k)) / now_;
}

double
Gpu::iwAverage(KernelId k) const
{
    double sum = 0.0;
    for (const auto &sm : sms_)
        sum += sm.iwAverage(k);
    return sms_.empty() ? 0.0 : sum / sms_.size();
}

double
Gpu::gatedFraction(KernelId k) const
{
    double sum = 0.0;
    for (const auto &sm : sms_)
        sum += sm.gatedFraction(k);
    return sms_.empty() ? 0.0 : sum / sms_.size();
}

std::uint64_t
Gpu::quotaRefills(KernelId k) const
{
    std::uint64_t n = 0;
    for (const auto &sm : sms_)
        n += sm.kernelStats(k).quotaRefills;
    return n;
}

int
Gpu::totalTbTarget(KernelId k) const
{
    int n = 0;
    for (std::size_t s = 0; s < sms_.size(); ++s)
        n += tbTargets_[s][k];
    return n;
}

} // namespace gqos
