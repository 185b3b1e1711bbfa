/**
 * @file
 * Quota controller implementation.
 */

#include "qos/quota_controller.hh"

#include <algorithm>

#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "telemetry/trace.hh"

namespace gqos
{

namespace
{

/** Ceiling on the non-QoS artificial IPC goal (sanity clamp). */
constexpr double nonQosGoalMax = 1e7;

/** Floor keeping non-QoS kernels from being starved permanently. */
constexpr double nonQosGoalMin = 1.0;

} // anonymous namespace

const char *
toString(QuotaScheme scheme)
{
    switch (scheme) {
      case QuotaScheme::Naive:
        return "naive";
      case QuotaScheme::Elastic:
        return "elastic";
      case QuotaScheme::Rollover:
        return "rollover";
    }
    return "?";
}

QuotaController::QuotaController(std::vector<QosSpec> specs,
                                 QuotaOptions opts,
                                 Cycle epoch_length)
    : specs_(std::move(specs)), opts_(opts),
      epochLength_(epoch_length)
{
    if (epochLength_ < 1)
        gqos_fatal("epoch length must be >= 1");
    qosIds_ = qosKernels(specs_);
    nonQosIds_ = nonQosKernels(specs_);
    for (int k : qosIds_) {
        if (specs_[k].ipcGoal <= 0.0)
            gqos_fatal("QoS kernel %d has non-positive IPC goal", k);
        qosMask_ |= 1u << k;
    }
    for (int k : nonQosIds_)
        nonQosMask_ |= 1u << k;
    std::size_t n = specs_.size();
    instrAtEpochStart_.assign(n, 0);
    instrAtSettle_.assign(n, 0);
    instrTotal_.assign(n, 0);
    ipcEpoch_.assign(n, 0.0);
    epochTotalQuota_.assign(n, 0.0);
    alpha_.assign(n, 1.0);
    nonQosGoal_.assign(n, 0.0);
    for (int k : nonQosIds_)
        nonQosGoal_[k] = nonQosInitialIpc;
}

void
QuotaController::attachTelemetry(TraceSink *trace,
                                 MetricsRegistry *metrics)
{
    trace_ = trace;
    if (metrics) {
        epochsCtr_ = &metrics->counter("qos.epochs");
        elasticRestartsCtr_ =
            &metrics->counter("qos.elastic_restarts");
        refillGrantsCtr_ = &metrics->counter("qos.refill_grants");
    } else {
        epochsCtr_ = nullptr;
        elasticRestartsCtr_ = nullptr;
        refillGrantsCtr_ = nullptr;
    }
}

void
QuotaController::emitEpochTrace(Gpu &gpu, bool final_partial)
{
    Cycle now = gpu.now();
    Cycle len = now - epochStart_;
    int num_sms = gpu.numSms();

    // Memory-system deltas over the ended epoch.
    const MemSystem &mem = gpu.mem();
    MemCounters cur;
    cur.l1Accesses = mem.stats().l1Accesses;
    cur.l1Misses = mem.stats().l1Misses;
    cur.l2Accesses = mem.totalL2Accesses();
    cur.l2Misses = mem.totalL2Misses();
    cur.dramAccesses = mem.totalDramAccesses();
    cur.contextLines = mem.stats().contextLines;

    EpochMemRecord m;
    m.epoch = epochIndex_;
    m.start = epochStart_;
    m.length = len;
    m.finalPartial = final_partial;
    m.l1Accesses = cur.l1Accesses - traceMemAt_.l1Accesses;
    m.l1Misses = cur.l1Misses - traceMemAt_.l1Misses;
    m.l2Accesses = cur.l2Accesses - traceMemAt_.l2Accesses;
    m.l2Misses = cur.l2Misses - traceMemAt_.l2Misses;
    m.dramAccesses = cur.dramAccesses - traceMemAt_.dramAccesses;
    m.contextLines = cur.contextLines - traceMemAt_.contextLines;
    traceMemAt_ = cur;
    trace_->onEpochMem(m);

    for (std::size_t k = 0; k < specs_.size(); ++k) {
        KernelId kid = static_cast<KernelId>(k);
        EpochKernelRecord r;
        r.epoch = epochIndex_;
        r.start = epochStart_;
        r.length = len;
        r.finalPartial = final_partial;
        r.kernel = kid;
        r.isQos = specs_[k].hasGoal;
        r.goalIpc = r.isQos ? specs_[k].ipcGoal : 0.0;
        r.nonQosGoal = r.isQos ? 0.0 : nonQosGoal_[k];
        r.alpha = alpha_[k];
        std::uint64_t instr = gpu.threadInstrs(kid);
        r.instrDelta = instr - instrAtEpochStart_[k];
        r.ipcEpoch = len > 0
            ? static_cast<double>(r.instrDelta) / len
            : 0.0;
        // Post-settle lifetime IPC as of *now* (instrTotal_ still
        // holds the previous boundary's value at this point).
        r.ipcHistory = settled_ && now > settleCycle_
            ? static_cast<double>(instr - instrAtSettle_[k]) /
                  (now - settleCycle_)
            : 0.0;
        r.attainment = r.isQos && specs_[k].ipcGoal > 0.0
            ? r.ipcEpoch / specs_[k].ipcGoal
            : 0.0;
        r.quotaGranted = epochTotalQuota_[k];
        const KernelDispatchState &ds = gpu.dispatchState(kid);
        r.completedTbs = ds.completedTbs - traceCompletedAt_[k];
        r.preemptedTbs = ds.preemptedTbs - tracePreemptedAt_[k];
        traceCompletedAt_[k] = ds.completedTbs;
        tracePreemptedAt_[k] = ds.preemptedTbs;
        std::uint64_t refills = gpu.quotaRefills(kid);
        r.quotaRefills = refills - traceRefillsAt_[k];
        traceRefillsAt_[k] = refills;
        r.tbTarget = gpu.totalTbTarget(kid);
        r.tbResident = gpu.totalResidentTbs(kid);
        r.iwAverage = gpu.iwAverage(kid);
        r.gatedFraction = gpu.gatedFraction(kid);
        r.leftoverPerSm.reserve(num_sms);
        for (int s = 0; s < num_sms; ++s)
            r.leftoverPerSm.push_back(gpu.sm(s).quota(kid));
        trace_->onEpochKernel(r);
    }
}

void
QuotaController::finishTrace(Gpu &gpu)
{
    if (!trace_ || traceFinished_)
        return;
    traceFinished_ = true;
    if (gpu.now() > epochStart_)
        emitEpochTrace(gpu, true);
    trace_->flush();
}

void
QuotaController::onLaunch(Gpu &gpu)
{
    if (static_cast<std::size_t>(gpu.numKernels()) != specs_.size())
        gqos_fatal("QoS spec count (%zu) != kernel count (%d)",
                   specs_.size(), gpu.numKernels());
    gpu.setQuotaGatingAll(true);
    localQuota_.assign(gpu.numSms(),
                       std::vector<double>(specs_.size(), 0.0));
    lastLeftover_.assign(gpu.numSms(),
                         std::vector<double>(specs_.size(), 1.0));
    pendingRelease_.assign(gpu.numSms(),
                           std::vector<double>(specs_.size(), 0.0));
    released_.assign(gpu.numSms(), true);
    if (trace_) {
        traceCompletedAt_.assign(specs_.size(), 0);
        tracePreemptedAt_.assign(specs_.size(), 0);
        traceRefillsAt_.assign(specs_.size(), 0);
        traceMemAt_ = MemCounters();
        traceFinished_ = false;
    }
    beginEpoch(gpu, true);
}

void
QuotaController::distributeQuota(Gpu &gpu, KernelId k,
                                 double total_quota)
{
    // Distribute proportionally to the TBs each SM hosts
    // (Section 3.4.1); before any TB is resident, distribute evenly.
    int total_tbs = gpu.totalResidentTbs(k);
    int num_sms = gpu.numSms();
    for (int s = 0; s < num_sms; ++s) {
        double share;
        if (total_tbs > 0) {
            share = total_quota *
                    gpu.residentTbs(s, k) / total_tbs;
        } else {
            share = total_quota / num_sms;
        }
        // Fault site "quota_account": drop this SM's share for one
        // epoch. The next epoch's history-based adjustment (alpha)
        // observes the shortfall and compensates, demonstrating
        // graceful degradation under accounting glitches.
        if (faultAt("quota_account")) {
            gqos_debug("fault injection: dropped quota share of "
                       "kernel %d on SM %d", k, s);
            share = 0.0;
        }
        localQuota_[s][k] = share;
    }
}

void
QuotaController::beginEpoch(Gpu &gpu, bool initial)
{
    Cycle now = gpu.now();
    Cycle epoch_cycles = now - epochStart_;

    // Trace first: the record must describe the epoch that just
    // ended, so it is taken before any bookkeeping below mutates
    // alpha, the non-QoS goals or the quota counters.
    if (trace_ && !initial)
        emitEpochTrace(gpu, false);
    if (epochsCtr_ && !initial)
        epochsCtr_->inc();

    // 1. Per-kernel accounting over the epoch that just ended.
    for (std::size_t k = 0; k < specs_.size(); ++k) {
        std::uint64_t instr = gpu.threadInstrs(
            static_cast<KernelId>(k));
        if (!initial && epoch_cycles > 0) {
            ipcEpoch_[k] = static_cast<double>(
                instr - instrAtEpochStart_[k]) / epoch_cycles;
        }
        instrAtEpochStart_[k] = instr;
        instrTotal_[k] = instr;
    }

    // History baseline starts once the settle window has passed.
    if (!settled_ && epochIndex_ >= settleEpochs && !initial) {
        settled_ = true;
        settleCycle_ = now;
        for (std::size_t k = 0; k < specs_.size(); ++k)
            instrAtSettle_[k] = instrTotal_[k];
    }

    // 2. History-based adjustment (Section 3.4.2).
    for (int k : qosIds_) {
        double hist = historyAt(k, now);
        if (opts_.historyAdjust && hist > 0.0) {
            alpha_[k] = std::max(
                specs_[k].ipcGoal * goalMargin / hist, 1.0);
        } else {
            alpha_[k] = 1.0;
        }
    }

    // 3. Non-QoS artificial goal search (Section 3.5).
    if (!initial) {
        for (int j : nonQosIds_) {
            double factor = 1.0;
            for (int k : qosIds_) {
                double target = alpha_[k] *
                    specs_[k].ipcGoal * goalMargin;
                if (target > 0.0)
                    factor *= ipcEpoch_[k] / target;
            }
            double next = ipcEpoch_[j] * factor;
            nonQosGoal_[j] = std::clamp(next, nonQosGoalMin,
                                        nonQosGoalMax);
        }
    }

    // 4. Allocate quotas and apply the per-scheme carry rules.
    for (std::size_t k = 0; k < specs_.size(); ++k) {
        KernelId kid = static_cast<KernelId>(k);
        bool is_qos = specs_[k].hasGoal;
        double total = is_qos
            ? alpha_[k] * specs_[k].ipcGoal * goalMargin *
                  epochLength_
            : nonQosGoal_[k] * epochLength_;
        epochTotalQuota_[k] = total;
        distributeQuota(gpu, kid, total);

        for (int s = 0; s < gpu.numSms(); ++s) {
            SmCore &sm = gpu.sm(s);
            double cur = sm.quota(kid);
            if (!initial)
                lastLeftover_[s][kid] = cur;
            double carry;
            if (initial) {
                carry = 0.0;
            } else if (opts_.scheme == QuotaScheme::Rollover &&
                       is_qos) {
                // Unused quota "from the last epoch" rolls over
                // (Section 3.4.4); the carry is capped at one
                // epoch's share so a long TLP-limited transient
                // cannot bank an unbounded stock that would leave
                // the kernel ungated for many epochs. Debt
                // (negative counters) carries for everyone.
                carry = std::min(cur, localQuota_[s][kid]);
            } else if (opts_.scheme == QuotaScheme::Elastic) {
                // At an elastic restart every counter is <= 0; at a
                // forced boundary leftovers are discarded.
                carry = std::min(cur, 0.0);
            } else {
                carry = std::min(cur, 0.0);
            }
            double share = localQuota_[s][kid];
            if (opts_.timeMux && !is_qos) {
                // Rollover-Time: stash the non-QoS share until the
                // SM's QoS kernels drain their quotas.
                sm.setQuota(kid, std::min(cur, 0.0));
                pendingRelease_[s][kid] = share;
            } else {
                sm.setQuota(kid, share + carry);
            }
        }
    }
    if (opts_.timeMux)
        std::fill(released_.begin(), released_.end(),
                  qosIds_.empty());

    epochStart_ = now;
    epochIndex_ += initial ? 0 : 1;
}

bool
QuotaController::qosQuotasExhausted(const SmCore &sm) const
{
    return (sm.residentKernels() & sm.quotaPositiveKernels() &
            qosMask_) == 0;
}

bool
QuotaController::elasticReady(const Gpu &gpu, Cycle now) const
{
    // Elastic restart: every QoS quota drained on every SM, and
    // every (resident) non-QoS kernel has consumed at least its
    // base epoch quota. Refill-granted extra quota does not
    // postpone the restart.
    if (opts_.scheme != QuotaScheme::Elastic || now == 0)
        return false;
    for (int s = 0; s < gpu.numSms(); ++s) {
        if (!qosQuotasExhausted(gpu.sm(s)))
            return false;
    }
    for (int k : nonQosIds_) {
        if (gpu.totalResidentTbs(k) == 0)
            continue;
        std::uint64_t done = gpu.threadInstrs(k) -
                             instrAtEpochStart_[k];
        if (static_cast<double>(done) < epochTotalQuota_[k])
            return false;
    }
    return true;
}

bool
QuotaController::releaseDue(const SmCore &sm, SmId s) const
{
    return opts_.timeMux && !released_[s] && qosQuotasExhausted(sm);
}

bool
QuotaController::refillDue(const SmCore &sm, SmId s) const
{
    if (opts_.timeMux && !released_[s])
        return false;
    return (sm.residentKernels() & nonQosMask_) != 0 &&
           sm.allQuotasExhausted();
}

Cycle
QuotaController::nextControlAt(const Gpu &gpu, Cycle now) const
{
    Cycle boundary = epochStart_ + epochLength_;
    if (now >= boundary || elasticReady(gpu, now))
        return now;
    // onCycle() acts mid-epoch exactly where these predicates hold;
    // if none does now, none can while the machine is idle, so the
    // next control point is the forced boundary.
    for (int s = 0; s < gpu.numSms(); ++s) {
        const SmCore &sm = gpu.sm(s);
        if (releaseDue(sm, s) || refillDue(sm, s))
            return now;
    }
    return boundary;
}

bool
QuotaController::onCycle(Gpu &gpu)
{
    Cycle now = gpu.now();
    bool new_epoch = false;

    if (now - epochStart_ >= epochLength_) {
        beginEpoch(gpu, false);
        new_epoch = true;
    } else if (elasticReady(gpu, now)) {
        if (elasticRestartsCtr_)
            elasticRestartsCtr_->inc();
        beginEpoch(gpu, false);
        new_epoch = true;
    }

    const int num_sms = gpu.numSms();
    for (int s = 0; s < num_sms; ++s) {
        SmCore &sm = gpu.sm(s);
        // Rollover-Time: release stashed non-QoS quota per SM once
        // its QoS kernels exhausted theirs.
        if (releaseDue(sm, s)) {
            for (int j : nonQosIds_)
                sm.addQuota(j, pendingRelease_[s][j]);
            released_[s] = true;
        }
        // Mid-epoch refill (Section 3.4.1): once every kernel on an
        // SM has consumed its quota, non-QoS kernels get another
        // share so the SM keeps running until the epoch ends.
        // Elastic restarts the (global) epoch when every SM drains;
        // the per-SM refill also applies there so an early-draining
        // SM is not idled by a straggler SM.
        if (!refillDue(sm, s))
            continue;
        for (int j : nonQosIds_) {
            if (!(sm.residentKernels() & (1u << j)))
                continue; // no TBs here: quota would just pool
            double share = localQuota_[s][j];
            if (share <= 0.0)
                share = nonQosGoalMin * epochLength_ / num_sms;
            sm.addQuota(j, share);
            if (refillGrantsCtr_)
                refillGrantsCtr_->inc();
        }
    }
    return new_epoch;
}

double
QuotaController::historyAt(KernelId k, Cycle now) const
{
    if (!settled_ || now <= settleCycle_)
        return 0.0;
    return static_cast<double>(instrTotal_[k] -
                               instrAtSettle_[k]) /
           (now - settleCycle_);
}

double
QuotaController::ipcHistory(KernelId k) const
{
    gqos_assert(k >= 0 &&
                k < static_cast<int>(specs_.size()));
    // Post-settle lifetime IPC as of the last epoch boundary.
    return historyAt(k, epochStart_);
}

double
QuotaController::ipcEpoch(KernelId k) const
{
    gqos_assert(k >= 0 && k < static_cast<int>(specs_.size()));
    return ipcEpoch_[k];
}

double
QuotaController::alpha(KernelId k) const
{
    gqos_assert(k >= 0 && k < static_cast<int>(specs_.size()));
    return alpha_[k];
}

double
QuotaController::nonQosGoal(KernelId k) const
{
    gqos_assert(k >= 0 && k < static_cast<int>(specs_.size()));
    return nonQosGoal_[k];
}

double
QuotaController::lastLeftover(SmId sm, KernelId k) const
{
    gqos_assert(sm >= 0 &&
                sm < static_cast<int>(lastLeftover_.size()));
    gqos_assert(k >= 0 && k < static_cast<int>(specs_.size()));
    return lastLeftover_[sm][k];
}

} // namespace gqos
