/**
 * @file
 * Admission controller: bounded queues + degradation ladder.
 */

#include "serving/admission.hh"

#include "common/fault_injection.hh"
#include "common/logging.hh"

namespace gqos
{

namespace
{

/** Backlog fractions (of aggregate queue capacity) at which the
 *  ladder steps up to L1 / L2 / L3; index 0 is a sentinel. */
constexpr double upFrac[4] = {-1.0, 0.50, 0.75, 0.95};
/** Hysteresis subtracted from a threshold when stepping back down,
 *  as a backlog fraction. */
constexpr double downHysteresis = 0.10;

} // anonymous namespace

const char *
toString(AdmitOutcome o)
{
    switch (o) {
      case AdmitOutcome::Admitted:
        return "admitted";
      case AdmitOutcome::RejectedQueueFull:
        return "queue_full";
      case AdmitOutcome::RejectedShed:
        return "shed";
      case AdmitOutcome::RejectedProjected:
        return "projected_miss";
    }
    return "?";
}

AdmissionController::AdmissionController(
    std::vector<TenantSpec> tenants)
    : tenants_(std::move(tenants)), queues_(tenants_.size())
{
    for (const TenantSpec &t : tenants_)
        capTotal_ += t.queueCap;
    gqos_assert(capTotal_ > 0);
}

AdmitOutcome
AdmissionController::onArrival(int tenant, std::uint64_t seq,
                               Cycle now, double projected_service)
{
    gqos_assert(tenant >= 0 &&
                tenant < static_cast<int>(tenants_.size()));
    const TenantSpec &spec = tenants_[tenant];
    std::deque<QueuedRequest> &q = queues_[tenant];

    // Ladder sheds below-class traffic before any queue fills.
    if (spec.qosClass == QosClass::BestEffort && level_ >= 1)
        return AdmitOutcome::RejectedShed;
    if (spec.qosClass == QosClass::Elastic && level_ >= 3)
        return AdmitOutcome::RejectedShed;

    // Bounded queue: the only rejection path for Guaranteed. The
    // queue_overflow fault synthetically declares the queue full so
    // robustness runs exercise the backpressure path at will.
    if (q.size() >= spec.queueCap || faultAt("queue_overflow"))
        return AdmitOutcome::RejectedQueueFull;

    // Projected-attainment admission (Elastic at L2+): reject a
    // request whose completion, behind the queue it would join,
    // already projects past its deadline. A fault at
    // admission_project drops the estimate; the controller fails
    // open and admits on queue space alone.
    if (spec.qosClass == QosClass::Elastic && level_ >= 2 &&
        spec.sloCycles > 0 && projected_service > 0.0 &&
        !faultAt("admission_project")) {
        const double finish =
            static_cast<double>(q.size() + 1) * projected_service;
        if (finish > static_cast<double>(spec.sloCycles))
            return AdmitOutcome::RejectedProjected;
    }

    QueuedRequest req;
    req.seq = seq;
    req.arrival = now;
    req.deadline =
        spec.sloCycles > 0 ? now + spec.sloCycles : cycleNever;
    q.push_back(req);
    return AdmitOutcome::Admitted;
}

std::vector<QueuedRequest>
AdmissionController::expireAbandoned(int tenant, Cycle now)
{
    std::deque<QueuedRequest> &q = queues_[tenant];
    std::vector<QueuedRequest> dropped;
    while (!q.empty() && q.front().deadline <= now) {
        dropped.push_back(q.front());
        q.pop_front();
    }
    return dropped;
}

bool
AdmissionController::dispatchAllowed(int tenant) const
{
    const QosClass c = tenants_[tenant].qosClass;
    if (c == QosClass::Guaranteed)
        return true;
    if (c == QosClass::BestEffort)
        return level_ < 3;
    // Elastic: held at L2+ while Guaranteed work is waiting.
    return level_ < 2 || !guaranteedBacklogged();
}

const QueuedRequest *
AdmissionController::front(int tenant) const
{
    const std::deque<QueuedRequest> &q = queues_[tenant];
    return q.empty() ? nullptr : &q.front();
}

void
AdmissionController::popFront(int tenant)
{
    gqos_assert(!queues_[tenant].empty());
    queues_[tenant].pop_front();
}

bool
AdmissionController::updateLevel()
{
    const double frac = static_cast<double>(totalBacklog()) /
                        static_cast<double>(capTotal_);
    int next = level_;
    while (next < 3 && frac >= upFrac[next + 1])
        ++next;
    // Step down only once the backlog clears the hysteresis band
    // below the level's own threshold, so a backlog hovering at a
    // boundary cannot flap the ladder every tick.
    while (next > 0 && frac < upFrac[next] - downHysteresis)
        --next;
    if (next == level_)
        return false;
    level_ = next;
    return true;
}

std::size_t
AdmissionController::queueDepth(int tenant) const
{
    return queues_[tenant].size();
}

std::size_t
AdmissionController::totalBacklog() const
{
    std::size_t n = 0;
    for (const auto &q : queues_)
        n += q.size();
    return n;
}

std::vector<std::uint64_t>
AdmissionController::drainAll()
{
    std::vector<std::uint64_t> dropped(queues_.size(), 0);
    for (std::size_t i = 0; i < queues_.size(); ++i) {
        dropped[i] = queues_[i].size();
        queues_[i].clear();
    }
    return dropped;
}

bool
AdmissionController::guaranteedBacklogged() const
{
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        if (tenants_[i].qosClass == QosClass::Guaranteed &&
            !queues_[i].empty()) {
            return true;
        }
    }
    return false;
}

} // namespace gqos
