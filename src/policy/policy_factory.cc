/**
 * @file
 * Policy factory implementation.
 */

#include "policy/policy_factory.hh"

#include "common/logging.hh"
#include "policy/even_share.hh"
#include "policy/fine_grain_qos.hh"
#include "policy/spart.hh"

namespace gqos
{

Result<std::unique_ptr<SharingPolicy>>
makePolicy(const std::string &scheme, std::vector<QosSpec> specs,
           const GpuConfig &cfg)
{
    if (scheme == "even") {
        return std::unique_ptr<SharingPolicy>(
            std::make_unique<EvenSharePolicy>());
    }
    if (scheme == "spart") {
        return std::unique_ptr<SharingPolicy>(
            std::make_unique<SpartPolicy>(
                std::move(specs), cfg.epochLength));
    }

    FineGrainOptions opts;
    // "serving" is the online driver's default: rollover quota with
    // runtime TB adjustment off, so a tenant that is momentarily
    // idle (no queued request) keeps its reserved TB slots instead
    // of being starved out by the static allocator's grow/evict
    // feedback before its next arrival.
    std::string base =
        scheme == "serving" ? "rollover-nostatic" : scheme;
    auto strip = [&base](const std::string &suffix) {
        if (base.size() > suffix.size() &&
            base.compare(base.size() - suffix.size(),
                         suffix.size(), suffix) == 0) {
            base.erase(base.size() - suffix.size());
            return true;
        }
        return false;
    };
    if (strip("-nohist"))
        opts.quota.historyAdjust = false;
    if (strip("-nostatic"))
        opts.staticAlloc.runtimeAdjust = false;
    if (strip("-time"))
        opts.quota.timeMux = true;

    if (base == "naive") {
        opts.quota.scheme = QuotaScheme::Naive;
    } else if (base == "elastic") {
        opts.quota.scheme = QuotaScheme::Elastic;
    } else if (base == "rollover") {
        opts.quota.scheme = QuotaScheme::Rollover;
    } else {
        std::string known;
        for (const auto &n : knownPolicies())
            known += (known.empty() ? "" : ", ") + n;
        return Error::format(ErrorCode::NotFound,
                             "unknown policy '%s' (known: %s)",
                             scheme.c_str(), known.c_str());
    }

    return std::unique_ptr<SharingPolicy>(
        std::make_unique<FineGrainQosPolicy>(
            std::move(specs), opts, cfg.epochLength));
}

std::vector<std::string>
knownPolicies()
{
    return {"rollover", "elastic",  "naive",
            "rollover-time", "naive-nohist", "rollover-nohist",
            "rollover-nostatic", "serving", "spart", "even"};
}

} // namespace gqos
