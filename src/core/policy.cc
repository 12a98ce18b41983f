#include "core/policy.hh"

#include "cluster/topology.hh"
#include "core/workload_aware.hh"
#include "sim/logging.hh"

namespace polca::core {

namespace {
/** The paper selects uncap levels 5 % below the cap thresholds. */
constexpr double hysteresisGap = 0.05;
} // namespace

std::optional<PolicyConfig>
policyPreset(const std::string &name, const cluster::RowConfig &row,
             double t1, double t2, double t1LockMhz, double threshold)
{
    if (name == "polca")
        return PolicyConfig::polca(t1, t2, t1LockMhz);
    if (name == "1tlp")
        return PolicyConfig::oneThreshLowPri(threshold);
    if (name == "1tall")
        return PolicyConfig::oneThreshAll(threshold);
    if (name == "nocap")
        return PolicyConfig::noCap();
    if (name == "aware") {
        return workloadAwarePolicy(cluster::effectiveModelSpec(row),
                                   row.serverSpec.gpu);
    }
    if (name == "none")
        return PolicyConfig{};
    return std::nullopt;
}

std::string
policyPresetNames()
{
    return "polca|1tlp|1tall|nocap|aware|none";
}

PolicyConfig
PolicyConfig::polca(double t1, double t2, double t1LockMhz)
{
    PolicyConfig config;
    config.name = "POLCA";
    config.rules = {
        {"T1", workload::Priority::Low, t1, t1 - hysteresisGap,
         t1LockMhz},
        {"T2-LP", workload::Priority::Low, t2, t2 - hysteresisGap,
         1110.0},
        {"T2-HP", workload::Priority::High, t2, t2 - hysteresisGap,
         1305.0},
    };
    config.validate();
    return config;
}

PolicyConfig
PolicyConfig::oneThreshLowPri(double threshold)
{
    PolicyConfig config;
    config.name = "1-Thresh-Low-Pri";
    config.rules = {
        {"T", workload::Priority::Low, threshold,
         threshold - hysteresisGap, 1110.0},
    };
    config.validate();
    return config;
}

PolicyConfig
PolicyConfig::oneThreshAll(double threshold)
{
    PolicyConfig config;
    config.name = "1-Thresh-All";
    config.rules = {
        {"T-LP", workload::Priority::Low, threshold,
         threshold - hysteresisGap, 1110.0},
        {"T-HP", workload::Priority::High, threshold,
         threshold - hysteresisGap, 1110.0},
    };
    config.validate();
    return config;
}

PolicyConfig
PolicyConfig::noCap()
{
    PolicyConfig config;
    config.name = "No-cap";
    config.validate();
    return config;
}

void
PolicyConfig::validate() const
{
    for (const auto &rule : rules) {
        if (rule.capFraction <= 0.0 || rule.capFraction > 1.5) {
            sim::fatal("PolicyConfig '", name, "': rule '", rule.name,
                       "' trigger ", rule.capFraction, " out of range");
        }
        if (rule.uncapFraction >= rule.capFraction) {
            sim::fatal("PolicyConfig '", name, "': rule '", rule.name,
                       "' release must sit below its trigger");
        }
        if (rule.lockMhz <= 0.0) {
            sim::fatal("PolicyConfig '", name, "': rule '", rule.name,
                       "' has non-positive lock frequency");
        }
    }
    if (powerBrakeReleaseFraction >= powerBrakeFraction) {
        sim::fatal("PolicyConfig '", name,
                   "': brake release must sit below the brake trigger");
    }
}

} // namespace polca::core
