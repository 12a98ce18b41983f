#include "config/scenario.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory>
#include <sstream>
#include <type_traits>

#include "core/thread_pool.hh"
#include "core/workload_aware.hh"
#include "obs/manifest.hh"

namespace polca::config {

namespace {

/** Top-level sections a scenario file may contain. */
const std::vector<std::string> &
topLevelSections()
{
    static const std::vector<std::string> sections = {
        "experiment", "row",    "model",    "policy", "manager",
        "workload",   "faults", "chaos",    "safety", "obs",
        "sweep",      "topology",
    };
    return sections;
}

bool
requireKeys(const ConfigNode &section, const std::string &what,
            const std::vector<std::string> &keys, Diagnostics &diag)
{
    bool ok = true;
    for (const std::string &key : keys) {
        if (!section.has(key)) {
            diag.error(section.loc, what + ": missing required key '" +
                       key + "'");
            ok = false;
        }
    }
    return ok;
}

/** Read an optional scalar string field like `preset = "polca"`. */
bool
optionalString(const ConfigNode &section, const std::string &key,
               std::string &out, Diagnostics &diag)
{
    const ConfigNode *node = section.find(key);
    if (!node)
        return true;
    if (node->kind != ConfigNode::Kind::Scalar) {
        diag.error(node->loc, "'" + key + "' must be a string");
        return false;
    }
    std::string err;
    if (!parseStringToken(node->raw, out, err)) {
        diag.error(node->loc, key + ": " + err);
        return false;
    }
    return true;
}

bool
optionalNumber(const ConfigNode &section, const std::string &key,
               Unit unit, double &out, Diagnostics &diag)
{
    const ConfigNode *node = section.find(key);
    if (!node)
        return true;
    if (node->kind != ConfigNode::Kind::Scalar) {
        diag.error(node->loc, "'" + key + "' must be a number");
        return false;
    }
    std::string err;
    if (!parseNumberToken(node->raw, unit, out, err)) {
        diag.error(node->loc, key + ": " + err);
        return false;
    }
    return true;
}

bool
bindRow(const ConfigNode &rowSection, cluster::RowConfig &row,
        Diagnostics &diag)
{
    bool ok = rowConfigSchema().apply(rowSection, row, diag,
                                      {"server"});

    if (const ConfigNode *server = rowSection.find("server")) {
        if (server->kind != ConfigNode::Kind::Section) {
            diag.error(server->loc, "[row.server] must be a section");
            return false;
        }
        std::string preset;
        if (!optionalString(*server, "preset", preset, diag))
            ok = false;
        if (!preset.empty()) {
            if (preset == "DGX-A100-80GB") {
                row.serverSpec = power::ServerSpec::dgxA100_80gb();
            } else if (preset == "DGX-A100-40GB") {
                row.serverSpec = power::ServerSpec::dgxA100_40gb();
            } else if (preset == "DGX-H100") {
                row.serverSpec = power::ServerSpec::dgxH100();
            } else {
                diag.error(server->find("preset")->loc,
                           "unknown server preset '" + preset +
                           "' (use DGX-A100-80GB|DGX-A100-40GB|"
                           "DGX-H100)");
                ok = false;
            }
        }
        if (!serverSpecSchema().apply(*server, row.serverSpec, diag,
                                      {"preset", "gpu"}))
            ok = false;

        if (const ConfigNode *gpu = server->find("gpu")) {
            if (gpu->kind != ConfigNode::Kind::Section) {
                diag.error(gpu->loc,
                           "[row.server.gpu] must be a section");
                return false;
            }
            std::string gpuPreset;
            if (!optionalString(*gpu, "preset", gpuPreset, diag))
                ok = false;
            if (!gpuPreset.empty()) {
                if (gpuPreset == "A100-80GB" ||
                    gpuPreset == "A100-40GB" ||
                    gpuPreset == "H100-80GB") {
                    row.serverSpec.gpu =
                        power::GpuSpec::byName(gpuPreset);
                } else {
                    diag.error(gpu->find("preset")->loc,
                               "unknown GPU preset '" + gpuPreset +
                               "' (use A100-80GB|A100-40GB|"
                               "H100-80GB)");
                    ok = false;
                }
            }
            if (!gpuSpecSchema().apply(*gpu, row.serverSpec.gpu, diag,
                                       {"preset"}))
                ok = false;
        }
    }
    return ok;
}

bool
bindModel(const ConfigNode &root, cluster::RowConfig &row,
          Diagnostics &diag)
{
    llm::ModelCatalog catalog;
    const ConfigNode *model = root.find("model");
    if (!model) {
        if (!row.modelOverride && !catalog.contains(row.modelName)) {
            const ConfigNode *rowSection = root.find("row");
            diag.error(rowSection ? rowSection->loc : SourceLoc{},
                       "row.model: unknown model '" + row.modelName +
                       "' (not in the Table 3 catalog; add a [model] "
                       "section to define it)");
            return false;
        }
        return true;
    }
    if (model->kind != ConfigNode::Kind::Section) {
        diag.error(model->loc, "[model] must be a section");
        return false;
    }

    bool ok = true;
    std::string preset = catalog.contains(row.modelName)
        ? row.modelName : std::string();
    if (!optionalString(*model, "preset", preset, diag))
        ok = false;
    llm::ModelSpec spec;
    if (!preset.empty()) {
        if (!catalog.contains(preset)) {
            const ConfigNode *presetNode = model->find("preset");
            diag.error(presetNode ? presetNode->loc : model->loc,
                       "unknown model preset '" + preset + "'");
            return false;
        }
        spec = catalog.byName(preset);
    } else {
        // No catalog base: every field must be given explicitly.
        spec = llm::ModelSpec{};
        if (!requireKeys(*model, "[model] (no catalog preset)",
                         modelSpecSchema().keys(), diag))
            ok = false;
    }
    if (!modelSpecSchema().apply(*model, spec, diag, {"preset"}))
        ok = false;
    if (ok) {
        row.modelOverride = spec;
        row.modelName = spec.name;
    }
    return ok;
}

bool
bindPolicy(const ConfigNode &root, const cluster::RowConfig &row,
           core::PolicyConfig &policy, Diagnostics &diag)
{
    const ConfigNode *section = root.find("policy");
    if (!section)
        return true;  // keep the ExperimentConfig default (POLCA)
    if (section->kind != ConfigNode::Kind::Section) {
        diag.error(section->loc, "[policy] must be a section");
        return false;
    }

    bool ok = true;
    std::string preset = "polca";
    if (!optionalString(*section, "preset", preset, diag))
        ok = false;

    double t1 = 0.80, t2 = 0.89, t1LockMhz = 1275.0;
    double threshold = 0.89;
    bool hasPolcaParams = section->has("t1") || section->has("t2") ||
        section->has("t1_lock_mhz");
    bool hasThreshold = section->has("threshold");
    if (!optionalNumber(*section, "t1", Unit::Fraction, t1, diag))
        ok = false;
    if (!optionalNumber(*section, "t2", Unit::Fraction, t2, diag))
        ok = false;
    if (!optionalNumber(*section, "t1_lock_mhz", Unit::Megahertz,
                        t1LockMhz, diag))
        ok = false;
    if (!optionalNumber(*section, "threshold", Unit::Fraction,
                        threshold, diag))
        ok = false;

    if (preset == "polca") {
        policy = core::PolicyConfig::polca(t1, t2, t1LockMhz);
    } else if (preset == "1tlp") {
        policy = core::PolicyConfig::oneThreshLowPri(threshold);
    } else if (preset == "1tall") {
        policy = core::PolicyConfig::oneThreshAll(threshold);
    } else if (preset == "nocap") {
        policy = core::PolicyConfig::noCap();
    } else if (preset == "aware") {
        policy = core::workloadAwarePolicy(cluster::effectiveModelSpec(row));
    } else if (preset == "none") {
        policy = core::PolicyConfig{};
    } else {
        const ConfigNode *presetNode = section->find("preset");
        diag.error(presetNode ? presetNode->loc : section->loc,
                   "unknown policy preset '" + preset +
                   "' (use polca|1tlp|1tall|nocap|aware|none)");
        return false;
    }
    if (hasPolcaParams && preset != "polca") {
        diag.error(section->loc, "policy t1/t2/t1_lock_mhz only apply "
                   "to the polca preset (got '" + preset + "')");
        ok = false;
    }
    if (hasThreshold && preset != "1tlp" && preset != "1tall") {
        diag.error(section->loc, "policy threshold only applies to "
                   "the 1tlp/1tall presets (got '" + preset + "')");
        ok = false;
    }

    if (!policyConfigSchema().apply(
            *section, policy, diag,
            {"preset", "t1", "t2", "t1_lock_mhz", "threshold",
             "rules"}))
        ok = false;

    if (const ConfigNode *rules = section->find("rules")) {
        if (rules->kind != ConfigNode::Kind::List) {
            diag.error(rules->loc, "policy.rules must be a list of "
                       "[[policy.rules]] tables");
            return false;
        }
        policy.rules.clear();
        for (const ConfigNode &item : rules->items) {
            if (item.kind != ConfigNode::Kind::Section) {
                diag.error(item.loc, "[[policy.rules]] entries must "
                           "be tables");
                ok = false;
                continue;
            }
            core::ThresholdRule rule{};
            if (!requireKeys(item, "[[policy.rules]]",
                             thresholdRuleSchema().keys(), diag) ||
                !thresholdRuleSchema().apply(item, rule, diag)) {
                ok = false;
                continue;
            }
            if (rule.uncapFraction >= rule.capFraction) {
                diag.error(item.loc, "policy rule '" + rule.name +
                           "': uncap_at must sit below cap_at");
                ok = false;
            }
            policy.rules.push_back(rule);
        }
    }

    if (policy.powerBrakeReleaseFraction >=
        policy.powerBrakeFraction) {
        diag.error(section->loc, "policy: "
                   "power_brake_release_fraction must sit below "
                   "power_brake_fraction");
        ok = false;
    }
    return ok;
}

bool
bindWorkload(const ConfigNode &root, core::ExperimentConfig &config,
             Diagnostics &diag)
{
    const ConfigNode *section = root.find("workload");
    if (!section)
        return true;
    if (section->kind != ConfigNode::Kind::Section) {
        diag.error(section->loc, "[workload] must be a section");
        return false;
    }

    bool ok = true;
    for (const auto &[key, node] : section->entries) {
        if (key == "diurnal") {
            if (!diurnalSchema().apply(node, config.diurnal, diag))
                ok = false;
        } else if (key == "mix") {
            if (node.kind != ConfigNode::Kind::List) {
                diag.error(node.loc, "workload.mix must be a list of "
                           "[[workload.mix]] tables");
                ok = false;
                continue;
            }
            std::vector<workload::WorkloadSpec> mix;
            double totalTraffic = 0.0;
            for (const ConfigNode &item : node.items) {
                if (item.kind != ConfigNode::Kind::Section) {
                    diag.error(item.loc, "[[workload.mix]] entries "
                               "must be tables");
                    ok = false;
                    continue;
                }
                workload::WorkloadSpec spec{};
                if (!requireKeys(item, "[[workload.mix]]",
                                 workloadSpecSchema().keys(), diag) ||
                    !workloadSpecSchema().apply(item, spec, diag)) {
                    ok = false;
                    continue;
                }
                if (spec.promptMax < spec.promptMin ||
                    spec.outputMax < spec.outputMin) {
                    diag.error(item.loc, "workload '" + spec.name +
                               "': max token counts must be >= min");
                    ok = false;
                }
                totalTraffic += spec.trafficFraction;
                mix.push_back(spec);
            }
            if (ok && !mix.empty()) {
                if (std::abs(totalTraffic - 1.0) > 1e-3) {
                    diag.error(node.loc, "workload.mix traffic "
                               "fractions sum to " +
                               formatDouble(totalTraffic) +
                               ", expected 1");
                    ok = false;
                } else {
                    config.mix = std::move(mix);
                }
            }
        } else {
            std::string near =
                nearestKey(key, {"diurnal", "mix"});
            diag.error(node.loc, "unknown key '" + key +
                       "' in [workload]" +
                       (near.empty() ? ""
                                     : " (did you mean '" + near +
                                           "'?)"));
            ok = false;
        }
    }
    return ok;
}

bool
bindFaults(const ConfigNode &root, core::ExperimentConfig &config,
           Diagnostics &diag)
{
    const ConfigNode *section = root.find("faults");
    if (!section)
        return true;
    if (section->kind != ConfigNode::Kind::Section) {
        diag.error(section->loc, "[faults] must be a section");
        return false;
    }

    bool ok = true;
    std::string scenario;
    if (!optionalString(*section, "scenario", scenario, diag))
        ok = false;
    if (!scenario.empty()) {
        const std::vector<std::string> &names =
            faults::scenarioNames();
        if (std::find(names.begin(), names.end(), scenario) ==
            names.end()) {
            std::string near = nearestKey(scenario, names);
            diag.error(section->find("scenario")->loc,
                       "unknown fault scenario '" + scenario + "'" +
                       (near.empty() ? ""
                                     : " (did you mean '" + near +
                                           "'?)"));
            return false;
        }
        int deployed = static_cast<int>(std::lround(
            config.row.baseServers *
            (1.0 + config.row.addedServerFraction)));
        config.faultPlan = faults::scenarioByName(
            scenario, config.duration, deployed);
    }

    // Explicit windows/settings extend (or refine) the preset.
    for (const auto &[key, node] : section->entries) {
        if (key == "scenario")
            continue;
        if (key == "bursty_loss") {
            if (!burstyLossSchema().apply(
                    node, config.faultPlan.burstyLoss, diag))
                ok = false;
            continue;
        }
        // Per-entry degeneracy checks run at the entry's own source
        // line; cross-entry problems (overlaps) are reported against
        // the section after binding.
        auto bindList = [&](auto &plan, const auto &schema,
                            auto check) {
            if (node.kind != ConfigNode::Kind::List) {
                diag.error(node.loc, "faults." + key +
                           " must be a list of [[faults." + key +
                           "]] tables");
                ok = false;
                return;
            }
            for (const ConfigNode &item : node.items) {
                if (item.kind != ConfigNode::Kind::Section) {
                    diag.error(item.loc, "[[faults." + key +
                               "]] entries must be tables");
                    ok = false;
                    continue;
                }
                typename std::remove_reference_t<
                    decltype(plan)>::value_type entry{};
                if (!requireKeys(item, "[[faults." + key + "]]",
                                 schema.keys(), diag) ||
                    !schema.apply(item, entry, diag)) {
                    ok = false;
                    continue;
                }
                std::string problem = check(entry);
                if (!problem.empty()) {
                    diag.error(item.loc, "[[faults." + key + "]]: " +
                               problem);
                    ok = false;
                    continue;
                }
                plan.push_back(entry);
            }
        };
        auto windowCheck = [](const auto &entry) -> std::string {
            if (entry.duration <= 0)
                return "zero-length window (duration must be > 0)";
            return {};
        };
        if (key == "blackouts") {
            bindList(config.faultPlan.blackouts, blackoutSchema(),
                     windowCheck);
        } else if (key == "sensor_faults") {
            bindList(config.faultPlan.sensorFaults,
                     sensorFaultSchema(), windowCheck);
        } else if (key == "oob_outages") {
            bindList(config.faultPlan.oobOutages, oobOutageSchema(),
                     windowCheck);
        } else if (key == "crashes") {
            bindList(config.faultPlan.crashes, serverCrashSchema(),
                     [](const faults::ServerCrash &crash)
                         -> std::string {
                         if (crash.permanent && crash.downtime != 0)
                             return "a permanent crash must not set "
                                    "a downtime";
                         if (!crash.permanent && crash.downtime <= 0)
                             return "crash has no restart; set "
                                    "permanent = true to "
                                    "deliberately leave the server "
                                    "dark";
                         return {};
                     });
        } else if (key == "controller_crashes") {
            bindList(config.faultPlan.controllerCrashes,
                     controllerCrashSchema(),
                     [](const faults::ControllerCrash &crash)
                         -> std::string {
                         if (crash.downtime <= 0)
                             return "controller crash has no restart "
                                    "(downtime must be > 0)";
                         return {};
                     });
        } else {
            std::string near = nearestKey(
                key, {"scenario", "bursty_loss", "blackouts",
                      "sensor_faults", "oob_outages", "crashes",
                      "controller_crashes"});
            diag.error(node.loc, "unknown key '" + key +
                       "' in [faults]" +
                       (near.empty() ? ""
                                     : " (did you mean '" + near +
                                           "'?)"));
            ok = false;
        }
    }
    // Cross-entry problems (overlapping windows, crash-while-down)
    // span multiple source lines, so they anchor on the section.
    if (ok) {
        for (const std::string &problem :
             config.faultPlan.problems()) {
            diag.error(section->loc, "[faults]: " + problem);
            ok = false;
        }
    }
    return ok;
}

/** True when the group name is safe inside a dotted metric path. */
bool
validGroupName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '_'))
            return false;
    }
    return true;
}

bool
bindTopology(const ConfigNode &root, core::ExperimentConfig &config,
             Diagnostics &diag)
{
    const ConfigNode *section = root.find("topology");
    if (!section)
        return true;
    if (section->kind != ConfigNode::Kind::Section) {
        diag.error(section->loc, "[topology] must be a section");
        return false;
    }

    bool ok = topologyConfigSchema().apply(*section, config.topology,
                                           diag, {"rows"});

    if (const ConfigNode *rows = section->find("rows")) {
        if (rows->kind != ConfigNode::Kind::List) {
            diag.error(rows->loc, "topology.rows must be a list of "
                       "[[topology.rows]] tables");
            return false;
        }
        llm::ModelCatalog catalog;
        config.topology.groups.clear();
        for (const ConfigNode &item : rows->items) {
            if (item.kind != ConfigNode::Kind::Section) {
                diag.error(item.loc, "[[topology.rows]] entries must "
                           "be tables");
                ok = false;
                continue;
            }
            cluster::TopologyRowGroup group{};
            if (!topologyRowGroupSchema().apply(item, group, diag)) {
                ok = false;
                continue;
            }
            if (!validGroupName(group.name)) {
                diag.error(item.loc, "[[topology.rows]] name '" +
                           group.name + "' must be lowercase "
                           "[a-z0-9_] (it becomes a metric-path "
                           "segment)");
                ok = false;
            }
            if (group.server != "DGX-A100-80GB" &&
                group.server != "DGX-A100-40GB" &&
                group.server != "DGX-H100") {
                diag.error(item.loc, "[[topology.rows]] '" +
                           group.name + "': unknown server preset '" +
                           group.server + "' (use DGX-A100-80GB|"
                           "DGX-A100-40GB|DGX-H100)");
                ok = false;
            }
            if (!catalog.contains(group.model)) {
                diag.error(item.loc, "[[topology.rows]] '" +
                           group.name + "': unknown model '" +
                           group.model + "' (not in the Table 3 "
                           "catalog)");
                ok = false;
            }
            for (const cluster::TopologyRowGroup &other :
                 config.topology.groups) {
                if (other.name == group.name) {
                    diag.error(item.loc, "[[topology.rows]] "
                               "duplicate group name '" + group.name +
                               "'");
                    ok = false;
                }
            }
            config.topology.groups.push_back(group);
        }
    }

    if (config.topology.enabled) {
        if (config.topology.groups.empty()) {
            diag.error(section->loc, "[topology]: enabled without "
                       "any [[topology.rows]] groups");
            ok = false;
        }
        // Site mode runs many serving cells; the single-row fault
        // and chaos machinery does not apply to it (yet).  Reject
        // *armed* plans rather than section presence so a resolved
        // dump (which always emits [chaos]) still reparses.
        const faults::FaultPlan &plan = config.faultPlan;
        bool hasFaults = plan.burstyLoss.enabled ||
            !plan.blackouts.empty() || !plan.sensorFaults.empty() ||
            !plan.oobOutages.empty() || !plan.crashes.empty() ||
            !plan.controllerCrashes.empty();
        if (hasFaults) {
            diag.error(section->loc, "[topology]: site mode does not "
                       "support fault injection ([faults])");
            ok = false;
        }
        if (config.chaos.enabled) {
            diag.error(section->loc, "[topology]: site mode does not "
                       "support chaos generation ([chaos])");
            ok = false;
        }
    }
    return ok;
}

} // namespace

bool
bindExperiment(const ConfigNode &root, core::ExperimentConfig &config,
               Diagnostics &diag)
{
    if (root.kind != ConfigNode::Kind::Section) {
        diag.error(root.loc, "scenario root must be a section");
        return false;
    }

    bool ok = true;
    for (const auto &[key, node] : root.entries) {
        const std::vector<std::string> &known = topLevelSections();
        if (std::find(known.begin(), known.end(), key) ==
            known.end()) {
            std::string near = nearestKey(key, known);
            diag.error(node.loc, "unknown top-level " +
                       std::string(node.kind ==
                                           ConfigNode::Kind::Section
                                       ? "section ["
                                       : "entry [") + key + "]" +
                       (near.empty() ? ""
                                     : " (did you mean '" + near +
                                           "'?)"));
            ok = false;
        }
    }

    if (const ConfigNode *experiment = root.find("experiment")) {
        if (!experimentSchema().apply(*experiment, config, diag))
            ok = false;
    }
    if (const ConfigNode *row = root.find("row")) {
        if (!bindRow(*row, config.row, diag))
            ok = false;
    }
    if (!bindModel(root, config.row, diag))
        ok = false;
    if (!bindPolicy(root, config.row, config.policy, diag))
        ok = false;
    if (const ConfigNode *manager = root.find("manager")) {
        if (!managerOptionsSchema().apply(*manager, config.manager,
                                          diag))
            ok = false;
    }
    if (!bindWorkload(root, config, diag))
        ok = false;
    if (!bindFaults(root, config, diag))
        ok = false;
    if (const ConfigNode *chaos = root.find("chaos")) {
        if (!chaosConfigSchema().apply(*chaos, config.chaos, diag)) {
            ok = false;
        } else {
            // Range sanity the per-field bounds cannot express.
            auto checkRange = [&](const char *what, sim::Tick min,
                                  sim::Tick max) {
                if (min > max) {
                    diag.error(chaos->loc,
                               std::string("[chaos]: ") + what +
                               " duration range is inverted "
                               "(min > max)");
                    ok = false;
                }
            };
            const faults::ChaosConfig &c = config.chaos;
            checkRange("blackout", c.blackoutDurationMin,
                       c.blackoutDurationMax);
            checkRange("sensor-fault", c.sensorFaultDurationMin,
                       c.sensorFaultDurationMax);
            checkRange("oob-outage", c.oobOutageDurationMin,
                       c.oobOutageDurationMax);
            checkRange("crash-downtime", c.crashDowntimeMin,
                       c.crashDowntimeMax);
            checkRange("controller-downtime",
                       c.controllerDowntimeMin,
                       c.controllerDowntimeMax);
        }
    }
    if (const ConfigNode *safety = root.find("safety")) {
        if (!safetyOptionsSchema().apply(*safety, config.safety,
                                         diag))
            ok = false;
    }
    if (const ConfigNode *obsSection = root.find("obs")) {
        if (!obsOptionsSchema().apply(*obsSection, config.obsOptions,
                                      diag))
            ok = false;
    }
    // After [faults]/[chaos]: site mode rejects armed plans.
    if (!bindTopology(root, config, diag))
        ok = false;
    return ok;
}

namespace {

/** Pretty value of a scalar for sweep labels (strings unquoted). */
std::string
labelValue(const ConfigNode &scalar)
{
    std::string out, err;
    if (!scalar.raw.empty() && scalar.raw.front() == '"' &&
        parseStringToken(scalar.raw, out, err))
        return out;
    return scalar.raw;
}

struct SweepAxis
{
    std::string path;
    std::vector<ConfigNode> values;
};

/** Parse the reserved [sweep] `jobs` key: a non-negative integer
 *  scalar (0 = one worker per hardware thread). */
void
parseSweepJobs(const ConfigNode &node, int &jobs, Diagnostics &diag)
{
    if (node.kind != ConfigNode::Kind::Scalar) {
        diag.error(node.loc,
                   "[sweep] jobs must be a single integer "
                   "(it selects parallelism, it is not an axis)");
        return;
    }
    const std::string &raw = node.raw;
    int value = 0;
    auto [ptr, ec] = std::from_chars(raw.data(),
                                     raw.data() + raw.size(), value);
    if (ec != std::errc() || ptr != raw.data() + raw.size() ||
        value < 0) {
        diag.error(node.loc, "[sweep] jobs: expected a non-negative "
                   "integer, got '" + raw + "'");
        return;
    }
    jobs = value == 0
        ? static_cast<int>(core::ThreadPool::defaultWorkerCount())
        : value;
}

/** Parse the reserved [sweep] `branch` key: a boolean scalar. */
void
parseSweepBranch(const ConfigNode &node, bool &branch,
                 Diagnostics &diag)
{
    if (node.kind == ConfigNode::Kind::Scalar &&
        (node.raw == "true" || node.raw == "false")) {
        branch = node.raw == "true";
        return;
    }
    diag.error(node.loc,
               "[sweep] branch must be true or false "
               "(it selects checkpoint/branch execution, it is "
               "not an axis)");
}

std::vector<SweepAxis>
extractSweepAxes(ConfigNode &root, int &jobs, bool &branch,
                 Diagnostics &diag)
{
    std::vector<SweepAxis> axes;
    ConfigNode *sweep = root.find("sweep");
    if (!sweep)
        return axes;
    if (sweep->kind != ConfigNode::Kind::Section) {
        diag.error(sweep->loc, "[sweep] must be a section");
        return axes;
    }
    // Reserved `warmup` key, applied to experiment.warmup after the
    // [sweep] section is removed below.
    std::unique_ptr<ConfigNode> warmup;
    for (auto &[path, node] : sweep->entries) {
        if (path == "jobs") {
            parseSweepJobs(node, jobs, diag);
            continue;
        }
        if (path == "branch") {
            parseSweepBranch(node, branch, diag);
            continue;
        }
        if (path == "warmup") {
            if (node.kind != ConfigNode::Kind::Scalar) {
                diag.error(node.loc,
                           "[sweep] warmup must be a single "
                           "duration (it sets the shared prefix "
                           "every point branches from, it is not "
                           "an axis; sweep experiment.warmup to "
                           "vary it)");
                continue;
            }
            warmup = std::make_unique<ConfigNode>(node);
            continue;
        }
        SweepAxis axis;
        axis.path = path;
        if (node.kind == ConfigNode::Kind::Scalar) {
            axis.values.push_back(node);
        } else if (node.kind == ConfigNode::Kind::List) {
            if (node.items.empty()) {
                diag.error(node.loc, "sweep axis '" + path +
                           "' has no values");
                continue;
            }
            for (const ConfigNode &item : node.items) {
                if (item.kind != ConfigNode::Kind::Scalar) {
                    diag.error(item.loc, "sweep axis '" + path +
                               "' values must be scalars");
                    continue;
                }
                axis.values.push_back(item);
            }
        } else {
            diag.error(node.loc, "sweep axis '" + path +
                       "' must be a scalar or a list");
            continue;
        }
        axes.push_back(std::move(axis));
    }

    // Remove [sweep] so point trees bind cleanly.
    root.entries.erase(
        std::remove_if(root.entries.begin(), root.entries.end(),
                       [](const auto &e) {
                           return e.first == "sweep";
                       }),
        root.entries.end());

    if (warmup) {
        ConfigNode scalar = *warmup;
        scalar.origin = "sweep";
        root.setPath("experiment.warmup", std::move(scalar), diag);
    }
    return axes;
}

/** Overrides + sweep expansion + binding, shared by both loaders. */
ScenarioSet
expandAndBind(ConfigNode root, const std::string &name,
              const std::vector<std::string> &overrides,
              Diagnostics &diag)
{
    ScenarioSet set;
    set.name = name;

    for (const std::string &override_ : overrides) {
        std::size_t eq = override_.find('=');
        if (eq == std::string::npos || eq == 0) {
            diag.error("--set '" + override_ +
                       "': expected path=value");
            continue;
        }
        std::string path = override_.substr(0, eq);
        std::string value = override_.substr(eq + 1);
        if (value.empty()) {
            diag.error("--set " + path + ": empty value");
            continue;
        }
        ConfigNode scalar = makeScalar(value, "cli");
        scalar.loc.file = "--set " + override_;
        root.setPath(path, std::move(scalar), diag);
    }
    if (!diag.ok())
        return set;

    std::vector<SweepAxis> axes =
        extractSweepAxes(root, set.jobs, set.branch, diag);
    if (!diag.ok())
        return set;

    std::size_t total = 1;
    for (const SweepAxis &axis : axes) {
        total *= axis.values.size();
        if (total > 4096) {
            diag.error("sweep expands to more than 4096 points");
            return set;
        }
    }

    for (std::size_t index = 0; index < total; ++index) {
        ResolvedScenario point;
        point.tree = root;
        std::size_t remainder = index;
        for (const SweepAxis &axis : axes) {
            const ConfigNode &value =
                axis.values[remainder % axis.values.size()];
            remainder /= axis.values.size();
            ConfigNode scalar = value;
            scalar.origin = "sweep";
            point.tree.setPath(axis.path, std::move(scalar), diag);
            point.label += (point.label.empty() ? "" : ",") +
                axis.path + "=" + labelValue(value);
        }
        if (!diag.ok())
            return set;
        if (!bindExperiment(point.tree, point.config, diag))
            return set;
        set.points.push_back(std::move(point));
    }
    return set;
}

} // namespace

ScenarioSet
loadScenarioString(const std::string &text, const std::string &name,
                   const std::vector<std::string> &overrides,
                   Diagnostics &diag)
{
    ConfigNode root = parseConfigString(text, name, diag);
    if (!diag.ok()) {
        ScenarioSet set;
        set.name = name;
        return set;
    }
    return expandAndBind(std::move(root), name, overrides, diag);
}

ScenarioSet
loadScenarioFile(const std::string &path,
                 const std::vector<std::string> &overrides,
                 Diagnostics &diag)
{
    std::string stem = path;
    std::size_t slash = stem.find_last_of('/');
    if (slash != std::string::npos)
        stem = stem.substr(slash + 1);
    std::size_t dot = stem.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        stem = stem.substr(0, dot);

    ConfigNode root = parseConfigFile(path, diag);
    if (!diag.ok()) {
        ScenarioSet set;
        set.name = stem;
        return set;
    }
    return expandAndBind(std::move(root), stem, overrides, diag);
}

namespace {

/** Section header + schema dump with provenance from the source
 *  tree. */
template <typename T>
void
dumpSection(std::ostream &os, const std::string &header, const T &obj,
            const StructSchema<T> &schema, const ConfigNode &source,
            const std::string &sourcePath,
            const std::string &fallbackOrigin = "default")
{
    os << "[" << header << "]\n";
    const ConfigNode *section = source.findPath(sourcePath);
    schema.dump(obj, section, os, fallbackOrigin);
    os << "\n";
}

/** Array-of-tables dump: one [[header]] block per element. */
template <typename T>
void
dumpBlocks(std::ostream &os, const std::string &header,
           const std::vector<T> &items, const StructSchema<T> &schema,
           const ConfigNode &source, const std::string &sourcePath,
           const std::string &fallbackOrigin)
{
    const ConfigNode *list = source.findPath(sourcePath);
    for (std::size_t i = 0; i < items.size(); ++i) {
        const ConfigNode *element = nullptr;
        if (list && list->kind == ConfigNode::Kind::List &&
            i < list->items.size() &&
            list->items[i].kind == ConfigNode::Kind::Section)
            element = &list->items[i];
        os << "[[" << header << "]]\n";
        schema.dump(items[i], element, os, fallbackOrigin);
        os << "\n";
    }
}

} // namespace

void
dumpResolved(const core::ExperimentConfig &config,
             const ConfigNode &source, std::ostream &os)
{
    os << "# polcasim effective configuration (fully resolved: "
          "defaults + file + CLI + sweep)\n"
          "# Provenance per value: default | <file>:<line> | cli | "
          "sweep | preset:<name>\n"
          "# Rerun with: polcactl run --scenario-file <this file>\n"
          "\n";

    dumpSection(os, "experiment", config, experimentSchema(), source,
                "experiment");
    dumpSection(os, "row", config.row, rowConfigSchema(), source,
                "row");
    dumpSection(os, "row.server", config.row.serverSpec,
                serverSpecSchema(), source, "row.server",
                "preset:" + config.row.serverSpec.name);
    dumpSection(os, "row.server.gpu", config.row.serverSpec.gpu,
                gpuSpecSchema(), source, "row.server.gpu",
                "preset:" + config.row.serverSpec.gpu.name);

    llm::ModelSpec model = cluster::effectiveModelSpec(config.row);
    dumpSection(os, "model", model, modelSpecSchema(), source,
                "model", "catalog:" + model.name);

    // Policy: dump preset "none" plus the explicit resolved rules so
    // reparsing rebuilds the exact rule set with no preset involved.
    os << "[policy]\n";
    os << "preset = \"none\"  # resolved\n";
    {
        const ConfigNode *section = source.findPath("policy");
        std::string fallback = "preset";
        if (section) {
            if (const ConfigNode *preset = section->find("preset"))
                fallback = "preset (" + preset->origin + ")";
        }
        policyConfigSchema().dump(config.policy, section, os,
                                  section ? fallback : "default");
    }
    os << "\n";
    dumpBlocks(os, "policy.rules", config.policy.rules,
               thresholdRuleSchema(), source, "policy.rules",
               "preset:" + config.policy.name);

    dumpSection(os, "manager", config.manager,
                managerOptionsSchema(), source, "manager");
    dumpSection(os, "workload.diurnal", config.diurnal,
                diurnalSchema(), source, "workload.diurnal");
    dumpBlocks(os, "workload.mix", config.mix, workloadSpecSchema(),
               source, "workload.mix", "default");

    const faults::FaultPlan &plan = config.faultPlan;
    std::string faultFallback = "default";
    if (const ConfigNode *faultsSection = source.findPath("faults")) {
        if (const ConfigNode *scenario =
                faultsSection->find("scenario")) {
            std::string name, err;
            if (parseStringToken(scenario->raw, name, err))
                faultFallback = "preset:" + name;
        }
    }
    dumpSection(os, "faults.bursty_loss", plan.burstyLoss,
                burstyLossSchema(), source, "faults.bursty_loss",
                faultFallback);
    dumpBlocks(os, "faults.blackouts", plan.blackouts,
               blackoutSchema(), source, "faults.blackouts",
               faultFallback);
    dumpBlocks(os, "faults.sensor_faults", plan.sensorFaults,
               sensorFaultSchema(), source, "faults.sensor_faults",
               faultFallback);
    dumpBlocks(os, "faults.oob_outages", plan.oobOutages,
               oobOutageSchema(), source, "faults.oob_outages",
               faultFallback);
    dumpBlocks(os, "faults.crashes", plan.crashes,
               serverCrashSchema(), source, "faults.crashes",
               faultFallback);
    dumpBlocks(os, "faults.controller_crashes", plan.controllerCrashes,
               controllerCrashSchema(), source,
               "faults.controller_crashes", faultFallback);

    dumpSection(os, "chaos", config.chaos, chaosConfigSchema(),
                source, "chaos");
    dumpSection(os, "safety", config.safety, safetyOptionsSchema(),
                source, "safety");
    dumpSection(os, "obs", config.obsOptions, obsOptionsSchema(),
                source, "obs");
    dumpSection(os, "topology", config.topology,
                topologyConfigSchema(), source, "topology");
    dumpBlocks(os, "topology.rows", config.topology.groups,
               topologyRowGroupSchema(), source, "topology.rows",
               "default");
}

std::string
warmupDigest(const core::ExperimentConfig &config,
             const ConfigNode &source)
{
    std::ostringstream dump;
    dumpResolved(config, source, dump);

    // The control plane does not exist before t = warmup, so any
    // section that only configures it cannot influence the warmup
    // prefix and is dropped from the digest.  Everything else —
    // deployment, model, workload, [obs] cadence, topology, seed,
    // warmup itself — stays in.
    static const char *const controlSections[] = {
        "policy", "manager", "safety", "faults", "chaos"};

    std::istringstream in(dump.str());
    std::string filtered, line;
    filtered.reserve(dump.str().size());
    bool skip = false;
    bool inExperiment = false;
    while (std::getline(in, line)) {
        if (!line.empty() && line.front() == '[') {
            std::string name = line;
            while (!name.empty() && name.front() == '[')
                name.erase(name.begin());
            while (!name.empty() && name.back() == ']')
                name.pop_back();
            std::string head = name.substr(0, name.find('.'));
            skip = false;
            for (const char *section : controlSections)
                skip = skip || head == section;
            inExperiment = name == "experiment";
            if (skip)
                continue;
        } else if (skip) {
            continue;
        } else if (inExperiment &&
                   (line.rfind("managed ", 0) == 0 ||
                    line.rfind("record_row_series ", 0) == 0)) {
            // [experiment] knobs that only steer the control plane
            // or post-run reporting.
            continue;
        }
        filtered += line;
        filtered += '\n';
    }
    return obs::fnv1a64Hex(filtered);
}

bool
resolvedConfigsEqual(const core::ExperimentConfig &a,
                     const core::ExperimentConfig &b)
{
    if (!experimentSchema().equal(a, b))
        return false;
    if (!rowConfigSchema().equal(a.row, b.row))
        return false;
    if (!serverSpecSchema().equal(a.row.serverSpec, b.row.serverSpec))
        return false;
    if (!gpuSpecSchema().equal(a.row.serverSpec.gpu,
                               b.row.serverSpec.gpu))
        return false;
    if (!modelSpecSchema().equal(cluster::effectiveModelSpec(a.row),
                                 cluster::effectiveModelSpec(b.row)))
        return false;
    if (!policyConfigSchema().equal(a.policy, b.policy))
        return false;
    if (a.policy.rules.size() != b.policy.rules.size())
        return false;
    for (std::size_t i = 0; i < a.policy.rules.size(); ++i) {
        if (!thresholdRuleSchema().equal(a.policy.rules[i],
                                         b.policy.rules[i]))
            return false;
    }
    if (!managerOptionsSchema().equal(a.manager, b.manager))
        return false;
    if (!diurnalSchema().equal(a.diurnal, b.diurnal))
        return false;
    if (a.mix.size() != b.mix.size())
        return false;
    for (std::size_t i = 0; i < a.mix.size(); ++i) {
        if (!workloadSpecSchema().equal(a.mix[i], b.mix[i]))
            return false;
    }
    const faults::FaultPlan &fa = a.faultPlan;
    const faults::FaultPlan &fb = b.faultPlan;
    if (!burstyLossSchema().equal(fa.burstyLoss, fb.burstyLoss))
        return false;
    if (fa.blackouts.size() != fb.blackouts.size() ||
        fa.sensorFaults.size() != fb.sensorFaults.size() ||
        fa.oobOutages.size() != fb.oobOutages.size() ||
        fa.crashes.size() != fb.crashes.size())
        return false;
    for (std::size_t i = 0; i < fa.blackouts.size(); ++i) {
        if (!blackoutSchema().equal(fa.blackouts[i], fb.blackouts[i]))
            return false;
    }
    for (std::size_t i = 0; i < fa.sensorFaults.size(); ++i) {
        if (!sensorFaultSchema().equal(fa.sensorFaults[i],
                                       fb.sensorFaults[i]))
            return false;
    }
    for (std::size_t i = 0; i < fa.oobOutages.size(); ++i) {
        if (!oobOutageSchema().equal(fa.oobOutages[i],
                                     fb.oobOutages[i]))
            return false;
    }
    for (std::size_t i = 0; i < fa.crashes.size(); ++i) {
        if (!serverCrashSchema().equal(fa.crashes[i], fb.crashes[i]))
            return false;
    }
    if (fa.controllerCrashes.size() != fb.controllerCrashes.size())
        return false;
    for (std::size_t i = 0; i < fa.controllerCrashes.size(); ++i) {
        if (!controllerCrashSchema().equal(fa.controllerCrashes[i],
                                           fb.controllerCrashes[i]))
            return false;
    }
    if (!chaosConfigSchema().equal(a.chaos, b.chaos))
        return false;
    if (!safetyOptionsSchema().equal(a.safety, b.safety))
        return false;
    if (!obsOptionsSchema().equal(a.obsOptions, b.obsOptions))
        return false;
    if (!topologyConfigSchema().equal(a.topology, b.topology))
        return false;
    if (a.topology.groups.size() != b.topology.groups.size())
        return false;
    for (std::size_t i = 0; i < a.topology.groups.size(); ++i) {
        if (!topologyRowGroupSchema().equal(a.topology.groups[i],
                                            b.topology.groups[i]))
            return false;
    }
    return true;
}

} // namespace polca::config
