#include "config/scenario.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "core/thread_pool.hh"
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

/** The entry of @p presets named @p name, or nullptr. */
template <typename Preset>
const Preset *
findPreset(const std::vector<Preset> &presets, const std::string &name)
{
    for (const Preset &preset : presets) {
        if (preset.name == name)
            return &preset;
    }
    return nullptr;
}

/** The names of @p presets joined with '|', for diagnostics. */
template <typename Preset>
std::string
presetNames(const std::vector<Preset> &presets)
{
    std::string names;
    for (const Preset &preset : presets) {
        if (!names.empty())
            names += '|';
        names += preset.name;
    }
    return names;
}

/**
 * Bind the `[[path]]` tables of @p list, path being @p schema's name.
 * Each entry is applied over a value-initialized T, with every key
 * required when @p requireAll, and handed to @p add with its source
 * node; @p add keeps it and reports its problems at that node's line.
 * Anything reported clears @p ok.
 * @return false when @p list is not a list at all.
 */
template <typename T, typename Add>
bool
bindTables(const ConfigNode &list, const StructSchema<T> &schema,
           bool requireAll, bool &ok, Diagnostics &diag, Add add)
{
    const std::string &path = schema.name();
    std::size_t reported = diag.errors().size();
    if (list.kind != ConfigNode::Kind::List) {
        diag.error(list.loc, path + " must be a list of [[" + path +
                   "]] tables");
        ok = false;
        return false;
    }
    for (const ConfigNode &item : list.items) {
        T entry{};
        if (item.kind != ConfigNode::Kind::Section) {
            diag.error(item.loc, "[[" + path + "]] entries must be "
                       "tables");
        } else if ((!requireAll ||
                    requireKeys(item, "[[" + path + "]]", schema.keys(),
                                diag)) &&
                   schema.apply(item, entry, diag)) {
            add(item, entry);
        }
    }
    if (diag.errors().size() != reported)
        ok = false;
    return true;
}

/** Bind @p section over @p spec: the entry of @p presets (@p family)
 *  its `preset` key names, if any, then its own fields but @p nested.
 *  Failures clear @p ok; @return false when it is not a section. */
template <typename Spec>
bool
bindPresetSection(const ConfigNode &section,
                  const StructSchema<Spec> &schema,
                  const std::vector<Spec> &presets,
                  const std::string &family, Spec &spec,
                  const std::set<std::string> &nested, bool &ok,
                  Diagnostics &diag)
{
    if (section.kind != ConfigNode::Kind::Section) {
        diag.error(section.loc, "[" + schema.name() +
                   "] must be a section");
        return false;
    }
    std::string name;
    if (!optionalString(section, "preset", name, diag))
        ok = false;
    if (!name.empty()) {
        if (const Spec *preset = findPreset(presets, name)) {
            spec = *preset;
        } else {
            diag.error(section.find("preset")->loc,
                       "unknown " + family + " preset '" + name +
                       "' (use " + presetNames(presets) + ")");
            ok = false;
        }
    }
    if (!schema.apply(section, spec, diag, nested))
        ok = false;
    return true;
}

bool
bindRow(const ConfigNode &rowSection, cluster::RowConfig &row,
        Diagnostics &diag)
{
    bool ok = rowConfigSchema().apply(rowSection, row, diag,
                                      {"server"});
    const ConfigNode *server = rowSection.find("server");
    if (!server)
        return ok;
    if (!bindPresetSection(*server, serverSpecSchema(),
                           power::ServerSpec::presets(), "server",
                           row.serverSpec, {"preset", "gpu"}, ok, diag))
        return false;
    const ConfigNode *gpu = server->find("gpu");
    if (gpu && !bindPresetSection(*gpu, gpuSpecSchema(),
                                  power::GpuSpec::presets(), "GPU",
                                  row.serverSpec.gpu, {"preset"}, ok,
                                  diag))
        return false;
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

    double t1 = 0.80, t2 = 0.89, t1LockMhz = 1275.0, threshold = 0.89;
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

    std::optional<core::PolicyConfig> resolved = core::policyPreset(
        preset, row, t1, t2, t1LockMhz, threshold);
    if (!resolved) {
        const ConfigNode *presetNode = section->find("preset");
        diag.error(presetNode ? presetNode->loc : section->loc,
                   "unknown policy preset '" + preset + "' (use " +
                   core::policyPresetNames() + ")");
        return false;
    }
    policy = std::move(*resolved);
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
        policy.rules.clear();
        auto add = [&](const ConfigNode &item,
                       const core::ThresholdRule &rule) {
            if (rule.uncapFraction >= rule.capFraction) {
                diag.error(item.loc, "policy rule '" + rule.name +
                           "': uncap_at must sit below cap_at");
            }
            policy.rules.push_back(rule);
        };
        if (!bindTables(*rules, thresholdRuleSchema(), true, ok, diag,
                        add))
            return false;
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
            std::vector<workload::WorkloadSpec> mix;
            double totalTraffic = 0.0;
            auto add = [&](const ConfigNode &item,
                           const workload::WorkloadSpec &spec) {
                if (spec.promptMax < spec.promptMin ||
                    spec.outputMax < spec.outputMin) {
                    diag.error(item.loc, "workload '" + spec.name +
                               "': max token counts must be >= min");
                }
                totalTraffic += spec.trafficFraction;
                mix.push_back(spec);
            };
            bindTables(node, workloadSpecSchema(), true, ok, diag, add);
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
            diag.error(node.loc, "unknown key '" + key +
                       "' in [workload]" +
                       didYouMean(key, {"diurnal", "mix"}));
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
        std::vector<std::string> names;
        for (const faults::FaultScenario &known : faults::faultScenarios())
            names.push_back(known.name);
        if (std::find(names.begin(), names.end(), scenario) ==
            names.end()) {
            diag.error(section->find("scenario")->loc,
                       "unknown fault scenario '" + scenario + "'" +
                       didYouMean(scenario, names));
            return false;
        }
        config.faultPlan = faults::scenarioByName(
            scenario, config.duration, config.row.deployedServers());
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
            auto add = [&](const ConfigNode &item, const auto &entry) {
                std::string problem = check(entry);
                if (problem.empty())
                    plan.push_back(entry);
                else
                    diag.error(item.loc, "[[" + schema.name() +
                               "]]: " + problem);
            };
            bindTables(node, schema, true, ok, diag, add);
        };
        auto windowCheck = [](const auto &entry) -> std::string {
            return entry.duration > 0
                ? "" : "zero-length window (duration must be > 0)";
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
            diag.error(node.loc, "unknown key '" + key +
                       "' in [faults]" +
                       didYouMean(key, {"scenario", "bursty_loss",
                                        "blackouts", "sensor_faults",
                                        "oob_outages", "crashes",
                                        "controller_crashes"}));
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
    // A breaker below its budget would trip on every busy reading
    // (BreakerModel refuses one): 0 (no breaker) or at least 1.
    const cluster::TopologyConfig &topology = config.topology;
    for (const auto &[key, fraction] :
         {std::pair{"rack_breaker_limit_fraction",
                    topology.rackBreakerLimitFraction},
          std::pair{"row_breaker_limit_fraction",
                    topology.rowBreakerLimitFraction},
          std::pair{"site_breaker_limit_fraction",
                    topology.siteBreakerLimitFraction}}) {
        if (fraction > 0.0 && fraction < 1.0) {
            const ConfigNode *node = section->find(key);
            diag.error(node ? node->loc : section->loc,
                       std::string("topology.") + key + " = " +
                           formatDouble(fraction) +
                           " is below the level budget (use 0 for no "
                           "breaker, or at least 1)");
            ok = false;
        }
    }

    if (const ConfigNode *rows = section->find("rows")) {
        llm::ModelCatalog catalog;
        std::vector<cluster::TopologyRowGroup> &groups =
            config.topology.groups;
        groups.clear();
        auto add = [&](const ConfigNode &item,
                       const cluster::TopologyRowGroup &group) {
            auto fail = [&](const std::string &problem) {
                diag.error(item.loc, "[[topology.rows]] " + problem);
            };
            if (!cluster::validGroupName(group.name)) {
                fail("name '" + group.name + "' must be lowercase "
                     "[a-z0-9_] (it becomes a metric-path segment)");
            }
            const auto &servers = power::ServerSpec::presets();
            if (!findPreset(servers, group.server)) {
                fail("'" + group.name + "': unknown server preset '" +
                     group.server + "' (use " + presetNames(servers) +
                     ")");
            }
            if (!catalog.contains(group.model)) {
                fail("'" + group.name + "': unknown model '" +
                     group.model + "' (not in the Table 3 catalog)");
            }
            for (const cluster::TopologyRowGroup &other : groups) {
                if (other.name == group.name)
                    fail("duplicate group name '" + group.name + "'");
            }
            groups.push_back(group);
        };
        if (!bindTables(*rows, topologyRowGroupSchema(), false, ok, diag,
                        add))
            return false;
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
        if (!config.faultPlan.empty()) {
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
            diag.error(node.loc, "unknown top-level " +
                       std::string(node.kind ==
                                           ConfigNode::Kind::Section
                                       ? "section ["
                                       : "entry [") + key + "]" +
                       didYouMean(key, known));
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
    // A policy preset may solve its locks for the row's model
    // ("aware"), so the policy binds only once the model has.
    if (!bindModel(root, config.row, diag))
        ok = false;
    else if (!bindPolicy(root, config.row, config.policy, diag))
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

using Config = core::ExperimentConfig;
using Keys = std::set<std::string>;

const char kDumpPreamble[] =
    "# polcasim effective configuration (fully resolved: "
    "defaults + file + CLI + sweep)\n"
    "# Provenance per value: default | <file>:<line> | cli | "
    "sweep | preset:<name>\n"
    "# Rerun with: polcactl run --scenario-file <this file>\n"
    "\n";

/** Where a section dumps to, and from what. */
struct Dump
{
    std::ostream &os;
    const Config &c;        ///< the resolved configuration
    const ConfigNode &src;  ///< the effective source tree
    const Keys &omit;       ///< keys to leave out
};

/** `[path]` and the fields of @p obj, path being @p schema's name.  A
 *  value's provenance is its origin in the source at that path,
 *  @p fallback where the source does not set it. */
template <typename T>
void
one(const Dump &d, const StructSchema<T> &schema, const T &obj,
    const std::string &fallback = "default")
{
    d.os << "[" << schema.name() << "]\n";
    schema.dump(obj, d.src.findPath(schema.name()), d.os, fallback,
                d.omit);
    d.os << "\n";
}

/** One `[[path]]` block per element of @p items, as one() writes a
 *  section.  The source list's entries are the last ones of
 *  @p items (a `[faults] scenario` preset's entries come first), so
 *  source entry j gives element (preset count + j) its provenance. */
template <typename T>
void
each(const Dump &d, const StructSchema<T> &schema,
     const std::vector<T> &items, const std::string &fallback = "default")
{
    const ConfigNode *list = d.src.findPath(schema.name());
    std::size_t listed = list && list->kind == ConfigNode::Kind::List
        ? list->items.size() : 0;
    std::size_t presets = items.size() - std::min(listed, items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const ConfigNode *element = nullptr;
        if (i >= presets &&
            list->items[i - presets].kind == ConfigNode::Kind::Section)
            element = &list->items[i - presets];
        d.os << "[[" << schema.name() << "]]\n";
        schema.dump(items[i], element, d.os, fallback, d.omit);
        d.os << "\n";
    }
}

/** Provenance of fault values the source leaves unset: the
 *  `[faults] scenario` preset that made them, if any. */
std::string
faultOrigin(const Dump &d)
{
    const ConfigNode *scenario = d.src.findPath("faults.scenario");
    std::string name, err;
    if (scenario && parseStringToken(scenario->raw, name, err))
        return "preset:" + name;
    return "default";
}

/** One section of the resolved configuration: how it dumps (one()
 *  struct or each() element, with its provenance fallback), and what
 *  of it only configures the control plane or post-run reporting,
 *  which warmupDigest() leaves out: that plane does not exist before
 *  t = warmup. */
struct ResolvedSection
{
    void (*dump)(const Dump &d);
    bool controlPlane = false;  ///< the whole section
    Keys controlKeys = {};      ///< keys of a physical section
};

/** Every section of the resolved dump, in dump order. */
const std::vector<ResolvedSection> &
resolvedSections()
{
    static const std::vector<ResolvedSection> sections = {
        {[](const Dump &d) { one(d, experimentSchema(), d.c); },
         false, {"managed", "record_row_series"}},
        {[](const Dump &d) { one(d, rowConfigSchema(), d.c.row); }},
        {[](const Dump &d) {
             const power::ServerSpec &server = d.c.row.serverSpec;
             one(d, serverSpecSchema(), server, "preset:" + server.name);
         }},
        {[](const Dump &d) {
             const power::GpuSpec &gpu = d.c.row.serverSpec.gpu;
             one(d, gpuSpecSchema(), gpu, "preset:" + gpu.name);
         }},
        {[](const Dump &d) {
             llm::ModelSpec model = cluster::effectiveModelSpec(d.c.row);
             one(d, modelSpecSchema(), model, "catalog:" + model.name);
         }},
        // Preset "none" plus the explicit resolved rules, so reparsing
        // rebuilds the exact rule set with no preset involved.
        {[](const Dump &d) {
             const ConfigNode *section = d.src.findPath("policy");
             const ConfigNode *preset = d.src.findPath("policy.preset");
             d.os << "[policy]\npreset = \"none\"  # resolved\n";
             policyConfigSchema().dump(
                 d.c.policy, section, d.os,
                 !section ? "default"
                          : preset ? "preset (" + preset->origin + ")"
                                   : "preset",
                 d.omit);
             d.os << "\n";
         }, true},
        {[](const Dump &d) {
             each(d, thresholdRuleSchema(), d.c.policy.rules,
                  "preset:" + d.c.policy.name);
         }, true},
        {[](const Dump &d) { one(d, managerOptionsSchema(), d.c.manager); },
         true},
        {[](const Dump &d) { one(d, diurnalSchema(), d.c.diurnal); }},
        {[](const Dump &d) { each(d, workloadSpecSchema(), d.c.mix); }},
        {[](const Dump &d) {
             one(d, burstyLossSchema(), d.c.faultPlan.burstyLoss,
                 faultOrigin(d));
         }, true},
        {[](const Dump &d) {
             each(d, blackoutSchema(), d.c.faultPlan.blackouts,
                  faultOrigin(d));
         }, true},
        {[](const Dump &d) {
             each(d, sensorFaultSchema(), d.c.faultPlan.sensorFaults,
                  faultOrigin(d));
         }, true},
        {[](const Dump &d) {
             each(d, oobOutageSchema(), d.c.faultPlan.oobOutages,
                  faultOrigin(d));
         }, true},
        {[](const Dump &d) {
             each(d, serverCrashSchema(), d.c.faultPlan.crashes,
                  faultOrigin(d));
         }, true},
        {[](const Dump &d) {
             each(d, controllerCrashSchema(),
                  d.c.faultPlan.controllerCrashes, faultOrigin(d));
         }, true},
        {[](const Dump &d) { one(d, chaosConfigSchema(), d.c.chaos); },
         true},
        {[](const Dump &d) { one(d, safetyOptionsSchema(), d.c.safety); },
         true},
        {[](const Dump &d) { one(d, obsOptionsSchema(), d.c.obsOptions); }},
        {[](const Dump &d) { one(d, topologyConfigSchema(), d.c.topology); }},
        {[](const Dump &d) {
             each(d, topologyRowGroupSchema(), d.c.topology.groups);
         }},
    };
    return sections;
}

} // namespace

void
dumpResolved(const core::ExperimentConfig &config,
             const ConfigNode &source, std::ostream &os)
{
    os << kDumpPreamble;
    const Keys none;
    for (const ResolvedSection &section : resolvedSections())
        section.dump({os, config, source, none});
}

std::string
warmupDigest(const core::ExperimentConfig &config,
             const ConfigNode &source)
{
    std::ostringstream dump;
    dump << kDumpPreamble;
    for (const ResolvedSection &section : resolvedSections()) {
        if (!section.controlPlane)
            section.dump({dump, config, source, section.controlKeys});
    }
    return obs::fnv1a64Hex(dump.str());
}

} // namespace polca::config
