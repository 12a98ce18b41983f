/**
 * @file
 * Scenario-layer tests: binding a parsed tree into an
 * ExperimentConfig, the defaults < file < --set < sweep precedence
 * chain, cartesian sweep expansion with labels, hostile scenarios
 * with line-precise suggestions, and the headline guarantee that
 * dumpResolved() output reparses to a config that dumps the same
 * values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "config/scenario.hh"
#include "core/workload_aware.hh"

namespace {

using namespace polca;
using namespace polca::config;

ScenarioSet
load(const std::string &text,
     const std::vector<std::string> &overrides = {})
{
    Diagnostics diag;
    ScenarioSet set =
        loadScenarioString(text, "test.toml", overrides, diag);
    EXPECT_TRUE(diag.ok()) << diag.str();
    return set;
}

std::string
loadError(const std::string &text,
          const std::vector<std::string> &overrides = {})
{
    Diagnostics diag;
    loadScenarioString(text, "test.toml", overrides, diag);
    EXPECT_FALSE(diag.ok()) << "expected a binding error";
    return diag.str();
}

TEST(Scenario, BindsEverySection)
{
    ScenarioSet set = load("[experiment]\n"
                           "duration = 1h\n"
                           "seed = 7\n"
                           "\n"
                           "[row]\n"
                           "base_servers = 4\n"
                           "added_server_fraction = 25%\n"
                           "\n"
                           "[topology]\n"
                           "row_breaker_limit_fraction = 1.05\n"
                           "\n"
                           "[policy]\n"
                           "preset = \"1tlp\"\n"
                           "threshold = 85%\n"
                           "\n"
                           "[manager]\n"
                           "watchdog_enabled = false\n"
                           "\n"
                           "[workload.diurnal]\n"
                           "base_utilization = 40%\n"
                           "\n"
                           "[faults]\n"
                           "[[faults.blackouts]]\n"
                           "start = 5min\n"
                           "duration = 1h\n");
    ASSERT_EQ(set.points.size(), 1u);
    EXPECT_FALSE(set.isSweep());
    const core::ExperimentConfig &config = set.points[0].config;
    EXPECT_EQ(config.duration, sim::secondsToTicks(3600));
    EXPECT_EQ(config.seed, 7u);
    EXPECT_DOUBLE_EQ(config.topology.rowBreakerLimitFraction, 1.05);
    EXPECT_FALSE(config.topology.enabled);
    EXPECT_EQ(config.row.baseServers, 4);
    EXPECT_DOUBLE_EQ(config.row.addedServerFraction, 0.25);
    ASSERT_EQ(config.policy.rules.size(), 1u);
    EXPECT_DOUBLE_EQ(config.policy.rules[0].capFraction, 0.85);
    EXPECT_FALSE(config.manager.watchdogEnabled);
    EXPECT_DOUBLE_EQ(config.diurnal.baseUtilization, 0.40);
    ASSERT_EQ(config.faultPlan.blackouts.size(), 1u);
    EXPECT_EQ(config.faultPlan.blackouts[0].start,
              sim::secondsToTicks(300));
}

TEST(Scenario, CliOverridesFile)
{
    ScenarioSet set = load("[row]\n"
                           "added_server_fraction = 40%\n",
                           {"row.added_server_fraction=0.45"});
    ASSERT_EQ(set.points.size(), 1u);
    EXPECT_DOUBLE_EQ(
        set.points[0].config.row.addedServerFraction, 0.45);
    const ConfigNode *node =
        set.points[0].tree.findPath("row.added_server_fraction");
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->origin, "cli");
}

TEST(Scenario, SweepOverridesCli)
{
    ScenarioSet set = load("[sweep]\n"
                           "\"experiment.seed\" = [1..2]\n",
                           {"experiment.seed=9"});
    ASSERT_EQ(set.points.size(), 2u);
    EXPECT_TRUE(set.isSweep());
    EXPECT_EQ(set.points[0].config.seed, 1u);
    EXPECT_EQ(set.points[1].config.seed, 2u);
    EXPECT_EQ(set.points[0].label, "experiment.seed=1");
    const ConfigNode *node =
        set.points[0].tree.findPath("experiment.seed");
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->origin, "sweep");
}

TEST(Scenario, CartesianExpansionAndLabels)
{
    ScenarioSet set =
        load("[sweep]\n"
             "\"policy.preset\" = [\"polca\", \"1tlp\", \"nocap\"]\n"
             "\"experiment.seed\" = [1, 2]\n");
    ASSERT_EQ(set.points.size(), 6u);
    std::vector<std::string> labels;
    for (const ResolvedScenario &point : set.points) {
        EXPECT_NE(point.label.find("policy.preset="),
                  std::string::npos);
        EXPECT_NE(point.label.find("experiment.seed="),
                  std::string::npos);
        labels.push_back(point.label);
    }
    std::sort(labels.begin(), labels.end());
    EXPECT_EQ(std::unique(labels.begin(), labels.end()),
              labels.end()) << "sweep labels must be unique";
    // nocap points really bound the nocap policy (no rules).
    for (const ResolvedScenario &point : set.points) {
        if (point.label.find("nocap") != std::string::npos) {
            EXPECT_TRUE(point.config.policy.rules.empty());
        }
    }
}

TEST(Scenario, UnknownSectionSuggestion)
{
    std::string err = loadError("[rows]\n"
                                "base_servers = 2\n");
    EXPECT_NE(err.find("unknown top-level section [rows]"),
              std::string::npos) << err;
    EXPECT_NE(err.find("did you mean 'row'"), std::string::npos)
        << err;
    EXPECT_NE(err.find("test.toml:1"), std::string::npos) << err;
}

TEST(Scenario, UnknownPolicyPresetAnchored)
{
    std::string err = loadError("[policy]\n"
                                "\n"
                                "preset = \"polka\"\n");
    EXPECT_NE(err.find("unknown policy preset 'polka'"),
              std::string::npos) << err;
    EXPECT_NE(err.find("test.toml:3"), std::string::npos) << err;
}

TEST(Scenario, PresetParameterCompatibility)
{
    std::string err = loadError("[policy]\n"
                                "preset = \"nocap\"\n"
                                "t1 = 50%\n");
    EXPECT_NE(err.find("t1/t2/t1_lock_mhz only apply"),
              std::string::npos) << err;

    std::string err2 = loadError("[policy]\n"
                                 "threshold = 80%\n"
                                 "preset = \"polca\"\n");
    EXPECT_NE(err2.find("threshold only applies"),
              std::string::npos) << err2;
}

TEST(Scenario, ExplicitRulesReplacePreset)
{
    ScenarioSet set = load("[policy]\n"
                           "preset = \"polca\"\n"
                           "[[policy.rules]]\n"
                           "name = \"only\"\n"
                           "target = \"low\"\n"
                           "cap_at = 70%\n"
                           "uncap_at = 60%\n"
                           "lock_mhz = 900\n");
    ASSERT_EQ(set.points.size(), 1u);
    const core::PolicyConfig &policy = set.points[0].config.policy;
    ASSERT_EQ(policy.rules.size(), 1u);
    EXPECT_EQ(policy.rules[0].name, "only");
    EXPECT_DOUBLE_EQ(policy.rules[0].capFraction, 0.70);
}

TEST(Scenario, RuleOrderingValidated)
{
    std::string err = loadError("[policy]\n"
                                "[[policy.rules]]\n"
                                "name = \"bad\"\n"
                                "target = \"low\"\n"
                                "cap_at = 60%\n"
                                "uncap_at = 70%\n"
                                "lock_mhz = 900\n");
    EXPECT_NE(err.find("uncap_at must sit below cap_at"),
              std::string::npos) << err;
}

TEST(Scenario, MixMustSumToOne)
{
    std::string err = loadError("[workload]\n"
                                "[[workload.mix]]\n"
                                "name = \"only\"\n"
                                "prompt_min = 10\n"
                                "prompt_max = 20\n"
                                "output_min = 10\n"
                                "output_max = 20\n"
                                "traffic_fraction = 90%\n"
                                "high_priority_fraction = 50%\n");
    EXPECT_NE(err.find("sum to"), std::string::npos) << err;
}

TEST(Scenario, IncompleteFaultEntry)
{
    std::string err = loadError("[faults]\n"
                                "[[faults.blackouts]]\n"
                                "start = 5min\n");
    EXPECT_NE(err.find("missing required key 'duration'"),
              std::string::npos) << err;
}

TEST(Scenario, FaultScenarioSuggestion)
{
    std::string err = loadError("[faults]\n"
                                "scenario = \"blackot\"\n");
    EXPECT_NE(err.find("unknown fault scenario 'blackot'"),
              std::string::npos) << err;
    EXPECT_NE(err.find("did you mean 'blackout'"),
              std::string::npos) << err;
}

TEST(Scenario, ModelOverrideFromCatalogPreset)
{
    ScenarioSet set = load("[model]\n"
                           "preset = \"BLOOM-176B\"\n"
                           "params_billions = 200\n");
    ASSERT_EQ(set.points.size(), 1u);
    const cluster::RowConfig &row = set.points[0].config.row;
    ASSERT_TRUE(row.modelOverride.has_value());
    EXPECT_DOUBLE_EQ(effectiveModelSpec(row).paramsBillions, 200.0);
    // Untouched fields keep the catalog values.
    EXPECT_EQ(effectiveModelSpec(row).name, "BLOOM-176B");
}

TEST(Scenario, ServerAndGpuPresets)
{
    ScenarioSet set = load("[row.server]\n"
                           "preset = \"DGX-H100\"\n"
                           "[row.server.gpu]\n"
                           "tdp_watts = 650\n");
    const cluster::RowConfig &row = set.points[0].config.row;
    EXPECT_EQ(row.serverSpec.name,
              power::ServerSpec::dgxH100().name);
    EXPECT_DOUBLE_EQ(row.serverSpec.gpu.tdpWatts, 650.0);
}

TEST(Scenario, FaultPresetSizedForDeployedServers)
{
    // 25 base servers +58 % deploy 25 + lround(0.58 x 25) = 39 (the
    // product is just below 14.5); the crash wave takes a quarter.
    ScenarioSet set = load("[row]\n"
                           "base_servers = 25\n"
                           "added_server_fraction = 58%\n"
                           "[faults]\n"
                           "scenario = \"crashes\"\n");
    ASSERT_EQ(set.points.size(), 1u);
    const core::ExperimentConfig &config = set.points[0].config;
    EXPECT_EQ(config.row.deployedServers(), 39);
    EXPECT_EQ(config.faultPlan.crashes.size(), 9u);
}

TEST(Scenario, AwarePolicySolvesForTheRowGpu)
{
    ScenarioSet set = load("[row.server]\n"
                           "preset = \"DGX-H100\"\n"
                           "[policy]\n"
                           "preset = \"aware\"\n");
    ASSERT_EQ(set.points.size(), 1u);
    const core::ExperimentConfig &config = set.points[0].config;
    core::PolicyConfig expected = core::workloadAwarePolicy(
        effectiveModelSpec(config.row), power::GpuSpec::h100_80gb());
    ASSERT_EQ(config.policy.rules.size(), expected.rules.size());
    for (std::size_t i = 0; i < expected.rules.size(); ++i) {
        EXPECT_EQ(config.policy.rules[i].name, expected.rules[i].name);
        EXPECT_EQ(config.policy.rules[i].lockMhz,
                  expected.rules[i].lockMhz)
            << expected.rules[i].name;
    }
}

TEST(Scenario, SetOverrideErrorsNameTheFlag)
{
    std::string err =
        loadError("", {"policy.preset=polka"});
    EXPECT_NE(err.find("--set policy.preset=polka"),
              std::string::npos) << err;
    EXPECT_NE(err.find("unknown policy preset 'polka'"),
              std::string::npos) << err;
}

TEST(Scenario, MalformedOverrides)
{
    EXPECT_NE(loadError("", {"=value"}).find("expected path=value"),
              std::string::npos);
    EXPECT_NE(loadError("", {"experiment.seed="}).find("empty value"),
              std::string::npos);
    // An override cannot tunnel through an existing scalar.
    EXPECT_NE(loadError("[row]\nbase_servers = 2\n",
                        {"row.base_servers.x=1"})
                  .find("is not a section"),
              std::string::npos);
}

/** @p dump without provenance comments, which legitimately differ
 *  between a dump and the dump of its reparse (file names, origins). */
std::string
stripComments(const std::string &dump)
{
    std::string out;
    std::istringstream in(dump);
    std::string line;
    while (std::getline(in, line)) {
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        while (!line.empty() &&
               (line.back() == ' ' || line.back() == '\t'))
            line.pop_back();
        out += line;
        out += '\n';
    }
    return out;
}

/** dumpResolved -> reload -> dumpResolved: the reparsed config dumps
 *  the identical values, so the dump is a fixed point. */
void
expectDumpReparses(const ResolvedScenario &point)
{
    std::ostringstream os;
    dumpResolved(point.config, point.tree, os);

    Diagnostics diag;
    ScenarioSet reparsed =
        loadScenarioString(os.str(), "dump.toml", {}, diag);
    ASSERT_TRUE(diag.ok()) << point.label << ": " << diag.str()
                           << "\n--- dump was:\n" << os.str();
    ASSERT_EQ(reparsed.points.size(), 1u);

    std::ostringstream os2;
    dumpResolved(reparsed.points[0].config, reparsed.points[0].tree,
                 os2);
    EXPECT_EQ(stripComments(os.str()), stripComments(os2.str()))
        << point.label;
}

/** Load -> dumpResolved -> reload -> compare; the acceptance
 *  criterion for the effective-config dump. */
void
expectDumpReparseIdentity(const std::string &text,
                          const std::vector<std::string> &overrides)
{
    Diagnostics diag;
    ScenarioSet original =
        loadScenarioString(text, "orig.toml", overrides, diag);
    ASSERT_TRUE(diag.ok()) << diag.str();
    ASSERT_EQ(original.points.size(), 1u);
    expectDumpReparses(original.points[0]);
}

TEST(Scenario, DumpReparsesToIdenticalConfigDefaults)
{
    expectDumpReparseIdentity("", {});
}

TEST(Scenario, DumpReparsesToIdenticalConfigRich)
{
    expectDumpReparseIdentity(
        "[experiment]\n"
        "duration = 6h\n"
        "seed = 11\n"
        "[row]\n"
        "base_servers = 12\n"
        "added_server_fraction = 50%\n"
        "[topology]\n"
        "row_breaker_limit_fraction = 1.05\n"
        "breaker_trip_duration = 10s\n"
        "[row.server]\n"
        "preset = \"DGX-A100-40GB\"\n"
        "[row.server.gpu]\n"
        "tdp_watts = 390\n"
        "[model]\n"
        "preset = \"BLOOM-176B\"\n"
        "token_time_ms = 90\n"
        "[policy]\n"
        "preset = \"polca\"\n"
        "t1 = 78%\n"
        "[manager]\n"
        "watchdog_timeout = 40s\n"
        "[workload.diurnal]\n"
        "base_utilization = 45%\n"
        "[faults]\n"
        "[[faults.blackouts]]\n"
        "start = 5min\n"
        "duration = 1h\n",
        {"experiment.power_scale_factor=1.05"});
}

TEST(Scenario, SweepPointDumpReparses)
{
    Diagnostics diag;
    ScenarioSet set = loadScenarioString(
        "[sweep]\n"
        "\"policy.preset\" = [\"polca\", \"nocap\"]\n",
        "sweep.toml", {}, diag);
    ASSERT_TRUE(diag.ok()) << diag.str();
    ASSERT_EQ(set.points.size(), 2u);
    for (const ResolvedScenario &point : set.points)
        expectDumpReparses(point);
}

TEST(Scenario, BreakerFractionBelowOneRejectedAtItsLine)
{
    // A breaker must trip at or above its level's budget, which
    // BreakerModel enforces with a fatal: 0 (no breaker) or at least
    // 1, reported where the value was written.
    for (const char *key : {"rack_breaker_limit_fraction",
                            "row_breaker_limit_fraction",
                            "site_breaker_limit_fraction"}) {
        std::string text = "[topology]\nenabled = true\n";
        text += key;
        text += " = 0.9\n"
                "[[topology.rows]]\n"
                "name = \"row\"\n";
        std::string expected = "test.toml:3: topology.";
        expected += key;
        expected += " = 0.9 is below the level budget";
        std::string err = loadError(text);
        EXPECT_NE(err.find(expected), std::string::npos) << err;
    }
    // The flat row arms its breaker from the same row key.
    std::string err = loadError("[row]\n"
                                "base_servers = 2\n"
                                "[topology]\n"
                                "row_breaker_limit_fraction = 0.9\n");
    EXPECT_NE(err.find("test.toml:4: topology.row_breaker_limit_fraction"
                       " = 0.9 is below"),
              std::string::npos) << err;
    for (const char *fraction : {"0", "1"}) {
        std::string text = "[topology]\nrow_breaker_limit_fraction = ";
        text += fraction;
        text += "\n";
        ScenarioSet set = load(text);
        ASSERT_EQ(set.points.size(), 1u) << fraction;
    }
}

TEST(Scenario, AwarePolicyWithUnknownModelIsDiagnosedNotFatal)
{
    // "aware" solves its locks for the row's model, so an unknown
    // model must stop binding at the model's own diagnostic, the one
    // every other preset gets.
    for (const char *preset : {"polca", "aware"}) {
        std::string text = "[row]\nmodel = \"GPT-9\"\n"
                           "[policy]\npreset = \"";
        text += preset;
        text += "\"\n";
        EXPECT_EQ(loadError(text),
                  "test.toml:1: row.model: unknown model 'GPT-9' (not "
                  "in the Table 3 catalog; add a [model] section to "
                  "define it)")
            << preset;
    }
}

TEST(Scenario, FaultEntriesAfterAPresetKeepTheirOwnProvenance)
{
    // The preset's crashes come first in the plan; the explicit
    // crash is appended after them and is labelled with its lines.
    ScenarioSet set = load("[experiment]\n"
                           "duration = 6h\n"
                           "[faults]\n"
                           "scenario = \"crashes\"\n"
                           "[[faults.crashes]]\n"
                           "at = 30min\n"
                           "downtime = 10min\n"
                           "server_index = 3\n"
                           "permanent = false\n");
    ASSERT_EQ(set.points.size(), 1u);
    const ResolvedScenario &point = set.points[0];
    const std::vector<faults::ServerCrash> &crashes =
        point.config.faultPlan.crashes;
    ASSERT_GE(crashes.size(), 2u);
    EXPECT_EQ(crashes.back().at, sim::secondsToTicks(1800));

    std::ostringstream os;
    dumpResolved(point.config, point.tree, os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("at = 1800  # test.toml:6\n"
                        "downtime = 600  # test.toml:7\n"
                        "server_index = 3  # test.toml:8\n"
                        "permanent = false  # test.toml:9\n"),
              std::string::npos) << dump;
    EXPECT_NE(dump.find("at = 2160  # preset:crashes\n"),
              std::string::npos) << dump;
    EXPECT_EQ(dump.find("at = 1800  # preset"), std::string::npos)
        << dump;
    EXPECT_EQ(dump.find("at = 2160  # test.toml"), std::string::npos)
        << dump;
    expectDumpReparses(point);
}

} // namespace
