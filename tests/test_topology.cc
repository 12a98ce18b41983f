/**
 * @file
 * Site-builder and [topology] binding tests, including the
 * path-keyed RNG regression: a row's random streams depend only on
 * (site seed, row name), so adding a row group elsewhere in the
 * topology never perturbs the rows that were already there.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/topology.hh"
#include "config/scenario.hh"
#include "core/oversub_experiment.hh"
#include "sim/random.hh"

namespace {

using namespace polca;
using namespace polca::cluster;

TopologyConfig
twoGroupConfig()
{
    TopologyConfig config;
    config.enabled = true;
    TopologyRowGroup a;
    a.name = "a100";
    a.rows = 2;
    a.racksPerRow = 2;
    a.serversPerRack = 3;
    config.groups.push_back(a);
    TopologyRowGroup h;
    h.name = "h100";
    h.rows = 1;
    h.racksPerRow = 2;
    h.serversPerRack = 3;
    h.server = "DGX-H100";
    h.model = "Llama2-70B";
    config.groups.push_back(h);
    return config;
}

} // namespace

TEST(Topology, BuildsTheDeclaredTree)
{
    sim::Simulation sim(1);
    TopologyConfig config = twoGroupConfig();
    Site site(sim, config, RowConfig{}, sim::Rng(11));

    EXPECT_EQ(site.numServers(), 3 * 2 * 3);
    ASSERT_EQ(site.rows().size(), 3u);
    EXPECT_EQ(site.rows()[0].name, "a1000");
    EXPECT_EQ(site.rows()[1].name, "a1001");
    EXPECT_EQ(site.rows()[2].name, "h1000");
    EXPECT_EQ(site.rows()[0].domain->path(), "site.a1000");
    EXPECT_EQ(site.rows()[2].domain->path(), "site.h1000");

    // Each row: two rack children of three server leaves.
    const PowerDomain &row = *site.rows()[0].domain;
    ASSERT_EQ(row.children().size(), 2u);
    EXPECT_EQ(row.children()[0]->path(), "site.a1000.rack0");
    EXPECT_EQ(row.children()[0]->children().size(), 3u);
    EXPECT_EQ(row.children()[0]->numServers(), 3);
}

TEST(Topology, EachGroupSharesOneServerSpecAndOneModelSpec)
{
    sim::Simulation sim(1);
    Site site(sim, twoGroupConfig(), RowConfig{}, sim::Rng(11));
    ASSERT_EQ(site.rows().size(), 3u);

    // Rows a1000 and a1001 are group a100, row h1000 group h100.
    auto expectShared = [](Site::SiteRow &row,
                           const power::ServerSpec *server,
                           const llm::ModelSpec *model) {
        EXPECT_EQ(row.model.get(), model);
        for (const InferenceServer *s : row.domain->servers()) {
            EXPECT_EQ(&s->serverModel().spec(), server);
            EXPECT_EQ(&s->model(), model);
        }
    };
    InferenceServer &a100 = *site.rows()[0].domain->servers().front();
    InferenceServer &h100 = *site.rows()[2].domain->servers().front();
    expectShared(site.rows()[0], &a100.serverModel().spec(), &a100.model());
    expectShared(site.rows()[1], &a100.serverModel().spec(), &a100.model());
    expectShared(site.rows()[2], &h100.serverModel().spec(), &h100.model());
    EXPECT_NE(&a100.serverModel().spec(), &h100.serverModel().spec());
    EXPECT_NE(&a100.model(), &h100.model());
    EXPECT_EQ(h100.serverModel().spec().name, "DGX-H100");
    EXPECT_EQ(h100.model().name, "Llama2-70B");

    // The flat row is one group.
    RowConfig rowConfig;
    rowConfig.baseServers = 6;
    rowConfig.addedServerFraction = 0.5;
    Site flat(sim, rowConfig, sim::Rng(12));
    Site::SiteRow &row = flat.rows().front();
    InferenceServer &first = *row.domain->servers().front();
    EXPECT_EQ(row.domain->numServers(), 9);
    expectShared(row, &first.serverModel().spec(), row.model.get());
}

TEST(Topology, BudgetsStackMultiplicatively)
{
    sim::Simulation sim(1);
    TopologyConfig config = twoGroupConfig();
    config.rowBudgetFraction = 0.9;
    config.siteBudgetFraction = 0.8;
    Site site(sim, config, RowConfig{}, sim::Rng(11));

    double rowNameplate = 2 * 3 * 4950.0;
    EXPECT_DOUBLE_EQ(site.rows()[0].domain->budgetWatts(),
                     0.9 * rowNameplate);
    EXPECT_DOUBLE_EQ(site.root().budgetWatts(),
                     0.8 * (3 * 0.9 * rowNameplate));
}

TEST(Topology, ScenarioBindingRoundTrips)
{
    config::Diagnostics diag;
    config::ScenarioSet set = config::loadScenarioString(
        "[topology]\n"
        "enabled = true\n"
        "row_budget_fraction = 90%\n"
        "site_budget_fraction = 85%\n"
        "rack_breaker_limit_fraction = 1.3\n"
        "\n"
        "[[topology.rows]]\n"
        "name = \"a100\"\n"
        "rows = 2\n"
        "racks_per_row = 3\n"
        "servers_per_rack = 4\n"
        "server = \"DGX-A100-40GB\"\n"
        "model = \"Llama2-70B\"\n"
        "lp_server_fraction = 40%\n",
        "test.toml", {}, diag);
    ASSERT_TRUE(diag.ok()) << diag.str();

    const TopologyConfig &topology =
        set.points.front().config.topology;
    EXPECT_TRUE(topology.enabled);
    EXPECT_DOUBLE_EQ(topology.rowBudgetFraction, 0.9);
    EXPECT_DOUBLE_EQ(topology.siteBudgetFraction, 0.85);
    EXPECT_DOUBLE_EQ(topology.rackBreakerLimitFraction, 1.3);
    ASSERT_EQ(topology.groups.size(), 1u);
    EXPECT_EQ(topology.groups[0].name, "a100");
    EXPECT_EQ(topology.groups[0].rows, 2);
    EXPECT_EQ(topology.groups[0].racksPerRow, 3);
    EXPECT_EQ(topology.groups[0].serversPerRack, 4);
    EXPECT_EQ(topology.groups[0].server, "DGX-A100-40GB");
    EXPECT_EQ(topology.groups[0].model, "Llama2-70B");
    EXPECT_DOUBLE_EQ(topology.groups[0].lpServerFraction, 0.4);
    EXPECT_EQ(topology.numRows(), 2);
    EXPECT_EQ(topology.numServers(), 24);
}

TEST(Topology, RejectsHostileGroups)
{
    auto error = [](const std::string &body) {
        config::Diagnostics diag;
        config::loadScenarioString("[topology]\nenabled = true\n" +
                                       body,
                                   "test.toml", {}, diag);
        EXPECT_FALSE(diag.ok()) << "expected a binding error";
        return diag.str();
    };

    EXPECT_NE(error("[[topology.rows]]\nname = \"Row3\"\n")
                  .find("lowercase"),
              std::string::npos);
    EXPECT_NE(error("[[topology.rows]]\nserver = \"DGX-9000\"\n")
                  .find("unknown server preset"),
              std::string::npos);
    EXPECT_NE(error("[[topology.rows]]\nmodel = \"GPT-9\"\n")
                  .find("unknown model"),
              std::string::npos);
    EXPECT_NE(error("[[topology.rows]]\nname = \"a\"\n"
                    "[[topology.rows]]\nname = \"a\"\n")
                  .find("duplicate group name"),
              std::string::npos);
    EXPECT_NE(error("").find("without any"), std::string::npos);
}

TEST(Topology, SiteModeRejectsArmedFaultAndChaosPlans)
{
    config::Diagnostics diag;
    config::loadScenarioString("[topology]\n"
                               "enabled = true\n"
                               "[[topology.rows]]\n"
                               "name = \"a\"\n"
                               "[faults]\n"
                               "scenario = \"flaky-sensor\"\n",
                               "test.toml", {}, diag);
    EXPECT_FALSE(diag.ok());
    EXPECT_NE(diag.str().find("fault injection"), std::string::npos);

    config::Diagnostics diag2;
    config::loadScenarioString("[topology]\n"
                               "enabled = true\n"
                               "[[topology.rows]]\n"
                               "name = \"a\"\n"
                               "[chaos]\n"
                               "enabled = true\n",
                               "test.toml", {}, diag2);
    EXPECT_FALSE(diag2.ok());
    EXPECT_NE(diag2.str().find("chaos"), std::string::npos);
}

TEST(Topology, ForkPathDecorrelatesByNameOnly)
{
    sim::Rng parent(42);
    sim::Rng again(42);
    EXPECT_EQ(parent.forkPath("row3").seed(),
              again.forkPath("row3").seed());
    EXPECT_NE(parent.forkPath("row3").seed(),
              parent.forkPath("row4").seed());
    EXPECT_NE(parent.forkPath("row3").seed(),
              sim::Rng(43).forkPath("row3").seed());
}

TEST(Topology, AddingAGroupLeavesOtherRowsByteIdentical)
{
    // The satellite regression: run a site, then the same site with
    // an extra group appended, and require the original rows' power
    // traces to be byte-identical — path-keyed streams mean new
    // domains never reshuffle old ones.
    auto run = [](bool withExtraGroup) {
        core::ExperimentConfig config;
        config.seed = 9;
        config.duration = sim::secondsToTicks(120);
        config.recordRowSeries = true;
        config.topology.enabled = true;
        TopologyRowGroup a;
        a.name = "a100";
        a.rows = 2;
        a.racksPerRow = 2;
        a.serversPerRack = 2;
        config.topology.groups.push_back(a);
        if (withExtraGroup) {
            TopologyRowGroup h;
            h.name = "h100";
            h.rows = 1;
            h.racksPerRow = 2;
            h.serversPerRack = 2;
            h.server = "DGX-H100";
            h.model = "Llama2-70B";
            config.topology.groups.push_back(h);
        }
        return core::runOversubExperiment(config);
    };

    core::ExperimentResult before = run(false);
    core::ExperimentResult after = run(true);

    ASSERT_EQ(before.domainPowerSeries.size(), 2u);
    ASSERT_EQ(after.domainPowerSeries.size(), 3u);
    for (std::size_t r = 0; r < 2; ++r) {
        const core::DomainPowerSeries &b = before.domainPowerSeries[r];
        const core::DomainPowerSeries &a = after.domainPowerSeries[r];
        EXPECT_EQ(b.path, a.path);
        ASSERT_EQ(b.series.size(), a.series.size());
        for (std::size_t i = 0; i < b.series.size(); ++i) {
            ASSERT_EQ(b.series.at(i).time, a.series.at(i).time);
            // Bitwise equality: the row's whole trajectory — trace,
            // dispatch, batching, telemetry — must be unperturbed.
            ASSERT_EQ(b.series.at(i).value, a.series.at(i).value)
                << b.path << " diverged at sample " << i;
        }
    }
}
