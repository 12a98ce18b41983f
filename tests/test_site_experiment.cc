/**
 * @file
 * End-to-end site-mode experiment tests: determinism, per-level
 * rollup stats, the compositional site trace, and parent-budget
 * awareness of the per-row managers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/oversub_experiment.hh"

namespace {

using namespace polca;
using namespace polca::core;

ExperimentConfig
smallSite(double siteBudgetFraction = 1.0)
{
    ExperimentConfig config;
    config.seed = 5;
    config.duration = sim::secondsToTicks(180);
    config.topology.enabled = true;
    config.topology.siteBudgetFraction = siteBudgetFraction;
    cluster::TopologyRowGroup a;
    a.name = "a100";
    a.rows = 2;
    a.racksPerRow = 2;
    a.serversPerRack = 3;
    config.topology.groups.push_back(a);
    cluster::TopologyRowGroup h;
    h.name = "h100";
    h.rows = 1;
    h.racksPerRow = 2;
    h.serversPerRack = 3;
    h.server = "DGX-H100";
    h.model = "Llama2-70B";
    config.topology.groups.push_back(h);
    return config;
}

} // namespace

TEST(SiteExperiment, ProducesPreOrderDomainRollup)
{
    ExperimentResult result = runOversubExperiment(smallSite());

    // site + 3 rows + 6 racks, pre-order, site first.
    ASSERT_EQ(result.domains.size(), 10u);
    EXPECT_EQ(result.domains[0].path, "site");
    EXPECT_EQ(result.domains[0].level, "site");
    EXPECT_EQ(result.domains[0].servers, 18);
    EXPECT_EQ(result.domains[1].path, "site.a1000");
    EXPECT_EQ(result.domains[1].level, "row");
    EXPECT_EQ(result.domains[2].path, "site.a1000.rack0");
    EXPECT_EQ(result.domains[2].level, "rack");
    EXPECT_EQ(result.domains[2].servers, 3);
    EXPECT_EQ(result.domains[7].path, "site.h1000");

    // Every domain saw power; rows saw completions.
    for (const DomainStats &d : result.domains) {
        EXPECT_GT(d.peakWatts, 0.0) << d.path;
        EXPECT_GT(d.provisionedWatts, 0.0) << d.path;
        if (d.level == "row") {
            EXPECT_GT(d.completions, 0u) << d.path;
        }
    }
    EXPECT_GT(result.lowCompletions + result.highCompletions, 0u);
}

TEST(SiteExperiment, SameSeedIsDeterministic)
{
    ExperimentResult a = runOversubExperiment(smallSite());
    ExperimentResult b = runOversubExperiment(smallSite());

    EXPECT_EQ(a.lowCompletions, b.lowCompletions);
    EXPECT_EQ(a.highCompletions, b.highCompletions);
    EXPECT_EQ(a.low.p99, b.low.p99);
    EXPECT_EQ(a.high.p99, b.high.p99);
    EXPECT_EQ(a.capCommands, b.capCommands);
    EXPECT_EQ(a.energyKwh, b.energyKwh);
    ASSERT_EQ(a.domains.size(), b.domains.size());
    for (std::size_t i = 0; i < a.domains.size(); ++i) {
        EXPECT_EQ(a.domains[i].path, b.domains[i].path);
        EXPECT_EQ(a.domains[i].peakWatts, b.domains[i].peakWatts);
        EXPECT_EQ(a.domains[i].meanWatts, b.domains[i].meanWatts);
        EXPECT_EQ(a.domains[i].completions,
                  b.domains[i].completions);
    }
}

TEST(SiteExperiment, SiteTraceIsRowSumAtEveryTick)
{
    ExperimentConfig config = smallSite();
    config.recordRowSeries = true;
    ExperimentResult result = runOversubExperiment(config);

    ASSERT_FALSE(result.rowPowerSeries.empty());
    ASSERT_EQ(result.domainPowerSeries.size(), 3u);
    for (std::size_t i = 0; i < result.rowPowerSeries.size(); ++i) {
        double sum = 0.0;
        for (const DomainPowerSeries &row : result.domainPowerSeries)
            sum += row.series.at(i).value;
        // Exact float identity: the site manager reads per-row
        // rollups left to right at the same instant.
        EXPECT_EQ(result.rowPowerSeries.at(i).value, sum)
            << "tick " << i;
    }
}

TEST(SiteExperiment, TighterSiteBudgetThrottlesRows)
{
    ExperimentResult loose = runOversubExperiment(smallSite(1.0));
    ExperimentResult tight = runOversubExperiment(smallSite(0.6));

    // Parent-budget awareness: per-row managers cap against their
    // share of the site budget, so shrinking only the *site* budget
    // must produce more capping without any row config change.
    EXPECT_GT(tight.capCommands, loose.capCommands);
}

TEST(SiteExperiment, UnmanagedSiteRunsWithoutManagers)
{
    ExperimentConfig config = smallSite();
    config.managed = false;
    ExperimentResult result = runOversubExperiment(config);
    EXPECT_EQ(result.capCommands, 0u);
    EXPECT_GT(result.lowCompletions + result.highCompletions, 0u);
}

TEST(SiteExperiment, MonitorChecksTheSiteBreakerEnvelope)
{
    // Rows at their nameplate budget never leave their own breaker
    // envelope, but a site budgeted at a fifth of them overdraws its
    // breaker from the start.  The site breaker has no manager, so
    // its monitor checks the envelope only.
    ExperimentConfig config = smallSite(0.2);
    config.managed = false;
    config.safety.monitor = true;
    ExperimentResult result = runOversubExperiment(config);

    ASSERT_EQ(result.domains.size(), 10u);
    const DomainStats &site = result.domains[0];
    ASSERT_EQ(site.path, "site");
    EXPECT_EQ(site.violations, 1u);
    for (const DomainStats &d : result.domains) {
        if (d.level != "site") {
            EXPECT_EQ(d.violations, 0u) << d.path;
        }
    }
    ASSERT_EQ(result.violations.size(), 1u);
    EXPECT_EQ(result.violations[0].invariant,
              SafetyInvariant::BreakerEnvelope);
    EXPECT_DOUBLE_EQ(result.violations[0].limit,
                     site.breakerLimitWatts);
    EXPECT_GT(result.violations[0].value, site.breakerLimitWatts);
    // Reported once the excursion outlasts the breaker's own grace.
    EXPECT_GE(result.violations[0].at, sim::secondsToTicks(30));
}

TEST(SiteExperiment, RowTelemetryDropoutAppliesToEveryRow)
{
    // Two rows of 2 x 2 servers, half of every row reading dropped.
    ExperimentConfig config;
    config.seed = 11;
    config.duration = sim::secondsToTicks(300);
    config.topology.enabled = true;
    cluster::TopologyRowGroup group;
    group.name = "row";
    group.rows = 2;
    group.racksPerRow = 2;
    group.serversPerRack = 2;
    config.topology.groups.push_back(group);
    config.row.telemetryDropoutProbability = 0.5;

    ExperimentResult a = runOversubExperiment(config);
    // Only row managers drop: n readings, each dropped w.p. 1/2.
    double n = 2.0 * static_cast<double>(config.duration) /
        static_cast<double>(config.topology.telemetryInterval);
    double sigma = std::sqrt(n * 0.25);
    EXPECT_GT(static_cast<double>(a.droppedReadings), n / 2 - 5 * sigma);
    EXPECT_LT(static_cast<double>(a.droppedReadings), n / 2 + 5 * sigma);

    ExperimentResult b = runOversubExperiment(config);
    EXPECT_EQ(a.droppedReadings, b.droppedReadings);
    EXPECT_EQ(a.capCommands, b.capCommands);
    EXPECT_EQ(a.low.p99, b.low.p99);
    EXPECT_EQ(a.energyKwh, b.energyKwh);
}
