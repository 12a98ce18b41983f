/**
 * @file
 * Tests of the flat row: the [row] deployment built as a one-row
 * cluster::Site whose root is the row, with its servers directly
 * beneath it.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "cluster/topology.hh"
#include "sim/random.hh"
#include "workload/trace.hh"

namespace {

using namespace polca;
using namespace polca::cluster;

RowConfig
smallRow(int base = 4, double added = 0.0)
{
    RowConfig config;
    config.baseServers = base;
    config.addedServerFraction = added;
    return config;
}

} // namespace

TEST(OneRowSite, RootIsTheRowWithServersDirectlyBeneath)
{
    sim::Simulation sim;
    Site site(sim, smallRow(4), sim::Rng(1));
    ASSERT_EQ(site.rows().size(), 1u);
    EXPECT_EQ(site.rows()[0].domain, &site.root());
    EXPECT_EQ(site.root().path(), "row");
    EXPECT_EQ(site.root().level(), DomainLevel::Row);
    ASSERT_EQ(site.root().children().size(), 4u);
    for (const auto &child : site.root().children())
        EXPECT_NE(child->server(), nullptr) << child->path();
}

TEST(OneRowSite, DeploysBasePlusAddedServers)
{
    sim::Simulation sim;
    Site site(sim, smallRow(10, 0.30), sim::Rng(1));
    EXPECT_EQ(site.numServers(), 13);
}

TEST(OneRowSite, ProvisionedBudgetUsesBaseServersOnly)
{
    // Oversubscription adds servers under the *same* budget.
    sim::Simulation sim;
    Site site(sim, smallRow(10, 0.30), sim::Rng(1));
    EXPECT_DOUBLE_EQ(site.root().budgetWatts(), 10 * 4950.0);
}

TEST(OneRowSite, PoolSplitFollowsLpFraction)
{
    sim::Simulation sim;
    RowConfig config = smallRow(10);
    config.lpServerFraction = 0.5;
    Site site(sim, config, sim::Rng(1));
    EXPECT_EQ(site.root().pool(workload::Priority::Low).size(), 5u);
    EXPECT_EQ(site.root().pool(workload::Priority::High).size(), 5u);
}

TEST(OneRowSite, IdleRowPowerIsSumOfIdleServers)
{
    sim::Simulation sim;
    Site site(sim, smallRow(4), sim::Rng(1));
    double perServer = site.root().servers()[0]->powerWatts();
    EXPECT_NEAR(site.root().powerWatts(), 4 * perServer, 1.0);
}

TEST(OneRowSite, RootManagerSeesAllServers)
{
    sim::Simulation sim;
    Site site(sim, smallRow(4), sim::Rng(1), /*recordSeries=*/true);
    sim.runFor(sim::secondsToTicks(2));
    EXPECT_NEAR(site.root().manager()->latestReading(),
                site.root().powerWatts(), 1.0);
}

TEST(OneRowSite, TelemetryIntervalRespected)
{
    sim::Simulation sim;
    RowConfig config = smallRow(2);
    config.telemetryInterval = sim::secondsToTicks(5);
    Site site(sim, config, sim::Rng(1), /*recordSeries=*/true);
    sim.runFor(sim::secondsToTicks(20));
    EXPECT_EQ(site.root().manager()->series().size(), 4u);
}

TEST(OneRowSite, ServesTrafficEndToEnd)
{
    sim::Simulation sim;
    Site site(sim, smallRow(4), sim::Rng(1));
    Dispatcher &dispatcher = *site.rows().front().dispatcher;

    workload::Trace trace;
    for (int i = 0; i < 8; ++i) {
        workload::Request r;
        r.arrival = sim::secondsToTicks(static_cast<double>(i));
        r.id = static_cast<std::uint64_t>(i);
        r.priority =
            i % 2 ? workload::Priority::High : workload::Priority::Low;
        r.inputTokens = 1024;
        r.outputTokens = 64;
        trace.add(r);
    }
    dispatcher.injectTrace(trace);
    sim.runFor(sim::secondsToTicks(120));
    EXPECT_EQ(dispatcher.completions(workload::Priority::Low), 4u);
    EXPECT_EQ(dispatcher.completions(workload::Priority::High), 4u);
}

TEST(OneRowSite, ModelResolvedFromCatalog)
{
    sim::Simulation sim;
    RowConfig config = smallRow(2);
    config.modelName = "Llama2-70B";
    Site site(sim, config, sim::Rng(1));
    EXPECT_EQ(site.rows().front().model->name, "Llama2-70B");
    EXPECT_EQ(site.rows().front().model->inferenceGpus, 4);
}

TEST(OneRowSiteDeath, UnknownModelFatal)
{
    sim::Simulation sim;
    RowConfig config = smallRow(2);
    config.modelName = "GPT-5";
    EXPECT_DEATH(Site(sim, config, sim::Rng(1)), "unknown model");
}
