/** @file Unit tests for the recursive power-domain tree. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/power_domain.hh"
#include "llm/model_spec.hh"

using namespace polca::cluster;
using namespace polca::sim;

namespace {

PowerDomain::Options
domain(std::string name, DomainLevel level, double budget = 0.0,
       Tick interval = 0)
{
    PowerDomain::Options options;
    options.name = std::move(name);
    options.level = level;
    options.budgetWatts = budget;
    options.telemetryInterval = interval;
    return options;
}

} // namespace

TEST(PowerDomain, PathJoinsAncestorNamesWithDots)
{
    Simulation sim;
    PowerDomain site(sim, domain("site", DomainLevel::Site));
    PowerDomain &row = site.addChild(domain("row3", DomainLevel::Row));
    PowerDomain &rack =
        row.addChild(domain("rack1", DomainLevel::Rack));

    EXPECT_EQ(site.path(), "site");
    EXPECT_EQ(row.path(), "site.row3");
    EXPECT_EQ(rack.path(), "site.row3.rack1");
    EXPECT_EQ(rack.parent(), &row);
    EXPECT_EQ(site.parent(), nullptr);
}

TEST(PowerDomain, ProvisionedSumsLeafBudgets)
{
    Simulation sim;
    PowerDomain site(sim, domain("site", DomainLevel::Site));
    PowerDomain &row = site.addChild(domain("row0", DomainLevel::Row));
    row.addLeaf("a", [] { return 0.0; }, 100.0);
    row.addLeaf("b", [] { return 0.0; }, 250.0);
    site.finalize();

    EXPECT_DOUBLE_EQ(row.provisionedWatts(), 350.0);
    EXPECT_DOUBLE_EQ(site.provisionedWatts(), 350.0);
}

TEST(PowerDomain, BudgetDefaultsToProvisionedWhenUnset)
{
    Simulation sim;
    PowerDomain site(sim, domain("site", DomainLevel::Site));
    site.addLeaf("a", [] { return 0.0; }, 100.0);
    site.finalize();

    EXPECT_DOUBLE_EQ(site.budgetWatts(), 100.0);
}

TEST(PowerDomain, ExplicitBudgetOversubscribes)
{
    Simulation sim;
    PowerDomain site(sim, domain("site", DomainLevel::Site, 80.0));
    site.addLeaf("a", [] { return 0.0; }, 100.0);
    site.finalize();

    EXPECT_DOUBLE_EQ(site.provisionedWatts(), 100.0);
    EXPECT_DOUBLE_EQ(site.budgetWatts(), 80.0);
}

TEST(PowerDomain, PowerIsLeftToRightChildSum)
{
    Simulation sim;
    PowerDomain site(sim, domain("site", DomainLevel::Site));
    PowerDomain &row0 = site.addChild(domain("r0", DomainLevel::Row));
    PowerDomain &row1 = site.addChild(domain("r1", DomainLevel::Row));
    row0.addLeaf("a", [] { return 10.0; }, 100.0);
    row0.addLeaf("b", [] { return 20.0; }, 100.0);
    row1.addLeaf("c", [] { return 30.0; }, 100.0);
    site.finalize();

    EXPECT_DOUBLE_EQ(row0.powerWatts(), 30.0);
    EXPECT_DOUBLE_EQ(row1.powerWatts(), 30.0);
    EXPECT_DOUBLE_EQ(site.powerWatts(), 60.0);
}

TEST(PowerDomain, EffectiveBudgetSharesTightestAncestor)
{
    // Two equal rows under a site budget smaller than their sum:
    // each row's share is 500/1000 x 800 = 400, tighter than its
    // own 500 budget.
    Simulation sim;
    PowerDomain site(sim, domain("site", DomainLevel::Site, 800.0));
    PowerDomain &row0 =
        site.addChild(domain("r0", DomainLevel::Row, 500.0));
    PowerDomain &row1 =
        site.addChild(domain("r1", DomainLevel::Row, 500.0));
    row0.addLeaf("a", [] { return 0.0; }, 500.0);
    row1.addLeaf("b", [] { return 0.0; }, 500.0);
    site.finalize();

    EXPECT_DOUBLE_EQ(row0.effectiveBudgetWatts(), 400.0);
    EXPECT_DOUBLE_EQ(row1.effectiveBudgetWatts(), 400.0);
}

TEST(PowerDomain, EffectiveBudgetKeepsOwnWhenAncestorsAreLoose)
{
    Simulation sim;
    PowerDomain site(sim, domain("site", DomainLevel::Site, 2000.0));
    PowerDomain &row =
        site.addChild(domain("r0", DomainLevel::Row, 300.0));
    row.addLeaf("a", [] { return 0.0; }, 500.0);
    site.finalize();

    EXPECT_DOUBLE_EQ(row.effectiveBudgetWatts(), 300.0);
}

TEST(PowerDomain, ManagerRollsChildReadingsUp)
{
    Simulation sim;
    PowerDomain site(sim, domain("site", DomainLevel::Site, 0.0,
                                 secondsToTicks(2)));
    PowerDomain &row = site.addChild(
        domain("r0", DomainLevel::Row, 0.0, secondsToTicks(2)));
    row.addLeaf("a", [] { return 70.0; }, 100.0);
    row.addLeaf("b", [] { return 40.0; }, 100.0);
    site.finalize();

    sim.runFor(secondsToTicks(10));
    ASSERT_NE(site.manager(), nullptr);
    ASSERT_NE(row.manager(), nullptr);
    EXPECT_DOUBLE_EQ(row.manager()->latestReading(), 110.0);
    EXPECT_DOUBLE_EQ(site.manager()->latestReading(), 110.0);
}

TEST(PowerDomain, VisitIsPreOrder)
{
    Simulation sim;
    PowerDomain site(sim, domain("site", DomainLevel::Site));
    PowerDomain &row0 = site.addChild(domain("r0", DomainLevel::Row));
    row0.addChild(domain("k0", DomainLevel::Rack));
    site.addChild(domain("r1", DomainLevel::Row));
    site.finalize();

    std::vector<std::string> paths;
    const PowerDomain &constSite = site;
    constSite.visit([&](const PowerDomain &node) {
        paths.push_back(node.path());
    });
    EXPECT_EQ(paths, (std::vector<std::string>{
                         "site", "site.r0", "site.r0.k0", "site.r1"}));
}

TEST(PowerDomain, ConstApiMatchesMutable)
{
    Simulation sim;
    PowerDomain site(sim, domain("site", DomainLevel::Site, 0.0,
                                 secondsToTicks(2)));
    site.addLeaf("a", [] { return 5.0; }, 10.0);
    site.finalize();

    const PowerDomain &constSite = site;
    EXPECT_EQ(constSite.numServers(), 0);
    EXPECT_TRUE(constSite.servers().empty());
    EXPECT_NE(constSite.manager(), nullptr);
    EXPECT_EQ(constSite.breaker(), nullptr);
    EXPECT_FALSE(constSite.isLeaf());
    EXPECT_TRUE(constSite.children().front()->isLeaf());
    EXPECT_DOUBLE_EQ(constSite.powerWatts(), 5.0);
}

namespace {

std::unique_ptr<InferenceServer>
makeServer(Simulation &sim, const polca::llm::ModelCatalog &catalog,
           int id)
{
    return std::make_unique<InferenceServer>(
        sim, polca::power::ServerSpec::dgxA100_80gb(),
        catalog.byName("BLOOM-176B"), polca::workload::Priority::Low, id);
}

polca::workload::Request
request()
{
    polca::workload::Request r;
    r.inputTokens = 1024;
    r.outputTokens = 64;
    return r;
}

/** site -> {row r0 -> {rack k0: servers 0, 1; rack k1: server 2},
 *  row r1: server 3}, all real InferenceServers.  A non-zero
 *  @p interval gives every interior node a manager. */
struct ServerTree
{
    explicit ServerTree(Tick interval = 0)
        : site(sim, domain("site", DomainLevel::Site, 0.0, interval))
    {
        PowerDomain &row0 = site.addChild(
            domain("r0", DomainLevel::Row, 0.0, interval));
        PowerDomain &rack0 = row0.addChild(
            domain("k0", DomainLevel::Rack, 0.0, interval));
        PowerDomain &rack1 = row0.addChild(
            domain("k1", DomainLevel::Rack, 0.0, interval));
        PowerDomain &row1 = site.addChild(
            domain("r1", DomainLevel::Row, 0.0, interval));
        target = &rack0.addServer(makeServer(sim, catalog, 0), 6500.0);
        rack0.addServer(makeServer(sim, catalog, 1), 6500.0);
        rack1.addServer(makeServer(sim, catalog, 2), 6500.0);
        row1.addServer(makeServer(sim, catalog, 3), 6500.0);
        site.finalize();
        ancestors = {&rack0, &row0, &site};
        servers = site.servers();
    }

    std::vector<double>
    readings() const
    {
        std::vector<double> out;
        for (const PowerDomain *node : ancestors)
            out.push_back(node->powerWatts());
        return out;
    }

    Simulation sim;
    polca::llm::ModelCatalog catalog;
    PowerDomain site;
    InferenceServer *target = nullptr;
    /** The target's ancestors, leaf to root. */
    std::vector<const PowerDomain *> ancestors;
    /** Servers 0..3. */
    std::vector<InferenceServer *> servers;
};

/** Left-to-right sum of @p node's children's readings. */
double
childOrderSum(const PowerDomain &node)
{
    double total = 0.0;
    for (const auto &child : node.children())
        total += child->powerWatts();
    return total;
}

/** Every interior node reads bitwise the left-to-right sum of its
 *  children's readings. */
void
expectChildOrderSums(const PowerDomain &node)
{
    if (node.isLeaf())
        return;
    for (const auto &child : node.children())
        expectChildOrderSums(*child);
    EXPECT_EQ(node.powerWatts(), childOrderSum(node)) << node.path();
}

} // namespace

TEST(PowerDomain, EveryServerDrawChangeMovesEveryAncestor)
{
    // Each reading below comes from sums cached at the previous one;
    // an event the server fails to report leaves them where they were.
    ServerTree t;
    std::vector<double> last = t.readings();
    auto expectMoved = [&](const char *event) {
        SCOPED_TRACE(event);
        std::vector<double> now = t.readings();
        for (std::size_t i = 0; i < now.size(); ++i)
            EXPECT_NE(now[i], last[i]) << t.ancestors[i]->path();
        expectChildOrderSums(t.site);
        last = now;
    };

    t.target->submit(request());
    expectMoved("phase change: prompt begins");
    t.target->applyClockLock(1110.0);
    expectMoved("clock lock");
    t.target->applyPowerBrake(true);
    expectMoved("power brake");
    t.target->crash();
    expectMoved("crash");
    InferenceServer::State crashed = t.target->saveState();
    t.target->restore();
    expectMoved("restore");
    t.target->restoreState(crashed);
    expectMoved("snapshot restore");
}

TEST(PowerDomain, SourceLeafIsReadOnEveryRead)
{
    // A PowerSource cannot report its changes: its ancestors must
    // re-read it every time, while a server-only sibling still caches.
    Simulation sim;
    polca::llm::ModelCatalog catalog;
    double load = 100.0;
    PowerDomain site(sim, domain("site", DomainLevel::Site));
    PowerDomain &servers = site.addChild(domain("r0", DomainLevel::Row));
    PowerDomain &meters = site.addChild(domain("r1", DomainLevel::Row));
    InferenceServer &server =
        servers.addServer(makeServer(sim, catalog, 0), 6500.0);
    meters.addLeaf("meter", [&load] { return load; }, 500.0);
    site.finalize();

    double before = site.powerWatts();
    load = 250.0;
    EXPECT_EQ(meters.powerWatts(), 250.0);
    EXPECT_NE(site.powerWatts(), before);
    EXPECT_EQ(site.powerWatts(),
              servers.powerWatts() + meters.powerWatts());

    before = site.powerWatts();
    double row = servers.powerWatts();
    server.submit(request());
    EXPECT_NE(servers.powerWatts(), row);
    EXPECT_NE(site.powerWatts(), before);
    expectChildOrderSums(site);
}

TEST(PowerDomain, SiblingChangesBetweenReadsAreAllSummed)
{
    // A leaf reporting under an ancestor that is stale already must
    // still flag its own slot, and a node read on its own (as its
    // manager reads it) must leave the flags above it for the next
    // read there.
    ServerTree t;
    const PowerDomain &row0 = *t.site.children()[0];
    const PowerDomain &rack0 = *row0.children()[0];
    double last = t.site.powerWatts();
    auto expectSiteMoved = [&t, &last] {
        double now = t.site.powerWatts();
        EXPECT_NE(now, last);
        expectChildOrderSums(t.site);
        last = now;
    };

    {
        SCOPED_TRACE("two servers of rack k0, no read between them");
        t.servers[0]->submit(request());
        t.servers[1]->submit(request());
        expectSiteMoved();
    }
    {
        SCOPED_TRACE("rack k0 read alone, then a sibling changes");
        t.servers[0]->applyClockLock(1110.0);
        expectChildOrderSums(rack0);
        t.servers[1]->applyClockLock(1110.0);
        expectSiteMoved();
    }
    {
        SCOPED_TRACE("rack k1 and row r1 change, row r0 read alone");
        t.servers[2]->submit(request());
        t.servers[3]->submit(request());
        expectChildOrderSums(row0);
        expectSiteMoved();
    }
}

TEST(PowerDomain, ManagerReadingIsChildOrderSumAtEveryReading)
{
    // Each manager reads its node's own (cached) sum.  Requests of
    // varied length and clock locks keep the draws moving between
    // readings, and move different servers between any two of them.
    ServerTree t(secondsToTicks(2));
    int delivered = 0;
    std::vector<double> siteReadings;
    t.site.visit([&](PowerDomain &node) {
        if (!node.manager())
            return;
        const PowerDomain *raw = &node;
        node.manager()->addListener([&, raw](Tick, double watts) {
            EXPECT_EQ(watts, childOrderSum(*raw)) << raw->path();
            if (raw == &t.site)
                siteReadings.push_back(watts);
            ++delivered;
        });
    });
    int next = 0;
    auto arrivals = t.sim.every(secondsToTicks(0.7), [&](Tick) {
        InferenceServer *server =
            t.servers[static_cast<std::size_t>(next % 4)];
        server->applyClockLock(1110.0 + 30.0 * (next % 7));
        polca::workload::Request r = request();
        r.outputTokens = 16 + 24 * (next % 5);
        ++next;
        if (server->canAccept())
            server->submit(r);
    });

    t.sim.runFor(secondsToTicks(60));
    EXPECT_EQ(delivered, 5 * 30);
    std::sort(siteReadings.begin(), siteReadings.end());
    EXPECT_GT(std::unique(siteReadings.begin(), siteReadings.end()) -
                  siteReadings.begin(),
              10);
}
