/** @file Unit tests for the load-balancing dispatcher. */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/dispatcher.hh"
#include "llm/model_spec.hh"

using namespace polca::cluster;
using namespace polca::workload;
using namespace polca::sim;

namespace {

struct Fixture
{
    Fixture(int lowServers, int highServers)
        : dispatcher(sim, Rng(3))
    {
        auto addServers = [&](int n, Priority p) {
            for (int i = 0; i < n; ++i) {
                servers.push_back(std::make_unique<InferenceServer>(
                    sim, polca::power::ServerSpec::dgxA100_80gb(),
                    catalog.byName("BLOOM-176B"), p,
                    static_cast<int>(servers.size())));
                dispatcher.addServer(servers.back().get());
            }
        };
        addServers(lowServers, Priority::Low);
        addServers(highServers, Priority::High);
    }

    Trace
    burst(int n, Priority priority, Tick start = 0,
          int output = 64)
    {
        Trace trace;
        for (int i = 0; i < n; ++i) {
            Request r;
            r.arrival = start + i;
            r.id = static_cast<std::uint64_t>(i);
            r.priority = priority;
            r.inputTokens = 1024;
            r.outputTokens = output;
            trace.add(r);
        }
        return trace;
    }

    Simulation sim;
    polca::llm::ModelCatalog catalog;
    Dispatcher dispatcher;
    std::vector<std::unique_ptr<InferenceServer>> servers;
};

} // namespace

TEST(Dispatcher, RoutesToMatchingPriorityPool)
{
    Fixture f(2, 2);
    Trace lows = f.burst(2, Priority::Low);
    f.dispatcher.injectTrace(lows);
    f.sim.runFor(secondsToTicks(1));

    // Both low-priority servers busy; high pool untouched.
    EXPECT_FALSE(f.servers[0]->idleNow());
    EXPECT_FALSE(f.servers[1]->idleNow());
    EXPECT_TRUE(f.servers[2]->idleNow());
    EXPECT_TRUE(f.servers[3]->idleNow());
}

TEST(Dispatcher, CountsArrivalsAndCompletions)
{
    Fixture f(2, 0);
    Trace trace = f.burst(4, Priority::Low);
    f.dispatcher.injectTrace(trace);
    f.sim.runFor(secondsToTicks(60));
    EXPECT_EQ(f.dispatcher.arrivals(Priority::Low), 4u);
    EXPECT_EQ(f.dispatcher.completions(Priority::Low), 4u);
    EXPECT_EQ(f.dispatcher.latencySeconds(Priority::Low).count(), 4u);
}

TEST(Dispatcher, OverflowGoesToCentralQueueThenDrains)
{
    Fixture f(1, 0);
    // One server, buffer one: 5 requests -> 3 in the central queue.
    Trace trace = f.burst(5, Priority::Low);
    f.dispatcher.injectTrace(trace);
    f.sim.runFor(secondsToTicks(1));
    EXPECT_EQ(f.dispatcher.centralQueueDepth(Priority::Low), 3u);
    f.sim.runFor(secondsToTicks(300));
    EXPECT_EQ(f.dispatcher.centralQueueDepth(Priority::Low), 0u);
    EXPECT_EQ(f.dispatcher.completions(Priority::Low), 5u);
}

TEST(Dispatcher, QueueingInflatesLatencyOfLaterRequests)
{
    Fixture f(1, 0);
    Trace trace = f.burst(3, Priority::Low);
    f.dispatcher.injectTrace(trace);
    f.sim.runFor(secondsToTicks(300));
    const auto &sampler = f.dispatcher.latencySeconds(Priority::Low);
    ASSERT_EQ(sampler.count(), 3u);
    EXPECT_GT(sampler.max(), 2.0 * sampler.min());
}

TEST(Dispatcher, SpreadsLoadAcrossIdleServers)
{
    Fixture f(8, 0);
    Trace trace = f.burst(8, Priority::Low);
    f.dispatcher.injectTrace(trace);
    f.sim.runFor(secondsToTicks(1));
    for (const auto &server : f.servers)
        EXPECT_FALSE(server->idleNow());
}

TEST(Dispatcher, ThroughputReflectsCompletions)
{
    Fixture f(2, 0);
    Trace trace = f.burst(4, Priority::Low);
    f.dispatcher.injectTrace(trace);
    f.sim.runFor(secondsToTicks(100));
    EXPECT_NEAR(f.dispatcher.throughput(Priority::Low), 4.0 / 100.0,
                1e-6);
}

TEST(Dispatcher, PerWorkloadLatencyTracked)
{
    Fixture f(2, 0);
    Trace trace;
    Request r;
    r.arrival = 0;
    r.priority = Priority::Low;
    r.workloadIndex = 2;
    r.inputTokens = 1024;
    r.outputTokens = 64;
    trace.add(r);
    f.dispatcher.injectTrace(trace);
    f.sim.runFor(secondsToTicks(60));
    ASSERT_GE(f.dispatcher.latencyByWorkload().size(), 3u);
    EXPECT_EQ(f.dispatcher.latencyByWorkload()[2].count(), 1u);
}

TEST(DispatcherDeath, NoPoolServersFatal)
{
    Fixture f(1, 0);
    Trace trace = f.burst(1, Priority::High);
    f.dispatcher.injectTrace(trace);
    EXPECT_DEATH(f.sim.runFor(secondsToTicks(1)), "priority pool");
}

TEST(Dispatcher, EmptyTraceIsNoop)
{
    Fixture f(1, 1);
    Trace empty;
    f.dispatcher.injectTrace(empty);
    f.sim.runFor(secondsToTicks(1));
    EXPECT_EQ(f.dispatcher.arrivals(Priority::Low), 0u);
}

namespace {

/**
 * The pool scan the dispatcher used before it kept candidate lists,
 * kept here as the reference: collect idle servers, else busy servers
 * with buffer room, in pool order, and draw uniformly among them.
 */
InferenceServer *
scanPick(const std::vector<std::unique_ptr<InferenceServer>> &servers,
         Priority priority, Rng &rng)
{
    std::vector<InferenceServer *> idle;
    std::vector<InferenceServer *> buffered;
    for (const auto &server : servers) {
        if (server->pool() != priority)
            continue;
        if (server->idleNow())
            idle.push_back(server.get());
        else if (server->bufferFree())
            buffered.push_back(server.get());
    }
    auto pick = [&rng](std::vector<InferenceServer *> &candidates) {
        auto i = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(candidates.size()) - 1));
        return candidates[i];
    };
    if (!idle.empty())
        return pick(idle);
    if (!buffered.empty())
        return pick(buffered);
    return nullptr;
}

std::size_t
load(const InferenceServer &server)
{
    return server.activeBatchSize() + server.queueDepth();
}

} // namespace

TEST(Dispatcher, CandidateListsPickWhatAPoolScanPicks)
{
    // Bursts that fill every buffer alternate with lulls that drain
    // them; servers crash and come back (by restore() and by snapshot
    // restore) between arrivals.  Before each arrival the reference
    // scan predicts the pick from a copy of the dispatcher's stream.
    Fixture f(6, 0);
    Rng gen(11);
    Trace trace;
    Tick t = 0;
    for (int i = 0; i < 400; ++i) {
        bool burst = (i / 25) % 2 == 0;
        t += burst ? gen.uniformInt(1'000, 300'000)
                   : gen.uniformInt(1'000'000, 4'000'000);
        Request r;
        r.arrival = t;
        r.id = static_cast<std::uint64_t>(i);
        r.inputTokens = static_cast<std::int32_t>(gen.uniformInt(256, 2048));
        r.outputTokens = static_cast<std::int32_t>(gen.uniformInt(8, 256));
        trace.add(r);
    }
    f.dispatcher.injectTrace(trace);
    std::vector<InferenceServer::State> fresh;
    for (const auto &server : f.servers)
        fresh.push_back(server->saveState());

    int idlePicks = 0, roomPicks = 0, spills = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        Tick arrival = trace.requests()[i].arrival;
        f.sim.runUntil(arrival - 1);

        std::size_t cycle = i / 10;
        InferenceServer &victim = *f.servers[cycle % f.servers.size()];
        if (i % 10 == 3) {
            victim.crash();
        } else if (i % 10 == 8) {
            if (cycle % 2 == 0)
                victim.restore();
            else
                victim.restoreState(fresh[cycle % f.servers.size()]);
        }

        std::vector<std::size_t> before;
        for (const auto &server : f.servers)
            before.push_back(load(*server));
        Rng reference = f.dispatcher.saveState().rng;
        InferenceServer *expected =
            scanPick(f.servers, Priority::Low, reference);
        std::size_t queued = f.dispatcher.centralQueueDepth(Priority::Low);
        bool wasIdle = expected && expected->idleNow();

        f.sim.runUntil(arrival);
        InferenceServer *actual = nullptr;
        for (std::size_t k = 0; k < f.servers.size(); ++k) {
            if (load(*f.servers[k]) == before[k] + 1)
                actual = f.servers[k].get();
        }
        ASSERT_EQ(actual, expected) << "arrival " << i;
        if (!expected) {
            EXPECT_EQ(f.dispatcher.centralQueueDepth(Priority::Low),
                      queued + 1);
            ++spills;
        } else {
            ++(wasIdle ? idlePicks : roomPicks);
        }
    }
    // The run took every branch of the pick.
    EXPECT_GT(idlePicks, 0);
    EXPECT_GT(roomPicks, 0);
    EXPECT_GT(spills, 0);
}
