/** @file Unit tests for the domain manager telemetry aggregator. */

#include <gtest/gtest.h>

#include "sim/simulation.hh"
#include "telemetry/domain_manager.hh"

using namespace polca::telemetry;
using namespace polca::sim;

TEST(DomainManager, SumsSourcesEveryInterval)
{
    Simulation sim;
    DomainManager manager(sim);
    double a = 100.0, b = 200.0;
    manager.addSource([&] { return a; });
    manager.addSource([&] { return b; });
    manager.start();
    sim.runFor(secondsToTicks(2));
    EXPECT_DOUBLE_EQ(manager.latestReading(), 300.0);
    EXPECT_EQ(manager.latestReadingTime(), secondsToTicks(2));
}

TEST(DomainManager, SeriesRecordsHistory)
{
    Simulation sim;
    DomainManager manager(sim);
    double v = 1.0;
    manager.addSource([&] { return v; });
    manager.start();
    sim.runFor(secondsToTicks(2));
    v = 2.0;
    sim.runFor(secondsToTicks(2));
    ASSERT_EQ(manager.series().size(), 2u);
    EXPECT_DOUBLE_EQ(manager.series().points()[0].value, 1.0);
    EXPECT_DOUBLE_EQ(manager.series().points()[1].value, 2.0);
}

TEST(DomainManager, RecordingCanBeDisabled)
{
    Simulation sim;
    DomainManager manager(sim, secondsToTicks(2), /*recordSeries=*/false);
    manager.addSource([] { return 5.0; });
    manager.start();
    sim.runFor(secondsToTicks(10));
    EXPECT_TRUE(manager.series().empty());
    EXPECT_DOUBLE_EQ(manager.latestReading(), 5.0);
}

TEST(DomainManager, ListenersSeeEveryReading)
{
    Simulation sim;
    DomainManager manager(sim);
    manager.addSource([] { return 7.0; });
    int calls = 0;
    double last = 0.0;
    manager.addListener([&](Tick, double watts) {
        ++calls;
        last = watts;
    });
    manager.start();
    sim.runFor(secondsToTicks(10));
    EXPECT_EQ(calls, 5);
    EXPECT_DOUBLE_EQ(last, 7.0);
}

TEST(DomainManager, ReadNowBypassesSchedule)
{
    Simulation sim;
    DomainManager manager(sim);
    manager.addSource([] { return 9.0; });
    EXPECT_DOUBLE_EQ(manager.readNow(), 9.0);
    EXPECT_DOUBLE_EQ(manager.latestReading(), 0.0);  // not periodic
}

TEST(DomainManager, StopHaltsReadings)
{
    Simulation sim;
    DomainManager manager(sim);
    manager.addSource([] { return 1.0; });
    manager.start();
    sim.runFor(secondsToTicks(4));
    manager.stop();
    sim.runFor(secondsToTicks(10));
    EXPECT_EQ(manager.series().size(), 2u);
}

TEST(DomainManager, CustomInterval)
{
    Simulation sim;
    DomainManager manager(sim, secondsToTicks(5));
    manager.addSource([] { return 1.0; });
    manager.start();
    sim.runFor(secondsToTicks(20));
    EXPECT_EQ(manager.series().size(), 4u);
}

TEST(DomainManager, DropoutSkipsReadingsSilently)
{
    Simulation sim;
    DomainManager manager(sim);
    manager.addSource([] { return 1.0; });
    int notified = 0;
    manager.addListener([&](Tick, double) { ++notified; });
    manager.setDropoutProbability(0.5, Rng(3));
    manager.start();
    sim.runFor(secondsToTicks(2000));  // 1000 scheduled readings
    EXPECT_NEAR(static_cast<double>(manager.droppedReadings()),
                500.0, 80.0);
    EXPECT_EQ(static_cast<std::uint64_t>(notified) +
                  manager.droppedReadings(),
              1000u);
}

TEST(DomainManager, StopThenStartResumesSchedule)
{
    Simulation sim;
    DomainManager manager(sim);
    manager.addSource([] { return 1.0; });
    manager.start();
    EXPECT_TRUE(manager.running());
    sim.runFor(secondsToTicks(4));  // readings at 2 s and 4 s
    manager.stop();
    EXPECT_FALSE(manager.running());
    sim.runFor(secondsToTicks(10));
    ASSERT_EQ(manager.series().size(), 2u);

    manager.start();
    EXPECT_TRUE(manager.running());
    sim.runFor(secondsToTicks(4));  // readings at 16 s and 18 s
    ASSERT_EQ(manager.series().size(), 4u);
    EXPECT_EQ(manager.series().points()[2].time, secondsToTicks(16));
    EXPECT_EQ(manager.latestReadingTime(), secondsToTicks(18));
}

TEST(DomainManager, FaultHookDropsReadings)
{
    Simulation sim;
    DomainManager manager(sim);
    manager.addSource([] { return 4.0; });
    int notified = 0;
    manager.addListener([&](Tick, double) { ++notified; });
    manager.setFaultHook(
        [](Tick, double) { return std::optional<double>(); });
    manager.start();
    sim.runFor(secondsToTicks(10));
    EXPECT_EQ(notified, 0);
    EXPECT_EQ(manager.droppedReadings(), 5u);
    EXPECT_TRUE(manager.series().empty());
}

TEST(DomainManager, FaultHookRewritesValues)
{
    Simulation sim;
    DomainManager manager(sim);
    manager.addSource([] { return 4.0; });
    manager.setFaultHook(
        [](Tick, double watts) { return std::optional(watts * 2.0); });
    manager.start();
    sim.runFor(secondsToTicks(2));
    EXPECT_DOUBLE_EQ(manager.latestReading(), 8.0);
    EXPECT_EQ(manager.droppedReadings(), 0u);
}

TEST(DomainManager, FaultHookRunsAfterDropoutFilter)
{
    // A reading lost to i.i.d. dropout never reaches the hook, so
    // hook-based fault statistics exclude benign dropout losses: the
    // hook fires exactly once per *delivered* reading.
    Simulation sim;
    DomainManager manager(sim);
    manager.addSource([] { return 4.0; });
    int hookCalls = 0, notified = 0;
    manager.addListener([&](Tick, double) { ++notified; });
    manager.setDropoutProbability(0.5, Rng(2));
    manager.setFaultHook([&](Tick, double watts) {
        ++hookCalls;
        return std::optional(watts);
    });
    manager.start();
    sim.runFor(secondsToTicks(200));  // 100 scheduled readings
    EXPECT_EQ(hookCalls, notified);
    EXPECT_LT(notified, 100);
    EXPECT_GT(notified, 0);
    EXPECT_EQ(manager.droppedReadings(),
              100u - static_cast<std::uint64_t>(notified));
}

TEST(DomainManagerDeath, BadDropoutProbabilityFatal)
{
    Simulation sim;
    DomainManager manager(sim);
    EXPECT_DEATH(manager.setDropoutProbability(1.5, Rng(1)),
                 "outside");
}

TEST(DomainManagerDeath, EmptySourcePanics)
{
    Simulation sim;
    DomainManager manager(sim);
    EXPECT_DEATH(manager.addSource(DomainManager::PowerSource{}),
                 "empty power source");
}
