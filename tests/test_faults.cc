/** @file Unit tests for the fault-injection subsystem. */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "cluster/inference_server.hh"
#include "core/power_manager.hh"
#include "faults/fault_injector.hh"
#include "faults/fault_plan.hh"
#include "llm/model_spec.hh"
#include "sim/simulation.hh"
#include "telemetry/breaker_model.hh"
#include "telemetry/domain_manager.hh"

using namespace polca;
using namespace polca::faults;
using namespace polca::sim;
using polca::workload::Priority;

namespace {

/** A scripted row: 2 s telemetry over one mutable watts value, with
 *  an injector wired to it. */
struct TelemetryFixture
{
    explicit TelemetryFixture(FaultPlan plan, std::uint64_t seed = 7)
        : row(sim, secondsToTicks(2), false),
          injector(sim, std::move(plan), Rng(seed))
    {
        row.addSource([this] { return watts; });
        row.addListener([this](Tick now, double value) {
            delivered.emplace_back(now, value);
        });
        injector.attachTelemetry(row);
        injector.start();
        row.start();
    }

    Simulation sim;
    telemetry::DomainManager row;
    FaultInjector injector;
    double watts = 5000.0;
    std::vector<std::pair<Tick, double>> delivered;
};

} // namespace

TEST(FaultPlan, EmptyByDefault)
{
    FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    plan.burstyLoss.enabled = true;
    EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, CannedScenariosAreValidAndNonEmpty)
{
    Tick duration = secondsToTicks(24 * 3600.0);
    for (const FaultScenario &scenario : faultScenarios()) {
        FaultPlan plan = scenarioByName(scenario.name, duration, 40);
        EXPECT_EQ(plan.empty(), scenario.name == "none") << scenario.name;
    }
}

TEST(FaultPlanDeath, BadWindowFatal)
{
    FaultPlan plan;
    BlackoutWindow window;
    window.start = secondsToTicks(10);
    window.duration = 0;
    plan.blackouts.push_back(window);
    EXPECT_DEATH(plan.validate(), "not a valid interval");
}

TEST(FaultPlanDeath, BadProbabilityFatal)
{
    FaultPlan plan;
    plan.burstyLoss.enabled = true;
    plan.burstyLoss.enterBurstProbability = 1.5;
    EXPECT_DEATH(plan.validate(), "outside");
}

TEST(FaultPlanDeath, UnknownScenarioFatal)
{
    EXPECT_DEATH(scenarioByName("meteor", secondsToTicks(100), 4),
                 "unknown fault scenario");
}

TEST(FaultInjector, BlackoutSuppressesReadingsThenRecovers)
{
    FaultPlan plan;
    BlackoutWindow window;
    window.start = secondsToTicks(10);
    window.duration = secondsToTicks(10);
    plan.blackouts.push_back(window);
    TelemetryFixture f(std::move(plan));

    f.sim.runFor(secondsToTicks(30));
    // Readings at 2..30 s; the ones in [10, 20) are suppressed.
    EXPECT_EQ(f.injector.blackedOutReadings(), 5u);
    EXPECT_EQ(f.row.droppedReadings(), 5u);
    EXPECT_EQ(f.delivered.size(), 10u);
    for (const auto &[tick, value] : f.delivered) {
        EXPECT_TRUE(tick < window.start ||
                    tick >= window.start + window.duration);
        EXPECT_DOUBLE_EQ(value, 5000.0);
    }
}

TEST(FaultInjector, BurstyLossIsDeterministicUnderSeed)
{
    FaultPlan plan;
    plan.burstyLoss.enabled = true;
    plan.burstyLoss.enterBurstProbability = 0.05;
    plan.burstyLoss.exitBurstProbability = 0.2;
    plan.burstyLoss.goodLossProbability = 0.0;
    plan.burstyLoss.burstLossProbability = 1.0;

    TelemetryFixture a(plan, 11), b(plan, 11), c(plan, 12);
    a.sim.runFor(secondsToTicks(2000));
    b.sim.runFor(secondsToTicks(2000));
    c.sim.runFor(secondsToTicks(2000));

    EXPECT_GT(a.injector.burstDroppedReadings(), 0u);
    EXPECT_EQ(a.injector.burstDroppedReadings(),
              b.injector.burstDroppedReadings());
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_NE(a.injector.burstDroppedReadings(),
              c.injector.burstDroppedReadings());
}

TEST(FaultInjector, BurstLossesComeInStreaks)
{
    // With loss only inside bursts, every loss belongs to a streak
    // whose expected length is 1 / exitBurstProbability = 10; verify
    // that at least one long streak occurs, which i.i.d. loss at the
    // same average rate would make vanishingly unlikely.
    FaultPlan plan;
    plan.burstyLoss.enabled = true;
    plan.burstyLoss.enterBurstProbability = 0.02;
    plan.burstyLoss.exitBurstProbability = 0.1;
    plan.burstyLoss.goodLossProbability = 0.0;
    plan.burstyLoss.burstLossProbability = 1.0;
    TelemetryFixture f(std::move(plan));

    f.sim.runFor(secondsToTicks(4000));
    ASSERT_GT(f.delivered.size(), 2u);
    Tick longestGap = 0;
    for (std::size_t i = 1; i < f.delivered.size(); ++i) {
        longestGap = std::max(
            longestGap, f.delivered[i].first - f.delivered[i - 1].first);
    }
    // A streak of >= 5 consecutive losses (12 s gap between
    // delivered readings).
    EXPECT_GE(longestGap, secondsToTicks(12));
}

TEST(FaultInjector, SensorBiasShiftsWindowedReadings)
{
    FaultPlan plan;
    SensorFault fault;
    fault.start = secondsToTicks(10);
    fault.duration = secondsToTicks(10);
    fault.mode = SensorFaultMode::Bias;
    fault.biasWatts = -1500.0;
    plan.sensorFaults.push_back(fault);
    TelemetryFixture f(std::move(plan));

    f.sim.runFor(secondsToTicks(30));
    EXPECT_EQ(f.injector.corruptedReadings(), 5u);
    for (const auto &[tick, value] : f.delivered) {
        bool inWindow = tick >= fault.start &&
            tick < fault.start + fault.duration;
        EXPECT_DOUBLE_EQ(value, inWindow ? 3500.0 : 5000.0);
    }
}

TEST(FaultInjector, ZeroStddevNoiseLeavesReadingsUnchanged)
{
    // A 0 W noise fault is a valid plan; it must pass readings
    // through as they are rather than reach the library normal
    // distribution with a zero stddev.
    FaultPlan plan;
    SensorFault fault;
    fault.start = secondsToTicks(10);
    fault.duration = secondsToTicks(10);
    fault.mode = SensorFaultMode::Noise;
    fault.noiseStddevWatts = 0.0;
    plan.sensorFaults.push_back(fault);
    EXPECT_TRUE(plan.problems().empty());
    TelemetryFixture f(std::move(plan));

    f.sim.runFor(secondsToTicks(30));
    ASSERT_EQ(f.delivered.size(), 15u);
    for (const auto &[tick, value] : f.delivered)
        EXPECT_EQ(value, 5000.0) << "at " << ticksToSeconds(tick) << " s";
}

TEST(FaultInjector, CorruptedReadingsClampAtZero)
{
    FaultPlan plan;
    SensorFault fault;
    fault.start = secondsToTicks(2);
    fault.duration = secondsToTicks(100);
    fault.mode = SensorFaultMode::Bias;
    fault.biasWatts = -99999.0;
    plan.sensorFaults.push_back(fault);
    TelemetryFixture f(std::move(plan));

    f.sim.runFor(secondsToTicks(10));
    ASSERT_FALSE(f.delivered.empty());
    for (const auto &[tick, value] : f.delivered)
        EXPECT_DOUBLE_EQ(value, 0.0);
}

TEST(FaultInjector, StuckAtLastRepeatsPreFaultValue)
{
    FaultPlan plan;
    SensorFault fault;
    fault.start = secondsToTicks(10);
    fault.duration = secondsToTicks(10);
    fault.mode = SensorFaultMode::StuckAtLast;
    plan.sensorFaults.push_back(fault);
    TelemetryFixture f(std::move(plan));

    f.sim.runFor(secondsToTicks(9));  // readings at 2..8 s see 5000
    f.watts = 9000.0;                 // real power moves...
    f.sim.runFor(secondsToTicks(12)); // ...but the sensor is stuck
    for (const auto &[tick, value] : f.delivered) {
        // In-window readings repeat the last pre-fault value (5000)
        // even though real power moved to 9000 just before the
        // window opened; post-window readings see the truth again.
        bool afterWindow = tick >= fault.start + fault.duration;
        EXPECT_DOUBLE_EQ(value, afterWindow ? 9000.0 : 5000.0)
            << "at " << ticksToSeconds(tick) << " s";
    }
}

TEST(FaultPlan, ProblemsPinpointDegeneratePlans)
{
    FaultPlan plan;
    BlackoutWindow zero;
    zero.start = secondsToTicks(10);
    zero.duration = 0;
    plan.blackouts.push_back(zero);

    BlackoutWindow a, b;
    a.start = secondsToTicks(100);
    a.duration = secondsToTicks(60);
    b.start = secondsToTicks(120);  // overlaps a
    b.duration = secondsToTicks(60);
    plan.blackouts.push_back(a);
    plan.blackouts.push_back(b);

    ServerCrash noRestart;
    noRestart.at = secondsToTicks(5);
    noRestart.downtime = 0;  // no restart, not marked permanent
    plan.crashes.push_back(noRestart);

    ServerCrash contradictory;
    contradictory.at = secondsToTicks(10);
    contradictory.downtime = secondsToTicks(60);
    contradictory.permanent = true;  // permanent AND a downtime
    plan.crashes.push_back(contradictory);

    ControllerCrash c1, c2;
    c1.at = secondsToTicks(100);
    c1.downtime = secondsToTicks(120);
    c2.at = secondsToTicks(150);  // inside c1's downtime
    c2.downtime = secondsToTicks(60);
    plan.controllerCrashes.push_back(c1);
    plan.controllerCrashes.push_back(c2);

    std::vector<std::string> problems = plan.problems();
    EXPECT_EQ(problems.size(), 5u);

    // A well-formed permanent crash reports nothing.
    FaultPlan good;
    ServerCrash dark;
    dark.at = secondsToTicks(5);
    dark.permanent = true;
    good.crashes.push_back(dark);
    EXPECT_TRUE(good.problems().empty());
}

namespace {

/** Records the crash/restart calls a FaultPlan drives. */
class RecordingHooks : public ControllerHooks
{
  public:
    void controllerCrash() override { ++crashes; }
    void controllerRestart(bool coldRestart) override
    {
        ++restarts;
        lastCold = coldRestart;
    }
    void serverRestarted(telemetry::ClockControllable *) override
    {
        ++serverRestarts;
    }

    int crashes = 0;
    int restarts = 0;
    int serverRestarts = 0;
    bool lastCold = false;
};

} // namespace

TEST(FaultInjector, ControllerCrashAndRestartAreScheduled)
{
    FaultPlan plan;
    ControllerCrash crash;
    crash.at = secondsToTicks(10);
    crash.downtime = secondsToTicks(20);
    crash.coldRestart = true;
    plan.controllerCrashes.push_back(crash);

    Simulation sim;
    FaultInjector injector(sim, plan, Rng(5));
    RecordingHooks hooks;
    injector.attachController(&hooks);
    injector.start();

    sim.runFor(secondsToTicks(15));
    EXPECT_EQ(hooks.crashes, 1);
    EXPECT_EQ(hooks.restarts, 0);
    EXPECT_EQ(injector.controllerCrashesInjected(), 1u);

    sim.runFor(secondsToTicks(20));  // restore at t=30
    EXPECT_EQ(hooks.restarts, 1);
    EXPECT_TRUE(hooks.lastCold);
}

TEST(FaultInjector, ControllerCrashSkippedWithoutController)
{
    // An unmanaged run has nothing to crash: the events are skipped,
    // not fatal.
    FaultPlan plan;
    ControllerCrash crash;
    crash.at = secondsToTicks(10);
    crash.downtime = secondsToTicks(20);
    plan.controllerCrashes.push_back(crash);

    Simulation sim;
    FaultInjector injector(sim, plan, Rng(5));
    injector.start();
    sim.runFor(secondsToTicks(60));
    EXPECT_EQ(injector.controllerCrashesInjected(), 0u);
}

TEST(FaultInjector, PermanentCrashNeverRestores)
{
    Simulation sim;
    llm::ModelCatalog catalog;
    cluster::InferenceServer server(
        sim, power::ServerSpec::dgxA100_80gb(),
        catalog.byName("BLOOM-176B"), Priority::Low, 0);

    FaultPlan plan;
    ServerCrash crash;
    crash.at = secondsToTicks(10);
    crash.permanent = true;
    plan.crashes.push_back(crash);

    FaultInjector injector(sim, plan, Rng(5));
    RecordingHooks hooks;
    injector.attachServers({&server});
    injector.attachController(&hooks);
    injector.start();

    sim.runFor(secondsToTicks(3600));
    EXPECT_TRUE(server.crashed());
    EXPECT_EQ(injector.crashesInjected(), 1u);
    // No restore event: the controller is never told the server
    // came back, because it never does.
    EXPECT_EQ(hooks.serverRestarts, 0);
}

TEST(FaultInjector, ServerRestoreNotifiesController)
{
    Simulation sim;
    llm::ModelCatalog catalog;
    cluster::InferenceServer server(
        sim, power::ServerSpec::dgxA100_80gb(),
        catalog.byName("BLOOM-176B"), Priority::Low, 0);

    FaultPlan plan;
    ServerCrash crash;
    crash.at = secondsToTicks(10);
    crash.downtime = secondsToTicks(20);
    plan.crashes.push_back(crash);

    FaultInjector injector(sim, plan, Rng(5));
    RecordingHooks hooks;
    injector.attachServers({&server});
    injector.attachController(&hooks);
    injector.start();

    sim.runFor(secondsToTicks(60));
    EXPECT_FALSE(server.crashed());
    EXPECT_EQ(hooks.serverRestarts, 1);
}

TEST(FaultInjector, OobOutageSwallowsCommandsBrakeSurvives)
{
    Simulation sim;

    struct Target : telemetry::ClockControllable
    {
        void applyClockLock(double mhz) override { lock = mhz; }
        void applyClockUnlock() override { lock = 0.0; }
        void applyPowerBrake(bool on) override { brake = on; }
        double appliedClockLockMhz() const override { return lock; }
        bool powerBrakeEngaged() const override { return brake; }
        double lock = 0.0;
        bool brake = false;
    } target;

    telemetry::SmbpbiController::Options options;
    options.commandLatency = secondsToTicks(1);
    options.brakeLatency = secondsToTicks(1);
    telemetry::SmbpbiController channel(sim, target, Rng(5), options);

    FaultPlan plan;
    OobOutage outage;
    outage.start = secondsToTicks(10);
    outage.duration = secondsToTicks(10);
    plan.oobOutages.push_back(outage);

    FaultInjector injector(sim, plan, Rng(5));
    injector.attachChannels({&channel});
    injector.start();

    // During the outage: capping lost on the wire, brake unaffected.
    std::ignore = sim.queue().schedule(secondsToTicks(12), [&] {
        channel.requestClockLock(1275.0);
        channel.requestPowerBrake(true);
    });
    sim.runFor(secondsToTicks(15));
    EXPECT_TRUE(channel.outage());
    EXPECT_DOUBLE_EQ(target.lock, 0.0);
    EXPECT_TRUE(target.brake);
    EXPECT_EQ(channel.commandsDropped(), 1u);

    // After the outage the same command goes through.
    std::ignore = sim.queue().schedule(secondsToTicks(22), [&] {
        channel.requestClockLock(1275.0);
    });
    sim.runFor(secondsToTicks(10));
    EXPECT_FALSE(channel.outage());
    EXPECT_DOUBLE_EQ(target.lock, 1275.0);
}

TEST(FaultInjector, CrashDropsWorkRestoreRejoins)
{
    Simulation sim;
    llm::ModelCatalog catalog;
    cluster::InferenceServer server(
        sim, power::ServerSpec::dgxA100_80gb(),
        catalog.byName("BLOOM-176B"), Priority::Low, 0);

    FaultPlan plan;
    ServerCrash crash;
    crash.at = secondsToTicks(10);
    crash.downtime = secondsToTicks(20);
    plan.crashes.push_back(crash);

    FaultInjector injector(sim, plan, Rng(5));
    injector.attachServers({&server});
    injector.start();

    workload::Request request;
    request.arrival = 0;
    request.id = 1;
    request.inputTokens = 2048;
    request.outputTokens = 512;  // runs well past the crash
    server.submit(request);

    sim.runFor(secondsToTicks(15));
    EXPECT_TRUE(server.crashed());
    EXPECT_FALSE(server.canAccept());
    EXPECT_DOUBLE_EQ(server.powerWatts(), 0.0);
    EXPECT_EQ(server.droppedRequests(), 1u);
    EXPECT_EQ(injector.crashesInjected(), 1u);

    sim.runFor(secondsToTicks(20));  // past restore at t=30
    EXPECT_FALSE(server.crashed());
    EXPECT_TRUE(server.idleNow());
    EXPECT_EQ(server.completedRequests(), 0u);
}

TEST(FaultInjectorDeath, CrashIndexOutOfRangeFatal)
{
    Simulation sim;
    FaultPlan plan;
    ServerCrash crash;
    crash.at = secondsToTicks(1);
    crash.downtime = secondsToTicks(1);
    crash.serverIndex = 3;
    plan.crashes.push_back(crash);
    FaultInjector injector(sim, plan, Rng(1));
    EXPECT_DEATH(injector.start(), "crash server index");
}

TEST(FaultInjectorDeath, DoubleStartPanics)
{
    Simulation sim;
    FaultInjector injector(sim, FaultPlan(), Rng(1));
    injector.start();
    EXPECT_DEATH(injector.start(), "twice");
}

namespace {

/** Recording control target for the acceptance scenario. */
class FakeTarget : public telemetry::ClockControllable
{
  public:
    void applyClockLock(double mhz) override { lockMhz_ = mhz; }
    void applyClockUnlock() override { lockMhz_ = 0.0; }
    void applyPowerBrake(bool engaged) override { brake_ = engaged; }
    double appliedClockLockMhz() const override { return lockMhz_; }
    bool powerBrakeEngaged() const override { return brake_; }

  private:
    double lockMhz_ = 0.0;
    bool brake_ = false;
};

/**
 * The acceptance scenario: a 10 kW row whose supply spikes to 13 kW
 * at t = 70 s — ten seconds after a telemetry blackout begins — and
 * collapses to 3 kW whenever the power brake reaches the servers.
 * The breaker (trip limit 12.5 kW, 30 s thermal element) watches the
 * raw supply throughout.
 */
struct AcceptanceFixture
{
    explicit AcceptanceFixture(bool watchdogEnabled)
        : row(sim, secondsToTicks(2), false),
          manager(sim, row, 10000.0, core::PolicyConfig::polca(),
                  Rng(1), options(watchdogEnabled)),
          injector(sim, plan(), Rng(0xFA17))
    {
        row.addSource([this] { return supplyWatts(); });
        for (int i = 0; i < 2; ++i) {
            low.push_back(std::make_unique<FakeTarget>());
            high.push_back(std::make_unique<FakeTarget>());
            manager.addTarget(Priority::Low, low.back().get());
            manager.addTarget(Priority::High, high.back().get());
        }

        telemetry::BreakerModel::Config breakerConfig;
        breakerConfig.provisionedWatts = 10000.0;
        breakerConfig.breakerLimitWatts = 12500.0;
        breakerConfig.tripDuration = secondsToTicks(30);
        breaker = std::make_unique<telemetry::BreakerModel>(
            sim, [this] { return supplyWatts(); }, breakerConfig);

        injector.attachTelemetry(row);
        injector.start();
        manager.start();
        row.start();
        breaker->start();
    }

    static core::ManagerOptions
    options(bool watchdogEnabled)
    {
        core::ManagerOptions opts;
        opts.watchdogEnabled = watchdogEnabled;
        opts.watchdogTimeout = secondsToTicks(10);
        return opts;
    }

    static FaultPlan
    plan()
    {
        FaultPlan plan;
        BlackoutWindow window;
        window.start = secondsToTicks(60);
        window.duration = secondsToTicks(600);
        plan.blackouts.push_back(window);
        return plan;
    }

    double
    supplyWatts() const
    {
        if (low[0]->powerBrakeEngaged())
            return 3000.0;
        return sim.now() >= secondsToTicks(70) ? 13000.0 : 5000.0;
    }

    Simulation sim;
    telemetry::DomainManager row;
    core::PowerManager manager;
    FaultInjector injector;
    std::unique_ptr<telemetry::BreakerModel> breaker;
    std::vector<std::unique_ptr<FakeTarget>> low;
    std::vector<std::unique_ptr<FakeTarget>> high;
};

} // namespace

TEST(FaultAcceptance, BlackoutMidSpikeTripsBreakerWithoutWatchdog)
{
    AcceptanceFixture f(/*watchdogEnabled=*/false);

    // Mid-blackout: the manager is frozen in its benign pre-blackout
    // state.  Power has been over the brake threshold for minutes,
    // but no reading ever arrives, so the brake cannot engage.
    f.sim.runFor(secondsToTicks(300));
    EXPECT_FALSE(f.manager.brakeEngaged());
    EXPECT_EQ(f.manager.powerBrakeEvents(), 0u);
    EXPECT_EQ(f.manager.failSafeEntries(), 0u);
    EXPECT_GT(f.breaker->trips(), 0u);

    // Once telemetry returns (t = 660 s) the manager reacts.
    f.sim.runFor(secondsToTicks(400));
    EXPECT_GT(f.manager.powerBrakeEvents(), 0u);
    Tick firstTrip = f.breaker->firstTripTime();
    EXPECT_GE(firstTrip, secondsToTicks(70));
    EXPECT_LT(firstTrip, secondsToTicks(660));
}

TEST(FaultAcceptance, WatchdogFailSafePreventsBreakerTrip)
{
    AcceptanceFixture f(/*watchdogEnabled=*/true);

    // The watchdog notices stale telemetry within its 10 s timeout
    // and pulls the brake over the dedicated line: the supply spike
    // is cut off before the breaker's 30 s thermal element winds up.
    f.sim.runFor(secondsToTicks(300));
    EXPECT_TRUE(f.manager.failSafeActive());
    EXPECT_TRUE(f.manager.brakeEngaged());
    EXPECT_TRUE(f.low[0]->powerBrakeEngaged());
    EXPECT_EQ(f.breaker->trips(), 0u);
    EXPECT_EQ(f.manager.failSafeEntries(), 1u);
    // Precautionary engagement is not a paper-metric brake event.
    EXPECT_EQ(f.manager.powerBrakeEvents(), 0u);
    EXPECT_LT(f.breaker->longestOverLimitStreak(), secondsToTicks(30));

    // Telemetry returns at t = 660 s: fail-safe exits and the run
    // finishes with the breaker never having opened.
    f.sim.runFor(secondsToTicks(400));
    EXPECT_FALSE(f.manager.failSafeActive());
    EXPECT_EQ(f.breaker->trips(), 0u);
    EXPECT_GE(f.manager.failSafeTicks(), secondsToTicks(500));
}
