/** @file Unit tests for the POLCA power manager state machine. */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/power_manager.hh"
#include "obs/observability.hh"
#include "sim/simulation.hh"

using namespace polca::core;
using namespace polca::telemetry;
using namespace polca::sim;
using polca::workload::Priority;

namespace {

/** Recording fake control target. */
class FakeTarget : public ClockControllable
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
 * Harness: a row manager fed by a scripted power value, a manager
 * over two pools of fake targets, and a 10 kW provisioned budget so
 * utilization = watts / 10000.
 */
struct Fixture
{
    explicit Fixture(PolicyConfig policy = PolicyConfig::polca(),
                     ManagerOptions options = ManagerOptions())
        : telemetry(sim, secondsToTicks(2), false),
          manager(sim, telemetry, 10000.0, std::move(policy), Rng(1),
                  options)
    {
        telemetry.addSource([this] { return watts; });
        for (int i = 0; i < 2; ++i) {
            low.push_back(std::make_unique<FakeTarget>());
            high.push_back(std::make_unique<FakeTarget>());
            manager.addTarget(Priority::Low, low.back().get());
            manager.addTarget(Priority::High, high.back().get());
        }
        manager.start();
        telemetry.start();
    }

    void
    runSeconds(double seconds)
    {
        sim.runFor(secondsToTicks(seconds));
    }

    Simulation sim;
    DomainManager telemetry;
    PowerManager manager;
    std::vector<std::unique_ptr<FakeTarget>> low;
    std::vector<std::unique_ptr<FakeTarget>> high;
    double watts = 5000.0;  // 50 % utilization
};

} // namespace

TEST(PowerManager, QuietBelowThresholds)
{
    Fixture f;
    f.runSeconds(300);
    EXPECT_EQ(f.manager.capCommands(), 0u);
    EXPECT_DOUBLE_EQ(f.low[0]->appliedClockLockMhz(), 0.0);
}

TEST(PowerManager, T1CapsLowPriorityAfterOobLatency)
{
    Fixture f;
    f.watts = 8200.0;  // above T1 = 80 %
    f.runSeconds(4);   // telemetry notices
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::Low), 1275.0);
    // Not yet applied: the OOB path takes 40 s.
    EXPECT_DOUBLE_EQ(f.low[0]->appliedClockLockMhz(), 0.0);
    f.runSeconds(42);
    EXPECT_DOUBLE_EQ(f.low[0]->appliedClockLockMhz(), 1275.0);
    EXPECT_DOUBLE_EQ(f.high[0]->appliedClockLockMhz(), 0.0);
    EXPECT_EQ(f.manager.capCommands(), 1u);
}

TEST(PowerManager, T2EscalatesLpThenHp)
{
    Fixture f;
    f.watts = 9200.0;  // above T2 = 89 %
    f.runSeconds(120);
    // LP first locked deeper, then HP gently.
    EXPECT_DOUBLE_EQ(f.low[0]->appliedClockLockMhz(), 1110.0);
    EXPECT_DOUBLE_EQ(f.high[0]->appliedClockLockMhz(), 1305.0);
    EXPECT_GE(f.manager.capCommands(), 2u);
}

TEST(PowerManager, EscalationIsStaged)
{
    Fixture f;
    f.watts = 9200.0;
    // After one telemetry reading only T1 is active; HP untouched
    // even as a desired state.
    f.runSeconds(3);
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::High), 0.0);
    f.runSeconds(2);  // second reading: T2-LP
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::Low), 1110.0);
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::High), 0.0);
    f.runSeconds(2);  // third reading: T2-HP
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::High), 1305.0);
}

TEST(PowerManager, HysteresisHoldsCapUntilRelease)
{
    Fixture f;
    f.watts = 8200.0;  // cross T1 (80 %)
    f.runSeconds(50);
    ASSERT_DOUBLE_EQ(f.low[0]->appliedClockLockMhz(), 1275.0);

    // Drop just below the cap threshold but above release (75 %).
    f.watts = 7800.0;
    f.runSeconds(100);
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::Low), 1275.0);

    // Below the release threshold: uncap (after the smoothing
    // window drains and the 40 s OOB unlock lands).
    f.watts = 7400.0;
    f.runSeconds(90);
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::Low), 0.0);
    EXPECT_DOUBLE_EQ(f.low[0]->appliedClockLockMhz(), 0.0);
    EXPECT_GE(f.manager.uncapCommands(), 1u);
}

TEST(PowerManager, DeescalationRestoresShallowerLock)
{
    Fixture f;
    f.watts = 9200.0;
    f.runSeconds(120);
    ASSERT_DOUBLE_EQ(f.low[0]->appliedClockLockMhz(), 1110.0);

    // Fall to 82 %: releases T2 rules (release 84 %) but T1 stays.
    f.watts = 8200.0;
    f.runSeconds(180);
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::Low), 1275.0);
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::High), 0.0);
    EXPECT_DOUBLE_EQ(f.low[0]->appliedClockLockMhz(), 1275.0);
}

TEST(PowerManager, BrakeEngagesAtProvisionedLimit)
{
    Fixture f;
    f.watts = 10100.0;  // 101 %
    f.runSeconds(10);   // 2 s telemetry + 5 s brake latency
    EXPECT_TRUE(f.manager.brakeEngaged());
    EXPECT_TRUE(f.low[0]->powerBrakeEngaged());
    EXPECT_TRUE(f.high[0]->powerBrakeEngaged());
    EXPECT_EQ(f.manager.powerBrakeEvents(), 1u);
}

TEST(PowerManager, BrakeHeldThenReleased)
{
    Fixture f;
    f.watts = 10100.0;
    f.runSeconds(10);
    ASSERT_TRUE(f.manager.brakeEngaged());

    // Power collapses under braking.
    f.watts = 4000.0;
    f.runSeconds(4);
    // Held for the minimum duration despite low power.
    EXPECT_TRUE(f.manager.brakeEngaged());
    f.runSeconds(40);
    EXPECT_FALSE(f.manager.brakeEngaged());
    EXPECT_FALSE(f.low[0]->powerBrakeEngaged());
    EXPECT_EQ(f.manager.powerBrakeEvents(), 1u);
}

TEST(PowerManager, BrakeDisabledPolicyNeverBrakes)
{
    PolicyConfig policy = PolicyConfig::noCap();
    policy.powerBrakeEnabled = false;
    Fixture f(policy);
    f.watts = 12000.0;
    f.runSeconds(60);
    EXPECT_EQ(f.manager.powerBrakeEvents(), 0u);
    EXPECT_FALSE(f.low[0]->powerBrakeEngaged());
}

TEST(PowerManager, NoCapPolicyNeverLocksClocks)
{
    Fixture f(PolicyConfig::noCap());
    f.watts = 9900.0;
    f.runSeconds(300);
    EXPECT_EQ(f.manager.capCommands(), 0u);
    EXPECT_DOUBLE_EQ(f.low[0]->appliedClockLockMhz(), 0.0);
}

TEST(PowerManager, SilentFailuresAreReissued)
{
    // Guardrail: verification detects a dropped command and
    // re-issues it until the applied state matches.
    ManagerOptions options;
    options.smbpbiFailureProbability = 0.5;
    Fixture f(PolicyConfig::polca(), options);
    f.watts = 8200.0;
    f.runSeconds(600);
    EXPECT_DOUBLE_EQ(f.low[0]->appliedClockLockMhz(), 1275.0);
    EXPECT_DOUBLE_EQ(f.low[1]->appliedClockLockMhz(), 1275.0);
    EXPECT_GT(f.manager.reissuedCommands(), 0u);
}

TEST(PowerManager, LockedTimeAccounted)
{
    Fixture f;
    f.watts = 8200.0;
    f.runSeconds(100);
    f.watts = 5000.0;
    f.runSeconds(200);
    Tick lp = f.manager.lockedTicks(Priority::Low);
    EXPECT_GT(lp, secondsToTicks(80));
    EXPECT_LT(lp, secondsToTicks(160));
    EXPECT_EQ(f.manager.lockedTicks(Priority::High), 0);
}

TEST(PowerManager, VerifyToleratesSubMhzApplicationError)
{
    // Satellite guardrail fix: applied clocks that differ from the
    // command by less than the tolerance must not be re-issued
    // forever.
    class OffByALittle : public FakeTarget
    {
      public:
        void applyClockLock(double mhz) override
        {
            FakeTarget::applyClockLock(mhz + 0.4);
        }
    };

    Simulation sim;
    DomainManager telemetry(sim, secondsToTicks(2), false);
    PowerManager manager(sim, telemetry, 10000.0,
                         PolicyConfig::polca(), Rng(1));
    OffByALittle target;
    manager.addTarget(Priority::Low, &target);
    manager.start();
    double watts = 8200.0;  // hold T1 active
    telemetry.addSource([&watts] { return watts; });
    telemetry.start();

    sim.runFor(secondsToTicks(600));
    EXPECT_NEAR(target.appliedClockLockMhz(), 1275.4, 1e-9);
    EXPECT_EQ(manager.reissuedCommands(), 0u);
    EXPECT_EQ(manager.flaggedChannels(), 0u);
}

TEST(PowerManager, WatchdogEntersFailSafeWhenTelemetryGoesDark)
{
    ManagerOptions options;
    options.watchdogTimeout = secondsToTicks(10);
    Fixture f(PolicyConfig::polca(), options);
    f.runSeconds(20);  // healthy: readings every 2 s
    EXPECT_FALSE(f.manager.failSafeActive());

    // Telemetry goes completely dark.
    f.telemetry.setFaultHook(
        [](Tick, double) { return std::optional<double>(); });
    f.runSeconds(30);

    EXPECT_TRUE(f.manager.failSafeActive());
    EXPECT_EQ(f.manager.failSafeEntries(), 1u);
    // Flying blind: every rule escalated to the deepest caps...
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::Low), 1110.0);
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::High), 1305.0);
    // ...and the brake pulled, precautionary (not a brake event).
    EXPECT_TRUE(f.manager.brakeEngaged());
    EXPECT_TRUE(f.low[0]->powerBrakeEngaged());
    EXPECT_EQ(f.manager.powerBrakeEvents(), 0u);
}

TEST(PowerManager, FailSafeRecoversOnFreshReading)
{
    ManagerOptions options;
    options.watchdogTimeout = secondsToTicks(10);
    Fixture f(PolicyConfig::polca(), options);
    f.telemetry.setFaultHook(
        [](Tick, double) { return std::optional<double>(); });
    f.runSeconds(40);
    ASSERT_TRUE(f.manager.failSafeActive());

    f.telemetry.setFaultHook({});  // telemetry returns
    f.runSeconds(4);
    EXPECT_FALSE(f.manager.failSafeActive());
    EXPECT_EQ(f.manager.failSafeEntries(), 1u);
    EXPECT_GE(f.manager.failSafeTicks(), secondsToTicks(20));
    EXPECT_LE(f.manager.failSafeTicks(), secondsToTicks(40));

    // At 50 % utilization the escalated rules and the brake release
    // through the normal hysteresis path.
    f.runSeconds(200);
    EXPECT_FALSE(f.manager.brakeEngaged());
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::High), 0.0);
}

TEST(PowerManager, BrakeCannotEngageWhileBlindWithoutWatchdog)
{
    // The failure mode the watchdog exists for, pinned down: with
    // the watchdog disabled, a telemetry blackout freezes the
    // manager — power may sit far above the brake threshold and the
    // brake never engages.
    ManagerOptions options;
    options.watchdogEnabled = false;
    Fixture f(PolicyConfig::polca(), options);
    f.runSeconds(10);
    f.telemetry.setFaultHook(
        [](Tick, double) { return std::optional<double>(); });
    f.watts = 13000.0;  // 130 % of provisioned, unseen
    f.runSeconds(600);
    EXPECT_FALSE(f.manager.brakeEngaged());
    EXPECT_EQ(f.manager.powerBrakeEvents(), 0u);
    EXPECT_EQ(f.manager.failSafeEntries(), 0u);

    // The first reading after the blackout triggers the brake.
    f.telemetry.setFaultHook({});
    f.runSeconds(10);
    EXPECT_TRUE(f.manager.brakeEngaged());
    EXPECT_EQ(f.manager.powerBrakeEvents(), 1u);
}

TEST(PowerManager, BenignDropoutDoesNotTriggerFailSafe)
{
    // The default 30 s timeout is 15 missed 2 s readings: i.i.d.
    // dropout at the paper's "sometimes fails" rates essentially
    // never produces such a streak.
    Fixture f;
    f.telemetry.setDropoutProbability(0.33, Rng(3));
    f.runSeconds(4000);
    EXPECT_EQ(f.manager.failSafeEntries(), 0u);
    EXPECT_GT(f.telemetry.droppedReadings(), 400u);
}

TEST(PowerManager, RepeatedlyFailingChannelIsFlagged)
{
    ManagerOptions options;
    options.smbpbiFailureProbability = 1.0;  // OOB path is dead
    Fixture f(PolicyConfig::polca(), options);
    f.watts = 8200.0;  // T1 commands a LP lock that never applies
    f.runSeconds(400);

    // Both LP channels hit the consecutive re-issue threshold; HP
    // channels never had a command to verify.
    EXPECT_EQ(f.manager.flaggedChannels(), 2u);
    EXPECT_TRUE(f.manager.channelFlagged(Priority::Low, 0));
    EXPECT_TRUE(f.manager.channelFlagged(Priority::Low, 1));
    EXPECT_FALSE(f.manager.channelFlagged(Priority::High, 0));
    EXPECT_GE(f.manager.reissuedCommands(),
              static_cast<std::uint64_t>(
                  2 * options.channelFlagThreshold));
}

TEST(PowerManager, HealthyChannelIsNeverFlagged)
{
    ManagerOptions options;
    options.smbpbiFailureProbability = 0.3;  // flaky but alive
    Fixture f(PolicyConfig::polca(), options);
    f.watts = 8200.0;
    f.runSeconds(2000);
    // Re-issues happen, but a success resets the consecutive count
    // before the flag threshold with overwhelming probability.
    EXPECT_GT(f.manager.reissuedCommands(), 0u);
    EXPECT_EQ(f.manager.flaggedChannels(), 0u);
}

TEST(PowerManager, BackToBackBlackoutsCountSeparateFailSafeEntries)
{
    ManagerOptions options;
    options.watchdogTimeout = secondsToTicks(10);
    Fixture f(PolicyConfig::polca(), options);
    f.runSeconds(10);

    for (int round = 0; round < 2; ++round) {
        f.telemetry.setFaultHook(
            [](Tick, double) { return std::optional<double>(); });
        f.runSeconds(20);
        ASSERT_TRUE(f.manager.failSafeActive()) << "round " << round;
        ASSERT_EQ(f.manager.mode(), ControlMode::Blind);
        f.telemetry.setFaultHook({});
        f.runSeconds(4);
        ASSERT_FALSE(f.manager.failSafeActive()) << "round " << round;
        ASSERT_EQ(f.manager.mode(), ControlMode::Full);
    }
    EXPECT_EQ(f.manager.failSafeEntries(), 2u);
    // Both spans accounted: each ran from the 10-12 s staleness
    // trigger to the first delivered reading after restoration.
    EXPECT_GE(f.manager.failSafeTicks(), secondsToTicks(16));
    EXPECT_LE(f.manager.failSafeTicks(), secondsToTicks(32));
}

TEST(PowerManager, FailSafeEngagesExactlyAtWatchdogTimeout)
{
    // The watchdog heartbeat shares the 2 s grid with telemetry, so
    // entry lands at staleness == timeout exactly, never later.
    ManagerOptions options;
    options.watchdogTimeout = secondsToTicks(10);
    Fixture f(PolicyConfig::polca(), options);
    f.runSeconds(20);
    f.telemetry.setFaultHook(
        [](Tick, double) { return std::optional<double>(); });
    f.runSeconds(7);  // staleness at the last heartbeat < 10 s
    EXPECT_FALSE(f.manager.failSafeActive());
    f.runSeconds(5);
    EXPECT_TRUE(f.manager.failSafeActive());
    EXPECT_EQ(f.manager.timeToFailSafeMaxTicks(), secondsToTicks(10));
}

TEST(PowerManager, FailSafeTicksAccountedWhileStillActive)
{
    // A run that ends inside fail-safe must still account the open
    // span (the accessor adds the in-progress time).
    ManagerOptions options;
    options.watchdogTimeout = secondsToTicks(10);
    Fixture f(PolicyConfig::polca(), options);
    f.runSeconds(20);
    f.telemetry.setFaultHook(
        [](Tick, double) { return std::optional<double>(); });
    f.runSeconds(40);
    ASSERT_TRUE(f.manager.failSafeActive());
    EXPECT_GE(f.manager.failSafeTicks(), secondsToTicks(28));
    EXPECT_LE(f.manager.failSafeTicks(), secondsToTicks(32));
}

TEST(PowerManager, StaleTelemetryDegradesModeBeforeFailSafe)
{
    // The ladder's middle rung: staleness past staleWarnTimeout but
    // short of the fail-safe timeout reads as StalePartial, and a
    // delivered reading restores Full.
    Fixture f;  // warn 10 s, timeout 30 s
    f.runSeconds(20);
    EXPECT_EQ(f.manager.mode(), ControlMode::Full);
    f.telemetry.setFaultHook(
        [](Tick, double) { return std::optional<double>(); });
    f.runSeconds(15);
    EXPECT_EQ(f.manager.mode(), ControlMode::StalePartial);
    EXPECT_FALSE(f.manager.failSafeActive());
    f.telemetry.setFaultHook({});
    f.runSeconds(4);
    EXPECT_EQ(f.manager.mode(), ControlMode::Full);
    EXPECT_GE(f.manager.staleTicks(), secondsToTicks(4));
    EXPECT_EQ(f.manager.failSafeEntries(), 0u);
}

TEST(PowerManager, ControllerCrashWipesProcessStateNotHardware)
{
    Fixture f;
    f.watts = 8200.0;
    f.runSeconds(50);
    ASSERT_DOUBLE_EQ(f.low[0]->appliedClockLockMhz(), 1275.0);

    f.manager.controllerCrash();
    EXPECT_TRUE(f.manager.crashed());
    EXPECT_EQ(f.manager.mode(), ControlMode::Blind);
    // Process memory (the commanded posture) is gone...
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::Low), 0.0);
    // ...but applied hardware state survives the crash.
    EXPECT_DOUBLE_EQ(f.low[0]->appliedClockLockMhz(), 1275.0);

    // Nobody restarts it: readings are ignored and the watchdog
    // died with the process, so nothing ever fires.
    f.runSeconds(120);
    EXPECT_TRUE(f.manager.crashed());
    EXPECT_EQ(f.manager.failSafeEntries(), 0u);
    EXPECT_EQ(f.manager.controllerCrashes(), 1u);
}

TEST(PowerManager, WarmRestartResumesLastKnownCaps)
{
    Fixture f;
    f.watts = 8200.0;
    f.runSeconds(50);
    ASSERT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::Low), 1275.0);

    f.manager.controllerCrash();
    f.runSeconds(30);
    f.manager.controllerRestart(/*coldRestart=*/false);
    EXPECT_FALSE(f.manager.crashed());
    // Rehydrated from the crash-time snapshot and re-asserting it:
    // stale until a fresh reading proves the world out.
    EXPECT_EQ(f.manager.mode(), ControlMode::StalePartial);
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::Low), 1275.0);
    EXPECT_FALSE(f.manager.failSafeActive());

    f.runSeconds(4);  // first delivered reading completes recovery
    EXPECT_EQ(f.manager.mode(), ControlMode::Full);
    EXPECT_EQ(f.manager.controllerCrashes(), 1u);
    EXPECT_EQ(f.manager.controllerRecoveries(), 1u);
    EXPECT_EQ(f.manager.controllerDownTicks(), secondsToTicks(30));
    // MTTR spans crash -> first reading: the downtime plus at most
    // one telemetry period.
    EXPECT_GE(f.manager.mttrMaxTicks(), secondsToTicks(30));
    EXPECT_LE(f.manager.mttrMaxTicks(), secondsToTicks(34));
    // The whole downtime held a cap with nobody watching.
    EXPECT_GE(f.manager.capsHeldStaleTicks(), secondsToTicks(30));
}

TEST(PowerManager, ColdRestartEntersFailSafeUntilTelemetryReturns)
{
    Fixture f;
    f.watts = 8200.0;
    f.runSeconds(50);
    f.manager.controllerCrash();
    f.runSeconds(10);
    f.manager.controllerRestart(/*coldRestart=*/true);
    // No snapshot: assume the worst until telemetry proves the
    // world out — deepest caps, brake pulled, flying blind.
    EXPECT_TRUE(f.manager.failSafeActive());
    EXPECT_EQ(f.manager.mode(), ControlMode::Blind);
    EXPECT_EQ(f.manager.failSafeEntries(), 1u);
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::Low), 1110.0);
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::High), 1305.0);
    EXPECT_TRUE(f.manager.brakeEngaged());

    f.runSeconds(4);  // first delivered reading ends the blindness
    EXPECT_FALSE(f.manager.failSafeActive());
    EXPECT_EQ(f.manager.mode(), ControlMode::Full);
    EXPECT_EQ(f.manager.controllerRecoveries(), 1u);
}

TEST(PowerManager, ServerRestartResetsChannelCircuitBreaker)
{
    // Satellite regression: a crashed server's channel racks up
    // verification re-issues until the breaker flags it.  The flag
    // and streak describe the dead server, not the channel — both
    // must reset when it restarts, and the pool's lock must be
    // re-asserted on the state-wiped server.
    class Crashable : public FakeTarget
    {
      public:
        bool dead = false;
        void applyClockLock(double mhz) override
        {
            if (!dead)
                FakeTarget::applyClockLock(mhz);
        }
        double appliedClockLockMhz() const override
        {
            return dead ? 0.0 : FakeTarget::appliedClockLockMhz();
        }
    };

    Simulation sim;
    DomainManager telemetry(sim, secondsToTicks(2), false);
    PowerManager manager(sim, telemetry, 10000.0,
                         PolicyConfig::polca(), Rng(1));
    Crashable target;
    manager.addTarget(Priority::Low, &target);
    manager.start();
    double watts = 8200.0;  // hold T1 active
    telemetry.addSource([&watts] { return watts; });
    telemetry.start();

    sim.runFor(secondsToTicks(50));
    ASSERT_DOUBLE_EQ(target.appliedClockLockMhz(), 1275.0);
    ASSERT_FALSE(manager.channelFlagged(Priority::Low, 0));

    // The server dies: applied state reads as wiped, every re-issue
    // fails, the circuit breaker flags the channel.
    target.dead = true;
    target.applyClockUnlock();
    sim.runFor(secondsToTicks(400));
    ASSERT_TRUE(manager.channelFlagged(Priority::Low, 0));
    EXPECT_GE(manager.reissuedCommands(), 3u);

    // The server reboots; the fault layer notifies the controller.
    target.dead = false;
    manager.serverRestarted(&target);
    EXPECT_FALSE(manager.channelFlagged(Priority::Low, 0));

    // The restart re-issue lands after the OOB latency and then
    // verifies clean: the flag stays clear.
    sim.runFor(secondsToTicks(60));
    EXPECT_DOUBLE_EQ(target.appliedClockLockMhz(), 1275.0);
    EXPECT_FALSE(manager.channelFlagged(Priority::Low, 0));
}

TEST(PowerManagerDeath, AddTargetAfterStartPanics)
{
    Fixture f;
    FakeTarget extra;
    EXPECT_DEATH(f.manager.addTarget(Priority::Low, &extra),
                 "after start");
}

TEST(PowerManagerDeath, DoubleCrashPanics)
{
    Fixture f;
    f.runSeconds(10);
    f.manager.controllerCrash();
    EXPECT_DEATH(f.manager.controllerCrash(), "twice");
}

TEST(PowerManagerDeath, RestartWithoutCrashPanics)
{
    Fixture f;
    f.runSeconds(10);
    EXPECT_DEATH(f.manager.controllerRestart(false),
                 "without a crash");
}

namespace {

/**
 * A manager over two channels per pool, driven past T2 so that both
 * pools cap, reporting to a fresh sink attached before the channels
 * exist (as the experiment harness does) or after them.
 * @return the sink's metrics dump after the run.
 */
std::string
managerMetricsDump(bool attachBeforeChannels)
{
    Simulation sim;
    DomainManager telemetry(sim, secondsToTicks(2), false);
    PowerManager manager(sim, telemetry, 10000.0, PolicyConfig::polca(),
                         Rng(1));
    telemetry.addSource([] { return 9200.0; });  // above T2 = 89 %
    polca::obs::Observability sink;
    if (attachBeforeChannels) {
        manager.attachObservability(&sink);
        // No channel yet: nothing of the channels' is registered.
        EXPECT_FALSE(sink.metrics.has("smbpbi.commands_issued"));
    }
    std::vector<std::unique_ptr<FakeTarget>> targets;
    for (Priority pool :
         {Priority::Low, Priority::High, Priority::Low, Priority::High}) {
        targets.push_back(std::make_unique<FakeTarget>());
        manager.addTarget(pool, targets.back().get());
    }
    if (!attachBeforeChannels)
        manager.attachObservability(&sink);
    manager.start();
    telemetry.start();
    sim.runFor(secondsToTicks(120));

    std::uint64_t issued = 0;
    for (Priority pool : {Priority::Low, Priority::High}) {
        for (const SmbpbiController *channel : manager.channels(pool)) {
            EXPECT_GT(channel->commandsIssued(), 0u);
            issued += channel->commandsIssued();
        }
    }
    // Every channel of both pools counts into the one metric.
    EXPECT_EQ(sink.metrics.counter("smbpbi.commands_issued").value(),
              issued);
    std::ostringstream dump;
    sink.metrics.dump(dump);
    return dump.str();
}

} // namespace

TEST(PowerManager, ChannelsShareOneSetOfSmbpbiMetrics)
{
    EXPECT_EQ(managerMetricsDump(true), managerMetricsDump(false));
}

TEST(PowerManager, DetachedChannelsRecordNothing)
{
    Fixture f;
    polca::obs::Observability sink;
    f.manager.attachObservability(&sink);
    f.manager.attachObservability(nullptr);
    f.watts = 9200.0;
    f.runSeconds(120);
    EXPECT_GE(f.manager.capCommands(), 2u);
    EXPECT_EQ(sink.metrics.counter("smbpbi.commands_issued").value(), 0u);
    EXPECT_EQ(sink.metrics.counter("manager.cap_commands").value(), 0u);
}
