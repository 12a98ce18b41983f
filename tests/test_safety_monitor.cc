/** @file Unit tests for the runtime safety-invariant monitor. */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/power_manager.hh"
#include "core/safety_monitor.hh"
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

/** Limits matching the default polca() policy on a 10 kW row. */
SafetyMonitor::Limits
defaultLimits()
{
    SafetyMonitor::Limits limits;
    limits.breakerLimitWatts = 12500.0;
    limits.breakerGrace = secondsToTicks(30);
    limits.failSafeDeadline = secondsToTicks(36);  // watchdog 30 + 6
    limits.capReleaseDeadline = secondsToTicks(600);
    limits.capFloorMhz = 1110.0;       // deepest polca rule
    limits.quietUtilization = 0.75;    // min release threshold
    limits.maxBrakeTimeFraction = 1.0; // disabled unless a test arms it
    limits.provisionedWatts = 10000.0;
    return limits;
}

/** Managed row with the monitor riding beside the manager. */
struct Fixture
{
    explicit Fixture(SafetyMonitor::Limits limits = defaultLimits(),
                     ManagerOptions options = ManagerOptions())
        : telemetry(sim, secondsToTicks(2), false),
          manager(sim, telemetry, 10000.0, PolicyConfig::polca(),
                  Rng(1), options),
          monitor(sim, limits, [this] { return watts; }, &manager)
    {
        telemetry.addSource([this] { return watts; });
        for (int i = 0; i < 2; ++i) {
            low.push_back(std::make_unique<FakeTarget>());
            high.push_back(std::make_unique<FakeTarget>());
            manager.addTarget(Priority::Low, low.back().get());
            manager.addTarget(Priority::High, high.back().get());
        }
        monitor.attachTelemetry(telemetry);
        manager.start();
        telemetry.start();
        monitor.start();
    }

    void
    runSeconds(double seconds)
    {
        sim.runFor(secondsToTicks(seconds));
    }

    std::size_t
    count(SafetyInvariant invariant) const
    {
        std::size_t n = 0;
        for (const SafetyViolation &v : monitor.violations())
            n += v.invariant == invariant ? 1 : 0;
        return n;
    }

    Simulation sim;
    DomainManager telemetry;
    PowerManager manager;
    SafetyMonitor monitor;
    std::vector<std::unique_ptr<FakeTarget>> low;
    std::vector<std::unique_ptr<FakeTarget>> high;
    double watts = 5000.0;
};

} // namespace

TEST(SafetyMonitor, CleanManagedRunHasNoViolations)
{
    // A load swing that caps and then releases through the normal
    // hysteresis path breaks nothing.
    Fixture f;
    f.runSeconds(120);
    f.watts = 8200.0;  // cross T1
    f.runSeconds(180);
    f.watts = 5000.0;  // subside; caps release well inside deadline
    f.runSeconds(400);
    f.monitor.finish(f.sim.now());
    EXPECT_TRUE(f.monitor.violations().empty());
}

TEST(SafetyMonitor, WatchdogDisabledFailsInvariantSuite)
{
    // The acceptance check for a deliberately weakened config: with
    // the watchdog off, a telemetry blackout leaves the manager
    // frozen — no fail-safe inside the deadline — and the invariant
    // suite must catch it.
    ManagerOptions options;
    options.watchdogEnabled = false;
    Fixture f(defaultLimits(), options);
    f.runSeconds(20);
    f.telemetry.setFaultHook(
        [](Tick, double) { return std::optional<double>(); });
    f.runSeconds(120);
    EXPECT_EQ(f.count(SafetyInvariant::FailSafeDeadline), 1u);
    // Stamped when staleness first crossed the 36 s deadline.
    const SafetyViolation &v = f.monitor.violations().front();
    EXPECT_GE(v.at, secondsToTicks(36));
    EXPECT_LE(v.at, secondsToTicks(60));
    EXPECT_GT(v.value, v.limit);
}

TEST(SafetyMonitor, WatchdogOnSameBlackoutStaysClean)
{
    // Same blackout, watchdog enabled: fail-safe engages at 30 s
    // staleness, inside the 36 s deadline — no violation.
    Fixture f;
    f.runSeconds(20);
    f.telemetry.setFaultHook(
        [](Tick, double) { return std::optional<double>(); });
    f.runSeconds(120);
    ASSERT_TRUE(f.manager.failSafeActive());
    EXPECT_TRUE(f.monitor.violations().empty());
}

TEST(SafetyMonitor, StuckCapsBreakReleaseDeadline)
{
    // A manager mis-tuned to hold rules for 30 min keeps the cap
    // long after the row goes quiet; the monitor flags it once.
    SafetyMonitor::Limits limits = defaultLimits();
    limits.capReleaseDeadline = secondsToTicks(60);
    ManagerOptions options;
    options.minRuleDwell = secondsToTicks(1800);
    Fixture f(limits, options);
    f.watts = 8200.0;
    f.runSeconds(50);
    ASSERT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::Low), 1275.0);
    f.watts = 5000.0;  // quiet: below every release threshold
    f.runSeconds(200);
    EXPECT_DOUBLE_EQ(f.manager.desiredLockMhz(Priority::Low), 1275.0);
    EXPECT_EQ(f.count(SafetyInvariant::CapRelease), 1u);
}

TEST(SafetyMonitor, BrakeOverBudgetFailsPerfCheck)
{
    // Scripted power that ignores the brake keeps it engaged for
    // nearly the whole run; the finish() pass compares brake time
    // against the perf budget.
    SafetyMonitor::Limits limits = defaultLimits();
    limits.maxBrakeTimeFraction = 0.05;
    Fixture f(limits);
    f.watts = 10100.0;  // over the brake threshold, forever
    f.runSeconds(200);
    ASSERT_TRUE(f.manager.brakeEngaged());
    f.monitor.finish(f.sim.now());
    EXPECT_EQ(f.count(SafetyInvariant::PerfBudget), 1u);
    const SafetyViolation &v = f.monitor.violations().back();
    EXPECT_GT(v.value, 0.9);  // braked ~everything after t=7 s
    EXPECT_DOUBLE_EQ(v.limit, 0.05);
}

TEST(SafetyMonitor, BreakerEnvelopeReportedOncePerExcursion)
{
    // Manager-less monitor: only the ground-truth envelope check
    // runs.  Excursions shorter than the grace are tolerated; longer
    // ones report exactly once each.
    Simulation sim;
    SafetyMonitor::Limits limits = defaultLimits();
    double watts = 5000.0;
    SafetyMonitor monitor(sim, limits, [&watts] { return watts; },
                          nullptr);
    monitor.start();

    sim.runFor(secondsToTicks(60));
    watts = 13000.0;
    sim.runFor(secondsToTicks(20));  // inside the 30 s grace
    watts = 5000.0;
    sim.runFor(secondsToTicks(10));
    EXPECT_TRUE(monitor.violations().empty());

    watts = 13000.0;
    sim.runFor(secondsToTicks(90));  // one excursion, one report
    watts = 5000.0;
    sim.runFor(secondsToTicks(10));
    watts = 13000.0;
    sim.runFor(secondsToTicks(90));  // a second excursion
    ASSERT_EQ(monitor.violations().size(), 2u);
    for (const SafetyViolation &v : monitor.violations()) {
        EXPECT_EQ(v.invariant, SafetyInvariant::BreakerEnvelope);
        EXPECT_DOUBLE_EQ(v.value, 13000.0);
        EXPECT_DOUBLE_EQ(v.limit, 12500.0);
    }
}

TEST(SafetyMonitorDeath, MissingPowerSourceFatal)
{
    Simulation sim;
    EXPECT_DEATH(SafetyMonitor(sim, defaultLimits(), nullptr, nullptr),
                 "raw power");
}
