/**
 * @file
 * Snapshot/branch round-trip tests, bottom-up: the EventQueue re-arm
 * protocol, PeriodicTask schedule position, Rng fork purity (the
 * reason the root stream needs no snapshot entry), PowerManager
 * durable-state rehydration, and end-to-end warmup branching — a
 * branched experiment must be bit-identical to one that simulated
 * its own warmup, at row and site scale.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/oversub_experiment.hh"
#include "core/power_manager.hh"
#include "core/warmup_snapshot.hh"
#include "faults/fault_plan.hh"
#include "obs/observability.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"

namespace {

using namespace polca;
using polca::workload::Priority;

TEST(SnapshotEventQueue, RearmContinuationMatchesSource)
{
    // Source: A(10), B(20), post C(20), D(30); same-tick B/C tie
    // breaks by seq (B scheduled first).
    sim::EventQueue source;
    std::vector<std::string> sourceLog;
    auto handleA = source.schedule(10, [&] { sourceLog.push_back("A"); });
    auto handleB = source.schedule(20, [&] { sourceLog.push_back("B"); });
    std::uint64_t seqC =
        source.post(20, [&] { sourceLog.push_back("C"); });
    auto handleD = source.schedule(30, [&] { sourceLog.push_back("D"); });
    (void)handleA;

    source.runUntil(15);  // A fired; B, C, D pending.
    sim::EventQueueState state = source.captureState();
    EXPECT_EQ(state.now, 15);
    EXPECT_EQ(state.liveEvents, 3u);

    struct Pending
    {
        sim::Tick when;
        std::uint64_t seq;
        std::string tag;
    };
    std::vector<Pending> pending = {
        {handleB.when(), handleB.seq(), "B"},
        {20, seqC, "C"},
        {handleD.when(), handleD.seq(), "D"},
    };

    source.runUntil(40);
    ASSERT_EQ(sourceLog,
              (std::vector<std::string>{"A", "B", "C", "D"}));

    // Branch: fresh queue whose build-time events are discarded by
    // beginRestore; re-arm in reverse order — the saved seqs, not
    // the re-arm order, decide same-tick firing order.
    sim::EventQueue branch;
    std::vector<std::string> branchLog;
    (void)branch.post(5, [&] { branchLog.push_back("build-time"); });
    branch.beginRestore(state);
    for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
        std::string tag = it->tag;
        branch.rearmPost(it->when, it->seq,
                         [&branchLog, tag] { branchLog.push_back(tag); });
    }
    branch.endRestore(pending.size());

    EXPECT_EQ(branch.now(), 15);
    branch.runUntil(40);
    EXPECT_EQ(branchLog, (std::vector<std::string>{"B", "C", "D"}));
    EXPECT_EQ(branch.numProcessed(), source.numProcessed());
    EXPECT_EQ(branch.now(), source.now());
}

TEST(SnapshotPeriodicTask, RestoredTaskKeepsPhaseAndSeq)
{
    sim::Simulation source(1);
    std::vector<sim::Tick> sourceFires;
    auto sourceTask = source.every(
        7, [&](sim::Tick at) { sourceFires.push_back(at); });
    source.runUntil(20);  // fired at 7, 14; next at 21.
    sim::Simulation::PeriodicTask::State taskState =
        sourceTask->saveState();
    sim::Snapshot snapshot{source.queue().captureState()};
    source.runUntil(40);
    ASSERT_EQ(sourceFires, (std::vector<sim::Tick>{7, 14, 21, 28, 35}));

    sim::Simulation branch(1);
    std::vector<sim::Tick> branchFires;
    auto branchTask = branch.every(
        7, [&](sim::Tick at) { branchFires.push_back(at); });
    branch.queue().beginRestore(snapshot.queue);
    branchTask->restoreState(taskState);
    branch.queue().endRestore(1);

    branch.runUntil(40);
    EXPECT_EQ(branchFires, (std::vector<sim::Tick>{21, 28, 35}));
    EXPECT_TRUE(branchTask->running());
}

TEST(SnapshotRng, ForkIsPureSoRebuiltWorldsDeriveIdenticalStreams)
{
    // fork()/forkPath() are const: drawing from the root or forking
    // other children must not perturb a child's stream.  This is why
    // sim::Snapshot carries no root-Rng entry.
    sim::Rng rootA(42);
    sim::Rng first = rootA.fork(0xA110);
    (void)rootA.fork(0xBEEF);
    for (int i = 0; i < 8; ++i)
        (void)rootA.uniform();
    sim::Rng second = rootA.fork(0xA110);

    sim::Rng rootB(42);
    sim::Rng rebuilt = rootB.fork(0xA110);

    for (int i = 0; i < 64; ++i) {
        double expected = first.uniform();
        EXPECT_DOUBLE_EQ(expected, second.uniform());
        EXPECT_DOUBLE_EQ(expected, rebuilt.uniform());
    }

    sim::Rng pathA = sim::Rng(7).forkPath("rows").forkPath("a100-0");
    sim::Rng pathB = sim::Rng(7).forkPath("rows").forkPath("a100-0");
    for (int i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(pathA.uniform(), pathB.uniform());
}

/** Recording fake control target (PowerManager snapshot test). */
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

TEST(SnapshotPowerManager, DurableStateSurvivesWarmRestart)
{
    sim::Simulation sim;
    telemetry::DomainManager telemetry(sim, sim::secondsToTicks(2),
                                    false);
    core::PowerManager manager(sim, telemetry, 10000.0,
                               core::PolicyConfig::polca(),
                               sim::Rng(1));
    double watts = 10100.0;  // 101 %: brake territory.
    telemetry.addSource([&watts] { return watts; });
    std::vector<std::unique_ptr<FakeTarget>> targets;
    for (int i = 0; i < 2; ++i) {
        targets.push_back(std::make_unique<FakeTarget>());
        manager.addTarget(i == 0 ? Priority::Low : Priority::High,
                          targets.back().get());
    }
    manager.start();
    telemetry.start();
    sim.runFor(sim::secondsToTicks(10));
    ASSERT_TRUE(manager.brakeEngaged());

    core::PowerManager::Snapshot before = manager.snapshot();
    EXPECT_TRUE(before.brakeEngaged);

    manager.controllerCrash();
    sim.runFor(sim::secondsToTicks(4));
    manager.controllerRestart(/*coldRestart=*/false);

    // Rehydrated durable state: same brake posture and commanded
    // caps as at crash time.
    EXPECT_TRUE(manager.brakeEngaged());
    core::PowerManager::Snapshot after = manager.snapshot();
    EXPECT_EQ(after.brakeEngaged, before.brakeEngaged);
    EXPECT_EQ(after.brakeEngagedAt, before.brakeEngagedAt);
    EXPECT_DOUBLE_EQ(after.lowCommandedMhz, before.lowCommandedMhz);
    EXPECT_DOUBLE_EQ(after.highCommandedMhz, before.highCommandedMhz);
    ASSERT_EQ(after.ruleActive.size(), before.ruleActive.size());
    for (std::size_t i = 0; i < after.ruleActive.size(); ++i) {
        EXPECT_EQ(after.ruleActive[i], before.ruleActive[i]);
        EXPECT_EQ(after.ruleActivatedAt[i], before.ruleActivatedAt[i]);
    }
}

core::ExperimentConfig
warmRowConfig()
{
    core::ExperimentConfig config;
    config.seed = 11;
    config.row.baseServers = 3;
    config.duration = sim::secondsToTicks(1800);
    config.warmup = sim::secondsToTicks(600);
    config.obsOptions.metricsInterval = sim::secondsToTicks(120);
    return config;
}

core::ExperimentConfig
warmSiteConfig()
{
    core::ExperimentConfig config;
    config.seed = 5;
    config.duration = sim::secondsToTicks(360);
    config.warmup = sim::secondsToTicks(120);
    config.topology.enabled = true;
    cluster::TopologyRowGroup group;
    group.name = "a100";
    group.rows = 2;
    group.racksPerRow = 2;
    group.serversPerRack = 2;
    config.topology.groups.push_back(group);
    return config;
}

std::string
metricsDump(obs::Observability &obs)
{
    std::ostringstream os;
    obs.metrics.dumpCsv(os);
    return os.str();
}

std::string
intervalDump(obs::Observability &obs)
{
    std::ostringstream os;
    obs.interval.writeCsv(os);
    return os.str();
}

/** Run @p config three ways — fresh, leader (capturing the warmup
 *  snapshot), and branched from that snapshot — and require
 *  bit-identical metrics, interval stats, and headline results. */
void
expectBranchMatchesFresh(const core::ExperimentConfig &base)
{
    sim::QuietScope quiet(true);

    obs::Observability freshObs;
    core::ExperimentConfig fresh = base;
    fresh.obs = &freshObs;
    core::ExperimentResult freshResult = runOversubExperiment(fresh);

    obs::Observability leaderObs;
    core::ExperimentConfig leader = base;
    leader.obs = &leaderObs;
    std::shared_ptr<const core::WarmupSnapshot> snapshot;
    leader.onWarmupSnapshot =
        [&snapshot](std::shared_ptr<const core::WarmupSnapshot> s) {
            snapshot = std::move(s);
        };
    core::ExperimentResult leaderResult = runOversubExperiment(leader);
    ASSERT_TRUE(snapshot);
    EXPECT_EQ(snapshot->warmup, base.warmup);

    obs::Observability branchObs;
    core::ExperimentConfig branch = base;
    branch.obs = &branchObs;
    branch.resumeFrom = snapshot;
    core::ExperimentResult branchResult = runOversubExperiment(branch);

    // Capturing the snapshot is a pure read...
    EXPECT_EQ(metricsDump(freshObs), metricsDump(leaderObs));
    // ...and the branch is a bit-exact continuation.
    EXPECT_EQ(metricsDump(freshObs), metricsDump(branchObs));
    EXPECT_EQ(intervalDump(freshObs), intervalDump(branchObs));

    auto expectResultsEqual = [](const core::ExperimentResult &a,
                                 const core::ExperimentResult &b) {
        EXPECT_EQ(a.lowCompletions, b.lowCompletions);
        EXPECT_EQ(a.highCompletions, b.highCompletions);
        EXPECT_DOUBLE_EQ(a.low.p99, b.low.p99);
        EXPECT_DOUBLE_EQ(a.high.p99, b.high.p99);
        EXPECT_DOUBLE_EQ(a.energyKwh, b.energyKwh);
        EXPECT_EQ(a.powerBrakeEvents, b.powerBrakeEvents);
        EXPECT_EQ(a.breakerTrips, b.breakerTrips);
        EXPECT_DOUBLE_EQ(a.maxUtilization, b.maxUtilization);
        EXPECT_EQ(a.failSafeTicks, b.failSafeTicks);
        EXPECT_EQ(a.domains.size(), b.domains.size());
        for (std::size_t i = 0; i < a.domains.size(); ++i) {
            EXPECT_EQ(a.domains[i].path, b.domains[i].path);
            EXPECT_DOUBLE_EQ(a.domains[i].peakWatts,
                             b.domains[i].peakWatts);
            EXPECT_DOUBLE_EQ(a.domains[i].meanWatts,
                             b.domains[i].meanWatts);
        }
    };
    expectResultsEqual(freshResult, leaderResult);
    expectResultsEqual(freshResult, branchResult);
}

TEST(SnapshotExperiment, RowBranchIsBitIdenticalToFreshWarmup)
{
    expectBranchMatchesFresh(warmRowConfig());
}

TEST(SnapshotExperiment, SiteBranchIsBitIdenticalToFreshWarmup)
{
    expectBranchMatchesFresh(warmSiteConfig());
}

TEST(SnapshotExperiment, UnobservedBaselineBranchesFromObservedLeader)
{
    sim::QuietScope quiet(true);
    core::ExperimentConfig base = warmRowConfig();

    obs::Observability leaderObs;
    core::ExperimentConfig leader = base;
    leader.obs = &leaderObs;
    std::shared_ptr<const core::WarmupSnapshot> snapshot;
    leader.onWarmupSnapshot =
        [&snapshot](std::shared_ptr<const core::WarmupSnapshot> s) {
            snapshot = std::move(s);
        };
    (void)runOversubExperiment(leader);
    ASSERT_TRUE(snapshot);

    // Baseline derivation drops the control plane and observability;
    // it must still branch cleanly from the observed leader (the
    // leader's stats-task event is deliberately not re-armed).
    core::ExperimentConfig branched =
        core::unthrottledBaseline(base);
    branched.obs = nullptr;
    branched.resumeFrom = snapshot;
    core::ExperimentResult branchedResult =
        runOversubExperiment(branched);

    core::ExperimentConfig fresh = core::unthrottledBaseline(base);
    fresh.obs = nullptr;
    core::ExperimentResult freshResult = runOversubExperiment(fresh);

    EXPECT_EQ(freshResult.lowCompletions,
              branchedResult.lowCompletions);
    EXPECT_EQ(freshResult.highCompletions,
              branchedResult.highCompletions);
    EXPECT_DOUBLE_EQ(freshResult.low.p99, branchedResult.low.p99);
    EXPECT_DOUBLE_EQ(freshResult.high.p99, branchedResult.high.p99);
    EXPECT_DOUBLE_EQ(freshResult.energyKwh,
                     branchedResult.energyKwh);
}

/** Capture @p base's warmup snapshot, then require that a branch
 *  with another seed or another duration panics at restore instead
 *  of running on the snapshot's world and trace. */
void
expectMismatchedBranchPanics(const core::ExperimentConfig &base)
{
    sim::QuietScope quiet(true);
    core::ExperimentConfig leader = base;
    std::shared_ptr<const core::WarmupSnapshot> snapshot;
    leader.onWarmupSnapshot =
        [&snapshot](std::shared_ptr<const core::WarmupSnapshot> s) {
            snapshot = std::move(s);
        };
    (void)runOversubExperiment(leader);
    ASSERT_TRUE(snapshot);
    EXPECT_EQ(snapshot->seed, base.seed);
    EXPECT_EQ(snapshot->duration, base.duration);

    core::ExperimentConfig otherSeed = base;
    otherSeed.seed += 1;
    otherSeed.resumeFrom = snapshot;
    EXPECT_DEATH((void)runOversubExperiment(otherSeed), "seed");

    core::ExperimentConfig otherDuration = base;
    otherDuration.duration += sim::secondsToTicks(60);
    otherDuration.resumeFrom = snapshot;
    EXPECT_DEATH((void)runOversubExperiment(otherDuration),
                 "duration");
}

TEST(SnapshotExperimentDeath, RowBranchWithAnotherSeedOrDurationPanics)
{
    expectMismatchedBranchPanics(warmRowConfig());
}

TEST(SnapshotExperimentDeath, SiteBranchWithAnotherSeedOrDurationPanics)
{
    expectMismatchedBranchPanics(warmSiteConfig());
}

TEST(SnapshotExperiment, ValidateWarmupConfigRejectsConflicts)
{
    core::ExperimentConfig config = warmRowConfig();
    config.warmup = config.duration;  // boundary at/after the end
    EXPECT_DEATH(core::validateWarmupConfig(config), "warmup");

    config = warmRowConfig();
    faults::ServerCrash crash;
    crash.at = config.warmup / 2;  // fires inside the warmup
    config.faultPlan.crashes.push_back(crash);
    EXPECT_DEATH(core::validateWarmupConfig(config), "warmup");

    config = warmRowConfig();
    config.chaos.enabled = true;
    EXPECT_DEATH(core::validateWarmupConfig(config), "chaos");
}

} // namespace
