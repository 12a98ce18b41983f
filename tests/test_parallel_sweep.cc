/**
 * @file
 * Parallel sweep determinism: a sweep executed with jobs=1 and
 * jobs=8 must produce byte-identical summary.csv and per-point
 * metrics CSVs, and identical in-memory results.  Also covers the
 * scenario layer's reserved [sweep] jobs key.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "config/scenario.hh"
#include "core/sweep_runner.hh"
#include "sim/logging.hh"

namespace {

using namespace polca;

core::ExperimentConfig
tinyConfig(std::uint64_t seed)
{
    core::ExperimentConfig config;
    config.row.baseServers = 2;
    config.duration = sim::secondsToTicks(900);
    config.seed = seed;
    return config;
}

std::vector<core::SweepPoint>
fourPoints()
{
    std::vector<core::SweepPoint> points;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        points.push_back({"seed=" + std::to_string(seed),
                          tinyConfig(seed), ""});
    }
    return points;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(ParallelSweep, ArtifactsAreByteIdenticalAcrossJobCounts)
{
    sim::QuietScope quiet(true);
    const std::string dirSeq = "parallel_sweep_test_j1";
    const std::string dirPar = "parallel_sweep_test_j8";
    std::filesystem::remove_all(dirSeq);
    std::filesystem::remove_all(dirPar);

    core::SweepOptions seq;
    seq.artifactDir = dirSeq;
    seq.runBaseline = true;
    seq.echoProgress = false;
    seq.jobs = 1;

    core::SweepOptions par = seq;
    par.artifactDir = dirPar;
    par.jobs = 8;

    core::SweepRunner seqRunner(fourPoints(), seq);
    core::SweepRunner parRunner(fourPoints(), par);
    const auto &seqResults = seqRunner.run();
    const auto &parResults = parRunner.run();

    ASSERT_EQ(seqResults.size(), 4u);
    ASSERT_EQ(parResults.size(), 4u);

    EXPECT_EQ(slurp(std::filesystem::path(dirSeq) / "summary.csv"),
              slurp(std::filesystem::path(dirPar) / "summary.csv"));

    for (std::size_t i = 0; i < seqResults.size(); ++i) {
        const auto &a = seqResults[i];
        const auto &b = parResults[i];
        EXPECT_EQ(a.label, b.label);
        // Per-point artifact CSVs: same file name stem, same bytes.
        ASSERT_FALSE(a.artifactPath.empty());
        ASSERT_FALSE(b.artifactPath.empty());
        EXPECT_EQ(std::filesystem::path(a.artifactPath).filename(),
                  std::filesystem::path(b.artifactPath).filename());
        EXPECT_EQ(slurp(a.artifactPath), slurp(b.artifactPath))
            << a.artifactPath;
        // Stitched results match field-for-field where it counts.
        EXPECT_EQ(a.result.lowCompletions, b.result.lowCompletions);
        EXPECT_EQ(a.result.highCompletions, b.result.highCompletions);
        EXPECT_EQ(a.result.powerBrakeEvents,
                  b.result.powerBrakeEvents);
        EXPECT_DOUBLE_EQ(a.result.low.p99, b.result.low.p99);
        EXPECT_DOUBLE_EQ(a.result.energyKwh, b.result.energyKwh);
        EXPECT_DOUBLE_EQ(a.lowNorm.p99, b.lowNorm.p99);
        EXPECT_DOUBLE_EQ(a.highNorm.p99, b.highNorm.p99);
        EXPECT_EQ(a.baseline.lowCompletions,
                  b.baseline.lowCompletions);
    }

    std::filesystem::remove_all(dirSeq);
    std::filesystem::remove_all(dirPar);
}

TEST(ParallelSweep, MoreWorkersThanPointsCompletes)
{
    sim::QuietScope quiet(true);
    std::vector<core::SweepPoint> points;
    points.push_back({"only", tinyConfig(3), ""});

    core::SweepOptions options;
    options.runBaseline = true;
    options.echoProgress = false;
    options.jobs = 8;
    core::SweepRunner runner(points, options);
    const auto &results = runner.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].result.lowCompletions +
                  results[0].result.highCompletions,
              0u);
    EXPECT_GT(results[0].baseline.lowCompletions +
                  results[0].baseline.highCompletions,
              0u);
}

TEST(ParallelSweep, SweepJobsKeyIsParsedAndIsNotAnAxis)
{
    const std::string text =
        "[experiment]\n"
        "duration = 900s\n"
        "[row]\n"
        "base_servers = 2\n"
        "[sweep]\n"
        "jobs = 4\n"
        "\"experiment.seed\" = [1, 2]\n";
    config::Diagnostics diag;
    config::ScenarioSet set =
        config::loadScenarioString(text, "jobs-key", {}, diag);
    ASSERT_TRUE(diag.ok()) << diag.str();
    EXPECT_EQ(set.jobs, 4);
    // jobs did not multiply the point count.
    ASSERT_EQ(set.points.size(), 2u);
    EXPECT_EQ(set.points[0].label, "experiment.seed=1");
    // ...and did not leak into the point labels.
    EXPECT_EQ(set.points[0].label.find("jobs"), std::string::npos);
}

TEST(ParallelSweep, SweepJobsZeroMeansHardwareConcurrency)
{
    const std::string text =
        "[sweep]\n"
        "jobs = 0\n";
    config::Diagnostics diag;
    config::ScenarioSet set =
        config::loadScenarioString(text, "jobs-zero", {}, diag);
    ASSERT_TRUE(diag.ok()) << diag.str();
    EXPECT_GE(set.jobs, 1);
}

TEST(ParallelSweep, SweepJobsRejectsBadValues)
{
    for (const char *bad : {"jobs = -2\n", "jobs = \"many\"\n",
                            "jobs = [1, 2]\n"}) {
        config::Diagnostics diag;
        config::loadScenarioString(std::string("[sweep]\n") + bad,
                                   "jobs-bad", {}, diag);
        EXPECT_FALSE(diag.ok()) << bad;
    }
}

/** A point sharing one warmup trajectory, diverging only in policy. */
core::ExperimentConfig
warmupConfig(core::PolicyConfig policy)
{
    core::ExperimentConfig config = tinyConfig(9);
    config.duration = sim::secondsToTicks(1200);
    config.warmup = sim::secondsToTicks(600);
    config.obsOptions.metricsInterval = sim::secondsToTicks(120);
    config.policy = std::move(policy);
    return config;
}

void
expectSameLatency(const core::LatencyStats &a, const core::LatencyStats &b)
{
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.count, b.count);
}

void
expectSameSeries(const sim::TimeSeries &a, const sim::TimeSeries &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.at(i).time, b.at(i).time);
        EXPECT_EQ(a.at(i).value, b.at(i).value);
    }
}

/** Every field of two results; doubles must be equal, not close. */
void
expectSameResult(const core::ExperimentResult &a,
                 const core::ExperimentResult &b)
{
    expectSameLatency(a.low, b.low);
    expectSameLatency(a.high, b.high);
    EXPECT_EQ(a.lowThroughput, b.lowThroughput);
    EXPECT_EQ(a.highThroughput, b.highThroughput);
    EXPECT_EQ(a.lowArrivals, b.lowArrivals);
    EXPECT_EQ(a.highArrivals, b.highArrivals);
    EXPECT_EQ(a.lowCompletions, b.lowCompletions);
    EXPECT_EQ(a.highCompletions, b.highCompletions);
    EXPECT_EQ(a.powerBrakeEvents, b.powerBrakeEvents);
    EXPECT_EQ(a.capCommands, b.capCommands);
    EXPECT_EQ(a.uncapCommands, b.uncapCommands);
    EXPECT_EQ(a.reissuedCommands, b.reissuedCommands);
    EXPECT_EQ(a.maxUtilization, b.maxUtilization);
    EXPECT_EQ(a.meanUtilization, b.meanUtilization);
    EXPECT_EQ(a.breakerTrips, b.breakerTrips);
    EXPECT_EQ(a.breakerNearTrips, b.breakerNearTrips);
    EXPECT_EQ(a.firstBreakerTrip, b.firstBreakerTrip);
    EXPECT_EQ(a.ticksAboveProvisioned, b.ticksAboveProvisioned);
    EXPECT_EQ(a.overdrawWattSeconds, b.overdrawWattSeconds);
    EXPECT_EQ(a.longestOverLimitStreak, b.longestOverLimitStreak);
    EXPECT_EQ(a.failSafeEntries, b.failSafeEntries);
    EXPECT_EQ(a.failSafeTicks, b.failSafeTicks);
    EXPECT_EQ(a.flaggedChannels, b.flaggedChannels);
    EXPECT_EQ(a.droppedReadings, b.droppedReadings);
    EXPECT_EQ(a.corruptedReadings, b.corruptedReadings);
    EXPECT_EQ(a.crashesInjected, b.crashesInjected);
    EXPECT_EQ(a.droppedRequests, b.droppedRequests);
    EXPECT_EQ(a.controllerCrashes, b.controllerCrashes);
    EXPECT_EQ(a.controllerRecoveries, b.controllerRecoveries);
    EXPECT_EQ(a.controllerDownTicks, b.controllerDownTicks);
    EXPECT_EQ(a.mttrTotalTicks, b.mttrTotalTicks);
    EXPECT_EQ(a.mttrMaxTicks, b.mttrMaxTicks);
    EXPECT_EQ(a.timeToFailSafeMaxTicks, b.timeToFailSafeMaxTicks);
    EXPECT_EQ(a.capsHeldStaleTicks, b.capsHeldStaleTicks);
    EXPECT_EQ(a.staleTicks, b.staleTicks);
    EXPECT_EQ(a.brakeTicks, b.brakeTicks);
    EXPECT_EQ(a.modeTransitions, b.modeTransitions);
    ASSERT_EQ(a.violations.size(), b.violations.size());
    for (std::size_t i = 0; i < a.violations.size(); ++i) {
        EXPECT_EQ(a.violations[i].invariant, b.violations[i].invariant);
        EXPECT_EQ(a.violations[i].at, b.violations[i].at);
        EXPECT_EQ(a.violations[i].value, b.violations[i].value);
        EXPECT_EQ(a.violations[i].limit, b.violations[i].limit);
    }
    EXPECT_EQ(a.energyKwh, b.energyKwh);
    EXPECT_EQ(a.energyPerRequestKj, b.energyPerRequestKj);
    ASSERT_EQ(a.byWorkload.size(), b.byWorkload.size());
    for (std::size_t i = 0; i < a.byWorkload.size(); ++i)
        expectSameLatency(a.byWorkload[i], b.byWorkload[i]);
    EXPECT_EQ(a.lpLockedTicks, b.lpLockedTicks);
    EXPECT_EQ(a.hpLockedTicks, b.hpLockedTicks);
    expectSameSeries(a.rowPowerSeries, b.rowPowerSeries);
    ASSERT_EQ(a.domains.size(), b.domains.size());
    for (std::size_t i = 0; i < a.domains.size(); ++i) {
        const core::DomainStats &x = a.domains[i];
        const core::DomainStats &y = b.domains[i];
        EXPECT_EQ(x.path, y.path);
        EXPECT_EQ(x.level, y.level);
        EXPECT_EQ(x.servers, y.servers);
        EXPECT_EQ(x.provisionedWatts, y.provisionedWatts);
        EXPECT_EQ(x.budgetWatts, y.budgetWatts);
        EXPECT_EQ(x.breakerLimitWatts, y.breakerLimitWatts);
        EXPECT_EQ(x.peakWatts, y.peakWatts);
        EXPECT_EQ(x.meanWatts, y.meanWatts);
        EXPECT_EQ(x.breakerTrips, y.breakerTrips);
        EXPECT_EQ(x.breakerNearTrips, y.breakerNearTrips);
        EXPECT_EQ(x.overdrawWattSeconds, y.overdrawWattSeconds);
        EXPECT_EQ(x.secondsAboveBudget, y.secondsAboveBudget);
        EXPECT_EQ(x.completions, y.completions);
        EXPECT_EQ(x.lowP99, y.lowP99);
        EXPECT_EQ(x.highP99, y.highP99);
        EXPECT_EQ(x.capCommands, y.capCommands);
        EXPECT_EQ(x.powerBrakeEvents, y.powerBrakeEvents);
        EXPECT_EQ(x.violations, y.violations);
    }
    ASSERT_EQ(a.domainPowerSeries.size(), b.domainPowerSeries.size());
    for (std::size_t i = 0; i < a.domainPowerSeries.size(); ++i) {
        EXPECT_EQ(a.domainPowerSeries[i].path,
                  b.domainPowerSeries[i].path);
        expectSameSeries(a.domainPowerSeries[i].series,
                         b.domainPowerSeries[i].series);
    }
}

/** A sweep point's stats_interval.csv, beside its metrics.csv. */
std::string
intervalPath(const std::string &metricsPath)
{
    const std::string suffix = ".metrics.csv";
    EXPECT_TRUE(metricsPath.ends_with(suffix)) << metricsPath;
    return metricsPath.substr(0, metricsPath.size() - suffix.size()) +
        ".stats_interval.csv";
}

/**
 * Run the points from @p makePoints from scratch on one worker, then
 * branched from each shared warmup on four workers and on one, and
 * require byte-identical artifacts and equal results — every field
 * of each member's baseline included, since a branched sweep runs
 * one baseline per warmup group and copies it to the members.  The
 * points must set an [obs] interval: each point's stats_interval.csv
 * is compared too.  The one-worker branched run must announce
 * @p progress.  Under TSan this is also the race check for state
 * that branches rebuild from the shared snapshot on worker threads.
 */
void
expectBranchedSweepMatchesFull(
    const std::function<std::vector<core::SweepPoint>()> &makePoints,
    const std::string &stem, const std::string &progress)
{
    sim::QuietScope quiet(true);
    const std::string dirFull = stem + "_full";
    std::filesystem::remove_all(dirFull);

    core::SweepOptions full;
    full.artifactDir = dirFull;
    full.runBaseline = true;
    full.echoProgress = false;
    full.jobs = 1;
    full.branch = false;
    core::SweepRunner fullRunner(makePoints(), full);
    const auto &fullResults = fullRunner.run();
    ASSERT_EQ(fullResults.size(), makePoints().size());

    for (int jobs : {4, 1}) {
        SCOPED_TRACE("branched, jobs = " + std::to_string(jobs));
        const std::string dirBranch =
            stem + "_branch_j" + std::to_string(jobs);
        std::filesystem::remove_all(dirBranch);
        core::SweepOptions branched = full;
        branched.artifactDir = dirBranch;
        branched.jobs = jobs;
        branched.branch = true;
        branched.echoProgress = jobs == 1;
        core::SweepRunner branchRunner(makePoints(), branched);
        if (jobs == 1)
            testing::internal::CaptureStdout();
        const auto &branchResults = branchRunner.run();
        if (jobs == 1) {
            EXPECT_NE(testing::internal::GetCapturedStdout().find(
                          progress),
                      std::string::npos)
                << progress;
        }

        ASSERT_EQ(branchResults.size(), fullResults.size());
        EXPECT_EQ(
            slurp(std::filesystem::path(dirFull) / "summary.csv"),
            slurp(std::filesystem::path(dirBranch) / "summary.csv"));
        for (std::size_t i = 0; i < fullResults.size(); ++i) {
            SCOPED_TRACE("point " + std::to_string(i));
            const auto &a = fullResults[i];
            const auto &b = branchResults[i];
            EXPECT_EQ(a.label, b.label);
            ASSERT_FALSE(a.artifactPath.empty());
            EXPECT_EQ(slurp(a.artifactPath), slurp(b.artifactPath))
                << a.artifactPath;
            // The points' [obs] interval: the branch continues the
            // warmup's interval stats copied out of the snapshot.
            std::string aInterval = intervalPath(a.artifactPath);
            ASSERT_TRUE(std::filesystem::exists(aInterval)) << aInterval;
            EXPECT_EQ(slurp(aInterval),
                      slurp(intervalPath(b.artifactPath)))
                << aInterval;
            EXPECT_EQ(a.result.lowCompletions, b.result.lowCompletions);
            EXPECT_DOUBLE_EQ(a.result.low.p99, b.result.low.p99);
            EXPECT_DOUBLE_EQ(a.result.energyKwh, b.result.energyKwh);
            EXPECT_DOUBLE_EQ(a.lowNorm.p99, b.lowNorm.p99);
            EXPECT_DOUBLE_EQ(a.highNorm.p99, b.highNorm.p99);
            expectSameResult(a.baseline, b.baseline);
        }
        std::filesystem::remove_all(dirBranch);
    }
    std::filesystem::remove_all(dirFull);
}

TEST(ParallelSweep, BranchedSweepIsByteIdenticalToFullSimulation)
{
    expectBranchedSweepMatchesFull(
        [] {
            std::vector<core::SweepPoint> points;
            points.push_back(
                {"policy=polca",
                 warmupConfig(core::PolicyConfig::polca()),
                 "shared-warmup"});
            points.push_back(
                {"policy=nocap",
                 warmupConfig(core::PolicyConfig::noCap()),
                 "shared-warmup"});
            return points;
        },
        "parallel_sweep_test",
        // One managed fork plus the group's one baseline.
        "[sweep] branch: 1 warmup snapshot feeding 2 runs");
}

/** A 2 rows x 2 racks x 4 servers site sharing one warmup. */
core::ExperimentConfig
warmupSiteConfig(core::PolicyConfig policy)
{
    core::ExperimentConfig config;
    config.seed = 3;
    config.duration = sim::secondsToTicks(600);
    config.warmup = sim::secondsToTicks(240);
    config.obsOptions.metricsInterval = sim::secondsToTicks(60);
    config.topology.enabled = true;
    cluster::TopologyRowGroup group;
    group.name = "a100";
    group.rows = 2;
    group.racksPerRow = 2;
    group.serversPerRack = 4;
    config.topology.groups.push_back(group);
    config.policy = std::move(policy);
    return config;
}

TEST(ParallelSweep, BranchedSiteSweepIsByteIdenticalToFullSimulation)
{
    // Site worlds rebuild cached domain sums and dispatch candidate
    // lists while restoring from the snapshot the workers share.
    expectBranchedSweepMatchesFull(
        [] {
            std::vector<core::SweepPoint> points;
            points.push_back(
                {"policy=polca",
                 warmupSiteConfig(core::PolicyConfig::polca()),
                 "site-warmup"});
            points.push_back(
                {"policy=1tlp",
                 warmupSiteConfig(core::PolicyConfig::oneThreshLowPri()),
                 "site-warmup"});
            points.push_back(
                {"policy=nocap",
                 warmupSiteConfig(core::PolicyConfig::noCap()),
                 "site-warmup"});
            return points;
        },
        "parallel_site_sweep_test",
        // Two managed forks plus the group's one baseline.
        "[sweep] branch: 1 warmup snapshot feeding 3 runs");
}

TEST(ParallelSweep, SweepWarmupAndBranchKeysAreReservedNotAxes)
{
    const std::string text =
        "[experiment]\n"
        "duration = 1200s\n"
        "[row]\n"
        "base_servers = 2\n"
        "[sweep]\n"
        "warmup = 300s\n"
        "branch = false\n"
        "\"experiment.seed\" = [1, 2]\n";
    config::Diagnostics diag;
    config::ScenarioSet set =
        config::loadScenarioString(text, "warmup-key", {}, diag);
    ASSERT_TRUE(diag.ok()) << diag.str();
    EXPECT_FALSE(set.branch);
    ASSERT_EQ(set.points.size(), 2u);
    for (const config::ResolvedScenario &point : set.points) {
        EXPECT_EQ(point.config.warmup, sim::secondsToTicks(300));
        EXPECT_EQ(point.label.find("warmup"), std::string::npos);
        EXPECT_EQ(point.label.find("branch"), std::string::npos);
    }
}

TEST(ParallelSweep, WarmupDigestIgnoresControlPlaneAxesOnly)
{
    const std::string text =
        "[experiment]\n"
        "duration = 1200s\n"
        "[row]\n"
        "base_servers = 2\n"
        "[sweep]\n"
        "warmup = 300s\n"
        "\"policy.preset\" = [\"polca\", \"nocap\"]\n"
        "\"experiment.seed\" = [1, 2]\n";
    config::Diagnostics diag;
    config::ScenarioSet set =
        config::loadScenarioString(text, "digest", {}, diag);
    ASSERT_TRUE(diag.ok()) << diag.str();
    ASSERT_EQ(set.points.size(), 4u);

    std::vector<std::string> digests;
    for (const config::ResolvedScenario &point : set.points) {
        digests.push_back(
            config::warmupDigest(point.config, point.tree));
    }
    // Policy divergence keeps points in one warmup group...
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = i + 1; j < 4; ++j) {
            if (set.points[i].config.seed ==
                set.points[j].config.seed)
                EXPECT_EQ(digests[i], digests[j]) << i << "," << j;
            else  // ...seed divergence does not.
                EXPECT_NE(digests[i], digests[j]) << i << "," << j;
        }
    }
}

TEST(ParallelSweep, SweepWarmupAndBranchRejectBadValues)
{
    for (const char *bad :
         {"warmup = [300s, 600s]\n", "branch = 7\n",
          "branch = \"yes\"\n", "branch = [true, false]\n"}) {
        config::Diagnostics diag;
        config::loadScenarioString(std::string("[sweep]\n") + bad,
                                   "reserved-bad", {}, diag);
        EXPECT_FALSE(diag.ok()) << bad;
    }
}

} // namespace
