/**
 * @file
 * SweepRunner tests: artifact-stem sanitization, per-point metrics
 * CSVs plus the summary CSV, baseline normalization (a one-point
 * sweep against a hand-paired managed and baseline run), and the
 * cross-point summary table.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

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

TEST(SweepRunner, ArtifactStemSanitizes)
{
    EXPECT_EQ(core::SweepRunner::artifactStem(
                  "seed=1,policy.preset=polca", 0),
              "seed-1_policy.preset-polca");
    EXPECT_EQ(core::SweepRunner::artifactStem("", 3), "point-3");
    EXPECT_EQ(core::SweepRunner::artifactStem("a b/c", 0), "a_b_c");
}

TEST(SweepRunner, RunsEveryPointAndWritesArtifacts)
{
    sim::QuietScope quiet(true);
    const std::string dir = "sweep_runner_test_artifacts";
    std::filesystem::remove_all(dir);

    std::vector<core::SweepPoint> points;
    points.push_back({"seed=1", tinyConfig(1), ""});
    points.push_back({"seed=2", tinyConfig(2), ""});

    core::SweepOptions options;
    options.artifactDir = dir;
    options.runBaseline = false;
    options.echoProgress = false;
    core::SweepRunner runner(points, options);
    const std::vector<core::SweepPointResult> &results = runner.run();

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].label, "seed=1");
    EXPECT_EQ(results[1].label, "seed=2");
    for (const core::SweepPointResult &r : results) {
        ASSERT_FALSE(r.artifactPath.empty());
        EXPECT_TRUE(std::filesystem::exists(r.artifactPath))
            << r.artifactPath;
        // The metrics CSV has a header plus at least one metric row.
        std::ifstream in(r.artifactPath);
        std::string line;
        EXPECT_TRUE(std::getline(in, line));
        EXPECT_TRUE(std::getline(in, line)) << r.artifactPath;
        // Both points actually simulated: work was completed.
        EXPECT_GT(r.result.lowCompletions + r.result.highCompletions,
                  0u);
    }
    EXPECT_NE(results[0].artifactPath, results[1].artifactPath);
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(dir) / "summary.csv"));

    // summary.csv: header + one line per point.
    std::ifstream summary(std::filesystem::path(dir) /
                          "summary.csv");
    int lines = 0;
    std::string line;
    while (std::getline(summary, line))
        ++lines;
    EXPECT_EQ(lines, 3);

    analysis::Table table = runner.summaryTable();
    EXPECT_EQ(table.numRows(), 2u);
    EXPECT_EQ(table.at(0, 0), "seed=1");
    EXPECT_EQ(table.at(1, 0), "seed=2");

    std::filesystem::remove_all(dir);
}

TEST(SweepRunner, NoArtifactDirWritesNothing)
{
    sim::QuietScope quiet(true);
    std::vector<core::SweepPoint> points;
    points.push_back({"", tinyConfig(1), ""});
    core::SweepOptions options;
    options.runBaseline = false;
    options.echoProgress = false;
    core::SweepRunner runner(points, options);
    const std::vector<core::SweepPointResult> &results = runner.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].artifactPath.empty());
}

TEST(SweepRunner, BaselineNormalization)
{
    // A one-point sweep is `polcactl run`'s single point: it must
    // normalize exactly as the hand pairing of a managed run with
    // its own unthrottled baseline, at any worker count, and also
    // when the baseline forks from the managed run's warmup.
    sim::QuietScope quiet(true);
    core::ExperimentConfig fresh = tinyConfig(1);
    fresh.row.addedServerFraction = 0.5;
    core::ExperimentConfig warm = fresh;
    warm.warmup = sim::secondsToTicks(300);
    for (const core::ExperimentConfig &config : {fresh, warm}) {
        core::ExperimentResult managed =
            core::runOversubExperiment(config);
        core::ExperimentResult baseline =
            core::runOversubExperiment(core::unthrottledBaseline(config));
        core::NormalizedLatency low =
            core::normalizeLatency(managed.low, baseline.low);
        core::NormalizedLatency high =
            core::normalizeLatency(managed.high, baseline.high);
        for (int jobs : {1, 2}) {
            SCOPED_TRACE("warmup " +
                         std::to_string(config.warmup > 0) + ", jobs " +
                         std::to_string(jobs));
            core::SweepOptions options;
            options.echoProgress = false;
            options.jobs = jobs;
            core::SweepRunner runner({{"", config, ""}}, options);
            const core::SweepPointResult &r = runner.run().front();
            EXPECT_EQ(r.result.low.p99, managed.low.p99);
            EXPECT_EQ(r.result.high.p99, managed.high.p99);
            EXPECT_EQ(r.baseline.low.p99, baseline.low.p99);
            EXPECT_EQ(r.baseline.high.p99, baseline.high.p99);
            for (auto [got, want] : {std::pair{r.lowNorm, low},
                                     std::pair{r.highNorm, high}}) {
                EXPECT_EQ(got.p50, want.p50);
                EXPECT_EQ(got.p99, want.p99);
                EXPECT_EQ(got.max, want.max);
            }
        }
    }
}

} // namespace
