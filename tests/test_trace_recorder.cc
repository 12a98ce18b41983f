/**
 * @file
 * obs::TraceRecorder: recording semantics, category gating, ring
 * overflow, export formats, and whole-experiment determinism.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "analysis/csv.hh"
#include "core/oversub_experiment.hh"
#include "faults/fault_plan.hh"
#include "obs/observability.hh"
#include "obs/trace_recorder.hh"

namespace {

using namespace polca;

TEST(TraceRecorder, DisabledByDefault)
{
    obs::TraceRecorder recorder;
    EXPECT_FALSE(recorder.enabled(obs::TraceCategory::Control));
    recorder.instant(obs::TraceCategory::Control, "x", 10);
    EXPECT_EQ(recorder.size(), 0u);
    EXPECT_EQ(recorder.recorded(), 0u);
}

TEST(TraceRecorder, RecordsInstantAndComplete)
{
    obs::TraceRecorder recorder;
    recorder.setCategoryMask(obs::kAllTraceCategories);
    recorder.complete(obs::TraceCategory::Control, "span", 100, 40, 2,
                      1.5);
    recorder.instant(obs::TraceCategory::Power, "mark", 50, 1, 7.0);

    auto events = recorder.events();
    ASSERT_EQ(events.size(), 2u);
    // events() is ordered by start time, not record order.
    EXPECT_STREQ(events[0].name, "mark");
    EXPECT_EQ(events[0].start, 50);
    EXPECT_LT(events[0].duration, 0);  // instant
    EXPECT_STREQ(events[1].name, "span");
    EXPECT_EQ(events[1].duration, 40);
    EXPECT_EQ(events[1].track, 2);
    EXPECT_DOUBLE_EQ(events[1].value, 1.5);
}

TEST(TraceRecorder, CategoryMaskFilters)
{
    obs::TraceRecorder recorder;
    recorder.setCategoryMask(
        static_cast<std::uint32_t>(obs::TraceCategory::Control));
    recorder.instant(obs::TraceCategory::Control, "kept", 1);
    recorder.instant(obs::TraceCategory::Cluster, "filtered", 2);
    auto events = recorder.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "kept");
}

TEST(TraceRecorder, ParseCategories)
{
    EXPECT_EQ(obs::parseTraceCategories("all"),
              obs::kAllTraceCategories);
    EXPECT_EQ(obs::parseTraceCategories(""),
              obs::kAllTraceCategories);
    EXPECT_EQ(
        obs::parseTraceCategories("control,fault"),
        static_cast<std::uint32_t>(obs::TraceCategory::Control) |
            static_cast<std::uint32_t>(obs::TraceCategory::Fault));
}

TEST(TraceRecorderDeathTest, ParseRejectsUnknownCategory)
{
    EXPECT_EXIT(obs::parseTraceCategories("control,bogus"),
                ::testing::ExitedWithCode(1), "bogus");
}

TEST(TraceRecorder, RingOverflowDropsOldest)
{
    obs::TraceRecorder recorder(4);
    recorder.setCategoryMask(obs::kAllTraceCategories);
    for (int i = 0; i < 6; ++i) {
        recorder.instant(obs::TraceCategory::Sim, "e",
                         static_cast<sim::Tick>(i));
    }
    EXPECT_EQ(recorder.size(), 4u);
    EXPECT_EQ(recorder.recorded(), 6u);
    EXPECT_EQ(recorder.overwritten(), 2u);
    auto events = recorder.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().start, 2);  // 0 and 1 were overwritten
    EXPECT_EQ(events.back().start, 5);
}

TEST(TraceRecorder, ChromeJsonShape)
{
    obs::TraceRecorder recorder;
    recorder.setCategoryMask(obs::kAllTraceCategories);
    recorder.complete(obs::TraceCategory::Control, "cap_issue", 1000,
                      40, 3, 940.0);
    recorder.instant(obs::TraceCategory::Power, "breaker_trip", 2000,
                     0, 15000.0);

    std::ostringstream os;
    recorder.exportChromeJson(os);
    std::string json = os.str();

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"cap_issue\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":40"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"control\""), std::string::npos);
    // Balanced braces/brackets => loadable by chrome://tracing.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(TraceRecorder, CsvExportParsesBack)
{
    obs::TraceRecorder recorder;
    recorder.setCategoryMask(obs::kAllTraceCategories);
    recorder.complete(obs::TraceCategory::Cluster, "batch", 10, 5, 1,
                      2.0);

    std::ostringstream os;
    recorder.exportCsv(os);
    auto rows = analysis::parseCsv(os.str());
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0][0], "start_us");
    EXPECT_EQ(rows[1][0], "10");
    EXPECT_EQ(rows[1][1], "5");
    EXPECT_EQ(rows[1][2], "batch");
    EXPECT_EQ(rows[1][3], "cluster");
}

TEST(TraceRecorder, ClearEmptiesBuffer)
{
    obs::TraceRecorder recorder;
    recorder.setCategoryMask(obs::kAllTraceCategories);
    recorder.instant(obs::TraceCategory::Sim, "e", 1);
    recorder.clear();
    EXPECT_EQ(recorder.size(), 0u);
    EXPECT_TRUE(recorder.events().empty());
}

/** Run a small seeded experiment with full observability. */
void
runObserved(obs::Observability &observability, std::string &metrics,
            std::string &json)
{
    observability.trace.setCategoryMask(obs::kAllTraceCategories);

    core::ExperimentConfig config;
    config.row.baseServers = 6;
    config.row.addedServerFraction = 0.30;
    config.duration = sim::secondsToTicks(1200.0);
    config.seed = 7;
    config.manager.smbpbiFailureProbability = 0.2;
    // A telemetry blackout guarantees cap traffic regardless of the
    // load level: the watchdog's fail-safe escalates every rule,
    // which issues lock commands on both pools.
    config.faultPlan = faults::scenarioByName(
        "blackout", config.duration, config.row.deployedServers());
    config.obs = &observability;
    core::runOversubExperiment(config);

    std::ostringstream metricsOs;
    observability.metrics.dump(metricsOs);
    metrics = metricsOs.str();
    std::ostringstream jsonOs;
    observability.trace.exportChromeJson(jsonOs);
    json = jsonOs.str();
}

TEST(TraceExport, DeterministicAcrossIdenticalRuns)
{
    obs::Observability a;
    obs::Observability b;
    std::string metricsA, metricsB, jsonA, jsonB;
    runObserved(a, metricsA, jsonA);
    runObserved(b, metricsB, jsonB);

    EXPECT_FALSE(metricsA.empty());
    EXPECT_EQ(metricsA, metricsB);
    EXPECT_EQ(jsonA, jsonB);
    EXPECT_GT(a.trace.recorded(), 0u);
    EXPECT_EQ(a.trace.recorded(), b.trace.recorded());
}

TEST(TraceExport, CapIssueSpansMatchConfiguredLatency)
{
    obs::Observability observability;
    std::string metrics, json;
    runObserved(observability, metrics, json);

    core::ExperimentConfig config;  // defaults match runObserved
    std::size_t spans = 0;
    for (const obs::TraceEvent &e : observability.trace.events()) {
        if (std::strcmp(e.name, "cap_issue") != 0)
            continue;
        ++spans;
        EXPECT_EQ(e.duration, config.manager.oobCommandLatency);
    }
    EXPECT_GT(spans, 0u);
}

} // namespace
