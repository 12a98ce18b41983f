/**
 * @file
 * Control-plane timeline: trace-driven visualization and a
 * self-check of the observability subsystem.
 *
 * Runs one seeded oversubscription experiment with metrics and
 * tracing attached, then:
 *
 *  1. verifies every cap_issue span in the trace has exactly the
 *     configured OOB command latency (the 40 s actuation lag of
 *     Table 2 — if these disagree, either the SMBPBI model or the
 *     trace recorder is lying);
 *  2. re-runs the identical configuration and checks that the
 *     metrics dump and the exported Chrome JSON are byte-identical
 *     (determinism is what makes traces diffable across policy
 *     changes);
 *  3. renders the reactive-capping overshoot story as an ASCII
 *     timeline: row power sparkline from the telemetry readings,
 *     annotated with cap issues (C), brake engagements (B),
 *     fail-safe entries (F), and breaker trips (T).
 *
 * Exits non-zero when any check fails, so it doubles as an
 * integration test of the obs subsystem.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/control_plane_timeline
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/oversub_experiment.hh"
#include "faults/fault_plan.hh"
#include "obs/observability.hh"
#include "sim/logging.hh"

namespace {

using namespace polca;

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok)
        ++failures;
}

core::ExperimentConfig
makeConfig()
{
    core::ExperimentConfig config;
    config.row.baseServers = 24;
    config.row.addedServerFraction = 0.30;
    config.policy = core::PolicyConfig::polca();
    config.duration = sim::secondsToTicks(6 * 3600.0);
    config.seed = 42;
    config.topology.rowBreakerLimitFraction = 1.05;
    // A telemetry blackout makes the timeline interesting: the
    // manager goes blind mid-ramp and the watchdog's fail-safe
    // window shows up as an F mark.
    config.faultPlan = faults::scenarioByName(
        "blackout", config.duration, config.row.deployedServers());
    return config;
}

struct RunOutput
{
    core::ExperimentResult result;
    std::string metricsDump;
    std::string traceJson;
    std::vector<obs::TraceEvent> events;
};

RunOutput
runOnce()
{
    // Capacity sized so a 6 h run keeps every event (no ring
    // overwrite => run-to-run comparisons see the full trace).
    obs::Observability observability(1u << 18);
    observability.trace.setCategoryMask(obs::kAllTraceCategories);

    core::ExperimentConfig config = makeConfig();
    config.obs = &observability;

    RunOutput out;
    out.result = core::runOversubExperiment(config);

    std::ostringstream metrics;
    observability.metrics.dump(metrics);
    out.metricsDump = metrics.str();

    std::ostringstream json;
    observability.trace.exportChromeJson(json);
    out.traceJson = json.str();

    out.events = observability.trace.events();
    return out;
}

} // namespace

int
main()
{
    sim::setQuiet(true);
    core::ExperimentConfig config = makeConfig();

    std::printf("Running %s, %d+%.0f%% servers, %.1f h, seed %llu "
                "(blackout scenario)...\n\n",
                config.policy.name.c_str(), config.row.baseServers,
                config.row.addedServerFraction * 100.0,
                sim::ticksToSeconds(config.duration) / 3600.0,
                static_cast<unsigned long long>(config.seed));
    RunOutput first = runOnce();

    // --- Check 1: cap-apply latency matches the configured OOB
    // command latency, span by span. -------------------------------
    std::printf("Check 1: cap_issue spans vs configured OOB "
                "latency (%.0f s)\n",
                sim::ticksToSeconds(config.manager.oobCommandLatency));
    std::size_t capSpans = 0;
    std::size_t mismatched = 0;
    for (const obs::TraceEvent &e : first.events) {
        if (std::strcmp(e.name, "cap_issue") != 0)
            continue;
        ++capSpans;
        if (e.duration != config.manager.oobCommandLatency)
            ++mismatched;
    }
    std::printf("  %zu cap_issue spans, %zu mismatched\n", capSpans,
                mismatched);
    check(capSpans > 0, "at least one cap_issue span recorded");
    check(mismatched == 0,
          "every span duration equals the configured latency");

    // --- Check 2: same seed => byte-identical exports. -------------
    std::printf("\nCheck 2: determinism across two identical runs\n");
    RunOutput second = runOnce();
    check(first.metricsDump == second.metricsDump,
          "metrics dumps byte-identical");
    check(first.traceJson == second.traceJson,
          "Chrome JSON exports byte-identical");

    // --- Timeline: power sparkline + control-plane marks. ----------
    constexpr std::size_t kColumns = 72;
    double columnTicks =
        static_cast<double>(config.duration) / kColumns;
    std::vector<double> peakWatts(kColumns, 0.0);
    std::string marks(kColumns, ' ');
    auto column = [&](sim::Tick t) {
        auto c = static_cast<std::size_t>(
            static_cast<double>(t) / columnTicks);
        return std::min(c, kColumns - 1);
    };
    // Later marks overwrite earlier ones within a column; rank the
    // passes so the rarest, most important events win.
    for (const obs::TraceEvent &e : first.events) {
        if (std::strcmp(e.name, "row_reading") == 0) {
            std::size_t c = column(e.start);
            peakWatts[c] = std::max(peakWatts[c], e.value);
        }
    }
    for (const obs::TraceEvent &e : first.events) {
        if (std::strcmp(e.name, "cap_issue") == 0)
            marks[column(e.start)] = 'C';
    }
    for (const obs::TraceEvent &e : first.events) {
        if (std::strcmp(e.name, "brake_engage") == 0)
            marks[column(e.start)] = 'B';
    }
    for (const obs::TraceEvent &e : first.events) {
        if (std::strcmp(e.name, "failsafe_enter") == 0)
            marks[column(e.start)] = 'F';
    }
    for (const obs::TraceEvent &e : first.events) {
        if (std::strcmp(e.name, "breaker_trip") == 0)
            marks[column(e.start)] = 'T';
    }

    double maxWatts =
        *std::max_element(peakWatts.begin(), peakWatts.end());
    const char levels[] = " .:-=+*#%@";
    std::string spark(kColumns, ' ');
    for (std::size_t c = 0; c < kColumns; ++c) {
        if (maxWatts <= 0.0)
            continue;
        auto level = static_cast<std::size_t>(
            peakWatts[c] / maxWatts * 9.0 + 0.5);
        spark[c] = levels[std::min<std::size_t>(level, 9)];
    }

    std::printf("\nTimeline (%.1f h, %.0f min/column; peak %.0f kW)\n",
                sim::ticksToSeconds(config.duration) / 3600.0,
                sim::ticksToSeconds(
                    static_cast<sim::Tick>(columnTicks)) / 60.0,
                maxWatts / 1000.0);
    std::printf("  power |%s|\n", spark.c_str());
    std::printf("  marks |%s|\n", marks.c_str());
    std::printf("  C cap issued   B brake engaged   F fail-safe "
                "entry   T breaker trip\n");

    std::printf("\nRun summary: %llu cap / %llu uncap commands, "
                "%llu brake events, %llu fail-safe entries, "
                "%llu breaker trips\n",
                static_cast<unsigned long long>(
                    first.result.capCommands),
                static_cast<unsigned long long>(
                    first.result.uncapCommands),
                static_cast<unsigned long long>(
                    first.result.powerBrakeEvents),
                static_cast<unsigned long long>(
                    first.result.failSafeEntries),
                static_cast<unsigned long long>(
                    first.result.breakerTrips));

    std::printf("\n%s\n",
                failures == 0 ? "All checks passed."
                              : "CHECKS FAILED");
    return failures == 0 ? 0 : 1;
}
