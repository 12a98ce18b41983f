/**
 * @file
 * Fault-scenario sweep: how does POLCA survive a hostile control
 * plane?
 *
 * Part 1 runs every canned fault scenario (telemetry blackout,
 * bursty Gilbert–Elliott reading loss, flaky sensors, a correlated
 * SMBPBI outage, server crashes) twice — with the safety watchdog
 * enabled and disabled — and prints survival metrics: breaker
 * trips, overdraw energy, fail-safe time, and dropped work.
 *
 * Part 2 is the spotlight: a telemetry blackout that begins while
 * load is still moderate and covers the rising edge of the traffic
 * ramp.  With the watchdog off, the manager freezes in its benign
 * pre-blackout state, row power climbs through the breaker's trip
 * limit with nobody watching, and the breaker opens.  With the
 * watchdog on, stale telemetry triggers fail-safe (deepest caps
 * plus the power brake over its dedicated hardware line) and the
 * breaker never trips.  Same seed, same trace — the only variable
 * is the watchdog.
 *
 * Part 2 is declared in scenarios/blackout_watchdog.toml — a
 * two-point [sweep] over manager.watchdog_enabled, read from the
 * source tree the example was built from — and executed here
 * through the scenario layer and core::SweepRunner, exactly as
 * `polcactl run --scenario-file` would.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/fault_scenarios
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "analysis/table.hh"
#include "config/scenario.hh"
#include "core/oversub_experiment.hh"
#include "core/sweep_runner.hh"
#include "faults/fault_plan.hh"
#include "sim/logging.hh"

namespace {

using namespace polca;

/** Part 1: every canned scenario, watchdog on and off. */
void
sweepScenarios()
{
    // Quickstart-level stress (+30% servers) with a tight breaker:
    // trip limit only 5% above the provisioned budget.
    core::ExperimentConfig base;
    base.row.baseServers = 24;
    base.row.addedServerFraction = 0.30;
    base.row.modelName = "BLOOM-176B";
    base.policy = core::PolicyConfig::polca();
    base.duration = sim::secondsToTicks(6 * 3600.0);
    base.seed = 42;
    base.topology.rowBreakerLimitFraction = 1.05;

    int numServers = base.row.deployedServers();

    std::printf("Part 1: sweeping %zu fault scenarios x {watchdog "
                "on, off} on a +30%% row\n(6 simulated hours "
                "each)...\n\n",
                faults::faultScenarios().size());

    analysis::Table table({"Scenario", "Watchdog", "Brk trips",
                           "Near", "Overdraw kJ", "Fail-safe s",
                           "Brakes", "Drop rd", "Corrupt",
                           "Crash (req)"});
    for (const faults::FaultScenario &scenario : faults::faultScenarios()) {
        for (bool watchdog : {true, false}) {
            core::ExperimentConfig config = base;
            config.faultPlan = faults::scenarioByName(
                scenario.name, config.duration, numServers);
            config.manager.watchdogEnabled = watchdog;

            core::ExperimentResult result =
                runOversubExperiment(config);
            table.row()
                .cell(scenario.name)
                .cell(watchdog ? "on" : "off")
                .cell(static_cast<long long>(result.breakerTrips))
                .cell(static_cast<long long>(result.breakerNearTrips))
                .cell(result.overdrawWattSeconds / 1000.0, 1)
                .cell(sim::ticksToSeconds(result.failSafeTicks), 0)
                .cell(static_cast<long long>(result.powerBrakeEvents))
                .cell(static_cast<long long>(result.droppedReadings))
                .cell(static_cast<long long>(
                    result.corruptedReadings))
                .cell(std::to_string(result.crashesInjected) + " (" +
                      std::to_string(result.droppedRequests) + ")");
        }
    }
    table.print(std::cout);
}

/**
 * Part 2: the blackout-on-the-rising-edge spotlight.
 *
 * The diurnal cycle is shaped so traffic ramps from ~63% to ~95%
 * busy across the run, with short-term noise turned down so the
 * crossing times are stable.  Telemetry goes dark at t = 5 min —
 * while row power is still below the first cap trigger, so the
 * frozen manager holds no caps at all — and stays dark for 3.5
 * hours, through the point where power crosses the breaker's trip
 * limit.
 */
int
spotlightBlackout()
{
    // The scenario file carries the whole setup: +50% servers under
    // a 1.05x breaker, a steep traffic ramp peaking at 95% busy
    // 4.5 h in, telemetry dark from t=5 min for 3.5 h, and a [sweep]
    // axis over manager.watchdog_enabled.
    const char *source = "scenarios/blackout_watchdog.toml";
    config::Diagnostics diag;
    std::string path = POLCA_SOURCE_DIR "/";
    path += source;
    config::ScenarioSet scenario =
        config::loadScenarioFile(path, {}, diag);
    if (!diag.ok()) {
        std::fprintf(stderr, "%s\n", diag.str().c_str());
        return 2;
    }

    std::printf("\nPart 2: spotlight — telemetry goes dark at "
                "t=5 min while the row is lightly\nloaded and "
                "uncapped, then stays dark for 3.5 h as traffic "
                "ramps through the\nbreaker limit "
                "(%zu sweep points from %s).\n\n",
                scenario.points.size(), source);

    std::vector<core::SweepPoint> points;
    for (const config::ResolvedScenario &point : scenario.points)
        points.push_back({point.label, point.config, ""});
    core::SweepOptions options;
    options.runBaseline = false;
    options.echoProgress = false;
    core::SweepRunner runner(std::move(points), options);
    const std::vector<core::SweepPointResult> &results = runner.run();

    analysis::Table table({"Watchdog", "Brk trips", "First trip s",
                           "Over-limit streak s", "Overdraw kJ",
                           "Fail-safe s", "Peak util"});
    std::uint64_t tripsOff = 0, tripsOn = 0;
    for (const core::SweepPointResult &point : results) {
        const core::ExperimentResult &result = point.result;
        bool watchdog =
            point.label.find("true") != std::string::npos;
        if (watchdog)
            tripsOn = result.breakerTrips;
        else
            tripsOff = result.breakerTrips;
        table.row()
            .cell(watchdog ? "on" : "off")
            .cell(static_cast<long long>(result.breakerTrips))
            .cell(result.firstBreakerTrip < 0
                      ? std::string("never")
                      : analysis::formatFixed(
                            sim::ticksToSeconds(
                                result.firstBreakerTrip), 0))
            .cell(sim::ticksToSeconds(result.longestOverLimitStreak),
                  0)
            .cell(result.overdrawWattSeconds / 1000.0, 1)
            .cell(sim::ticksToSeconds(result.failSafeTicks), 0)
            .percentCell(result.maxUtilization);
    }
    table.print(std::cout);

    bool contrast = tripsOff > 0 && tripsOn == 0;
    std::printf(
        "\n%s\n",
        contrast
            ? "Watchdog off: the frozen manager let the breaker "
              "trip.  Watchdog on: fail-safe\ncapped the row within "
              "one timeout and the breaker never opened."
            : "Unexpected: the watchdog contrast did not reproduce "
              "(tune the scenario).");
    return contrast ? 0 : 1;
}

} // namespace

int
main()
{
    sim::setQuiet(true);
    sweepScenarios();
    return spotlightBlackout();
}
