/**
 * @file
 * Quickstart: run the paper's headline experiment — a 40-server
 * BLOOM inference row oversubscribed by 30% under the POLCA policy —
 * from its declarative scenario file (scenarios/quickstart.toml, read
 * from the source tree the example was built from), and print the
 * headline metrics.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "config/scenario.hh"
#include "core/oversub_experiment.hh"
#include "sim/logging.hh"

int
main()
{
    using namespace polca;
    sim::setQuiet(true);

    // 1. One scenario file describes the whole experiment: the
    //    deployment, the policy, and the run parameters.  Resolution
    //    order is struct defaults < file < --set overrides < sweep.
    config::Diagnostics diag;
    config::ScenarioSet scenario = config::loadScenarioFile(
        POLCA_SOURCE_DIR "/scenarios/quickstart.toml", {}, diag);
    if (!diag.ok()) {
        std::fprintf(stderr, "%s\n", diag.str().c_str());
        return 2;
    }
    core::ExperimentConfig config =
        scenario.points.front().config;

    std::printf("Running POLCA on a +%.0f%% oversubscribed row "
                "(%.0f simulated days)...\n",
                config.row.addedServerFraction * 100.0,
                sim::ticksToSeconds(config.duration) / 86400.0);
    core::ExperimentResult result = runOversubExperiment(config);

    // 2. Compare against the same row without power management.
    core::ExperimentResult baseline =
        runOversubExperiment(core::unthrottledBaseline(config));
    core::NormalizedLatency low =
        core::normalizeLatency(result.low, baseline.low);
    core::NormalizedLatency high =
        core::normalizeLatency(result.high, baseline.high);

    std::printf("\nResults (+30%% servers under the original power "
                "budget):\n");
    std::printf("  power brake events ......... %llu (target: 0)\n",
                static_cast<unsigned long long>(
                    result.powerBrakeEvents));
    std::printf("  peak row utilization ....... %.1f%%\n",
                result.maxUtilization * 100.0);
    std::printf("  mean row utilization ....... %.1f%%\n",
                result.meanUtilization * 100.0);
    std::printf("  requests served ............ %llu\n",
                static_cast<unsigned long long>(
                    result.lowCompletions + result.highCompletions));
    std::printf("  high-pri p50 latency ....... %.3fx baseline "
                "(SLO < 1.01)\n", high.p50);
    std::printf("  high-pri p99 latency ....... %.3fx baseline "
                "(SLO < 1.05)\n", high.p99);
    std::printf("  low-pri p50 latency ........ %.3fx baseline "
                "(SLO < 1.05)\n", low.p50);
    std::printf("  low-pri p99 latency ........ %.3fx baseline "
                "(SLO < 1.50)\n", low.p99);
    std::printf("  capping commands ........... %llu cap / %llu "
                "uncap\n",
                static_cast<unsigned long long>(result.capCommands),
                static_cast<unsigned long long>(
                    result.uncapCommands));

    bool ok = core::meetsSlos(low, high, result.powerBrakeEvents,
                              workload::paperSlos());
    std::printf("\n%s\n",
                ok ? "All SLOs met: 30% more servers deployed with "
                     "no extra power budget."
                   : "SLO violation detected; try a smaller "
                     "oversubscription level.");
    return ok ? 0 : 1;
}
