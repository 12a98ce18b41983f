/**
 * @file
 * Figures 17 and 18: POLCA's dual-threshold policy vs.
 * 1-Thresh-Low-Pri, 1-Thresh-All, and No-cap at +30%
 * oversubscription, with and without the +5% workload power
 * intensification.  Fig 17 compares normalized latencies; Fig 18
 * counts the power-brake events of the same runs.
 */

#include "analysis/ascii_chart.hh"
#include "analysis/table.hh"
#include "bench_common.hh"
#include "core/oversub_experiment.hh"

#include <array>
#include <cmath>
#include <iostream>

using namespace polca;
using namespace polca::core;

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseArgs(
        argc, argv,
        "Reproduces Figs 17 and 18: policy comparison and power "
        "brake event counts at +30%");
    bench::banner(
        "Figure 17 -- Policy comparison at 30% oversubscription "
        "(values normalized to the unthrottled baseline)",
        "1-Thresh-Low-Pri misses LP SLOs; 1-Thresh-All breaches both "
        "p99 SLOs; No-cap matches POLCA normally but is fragile "
        "under +5% power");

    const std::vector<std::pair<const char *, PolicyConfig>> policies{
        {"POLCA", PolicyConfig::polca()},
        {"1-Thresh-Low-Pri", PolicyConfig::oneThreshLowPri()},
        {"1-Thresh-All", PolicyConfig::oneThreshAll()},
        {"No-cap", PolicyConfig::noCap()},
    };
    const double powerScales[2] = {1.0, 1.05};

    workload::SloSpec slos = workload::paperSlos();
    // Brake events per policy, at default and +5% power (Fig 18).
    std::vector<std::array<std::uint64_t, 2>> brakes(policies.size());

    for (std::size_t s = 0; s < 2; ++s) {
        double powerScale = powerScales[s];
        std::printf("\n%s workload power\n",
                    powerScale == 1.0 ? "Default" : "+5%");

        ExperimentConfig base;
        base.row.addedServerFraction = 0.30;
        base.duration = options.horizon(2.0, 35.0);
        base.seed = options.seed;
        base.powerScaleFactor = powerScale;
        ExperimentResult baseline =
            runOversubExperiment(unthrottledBaseline(base));

        analysis::Table table({"Policy", "LP p50", "HP p50", "LP p99",
                               "HP p99", "LP max", "HP max",
                               "Brakes", "SLOs"});
        for (std::size_t p = 0; p < policies.size(); ++p) {
            ExperimentConfig config = base;
            config.policy = policies[p].second;
            ExperimentResult result = runOversubExperiment(config);
            brakes[p][s] = result.powerBrakeEvents;
            NormalizedLatency low =
                normalizeLatency(result.low, baseline.low);
            NormalizedLatency high =
                normalizeLatency(result.high, baseline.high);
            table.row()
                .cell(policies[p].first)
                .cell(low.p50, 3)
                .cell(high.p50, 3)
                .cell(low.p99, 3)
                .cell(high.p99, 3)
                .cell(low.max, 2)
                .cell(high.max, 2)
                .cell(static_cast<long long>(result.powerBrakeEvents))
                .cell(meetsSlos(low, high, result.powerBrakeEvents,
                                slos)
                          ? "yes" : "no");
        }
        table.print(std::cout);
    }

    std::printf("\nPaper conclusion: only POLCA meets all SLOs in "
                "both scenarios; it is the most robust to workload "
                "power drift.\n");

    bench::banner(
        "Figure 18 -- Power brake events per policy (+30% servers)",
        "POLCA: zero brakes normally and the fewest under +5% power; "
        "No-cap incurs orders of magnitude more");
    analysis::Table table({"Policy", "Brakes (default)",
                           "Brakes (+5% power)"});
    std::vector<std::string> labels;
    std::vector<double> logCounts;
    for (std::size_t p = 0; p < policies.size(); ++p) {
        std::string name = policies[p].first;
        table.row()
            .cell(name)
            .cell(static_cast<long long>(brakes[p][0]))
            .cell(static_cast<long long>(brakes[p][1]));
        for (std::size_t s = 0; s < 2; ++s) {
            labels.push_back(name + (s == 0 ? "" : "+5%"));
            logCounts.push_back(
                std::log10(1.0 + static_cast<double>(brakes[p][s])));
        }
    }
    table.print(std::cout);

    std::printf("\nlog10(1 + brake events):\n%s\n",
                analysis::asciiBars(labels, logCounts, 40).c_str());

    bench::compare("POLCA brakes (default)", "0",
                   static_cast<double>(brakes.front()[0]));
    bench::compare("No-cap brakes vs POLCA", ">> 0",
                   static_cast<double>(brakes.back()[0]));
    return 0;
}
