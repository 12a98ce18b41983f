/**
 * @file
 * Figure 14: normalized server throughput per priority as servers
 * are added under the chosen POLCA configuration (T1=80%, T2=89%).
 */

#include "analysis/table.hh"
#include "bench_common.hh"
#include "core/oversub_experiment.hh"

#include <iostream>

using namespace polca;
using namespace polca::core;

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseArgs(
        argc, argv, "Reproduces Fig 14: server throughput");
    bench::banner(
        "Figure 14 -- Server throughput under POLCA",
        "High-priority throughput unaffected; low-priority sees a "
        "minor < 2% decline at +30%");

    analysis::Table table({"Added", "LP throughput (norm.)",
                           "HP throughput (norm.)",
                           "LP completions", "HP completions"});

    // The headline comparison reads the loop's +30 % row.
    double headlineLp = 0.0, headlineHp = 0.0;
    for (double added : {0.0, 0.10, 0.20, 0.30, 0.40}) {
        ExperimentConfig config;
        config.row.addedServerFraction = added;
        config.duration = options.horizon(1.0, 7.0);
        config.seed = options.seed;
        ExperimentResult managed = runOversubExperiment(config);
        ExperimentResult base =
            runOversubExperiment(unthrottledBaseline(config));
        double lp = managed.lowThroughput / base.lowThroughput;
        double hp = managed.highThroughput / base.highThroughput;
        if (added == 0.30) {
            headlineLp = lp;
            headlineHp = hp;
        }

        table.row()
            .percentCell(added, 0)
            .cell(lp, 4)
            .cell(hp, 4)
            .cell(static_cast<long long>(managed.lowCompletions))
            .cell(static_cast<long long>(managed.highCompletions));
    }
    table.print(std::cout);

    std::printf("\n");
    bench::compare("LP throughput at +30%", ">= 0.98", headlineLp);
    bench::compare("HP throughput at +30%", "~1.00", headlineHp);
    return 0;
}
