/**
 * @file
 * Capacity planner: the operator-facing use case. Given a row's
 * power budget and the Table 6 SLOs, sweep oversubscription levels
 * and report the largest safe one — plus what each level buys.
 *
 * Usage:
 *   capacity_planner [baseServers] [simulatedHours]
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "analysis/table.hh"
#include "core/oversub_experiment.hh"
#include "sim/logging.hh"

int
main(int argc, char **argv)
{
    using namespace polca;
    using namespace polca::core;
    sim::setQuiet(true);

    int baseServers = argc > 1 ? std::atoi(argv[1]) : 40;
    double hours = argc > 2 ? std::atof(argv[2]) : 12.0;

    std::printf("Capacity plan for a %d-server row "
                "(budget %.0f kW, BLOOM-176B, POLCA 80/89)\n\n",
                baseServers, baseServers * 4950.0 / 1000.0);

    workload::SloSpec slos = workload::paperSlos();
    analysis::Table table({"Added servers", "Deployed", "Brakes",
                           "Peak util", "HP p99", "LP p99",
                           "Verdict"});

    double best = 0.0;
    int extra = 0;
    for (double added : {0.0, 0.10, 0.20, 0.25, 0.30, 0.35, 0.40}) {
        ExperimentConfig config;
        config.row.baseServers = baseServers;
        config.row.addedServerFraction = added;
        config.duration = sim::secondsToTicks(hours * 3600.0);
        config.seed = 42;

        ExperimentResult managed = runOversubExperiment(config);
        ExperimentResult baseline =
            runOversubExperiment(unthrottledBaseline(config));
        NormalizedLatency low =
            normalizeLatency(managed.low, baseline.low);
        NormalizedLatency high =
            normalizeLatency(managed.high, baseline.high);
        bool ok =
            meetsSlos(low, high, managed.powerBrakeEvents, slos);
        int deployed = config.row.deployedServers();
        if (ok) {
            best = added;
            extra = deployed - baseServers;
        }

        table.row()
            .percentCell(added, 0)
            .cell(static_cast<long long>(deployed))
            .cell(static_cast<long long>(managed.powerBrakeEvents))
            .percentCell(managed.maxUtilization)
            .cell(high.p99, 3)
            .cell(low.p99, 3)
            .cell(ok ? "SAFE" : "violates SLOs");
    }
    table.print(std::cout);

    std::printf("\nRecommendation: deploy %d extra servers (+%.0f%%) "
                "under the existing %.0f kW budget.\n", extra,
                best * 100.0, baseServers * 4950.0 / 1000.0);
    std::printf("That is %d additional BLOOM-176B endpoints with "
                "zero new datacenter build-out.\n", extra);
    return 0;
}
