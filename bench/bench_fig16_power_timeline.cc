/**
 * @file
 * Figure 16: row-level power utilization over time, default fleet
 * vs. +30% servers, at 2 s and 5 min averaging.
 */

#include "analysis/ascii_chart.hh"
#include "analysis/table.hh"
#include "bench_common.hh"
#include "core/oversub_experiment.hh"

#include <iostream>

using namespace polca;
using namespace polca::core;

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseSeriesArgs(
        argc, argv,
        "Reproduces Fig 16: row power utilization timeline");
    bench::banner(
        "Figure 16 -- Row-level power utilization, default vs +30% "
        "servers",
        "+30% follows the same diurnal pattern at a higher offset; "
        "short-term spikes grow; peaks stay under the budget");

    auto run = [&](double added) {
        ExperimentConfig config;
        config.row.addedServerFraction = added;
        config.duration = options.horizon(2.0, 42.0);
        config.seed = options.seed;
        config.recordRowSeries = true;
        return runOversubExperiment(config);
    };

    ExperimentResult base = run(0.0);
    ExperimentResult more = run(0.30);

    double provisioned = 40 * 4950.0;
    sim::TimeSeries base2s = base.rowPowerSeries.scaled(
        1.0 / provisioned);
    sim::TimeSeries more2s = more.rowPowerSeries.scaled(
        1.0 / provisioned);
    sim::TimeSeries base5m =
        base2s.movingAverage(sim::secondsToTicks(300));
    sim::TimeSeries more5m =
        more2s.movingAverage(sim::secondsToTicks(300));

    analysis::ChartOptions chart;
    chart.title = "  Row power utilization (5 min avg):";
    chart.height = 14;
    chart.width = 100;
    std::cout << analysis::asciiChart({&base5m, &more5m},
                                      {"default", "+30% servers"},
                                      chart)
              << "\n";

    analysis::Table table({"Fleet", "Mean util", "Peak (2s)",
                           "Peak (5min)", "Max 2s spike", "Brakes"});
    auto emit = [&](const char *label, const ExperimentResult &r,
                    const sim::TimeSeries &s2, const sim::TimeSeries &s5) {
        table.row()
            .cell(label)
            .percentCell(r.meanUtilization)
            .percentCell(s2.maxValue())
            .percentCell(s5.maxValue())
            .percentCell(s2.maxRiseWithin(sim::secondsToTicks(2)))
            .cell(static_cast<long long>(r.powerBrakeEvents));
    };
    emit("default", base, base2s, base5m);
    emit("+30% servers", more, more2s, more5m);
    table.print(std::cout);

    bench::exportSeriesCsv(
        options,
        {"default_2s", "plus30_2s", "default_5min", "plus30_5min"},
        {&base2s, &more2s, &base5m, &more5m},
        sim::secondsToTicks(2));

    std::printf("\n");
    bench::compare("peak (2s) utilization at +30%", "< 100%",
                   more2s.maxValue() * 100.0, "%");
    bench::compare("spike growth (+30% vs default)", "> 1x",
                   more2s.maxRiseWithin(sim::secondsToTicks(2)) /
                       base2s.maxRiseWithin(sim::secondsToTicks(2)),
                   "x");
    return 0;
}
