/**
 * @file
 * Section 6.4 methodology check: the synthetic request trace,
 * regenerated from only the binned arrival rate of the "production"
 * trace, must reproduce the production power time-series within a
 * 3% MAPE.
 */

#include "analysis/error_metrics.hh"
#include "analysis/table.hh"
#include "bench_common.hh"
#include "cluster/topology.hh"
#include "workload/trace_gen.hh"

#include <iostream>

using namespace polca;

namespace {

sim::TimeSeries
simulatePower(const workload::Trace &trace, std::uint64_t seed)
{
    sim::Simulation sim(seed);
    cluster::RowConfig rowConfig;
    rowConfig.baseServers = 40;
    cluster::Site site(sim, rowConfig, sim.rng().fork(1),
                       /*recordSeries=*/true);
    site.rows().front().dispatcher->injectTrace(trace);
    sim.runUntil(trace.duration());
    return site.root().manager()->series();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseArgs(
        argc, argv,
        "Validates the synthetic trace methodology (Section 6.4)");
    bench::banner(
        "Trace fidelity -- synthetic vs production power series",
        "MAPE between the synthetic and original power time-series "
        "is within 3%");

    workload::TraceGenerator generator;
    llm::PhaseModel phases(
        llm::ModelCatalog().byName("BLOOM-176B"));

    workload::TraceGenOptions traceOptions;
    traceOptions.duration = options.horizon(1.0, 42.0);
    traceOptions.numServers = 40;
    traceOptions.serviceSecondsPerRequest =
        generator.expectedServiceSeconds(phases);
    traceOptions.seed = options.seed;

    workload::Trace production = generator.generate(traceOptions);
    workload::Trace synthetic = generator.regenerate(
        production, sim::secondsToTicks(300), options.seed + 1);

    sim::TimeSeries productionPower =
        simulatePower(production, options.seed);
    sim::TimeSeries syntheticPower =
        simulatePower(synthetic, options.seed);

    // Compare 5-minute moving averages: instantaneous 2 s readings
    // of two stochastic runs differ by prompt-multiplexing noise
    // even for identical offered load.
    sim::TimeSeries productionAvg =
        productionPower.movingAverage(sim::secondsToTicks(300));
    sim::TimeSeries syntheticAvg =
        syntheticPower.movingAverage(sim::secondsToTicks(300));
    double mape5m = analysis::mape(productionAvg, syntheticAvg,
                                   sim::secondsToTicks(300));
    double mape1m = analysis::mape(productionAvg, syntheticAvg,
                                   sim::secondsToTicks(60));

    analysis::Table table({"Metric", "Production", "Synthetic"});
    table.row().cell("Requests")
        .cell(static_cast<long long>(production.size()))
        .cell(static_cast<long long>(synthetic.size()));
    table.row().cell("Mean arrival rate (req/s)")
        .cell(production.meanArrivalRate(), 4)
        .cell(synthetic.meanArrivalRate(), 4);
    table.row().cell("High-priority fraction")
        .percentCell(production.highPriorityFraction())
        .percentCell(synthetic.highPriorityFraction());
    table.row().cell("Mean power (W)")
        .cell(productionPower.meanValue(), 0)
        .cell(syntheticPower.meanValue(), 0);
    table.row().cell("Peak power (W)")
        .cell(productionPower.maxValue(), 0)
        .cell(syntheticPower.maxValue(), 0);
    table.print(std::cout);

    std::printf("\n");
    bench::compare("power MAPE (5 min avg)", "<= 3%",
                   mape5m * 100.0, "%");
    bench::compare("power MAPE (5 min avg, 1 min grid)", "<= ~3%",
                   mape1m * 100.0, "%");
    std::printf("\n%s\n", mape5m <= 0.03
                    ? "PASS: synthetic trace replicates production "
                      "power within the paper's 3% bound."
                    : "FAIL: MAPE above the paper's 3% bound.");
    return mape5m <= 0.03 ? 0 : 1;
}
