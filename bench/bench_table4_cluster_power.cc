/**
 * @file
 * Table 4: LLM cluster power usage "in production" — training vs
 * inference peak utilization, swing pattern, and max power spikes
 * within the 2 s telemetry and 40 s OOB-capping windows.
 */

#include "analysis/table.hh"
#include "bench_common.hh"
#include "cluster/topology.hh"
#include "cluster/training_cluster.hh"
#include "llm/training_model.hh"
#include "workload/trace_gen.hh"

#include <iostream>

using namespace polca;

namespace {

struct ClusterStats
{
    double peakUtilization;
    double spike2s;
    double spike40s;
};

ClusterStats
trainingCluster(const bench::BenchOptions &options)
{
    // Production-scale training jobs run much longer iterations
    // than our 8-GPU fine-tuning runs (Section 3.4 validates
    // server-level shapes against cluster data, not durations):
    // scale the GPT-NeoX waveform to a 10.5 s iteration so the
    // synchronization trough spans the 2 s telemetry window.
    llm::TrainingSpec spec =
        llm::TrainingSpec::forModel("GPT-NeoX-20B");
    spec.iterationPeriod = sim::secondsToTicks(10.5);
    llm::TrainingModel model(spec);
    cluster::TrainingClusterOptions tc;
    tc.numServers = 40;
    tc.duration = options.horizon(0.05, 0.5);
    tc.sampleInterval = sim::secondsToTicks(2);
    tc.phaseJitterFraction = 0.08;
    tc.seed = options.seed;
    sim::TimeSeries series = cluster::trainingClusterPower(
        model, power::ServerSpec::dgxA100_40gb(), tc);

    // Training rows are provisioned for peak.
    double provisioned = 40 * 5850.0;
    return {series.maxValue() / provisioned,
            series.maxRiseWithin(sim::secondsToTicks(2)) / provisioned,
            series.maxRiseWithin(sim::secondsToTicks(40)) /
                provisioned};
}

ClusterStats
inferenceCluster(const bench::BenchOptions &options)
{
    sim::Simulation sim(options.seed);
    cluster::RowConfig rowConfig;
    rowConfig.baseServers = 40;
    cluster::Site site(sim, rowConfig, sim.rng().fork(1),
                       /*recordSeries=*/true);
    cluster::Site::SiteRow &row = site.rows().front();

    workload::TraceGenerator generator;
    llm::PhaseModel phases(row.model);
    workload::TraceGenOptions traceOptions;
    traceOptions.duration = options.horizon(1.0, 7.0);
    traceOptions.numServers = row.domain->numServers();
    traceOptions.serviceSecondsPerRequest =
        generator.expectedServiceSeconds(phases);
    traceOptions.seed = options.seed;
    workload::Trace trace = generator.generate(traceOptions);
    row.dispatcher->injectTrace(trace);
    sim.runUntil(traceOptions.duration);

    const sim::TimeSeries &series = row.domain->manager()->series();
    double provisioned = row.domain->budgetWatts();
    return {series.maxValue() / provisioned,
            series.maxRiseWithin(sim::secondsToTicks(2)) / provisioned,
            series.maxRiseWithin(sim::secondsToTicks(40)) /
                provisioned};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseArgs(
        argc, argv, "Reproduces Table 4: cluster power usage");
    bench::banner(
        "Table 4 -- LLM cluster power usage in production",
        "Training: 97% peak util, 37.5% max 2s spike; inference: "
        "79% peak util, 9% max 2s spike, 11.8% max 40s spike");

    ClusterStats training = trainingCluster(options);
    ClusterStats inference = inferenceCluster(options);

    analysis::Table table({"Metric", "Training (paper)",
                           "Training (ours)", "Inference (paper)",
                           "Inference (ours)"});
    table.row()
        .cell("Peak power utilization")
        .cell("97%")
        .percentCell(training.peakUtilization)
        .cell("79%")
        .percentCell(inference.peakUtilization);
    table.row()
        .cell("Max power spike in 2s")
        .cell("37.5%")
        .percentCell(training.spike2s)
        .cell("9%")
        .percentCell(inference.spike2s);
    table.row()
        .cell("Max power spike in 40s")
        .cell("-")
        .percentCell(training.spike40s)
        .cell("11.8%")
        .percentCell(inference.spike40s);
    table.row()
        .cell("Power usage pattern")
        .cell("coordinated swings")
        .cell("every iteration")
        .cell("diurnal")
        .cell("diurnal + noise");
    table.print(std::cout);

    std::printf("\nInsight 9: despite similar *server* peaks, "
                "inference rows keep ~%d%% headroom where training "
                "keeps ~%d%%.\n",
                static_cast<int>(
                    (1.0 - inference.peakUtilization) * 100.0 + 0.5),
                static_cast<int>(
                    (1.0 - training.peakUtilization) * 100.0 + 0.5));
    return 0;
}
