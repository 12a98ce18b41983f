/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate: the
 * event kernel, the GPU power model, and an end-to-end simulated
 * cluster-hour, so performance regressions in the simulator itself
 * are visible.
 */

#include <benchmark/benchmark.h>

#include <tuple>
#include <utility>
#include <vector>

#include "core/oversub_experiment.hh"
#include "core/sweep_runner.hh"
#include "llm/phase_model.hh"
#include "obs/observability.hh"
#include "power/gpu_power_model.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/timeseries.hh"

using namespace polca;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue queue;
        int fired = 0;
        for (int i = 0; i < state.range(0); ++i)
            std::ignore = queue.schedule((i * 7919) % 100000, [&] { ++fired; });
        queue.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

/** Fire-and-forget path: no handle to return. */
void
BM_EventQueuePostRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue queue;
        queue.reserve(static_cast<std::size_t>(state.range(0)));
        int fired = 0;
        for (int i = 0; i < state.range(0); ++i)
            queue.post((i * 7919) % 100000, [&] { ++fired; });
        queue.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueuePostRun)->Arg(1000)->Arg(100000);

void
BM_GpuPowerEvaluation(benchmark::State &state)
{
    power::GpuPowerModel gpu(power::GpuSpec::a100_80gb());
    gpu.setActivity({0.8, 0.6});
    gpu.lockClock(1200.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gpu.powerWatts());
    }
}
BENCHMARK(BM_GpuPowerEvaluation);

void
BM_CapControllerStep(benchmark::State &state)
{
    power::GpuPowerModel gpu(power::GpuSpec::a100_80gb());
    gpu.setActivity({1.05, 0.5});
    gpu.setPowerCap(325.0);
    for (auto _ : state) {
        gpu.stepCapController();
        benchmark::DoNotOptimize(gpu.effectiveClockMhz());
    }
}
BENCHMARK(BM_CapControllerStep);

void
BM_PhaseModelLatency(benchmark::State &state)
{
    llm::ModelCatalog catalog;
    llm::PhaseModel phases(catalog.byName("BLOOM-176B"));
    llm::InferenceConfig config;
    config.inputTokens = 2048;
    config.outputTokens = 512;
    for (auto _ : state) {
        benchmark::DoNotOptimize(phases.totalLatency(config));
    }
}
BENCHMARK(BM_PhaseModelLatency);

void
BM_TimeSeriesMaxRise(benchmark::State &state)
{
    sim::TimeSeries series;
    for (int i = 0; i < state.range(0); ++i) {
        series.add(i * 1000,
                   static_cast<double>((i * 2654435761u) % 1000));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            series.maxRiseWithin(sim::secondsToTicks(2)));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TimeSeriesMaxRise)->Arg(100000);

void
BM_ClusterHourEndToEnd(benchmark::State &state)
{
    sim::setQuiet(true);
    for (auto _ : state) {
        core::ExperimentConfig config;
        config.row.baseServers = static_cast<int>(state.range(0));
        config.row.addedServerFraction = 0.30;
        config.duration = sim::secondsToTicks(3600.0);
        config.seed = 9;
        core::ExperimentResult result =
            runOversubExperiment(config);
        benchmark::DoNotOptimize(result.lowCompletions);
    }
}
BENCHMARK(BM_ClusterHourEndToEnd)->Arg(10)->Arg(40)
    ->Unit(benchmark::kMillisecond);

/**
 * Same cluster-hour with a metrics sink attached and interval stats
 * snapshotting every simulated 60 s.  CI compares this against
 * BM_ClusterHourEndToEnd with a 2 % bench_compare threshold: the
 * observability pipeline must stay effectively free.
 */
void
BM_ClusterHourEndToEndIntervalStats(benchmark::State &state)
{
    sim::setQuiet(true);
    for (auto _ : state) {
        obs::Observability sink;
        core::ExperimentConfig config;
        config.row.baseServers = static_cast<int>(state.range(0));
        config.row.addedServerFraction = 0.30;
        config.duration = sim::secondsToTicks(3600.0);
        config.seed = 9;
        config.obs = &sink;
        config.obsOptions.metricsInterval = sim::secondsToTicks(60.0);
        core::ExperimentResult result =
            runOversubExperiment(config);
        benchmark::DoNotOptimize(result.lowCompletions);
        benchmark::DoNotOptimize(sink.interval.rows());
    }
}
BENCHMARK(BM_ClusterHourEndToEndIntervalStats)->Arg(10)->Arg(40)
    ->Unit(benchmark::kMillisecond);

/**
 * Site-mode end to end: a heterogeneous power-domain tree
 * (range(0) rows per group x two groups, 20 servers per row) for a
 * simulated 10 minutes.  Exercises the per-rack/row/site rollup
 * managers and breakers on top of the serving cells; CI gates it
 * with bench_compare like the flat cluster-hour run.
 */
void
BM_SiteEndToEnd(benchmark::State &state)
{
    sim::setQuiet(true);
    for (auto _ : state) {
        core::ExperimentConfig config;
        config.duration = sim::secondsToTicks(600.0);
        config.seed = 9;
        config.topology.enabled = true;
        config.topology.rowBudgetFraction = 0.9;
        cluster::TopologyRowGroup a100;
        a100.name = "a100";
        a100.rows = static_cast<int>(state.range(0));
        a100.racksPerRow = 2;
        a100.serversPerRack = 10;
        config.topology.groups.push_back(a100);
        cluster::TopologyRowGroup h100;
        h100.name = "h100";
        h100.rows = static_cast<int>(state.range(0));
        h100.racksPerRow = 2;
        h100.serversPerRack = 10;
        h100.server = "DGX-H100";
        h100.model = "Llama2-70B";
        config.topology.groups.push_back(h100);
        core::ExperimentResult result =
            runOversubExperiment(config);
        benchmark::DoNotOptimize(result.lowCompletions);
        benchmark::DoNotOptimize(result.domains.size());
    }
}
BENCHMARK(BM_SiteEndToEnd)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * Merged-cursor grid summation across range(0) server-power series
 * of 10k samples each (the hot loop behind every per-domain rollup
 * in the results pipeline).  SetItemsProcessed reports
 * series x samples so items/s stays comparable across Arg values.
 */
void
BM_SumOnGrid(benchmark::State &state)
{
    const int count = static_cast<int>(state.range(0));
    const int samples = 10000;
    std::vector<sim::TimeSeries> series(
        static_cast<std::size_t>(count));
    std::vector<const sim::TimeSeries *> sources;
    for (int s = 0; s < count; ++s) {
        series[static_cast<std::size_t>(s)].reserve(samples);
        for (int i = 0; i < samples; ++i) {
            // Offset per series so sample times interleave off-grid.
            series[static_cast<std::size_t>(s)].add(
                i * 2000 + s * 7,
                static_cast<double>((i * 2654435761u + s) % 1000));
        }
        sources.push_back(&series[static_cast<std::size_t>(s)]);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::sumOnGrid(sources, 2000).size());
    }
    state.SetItemsProcessed(state.iterations() * count * samples);
}
BENCHMARK(BM_SumOnGrid)->Arg(8)->Arg(64);

/**
 * Checkpoint/branch sweep execution against full re-simulation: the
 * same two-point policy sweep plus its one shared baseline (the
 * points share a key), where all runs share a 3000 s warmup prefix
 * of a 3600 s horizon.  Arg(0) runs both points and the baseline
 * from scratch (3 x 3600 simulated seconds); Arg(1) simulates the
 * warmup once and forks the other managed run and the baseline from
 * the in-memory snapshot (3000 + 3 x 600).  The branched variant
 * must stay >= 2x faster; CI gates both rows via tools/bench_compare
 * against BENCH_simperf.json.
 */
void
BM_SweepBranchVsFull(benchmark::State &state)
{
    sim::setQuiet(true);
    const bool branch = state.range(0) == 1;
    auto makeConfig = [](core::PolicyConfig policy) {
        core::ExperimentConfig config;
        config.row.baseServers = 10;
        config.row.addedServerFraction = 0.30;
        config.duration = sim::secondsToTicks(3600.0);
        config.warmup = sim::secondsToTicks(3000.0);
        config.seed = 9;
        config.policy = std::move(policy);
        return config;
    };
    for (auto _ : state) {
        std::vector<core::SweepPoint> points;
        points.push_back(
            {"polca", makeConfig(core::PolicyConfig::polca()),
             "shared-warmup"});
        points.push_back(
            {"1tlp",
             makeConfig(core::PolicyConfig::oneThreshLowPri()),
             "shared-warmup"});
        core::SweepOptions options;
        options.runBaseline = true;
        options.echoProgress = false;
        options.branch = branch;
        core::SweepRunner runner(std::move(points), options);
        benchmark::DoNotOptimize(runner.run().size());
    }
}
BENCHMARK(BM_SweepBranchVsFull)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
