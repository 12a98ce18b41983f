/**
 * @file
 * Figure 11: peak server power vs. peak GPU power (both normalized
 * to their TDP) across a production-like inference fleet.
 */

#include "analysis/correlation.hh"
#include "analysis/table.hh"
#include "bench_common.hh"
#include "cluster/topology.hh"
#include "workload/trace_gen.hh"

#include <algorithm>
#include <iostream>

using namespace polca;

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseArgs(
        argc, argv,
        "Reproduces Fig 11: server vs GPU peak power at fleet scale");
    bench::banner(
        "Figure 11 -- Server and GPU peak power normalized to TDP",
        "GPU ~60% of server power; peak GPU power exceeds aggregate "
        "GPU TDP (by up to ~500W); server/GPU peaks correlated");

    sim::Simulation sim(options.seed);
    cluster::RowConfig rowConfig;
    rowConfig.baseServers = 24;
    cluster::Site site(sim, rowConfig, sim.rng().fork(1));
    cluster::Site::SiteRow &row = site.rows().front();

    // Silicon/assembly variability across the fleet ("Not All GPUs
    // Are Created Equal"): per-server power scale ~N(1, 0.03).
    {
        sim::Rng variability = sim.rng().fork(2);
        for (cluster::InferenceServer *server : row.domain->servers()) {
            double scale = std::clamp(
                variability.normal(1.0, 0.03), 0.92, 1.10);
            server->setPowerScaleFactor(scale);
        }
    }

    workload::TraceGenerator generator;
    llm::PhaseModel phases(row.model);
    workload::TraceGenOptions traceOptions;
    traceOptions.duration = options.horizon(0.08, 1.0);
    traceOptions.numServers = row.domain->numServers();
    traceOptions.serviceSecondsPerRequest =
        generator.expectedServiceSeconds(phases);
    traceOptions.seed = options.seed;
    workload::Trace trace = generator.generate(traceOptions);
    row.dispatcher->injectTrace(trace);

    // Track per-server peaks with a periodic 1 s sampler.
    std::size_t n = static_cast<std::size_t>(row.domain->numServers());
    std::vector<double> serverPeak(n, 0.0), gpuPeak(n, 0.0);
    std::vector<double> gpuShareAtPeak(n, 0.0);
    auto servers = row.domain->servers();
    auto sampler = sim.every(sim::secondsToTicks(1), [&](sim::Tick) {
        for (std::size_t i = 0; i < n; ++i) {
            double server = servers[i]->powerWatts();
            double gpu = servers[i]->serverModel().gpuPowerWatts();
            gpuPeak[i] = std::max(gpuPeak[i], gpu);
            if (server > serverPeak[i]) {
                serverPeak[i] = server;
                gpuShareAtPeak[i] = gpu / server;
            }
        }
    });
    sim.runUntil(traceOptions.duration);

    double serverTdp = rowConfig.serverSpec.ratedPowerWatts;
    double gpuTdp = rowConfig.serverSpec.provisionedGpuWatts();

    analysis::Table table({"Server", "Peak server (xrated)",
                           "Peak GPU (xTDP)", "GPU share at peak"});
    std::vector<double> serverNorm, gpuNorm;
    double meanShare = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        serverNorm.push_back(serverPeak[i] / serverTdp);
        gpuNorm.push_back(gpuPeak[i] / gpuTdp);
        meanShare += gpuShareAtPeak[i];
        table.row()
            .cell(static_cast<long long>(i))
            .cell(serverPeak[i] / serverTdp, 3)
            .cell(gpuPeak[i] / gpuTdp, 3)
            .percentCell(gpuShareAtPeak[i]);
    }
    meanShare /= static_cast<double>(n);
    table.print(std::cout);

    std::printf("\n");
    bench::compare("corr(peak server, peak GPU)", "high (+)",
                   analysis::pearson(serverNorm, gpuNorm));
    bench::compare("mean GPU share of server power at peak", "~60%",
                   meanShare * 100.0, "%");
    double maxGpuExcess = 0.0;
    for (double g : gpuPeak)
        maxGpuExcess = std::max(maxGpuExcess, g - gpuTdp);
    bench::compare("max peak GPU power above aggregate TDP",
                   "up to ~500W", maxGpuExcess, " W");
    return 0;
}
