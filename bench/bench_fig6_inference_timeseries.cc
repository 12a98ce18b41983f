/**
 * @file
 * Figure 6: GPU power time-series for the five inference models,
 * three identical requests each — spiky prompt phases, long stable
 * token phases.
 */

#include "analysis/ascii_chart.hh"
#include "analysis/table.hh"
#include "bench_common.hh"
#include "sim/stats.hh"
#include "llm/executor.hh"
#include "llm/phase_model.hh"
#include "llm/segments.hh"
#include "power/server_model.hh"

#include <iostream>

using namespace polca;

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseSeriesArgs(
        argc, argv,
        "Reproduces Fig 6: inference power time-series");
    bench::banner(
        "Figure 6 -- GPU power time-series for inference models",
        "Prompt spikes at/above TDP at each request start; token "
        "phases longer, stable, lower power (Insight 4)");

    llm::ModelCatalog catalog;
    analysis::Table table({"Model", "Peak (xTDP)", "Token level "
                           "(xTDP)", "Prompt (s)", "Token (s)"});
    std::vector<std::string> csvLabels;
    std::vector<sim::TimeSeries> csvSeries;

    for (const std::string &name : catalog.inferenceModelNames()) {
        const llm::ModelSpec &model = catalog.byName(name);
        llm::PhaseModel phases(model);
        llm::InferenceConfig config;
        config.inputTokens = 2048;
        config.outputTokens = 256;

        power::ServerModel server(power::ServerSpec::dgxA100_80gb());
        std::vector<std::size_t> gpus;
        for (int i = 0; i < model.inferenceGpus; ++i)
            gpus.push_back(static_cast<std::size_t>(i));
        llm::SegmentExecutor exec(server, gpus);

        auto segments = llm::inferenceSegments(phases, config);
        for (int request = 0; request < 3; ++request) {
            exec.run(segments);
            exec.idle(sim::msToTicks(500));
        }

        sim::TimeSeries normalized =
            exec.firstGpuPowerSeries().scaled(1.0 / 400.0);

        sim::Sampler sampler;
        for (const auto &p : normalized.points())
            sampler.add(p.value);

        table.row()
            .cell(name)
            .cell(normalized.maxValue(), 3)
            .cell(sampler.p50(), 3)
            .cell(sim::ticksToSeconds(phases.promptDuration(config)),
                  2)
            .cell(sim::ticksToSeconds(
                      phases.tokenPhaseDuration(config)), 2);

        analysis::ChartOptions chartOptions;
        chartOptions.title = "  " + name +
            " -- 3 requests, GPU power / TDP:";
        chartOptions.height = 9;
        chartOptions.width = 90;
        std::cout << analysis::asciiChart(normalized, chartOptions)
                  << "\n";

        csvLabels.push_back(name);
        csvSeries.push_back(normalized);
    }
    table.print(std::cout);

    std::vector<const sim::TimeSeries *> csvPointers;
    for (const auto &series : csvSeries)
        csvPointers.push_back(&series);
    bench::exportSeriesCsv(options, csvLabels, csvPointers);

    std::printf("\nPaper anchors: spikes recur at every request "
                "start; larger models draw more in both phases;\n"
                "token phases dominate request duration.\n");
    return 0;
}
