/**
 * @file
 * Extension study (Section 5.2): phase-splitting vs. combined
 * serving.  Same GPU count, same offered trace; compares the power
 * profile (peak, p99, flatness) and end-to-end latency of
 * (a) a combined fleet where every server runs both phases, and
 * (b) a split fleet with a small full-clock prompt pool feeding a
 *     large frequency-locked token pool.
 */

#include "analysis/table.hh"
#include "bench_common.hh"
#include "cluster/phase_split.hh"
#include "cluster/topology.hh"
#include "sim/stats.hh"
#include "workload/trace_gen.hh"

#include <iostream>

using namespace polca;

namespace {

struct Profile
{
    double peakWatts;
    double p99Watts;
    double meanWatts;
    double latencyP50;
    double latencyP99;
    std::uint64_t completions;
};

workload::Trace
makeTrace(const bench::BenchOptions &options, int servers)
{
    workload::TraceGenerator generator;
    llm::PhaseModel phases(
        llm::ModelCatalog().byName("BLOOM-176B"));
    workload::TraceGenOptions traceOptions;
    traceOptions.duration = options.horizon(0.25, 2.0);
    traceOptions.numServers = servers;
    traceOptions.serviceSecondsPerRequest =
        generator.expectedServiceSeconds(phases);
    traceOptions.seed = options.seed;
    workload::Trace raw = generator.generate(traceOptions);

    // Priorities are irrelevant to this study (no POLCA manager):
    // flatten to a single pool.
    workload::Trace trace(raw.duration());
    for (workload::Request r : raw.requests()) {
        r.priority = workload::Priority::Low;
        trace.add(r);
    }
    trace.setDuration(raw.duration());
    return trace;
}

Profile
runCombined(const bench::BenchOptions &options,
            const workload::Trace &trace, int servers)
{
    sim::Simulation sim(options.seed);
    cluster::RowConfig rowConfig;
    rowConfig.baseServers = servers;
    rowConfig.lpServerFraction = 1.0;  // one pool; no POLCA here
    cluster::Site site(sim, rowConfig, sim.rng().fork(1));
    cluster::Site::SiteRow &row = site.rows().front();

    sim::Sampler power;
    auto sampler = sim.every(sim::secondsToTicks(2), [&](sim::Tick) {
        power.add(row.domain->powerWatts());
    });
    row.dispatcher->injectTrace(trace);
    sim.runUntil(trace.duration());

    const sim::Sampler &latency =
        row.dispatcher->latencySeconds(workload::Priority::Low);
    return {power.max(), power.p99(), power.mean(), latency.p50(),
            latency.p99(),
            row.dispatcher->completions(workload::Priority::Low)};
}

Profile
runSplit(const bench::BenchOptions &options,
         const workload::Trace &trace, int promptServers,
         int tokenServers)
{
    sim::Simulation sim(options.seed);
    cluster::PhaseSplitConfig config;
    config.promptServers = promptServers;
    config.tokenServers = tokenServers;
    cluster::PhaseSplitCluster split(sim, config, sim.rng().fork(1));

    sim::Sampler power;
    auto sampler = sim.every(sim::secondsToTicks(2), [&](sim::Tick) {
        power.add(split.powerWatts());
    });
    split.injectTrace(trace);
    sim.runUntil(trace.duration());

    const sim::Sampler &latency = split.latencySeconds();
    return {power.max(), power.p99(), power.mean(), latency.p50(),
            latency.p99(), split.completions()};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseArgs(
        argc, argv,
        "Extension: phase-split serving vs combined (Section 5.2)");
    bench::banner(
        "Extension -- Phase-aware separation of prompt and token "
        "GPUs (Section 5.2 / Splitwise)",
        "Token-only machines can be frequency capped without hurting "
        "prompt latency; the fleet's power profile flattens");

    const int servers = 12;
    // Prompt work is a few percent of request time: 2 prompt + 10
    // token machines serve what 12 combined machines serve.
    workload::Trace trace = makeTrace(options, servers);

    Profile combined = runCombined(options, trace, servers);
    Profile split = runSplit(options, trace, 2, 10);
    // Token work is ~96 % of request time, so 10 locked token
    // machines run hotter than 12 combined ones; one extra token
    // server buys the latency back while staying below the combined
    // peak.
    Profile resized = runSplit(options, trace, 2, 11);

    analysis::Table table({"Deployment", "Peak power (kW)",
                           "p99 power (kW)", "Mean power (kW)",
                           "Latency p50 (s)", "Latency p99 (s)",
                           "Completions"});
    auto emit = [&](const char *label, const Profile &p) {
        table.row()
            .cell(label)
            .cell(p.peakWatts / 1000.0, 2)
            .cell(p.p99Watts / 1000.0, 2)
            .cell(p.meanWatts / 1000.0, 2)
            .cell(p.latencyP50, 1)
            .cell(p.latencyP99, 1)
            .cell(static_cast<long long>(p.completions));
    };
    emit("combined (12 servers)", combined);
    emit("split (2 prompt + 10 token @1110MHz)", split);
    emit("split resized (2 prompt + 11 token)", resized);
    table.print(std::cout);

    std::printf("\n");
    bench::compare("peak power: split vs combined", "< 1.0",
                   split.peakWatts / combined.peakWatts, "x");
    bench::compare("mean power: split vs combined", "< 1.0",
                   split.meanWatts / combined.meanWatts, "x");
    bench::compare("latency p50: split (same GPUs)", "> 1.0",
                   split.latencyP50 / combined.latencyP50, "x");
    bench::compare("latency p50: split resized (+1 server)",
                   "~1.0",
                   resized.latencyP50 / combined.latencyP50, "x");
    bench::compare("peak power: split resized vs combined", "< 1.0",
                   resized.peakWatts / combined.peakWatts, "x");
    std::printf("\nSection 5.2's promise: \"only power cap GPUs that "
                "run the token phases\" -- the split fleet's token\n"
                "machines never see prompt spikes, so the provisioned "
                "peak can be derated accordingly.\n");
    return 0;
}
