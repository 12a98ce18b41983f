/**
 * @file
 * Queueing-theory property tests on the cluster: Little's-law
 * consistency, utilization-conservation, and latency monotonicity in
 * offered load — checks the event-driven serving path against
 * first-principles expectations.
 */

#include <gtest/gtest.h>

#include "cluster/topology.hh"
#include "llm/phase_model.hh"
#include "sim/simulation.hh"
#include "workload/trace_gen.hh"

using namespace polca;
using namespace polca::cluster;
using namespace polca::workload;
using namespace polca::sim;

namespace {

struct RunStats
{
    double meanLatencySeconds;
    double completionsPerSecond;
    double meanBusyFraction;
    std::uint64_t completions;
};

RunStats
serve(double utilization, std::uint64_t seed, int servers = 8,
      double hours = 3.0)
{
    Simulation sim(seed);
    RowConfig rowConfig;
    rowConfig.baseServers = servers;
    Site site(sim, rowConfig, sim.rng().fork(1));
    Site::SiteRow &row = site.rows().front();

    TraceGenerator generator;
    llm::PhaseModel phases(row.model);
    TraceGenOptions options;
    options.duration = secondsToTicks(hours * 3600.0);
    options.numServers = servers;
    options.serviceSecondsPerRequest =
        generator.expectedServiceSeconds(phases);
    options.seed = seed;
    options.diurnal.baseUtilization = utilization;
    options.diurnal.dailyAmplitude = 0.0;
    options.diurnal.weekendDip = 0.0;
    options.diurnal.noiseAmplitude = 0.0;
    Trace trace = generator.generate(options);
    row.dispatcher->injectTrace(trace);
    sim.runUntil(options.duration);

    RunStats stats;
    Sampler all;
    for (Priority p : {Priority::Low, Priority::High}) {
        for (double v :
             row.dispatcher->latencySeconds(p).values())
            all.add(v);
    }
    stats.completions =
        row.dispatcher->completions(Priority::Low) +
        row.dispatcher->completions(Priority::High);
    stats.meanLatencySeconds = all.mean();
    stats.completionsPerSecond =
        static_cast<double>(stats.completions) / (hours * 3600.0);

    Tick busy = 0;
    for (InferenceServer *server : row.domain->servers())
        busy += server->busyTicks();
    stats.meanBusyFraction = static_cast<double>(busy) /
        (static_cast<double>(servers) *
         static_cast<double>(options.duration));
    return stats;
}

} // namespace

TEST(Queueing, ServerBusyFractionMatchesOfferedLoad)
{
    // Utilization conservation: busy fraction ~= offered rho at
    // moderate load (no drops in this system).
    RunStats stats = serve(0.6, 11);
    EXPECT_NEAR(stats.meanBusyFraction, 0.6, 0.07);
}

TEST(Queueing, ThroughputMatchesOfferedRate)
{
    // All offered requests complete: lambda_out ~= lambda_in.
    RunStats stats = serve(0.6, 13);
    double expectedRate = 0.6 * 8 /
        TraceGenerator().expectedServiceSeconds(llm::PhaseModel(
            llm::ModelCatalog().byName("BLOOM-176B")));
    EXPECT_NEAR(stats.completionsPerSecond, expectedRate,
                expectedRate * 0.1);
}

TEST(Queueing, LatencyMonotonicInLoad)
{
    // Mean sojourn time must not decrease with offered load.
    double previous = 0.0;
    for (double utilization : {0.3, 0.6, 0.85}) {
        RunStats stats = serve(utilization, 17);
        EXPECT_GE(stats.meanLatencySeconds, previous * 0.98)
            << "at utilization " << utilization;
        previous = stats.meanLatencySeconds;
    }
}

TEST(Queueing, LowLoadLatencyIsPureServiceTime)
{
    // At 20 % load queueing is negligible: mean latency ~= mean
    // service time of the mix.
    RunStats stats = serve(0.2, 19);
    double service = TraceGenerator().expectedServiceSeconds(
        llm::PhaseModel(llm::ModelCatalog().byName("BLOOM-176B")));
    EXPECT_NEAR(stats.meanLatencySeconds, service, service * 0.15);
}

TEST(Queueing, HeavyLoadInflatesTail)
{
    // At 95 % offered load the system queues: mean latency well
    // above the service time.
    RunStats light = serve(0.3, 23);
    RunStats heavy = serve(0.95, 23);
    EXPECT_GT(heavy.meanLatencySeconds,
              light.meanLatencySeconds * 1.15);
}

TEST(Queueing, LittlesLawHolds)
{
    // L = lambda * W within tolerance: mean requests in system
    // equals completion rate x mean sojourn time.  Estimate L from
    // busy servers + queue occupancy via busyTicks (service only),
    // so compare against service-time portion: busy-servers =
    // lambda * E[service].
    RunStats stats = serve(0.7, 29);
    double service = TraceGenerator().expectedServiceSeconds(
        llm::PhaseModel(llm::ModelCatalog().byName("BLOOM-176B")));
    double busyServers = stats.meanBusyFraction * 8;
    EXPECT_NEAR(busyServers, stats.completionsPerSecond * service,
                busyServers * 0.12);
}
