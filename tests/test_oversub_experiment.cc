/** @file Integration tests for the oversubscription harness. */

#include <gtest/gtest.h>

#include "cluster/allocator.hh"
#include "core/oversub_experiment.hh"
#include "llm/phase_model.hh"
#include "workload/trace_gen.hh"

using namespace polca::core;
using namespace polca::workload;
using namespace polca::sim;

namespace {

/** Small row / short horizon configuration for fast tests. */
ExperimentConfig
smallConfig(double added = 0.0)
{
    ExperimentConfig config;
    config.row.baseServers = 20;
    config.row.addedServerFraction = added;
    config.duration = secondsToTicks(2 * 3600.0);
    config.seed = 7;
    return config;
}

} // namespace

TEST(OversubExperiment, BaselineServesTrafficWithinBudget)
{
    ExperimentConfig config = unthrottledBaseline(smallConfig());
    ExperimentResult result = runOversubExperiment(config);
    EXPECT_GT(result.lowCompletions, 100u);
    EXPECT_GT(result.highCompletions, 100u);
    EXPECT_EQ(result.powerBrakeEvents, 0u);
    EXPECT_EQ(result.capCommands, 0u);
    // Default fleet: peak utilization around Table 4's 79 %.
    EXPECT_GT(result.maxUtilization, 0.65);
    EXPECT_LT(result.maxUtilization, 0.95);
}

TEST(OversubExperiment, EnergyAccounted)
{
    ExperimentResult result = runOversubExperiment(smallConfig());
    EXPECT_GT(result.energyKwh, 0.0);
    EXPECT_GT(result.energyPerRequestKj, 0.0);
    // Sanity scale: a 20-server row for 2 h at ~60-80 kW.
    EXPECT_GT(result.energyKwh, 80.0);
    EXPECT_LT(result.energyKwh, 250.0);
}

TEST(OversubExperiment, LatencyStatsAreOrdered)
{
    ExperimentResult result = runOversubExperiment(smallConfig());
    EXPECT_GT(result.low.p50, 0.0);
    EXPECT_LE(result.low.p50, result.low.p99);
    EXPECT_LE(result.low.p99, result.low.max);
    EXPECT_LE(result.high.p50, result.high.p99);
}

TEST(OversubExperiment, DeterministicPerSeed)
{
    ExperimentResult a = runOversubExperiment(smallConfig(0.2));
    ExperimentResult b = runOversubExperiment(smallConfig(0.2));
    EXPECT_EQ(a.lowCompletions, b.lowCompletions);
    EXPECT_DOUBLE_EQ(a.low.p99, b.low.p99);
    EXPECT_EQ(a.capCommands, b.capCommands);
}

TEST(OversubExperiment, TrafficScalesWithAddedServers)
{
    ExperimentResult base = runOversubExperiment(smallConfig(0.0));
    ExperimentResult more = runOversubExperiment(smallConfig(0.3));
    double baseArrivals =
        static_cast<double>(base.lowArrivals + base.highArrivals);
    double moreArrivals =
        static_cast<double>(more.lowArrivals + more.highArrivals);
    EXPECT_NEAR(moreArrivals / baseArrivals, 1.3, 0.1);
}

TEST(OversubExperiment, Polca30PercentRunsBrakeFree)
{
    // The headline result at test scale: +30 % servers under POLCA
    // completes with zero power brakes.
    ExperimentConfig config = smallConfig(0.3);
    ExperimentResult result = runOversubExperiment(config);
    EXPECT_EQ(result.powerBrakeEvents, 0u);
    EXPECT_LT(result.maxUtilization, 1.0);
}

TEST(OversubExperiment, OversubscriptionRaisesUtilization)
{
    ExperimentResult base = runOversubExperiment(smallConfig(0.0));
    ExperimentResult more = runOversubExperiment(smallConfig(0.3));
    EXPECT_GT(more.meanUtilization, base.meanUtilization * 1.15);
}

TEST(OversubExperiment, PolcaCapsAtHighOversubscription)
{
    ExperimentConfig config = smallConfig(0.35);
    ExperimentResult result = runOversubExperiment(config);
    // The T1/T2 machinery must actually engage at this level.
    EXPECT_GT(result.capCommands, 0u);
    EXPECT_GT(result.lpLockedTicks, 0);
}

TEST(OversubExperiment, NoCapBrakesAtExtremeOversubscription)
{
    ExperimentConfig config = smallConfig(0.6);
    config.policy = PolicyConfig::noCap();
    ExperimentResult result = runOversubExperiment(config);
    EXPECT_GT(result.powerBrakeEvents, 0u);
}

TEST(OversubExperiment, PolcaAvoidsBrakesWhereNoCapDoesNot)
{
    ExperimentConfig config = smallConfig(0.4);
    ExperimentResult polca = runOversubExperiment(config);
    config.policy = PolicyConfig::noCap();
    ExperimentResult nocap = runOversubExperiment(config);
    EXPECT_LE(polca.powerBrakeEvents, nocap.powerBrakeEvents);
}

TEST(OversubExperiment, NormalizedLatencyAgainstBaseline)
{
    ExperimentConfig config = smallConfig(0.3);
    ExperimentResult managed = runOversubExperiment(config);
    ExperimentResult baseline =
        runOversubExperiment(unthrottledBaseline(config));

    NormalizedLatency low =
        normalizeLatency(managed.low, baseline.low);
    NormalizedLatency high =
        normalizeLatency(managed.high, baseline.high);

    // Capping can only slow things down; HP stays nearly untouched.
    EXPECT_GE(low.p50, 0.99);
    EXPECT_GE(high.p50, 0.99);
    EXPECT_LT(high.p50, 1.02);
    EXPECT_LT(low.p99, 1.6);
}

TEST(OversubExperiment, RobustToTelemetryDropout)
{
    // A third of row readings silently lost: POLCA still manages
    // the +30% row without brakes (decisions just arrive a little
    // later on average).
    ExperimentConfig config = smallConfig(0.3);
    config.row.telemetryDropoutProbability = 0.33;
    ExperimentResult result = runOversubExperiment(config);
    EXPECT_EQ(result.powerBrakeEvents, 0u);
    EXPECT_GT(result.capCommands, 0u);
}

TEST(OversubExperiment, PowerScaleFactorRaisesUtilization)
{
    ExperimentConfig config = smallConfig(0.2);
    ExperimentResult base = runOversubExperiment(config);
    config.powerScaleFactor = 1.05;
    ExperimentResult scaled = runOversubExperiment(config);
    EXPECT_GT(scaled.meanUtilization, base.meanUtilization * 1.01);
}

TEST(OversubExperiment, RecordedRowSeriesSpansRun)
{
    ExperimentConfig config = smallConfig();
    config.recordRowSeries = true;
    config.duration = secondsToTicks(600.0);
    ExperimentResult result = runOversubExperiment(config);
    ASSERT_FALSE(result.rowPowerSeries.empty());
    EXPECT_NEAR(
        ticksToSeconds(result.rowPowerSeries.endTime()), 600.0, 4.0);
}

TEST(OversubExperiment, ExternalTraceHonored)
{
    Trace trace(secondsToTicks(600.0));
    Request r;
    r.arrival = secondsToTicks(1.0);
    r.priority = Priority::High;
    r.inputTokens = 1024;
    r.outputTokens = 64;
    trace.add(r);

    ExperimentConfig config = smallConfig();
    config.duration = secondsToTicks(600.0);
    config.externalTrace = &trace;
    ExperimentResult result = runOversubExperiment(config);
    EXPECT_EQ(result.highArrivals, 1u);
    EXPECT_EQ(result.lowArrivals, 0u);
    EXPECT_EQ(result.highCompletions, 1u);
}

namespace {

/** A short row serving a prompt-bound BLOOM-176B (prompt phase 10x
 *  slower, token phase 10x faster) under @p name.  It moves the
 *  low-priority share of the work, by which pool auto-balancing
 *  splits the servers, from 0.37 to 0.56. */
ExperimentConfig
tweakedModelConfig(const std::string &name)
{
    ExperimentConfig config;
    config.row.baseServers = 10;
    config.duration = secondsToTicks(900);
    config.seed = 3;
    polca::llm::ModelSpec spec =
        polca::llm::ModelCatalog().byName("BLOOM-176B");
    spec.promptMsPerKtoken *= 10.0;
    spec.tokenTimeMs *= 0.1;
    spec.name = name;
    config.row.modelName = name;
    config.row.modelOverride = spec;
    return config;
}

bool
sameOutcome(const ExperimentResult &a, const ExperimentResult &b)
{
    return a.lowCompletions == b.lowCompletions &&
        a.highCompletions == b.highCompletions &&
        a.low.p50 == b.low.p50 && a.low.p99 == b.low.p99 &&
        a.high.p50 == b.high.p50 && a.high.p99 == b.high.p99 &&
        a.energyKwh == b.energyKwh;
}

} // namespace

TEST(OversubExperiment, RenamedModelOverrideRuns)
{
    // A [model] section that renames its preset is not a catalog
    // entry; pool auto-balancing must read the override.
    ExperimentResult result =
        runOversubExperiment(tweakedModelConfig("BLOOM-tuned"));
    EXPECT_GT(result.lowCompletions, 0u);
    EXPECT_GT(result.highCompletions, 0u);
}

TEST(OversubExperiment, PoolsAreBalancedFromTheOverrideSpec)
{
    // The tweak keeps the catalog name, so a catalog lookup would
    // silently balance on the untweaked spec.
    ExperimentConfig tweaked = tweakedModelConfig("BLOOM-176B");
    TraceGenerator mix(tweaked.mix);
    double tweakedShare = mix.lowPriorityWorkShare(
        polca::llm::PhaseModel(*tweaked.row.modelOverride));
    double catalogShare = mix.lowPriorityWorkShare(polca::llm::PhaseModel(
        polca::llm::ModelCatalog().byName("BLOOM-176B")));
    int servers = tweaked.row.baseServers;
    ASSERT_NE(polca::cluster::allocatePriorities(servers, tweakedShare),
              polca::cluster::allocatePriorities(servers, catalogShare))
        << "the tweak must move the pool split to tell them apart";

    // Under a name the catalog lacks, the same tweak can only be
    // balanced on its override; both must run the same row.
    ExperimentResult renamed =
        runOversubExperiment(tweakedModelConfig("BLOOM-tuned"));
    EXPECT_TRUE(sameOutcome(runOversubExperiment(tweaked), renamed));
}

TEST(OversubExperiment, FlatRowReadsAtTheTopologyCadence)
{
    // [topology] telemetry_interval paces every manager, the flat
    // row's included: 600 s at 5 s is 120 readings, not 2 s's 300.
    ExperimentConfig config = smallConfig();
    config.duration = secondsToTicks(600.0);
    config.topology.telemetryInterval = secondsToTicks(5.0);
    polca::obs::Observability obs;
    config.obs = &obs;
    (void)runOversubExperiment(config);
    EXPECT_EQ(obs.metrics.counter("telemetry.readings_delivered").value(),
              120u);
}

namespace {

/** Twice the servers and no manager, monitored: the flat row runs
 *  past 1.25x its budget for minutes at a time. */
ExperimentConfig
overdrawConfig(double breakerFraction, double tripSeconds)
{
    ExperimentConfig config = smallConfig(1.0);
    config.managed = false;
    config.duration = secondsToTicks(3600.0);
    config.safety.monitor = true;
    config.topology.rowBreakerLimitFraction = breakerFraction;
    config.topology.breakerTripDuration = secondsToTicks(tripSeconds);
    return config;
}

double
rowBudget(const ExperimentConfig &config)
{
    return config.row.baseServers * config.row.provisionedPerServerWatts;
}

/** The trip envelope limits the row's SafetyMonitor reported. */
std::vector<double>
envelopeLimits(const ExperimentResult &result)
{
    std::vector<double> limits;
    for (const SafetyViolation &v : result.violations) {
        if (v.invariant == SafetyInvariant::BreakerEnvelope)
            limits.push_back(v.limit);
    }
    return limits;
}

} // namespace

TEST(OversubExperiment, FlatBreakerArmsFromTopologyRowKeys)
{
    ExperimentConfig config = overdrawConfig(1.05, 5.0);
    polca::obs::Observability obs;
    config.obs = &obs;
    ExperimentResult result = runOversubExperiment(config);
    EXPECT_TRUE(obs.metrics.has("breaker.trips"));
    EXPECT_GT(result.breakerTrips, 0u);
    EXPECT_GT(result.ticksAboveProvisioned, 0);
    // The monitor's envelope is the armed breaker's: 1.05x budget.
    std::vector<double> limits = envelopeLimits(result);
    ASSERT_FALSE(limits.empty());
    for (double limit : limits)
        EXPECT_EQ(limit, rowBudget(config) * 1.05);
}

TEST(OversubExperiment, FlatBreakerTripDurationFromTopology)
{
    // A thermal element slower than the run: the breaker accounts
    // the overdraw but never trips, and the monitor, whose grace is
    // the breaker's, reports no excursion.
    ExperimentResult result =
        runOversubExperiment(overdrawConfig(1.05, 7200.0));
    EXPECT_GT(result.ticksAboveProvisioned, 0);
    EXPECT_GT(result.longestOverLimitStreak, secondsToTicks(5.0));
    EXPECT_EQ(result.breakerTrips, 0u);
    EXPECT_TRUE(envelopeLimits(result).empty());
}

TEST(OversubExperiment, FlatBreakerFractionZeroArmsNone)
{
    ExperimentConfig config = overdrawConfig(0.0, 5.0);
    polca::obs::Observability obs;
    config.obs = &obs;
    ExperimentResult result = runOversubExperiment(config);
    EXPECT_FALSE(obs.metrics.has("breaker.trips"));
    EXPECT_EQ(result.breakerTrips, 0u);
    EXPECT_EQ(result.ticksAboveProvisioned, 0);
    EXPECT_EQ(result.firstBreakerTrip, -1);
    // No breaker: the monitor checks the NEC-style default envelope.
    std::vector<double> limits = envelopeLimits(result);
    ASSERT_FALSE(limits.empty());
    for (double limit : limits)
        EXPECT_EQ(limit, rowBudget(config) / 0.8);
}

TEST(NormalizeLatency, RatiosAndDegenerateCases)
{
    LatencyStats value{2.0, 4.0, 8.0, 10};
    LatencyStats base{1.0, 2.0, 4.0, 10};
    NormalizedLatency n = normalizeLatency(value, base);
    EXPECT_DOUBLE_EQ(n.p50, 2.0);
    EXPECT_DOUBLE_EQ(n.p99, 2.0);
    EXPECT_DOUBLE_EQ(n.max, 2.0);

    LatencyStats empty;
    NormalizedLatency d = normalizeLatency(value, empty);
    EXPECT_DOUBLE_EQ(d.p50, 1.0);  // degenerate -> neutral
}

/**
 * Seed sweep: the headline +30% brake-free result must not hinge on
 * one lucky random stream.
 */
class HeadlineSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HeadlineSeeds, ThirtyPercentBrakeFree)
{
    // Paper-scale row (40 base servers) over a full diurnal cycle:
    // the 20-server test fixture has relatively larger spikes and is
    // not what the +30% result is calibrated for.
    ExperimentConfig config;
    config.row.baseServers = 40;
    config.row.addedServerFraction = 0.30;
    config.duration = secondsToTicks(24 * 3600.0);
    config.seed = GetParam();
    ExperimentResult result = runOversubExperiment(config);
    EXPECT_EQ(result.powerBrakeEvents, 0u)
        << "seed " << GetParam();
    EXPECT_LT(result.maxUtilization, 1.0) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeadlineSeeds,
                         ::testing::Values(11u, 42u, 123u));

TEST(MeetsSlos, Table6Boundaries)
{
    SloSpec slos = paperSlos();
    NormalizedLatency okLow{1.04, 1.40, 2.0};
    NormalizedLatency okHigh{1.005, 1.04, 1.5};
    EXPECT_TRUE(meetsSlos(okLow, okHigh, 0, slos));
    EXPECT_FALSE(meetsSlos(okLow, okHigh, 1, slos));  // brake

    NormalizedLatency badLow{1.06, 1.40, 2.0};  // LP p50 > 5 %
    EXPECT_FALSE(meetsSlos(badLow, okHigh, 0, slos));

    NormalizedLatency badHigh{1.02, 1.04, 1.5};  // HP p50 > 1 %
    EXPECT_FALSE(meetsSlos(okLow, badHigh, 0, slos));
}
