/** @file Unit tests for production/synthetic trace generation. */

#include <gtest/gtest.h>

#include "analysis/error_metrics.hh"
#include "llm/phase_model.hh"
#include "workload/trace_gen.hh"

using namespace polca::workload;
using namespace polca::sim;

namespace {

TraceGenOptions
shortOptions()
{
    TraceGenOptions options;
    options.duration = secondsToTicks(2 * 3600.0);
    options.numServers = 40;
    options.serviceSecondsPerRequest = 50.0;
    options.seed = 42;
    return options;
}

} // namespace

TEST(TraceGen, DeterministicPerSeed)
{
    TraceGenerator gen;
    Trace a = gen.generate(shortOptions());
    Trace b = gen.generate(shortOptions());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.requests()[i].arrival, b.requests()[i].arrival);
        EXPECT_EQ(a.requests()[i].inputTokens,
                  b.requests()[i].inputTokens);
    }
}

TEST(TraceGen, DifferentSeedsDiffer)
{
    TraceGenerator gen;
    TraceGenOptions options = shortOptions();
    Trace a = gen.generate(options);
    options.seed = 43;
    Trace b = gen.generate(options);
    EXPECT_NE(a.size(), b.size());
}

TEST(TraceGen, ArrivalRateMatchesOfferedLoad)
{
    // Over a full day the mean rate tracks the base utilization.
    TraceGenerator gen;
    TraceGenOptions options = shortOptions();
    options.duration = secondsToTicks(24 * 3600.0);
    Trace trace = gen.generate(options);
    double expected = 0.78 * 40 / 50.0;
    EXPECT_NEAR(trace.meanArrivalRate(), expected, expected * 0.10);
}

TEST(TraceGen, RateScalesWithServerCount)
{
    TraceGenerator gen;
    TraceGenOptions options = shortOptions();
    Trace base = gen.generate(options);
    options.numServers = 52;  // +30 %
    Trace scaled = gen.generate(options);
    double ratio = scaled.meanArrivalRate() / base.meanArrivalRate();
    EXPECT_NEAR(ratio, 1.3, 0.08);
}

TEST(TraceGen, MixFractionsRespected)
{
    TraceGenerator gen;
    Trace trace = gen.generate(shortOptions());
    ASSERT_GT(trace.size(), 1000u);
    std::vector<int> counts(3, 0);
    for (const auto &r : trace.requests())
        ++counts.at(r.workloadIndex);
    double n = static_cast<double>(trace.size());
    EXPECT_NEAR(counts[0] / n, 0.25, 0.03);  // Summarize
    EXPECT_NEAR(counts[1] / n, 0.25, 0.03);  // Search
    EXPECT_NEAR(counts[2] / n, 0.50, 0.03);  // Chat
}

TEST(TraceGen, PrioritiesFollowTable6)
{
    TraceGenerator gen;
    Trace trace = gen.generate(shortOptions());
    EXPECT_NEAR(trace.highPriorityFraction(), 0.5, 0.03);
    for (const auto &r : trace.requests()) {
        if (r.workloadIndex == 0) {
            EXPECT_EQ(r.priority, Priority::Low);     // Summarize
        } else if (r.workloadIndex == 1) {
            EXPECT_EQ(r.priority, Priority::High);    // Search
        }
    }
}

TEST(TraceGen, SizesWithinWorkloadRanges)
{
    TraceGenerator gen;
    auto mix = gen.mix();
    Trace trace = gen.generate(shortOptions());
    for (const auto &r : trace.requests()) {
        const WorkloadSpec &w = mix.at(r.workloadIndex);
        ASSERT_GE(r.inputTokens, w.promptMin);
        ASSERT_LE(r.inputTokens, w.promptMax);
        ASSERT_GE(r.outputTokens, w.outputMin);
        ASSERT_LE(r.outputTokens, w.outputMax);
    }
}

TEST(TraceGen, RegenerateMatchesBinnedRate)
{
    TraceGenerator gen;
    Trace production = gen.generate(shortOptions());
    Tick bin = secondsToTicks(60.0);
    Trace synthetic = gen.regenerate(production, bin, 99);

    auto refBins = production.binnedArrivals(bin);
    auto synBins = synthetic.binnedArrivals(bin);
    ASSERT_EQ(refBins.size(), synBins.size());
    for (std::size_t i = 0; i < refBins.size(); ++i)
        EXPECT_EQ(refBins[i], synBins[i]);
}

TEST(TraceGen, RegenerateRedrawsSizes)
{
    TraceGenerator gen;
    Trace production = gen.generate(shortOptions());
    Trace synthetic =
        gen.regenerate(production, secondsToTicks(60.0), 99);
    ASSERT_EQ(production.size(), synthetic.size());
    int identical = 0;
    for (std::size_t i = 0; i < production.size(); ++i) {
        identical += production.requests()[i].inputTokens ==
            synthetic.requests()[i].inputTokens;
    }
    // Sizes are redrawn, so near-total agreement would be a bug.
    EXPECT_LT(identical, static_cast<int>(production.size() / 10));
}

TEST(TraceGen, RegeneratePreservesOfferedTokenLoad)
{
    // The synthetic trace must offer the same token volume within a
    // few percent (what makes the MAPE <= 3 % possible).
    TraceGenerator gen;
    Trace production = gen.generate(shortOptions());
    Trace synthetic =
        gen.regenerate(production, secondsToTicks(60.0), 99);

    auto tokenSum = [](const Trace &t) {
        double total = 0.0;
        for (const auto &r : t.requests())
            total += r.outputTokens;
        return total;
    };
    double ratio = tokenSum(synthetic) / tokenSum(production);
    EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST(TraceGen, ExpectedServiceSecondsIsBloomScale)
{
    TraceGenerator gen;
    polca::llm::ModelCatalog catalog;
    polca::llm::PhaseModel phases(catalog.byName("BLOOM-176B"));
    double seconds = gen.expectedServiceSeconds(phases);
    // Mean mix output ~1 K tokens at ~48 ms/token plus prompt.
    EXPECT_GT(seconds, 30.0);
    EXPECT_LT(seconds, 80.0);
}

TEST(TraceGen, SearchRequestsOutlastSummarizeOnes)
{
    // Search generates the most output tokens, so a Search request
    // takes longer to serve than a Summarize request.
    polca::llm::ModelCatalog catalog;
    polca::llm::PhaseModel phases(catalog.byName("BLOOM-176B"));
    auto serviceSeconds = [&phases](WorkloadSpec only) {
        only.trafficFraction = 1.0;
        return TraceGenerator({only}).expectedServiceSeconds(phases);
    };
    std::vector<WorkloadSpec> mix = paperWorkloadMix();
    ASSERT_EQ(mix[0].name, "Summarize");
    ASSERT_EQ(mix[1].name, "Search");
    EXPECT_GT(serviceSeconds(mix[1]), serviceSeconds(mix[0]));
}

TEST(TraceGenDeath, InvalidOptionsFatal)
{
    TraceGenerator gen;
    TraceGenOptions options = shortOptions();
    options.numServers = 0;
    EXPECT_DEATH(gen.generate(options), "invalid options");
}

TEST(TraceGenDeath, BadMixFatal)
{
    std::vector<WorkloadSpec> mix = paperWorkloadMix();
    mix.pop_back();
    EXPECT_DEATH(TraceGenerator{mix}, "sum to");
}
