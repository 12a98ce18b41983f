/** @file Unit tests for accumulators, samplers, and histograms. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/stats.hh"

using namespace polca::sim;

namespace {

/** The quantile of @p values from a sorted copy: the interpolation
 *  Sampler::quantile specifies, on indexed order statistics. */
double
sortedQuantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    auto lower = static_cast<std::size_t>(pos);
    double frac = pos - static_cast<double>(lower);
    if (lower + 1 >= values.size())
        return values.back();
    return values[lower] * (1.0 - frac) + values[lower + 1] * frac;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

} // namespace

TEST(Accumulator, EmptyDefaults)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
    EXPECT_TRUE(std::isinf(acc.min()));
    EXPECT_TRUE(std::isinf(acc.max()));
}

TEST(Accumulator, BasicMoments)
{
    Accumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(v);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, MergeEqualsCombinedStream)
{
    Accumulator a, b, all;
    for (int i = 0; i < 100; ++i) {
        double v = i * 0.37;
        (i % 2 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Accumulator, MergeWithEmpty)
{
    Accumulator a, empty;
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Accumulator, ResetClears)
{
    Accumulator acc;
    acc.add(1.0);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
}

TEST(Sampler, QuantilesOfKnownSequence)
{
    Sampler s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_NEAR(s.quantile(0.0), 1.0, 1e-12);
    EXPECT_NEAR(s.quantile(1.0), 100.0, 1e-12);
    EXPECT_NEAR(s.p50(), 50.5, 1e-12);
    EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-12);
}

TEST(Sampler, QuantileInterpolates)
{
    Sampler s;
    s.add(10.0);
    s.add(20.0);
    EXPECT_NEAR(s.quantile(0.5), 15.0, 1e-12);
    EXPECT_NEAR(s.quantile(0.75), 17.5, 1e-12);
}

TEST(Sampler, SingleValueAllQuantiles)
{
    Sampler s;
    s.add(7.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 7.0);
}

TEST(Sampler, AddAfterQuantileStillCorrect)
{
    Sampler s;
    s.add(3.0);
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.p50(), 2.0);
    s.add(2.0);  // after a query has reordered the store
    EXPECT_DOUBLE_EQ(s.p50(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

TEST(Sampler, SelectionMatchesSortedCopyBitwise)
{
    std::mt19937_64 gen(17);
    std::uniform_real_distribution<double> uniform(0.001, 50.0);
    const std::vector<double> forward = {0.0, 0.5, 0.99, 1.0};
    const std::vector<double> backward(forward.rbegin(), forward.rend());
    for (std::size_t n : {1u, 2u, 3u, 1000u}) {
        std::vector<double> values;
        for (std::size_t i = 0; i < n; ++i) {
            // Every third draw repeats an earlier value.
            values.push_back(i % 3 == 2 ? values[i / 2] : uniform(gen));
        }
        for (const auto *qs : {&forward, &backward}) {
            SCOPED_TRACE("n = " + std::to_string(n) +
                         (qs == &forward ? ", q ascending"
                                         : ", q descending"));
            Sampler s;
            for (double v : values)
                s.add(v);
            for (double q : *qs) {
                EXPECT_EQ(bits(s.quantile(q)),
                          bits(sortedQuantile(values, q)))
                    << "q = " << q;
            }
            // More samples after queries have reordered the store.
            std::vector<double> more = values;
            for (std::size_t i = 0; i < n; ++i) {
                double v = i % 2 ? values[i] : uniform(gen);
                s.add(v);
                more.push_back(v);
            }
            for (double q : *qs) {
                EXPECT_EQ(bits(s.quantile(q)),
                          bits(sortedQuantile(more, q)))
                    << "after add(), q = " << q;
            }
            EXPECT_EQ(s.count(), more.size());
        }
    }
}

TEST(Sampler, MeanOfEmptyIsZero)
{
    Sampler s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(SamplerDeath, QuantileOfEmptyPanics)
{
    Sampler s;
    EXPECT_DEATH(s.quantile(0.5), "empty sampler");
}

TEST(SamplerDeath, QuantileOutOfRangePanics)
{
    Sampler s;
    s.add(1.0);
    EXPECT_DEATH(s.quantile(1.5), "outside");
}
