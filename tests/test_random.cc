/** @file Unit and statistical tests for the deterministic Rng. */

#include <gtest/gtest.h>

#include "sim/random.hh"
#include "sim/stats.hh"

using namespace polca::sim;

TEST(Rng, SameSeedSameStream)
{
    Rng a(7), b(7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(7), b(8);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.uniform() == b.uniform();
    EXPECT_LT(equal, 5);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng rng(7);
    double first = rng.uniform();
    rng.uniform();
    rng.reseed(7);
    EXPECT_DOUBLE_EQ(rng.uniform(), first);
}

TEST(Rng, ForkIsIndependentOfParentDraws)
{
    Rng a(7);
    Rng childBefore = a.fork(1);
    a.uniform();
    a.uniform();
    Rng childAfter = a.fork(1);
    // Forks depend only on seed+salt, not on parent's draw position.
    EXPECT_DOUBLE_EQ(childBefore.uniform(), childAfter.uniform());
}

TEST(Rng, ForkWithDifferentSaltsDiffer)
{
    Rng a(7);
    Rng c1 = a.fork(1);
    Rng c2 = a.fork(2);
    EXPECT_NE(c1.uniform(), c2.uniform());
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniform(2.0, 5.0);
        ASSERT_GE(v, 2.0);
        ASSERT_LT(v, 5.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(11);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.uniformInt(1, 6);
        ASSERT_GE(v, 1);
        ASSERT_LE(v, 6);
        sawLo |= v == 1;
        sawHi |= v == 6;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(17);
    Accumulator acc;
    for (int i = 0; i < 50000; ++i)
        acc.add(rng.normal(10.0, 3.0));
    EXPECT_NEAR(acc.mean(), 10.0, 0.1);
    EXPECT_NEAR(acc.stddev(), 3.0, 0.1);
}

TEST(Rng, NormalMatchesTheLibraryDistributionBitwise)
{
    Rng rng(23);
    std::mt19937_64 engine(23);
    for (int i = 0; i < 1000; ++i) {
        double expected =
            std::normal_distribution<double>(-4.0, 2.5)(engine);
        ASSERT_EQ(rng.normal(-4.0, 2.5), expected) << "draw " << i;
    }
}

TEST(Rng, NormalWithZeroStddevReturnsMeanAndKeepsTheStream)
{
    Rng rng(29);
    Rng reference(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(rng.normal(7.0, 0.0), 7.0);
        (void)reference.normal(0.0, 1.0);
    }
    EXPECT_EQ(rng.uniform(), reference.uniform());
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, WeightedIndexFollowsWeights)
{
    Rng rng(23);
    std::vector<double> weights{1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[rng.weightedIndex(weights)];
    EXPECT_NEAR(counts[0] / 100000.0, 0.1, 0.01);
    EXPECT_NEAR(counts[1] / 100000.0, 0.3, 0.01);
    EXPECT_NEAR(counts[2] / 100000.0, 0.6, 0.01);
}

TEST(Rng, WeightedIndexSkipsZeroWeights)
{
    Rng rng(29);
    std::vector<double> weights{0.0, 1.0, 0.0};
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(rng.weightedIndex(weights), 1u);
}

TEST(RngDeath, WeightedIndexRejectsAllZero)
{
    Rng rng(1);
    std::vector<double> weights{0.0, 0.0};
    EXPECT_DEATH(rng.weightedIndex(weights), "sum to zero");
}

TEST(RngDeath, WeightedIndexRejectsNegative)
{
    Rng rng(1);
    std::vector<double> weights{0.5, -0.1};
    EXPECT_DEATH(rng.weightedIndex(weights), "negative weight");
}
