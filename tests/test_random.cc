/** @file Unit and statistical tests for the deterministic Rng. */

#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "sim/random.hh"
#include "sim/stats.hh"

using namespace polca::sim;

// The engine lives out of line until the first draw, so a stream that
// is forked and never drawn costs a seed and a pointer.
static_assert(sizeof(Rng) <= 32, "an Rng holds its engine out of line");

namespace {

/** @p rounds rounds of every draw an Rng offers, in order; the last
 *  draw of a round is a Poisson through engine(). */
std::vector<double>
drawRounds(Rng &rng, int rounds)
{
    std::vector<double> out;
    for (int i = 0; i < rounds; ++i) {
        out.push_back(rng.uniform());
        out.push_back(rng.uniform(-2.0, 7.0));
        out.push_back(rng.normal(3.0, 2.0));
        out.push_back(static_cast<double>(rng.uniformInt(-5, 1000)));
        out.push_back(rng.bernoulli(0.3) ? 1.0 : 0.0);
        out.push_back(static_cast<double>(
            std::poisson_distribution<int>(4.5)(rng.engine())));
    }
    return out;
}

} // namespace

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
    Rng rng(5);
    std::vector<double> first = drawRounds(rng, 10);
    rng.reseed(5);
    EXPECT_EQ(drawRounds(rng, 10), first);

    rng.reseed(6);
    Rng six(6);
    EXPECT_EQ(rng.seed(), 6u);
    EXPECT_EQ(drawRounds(rng, 10), drawRounds(six, 10));
}

TEST(Rng, CopiesContinueTheOriginalStreamDrawForDraw)
{
    Rng original(99);
    Rng early = original;  // copied before the first draw
    std::vector<double> first = drawRounds(original, 20);

    // Copied after 20 rounds: by construction, by assignment over an
    // Rng that has drawn (its engine is overwritten in place) and by
    // assignment over one that has not.
    Rng late = original;
    Rng assignedOverDrawn(1);
    (void)assignedOverDrawn.uniform();
    assignedOverDrawn = original;
    Rng assignedOverFresh(2);
    assignedOverFresh = original;
    Rng copyOfCopy = late;

    std::vector<double> next = drawRounds(original, 20);
    EXPECT_EQ(drawRounds(early, 20), first);
    EXPECT_EQ(drawRounds(early, 20), next);
    EXPECT_EQ(drawRounds(late, 20), next);
    EXPECT_EQ(drawRounds(assignedOverDrawn, 20), next);
    EXPECT_EQ(drawRounds(assignedOverFresh, 20), next);
    EXPECT_EQ(drawRounds(copyOfCopy, 20), next);

    // Drawing from a copy leaves the original where it was.
    Rng probe = original;
    (void)drawRounds(probe, 5);
    Rng mirror = original;
    EXPECT_EQ(drawRounds(original, 5), drawRounds(mirror, 5));
}

TEST(Rng, AssigningAnUndrawnRngRestartsItsStream)
{
    Rng drawn(3);
    (void)drawRounds(drawn, 4);
    const Rng undrawn(8);
    drawn = undrawn;
    Rng fresh(8);
    EXPECT_EQ(drawn.seed(), 8u);
    EXPECT_EQ(drawRounds(drawn, 10), drawRounds(fresh, 10));
}

TEST(Rng, MovedToRngContinuesTheStream)
{
    Rng original(12);
    (void)drawRounds(original, 3);
    Rng mirror = original;
    Rng moved = std::move(original);
    EXPECT_EQ(drawRounds(moved, 10), drawRounds(mirror, 10));
}

TEST(Rng, ForksOfADrawnRngEqualThoseOfAFreshOne)
{
    Rng drawn(1234);
    (void)drawRounds(drawn, 5);
    const Rng fresh(1234);

    Rng drawnChild = drawn.fork(7);
    Rng freshChild = fresh.fork(7);
    EXPECT_EQ(drawnChild.seed(), freshChild.seed());
    EXPECT_EQ(drawRounds(drawnChild, 10), drawRounds(freshChild, 10));

    Rng drawnPath = drawn.forkPath("row-3");
    Rng freshPath = fresh.forkPath("row-3");
    EXPECT_EQ(drawnPath.seed(), freshPath.seed());
    EXPECT_EQ(drawRounds(drawnPath, 10), drawRounds(freshPath, 10));
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
