/** @file Unit and property tests for the GPU power model and knobs. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "power/gpu_power_model.hh"

using namespace polca::power;

namespace {

GpuPowerModel
a100()
{
    return GpuPowerModel(GpuSpec::a100_80gb());
}

/** Prompt-like activity calibrated to exceed TDP slightly. */
constexpr GpuActivity promptActivity{1.05, 0.5};

/** Token-like activity: low compute, high memory. */
constexpr GpuActivity tokenActivity{0.35, 0.9};

/** The power formula without any memo: the reference the memoized
 *  clock terms must reproduce bit for bit. */
double
unmemoizedPowerAtClock(const GpuSpec &spec, const GpuActivity &activity,
                       double mhz)
{
    double ratio = std::clamp(mhz / spec.maxSmClockMhz, 0.0, 1.0);
    double compute = activity.compute * spec.computeDynWatts *
        std::pow(ratio, spec.computeClockExponent);
    double memory = activity.memory * spec.memoryDynWatts *
        std::pow(ratio, spec.memoryClockExponent);
    return spec.idleWatts + compute + memory;
}

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

} // namespace

TEST(GpuSpec, CatalogLookup)
{
    EXPECT_EQ(GpuSpec::byName("A100-80GB").tdpWatts, 400.0);
    EXPECT_EQ(GpuSpec::byName("A100-40GB").memoryGb, 40.0);
    EXPECT_EQ(GpuSpec::byName("H100-80GB").tdpWatts, 700.0);
}

TEST(GpuSpecDeath, UnknownNameFatal)
{
    EXPECT_DEATH(GpuSpec::byName("B200"), "unknown GPU");
}

TEST(GpuPowerModel, IdlePowerAtZeroActivity)
{
    GpuPowerModel gpu = a100();
    EXPECT_DOUBLE_EQ(gpu.powerWatts(), gpu.spec().idleWatts);
}

TEST(GpuPowerModel, PromptActivityExceedsTdp)
{
    // Insight 4: prompt phases reach or exceed TDP.
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    EXPECT_GT(gpu.powerWatts(), gpu.spec().tdpWatts);
    EXPECT_LT(gpu.powerWatts(), gpu.spec().tdpWatts * 1.15);
}

TEST(GpuPowerModel, TokenActivityWellBelowTdp)
{
    GpuPowerModel gpu = a100();
    gpu.setActivity(tokenActivity);
    double ratio = gpu.powerWatts() / gpu.spec().tdpWatts;
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 0.8);
}

TEST(GpuPowerModel, MemoizedClockTermsMatchFreshEvaluation)
{
    GpuPowerModel gpu = a100();
    const GpuSpec &spec = gpu.spec();
    // Reads at the effective clock, with what-if reads at other
    // clocks (below min, legal, above max) interleaved so the memo
    // is evicted and refilled between them.
    auto expectFresh = [&](const std::string &step) {
        SCOPED_TRACE(step);
        double clock = gpu.effectiveClockMhz();
        double fresh =
            unmemoizedPowerAtClock(spec, gpu.activity(), clock);
        EXPECT_EQ(bits(gpu.powerWatts()), bits(fresh));
        for (double whatIf : {100.0, 900.0, 1100.0, clock, 1500.0}) {
            EXPECT_EQ(bits(gpu.powerAtClock(whatIf)),
                      bits(unmemoizedPowerAtClock(
                          spec, gpu.activity(), whatIf)))
                << whatIf << " MHz";
            EXPECT_EQ(bits(gpu.powerWatts()), bits(fresh));
        }
    };

    gpu.setActivity(promptActivity);
    expectFresh("max clock");
    gpu.lockClock(1100.0);
    expectFresh("locked");
    gpu.setActivity(tokenActivity);
    expectFresh("locked, token activity");
    gpu.unlockClock();
    expectFresh("unlocked");
    gpu.setPowerBrake(true);
    expectFresh("brake");
    gpu.setPowerBrake(false);
    expectFresh("brake released");

    // The cap controller moves the clock every step: throttle under
    // a prompt, then recover under a token phase.
    gpu.setActivity(promptActivity);
    gpu.setPowerCap(300.0);
    for (int i = 0; i < 30; ++i) {
        gpu.stepCapController();
        expectFresh("throttle step " + std::to_string(i));
    }
    gpu.setActivity(tokenActivity);
    for (int i = 0; i < 30; ++i) {
        gpu.stepCapController();
        expectFresh("recovery step " + std::to_string(i));
    }
    gpu.clearPowerCap();
    expectFresh("cap cleared");

    // A copy carries the memo with the knobs it was computed for.
    GpuPowerModel copy = gpu;
    copy.lockClock(900.0);
    EXPECT_EQ(bits(copy.powerWatts()),
              bits(unmemoizedPowerAtClock(spec, copy.activity(),
                                          copy.effectiveClockMhz())));
    expectFresh("original after the copy moved");
}

TEST(GpuPowerModel, PowerMonotonicInActivity)
{
    GpuPowerModel gpu = a100();
    double last = 0.0;
    for (double a = 0.0; a <= 1.1; a += 0.1) {
        gpu.setActivity({a, a * 0.5});
        double p = gpu.powerWatts();
        EXPECT_GT(p, last);
        last = p;
    }
}

TEST(GpuPowerModel, PowerMonotonicInClock)
{
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    double last = 1e9;
    for (double mhz = 1410.0; mhz >= 210.0; mhz -= 100.0) {
        gpu.lockClock(mhz);
        double p = gpu.powerWatts();
        EXPECT_LT(p, last);
        last = p;
    }
}

TEST(GpuPowerModel, LockClampedToLegalRange)
{
    GpuPowerModel gpu = a100();
    gpu.lockClock(50.0);
    EXPECT_DOUBLE_EQ(gpu.effectiveClockMhz(), gpu.spec().minSmClockMhz);
    gpu.lockClock(5000.0);
    EXPECT_DOUBLE_EQ(gpu.effectiveClockMhz(), gpu.spec().maxSmClockMhz);
}

TEST(GpuPowerModel, UnlockRestoresMaxClock)
{
    GpuPowerModel gpu = a100();
    gpu.lockClock(1100.0);
    EXPECT_TRUE(gpu.clockLocked());
    gpu.unlockClock();
    EXPECT_FALSE(gpu.clockLocked());
    EXPECT_DOUBLE_EQ(gpu.effectiveClockMhz(), gpu.spec().maxSmClockMhz);
}

TEST(GpuPowerModel, FrequencyLockReclaimsPaperRange)
{
    // Fig 10: a 1.1 GHz lock reclaims roughly 20 % of peak power.
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    double uncapped = gpu.powerWatts();
    gpu.lockClock(1100.0);
    double reduction = 1.0 - gpu.powerWatts() / uncapped;
    EXPECT_GT(reduction, 0.15);
    EXPECT_LT(reduction, 0.30);
}

TEST(GpuPowerModel, PowerBrakeDropsPowerDrastically)
{
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    double before = gpu.powerWatts();
    gpu.setPowerBrake(true);
    EXPECT_DOUBLE_EQ(gpu.effectiveClockMhz(),
                     gpu.spec().powerBrakeClockMhz);
    EXPECT_LT(gpu.powerWatts(), before * 0.55);
    gpu.setPowerBrake(false);
    EXPECT_DOUBLE_EQ(gpu.powerWatts(), before);
}

TEST(GpuPowerModel, BrakeOverridesLock)
{
    GpuPowerModel gpu = a100();
    gpu.lockClock(1300.0);
    gpu.setPowerBrake(true);
    EXPECT_DOUBLE_EQ(gpu.effectiveClockMhz(),
                     gpu.spec().powerBrakeClockMhz);
    gpu.setPowerBrake(false);
    EXPECT_DOUBLE_EQ(gpu.effectiveClockMhz(), 1300.0);
}

TEST(GpuPowerModel, CapControllerConvergesUnderCap)
{
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    gpu.setPowerCap(325.0);
    // Before any controller step the cap has no effect (reactive).
    EXPECT_GT(gpu.powerWatts(), 325.0);
    for (int i = 0; i < 200; ++i)
        gpu.stepCapController();
    EXPECT_LE(gpu.powerWatts(), 325.0 * 1.01);
    EXPECT_GT(gpu.powerWatts(), 325.0 * 0.85);
}

TEST(GpuPowerModel, CapOvershootOnSuddenSpike)
{
    // Fig 9b: prompt spikes exceed the cap before the controller
    // reacts.
    GpuPowerModel gpu = a100();
    gpu.setPowerCap(325.0);
    gpu.setActivity(tokenActivity);
    for (int i = 0; i < 200; ++i)
        gpu.stepCapController();
    // Token phase sits under the cap without throttling...
    EXPECT_LT(gpu.powerWatts(), 325.0);
    // ...so a sudden prompt spike overshoots it.
    gpu.setActivity(promptActivity);
    EXPECT_GT(gpu.powerWatts(), 325.0);
}

TEST(GpuPowerModel, CapRecoveryIsGradual)
{
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    gpu.setPowerCap(325.0);
    for (int i = 0; i < 200; ++i)
        gpu.stepCapController();
    double throttled = gpu.effectiveClockMhz();
    // Load drops; clock must recover but not instantly.
    gpu.setActivity(tokenActivity);
    gpu.stepCapController();
    double oneStep = gpu.effectiveClockMhz();
    EXPECT_GT(oneStep, throttled);
    EXPECT_LT(oneStep, gpu.spec().maxSmClockMhz);
    for (int i = 0; i < 500; ++i)
        gpu.stepCapController();
    EXPECT_NEAR(gpu.effectiveClockMhz(), gpu.spec().maxSmClockMhz, 1.0);
}

TEST(GpuPowerModel, ClearPowerCapRestores)
{
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    gpu.setPowerCap(325.0);
    for (int i = 0; i < 100; ++i)
        gpu.stepCapController();
    gpu.clearPowerCap();
    EXPECT_FALSE(gpu.powerCapped());
    EXPECT_DOUBLE_EQ(gpu.effectiveClockMhz(), gpu.spec().maxSmClockMhz);
}

TEST(GpuPowerModel, CapClampedToLegalRange)
{
    GpuPowerModel gpu = a100();
    gpu.setPowerCap(100.0);
    EXPECT_DOUBLE_EQ(gpu.powerCapWatts(), gpu.spec().minPowerCapWatts);
    gpu.setPowerCap(9999.0);
    EXPECT_DOUBLE_EQ(gpu.powerCapWatts(), gpu.spec().maxPowerCapWatts);
}

TEST(GpuPowerModel, SlowdownIdentityAtMaxClock)
{
    GpuPowerModel gpu = a100();
    EXPECT_DOUBLE_EQ(gpu.slowdownFactor(1.0), 1.0);
    EXPECT_DOUBLE_EQ(gpu.slowdownFactor(0.0), 1.0);
}

TEST(GpuPowerModel, SlowdownScalesWithComputeBoundFraction)
{
    GpuPowerModel gpu = a100();
    gpu.lockClock(705.0);  // half of max
    EXPECT_NEAR(gpu.slowdownFactor(1.0), 2.0, 1e-9);
    EXPECT_NEAR(gpu.slowdownFactor(0.5), 1.5, 1e-9);
    EXPECT_DOUBLE_EQ(gpu.slowdownFactor(0.0), 1.0);
}

TEST(GpuPowerModelDeath, NegativeActivityPanics)
{
    GpuPowerModel gpu = a100();
    EXPECT_DEATH(gpu.setActivity({-0.1, 0.0}), "negative activity");
}

TEST(GpuPowerModelDeath, BadComputeBoundFractionPanics)
{
    GpuPowerModel gpu = a100();
    EXPECT_DEATH(gpu.slowdownFactor(1.5), "outside");
}

/**
 * Property sweep: superlinear power/performance trade-off of
 * Insight 7 — relative power reduction always exceeds relative
 * performance loss across the supported lock range for a
 * memory-bound (token-like) phase.
 */
class FrequencySweep : public ::testing::TestWithParam<double>
{
};

TEST_P(FrequencySweep, PowerSavingsBeatPerfLossForTokenPhase)
{
    double mhz = GetParam();
    GpuPowerModel gpu = a100();
    gpu.setActivity(tokenActivity);
    double basePower = gpu.powerWatts();

    gpu.lockClock(mhz);
    double powerReduction = 1.0 - gpu.powerWatts() / basePower;
    double perfLoss = 1.0 - 1.0 / gpu.slowdownFactor(0.35);

    EXPECT_GT(powerReduction, perfLoss);
}

TEST_P(FrequencySweep, PeakPowerNeverBelowIdle)
{
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    gpu.lockClock(GetParam());
    EXPECT_GE(gpu.powerWatts(), gpu.spec().idleWatts);
}

INSTANTIATE_TEST_SUITE_P(LockRange, FrequencySweep,
                         ::testing::Values(1100.0, 1150.0, 1200.0,
                                           1275.0, 1305.0, 1350.0,
                                           1400.0));
