/** @file Unit tests for the DGX server power model. */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/contracts.hh"
#include "power/server_model.hh"

using namespace polca::power;
using polca::core::bitwiseEqual;

TEST(ServerSpec, ProvisionedBreakdownSumsToRated)
{
    ServerSpec spec = ServerSpec::dgxA100_80gb();
    double total = 0.0;
    for (const auto &[name, watts] : spec.provisionedBreakdown())
        total += watts;
    EXPECT_NEAR(total, spec.ratedPowerWatts, 1e-9);
}

TEST(ServerSpec, GpusAreAboutHalfOfProvisionedPower)
{
    // Figure 3: ~50 % of provisioned power goes to GPUs.
    ServerSpec spec = ServerSpec::dgxA100_80gb();
    double fraction = spec.provisionedGpuWatts() / spec.ratedPowerWatts;
    EXPECT_NEAR(fraction, 0.50, 0.03);
}

TEST(ServerSpec, FansAreAboutQuarterOfProvisionedPower)
{
    // Figure 3 / Section 5: fans are nearly 25 % of server power.
    ServerSpec spec = ServerSpec::dgxA100_80gb();
    EXPECT_NEAR(spec.provisionedFansWatts / spec.ratedPowerWatts, 0.25,
                0.02);
}

TEST(ServerModel, IdlePower)
{
    ServerModel server(ServerSpec::dgxA100_80gb());
    double expected = server.spec().hostIdleWatts +
        8 * server.spec().gpu.idleWatts;
    EXPECT_DOUBLE_EQ(server.powerWatts(), expected);
}

TEST(ServerModel, PeakStaysUnderRatedPower)
{
    // Section 5: observed peak (~5.7 kW) never hits the 6.5 kW
    // rating — the derating opportunity.
    ServerModel server(ServerSpec::dgxA100_80gb());
    // Worst observed phase: a saturated prompt burst.
    server.setActivityAll({1.1, 0.55});
    EXPECT_LT(server.powerWatts(), server.spec().ratedPowerWatts);
    EXPECT_GT(server.powerWatts(), 5400.0);
    EXPECT_LT(server.powerWatts(), 5900.0);
}

TEST(ServerModel, GpusAreMajorityOfLoadedPower)
{
    // Insight 8: GPUs ~60 % of server power under load.
    ServerModel server(ServerSpec::dgxA100_80gb());
    server.setActivityAll({1.0, 0.6});
    double fraction = server.gpuPowerWatts() / server.powerWatts();
    EXPECT_GT(fraction, 0.55);
    EXPECT_LT(fraction, 0.70);
}

TEST(ServerModel, HostPowerTracksGpuPower)
{
    ServerModel server(ServerSpec::dgxA100_80gb());
    EXPECT_DOUBLE_EQ(server.hostPowerWatts(),
                     server.spec().hostIdleWatts);
    server.setActivityAll({1.0, 0.5});
    double gpuDynamic = server.gpuPowerWatts() -
        8 * server.spec().gpu.idleWatts;
    EXPECT_DOUBLE_EQ(server.hostPowerWatts(),
                     server.spec().hostIdleWatts +
                         server.spec().hostGpuTrackingFactor *
                             gpuDynamic);
}

TEST(ServerModel, FrequencyCappingReclaimsHostPowerToo)
{
    // Fans/VR losses follow GPU draw, so locking clocks reduces
    // host power as well — part of why row-level capping works.
    ServerModel server(ServerSpec::dgxA100_80gb());
    server.setActivityAll({0.55, 0.9});  // token-phase-like
    double before = server.hostPowerWatts();
    server.lockClockAll(1110.0);
    EXPECT_LT(server.hostPowerWatts(), before);
}

TEST(ServerModel, FleetControlsReachAllGpus)
{
    ServerModel server(ServerSpec::dgxA100_80gb());
    server.lockClockAll(1200.0);
    for (std::size_t i = 0; i < server.numGpus(); ++i)
        EXPECT_DOUBLE_EQ(server.gpu(i).effectiveClockMhz(), 1200.0);
    server.unlockClockAll();
    for (std::size_t i = 0; i < server.numGpus(); ++i)
        EXPECT_FALSE(server.gpu(i).clockLocked());
    server.setPowerBrakeAll(true);
    for (std::size_t i = 0; i < server.numGpus(); ++i)
        EXPECT_TRUE(server.gpu(i).powerBrake());
}

TEST(ServerModel, WorstSlowdownPicksSlowestGpu)
{
    // Only GPU 3 draws enough to trip the cap, so only its clock
    // throttles.
    ServerModel server(ServerSpec::dgxA100_80gb());
    server.setGpuActivity(3, {1.05, 0.5});
    server.setPowerCapAll(325.0);
    for (int i = 0; i < 200; ++i)
        server.stepCapControllers();
    double slowest = server.gpu(3).slowdownFactor(1.0);
    EXPECT_GT(slowest, 1.2);
    EXPECT_DOUBLE_EQ(server.gpu(0).slowdownFactor(1.0), 1.0);
    EXPECT_DOUBLE_EQ(server.worstSlowdownFactor(1.0), slowest);
}

TEST(ServerModel, PerGpuActivityIndependent)
{
    ServerModel server(ServerSpec::dgxA100_80gb());
    server.setGpuActivity(0, {1.0, 0.5});
    double p = server.gpuPowerWatts();
    double idle = server.spec().gpu.idleWatts;
    EXPECT_GT(p, 7 * idle + 300.0);
    EXPECT_LT(p, 7 * idle + 500.0);
}

TEST(ServerModel, H100SpecsLoad)
{
    ServerModel server(ServerSpec::dgxH100());
    EXPECT_EQ(server.numGpus(), 8u);
    EXPECT_DOUBLE_EQ(server.spec().ratedPowerWatts, 10200.0);
}

TEST(ServerModel, CapControllersStepAcrossGpus)
{
    ServerModel server(ServerSpec::dgxA100_80gb());
    server.setActivityAll({1.05, 0.5});
    server.setPowerCapAll(325.0);
    for (int i = 0; i < 200; ++i)
        server.stepCapControllers();
    for (std::size_t i = 0; i < server.numGpus(); ++i)
        EXPECT_LE(server.gpu(i).powerWatts(), 330.0);
    server.clearPowerCapAll();
    EXPECT_GT(server.gpu(0).powerWatts(), 400.0);
}

TEST(ServerModel, CachedDrawMatchesFreshModelAfterEveryMutator)
{
    // Every mutator, in an order where each one moves the draw except
    // setPowerCapAll: a cap moves nothing until the controllers step,
    // and then they throttle the loaded GPUs.
    using Mutation = std::function<void(ServerModel &)>;
    const std::vector<std::pair<std::string, Mutation>> mutators = {
        {"setActivityAll",
         [](ServerModel &s) { s.setActivityAll({1.05, 0.5}); }},
        {"setGpuActivity",
         [](ServerModel &s) { s.setGpuActivity(2, {0.3, 0.9}); }},
        {"setPowerCapAll",
         [](ServerModel &s) { s.setPowerCapAll(325.0); }},
        {"stepCapControllers",
         [](ServerModel &s) { s.stepCapControllers(); }},
        {"clearPowerCapAll",
         [](ServerModel &s) { s.clearPowerCapAll(); }},
        {"lockClockAll", [](ServerModel &s) { s.lockClockAll(1110.0); }},
        {"unlockClockAll", [](ServerModel &s) { s.unlockClockAll(); }},
        {"setPowerBrakeAll(true)",
         [](ServerModel &s) { s.setPowerBrakeAll(true); }},
        {"setPowerBrakeAll(false)",
         [](ServerModel &s) { s.setPowerBrakeAll(false); }},
    };

    // The live model is read after every mutation, so each read comes
    // from a cache filled before the mutation.  A fresh model replays
    // the same mutations unread; its first read evaluates the GPUs.
    // Any mutator that forgets to invalidate leaves a stale value.
    ServerModel live(ServerSpec::dgxA100_80gb());
    double before = live.powerWatts();
    for (std::size_t k = 0; k < mutators.size(); ++k) {
        mutators[k].second(live);
        ServerModel fresh(ServerSpec::dgxA100_80gb());
        for (std::size_t j = 0; j <= k; ++j)
            mutators[j].second(fresh);
        SCOPED_TRACE("after " + mutators[k].first);
        EXPECT_EQ(live.powerWatts(), fresh.powerWatts());
        EXPECT_EQ(live.gpuPowerWatts(), fresh.gpuPowerWatts());
        EXPECT_EQ(live.hostPowerWatts(), fresh.hostPowerWatts());
        if (mutators[k].first != "setPowerCapAll") {
            EXPECT_NE(live.powerWatts(), before);
        }
        before = live.powerWatts();
    }
}

TEST(ServerModel, GpusShareOneSpecAndCopiesShareIt)
{
    // One GpuSpec per server: the GPUs point into the server's spec.
    ServerModel server(ServerSpec::dgxA100_80gb());
    for (std::size_t i = 0; i < server.numGpus(); ++i)
        EXPECT_EQ(&server.gpu(i).spec(), &server.spec().gpu);
    ServerModel copy = server;
    EXPECT_EQ(&copy.spec(), &server.spec());
    EXPECT_EQ(&copy.gpu(0).spec(), &server.spec().gpu);

    // Servers built from one shared spec (a row group) hold that one
    // block, and so do their GPUs and their copies.
    auto shared =
        std::make_shared<const ServerSpec>(ServerSpec::dgxH100());
    ServerModel a(shared);
    ServerModel b(shared);
    ServerModel bCopy = b;
    for (const ServerModel *s : {&a, &b, &bCopy}) {
        EXPECT_EQ(&s->spec(), shared.get());
        for (std::size_t i = 0; i < s->numGpus(); ++i)
            EXPECT_EQ(&s->gpu(i).spec(), &shared->gpu);
    }
}

TEST(ServerModel, CopyDrawsBitwiseLikeTheOriginalAndStaysIndependent)
{
    ServerModel original(ServerSpec::dgxA100_80gb());
    original.setActivityAll({0.4, 0.2});
    (void)original.powerWatts();  // copy a filled cache
    ServerModel copy = original;

    using Step = std::function<void(ServerModel &)>;
    const std::vector<Step> steps = {
        [](ServerModel &s) { s.lockClockAll(1110.0); },
        [](ServerModel &s) { s.setActivityAll({1.05, 0.5}); },
        [](ServerModel &s) { s.setGpuActivity(3, {0.2, 0.9}); },
        [](ServerModel &s) { s.setPowerBrakeAll(true); },
        [](ServerModel &s) { s.setPowerBrakeAll(false); },
        [](ServerModel &s) { s.unlockClockAll(); },
        [](ServerModel &s) { s.setPowerCapAll(325.0); },
        [](ServerModel &s) { s.stepCapControllers(); },
        [](ServerModel &s) { s.stepCapControllers(); },
        [](ServerModel &s) { s.clearPowerCapAll(); },
    };
    for (std::size_t k = 0; k < steps.size(); ++k) {
        SCOPED_TRACE(k);
        steps[k](original);
        steps[k](copy);
        EXPECT_TRUE(bitwiseEqual(copy.powerWatts(), original.powerWatts()));
        EXPECT_TRUE(
            bitwiseEqual(copy.gpuPowerWatts(), original.gpuPowerWatts()));
        EXPECT_TRUE(
            bitwiseEqual(copy.hostPowerWatts(), original.hostPowerWatts()));
    }

    // Mutating the copy leaves the original's draw where it was.
    double before = original.powerWatts();
    copy.setActivityAll({0.1, 0.1});
    copy.lockClockAll(800.0);
    copy.setPowerCapAll(300.0);
    copy.stepCapControllers();
    EXPECT_NE(copy.powerWatts(), before);
    EXPECT_TRUE(bitwiseEqual(original.powerWatts(), before));
    ServerModel replay(ServerSpec::dgxA100_80gb());
    replay.setActivityAll({0.4, 0.2});
    for (const Step &step : steps)
        step(replay);
    EXPECT_TRUE(bitwiseEqual(replay.powerWatts(), before));
}
