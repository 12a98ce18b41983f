/** @file Unit tests for the event-driven inference server. */

#include <gtest/gtest.h>

#include "cluster/inference_server.hh"
#include "llm/model_spec.hh"

using namespace polca::cluster;
using namespace polca::workload;
using namespace polca::sim;

namespace {

struct Fixture
{
    explicit Fixture(std::size_t bufferSize = 1,
                     std::size_t maxBatchSize = 1)
        : server(sim, polca::power::ServerSpec::dgxA100_80gb(),
                 catalog.byName("BLOOM-176B"), Priority::Low, 0,
                 bufferSize)
    {
        server.setMaxBatchSize(maxBatchSize);
        server.setCompletionCallback(
            [this](InferenceServer &,
                   const InferenceServer::Completion &c) {
                completions.push_back(c);
            });
    }

    Request
    request(Tick arrival, int input = 2048, int output = 256)
    {
        Request r;
        r.arrival = arrival;
        r.id = nextId++;
        r.inputTokens = input;
        r.outputTokens = output;
        return r;
    }

    /** Request ids in completion order. */
    std::vector<std::uint64_t>
    completedIds() const
    {
        std::vector<std::uint64_t> ids;
        for (const InferenceServer::Completion &c : completions)
            ids.push_back(c.request.id);
        return ids;
    }

    /** Run until @p n requests have completed (at most an hour). */
    void
    runUntilCompleted(std::size_t n)
    {
        for (int s = 0; s < 3600 && completions.size() < n; ++s)
            sim.runFor(secondsToTicks(1));
    }

    Simulation sim;
    polca::llm::ModelCatalog catalog;
    InferenceServer server;
    std::vector<InferenceServer::Completion> completions;
    std::uint64_t nextId = 0;
};

std::vector<std::uint64_t>
idsFrom(std::uint64_t first, std::uint64_t count)
{
    std::vector<std::uint64_t> ids;
    for (std::uint64_t i = 0; i < count; ++i)
        ids.push_back(first + i);
    return ids;
}

} // namespace

TEST(InferenceServer, CompletesRequestAtModelLatency)
{
    Fixture f;
    polca::llm::PhaseModel phases(f.catalog.byName("BLOOM-176B"));
    polca::llm::InferenceConfig config;
    config.inputTokens = 2048;
    config.outputTokens = 256;
    Tick expected = phases.totalLatency(config);

    f.server.submit(f.request(0));
    f.sim.runFor(expected + secondsToTicks(1));

    ASSERT_EQ(f.completions.size(), 1u);
    EXPECT_NEAR(static_cast<double>(f.completions[0].latency),
                static_cast<double>(expected), 2000.0);
    EXPECT_EQ(f.server.completedRequests(), 1u);
}

TEST(InferenceServer, IdleThenBusyThenIdle)
{
    Fixture f;
    EXPECT_TRUE(f.server.idleNow());
    f.server.submit(f.request(0));
    EXPECT_FALSE(f.server.idleNow());
    f.sim.runFor(secondsToTicks(120));
    EXPECT_TRUE(f.server.idleNow());
}

TEST(InferenceServer, BufferHoldsOneRequest)
{
    Fixture f;
    f.server.submit(f.request(0));
    EXPECT_TRUE(f.server.canAccept());
    f.server.submit(f.request(0));
    EXPECT_FALSE(f.server.canAccept());
    EXPECT_EQ(f.server.queueDepth(), 1u);
}

TEST(InferenceServerDeath, SubmitWhenFullPanics)
{
    Fixture f;
    f.server.submit(f.request(0));
    f.server.submit(f.request(0));
    EXPECT_DEATH(f.server.submit(f.request(0)), "full buffer");
}

TEST(InferenceServer, BufferedRequestRunsAfterActive)
{
    Fixture f;
    f.server.submit(f.request(0, 1024, 64));
    f.server.submit(f.request(0, 1024, 64));
    f.sim.runFor(secondsToTicks(60));
    EXPECT_EQ(f.completions.size(), 2u);
    // Second completion strictly later.
    EXPECT_GT(f.completions[1].completionTime,
              f.completions[0].completionTime);
    // Second latency includes queueing.
    EXPECT_GT(f.completions[1].latency, f.completions[0].latency);
}

TEST(InferenceServer, BufferedRequestsCompleteInArrivalOrder)
{
    // Buffer 3, batches of up to 2, topped up from the completion
    // callback: the buffer is pushed while partly consumed and
    // drained many times over.
    Fixture f(3, 2);
    std::uint64_t submitted = 0;
    auto submitWhileRoom = [&] {
        while (submitted < 40 && f.server.canAccept()) {
            f.server.submit(f.request(0, 1024, 64));
            ++submitted;
        }
    };
    f.server.setCompletionCallback(
        [&](InferenceServer &server,
            const InferenceServer::Completion &c) {
            f.completions.push_back(c);
            EXPECT_EQ(server.queueDepth(),
                      submitted - server.completedRequests() -
                          server.activeBatchSize());
            submitWhileRoom();
        });
    submitWhileRoom();
    EXPECT_EQ(f.server.activeBatchSize(), 1u);
    EXPECT_EQ(f.server.queueDepth(), 3u);

    f.runUntilCompleted(1);
    EXPECT_EQ(f.server.activeBatchSize(), 2u);
    EXPECT_EQ(f.server.queueDepth(), 3u);  // refilled by the callback

    f.runUntilCompleted(40);
    EXPECT_EQ(f.completedIds(), idsFrom(0, 40));
    EXPECT_EQ(f.server.queueDepth(), 0u);
    EXPECT_TRUE(f.server.idleNow());
}

TEST(InferenceServer, CrashDropsTheActiveBatchAndEveryBufferedRequest)
{
    Fixture f(3, 2);
    for (int i = 0; i < 4; ++i)
        f.server.submit(f.request(0, 1024, 64));
    f.runUntilCompleted(1);
    ASSERT_EQ(f.server.activeBatchSize(), 2u);
    ASSERT_EQ(f.server.queueDepth(), 1u);

    f.server.crash();
    EXPECT_EQ(f.server.droppedRequests(), 3u);
    EXPECT_EQ(f.server.queueDepth(), 0u);

    // Back up, the server buffers and serves from empty.
    f.server.restore();
    for (int i = 0; i < 3; ++i)
        f.server.submit(f.request(f.sim.now(), 1024, 64));
    EXPECT_EQ(f.server.queueDepth(), 2u);
    f.runUntilCompleted(4);
    EXPECT_EQ(f.completedIds(), (std::vector<std::uint64_t>{0, 4, 5, 6}));
    EXPECT_EQ(f.server.droppedRequests(), 3u);
}

TEST(InferenceServer, RestoredStateResumesBufferedRequestsInOrder)
{
    // Batches of one, so the two buffered requests run one after the
    // other; the first buffered request has already been taken, so
    // the saved buffer starts past its vector's first slot.
    Fixture source(3, 1);
    for (int i = 0; i < 4; ++i)
        source.server.submit(source.request(0, 1024, 64));
    source.runUntilCompleted(1);
    ASSERT_EQ(source.server.queueDepth(), 2u);
    InferenceServer::State state = source.server.saveState();
    EventQueueState queueState = source.sim.queue().captureState();
    ASSERT_EQ(state.buffer.size(), 2u);
    EXPECT_EQ(state.buffer[0].id, 2u);
    EXPECT_EQ(state.buffer[1].id, 3u);
    source.runUntilCompleted(4);
    ASSERT_EQ(source.completedIds(), idsFrom(0, 4));

    Fixture branch(3, 1);
    branch.sim.queue().beginRestore(queueState);
    branch.server.restoreState(state);
    branch.sim.queue().endRestore(1);
    EXPECT_EQ(branch.server.queueDepth(), 2u);
    branch.runUntilCompleted(3);
    ASSERT_EQ(branch.completedIds(), idsFrom(1, 3));
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(branch.completions[i].completionTime,
                  source.completions[i + 1].completionTime);
    }
}

TEST(InferenceServer, PowerSpikyInPromptFlatInToken)
{
    Fixture f;
    double idle = f.server.powerWatts();
    f.server.submit(f.request(0, 8192, 512));

    // Mid-prompt (an 8K BLOOM prompt takes ~3 s): high power.
    f.sim.runFor(secondsToTicks(1.0));
    double promptPower = f.server.powerWatts();

    // Mid-token phase: lower, stable power.
    f.sim.runFor(secondsToTicks(10.0));
    double tokenPower = f.server.powerWatts();

    EXPECT_GT(promptPower, tokenPower * 1.25);
    EXPECT_GT(tokenPower, idle * 1.5);
}

TEST(InferenceServer, PromptPowerExceedsGpuTdp)
{
    // Insight 4 at server scope: prompt GPU draw above 8x TDP is
    // visible in the server's GPU power.
    Fixture f;
    f.server.submit(f.request(0, 8192, 512));
    f.sim.runFor(secondsToTicks(1.0));
    EXPECT_GT(f.server.serverModel().gpuPowerWatts(), 8 * 400.0);
}

TEST(InferenceServer, ClockLockStretchesLatency)
{
    Fixture f;
    Request r = f.request(0, 2048, 512);

    f.server.submit(r);
    f.sim.runFor(secondsToTicks(120));
    ASSERT_EQ(f.completions.size(), 1u);
    Tick unthrottled = f.completions[0].latency;

    f.server.applyClockLock(1110.0);
    Request r2 = f.request(f.sim.now(), 2048, 512);
    f.server.submit(r2);
    f.sim.runFor(secondsToTicks(180));
    ASSERT_EQ(f.completions.size(), 2u);
    Tick locked = f.completions[1].latency;

    double slowdown =
        static_cast<double>(locked) / static_cast<double>(unthrottled);
    // BLOOM at 1110 MHz: ~9-11 % end-to-end (Fig 10a scale).
    EXPECT_GT(slowdown, 1.05);
    EXPECT_LT(slowdown, 1.15);
}

TEST(InferenceServer, MidFlightClockChangeReschedules)
{
    Fixture f;
    f.server.submit(f.request(0, 2048, 512));

    // Throttle mid token phase.
    f.sim.runFor(secondsToTicks(10));
    f.server.applyClockLock(1110.0);
    f.sim.runFor(secondsToTicks(120));
    ASSERT_EQ(f.completions.size(), 1u);

    // Latency sits between fully-unthrottled and fully-locked runs.
    polca::llm::PhaseModel phases(f.catalog.byName("BLOOM-176B"));
    polca::llm::InferenceConfig config;
    config.inputTokens = 2048;
    config.outputTokens = 512;
    Tick unthrottled = phases.totalLatency(config);
    EXPECT_GT(f.completions[0].latency, unthrottled);

    polca::power::GpuPowerModel locked(
        polca::power::GpuSpec::a100_80gb());
    locked.lockClock(1110.0);
    Tick fullyLocked = phases.latencyAtClock(config, locked);
    EXPECT_LT(f.completions[0].latency, fullyLocked);
}

TEST(InferenceServer, UnlockRestoresSpeedMidFlight)
{
    Fixture f;
    f.server.applyClockLock(1110.0);
    f.server.submit(f.request(0, 2048, 512));
    f.sim.runFor(secondsToTicks(5));
    f.server.applyClockUnlock();
    EXPECT_DOUBLE_EQ(f.server.appliedClockLockMhz(), 0.0);
    f.sim.runFor(secondsToTicks(120));
    EXPECT_EQ(f.completions.size(), 1u);
}

TEST(InferenceServer, PowerBrakeMassivelySlowsService)
{
    Fixture f;
    f.server.applyPowerBrake(true);
    EXPECT_TRUE(f.server.powerBrakeEngaged());
    f.server.submit(f.request(0, 1024, 128));
    f.sim.runFor(secondsToTicks(8));
    EXPECT_EQ(f.completions.size(), 0u);  // would be done unbraked
    f.server.applyPowerBrake(false);
    f.sim.runFor(secondsToTicks(60));
    EXPECT_EQ(f.completions.size(), 1u);
}

TEST(InferenceServer, PowerScaleFactorRaisesDraw)
{
    Fixture f;
    f.server.submit(f.request(0, 2048, 512));
    f.sim.runFor(secondsToTicks(10));
    double base = f.server.powerWatts();
    f.server.setPowerScaleFactor(1.05);
    EXPECT_GT(f.server.powerWatts(), base * 1.01);
}

TEST(InferenceServer, SmallModelLeavesGpusIdle)
{
    Simulation sim;
    polca::llm::ModelCatalog catalog;
    InferenceServer server(sim,
                           polca::power::ServerSpec::dgxA100_80gb(),
                           catalog.byName("Llama2-13B"), Priority::Low,
                           0);
    Request r;
    r.arrival = 0;
    r.inputTokens = 2048;
    r.outputTokens = 128;
    server.submit(r);
    sim.runFor(secondsToTicks(1));
    // Only GPU 0 is active; GPU 7 idles.
    EXPECT_GT(server.serverModel().gpu(0).powerWatts(), 150.0);
    EXPECT_NEAR(server.serverModel().gpu(7).powerWatts(), 80.0, 1.0);
}

TEST(InferenceServer, PhaseAwareTokenClockAppliesInTokenPhaseOnly)
{
    // Section 5.2: lower clocks during token phases; full clock for
    // prompts.
    Fixture f;
    f.server.setPhaseAwareTokenClock(1200.0);
    f.server.submit(f.request(0, 8192, 512));

    // Mid-prompt (an 8K BLOOM prompt takes ~3 s): full clock.
    f.sim.runFor(secondsToTicks(1.0));
    EXPECT_DOUBLE_EQ(
        f.server.serverModel().gpu(0).effectiveClockMhz(), 1410.0);

    // Mid-token phase: the phase-aware clock.
    f.sim.runFor(secondsToTicks(10.0));
    EXPECT_DOUBLE_EQ(
        f.server.serverModel().gpu(0).effectiveClockMhz(), 1200.0);

    // After completion: unlocked again.
    f.sim.runFor(secondsToTicks(120.0));
    ASSERT_TRUE(f.server.idleNow());
    EXPECT_FALSE(f.server.serverModel().gpu(0).clockLocked());
}

TEST(InferenceServer, PhaseAwareClockLowersTokenPower)
{
    Fixture plain, aware;
    aware.server.setPhaseAwareTokenClock(1200.0);
    plain.server.submit(plain.request(0, 2048, 512));
    aware.server.submit(aware.request(0, 2048, 512));
    plain.sim.runFor(secondsToTicks(10.0));
    aware.sim.runFor(secondsToTicks(10.0));
    EXPECT_LT(aware.server.powerWatts(),
              plain.server.powerWatts() - 50.0);
}

TEST(InferenceServer, PhaseAwareClockComposesWithPolicyLock)
{
    // The deeper of the OOB lock and the token clock wins.
    Fixture f;
    f.server.setPhaseAwareTokenClock(1200.0);
    f.server.applyClockLock(1110.0);
    f.server.submit(f.request(0, 2048, 512));
    f.sim.runFor(secondsToTicks(10.0));  // token phase
    EXPECT_DOUBLE_EQ(
        f.server.serverModel().gpu(0).effectiveClockMhz(), 1110.0);
    // The BMC-visible applied state stays the policy lock.
    EXPECT_DOUBLE_EQ(f.server.appliedClockLockMhz(), 1110.0);
}

TEST(InferenceServer, PhaseAwareClockReportedSeparately)
{
    Fixture f;
    f.server.setPhaseAwareTokenClock(1230.0);
    EXPECT_DOUBLE_EQ(f.server.phaseAwareTokenClockMhz(), 1230.0);
    // No OOB lock commanded: BMC sees none even mid token phase.
    f.server.submit(f.request(0, 2048, 512));
    f.sim.runFor(secondsToTicks(10.0));
    EXPECT_DOUBLE_EQ(f.server.appliedClockLockMhz(), 0.0);
}

TEST(InferenceServer, BatchingCoalescesBufferedRequests)
{
    // Insight 5: batching as a throughput/power knob.  Two buffered
    // requests coalesce into one batch when the server frees up.
    Simulation sim;
    polca::llm::ModelCatalog catalog;
    InferenceServer server(sim,
                           polca::power::ServerSpec::dgxA100_80gb(),
                           catalog.byName("BLOOM-176B"), Priority::Low,
                           0, /*bufferSize=*/4);
    server.setMaxBatchSize(4);
    std::vector<InferenceServer::Completion> completions;
    server.setCompletionCallback(
        [&](InferenceServer &, const InferenceServer::Completion &c) {
            completions.push_back(c);
        });

    auto request = [](int id) {
        Request r;
        r.arrival = 0;
        r.id = static_cast<std::uint64_t>(id);
        r.inputTokens = 1024;
        r.outputTokens = 128;
        return r;
    };
    // First request starts alone; the next three buffer up.
    for (int i = 0; i < 4; ++i)
        server.submit(request(i));
    EXPECT_EQ(server.activeBatchSize(), 1u);
    EXPECT_EQ(server.queueDepth(), 3u);

    // When the first finishes, the remaining three run as one batch.
    sim.runFor(secondsToTicks(10));
    EXPECT_EQ(server.activeBatchSize(), 3u);
    sim.runFor(secondsToTicks(60));
    EXPECT_EQ(completions.size(), 4u);
}

TEST(InferenceServer, BatchedServiceFasterThanSequential)
{
    // 4 requests at batch 4 finish well before 4 sequential ones
    // (the point of batching), at higher peak power (Fig 8c).
    auto run = [](std::size_t maxBatch) {
        Simulation sim;
        polca::llm::ModelCatalog catalog;
        InferenceServer server(
            sim, polca::power::ServerSpec::dgxA100_80gb(),
            catalog.byName("BLOOM-176B"), Priority::Low, 0,
            /*bufferSize=*/8);
        server.setMaxBatchSize(maxBatch);
        Tick last = 0;
        server.setCompletionCallback(
            [&](InferenceServer &,
                const InferenceServer::Completion &c) {
                last = std::max(last, c.completionTime);
            });
        for (int i = 0; i < 4; ++i) {
            Request r;
            r.arrival = 0;
            r.id = static_cast<std::uint64_t>(i);
            r.inputTokens = 1024;
            r.outputTokens = 256;
            server.submit(r);
        }
        sim.runFor(secondsToTicks(300));
        return last;
    };
    Tick sequential = run(1);
    Tick batched = run(4);
    // First request runs alone, the other three as one batch:
    // ~2 batch-latencies instead of 4 sequential ones.
    EXPECT_LT(static_cast<double>(batched),
              static_cast<double>(sequential) * 0.6);
}

TEST(InferenceServer, BatchConfigUsesPaddedMaxima)
{
    // Mixed sizes batch to the maxima, not the defaults.
    Simulation sim;
    polca::llm::ModelCatalog catalog;
    polca::llm::PhaseModel phases(catalog.byName("BLOOM-176B"));
    InferenceServer server(sim,
                           polca::power::ServerSpec::dgxA100_80gb(),
                           catalog.byName("BLOOM-176B"), Priority::Low,
                           0, /*bufferSize=*/4);
    server.setMaxBatchSize(2);
    Tick last = 0;
    std::uint64_t done = 0;
    server.setCompletionCallback(
        [&](InferenceServer &, const InferenceServer::Completion &c) {
            last = std::max(last, c.completionTime);
            ++done;
        });

    Request small;
    small.arrival = 0;
    small.inputTokens = 64;
    small.outputTokens = 16;
    Request blocker = small;  // occupies the server first
    server.submit(blocker);
    server.submit(small);
    Request large = small;
    large.id = 2;
    large.inputTokens = 512;
    large.outputTokens = 64;
    server.submit(large);

    sim.runFor(secondsToTicks(60));
    EXPECT_EQ(done, 3u);

    // The batched pair's service time matches the large request at
    // batch size 2 (padding), measured from when the blocker ended.
    polca::llm::InferenceConfig padded;
    padded.inputTokens = 512;
    padded.outputTokens = 64;
    padded.batchSize = 2;
    polca::llm::InferenceConfig blockerConfig;
    blockerConfig.inputTokens = 64;
    blockerConfig.outputTokens = 16;
    blockerConfig.batchSize = 1;
    Tick expected = phases.totalLatency(blockerConfig) +
        phases.totalLatency(padded);
    EXPECT_NEAR(static_cast<double>(last),
                static_cast<double>(expected), 3000.0);
}

TEST(InferenceServerDeath, ZeroBatchSizeFatal)
{
    Fixture f;
    EXPECT_DEATH(f.server.setMaxBatchSize(0), "zero max batch");
}

TEST(InferenceServer, BusyTicksAccumulate)
{
    Fixture f;
    f.server.submit(f.request(0, 1024, 64));
    f.sim.runFor(secondsToTicks(60));
    EXPECT_GT(f.server.busyTicks(), secondsToTicks(2));
    EXPECT_LT(f.server.busyTicks(), secondsToTicks(10));
}
