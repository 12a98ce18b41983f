/** @file Unit tests for the SMBPBI OOB control path simulation. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/observability.hh"
#include "power/server_model.hh"
#include "sim/simulation.hh"
#include "telemetry/smbpbi.hh"

using namespace polca::telemetry;
using namespace polca::power;
using namespace polca::sim;

namespace {

/** Bare adapter exposing a ServerModel as a control target. */
class ServerTarget : public ClockControllable
{
  public:
    explicit ServerTarget(ServerModel &server) : server_(server) {}

    void applyClockLock(double mhz) override
    {
        server_.lockClockAll(mhz);
    }
    void applyClockUnlock() override { server_.unlockClockAll(); }
    void applyPowerBrake(bool engaged) override
    {
        server_.setPowerBrakeAll(engaged);
    }
    double
    appliedClockLockMhz() const override
    {
        return server_.gpu(0).clockLocked()
            ? server_.gpu(0).lockedClockMhz() : 0.0;
    }
    bool
    powerBrakeEngaged() const override
    {
        return server_.gpu(0).powerBrake();
    }

  private:
    ServerModel &server_;
};

struct Fixture
{
    Simulation sim;
    ServerModel server{ServerSpec::dgxA100_80gb()};
    ServerTarget target{server};
};

} // namespace

TEST(Smbpbi, CapTakesEffectAfterLatencyNotBefore)
{
    Fixture f;
    SmbpbiController smbpbi(f.sim, f.target, Rng(1));
    smbpbi.requestClockLock(1110.0);
    EXPECT_TRUE(smbpbi.commandPending());

    f.sim.runFor(secondsToTicks(39));
    EXPECT_DOUBLE_EQ(f.target.appliedClockLockMhz(), 0.0);

    f.sim.runFor(secondsToTicks(2));
    EXPECT_DOUBLE_EQ(f.target.appliedClockLockMhz(), 1110.0);
    EXPECT_FALSE(smbpbi.commandPending());
}

TEST(Smbpbi, BrakeIsFasterThanCap)
{
    Fixture f;
    SmbpbiController smbpbi(f.sim, f.target, Rng(1));
    smbpbi.requestPowerBrake(true);
    f.sim.runFor(secondsToTicks(6));
    EXPECT_TRUE(f.target.powerBrakeEngaged());
}

TEST(Smbpbi, BrakeRelease)
{
    Fixture f;
    SmbpbiController smbpbi(f.sim, f.target, Rng(1));
    smbpbi.requestPowerBrake(true);
    f.sim.runFor(secondsToTicks(6));
    smbpbi.requestPowerBrake(false);
    f.sim.runFor(secondsToTicks(6));
    EXPECT_FALSE(f.target.powerBrakeEngaged());
    EXPECT_EQ(smbpbi.brakesIssued(), 2u);
}

TEST(Smbpbi, NewerCommandSupersedesPending)
{
    Fixture f;
    SmbpbiController smbpbi(f.sim, f.target, Rng(1));
    smbpbi.requestClockLock(1110.0);
    f.sim.runFor(secondsToTicks(10));
    smbpbi.requestClockLock(1275.0);
    f.sim.runFor(secondsToTicks(41));
    // Only the newer command lands; 1110 never applies.
    EXPECT_DOUBLE_EQ(f.target.appliedClockLockMhz(), 1275.0);
    EXPECT_EQ(smbpbi.commandsIssued(), 2u);
}

TEST(Smbpbi, UnlockCommand)
{
    Fixture f;
    SmbpbiController smbpbi(f.sim, f.target, Rng(1));
    smbpbi.requestClockLock(1110.0);
    f.sim.runFor(secondsToTicks(41));
    smbpbi.requestClockUnlock();
    f.sim.runFor(secondsToTicks(41));
    EXPECT_DOUBLE_EQ(f.target.appliedClockLockMhz(), 0.0);
}

TEST(Smbpbi, SilentFailuresDropCommands)
{
    // Section 3.3: OOB interfaces "may sometimes fail without
    // signaling completion or errors".
    Fixture f;
    SmbpbiController::Options options;
    options.silentFailureProbability = 1.0;  // always fail
    SmbpbiController smbpbi(f.sim, f.target, Rng(1), options);
    smbpbi.requestClockLock(1110.0);
    f.sim.runFor(secondsToTicks(60));
    EXPECT_DOUBLE_EQ(f.target.appliedClockLockMhz(), 0.0);
    EXPECT_EQ(smbpbi.commandsDropped(), 1u);
}

TEST(Smbpbi, FailureRateRoughlyMatchesProbability)
{
    Fixture f;
    SmbpbiController::Options options;
    options.silentFailureProbability = 0.3;
    options.commandLatency = secondsToTicks(1);
    SmbpbiController smbpbi(f.sim, f.target, Rng(42), options);
    for (int i = 0; i < 500; ++i) {
        smbpbi.requestClockLock(1110.0);
        f.sim.runFor(secondsToTicks(2));
    }
    double rate = static_cast<double>(smbpbi.commandsDropped()) /
        static_cast<double>(smbpbi.commandsIssued());
    EXPECT_NEAR(rate, 0.3, 0.06);
}

TEST(Smbpbi, BrakeNeverDrops)
{
    Fixture f;
    SmbpbiController::Options options;
    options.silentFailureProbability = 1.0;
    SmbpbiController smbpbi(f.sim, f.target, Rng(1), options);
    smbpbi.requestPowerBrake(true);
    f.sim.runFor(secondsToTicks(6));
    EXPECT_TRUE(f.target.powerBrakeEngaged());
}

TEST(Smbpbi, DropsAreTheCommandsTheChannelStreamRejects)
{
    // The channel draws one bernoulli per command on the stream it
    // was built with, so a copy of that stream predicts every drop.
    Fixture f;
    SmbpbiController::Options options;
    options.silentFailureProbability = 0.3;
    options.commandLatency = secondsToTicks(1);
    Rng rng(42);
    Rng mirror = rng;
    SmbpbiController smbpbi(f.sim, f.target, rng, options);
    double appliedMhz = 0.0;
    int drops = 0;
    for (int i = 0; i < 200; ++i) {
        SCOPED_TRACE(i);
        bool dropped = mirror.bernoulli(0.3);
        double mhz = i % 2 == 0 ? 1110.0 : 1275.0;
        std::uint64_t before = smbpbi.commandsDropped();
        smbpbi.requestClockLock(mhz);
        f.sim.runFor(secondsToTicks(2));
        EXPECT_EQ(smbpbi.commandsDropped() - before, dropped ? 1u : 0u);
        if (!dropped)
            appliedMhz = mhz;
        drops += dropped;
        EXPECT_DOUBLE_EQ(f.target.appliedClockLockMhz(), appliedMhz);
    }
    EXPECT_GT(drops, 0);
    EXPECT_LT(drops, 200);
}

TEST(Smbpbi, LosslessChannelDropsOnlyCommandsIssuedInAnOutage)
{
    // At probability 0 only an outage loses commands, and loss is
    // decided at issue: command 19 is issued inside the window and
    // lands after it, and still drops.
    Fixture f;
    SmbpbiController::Options options;
    options.commandLatency = secondsToTicks(1);
    SmbpbiController smbpbi(f.sim, f.target, Rng(42), options);
    for (int i = 0; i < 30; ++i) {
        SCOPED_TRACE(i);
        bool inside = i >= 10 && i < 20;
        smbpbi.setOutage(inside);
        double mhz = 1000.0 + i;
        std::uint64_t before = smbpbi.commandsDropped();
        smbpbi.requestClockLock(mhz);
        if (i == 19)
            smbpbi.setOutage(false);
        f.sim.runFor(secondsToTicks(2));
        EXPECT_EQ(smbpbi.commandsDropped() - before, inside ? 1u : 0u);
        EXPECT_DOUBLE_EQ(f.target.appliedClockLockMhz(),
                         inside ? 1009.0 : mhz);
    }
    EXPECT_EQ(smbpbi.commandsIssued(), 30u);
    EXPECT_EQ(smbpbi.commandsDropped(), 10u);
}

namespace {

/**
 * Two channels issue the same commands (one superseded, one brake),
 * reporting to a fresh sink with every trace category on: through
 * handles resolved once (@p oneHandle) or through handles each
 * channel resolves on its own.  @return the sink's metrics dump
 * followed by its trace CSV.
 */
std::string
channelObservabilityDump(bool oneHandle)
{
    Fixture f;
    polca::obs::Observability sink;
    sink.trace.setCategoryMask(~0u);
    SmbpbiController a(f.sim, f.target, Rng(1));
    SmbpbiController b(f.sim, f.target, Rng(2));
    if (oneHandle) {
        SmbpbiController::ObsHandles handles =
            SmbpbiController::ObsHandles::resolve(&sink);
        a.attachObservability(handles, 0);
        b.attachObservability(handles, 1);
    } else {
        a.attachObservability(
            SmbpbiController::ObsHandles::resolve(&sink), 0);
        b.attachObservability(
            SmbpbiController::ObsHandles::resolve(&sink), 1);
    }
    a.requestClockLock(1200.0);
    b.requestClockLock(1100.0);
    f.sim.runFor(secondsToTicks(10));
    b.requestClockLock(1000.0);  // supersedes b's first command
    a.requestPowerBrake(true);
    f.sim.runFor(secondsToTicks(60));
    EXPECT_EQ(sink.metrics.counter("smbpbi.commands_issued").value(), 3u);
    EXPECT_EQ(sink.metrics.counter("smbpbi.commands_superseded").value(),
              1u);
    EXPECT_EQ(sink.metrics.counter("smbpbi.brake_commands").value(), 1u);
    std::ostringstream dump;
    sink.metrics.dump(dump);
    sink.trace.exportCsv(dump);
    return dump.str();
}

} // namespace

TEST(Smbpbi, ChannelsAttachedThroughOneHandleUpdateTheSameMetrics)
{
    // The handle registers exactly what per-channel attachment does,
    // both channels count into one set of metrics, and each keeps
    // its own trace track.
    EXPECT_EQ(channelObservabilityDump(true),
              channelObservabilityDump(false));
}

TEST(Smbpbi, NullSinkRegistersAndRecordsNothing)
{
    EXPECT_EQ(SmbpbiController::ObsHandles::resolve(nullptr),
              SmbpbiController::ObsHandles{});

    Fixture f;
    polca::obs::Observability sink;
    sink.trace.setCategoryMask(~0u);
    SmbpbiController channel(f.sim, f.target, Rng(1));
    channel.attachObservability(
        SmbpbiController::ObsHandles::resolve(&sink), 0);
    std::size_t registered = sink.metrics.size();
    channel.attachObservability({}, 0);
    channel.requestClockLock(1200.0);
    channel.requestPowerBrake(true);
    f.sim.runFor(secondsToTicks(60));
    EXPECT_EQ(channel.commandsIssued(), 1u);
    EXPECT_EQ(sink.metrics.size(), registered);
    EXPECT_EQ(sink.metrics.counter("smbpbi.commands_issued").value(), 0u);
    EXPECT_EQ(sink.metrics.counter("smbpbi.brake_commands").value(), 0u);
    EXPECT_EQ(sink.trace.recorded(), 0u);
}
