/**
 * @file
 * SMBPBI-style out-of-band GPU control path (Section 3.2/3.3).
 *
 * The defining properties the paper measures — and which POLCA must
 * design around — are modelled here:
 *  - frequency/power capping commands take up to 40 s to take effect
 *    on a server;
 *  - the power brake is faster (~5 s) but drastic (clocks to 288 MHz);
 *  - commands may fail silently, "without signaling completion or
 *    errors", so callers need verification guardrails.
 */

#pragma once

#include <cstdint>

#include "obs/observability.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/types.hh"

namespace polca::telemetry {

/**
 * Control target of an OOB path.  Implemented by anything whose
 * clocks a BMC can set: a bare power::ServerModel adapter for the
 * characterization benches, or cluster::InferenceServer, which also
 * reschedules in-flight work when the clock changes.
 */
class ClockControllable
{
  public:
    virtual ~ClockControllable() = default;

    /** Lock all GPUs' SM clock to @p mhz. */
    virtual void applyClockLock(double mhz) = 0;

    /** Remove any frequency lock. */
    virtual void applyClockUnlock() = 0;

    /** Engage/release the power brake on all GPUs. */
    virtual void applyPowerBrake(bool engaged) = 0;

    /** Currently applied lock in MHz, or 0 when unlocked. */
    virtual double appliedClockLockMhz() const = 0;

    /** @return true while the power brake is engaged. */
    virtual bool powerBrakeEngaged() const = 0;
};

/**
 * One server's OOB command channel.  At most one capping command is
 * in flight at a time (the BMC serializes); a command issued while
 * another is pending supersedes it.  Brake commands use the faster
 * dedicated path and are never dropped (the brake signal is a simple
 * hardware line).
 *
 * There is one channel per managed server, so a channel is small:
 * its private stream decides silent failures, one bernoulli draw per
 * command, and a channel whose silentFailureProbability is 0 never
 * draws (nor does one in an outage), so its engine is never built.
 */
class SmbpbiController
{
  public:
    struct Options
    {
        sim::Tick commandLatency;
        sim::Tick brakeLatency;
        double silentFailureProbability;

        Options()
            : commandLatency(sim::secondsToTicks(40)),
              brakeLatency(sim::secondsToTicks(5)),
              silentFailureProbability(0.0)
        {}
    };

    SmbpbiController(sim::Simulation &sim, ClockControllable &target,
                     sim::Rng rng, Options options = Options());

    /**
     * The fleet-wide "smbpbi.*" command counters, the command->apply
     * latency histogram and the trace recorder of one sink.  Every
     * channel updates the same objects, so one handle serves every
     * channel of a manager.
     */
    struct ObsHandles
    {
        obs::Observability *sink = nullptr;  ///< null: detached
        obs::Counter *issued = nullptr;
        obs::Counter *dropped = nullptr;
        obs::Counter *superseded = nullptr;
        obs::Counter *brakes = nullptr;
        obs::LogHistogram *applyLatency = nullptr;

        /** Look the metrics up in @p sink's registry, registering
         *  them on first use; a null sink gives null handles. */
        static ObsHandles resolve(obs::Observability *sink);

        bool operator==(const ObsHandles &) const = default;
    };

    /**
     * Report command counters, the command->apply latency and
     * cap_issue/cap_dropped/cap_superseded trace events through
     * @p handles, resolved once for many channels (no registry
     * lookup per channel); null handles detach.  @p track labels
     * this channel in the exported trace (one Chrome "thread" per
     * channel).
     */
    void attachObservability(const ObsHandles &handles,
                             std::int32_t track);

    /** Request a frequency lock; applies after commandLatency. */
    void requestClockLock(double mhz);

    /** Request removal of the lock; applies after commandLatency. */
    void requestClockUnlock();

    /** Request brake engage/release; applies after brakeLatency. */
    void requestPowerBrake(bool engage);

    /**
     * Channel outage (fault injection): while set, every capping
     * command is lost on the wire — silently, like the stochastic
     * failures.  The power brake is a dedicated hardware line and
     * keeps working, which is exactly why POLCA's fail-safe can
     * lean on it when the BMC path goes dark.
     */
    void setOutage(bool outage) { outage_ = outage; }

    /** @return true while an injected outage is active. */
    bool outage() const { return outage_; }

    /** @return true while a capping command is pending. */
    bool commandPending() const { return pending_.pending(); }

    /** @name Statistics */
    /** @{ */
    std::uint64_t commandsIssued() const { return issued_; }
    std::uint64_t commandsDropped() const { return dropped_; }
    std::uint64_t brakesIssued() const { return brakes_; }
    /** @} */

  private:
    void issue(double lockMhz);

    sim::Simulation &sim_;
    ClockControllable &target_;
    sim::Rng rng_;
    Options options_;
    sim::EventQueue::Handle pending_;
    sim::Tick pendingIssueTime_ = -1;
    bool outage_ = false;
    std::uint64_t issued_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t brakes_ = 0;

    ObsHandles obs_;
    std::int32_t track_ = 0;
};

} // namespace polca::telemetry

