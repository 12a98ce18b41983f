/**
 * @file
 * Executes a FaultPlan against a running simulation.
 *
 * The injector composes every telemetry-facing fault into one
 * DomainManager fault hook (blackouts, then bursty loss, then sensor
 * corruption — a reading must survive all three to be delivered)
 * and schedules the time-triggered faults (OOB outages, server
 * crash/restarts) on the event queue at start().  All stochastic
 * behavior draws from the injector's own forked Rng, so a scenario
 * replays bit-identically under a fixed seed and perturbs no other
 * component's stream.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/inference_server.hh"
#include "faults/controller_hooks.hh"
#include "faults/fault_plan.hh"
#include "obs/observability.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "telemetry/domain_manager.hh"
#include "telemetry/smbpbi.hh"

namespace polca::faults {

/**
 * Attaches a FaultPlan's effects to telemetry, OOB channels, and
 * servers.  Attach everything first, then start() once; the injector
 * must outlive the simulation run.
 */
class FaultInjector
{
  public:
    FaultInjector(sim::Simulation &sim, FaultPlan plan, sim::Rng rng);

    /** Install the reading fault hook on @p telemetry (replaces any
     *  hook already installed there). */
    void attachTelemetry(telemetry::DomainManager &telemetry);

    /** Channels affected by correlated OOB outages. */
    void
    attachChannels(std::vector<telemetry::SmbpbiController *> channels);

    /** Servers subject to crash/restart events; ServerCrash
     *  indices refer to positions in this list. */
    void attachServers(std::vector<cluster::InferenceServer *> servers);

    /**
     * Controller subject to ControllerCrash events; also notified
     * when a crashed server restarts (so it can reset per-channel
     * state that described the dead server).  Without an attached
     * controller, ControllerCrash events are skipped (there is
     * nothing to crash in an unmanaged run).
     */
    void attachController(ControllerHooks *controller);

    /**
     * Register injection counters and fault-window trace spans with
     * @p obs.  Call before start(): the planned windows (blackouts,
     * OOB outages, sensor faults, crash downtimes) are known a
     * priori, so start() records them as complete spans up front.
     */
    void attachObservability(obs::Observability *obs);

    /** Schedule all time-triggered faults.  Call once, after the
     *  attach calls, before (or at) the start of the run. */
    void start();

    const FaultPlan &plan() const { return plan_; }

    /** @name Statistics */
    /** @{ */
    /** Readings suppressed by blackout windows. */
    std::uint64_t blackedOutReadings() const { return blackedOut_; }

    /** Readings lost to the Gilbert–Elliott channel. */
    std::uint64_t burstDroppedReadings() const { return burstDropped_; }

    /** Readings delivered with a corrupted value. */
    std::uint64_t corruptedReadings() const { return corrupted_; }

    /** Crash events executed so far. */
    std::uint64_t crashesInjected() const { return crashesInjected_; }

    /** Controller crash events executed so far. */
    std::uint64_t controllerCrashesInjected() const
    {
        return controllerCrashesInjected_;
    }

    /** @return true while the loss channel is in its burst state. */
    bool inBurst() const { return inBurst_; }
    /** @} */

  private:
    std::optional<double> filterReading(sim::Tick now, double watts);
    void setOutage(bool active);

    sim::Simulation &sim_;
    FaultPlan plan_;
    sim::Rng rng_;
    std::vector<telemetry::SmbpbiController *> channels_;
    std::vector<cluster::InferenceServer *> servers_;
    ControllerHooks *controller_ = nullptr;
    bool started_ = false;

    bool inBurst_ = false;
    double lastGoodWatts_ = 0.0;
    bool haveLastGood_ = false;

    std::uint64_t blackedOut_ = 0;
    std::uint64_t burstDropped_ = 0;
    std::uint64_t corrupted_ = 0;
    std::uint64_t crashesInjected_ = 0;
    std::uint64_t controllerCrashesInjected_ = 0;

    obs::TraceRecorder *trace_ = nullptr;
    obs::Counter *blackedOutStat_ = nullptr;
    obs::Counter *burstDroppedStat_ = nullptr;
    obs::Counter *corruptedStat_ = nullptr;
    obs::Counter *crashStat_ = nullptr;
    obs::Counter *controllerCrashStat_ = nullptr;
};

} // namespace polca::faults

