/**
 * @file
 * The POLCA power manager (Section 6.3, Figure 12).
 *
 * Listens to 2 s row telemetry and drives per-server OOB control
 * channels.  Escalates threshold rules one at a time, releases them
 * with hysteresis, falls back to the power brake at the provisioned
 * limit, and re-issues commands whose silent failure it detects by
 * comparing desired against applied state (the guardrails Section
 * 3.3 calls for).
 *
 * The manager is also a fault target: it implements
 * faults::ControllerHooks, so a FaultPlan can crash it (process
 * memory wiped, watchdog dead) and restart it warm (rehydrating
 * from the snapshot it persisted at crash time) or cold (blind —
 * straight into fail-safe until telemetry proves the world out).
 * Degraded-visibility state is tracked explicitly as a ControlMode
 * ladder (Full -> StalePartial -> Blind) with recovery-SLO
 * accounting: MTTR, time-to-fail-safe, and caps-held-stale time.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "core/policy.hh"
#include "faults/controller_hooks.hh"
#include "obs/observability.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "telemetry/domain_manager.hh"
#include "telemetry/smbpbi.hh"

namespace polca::core {

/**
 * How much of the world the manager can currently see.  The ladder
 * only descends on evidence (stale telemetry, a crash) and only
 * returns to Full on a delivered reading.
 */
enum class ControlMode
{
    Full,         ///< fresh telemetry, acting normally
    StalePartial, ///< telemetry stale past staleWarnTimeout, or
                  ///< freshly restarted and re-asserting old state
    Blind,        ///< fail-safe or crashed: no trustworthy inputs
};

const char *toString(ControlMode mode);

/** Latency/reliability parameters of the manager's control paths. */
struct ManagerOptions
{
    /** OOB capping command latency (Table 2: up to 40 s). */
    sim::Tick oobCommandLatency;

    /** Power brake actuation latency (Table 2: 5 s). */
    sim::Tick brakeLatency;

    /** Minimum time the brake is held before release is considered
     *  (limits brake-release thrash under sustained overload). */
    sim::Tick minBrakeHold;

    /** Probability an OOB capping command fails silently. */
    double smbpbiFailureProbability;

    /** Extra wait past the command latency before state
     *  verification triggers a re-issue. */
    sim::Tick verifySlack;

    /**
     * Cap/uncap decisions use a trailing mean of the readings in
     * this window; raw 2 s readings swing several percent from
     * prompt-phase multiplexing and would thrash the thresholds.
     * The brake decision always uses the raw reading (safety).
     */
    sim::Tick decisionSmoothingWindow;

    /** Minimum time a rule stays active before release is
     *  considered (uncapping is conservative; capping is not). */
    sim::Tick minRuleDwell;

    /**
     * Safety watchdog: a self-scheduled heartbeat, independent of
     * telemetry callbacks, that notices when readings stop arriving.
     * Without it a telemetry blackout freezes the manager in
     * whatever state it was in — the brake can never engage while
     * row power spikes unboundedly.
     */
    bool watchdogEnabled;

    /** Heartbeat cadence of the watchdog check. */
    sim::Tick watchdogInterval;

    /** Telemetry staleness that triggers fail-safe: no reading for
     *  this long after start().  The default (15 missed 2 s
     *  readings) is far outside what the benign i.i.d. dropout of
     *  Section 3.3 produces, so only real blackouts trip it. */
    sim::Tick watchdogTimeout;

    /** Telemetry staleness at which the manager degrades to
     *  StalePartial mode (an early-warning rung well before the
     *  fail-safe timeout). */
    sim::Tick staleWarnTimeout;

    /** In fail-safe, also engage the power brake (the brake line is
     *  a dedicated hardware path that survives BMC outages).  The
     *  policy's powerBrakeEnabled still gates this. */
    bool failSafeEngageBrake;

    /** Per-channel circuit breaker: consecutive re-issues on one
     *  OOB channel before it is flagged as needing attention. */
    std::uint32_t channelFlagThreshold;

    ManagerOptions()
        : oobCommandLatency(sim::secondsToTicks(40)),
          brakeLatency(sim::secondsToTicks(5)),
          minBrakeHold(sim::secondsToTicks(45)),
          smbpbiFailureProbability(0.0),
          verifySlack(sim::secondsToTicks(4)),
          decisionSmoothingWindow(sim::secondsToTicks(30)),
          minRuleDwell(sim::secondsToTicks(60)),
          watchdogEnabled(true),
          watchdogInterval(sim::secondsToTicks(2)),
          watchdogTimeout(sim::secondsToTicks(30)),
          staleWarnTimeout(sim::secondsToTicks(10)),
          failSafeEngageBrake(true),
          channelFlagThreshold(3)
    {}
};

/**
 * Threshold-policy power manager over one row.
 */
class PowerManager : public faults::ControllerHooks
{
  public:
    /**
     * Durable controller state, persisted on every crash.  This is
     * what a warm-restarted (or cold-standby) controller rehydrates
     * from so it resumes from last-known caps instead of blind.
     * Deliberately small: only the externally-visible control
     * posture, not the smoothing window or per-channel history.
     */
    struct Snapshot
    {
        std::vector<bool> ruleActive;
        std::vector<sim::Tick> ruleActivatedAt;
        double lowCommandedMhz = 0.0;
        double highCommandedMhz = 0.0;
        bool brakeEngaged = false;
        sim::Tick brakeEngagedAt = 0;
    };

    PowerManager(sim::Simulation &sim, telemetry::DomainManager &telemetry,
                 double provisionedWatts, PolicyConfig policy,
                 sim::Rng rng, ManagerOptions options = ManagerOptions());

    /** Register a control target in a priority pool (one per
     *  server); call before start(). */
    void addTarget(workload::Priority pool,
                   telemetry::ClockControllable *target);

    /**
     * Register decision counters, the reading-gap histogram (how
     * stale the data driving each decision was), and rule /
     * brake / fail-safe trace events with @p obs; also attaches
     * every OOB channel (present and future — order relative to
     * addTarget does not matter).  Low-pool channels trace on
     * tracks 0..n, high-pool channels on tracks 100+.
     */
    void attachObservability(obs::Observability *obs);

    /** Subscribe to telemetry, arm the watchdog, begin managing. */
    void start();

    /** OOB command channels of a pool (fault injection / tests). */
    std::vector<telemetry::SmbpbiController *>
    channels(workload::Priority pool);

    const PolicyConfig &policy() const { return policy_; }
    double provisionedWatts() const { return provisionedWatts_; }

    /** @name Statistics */
    /** @{ */
    /** Reactive brake engagements (measured power hit the brake
     *  threshold).  Precautionary fail-safe engagements are counted
     *  under failSafeEntries() instead, so this stays comparable to
     *  the paper's brake-event metric. */
    std::uint64_t powerBrakeEvents() const { return brakeEvents_; }
    std::uint64_t capCommands() const { return capCommands_; }
    std::uint64_t uncapCommands() const { return uncapCommands_; }
    std::uint64_t reissuedCommands() const { return reissued_; }

    /** Total time the pool has spent under a non-zero desired lock. */
    sim::Tick lockedTicks(workload::Priority pool) const;

    /** Desired lock (MHz, 0 = none) currently commanded to a pool. */
    double desiredLockMhz(workload::Priority pool) const;

    /** @return true while the power brake is engaged. */
    bool brakeEngaged() const { return brakeEngaged_; }

    /** @name Watchdog / fail-safe */
    /** @{ */
    /** @return true while the manager is flying blind in fail-safe. */
    bool failSafeActive() const { return failSafe_; }

    /** Times the watchdog declared telemetry stale. */
    std::uint64_t failSafeEntries() const { return failSafeEntries_; }

    /** Total time spent in fail-safe. */
    sim::Tick failSafeTicks() const;

    /** OOB channels flagged by the re-issue circuit breaker. */
    std::uint64_t flaggedChannels() const { return flaggedChannels_; }

    /** @return true if channel @p index of @p pool is flagged. */
    bool channelFlagged(workload::Priority pool,
                        std::size_t index) const;
    /** @} */

    /** @name Controller crash / restart (faults::ControllerHooks) */
    /** @{ */
    /** Crash the controller process: snapshot durable state, wipe
     *  process memory, kill the watchdog, go Blind.  In-flight OOB
     *  commands and the hardware brake line survive. */
    void controllerCrash() override;

    /** Bring a replacement controller up.  Warm restarts rehydrate
     *  from the crash-time snapshot and re-assert it down every
     *  channel; cold restarts have no snapshot and enter fail-safe
     *  until telemetry proves the world out. */
    void controllerRestart(bool coldRestart) override;

    /** A crashed server came back: its applied OOB state was wiped
     *  by the reboot, so reset the channel's re-issue/flag history
     *  (it described the dead server) and re-assert the pool's lock
     *  and brake on that channel. */
    void serverRestarted(telemetry::ClockControllable *target) override;

    /** Capture the durable state a restart would rehydrate from. */
    Snapshot snapshot() const;

    /** @return true while the controller process is down. */
    bool crashed() const { return crashed_; }

    /** Start of the current controller incarnation (start() or the
     *  latest restart). */
    sim::Tick aliveSince() const { return aliveSince_; }

    /** Current visibility rung. */
    ControlMode mode() const { return mode_; }

    /** Mode-ladder transitions (each one is also a trace event). */
    std::uint64_t modeTransitions() const { return modeTransitions_; }

    /** Controller crash events suffered. */
    std::uint64_t controllerCrashes() const
    {
        return controllerCrashes_;
    }

    /** Recoveries completed (first delivered reading after a
     *  restart). */
    std::uint64_t controllerRecoveries() const
    {
        return controllerRecoveries_;
    }

    /** Total time the controller process was down. */
    sim::Tick controllerDownTicks() const
    {
        return controllerDownTicks_;
    }

    /** Total / worst-case crash-to-first-reading recovery time. */
    sim::Tick mttrTotalTicks() const { return mttrTotalTicks_; }
    sim::Tick mttrMaxTicks() const { return mttrMaxTicks_; }

    /** Worst staleness at the moment fail-safe engaged (how long
     *  the row ran unprotected before the watchdog acted). */
    sim::Tick timeToFailSafeMaxTicks() const
    {
        return timeToFailSafeMax_;
    }

    /** Time caps/brake were held while visibility was degraded
     *  (StalePartial or Blind), including controller downtime with
     *  caps frozen in place. */
    sim::Tick capsHeldStaleTicks() const
    {
        return capsHeldStaleTicks_;
    }

    /** Total time spent in StalePartial mode. */
    sim::Tick staleTicks() const;

    /** Total time the power brake has been engaged. */
    sim::Tick brakeTicks() const;
    /** @} */

  private:
    struct PoolState
    {
        std::vector<telemetry::ClockControllable *> targets;
        std::vector<std::unique_ptr<telemetry::SmbpbiController>>
            channels;
        std::vector<std::uint32_t> consecutiveReissues;
        std::vector<bool> flagged;
        double commandedMhz = 0.0;      ///< last commanded lock
        sim::Tick lastCommandTime = -1;
        sim::Tick lockedTicks = 0;
    };

    /** The smbpbi.* handles of obs_, resolved at the first channel
     *  attached to it (null handles while obs_ is null). */
    const telemetry::SmbpbiController::ObsHandles &channelObs();

    void onReading(sim::Tick now, double watts);
    void updateRuleStates(sim::Tick now, double utilization);
    void applyDesiredLocks(sim::Tick now);
    void verifyApplied(sim::Tick now, PoolState &pool);
    void engageBrake(sim::Tick now, bool countEvent);
    void releaseBrake();
    void watchdogCheck(sim::Tick now);
    void enterFailSafe(sim::Tick now);
    void exitFailSafe(sim::Tick now);
    void escalateAllRules(sim::Tick now);
    void setMode(sim::Tick now, ControlMode mode);
    bool capsHeld() const;
    PoolState &poolState(workload::Priority pool);
    const PoolState &poolState(workload::Priority pool) const;

    sim::Simulation &sim_;
    telemetry::DomainManager &telemetry_;
    double provisionedWatts_;
    PolicyConfig policy_;
    sim::Rng rng_;
    ManagerOptions options_;

    PoolState lowPool_;
    PoolState highPool_;
    std::vector<bool> ruleActive_;
    std::vector<sim::Tick> ruleActivatedAt_;
    std::deque<std::pair<sim::Tick, double>> recentReadings_;
    double smoothedSum_ = 0.0;
    bool started_ = false;
    bool brakeEngaged_ = false;
    sim::Tick brakeEngagedAt_ = 0;
    sim::Tick lastReadingTime_ = 0;
    std::unique_ptr<sim::Simulation::PeriodicTask> watchdog_;
    bool failSafe_ = false;
    sim::Tick failSafeEnteredAt_ = 0;

    ControlMode mode_ = ControlMode::Full;
    sim::Tick modeSince_ = 0;
    bool crashed_ = false;
    sim::Tick crashedAt_ = 0;
    sim::Tick aliveSince_ = 0;
    bool recovering_ = false;
    Snapshot persistedSnapshot_;

    std::uint64_t brakeEvents_ = 0;
    std::uint64_t capCommands_ = 0;
    std::uint64_t uncapCommands_ = 0;
    std::uint64_t reissued_ = 0;
    std::uint64_t failSafeEntries_ = 0;
    sim::Tick failSafeTicks_ = 0;
    std::uint64_t flaggedChannels_ = 0;
    std::uint64_t modeTransitions_ = 0;
    std::uint64_t controllerCrashes_ = 0;
    std::uint64_t controllerRecoveries_ = 0;
    sim::Tick controllerDownTicks_ = 0;
    sim::Tick mttrTotalTicks_ = 0;
    sim::Tick mttrMaxTicks_ = 0;
    sim::Tick timeToFailSafeMax_ = 0;
    sim::Tick capsHeldStaleTicks_ = 0;
    sim::Tick staleTicks_ = 0;
    sim::Tick brakeTicks_ = 0;

    obs::Observability *obs_ = nullptr;
    telemetry::SmbpbiController::ObsHandles channelObs_;
    obs::TraceRecorder *trace_ = nullptr;
    obs::Counter *capStat_ = nullptr;
    obs::Counter *uncapStat_ = nullptr;
    obs::Counter *reissueStat_ = nullptr;
    obs::Counter *brakeStat_ = nullptr;
    obs::Counter *failSafeStat_ = nullptr;
    obs::Counter *flaggedStat_ = nullptr;
    obs::Counter *modeStat_ = nullptr;
    obs::Histogram *decisionGapStat_ = nullptr;
    obs::LogHistogram *brakeDwellStat_ = nullptr;
    obs::LogHistogram *mttrStat_ = nullptr;
};

} // namespace polca::core

