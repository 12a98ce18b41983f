/**
 * @file
 * Online safety-invariant monitor for chaos campaigns.
 *
 * The chaos engine (faults::generateChaosPlan) makes runs hostile;
 * this monitor makes them falsifiable.  It rides the event queue
 * beside the power manager — never through it — and checks, every
 * tick of its own clock, the invariants the paper's guardrails
 * (Section 3.3, Section 6.3) promise: raw row power stays inside
 * the breaker trip envelope, fail-safe engages within a bounded
 * time of telemetry going stale, caps release within a bounded time
 * of load subsiding, commanded caps never go below the policy
 * floor, and the perf cost (brake time) stays within budget.  Every
 * violation is recorded with its sim-time stamp so a failing seed
 * reproduces to the exact tick.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/power_manager.hh"
#include "obs/observability.hh"
#include "sim/simulation.hh"
#include "telemetry/domain_manager.hh"

namespace polca::core {

/** Scenario-file knobs for the monitor ([safety] section). */
struct SafetyOptions
{
    /** Master switch: arm the monitor for the run. */
    bool monitor = false;

    /** Cadence of the invariant sweep. */
    sim::Tick checkInterval = sim::secondsToTicks(1);

    /** Grace past the manager's watchdogTimeout before a missing
     *  fail-safe becomes a violation (covers the watchdog's own
     *  heartbeat quantization). */
    sim::Tick failSafeMargin = sim::secondsToTicks(6);

    /** Maximum time caps/brake may stay applied after row load
     *  subsides below every release threshold (with telemetry
     *  healthy and the controller alive). */
    sim::Tick capReleaseDeadline = sim::secondsToTicks(600);

    /** Maximum fraction of the run the power brake may be engaged
     *  (the perf-loss budget). */
    double maxBrakeTimeFraction = 0.5;
};

/** The invariants the monitor checks. */
enum class SafetyInvariant
{
    BreakerEnvelope,  ///< raw power exceeded the trip envelope
    FailSafeDeadline, ///< telemetry stale, fail-safe never engaged
    CapRelease,       ///< load subsided, caps never released
    CapFloor,         ///< commanded cap below the policy floor
    PerfBudget,       ///< brake time exceeded the perf-loss budget
};

const char *toString(SafetyInvariant invariant);

/** One recorded invariant breach. */
struct SafetyViolation
{
    SafetyInvariant invariant;
    sim::Tick at = 0;   ///< sim time the breach was detected
    double value = 0.0; ///< observed quantity (watts, seconds, ...)
    double limit = 0.0; ///< bound it broke
};

/**
 * Armed once per run; checks invariants on its own periodic clock
 * plus a finish() pass for whole-run budgets.
 */
class SafetyMonitor
{
  public:
    /** Derived invariant bounds (the experiment harness computes
     *  these from row/policy/manager config). */
    struct Limits
    {
        /** Breaker trip envelope on raw row power (W); excursions
         *  shorter than breakerGrace are tolerated, mirroring the
         *  breaker's own trip delay. */
        double breakerLimitWatts = 0.0;
        sim::Tick breakerGrace = 0;

        /** Staleness bound: telemetry older than this with no
         *  fail-safe active is a violation. */
        sim::Tick failSafeDeadline = 0;

        /** Caps must be fully released within this long of the row
         *  going quiet. */
        sim::Tick capReleaseDeadline = 0;

        /** Deepest clock lock any policy rule may command (MHz);
         *  0 disables the floor check. */
        double capFloorMhz = 0.0;

        /** Utilization below which the row counts as quiet (min of
         *  every release threshold, so no rule has a reason to stay
         *  active). */
        double quietUtilization = 0.0;

        /** Brake-time budget as a fraction of the run. */
        double maxBrakeTimeFraction = 1.0;

        sim::Tick checkInterval = sim::secondsToTicks(1);
        double provisionedWatts = 0.0;
    };

    /**
     * @param rawPower samples ground-truth row power (not the
     *        faultable telemetry path — the monitor must see what
     *        the breaker sees).
     * @param manager may be null (unmanaged run): only the breaker
     *        envelope is checked.
     */
    SafetyMonitor(sim::Simulation &sim, Limits limits,
                  std::function<double()> rawPower,
                  PowerManager *manager);

    /** Track delivered telemetry and quiet episodes. */
    void attachTelemetry(telemetry::DomainManager &telemetry);

    /** Register the violation counter and trace events. */
    void attachObservability(obs::Observability *obs);

    /** Arm the periodic invariant sweep. */
    void start();

    /** Whole-run budget checks; call once when the run ends. */
    void finish(sim::Tick end);

    const std::vector<SafetyViolation> &violations() const
    {
        return violations_;
    }

  private:
    void check(sim::Tick now);
    void record(SafetyInvariant invariant, sim::Tick at, double value,
                double limit);

    sim::Simulation &sim_;
    Limits limits_;
    std::function<double()> rawPower_;
    PowerManager *manager_;
    std::unique_ptr<sim::Simulation::PeriodicTask> sweep_;
    bool started_ = false;
    bool finished_ = false;

    sim::Tick lastDelivered_ = 0;
    bool excursionActive_ = false;  ///< raw power above envelope
    sim::Tick excursionSince_ = 0;
    bool excursionReported_ = false;
    bool staleReported_ = false;
    bool quiet_ = false;            ///< row below quietUtilization
    sim::Tick quietSince_ = 0;
    bool quietReported_ = false;
    bool floorReportedLow_ = false;
    bool floorReportedHigh_ = false;

    std::vector<SafetyViolation> violations_;
    obs::TraceRecorder *trace_ = nullptr;
    obs::Counter *violationStat_ = nullptr;
};

} // namespace polca::core
