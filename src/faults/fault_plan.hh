/**
 * @file
 * Declarative fault scenarios for the control plane POLCA rides on.
 *
 * The paper's telemetry and actuation paths are explicitly hostile:
 * 40 s capping latency, commands that fail "without signaling
 * completion or errors", and 2 s row telemetry that "may sometimes
 * fail" (Section 3.3).  A FaultPlan captures a concrete instance of
 * that hostility — blackout windows, bursty reading loss, sensor
 * corruption, correlated SMBPBI outages, server crashes — as plain
 * data that faults::FaultInjector executes against a running
 * simulation, deterministically under a fixed sim::Rng seed.
 */

#pragma once

#include <string>
#include <vector>

#include "sim/types.hh"

namespace polca::faults {

/** Telemetry goes completely dark for [start, start + duration). */
struct BlackoutWindow
{
    sim::Tick start = 0;
    sim::Tick duration = 0;
};

/**
 * Bursty reading loss: a Gilbert–Elliott two-state channel advanced
 * once per scheduled reading.  Unlike the i.i.d. dropout the row
 * manager models natively, losses cluster into streaks — the case
 * that actually starves a telemetry-driven controller.
 */
struct BurstyLoss
{
    bool enabled = false;
    double enterBurstProbability = 0.0;  ///< good -> burst, per reading
    double exitBurstProbability = 1.0;   ///< burst -> good, per reading
    double goodLossProbability = 0.0;    ///< loss while in good state
    double burstLossProbability = 1.0;   ///< loss while in burst state
};

/** How a corrupted sensor mangles the reading it reports. */
enum class SensorFaultMode
{
    Bias,         ///< constant additive offset
    Noise,        ///< zero-mean Gaussian noise
    StuckAtLast,  ///< repeats the last pre-fault value
};

const char *toString(SensorFaultMode mode);

/** Sensor corruption active over [start, start + duration). */
struct SensorFault
{
    sim::Tick start = 0;
    sim::Tick duration = 0;
    SensorFaultMode mode = SensorFaultMode::Bias;
    double biasWatts = 0.0;         ///< Bias mode offset
    double noiseStddevWatts = 0.0;  ///< Noise mode sigma
};

/**
 * Correlated OOB outage over [start, start + duration): every
 * attached SMBPBI channel silently swallows capping commands (one
 * failing BMC aggregator takes out a whole row's command path).
 * The power-brake hardware line is unaffected.
 */
struct OobOutage
{
    sim::Tick start = 0;
    sim::Tick duration = 0;
};

/** One server crash/restart event. */
struct ServerCrash
{
    sim::Tick at = 0;
    sim::Tick downtime = 0;  ///< restore at `at + downtime`
    int serverIndex = 0;     ///< index into the attached server list

    /** The server never restarts (deliberately dark for the rest of
     *  the run).  A crash with no restart must be marked permanent
     *  explicitly — and a permanent crash must leave downtime at 0 —
     *  or the plan is rejected as degenerate. */
    bool permanent = false;
};

/**
 * The power-management controller process dies at `at` and a
 * replacement comes up `downtime` later.  A warm restart rehydrates
 * from the controller's persisted snapshot (resumes from last-known
 * caps); a cold restart has no snapshot and must start blind.
 */
struct ControllerCrash
{
    sim::Tick at = 0;
    sim::Tick downtime = 0;  ///< replacement up at `at + downtime`
    bool coldRestart = false;  ///< no snapshot to rehydrate from
};

/** A complete scenario. */
struct FaultPlan
{
    std::vector<BlackoutWindow> blackouts;
    BurstyLoss burstyLoss;
    std::vector<SensorFault> sensorFaults;
    std::vector<OobOutage> oobOutages;
    std::vector<ServerCrash> crashes;
    std::vector<ControllerCrash> controllerCrashes;

    /** @return true when the plan injects nothing. */
    bool empty() const;

    /**
     * Structural problems that make the plan degenerate: windows of
     * zero or negative length, overlapping blackout windows,
     * overlapping downtime on one server, overlapping controller
     * crashes, a crash with no restart that is not marked permanent,
     * probabilities outside [0,1].  Empty means well-formed.  The
     * scenario layer re-runs these checks with line-precise
     * diagnostics; this form serves programmatic plan builders.
     */
    std::vector<std::string> problems() const;

    /** Fatal() on the first problems() entry. */
    void validate() const;
};

/** A canned fault scenario, for the CLI, the scenario layer's
 *  `[faults] scenario` key, the fault_scenarios example, and
 *  apples-to-apples comparisons. */
struct FaultScenario
{
    std::string name;
    std::string description;  ///< what it injects, one line

    /** The plan, scaled to a run of @p duration (> 0); crash
     *  scenarios pick server indices below @p numServers. */
    FaultPlan (*build)(sim::Tick duration, int numServers);
};

/** Every canned scenario, in usage-text order ("none" first). */
const std::vector<FaultScenario> &faultScenarios();

/** The plan of the canned scenario named @p name (validated);
 *  fatal() on unknown names or a non-positive @p duration. */
FaultPlan scenarioByName(const std::string &name, sim::Tick duration,
                         int numServers);

} // namespace polca::faults

