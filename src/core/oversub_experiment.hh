/**
 * @file
 * The oversubscription experiment harness (Section 6.4-6.6): build
 * the power-domain tree (the paper's flat row, or a `[topology]`
 * site), generate (or accept) a request trace per row scaled to its
 * deployed server count, attach a power manager with a policy to
 * every row, run, and report the paper's metrics — per-priority
 * p50/p99/max latency, throughput, and power-brake counts.  Every
 * row, the flat one included, is armed with the breaker the
 * `[topology]` row keys describe and read at the `[topology]`
 * telemetry cadence; each latency is stored once, in its row
 * dispatcher's per-priority sampler.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/topology.hh"
#include "core/policy.hh"
#include "core/power_manager.hh"
#include "core/safety_monitor.hh"
#include "faults/chaos.hh"
#include "faults/fault_plan.hh"
#include "obs/observability.hh"
#include "sim/stats.hh"
#include "sim/timeseries.hh"
#include "telemetry/breaker_model.hh"
#include "workload/diurnal.hh"
#include "workload/trace.hh"
#include "workload/workload_spec.hh"

namespace polca::core {

struct WarmupSnapshot;  // core/warmup_snapshot.hh

/** Observability knobs a scenario's [obs] section controls. */
struct ObsOptions
{
    /**
     * Cadence of interval stats snapshots (gem5 dumpresetstats
     * style): every `interval` of simulated time the registry is
     * snapshotted into Observability::interval, plus a final partial
     * snapshot at the run end.  0 disables interval stats.  Has no
     * effect unless an Observability sink is attached.
     */
    sim::Tick metricsInterval = 0;
};

/** Full experiment configuration. */
struct ExperimentConfig
{
    cluster::RowConfig row;

    /**
     * Hierarchical site topology ([topology] section).  Disabled,
     * the experiment runs the paper's single flat row, built from
     * `row` as the one-row tree whose root is the row; enabled, it
     * builds the heterogeneous servers → racks → rows → site tree
     * described by the groups (with `row` supplying the shared
     * per-server knobs).  Either way one harness runs every row's
     * serving cell under the tree's breakers and budgets.  The flat
     * row also reads its cadence (telemetryInterval) and its
     * breaker (rowBreakerLimitFraction, 0 = none, and
     * breakerTripDuration) from here; the harness fills the flat
     * row's RowConfig::telemetryInterval and lpServerFraction, so
     * `row`'s own values of both are never read.
     */
    cluster::TopologyConfig topology;

    PolicyConfig policy = PolicyConfig::polca();

    /** false = run without any power manager (unthrottled); true
     *  attaches one POLCA manager per row. */
    bool managed = true;

    sim::Tick duration = sim::secondsToTicks(7 * 24 * 3600.0);
    std::uint64_t seed = 42;

    /**
     * Warmup boundary ([sweep] warmup / experiment.warmup): the
     * control plane — power manager, fault injector, safety monitor
     * — is constructed and started at t = warmup instead of t = 0,
     * in *every* run with warmup > 0, fresh or branched.  The
     * physical world (servers, trace, telemetry, breaker, energy
     * metering) runs from t = 0 regardless.  0 (the default) keeps
     * the original everything-at-t=0 construction order, whose
     * trajectories the determinism suite pins bit-for-bit.
     *
     * With warmup > 0 the run must satisfy validateWarmupConfig():
     * chaos generation is rejected and every event-posting fault
     * (OOB outages, server crashes, controller crashes) must start
     * at or after the boundary — the injector does not exist before
     * it.  Window faults (blackouts, sensor corruption) may span
     * the boundary; only their post-warmup portion acts.
     */
    sim::Tick warmup = 0;

    /**
     * Branch this run from a warmup snapshot instead of simulating
     * the prefix (runtime-only, like `externalTrace`/`obs`; never
     * bound from scenario files).  The snapshot must have been
     * captured by a run with an identical physical configuration
     * and the same `warmup`; mismatches panic at restore time.
     */
    std::shared_ptr<const WarmupSnapshot> resumeFrom;

    /**
     * Invoked at the warmup boundary of a fresh warmup > 0 run with
     * the captured snapshot (runtime-only).  Capture is a pure read
     * of simulation state — a run with the hook and a run without
     * it produce byte-identical artifacts.
     */
    std::function<void(std::shared_ptr<const WarmupSnapshot>)>
        onWarmupSnapshot;

    /** Uniform workload power intensification (1.05 = the paper's
     *  +5 % robustness experiment). */
    double powerScaleFactor = 1.0;

    ManagerOptions manager;
    workload::DiurnalModel::Params diurnal;

    /** Optional externally-generated trace (must outlive the run);
     *  when null a trace is generated from `diurnal` and `seed`,
     *  scaled to the deployed server count. */
    const workload::Trace *externalTrace = nullptr;

    /** Record the 2 s row power series into the result (Fig 16);
     *  in site mode the site's series plus one per row (the
     *  compositional site_power.csv). */
    bool recordRowSeries = false;

    /** Workload mix (defaults to Table 6); Fig 15b sweeps the
     *  low- to high-priority ratio by overriding this.  The flat
     *  row's LP pool is sized to its low-priority *work* share
     *  (service-time weighted); site groups declare their split. */
    std::vector<workload::WorkloadSpec> mix =
        workload::paperWorkloadMix();

    /**
     * Fault scenario executed against the run (empty = ideal
     * sensing/actuation).  Stochastic faults derive from `seed`, so
     * a scenario replays deterministically.
     */
    faults::FaultPlan faultPlan;

    /**
     * Randomized fault generation on top of `faultPlan`: when
     * enabled, a chaos plan drawn deterministically from `seed` is
     * merged into the explicit plan before the run.
     */
    faults::ChaosConfig chaos;

    /** Arm the runtime safety-invariant monitor for the run. */
    SafetyOptions safety;

    /**
     * Observability sink (metrics + trace) threaded through every
     * component of the run; null runs unobserved (zero overhead).
     * Must outlive the call.  Gauge sources registered during the
     * run are frozen to plain values before returning, so the sink
     * stays dumpable after the simulated components are gone.
     */
    obs::Observability *obs = nullptr;

    /** Interval-stats cadence and friends (scenario [obs] section). */
    ObsOptions obsOptions;
};

/** Distribution summary of one priority class's latency. */
struct LatencyStats
{
    double p50 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
    std::uint64_t count = 0;

    static LatencyStats from(const sim::Sampler &sampler);
};

/**
 * Per-domain rollup of one site-mode run: one entry per non-leaf
 * tree node, in pre-order (site first, then each row followed by its
 * racks).  Feeds domains.csv and the `polcactl report` rollup table.
 * A flat-row run has none.
 */
struct DomainStats
{
    std::string path;   ///< dotted metric path ("site.row3.rack1")
    std::string level;  ///< "site" | "row" | "rack"
    int servers = 0;

    double provisionedWatts = 0.0;   ///< nameplate sum of leaf budgets
    double budgetWatts = 0.0;        ///< oversubscription budget
    double breakerLimitWatts = 0.0;  ///< 0 = no breaker at this level

    /** Over delivered telemetry readings at this domain. */
    double peakWatts = 0.0;
    double meanWatts = 0.0;

    /** @name Breaker accounting (zero when no breaker armed) */
    /** @{ */
    std::uint64_t breakerTrips = 0;
    std::uint64_t breakerNearTrips = 0;
    double overdrawWattSeconds = 0.0;
    double secondsAboveBudget = 0.0;
    /** @} */

    /** @name Serving-cell stats (rows only) */
    /** @{ */
    std::uint64_t completions = 0;
    double lowP99 = 0.0;
    double highP99 = 0.0;
    std::uint64_t capCommands = 0;
    std::uint64_t powerBrakeEvents = 0;
    /** @} */

    /** Safety breaches at this level: a row's monitor, or the
     *  breaker-envelope monitor of any other domain with an armed
     *  breaker (zero when the monitor is off). */
    std::uint64_t violations = 0;
};

/** One domain's recorded power trace (site mode, when recording). */
struct DomainPowerSeries
{
    std::string path;
    sim::TimeSeries series;
};

/** Everything a policy evaluation reports. */
struct ExperimentResult
{
    LatencyStats low;
    LatencyStats high;

    double lowThroughput = 0.0;    ///< completions per second
    double highThroughput = 0.0;

    std::uint64_t lowArrivals = 0;
    std::uint64_t highArrivals = 0;
    std::uint64_t lowCompletions = 0;
    std::uint64_t highCompletions = 0;

    std::uint64_t powerBrakeEvents = 0;
    std::uint64_t capCommands = 0;
    std::uint64_t uncapCommands = 0;
    std::uint64_t reissuedCommands = 0;

    double maxUtilization = 0.0;
    double meanUtilization = 0.0;

    /** @name Survival metrics (breaker, watchdog, faults) */
    /** @{ */
    std::uint64_t breakerTrips = 0;
    std::uint64_t breakerNearTrips = 0;
    sim::Tick firstBreakerTrip = -1;  ///< tick, -1 = never tripped
    sim::Tick ticksAboveProvisioned = 0;
    double overdrawWattSeconds = 0.0;
    sim::Tick longestOverLimitStreak = 0;

    std::uint64_t failSafeEntries = 0;   ///< watchdog stale events
    sim::Tick failSafeTicks = 0;         ///< time spent flying blind
    std::uint64_t flaggedChannels = 0;   ///< OOB circuit breaker

    std::uint64_t droppedReadings = 0;   ///< telemetry losses, total
    std::uint64_t corruptedReadings = 0;
    std::uint64_t crashesInjected = 0;
    std::uint64_t droppedRequests = 0;   ///< lost to server crashes
    /** @} */

    /** @name Controller failover / recovery SLOs */
    /** @{ */
    std::uint64_t controllerCrashes = 0;
    std::uint64_t controllerRecoveries = 0;
    sim::Tick controllerDownTicks = 0;
    sim::Tick mttrTotalTicks = 0;    ///< sum of crash-to-recovery
    sim::Tick mttrMaxTicks = 0;      ///< worst single recovery
    sim::Tick timeToFailSafeMaxTicks = 0;
    sim::Tick capsHeldStaleTicks = 0;
    sim::Tick staleTicks = 0;        ///< time in StalePartial mode
    sim::Tick brakeTicks = 0;        ///< total brake-engaged time
    std::uint64_t modeTransitions = 0;
    /** @} */

    /** Safety-monitor breaches (empty when the monitor is off or
     *  every invariant held). */
    std::vector<SafetyViolation> violations;

    /** Row energy over the run and its per-request share. */
    double energyKwh = 0.0;
    double energyPerRequestKj = 0.0;

    sim::Tick lpLockedTicks = 0;
    sim::Tick hpLockedTicks = 0;

    sim::TimeSeries rowPowerSeries;  ///< empty unless recorded

    /** @name Site-mode rollups (empty for flat-row runs) */
    /** @{ */
    /** Per-level stats, pre-order over the tree's non-leaf nodes. */
    std::vector<DomainStats> domains;

    /** Per-row power traces (recordRowSeries only); the site trace
     *  in rowPowerSeries is their compositional per-tick sum. */
    std::vector<DomainPowerSeries> domainPowerSeries;
    /** @} */
};

/** Run one experiment end to end. */
ExperimentResult runOversubExperiment(const ExperimentConfig &config);

/**
 * Fatal() unless the config's warmup/branch settings are coherent:
 * warmup within [0, duration), no chaos generation across the
 * boundary, no event-posting fault scheduled before it, and
 * `resumeFrom` only alongside a positive matching warmup.  Called
 * by runOversubExperiment(); exposed for the sweep runner's
 * fail-fast grouping pass.
 */
void validateWarmupConfig(const ExperimentConfig &config);

/**
 * The same configuration with management disabled: the unthrottled
 * reference against which latencies are normalized.
 */
ExperimentConfig unthrottledBaseline(ExperimentConfig config);

/** Latency ratios against a baseline (the paper's "normalized
 *  latency" y-axes). */
struct NormalizedLatency
{
    double p50 = 1.0;
    double p99 = 1.0;
    double max = 1.0;
};

NormalizedLatency normalizeLatency(const LatencyStats &value,
                                   const LatencyStats &baseline);

/** Check a normalized result against the Table 6 SLOs. */
bool meetsSlos(const NormalizedLatency &low,
               const NormalizedLatency &high,
               std::uint64_t powerBrakeEvents,
               const workload::SloSpec &slos);

} // namespace polca::core

