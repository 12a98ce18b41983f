/**
 * @file
 * The experiment-level snapshot taken at a run's warmup boundary.
 *
 * A sweep whose points differ only in control-plane configuration
 * (policy, manager, safety, faults) shares one physical trajectory
 * until the control plane starts at t = warmup: same seed, same
 * trace, same unmanaged power draw.  The harness simulates that
 * prefix once, captures every stateful component through its
 * Snapshottable save/restore protocol (sim/snapshot.hh), and forks
 * each sweep point — and each point's unthrottled baseline — from
 * the in-memory snapshot instead of re-simulating the prefix.
 *
 * A WarmupSnapshot deliberately contains only the *physical* world:
 * servers, dispatchers, telemetry, energy/breaker accounting, and
 * the observability values accumulated so far.  Control-plane
 * components (PowerManager, FaultInjector, SafetyMonitor) are never
 * captured because they do not exist before the boundary — in every
 * warmup run, fresh or branched, they are constructed and started
 * at t = warmup.  That construction-at-the-boundary rule is what
 * makes a branched run bit-identical to a fresh one.
 *
 * Snapshots are immutable once captured (always held as
 * shared_ptr<const WarmupSnapshot>), so any number of branches can
 * restore from one snapshot concurrently.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/dispatcher.hh"
#include "cluster/inference_server.hh"
#include "obs/interval_stats.hh"
#include "obs/metrics.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "telemetry/breaker_model.hh"
#include "telemetry/domain_manager.hh"
#include "telemetry/energy_meter.hh"
#include "workload/trace.hh"

namespace polca::core {

/**
 * Everything needed to resume a run from its warmup boundary.
 * Captured by the experiment harness over its one power-domain tree
 * (the flat row is the one-row tree); field vectors are ordered
 * deterministically so a rebuilt world can zip itself back together
 * without names:
 *
 *  - `servers`: pre-order over the tree's server leaves, what
 *    PowerDomain::servers() returns.
 *  - `dispatchers` and `traces`: one per row, Site::rows() order.
 *  - `domainManagers`/`breakers`: pre-order over the domains that
 *    own one.
 *  - `domainWatts`: per-domain telemetry accumulators, in the same
 *    pre-order over manager-owning domains.
 */
struct WarmupSnapshot
{
    /** Boundary time; a branch must be configured with the same
     *  `experiment.warmup`. */
    sim::Tick warmup = 0;

    /** Seed and horizon of the captured run.  A branch must match
     *  both: it adopts the snapshot's RNG state and its trace, which
     *  was generated from the seed over the whole horizon. */
    std::uint64_t seed = 0;
    sim::Tick duration = 0;

    /** Whether the captured run had an Observability sink attached.
     *  A branch with a sink can only fork from an observed snapshot
     *  (the warmup's metric values must exist to be restored). */
    bool hasObs = false;

    /** Event-queue counters at the boundary (sim substrate). */
    sim::Snapshot simState;

    /** Shared ownership of the generated traces, so branches skip
     *  regeneration.  Null when the run fed an external trace (the
     *  branch config carries the same pointer). */
    std::shared_ptr<const std::vector<workload::Trace>> traces;

    std::vector<cluster::Dispatcher::State> dispatchers;
    std::vector<cluster::InferenceServer::State> servers;
    std::vector<telemetry::DomainManager::State> domainManagers;
    std::vector<telemetry::BreakerModel::State> breakers;
    telemetry::EnergyMeter::State energy;

    /** Harness-local utilization accumulator (root scope). */
    sim::Accumulator utilization;

    /** Per-domain watts accumulators (see ordering note). */
    std::vector<sim::Accumulator> domainWatts;

    /** @name Observability values (populated when hasObs) */
    /** @{ */
    obs::MetricsRegistry::Values metrics;
    obs::IntervalStats intervalStats;
    sim::Simulation::PeriodicTask::State statsTask;
    /** @} */
};

} // namespace polca::core
