#include "core/oversub_experiment.hh"

#include <algorithm>
#include <chrono>
#include <map>

#include "core/contracts.hh"
#include "core/warmup_snapshot.hh"
#include "faults/fault_injector.hh"
#include "llm/phase_model.hh"
#include "sim/logging.hh"
#include "telemetry/energy_meter.hh"
#include "workload/trace_gen.hh"

namespace polca::core {

LatencyStats
LatencyStats::from(const sim::Sampler &sampler)
{
    LatencyStats stats;
    stats.count = sampler.count();
    if (sampler.empty())
        return stats;
    stats.p50 = sampler.quantile(0.50);
    stats.p99 = sampler.quantile(0.99);
    stats.max = sampler.max();
    return stats;
}

ExperimentConfig
unthrottledBaseline(ExperimentConfig config)
{
    config.managed = false;
    config.recordRowSeries = false;
    // The baseline is the ideal unthrottled reference: no injected
    // faults, so normalized latencies isolate the policy's cost.
    config.faultPlan = faults::FaultPlan();
    config.chaos.enabled = false;
    config.safety.monitor = false;
    return config;
}

namespace {

/** Merge a generated chaos plan into the explicit plan. */
void
mergeFaultPlans(faults::FaultPlan &into, faults::FaultPlan add)
{
    auto append = [](auto &dst, auto &src) {
        dst.insert(dst.end(), src.begin(), src.end());
    };
    append(into.blackouts, add.blackouts);
    append(into.sensorFaults, add.sensorFaults);
    append(into.oobOutages, add.oobOutages);
    append(into.crashes, add.crashes);
    append(into.controllerCrashes, add.controllerCrashes);
    if (add.burstyLoss.enabled)
        into.burstyLoss = add.burstyLoss;
}

/** The flat row's knobs resolved from the experiment config: the
 *  `[topology]` telemetry cadence, and an LP pool sized to the mix's
 *  low-priority work share. */
cluster::RowConfig
resolvedRowConfig(const ExperimentConfig &config)
{
    cluster::RowConfig rowConfig = config.row;
    rowConfig.telemetryInterval = config.topology.telemetryInterval;
    llm::PhaseModel phases(cluster::effectiveModelSpec(rowConfig));
    rowConfig.lpServerFraction =
        workload::TraceGenerator(config.mix).lowPriorityWorkShare(phases);
    return rowConfig;
}

/**
 * The deployment @p config describes, on the physical stream
 * sim.rng().fork(0xA110): the `[topology]` tree, or the flat `[row]`
 * as the one-row tree rooted at its row.  Flat row: the physical
 * stream is the row's own stream, and resolvedRowConfig() sets its
 * cadence and pool split (site groups declare their split).
 */
cluster::Site
buildSite(sim::Simulation &sim, const ExperimentConfig &config)
{
    sim::Rng physical = sim.rng().fork(0xA110);
    if (config.topology.enabled) {
        return cluster::Site(sim, config.topology, config.row, physical,
                             config.recordRowSeries);
    }
    return cluster::Site(sim, resolvedRowConfig(config), physical,
                         config.recordRowSeries);
}

/**
 * One run's live components over one power-domain tree: the
 * `[topology]` site, or the flat `[row]` as the one-row tree rooted
 * at its row.  Each flat-row special case (random streams, metric
 * names, the breaker, outputs) sits in one place below, marked
 * "Flat row".  The build/control-plane/capture/restore split exists
 * for the warmup-branch machinery; a warmup == 0 run assembles
 * everything in the original single-pass order, so its event
 * trajectory stays pinned bit-for-bit.
 */
struct World
{
    explicit World(const ExperimentConfig &cfg)
        : config(cfg), flat(!cfg.topology.enabled), sim(cfg.seed),
          site(buildSite(sim, cfg))
    {
    }

    const ExperimentConfig &config;
    const bool flat;  ///< the flat `[row]` deployment
    sim::Simulation sim;
    cluster::Site site;
    obs::Observability *obs = nullptr;

    /** Per-domain telemetry statistics, fed by manager listeners.
     *  Keyed by node for the rollup; snapshots enumerate them in
     *  deterministic pre-order instead of pointer order. */
    std::map<const cluster::PowerDomain *, sim::Accumulator> wattsAcc;

    /** One generated trace per row, Site::rows() order; shared so
     *  branches skip regeneration.  Null with an external trace. */
    std::shared_ptr<const std::vector<workload::Trace>> traces;

    std::unique_ptr<telemetry::EnergyMeter> energy;
    sim::Accumulator utilization;

    /** One per row, Site::rows() order; empty when unmanaged. */
    std::vector<std::unique_ptr<PowerManager>> managers;
    std::unique_ptr<faults::FaultInjector> injector;

    /** Every row, then every other domain with an armed breaker. */
    struct Monitor
    {
        const cluster::PowerDomain *domain;
        std::unique_ptr<SafetyMonitor> monitor;
    };
    std::vector<Monitor> monitors;

    std::unique_ptr<sim::Simulation::PeriodicTask> statsTask;
};

/** The trace row @p i feeds from. */
const workload::Trace &
rowTrace(const World &world, std::size_t i)
{
    return world.traces ? (*world.traces)[i] : *world.config.externalTrace;
}

void
attachObservability(World &world)
{
    obs::Observability *obs = world.obs;
    if (!obs)
        return;
    sim::Simulation &sim = world.sim;
    cluster::Site &site = world.site;
    // The root manager keeps the flat telemetry.* names in both
    // modes, so dashboards (and the report timeline) read the root
    // rollup from telemetry.latest_row_watts.
    site.root().manager()->attachObservability(obs);
    // Flat row: no per-domain namespaces; its breaker keeps the flat
    // breaker.* prefix (armFlatBreaker()).
    if (!world.flat) {
        site.root().visit([obs](cluster::PowerDomain &domain) {
            if (domain.isLeaf())
                return;
            if (domain.manager())
                domain.manager()->attachDomainObservability(
                    obs, domain.path());
            if (domain.breaker())
                domain.breaker()->attachObservability(
                    obs, domain.path() + ".breaker");
        });
    }
    for (cluster::Site::SiteRow &row : site.rows())
        row.dispatcher->attachObservability(obs);
    for (cluster::InferenceServer *server : site.root().servers())
        server->attachObservability(obs);
    // Sim-core stats: the sim layer cannot depend on obs, so the
    // harness registers gauge sources over the queue's own
    // accessors; freezeGauges() at the run end snapshots them.
    obs->metrics
        .gauge("sim.events_processed", "event callbacks executed")
        .setSource([&sim] {
            return static_cast<double>(sim.queue().numProcessed());
        });
    obs->metrics
        .gauge("sim.queue_high_water",
               "most events pending at once")
        .setSource([&sim] {
            return static_cast<double>(
                sim.queue().highWaterMark());
        });
    obs->metrics
        .gauge("sim.final_time_s", "simulated time at run end")
        .setSource(
            [&sim] { return sim::ticksToSeconds(sim.now()); });
}

/**
 * The traces the rows feed from: external, adopted from the snapshot
 * by a branch (instead of regenerating the identical ones), or
 * generated at an offered load matched to each row's deployed server
 * count (oversubscribed rows serve proportionally more traffic —
 * that is the point of adding servers).
 */
void
makeTraces(World &world, const WarmupSnapshot *resume)
{
    const ExperimentConfig &config = world.config;
    std::vector<cluster::Site::SiteRow> &rows = world.site.rows();
    if (config.externalTrace)
        return;
    if (resume) {
        POLCA_CHECK(resume->traces,
                    "warmup snapshot carries no traces but the branch "
                    "has no external trace either");
        POLCA_CHECK(resume->traces->size() == rows.size(),
                    "snapshot has ", resume->traces->size(),
                    " traces, the tree has ", rows.size(), " rows");
        world.traces = resume->traces;
        return;
    }
    sim::Rng traceMaster(config.seed ^ 0x7ace);
    workload::TraceGenerator generator(config.mix);
    auto traces = std::make_shared<std::vector<workload::Trace>>();
    traces->reserve(rows.size());
    for (cluster::Site::SiteRow &row : rows) {
        llm::PhaseModel phases(row.model);
        workload::TraceGenOptions traceOptions;
        traceOptions.duration = config.duration;
        traceOptions.numServers = row.domain->numServers();
        traceOptions.serviceSecondsPerRequest =
            generator.expectedServiceSeconds(phases);
        traceOptions.diurnal = config.diurnal;
        // Flat row: the master trace stream itself.  Site rows: keyed
        // by row *name*, so a row's offered load is invariant to the
        // rest of the site layout.
        traceOptions.seed = world.flat
            ? traceMaster.seed()
            : traceMaster.forkPath(row.name).seed();
        traces->push_back(generator.generate(traceOptions));
    }
    world.traces = std::move(traces);
}

void
buildManagers(World &world)
{
    const ExperimentConfig &config = world.config;
    if (!config.managed)
        return;
    // One POLCA manager per row, capping against the row's
    // *effective* budget: the row budget shrunk by any tighter
    // ancestor budget shared out pro rata (parent-budget awareness).
    for (cluster::Site::SiteRow &row : world.site.rows()) {
        // Flat row: the manager's stream forks from the simulation
        // root rather than from the row's stream.
        const sim::Rng &parent = world.flat ? world.sim.rng() : row.rng;
        auto manager = std::make_unique<PowerManager>(
            world.sim, *row.domain->manager(),
            row.domain->effectiveBudgetWatts(), config.policy,
            parent.fork(0x90CA), config.manager);
        if (world.obs)
            manager->attachObservability(world.obs);
        for (workload::Priority pool :
             {workload::Priority::Low, workload::Priority::High}) {
            for (cluster::InferenceServer *server :
                 row.domain->pool(pool))
                manager->addTarget(pool, server);
        }
        manager->start();
        world.managers.push_back(std::move(manager));
    }
}

/** Flat row: arm the physical row breaker on the root from the
 *  `[topology]` row keys, as a site arms each row's (0 = none).  It
 *  watches the raw electrical draw — not the row telemetry — so it
 *  keeps seeing power through telemetry blackouts. */
void
armFlatBreaker(World &world)
{
    const cluster::TopologyConfig &topology = world.config.topology;
    if (!world.flat || topology.rowBreakerLimitFraction <= 0.0)
        return;
    cluster::PowerDomain &root = world.site.root();
    root.armBreaker(topology.breaker(root.budgetWatts(),
                                     topology.rowBreakerLimitFraction));
    if (world.obs)
        root.breaker()->attachObservability(world.obs);
}

void
buildInjector(World &world)
{
    const ExperimentConfig &config = world.config;
    // Fault plan = explicit scenario faults plus (when enabled) a
    // chaos plan drawn from the run seed, so a chaos campaign
    // replays bit-identically.  Flat row only (site mode rejects
    // both), on streams forked from the simulation root.
    faults::FaultPlan plan = config.faultPlan;
    if (config.chaos.enabled) {
        sim::Rng chaosRng = world.sim.rng().fork(0xC4A0);
        mergeFaultPlans(plan,
                        faults::generateChaosPlan(
                            config.chaos, config.duration,
                            world.site.numServers(), chaosRng));
    }
    if (plan.empty())
        return;
    cluster::PowerDomain &root = world.site.root();
    world.injector = std::make_unique<faults::FaultInjector>(
        world.sim, plan, world.sim.rng().fork(0xFA17));
    if (world.obs)
        world.injector->attachObservability(world.obs);
    world.injector->attachTelemetry(*root.manager());
    world.injector->attachServers(root.servers());
    if (!world.managers.empty()) {
        PowerManager &manager = *world.managers.front();
        for (workload::Priority pool :
             {workload::Priority::Low, workload::Priority::High})
            world.injector->attachChannels(manager.channels(pool));
        world.injector->attachController(&manager);
    }
    world.injector->start();
}

SafetyMonitor::Limits
safetyLimits(const World &world, const cluster::PowerDomain &domain)
{
    const ExperimentConfig &config = world.config;
    SafetyMonitor::Limits limits;
    limits.provisionedWatts = domain.budgetWatts();
    // The trip envelope: the armed breaker, else the NEC-style
    // default a row breaker would have.
    if (const telemetry::BreakerModel *breaker = domain.breaker()) {
        limits.breakerLimitWatts = breaker->breakerLimitWatts();
        limits.breakerGrace = breaker->tripDuration();
    } else {
        limits.breakerLimitWatts = domain.budgetWatts() / 0.8;
        limits.breakerGrace = config.topology.breakerTripDuration;
    }
    limits.failSafeDeadline =
        config.manager.watchdogTimeout + config.safety.failSafeMargin;
    limits.capReleaseDeadline = config.safety.capReleaseDeadline;
    limits.maxBrakeTimeFraction = config.safety.maxBrakeTimeFraction;
    limits.checkInterval = config.safety.checkInterval;
    // Quiet = below every release threshold, so no rule (or the
    // brake) has any reason to stay engaged.
    limits.quietUtilization = config.policy.powerBrakeEnabled
        ? config.policy.powerBrakeReleaseFraction
        : 1.0;
    for (const ThresholdRule &rule : config.policy.rules) {
        limits.quietUtilization =
            std::min(limits.quietUtilization, rule.uncapFraction);
        if (limits.capFloorMhz == 0.0 ||
            rule.lockMhz < limits.capFloorMhz)
            limits.capFloorMhz = rule.lockMhz;
    }
    return limits;
}

void
buildMonitors(World &world)
{
    if (!world.config.safety.monitor)
        return;
    // A monitor watches ground-truth power (what the breaker sees)
    // and, beside a manager, delivered telemetry and the manager's
    // posture.
    auto arm = [&world](cluster::PowerDomain &domain,
                        PowerManager *manager) {
        auto monitor = std::make_unique<SafetyMonitor>(
            world.sim, safetyLimits(world, domain),
            [&domain] { return domain.powerWatts(); }, manager);
        if (world.obs)
            monitor->attachObservability(world.obs);
        if (manager)
            monitor->attachTelemetry(*domain.manager());
        monitor->start();
        world.monitors.push_back({&domain, std::move(monitor)});
    };
    std::vector<cluster::Site::SiteRow> &rows = world.site.rows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        arm(*rows[i].domain, i < world.managers.size()
                                 ? world.managers[i].get()
                                 : nullptr);
    }
    // Every other armed breaker (the site's supplies the headline
    // trip columns) gets a manager-less monitor: breaker envelope
    // only.
    world.site.root().visit([&arm](cluster::PowerDomain &domain) {
        if (domain.breaker() &&
            domain.level() != cluster::DomainLevel::Row)
            arm(domain, nullptr);
    });
}

/** The control plane, started at t = warmup in deferred runs:
 *  managers, then the injector, then the safety monitors — the same
 *  relative order a warmup == 0 run constructs them in. */
void
startControlPlane(World &world)
{
    buildManagers(world);
    buildInjector(world);
    buildMonitors(world);
}

/**
 * Assemble the physical world at t = 0.  With @p deferControl the
 * control plane is left for startControlPlane() at the warmup
 * boundary; without it every component is created inline in the
 * original (determinism-pinned) order.  With @p resume the traces
 * are adopted from the snapshot and not injected — restoreWorld()
 * re-arms the dispatchers' in-flight arrivals instead.
 */
void
buildWorld(World &world, bool deferControl, const WarmupSnapshot *resume)
{
    const ExperimentConfig &config = world.config;
    cluster::Site &site = world.site;
    cluster::PowerDomain &root = site.root();

    if (config.powerScaleFactor != 1.0) {
        for (cluster::InferenceServer *server : root.servers())
            server->setPowerScaleFactor(config.powerScaleFactor);
    }

    root.visit([&world, &config](cluster::PowerDomain &domain) {
        telemetry::DomainManager *manager = domain.manager();
        if (!manager)
            return;
        // One telemetry sample lands per interval for the whole run:
        // size each recording buffer up front so the steady state
        // never reallocates.
        manager->reserveSeries(config.duration);
        sim::Accumulator &acc = world.wattsAcc[&domain];
        manager->addListener(
            [&acc](sim::Tick, double watts) { acc.add(watts); });
    });

    world.obs = config.obs;
    attachObservability(world);
    makeTraces(world, resume);

    world.energy = std::make_unique<telemetry::EnergyMeter>(
        world.sim, [&root] { return root.powerWatts(); });
    world.energy->start();

    // Track utilization against the root budget independently of
    // management so that unthrottled baselines also report max/mean
    // utilization.
    sim::Accumulator &utilization = world.utilization;
    double budget = root.budgetWatts();
    root.manager()->addListener(
        [&utilization, budget](sim::Tick, double watts) {
            utilization.add(watts / budget);
        });

    if (!deferControl)
        buildManagers(world);
    armFlatBreaker(world);
    if (!deferControl) {
        buildInjector(world);
        buildMonitors(world);
    }

    if (!resume) {
        for (std::size_t i = 0; i < site.rows().size(); ++i)
            site.rows()[i].dispatcher->injectTrace(rowTrace(world, i));
    }

    // Interval stats: snapshot the registry on a fixed sim-time
    // cadence.  Counters are delta'd inside IntervalStats; the
    // registry itself is never reset, so the end-of-run cumulative
    // dump is unaffected and reconciles with the column sums.
    obs::Observability *obs = world.obs;
    if (obs && config.obsOptions.metricsInterval > 0) {
        world.statsTask = world.sim.every(
            config.obsOptions.metricsInterval, [obs](sim::Tick at) {
                obs->interval.snapshot(sim::ticksToSeconds(at),
                                       obs->metrics);
            });
    }
}

/** Capture the physical world at the warmup boundary (pure read).
 *  Domain-owned state is enumerated in pre-order over the tree, so
 *  the rebuilt world can zip itself back together positionally. */
WarmupSnapshot
captureSnapshot(World &world)
{
    WarmupSnapshot snap;
    snap.warmup = world.config.warmup;
    snap.seed = world.config.seed;
    snap.duration = world.config.duration;
    snap.simState.queue = world.sim.queue().captureState();
    snap.traces = world.traces;
    for (cluster::Site::SiteRow &row : world.site.rows())
        snap.dispatchers.push_back(row.dispatcher->saveState());
    for (cluster::InferenceServer *server : world.site.root().servers())
        snap.servers.push_back(server->saveState());
    world.site.root().visit([&](cluster::PowerDomain &domain) {
        if (domain.manager()) {
            snap.domainManagers.push_back(
                domain.manager()->saveState());
            snap.domainWatts.push_back(world.wattsAcc[&domain]);
        }
        if (domain.breaker())
            snap.breakers.push_back(domain.breaker()->saveState());
    });
    snap.energy = world.energy->saveState();
    snap.utilization = world.utilization;
    if (world.obs) {
        snap.hasObs = true;
        snap.metrics = world.obs->metrics.saveValues();
        snap.intervalStats = world.obs->interval;
        if (world.statsTask)
            snap.statsTask = world.statsTask->saveState();
    }
    return snap;
}

/** Rewind a freshly built (deferControl, resume) world onto the
 *  snapshot: adopt queue counters, restore component state, re-arm
 *  every pending callback with its original (when, seq). */
void
restoreWorld(World &world, const WarmupSnapshot &snapshot)
{
    const ExperimentConfig &config = world.config;
    cluster::Site &site = world.site;
    POLCA_CHECK(snapshot.warmup == config.warmup,
                "branching at warmup ", config.warmup,
                " from a snapshot captured at ", snapshot.warmup);
    POLCA_CHECK(snapshot.seed == config.seed,
                "branching seed ", config.seed,
                " from a snapshot captured with seed ", snapshot.seed);
    POLCA_CHECK(snapshot.duration == config.duration,
                "branching a run of duration ", config.duration,
                " from a snapshot of a run of duration ",
                snapshot.duration);
    POLCA_CHECK(!world.obs || snapshot.hasObs,
                "branching an observed run from an unobserved "
                "snapshot: the warmup's metric values are missing");
    POLCA_CHECK(snapshot.dispatchers.size() == site.rows().size(),
                "snapshot has ", snapshot.dispatchers.size(),
                " dispatchers, the tree has ", site.rows().size(),
                " rows");
    std::vector<cluster::InferenceServer *> servers =
        site.root().servers();
    POLCA_CHECK(snapshot.servers.size() == servers.size(),
                "snapshot has ", snapshot.servers.size(),
                " servers, the tree has ", servers.size());

    world.sim.queue().beginRestore(snapshot.simState.queue);
    for (std::size_t i = 0; i < site.rows().size(); ++i) {
        site.rows()[i].dispatcher->restoreState(
            snapshot.dispatchers[i], &rowTrace(world, i));
    }
    for (std::size_t i = 0; i < servers.size(); ++i)
        servers[i]->restoreState(snapshot.servers[i]);
    std::size_t managerIndex = 0;
    std::size_t breakerIndex = 0;
    site.root().visit([&](cluster::PowerDomain &domain) {
        if (domain.manager()) {
            POLCA_CHECK(managerIndex < snapshot.domainManagers.size(),
                        "snapshot is short of domain managers");
            domain.manager()->restoreState(
                snapshot.domainManagers[managerIndex]);
            world.wattsAcc[&domain] =
                snapshot.domainWatts[managerIndex];
            ++managerIndex;
        }
        if (domain.breaker()) {
            POLCA_CHECK(breakerIndex < snapshot.breakers.size(),
                        "snapshot is short of breakers");
            domain.breaker()->restoreState(
                snapshot.breakers[breakerIndex]);
            ++breakerIndex;
        }
    });
    POLCA_CHECK(managerIndex == snapshot.domainManagers.size() &&
                    breakerIndex == snapshot.breakers.size(),
                "snapshot carries more domain state than the tree");
    world.energy->restoreState(snapshot.energy);
    world.utilization = snapshot.utilization;

    std::size_t expectedLive = snapshot.simState.queue.liveEvents;
    if (world.obs) {
        world.obs->metrics.restoreValues(snapshot.metrics);
        world.obs->interval = snapshot.intervalStats;
        if (world.statsTask)
            world.statsTask->restoreState(snapshot.statsTask);
        else if (snapshot.statsTask.running)
            --expectedLive;
    } else if (snapshot.statsTask.running) {
        // Unobserved branch (e.g. an unthrottled baseline) of an
        // observed leader: the leader's stats sampler stays behind.
        // Interval seqs shift relative to the leader, but the stats
        // callback never touches model state and relative model
        // order is preserved, so the trajectory is value-identical
        // — and an unobserved run writes no artifacts that could
        // expose the absolute seq difference.
        --expectedLive;
    }
    world.sim.queue().endRestore(expectedLive);
}

/** Fleet latency over every row's serving cell.  One row reports its
 *  own samplers; several are merged, which copies every sample. */
void
collectLatency(std::vector<cluster::Site::SiteRow> &rows,
               ExperimentResult &result)
{
    if (rows.size() == 1) {
        const cluster::Dispatcher &dispatcher = *rows[0].dispatcher;
        result.low = LatencyStats::from(
            dispatcher.latencySeconds(workload::Priority::Low));
        result.high = LatencyStats::from(
            dispatcher.latencySeconds(workload::Priority::High));
        return;
    }
    sim::Sampler lowAll;
    sim::Sampler highAll;
    for (cluster::Site::SiteRow &row : rows) {
        const cluster::Dispatcher &dispatcher = *row.dispatcher;
        for (double v :
             dispatcher.latencySeconds(workload::Priority::Low).values())
            lowAll.add(v);
        for (double v :
             dispatcher.latencySeconds(workload::Priority::High).values())
            highAll.add(v);
    }
    result.low = LatencyStats::from(lowAll);
    result.high = LatencyStats::from(highAll);
}

/** Per-level rollup, pre-order so the site leads the table, and
 *  the per-row series beside the recorded site series. */
void
collectRollup(World &world, ExperimentResult &result)
{
    cluster::Site &site = world.site;
    std::map<const cluster::PowerDomain *, std::size_t> rowIndex;
    for (std::size_t i = 0; i < site.rows().size(); ++i)
        rowIndex[site.rows()[i].domain] = i;
    std::map<const cluster::PowerDomain *, const SafetyMonitor *>
        monitorOf;
    for (const World::Monitor &m : world.monitors)
        monitorOf[m.domain] = m.monitor.get();
    site.root().visit([&](const cluster::PowerDomain &domain) {
        if (domain.isLeaf())
            return;
        DomainStats stats;
        stats.path = domain.path();
        stats.level = cluster::toString(domain.level());
        stats.servers = domain.numServers();
        stats.provisionedWatts = domain.provisionedWatts();
        stats.budgetWatts = domain.budgetWatts();
        auto accIt = world.wattsAcc.find(&domain);
        if (accIt != world.wattsAcc.end() && accIt->second.count() > 0) {
            stats.peakWatts = accIt->second.max();
            stats.meanWatts = accIt->second.mean();
        }
        if (const telemetry::BreakerModel *breaker = domain.breaker()) {
            stats.breakerLimitWatts = breaker->breakerLimitWatts();
            stats.breakerTrips = breaker->trips();
            stats.breakerNearTrips = breaker->nearTrips();
            stats.overdrawWattSeconds = breaker->overdrawWattSeconds();
            stats.secondsAboveBudget = sim::ticksToSeconds(
                breaker->ticksAboveProvisioned());
        }
        auto monitorIt = monitorOf.find(&domain);
        if (monitorIt != monitorOf.end()) {
            stats.violations = static_cast<std::uint64_t>(
                monitorIt->second->violations().size());
        }
        auto rowIt = rowIndex.find(&domain);
        if (rowIt != rowIndex.end()) {
            std::size_t i = rowIt->second;
            const cluster::Dispatcher &dispatcher =
                *site.rows()[i].dispatcher;
            stats.completions =
                dispatcher.completions(workload::Priority::Low) +
                dispatcher.completions(workload::Priority::High);
            const sim::Sampler &low =
                dispatcher.latencySeconds(workload::Priority::Low);
            const sim::Sampler &high =
                dispatcher.latencySeconds(workload::Priority::High);
            if (!low.empty())
                stats.lowP99 = low.p99();
            if (!high.empty())
                stats.highP99 = high.p99();
            if (i < world.managers.size()) {
                stats.capCommands = world.managers[i]->capCommands();
                stats.powerBrakeEvents =
                    world.managers[i]->powerBrakeEvents();
            }
        }
        result.domains.push_back(std::move(stats));
    });
    if (!world.config.recordRowSeries)
        return;
    for (const cluster::Site::SiteRow &row : site.rows()) {
        DomainPowerSeries series;
        series.path = row.domain->path();
        series.series = row.domain->manager()->series();
        result.domainPowerSeries.push_back(std::move(series));
    }
}

/** Post-run bookkeeping and result extraction (shared by every
 *  execution mode). */
ExperimentResult
finishRun(World &world, std::chrono::steady_clock::time_point wallStart)
{
    const ExperimentConfig &config = world.config;
    obs::Observability *obs = world.obs;
    sim::Simulation &sim = world.sim;
    cluster::Site &site = world.site;

    for (World::Monitor &m : world.monitors)
        m.monitor->finish(config.duration);
    if (world.statsTask) {
        // Final partial interval at the run end (a no-op when the
        // cadence divides the duration exactly); after it the column
        // sums of every delta column equal the cumulative dump.
        obs->interval.snapshot(sim::ticksToSeconds(config.duration),
                               obs->metrics);
        world.statsTask->stop();
    }
    if (obs) {
        // Wall-clock throughput is inherently non-reproducible, so
        // it is a volatile gauge: visible via value(), skipped by
        // dump() to keep same-seed dumps byte-identical.
        double wallSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wallStart)
                .count();
        obs::Gauge &rate = obs->metrics.gauge(
            "sim.wallclock_events_per_s",
            "event callbacks per wall-clock second (volatile)");
        rate.setVolatile(true);
        rate.set(wallSeconds > 0.0
                     ? static_cast<double>(sim.queue().numProcessed()) /
                           wallSeconds
                     : 0.0);
        obs->metrics.freezeGauges();
    }

    ExperimentResult result;
    collectLatency(site.rows(), result);
    for (cluster::Site::SiteRow &row : site.rows()) {
        const cluster::Dispatcher &dispatcher = *row.dispatcher;
        result.lowThroughput +=
            dispatcher.throughput(workload::Priority::Low);
        result.highThroughput +=
            dispatcher.throughput(workload::Priority::High);
        result.lowArrivals +=
            dispatcher.arrivals(workload::Priority::Low);
        result.highArrivals +=
            dispatcher.arrivals(workload::Priority::High);
        result.lowCompletions +=
            dispatcher.completions(workload::Priority::Low);
        result.highCompletions +=
            dispatcher.completions(workload::Priority::High);
    }

    result.energyKwh = world.energy->kilowattHours();
    std::uint64_t completions =
        result.lowCompletions + result.highCompletions;
    if (completions > 0) {
        result.energyPerRequestKj = world.energy->joules() / 1000.0 /
            static_cast<double>(completions);
    }

    if (world.utilization.count() > 0) {
        result.maxUtilization = world.utilization.max();
        result.meanUtilization = world.utilization.mean();
    }

    for (const auto &manager : world.managers) {
        result.powerBrakeEvents += manager->powerBrakeEvents();
        result.capCommands += manager->capCommands();
        result.uncapCommands += manager->uncapCommands();
        result.reissuedCommands += manager->reissuedCommands();
        result.lpLockedTicks +=
            manager->lockedTicks(workload::Priority::Low);
        result.hpLockedTicks +=
            manager->lockedTicks(workload::Priority::High);
        result.failSafeEntries += manager->failSafeEntries();
        result.failSafeTicks += manager->failSafeTicks();
        result.flaggedChannels += manager->flaggedChannels();
        result.controllerCrashes += manager->controllerCrashes();
        result.controllerRecoveries += manager->controllerRecoveries();
        result.controllerDownTicks += manager->controllerDownTicks();
        result.mttrTotalTicks += manager->mttrTotalTicks();
        result.mttrMaxTicks =
            std::max(result.mttrMaxTicks, manager->mttrMaxTicks());
        result.timeToFailSafeMaxTicks =
            std::max(result.timeToFailSafeMaxTicks,
                     manager->timeToFailSafeMaxTicks());
        result.capsHeldStaleTicks += manager->capsHeldStaleTicks();
        result.staleTicks += manager->staleTicks();
        result.brakeTicks += manager->brakeTicks();
        result.modeTransitions += manager->modeTransitions();
    }

    for (const World::Monitor &m : world.monitors) {
        const std::vector<SafetyViolation> &violations =
            m.monitor->violations();
        result.violations.insert(result.violations.end(),
                                 violations.begin(), violations.end());
    }

    // The headline breaker columns report the root breaker: the
    // flat row's, or the upstream protection the whole site must
    // not trip.
    if (const telemetry::BreakerModel *breaker = site.root().breaker()) {
        result.breakerTrips = breaker->trips();
        result.breakerNearTrips = breaker->nearTrips();
        result.firstBreakerTrip = breaker->firstTripTime();
        result.ticksAboveProvisioned = breaker->ticksAboveProvisioned();
        result.overdrawWattSeconds = breaker->overdrawWattSeconds();
        result.longestOverLimitStreak =
            breaker->longestOverLimitStreak();
    }
    if (world.injector) {
        result.corruptedReadings = world.injector->corruptedReadings();
        result.crashesInjected = world.injector->crashesInjected();
    }

    // Flat row: no per-level rollup (domains.csv) and no per-row
    // columns beside the recorded series (site_power.csv).
    if (!world.flat)
        collectRollup(world, result);

    site.root().visit([&result](const cluster::PowerDomain &domain) {
        if (domain.manager())
            result.droppedReadings +=
                domain.manager()->droppedReadings();
    });
    for (const cluster::InferenceServer *server : site.root().servers())
        result.droppedRequests += server->droppedRequests();

    if (config.recordRowSeries)
        result.rowPowerSeries = site.root().manager()->series();
    return result;
}

} // namespace

void
validateWarmupConfig(const ExperimentConfig &config)
{
    if (config.warmup < 0)
        sim::fatal("experiment.warmup ", config.warmup,
                   " is negative");
    if (config.resumeFrom && config.warmup <= 0) {
        sim::fatal("resumeFrom requires a positive warmup (the "
                   "snapshot's boundary time)");
    }
    if (config.warmup == 0)
        return;
    if (config.warmup >= config.duration) {
        sim::fatal("experiment.warmup ",
                   sim::ticksToSeconds(config.warmup),
                   " s must end before the run's duration ",
                   sim::ticksToSeconds(config.duration), " s");
    }
    if (config.chaos.enabled) {
        sim::fatal("chaos generation cannot be combined with a "
                   "warmup boundary: generated faults may land "
                   "before t=warmup, where no injector exists");
    }
    // Event-posting faults are scheduled by the injector when it
    // starts at t=warmup; an entry before the boundary would post
    // into the past.  Window faults (blackouts, sensor corruption)
    // are pure time filters and may span the boundary.
    for (const faults::OobOutage &outage : config.faultPlan.oobOutages) {
        if (outage.start < config.warmup) {
            sim::fatal("OOB outage at ",
                       sim::ticksToSeconds(outage.start),
                       " s starts before the warmup boundary at ",
                       sim::ticksToSeconds(config.warmup), " s");
        }
    }
    for (const faults::ServerCrash &crash : config.faultPlan.crashes) {
        if (crash.at < config.warmup) {
            sim::fatal("server crash at ",
                       sim::ticksToSeconds(crash.at),
                       " s starts before the warmup boundary at ",
                       sim::ticksToSeconds(config.warmup), " s");
        }
    }
    for (const faults::ControllerCrash &crash :
         config.faultPlan.controllerCrashes) {
        if (crash.at < config.warmup) {
            sim::fatal("controller crash at ",
                       sim::ticksToSeconds(crash.at),
                       " s starts before the warmup boundary at ",
                       sim::ticksToSeconds(config.warmup), " s");
        }
    }
}

ExperimentResult
runOversubExperiment(const ExperimentConfig &config)
{
    // Faults, chaos and external traces drive the flat row only.
    if (config.topology.enabled && config.externalTrace)
        sim::fatal("site mode does not support external traces");
    if (config.topology.enabled &&
        (!config.faultPlan.empty() || config.chaos.enabled))
        sim::fatal("site mode does not support fault/chaos injection");
    validateWarmupConfig(config);

    World world(config);
    const WarmupSnapshot *resume = config.resumeFrom.get();
    buildWorld(world, /*deferControl=*/config.warmup > 0, resume);

    auto wallStart = std::chrono::steady_clock::now();
    if (config.warmup > 0) {
        if (resume) {
            restoreWorld(world, *resume);
        } else {
            world.sim.runUntil(config.warmup);
            if (config.onWarmupSnapshot) {
                config.onWarmupSnapshot(
                    std::make_shared<const WarmupSnapshot>(
                        captureSnapshot(world)));
            }
        }
        startControlPlane(world);
    }
    world.sim.runUntil(config.duration);
    return finishRun(world, wallStart);
}

NormalizedLatency
normalizeLatency(const LatencyStats &value, const LatencyStats &baseline)
{
    NormalizedLatency out;
    if (baseline.count == 0 || value.count == 0)
        return out;
    out.p50 = value.p50 / baseline.p50;
    out.p99 = value.p99 / baseline.p99;
    out.max = value.max / baseline.max;
    return out;
}

bool
meetsSlos(const NormalizedLatency &low, const NormalizedLatency &high,
          std::uint64_t powerBrakeEvents, const workload::SloSpec &slos)
{
    return low.p50 <= slos.lpP50Limit && low.p99 <= slos.lpP99Limit &&
        high.p50 <= slos.hpP50Limit && high.p99 <= slos.hpP99Limit &&
        powerBrakeEvents <=
            static_cast<std::uint64_t>(slos.maxPowerBrakes);
}

} // namespace polca::core
