#include "core/oversub_experiment.hh"

#include <algorithm>
#include <chrono>

#include "core/contracts.hh"
#include "core/site_experiment.hh"
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
    stats.mean = sampler.mean();
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

/** Row knobs resolved from the experiment config (series recording,
 *  work-share pool balancing). */
cluster::RowConfig
resolvedRowConfig(const ExperimentConfig &config)
{
    cluster::RowConfig rowConfig = config.row;
    rowConfig.recordPowerSeries = config.recordRowSeries;
    if (config.autoBalancePools) {
        llm::ModelCatalog catalog;
        llm::PhaseModel phases(catalog.byName(rowConfig.modelName));
        rowConfig.lpServerFraction =
            workload::TraceGenerator(config.mix)
                .lowPriorityWorkShare(phases);
    }
    return rowConfig;
}

/**
 * One flat-row run's live components.  The build/control-plane/
 * capture/restore split exists for the warmup-branch machinery; a
 * warmup == 0 run assembles everything in the original single-pass
 * order, so its event trajectory stays pinned bit-for-bit.
 */
struct RowWorld
{
    explicit RowWorld(const ExperimentConfig &cfg)
        : config(cfg), sim(cfg.seed),
          row(sim, resolvedRowConfig(cfg), sim.rng().fork(0xA110))
    {
    }

    const ExperimentConfig &config;
    sim::Simulation sim;
    cluster::Row row;
    double provisioned = 0.0;
    obs::Observability *obs = nullptr;

    /** Owned when generated here or adopted from a snapshot; null
     *  for external traces.  `trace` is what the dispatcher feeds
     *  from either way. */
    std::shared_ptr<const workload::Trace> ownedTrace;
    const workload::Trace *trace = nullptr;

    std::unique_ptr<telemetry::EnergyMeter> energy;
    sim::Accumulator utilization;
    std::unique_ptr<PowerManager> manager;
    std::unique_ptr<telemetry::BreakerModel> breaker;
    std::unique_ptr<faults::FaultInjector> injector;
    std::unique_ptr<SafetyMonitor> safety;
    std::unique_ptr<sim::Simulation::PeriodicTask> statsTask;
};

void
attachRowObservability(RowWorld &world)
{
    obs::Observability *obs = world.obs;
    if (!obs)
        return;
    sim::Simulation &sim = world.sim;
    world.row.rowManager().attachObservability(obs);
    world.row.dispatcher().attachObservability(obs);
    for (cluster::InferenceServer *server : world.row.servers())
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

void
makeRowTrace(RowWorld &world, const WarmupSnapshot *resume)
{
    const ExperimentConfig &config = world.config;
    // Trace: external, or generated at an offered load matched to
    // the deployed server count (oversubscribed rows serve
    // proportionally more traffic — that is the point of adding
    // servers).  A branch adopts the snapshot's trace instead of
    // regenerating the identical one.
    if (config.externalTrace) {
        world.trace = config.externalTrace;
        return;
    }
    if (resume) {
        POLCA_CHECK(resume->trace,
                    "warmup snapshot carries no trace but the branch "
                    "has no external trace either");
        world.ownedTrace = resume->trace;
        world.trace = world.ownedTrace.get();
        return;
    }
    workload::TraceGenerator generator(config.mix);
    llm::PhaseModel phases(world.row.model());
    workload::TraceGenOptions traceOptions;
    traceOptions.duration = config.duration;
    traceOptions.numServers = world.row.numServers();
    traceOptions.serviceSecondsPerRequest =
        generator.expectedServiceSeconds(phases);
    traceOptions.diurnal = config.diurnal;
    traceOptions.seed = config.seed ^ 0x7ace;
    world.ownedTrace = std::make_shared<const workload::Trace>(
        generator.generate(traceOptions));
    world.trace = world.ownedTrace.get();
}

void
buildRowManager(RowWorld &world)
{
    const ExperimentConfig &config = world.config;
    if (!config.managed)
        return;
    world.manager = std::make_unique<PowerManager>(
        world.sim, world.row.rowManager(),
        world.row.provisionedWatts(), config.policy,
        world.sim.rng().fork(0x90CA), config.manager);
    if (world.obs)
        world.manager->attachObservability(world.obs);
    for (workload::Priority pool :
         {workload::Priority::Low, workload::Priority::High}) {
        for (cluster::InferenceServer *server : world.row.pool(pool))
            world.manager->addTarget(pool, server);
    }
    world.manager->start();
}

void
buildRowBreaker(RowWorld &world)
{
    const ExperimentConfig &config = world.config;
    if (!config.modelBreaker)
        return;
    // The physical breaker watches the raw electrical draw — not
    // the row telemetry — so it keeps seeing power through
    // telemetry blackouts.
    telemetry::BreakerModel::Config breakerConfig;
    breakerConfig.provisionedWatts = world.provisioned;
    breakerConfig.breakerLimitWatts =
        world.provisioned * config.breakerLimitFraction;
    breakerConfig.tripDuration = config.breakerTripDuration;
    cluster::Row &row = world.row;
    world.breaker = std::make_unique<telemetry::BreakerModel>(
        world.sim, [&row] { return row.powerWatts(); },
        breakerConfig);
    if (world.obs)
        world.breaker->attachObservability(world.obs);
    world.breaker->start();
}

void
buildRowInjector(RowWorld &world)
{
    const ExperimentConfig &config = world.config;
    // Fault plan = explicit scenario faults plus (when enabled) a
    // chaos plan drawn from the run seed, so a chaos campaign
    // replays bit-identically.
    faults::FaultPlan plan = config.faultPlan;
    if (config.chaos.enabled) {
        sim::Rng chaosRng = world.sim.rng().fork(0xC4A0);
        mergeFaultPlans(plan,
                        faults::generateChaosPlan(
                            config.chaos, config.duration,
                            world.row.numServers(), chaosRng));
    }
    if (plan.empty())
        return;
    world.injector = std::make_unique<faults::FaultInjector>(
        world.sim, plan, world.sim.rng().fork(0xFA17));
    if (world.obs)
        world.injector->attachObservability(world.obs);
    world.injector->attachTelemetry(world.row.rowManager());
    world.injector->attachServers(world.row.servers());
    if (world.manager) {
        for (workload::Priority pool :
             {workload::Priority::Low, workload::Priority::High})
            world.injector->attachChannels(
                world.manager->channels(pool));
        world.injector->attachController(world.manager.get());
    }
    world.injector->start();
}

void
buildRowSafety(RowWorld &world)
{
    const ExperimentConfig &config = world.config;
    if (!config.safety.monitor)
        return;
    // The safety monitor watches ground-truth power (what the
    // breaker sees), delivered telemetry, and the manager's posture.
    SafetyMonitor::Limits limits;
    limits.provisionedWatts = world.provisioned;
    limits.breakerLimitWatts =
        world.provisioned * config.breakerLimitFraction;
    limits.breakerGrace = config.breakerTripDuration;
    limits.failSafeDeadline = config.manager.watchdogTimeout +
        config.safety.failSafeMargin;
    limits.capReleaseDeadline = config.safety.capReleaseDeadline;
    limits.maxBrakeTimeFraction =
        config.safety.maxBrakeTimeFraction;
    limits.checkInterval = config.safety.checkInterval;
    // Quiet = below every release threshold, so no rule (or the
    // brake) has any reason to stay engaged.
    limits.quietUtilization = config.policy.powerBrakeEnabled
        ? config.policy.powerBrakeReleaseFraction
        : 1.0;
    for (const ThresholdRule &rule : config.policy.rules) {
        limits.quietUtilization = std::min(
            limits.quietUtilization, rule.uncapFraction);
        if (limits.capFloorMhz == 0.0 ||
            rule.lockMhz < limits.capFloorMhz)
            limits.capFloorMhz = rule.lockMhz;
    }
    cluster::Row &row = world.row;
    world.safety = std::make_unique<SafetyMonitor>(
        world.sim, limits, [&row] { return row.powerWatts(); },
        world.manager.get());
    if (world.obs)
        world.safety->attachObservability(world.obs);
    world.safety->attachTelemetry(world.row.rowManager());
    world.safety->start();
}

/** The control plane, started at t = warmup in deferred runs:
 *  manager, then injector, then safety — the same relative order a
 *  warmup == 0 run constructs them in. */
void
startRowControlPlane(RowWorld &world)
{
    buildRowManager(world);
    buildRowInjector(world);
    buildRowSafety(world);
}

/**
 * Assemble the physical world at t = 0.  With @p deferControl the
 * control plane is left for startRowControlPlane() at the warmup
 * boundary; without it every component is created inline in the
 * original (determinism-pinned) order.  With @p resume the trace is
 * adopted from the snapshot and not injected — restoreRowWorld()
 * re-arms the dispatcher's in-flight arrival instead.
 */
void
buildRowWorld(RowWorld &world, bool deferControl,
              const WarmupSnapshot *resume)
{
    const ExperimentConfig &config = world.config;
    cluster::Row &row = world.row;

    if (config.powerScaleFactor != 1.0)
        row.setPowerScaleFactor(config.powerScaleFactor);
    world.provisioned = row.provisionedWatts();
    world.obs = config.obs;

    // One telemetry sample lands per interval for the whole run:
    // size the recording buffer up front so the steady state never
    // reallocates.
    row.rowManager().reserveSeries(config.duration);

    attachRowObservability(world);
    makeRowTrace(world, resume);

    world.energy = std::make_unique<telemetry::EnergyMeter>(
        world.sim, [&row] { return row.powerWatts(); });
    world.energy->start();

    // Track row utilization independently of management so that
    // unthrottled baselines also report max/mean utilization.
    sim::Accumulator &utilization = world.utilization;
    double provisioned = world.provisioned;
    row.rowManager().addListener(
        [&utilization, provisioned](sim::Tick, double watts) {
            utilization.add(watts / provisioned);
        });

    if (!deferControl)
        buildRowManager(world);
    buildRowBreaker(world);
    if (!deferControl) {
        buildRowInjector(world);
        buildRowSafety(world);
    }

    if (!resume)
        row.dispatcher().injectTrace(*world.trace);

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

/** Capture the physical world at the warmup boundary (pure read). */
WarmupSnapshot
captureRowSnapshot(RowWorld &world)
{
    WarmupSnapshot snap;
    snap.warmup = world.config.warmup;
    snap.seed = world.config.seed;
    snap.duration = world.config.duration;
    snap.simState.queue = world.sim.queue().captureState();
    snap.trace = world.ownedTrace;
    snap.dispatchers.push_back(world.row.dispatcher().saveState());
    for (cluster::InferenceServer *server : world.row.servers())
        snap.servers.push_back(server->saveState());
    snap.domainManagers.push_back(world.row.rowManager().saveState());
    if (world.breaker)
        snap.breakers.push_back(world.breaker->saveState());
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
restoreRowWorld(RowWorld &world, const WarmupSnapshot &snapshot)
{
    const ExperimentConfig &config = world.config;
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
    std::vector<cluster::InferenceServer *> servers =
        world.row.servers();
    POLCA_CHECK(snapshot.servers.size() == servers.size(),
                "snapshot has ", snapshot.servers.size(),
                " servers, world has ", servers.size());
    POLCA_CHECK(snapshot.dispatchers.size() == 1,
                "flat-row snapshot carries ",
                snapshot.dispatchers.size(), " dispatchers");
    POLCA_CHECK(snapshot.breakers.size() ==
                    (world.breaker ? 1u : 0u),
                "snapshot/world breaker mismatch");

    world.sim.queue().beginRestore(snapshot.simState.queue);
    world.row.dispatcher().restoreState(snapshot.dispatchers[0],
                                        world.trace);
    for (std::size_t i = 0; i < servers.size(); ++i)
        servers[i]->restoreState(snapshot.servers[i]);
    world.row.rowManager().restoreState(snapshot.domainManagers.at(0));
    if (world.breaker)
        world.breaker->restoreState(snapshot.breakers[0]);
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

/** Post-run bookkeeping and result extraction (shared by every
 *  execution mode). */
ExperimentResult
finishRowRun(RowWorld &world,
             std::chrono::steady_clock::time_point wallStart)
{
    const ExperimentConfig &config = world.config;
    obs::Observability *obs = world.obs;
    sim::Simulation &sim = world.sim;
    cluster::Row &row = world.row;

    if (world.safety)
        world.safety->finish(config.duration);
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

    PowerManager *manager = world.manager.get();
    SafetyMonitor *safety = world.safety.get();
    telemetry::BreakerModel *breaker = world.breaker.get();
    faults::FaultInjector *injector = world.injector.get();
    telemetry::EnergyMeter &energy = *world.energy;
    sim::Accumulator &utilization = world.utilization;

    ExperimentResult result;
    cluster::Dispatcher &dispatcher = row.dispatcher();
    result.low = LatencyStats::from(
        dispatcher.latencySeconds(workload::Priority::Low));
    result.high = LatencyStats::from(
        dispatcher.latencySeconds(workload::Priority::High));
    result.lowThroughput =
        dispatcher.throughput(workload::Priority::Low);
    result.highThroughput =
        dispatcher.throughput(workload::Priority::High);
    result.lowArrivals = dispatcher.arrivals(workload::Priority::Low);
    result.highArrivals = dispatcher.arrivals(workload::Priority::High);
    result.lowCompletions =
        dispatcher.completions(workload::Priority::Low);
    result.highCompletions =
        dispatcher.completions(workload::Priority::High);
    for (const sim::Sampler &sampler : dispatcher.latencyByWorkload())
        result.byWorkload.push_back(LatencyStats::from(sampler));

    result.energyKwh = energy.kilowattHours();
    std::uint64_t completions =
        result.lowCompletions + result.highCompletions;
    if (completions > 0) {
        result.energyPerRequestKj = energy.joules() / 1000.0 /
            static_cast<double>(completions);
    }

    if (utilization.count() > 0) {
        result.maxUtilization = utilization.max();
        result.meanUtilization = utilization.mean();
    }
    if (manager) {
        result.powerBrakeEvents = manager->powerBrakeEvents();
        result.capCommands = manager->capCommands();
        result.uncapCommands = manager->uncapCommands();
        result.reissuedCommands = manager->reissuedCommands();
        result.lpLockedTicks =
            manager->lockedTicks(workload::Priority::Low);
        result.hpLockedTicks =
            manager->lockedTicks(workload::Priority::High);
        result.failSafeEntries = manager->failSafeEntries();
        result.failSafeTicks = manager->failSafeTicks();
        result.flaggedChannels = manager->flaggedChannels();
        result.controllerCrashes = manager->controllerCrashes();
        result.controllerRecoveries = manager->controllerRecoveries();
        result.controllerDownTicks = manager->controllerDownTicks();
        result.mttrTotalTicks = manager->mttrTotalTicks();
        result.mttrMaxTicks = manager->mttrMaxTicks();
        result.timeToFailSafeMaxTicks =
            manager->timeToFailSafeMaxTicks();
        result.capsHeldStaleTicks = manager->capsHeldStaleTicks();
        result.staleTicks = manager->staleTicks();
        result.brakeTicks = manager->brakeTicks();
        result.modeTransitions = manager->modeTransitions();
    }
    if (safety)
        result.violations = safety->violations();
    if (breaker) {
        result.breakerTrips = breaker->trips();
        result.breakerNearTrips = breaker->nearTrips();
        result.firstBreakerTrip = breaker->firstTripTime();
        result.ticksAboveProvisioned = breaker->ticksAboveProvisioned();
        result.overdrawWattSeconds = breaker->overdrawWattSeconds();
        result.longestOverLimitStreak =
            breaker->longestOverLimitStreak();
    }
    result.droppedReadings = row.rowManager().droppedReadings();
    if (injector) {
        result.corruptedReadings = injector->corruptedReadings();
        result.crashesInjected = injector->crashesInjected();
    }
    for (cluster::InferenceServer *server : row.servers())
        result.droppedRequests += server->droppedRequests();

    if (config.recordRowSeries)
        result.rowPowerSeries = row.rowManager().series();
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
    if (config.topology.enabled)
        return runSiteExperiment(config);
    validateWarmupConfig(config);

    RowWorld world(config);
    const WarmupSnapshot *resume = config.resumeFrom.get();
    buildRowWorld(world, /*deferControl=*/config.warmup > 0, resume);

    auto wallStart = std::chrono::steady_clock::now();
    if (config.warmup > 0) {
        if (resume) {
            restoreRowWorld(world, *resume);
        } else {
            world.sim.runUntil(config.warmup);
            if (config.onWarmupSnapshot) {
                config.onWarmupSnapshot(
                    std::make_shared<const WarmupSnapshot>(
                        captureRowSnapshot(world)));
            }
        }
        startRowControlPlane(world);
    }
    world.sim.runUntil(config.duration);
    return finishRowRun(world, wallStart);
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
