#include "core/site_experiment.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>

#include "core/contracts.hh"
#include "core/warmup_snapshot.hh"
#include "llm/phase_model.hh"
#include "sim/logging.hh"
#include "telemetry/energy_meter.hh"
#include "workload/trace_gen.hh"

namespace polca::core {

namespace {

/** Same safety-limit derivation as the flat-row harness, scoped to
 *  one row's budget and breaker. */
SafetyMonitor::Limits
rowSafetyLimits(const ExperimentConfig &config, double budgetWatts,
                double breakerLimitWatts)
{
    SafetyMonitor::Limits limits;
    limits.provisionedWatts = budgetWatts;
    limits.breakerLimitWatts = breakerLimitWatts > 0.0
        ? breakerLimitWatts
        : budgetWatts / 0.8;
    limits.breakerGrace = config.topology.breakerTripDuration;
    limits.failSafeDeadline =
        config.manager.watchdogTimeout + config.safety.failSafeMargin;
    limits.capReleaseDeadline = config.safety.capReleaseDeadline;
    limits.maxBrakeTimeFraction = config.safety.maxBrakeTimeFraction;
    limits.checkInterval = config.safety.checkInterval;
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

cluster::TopologyConfig
resolvedTopology(const ExperimentConfig &config)
{
    cluster::TopologyConfig topology = config.topology;
    topology.recordSeries =
        config.topology.recordSeries || config.recordRowSeries;
    return topology;
}

/**
 * One site-mode run's live components — the tree-scale sibling of
 * the flat-row RowWorld, with the same build/control-plane/capture/
 * restore split for warmup branching.  A warmup == 0 run assembles
 * everything in the original single-pass order.
 */
struct SiteWorld
{
    explicit SiteWorld(const ExperimentConfig &cfg)
        : config(cfg), sim(cfg.seed), topology(resolvedTopology(cfg)),
          site(sim, topology, cfg.row, sim.rng().fork(0xA110))
    {
    }

    const ExperimentConfig &config;
    sim::Simulation sim;
    cluster::TopologyConfig topology;
    cluster::Site site;
    obs::Observability *obs = nullptr;

    /** Per-domain telemetry statistics, fed by manager listeners.
     *  Keyed by node for the rollup; snapshots enumerate them in
     *  deterministic pre-order instead of pointer order. */
    std::map<const cluster::PowerDomain *, sim::Accumulator> wattsAcc;

    /** One trace per row, Site::rows() order; shared so branches
     *  skip regeneration. */
    std::shared_ptr<const std::vector<workload::Trace>> traces;

    std::unique_ptr<telemetry::EnergyMeter> energy;
    sim::Accumulator utilization;
    std::vector<std::unique_ptr<PowerManager>> managers;
    std::vector<std::unique_ptr<SafetyMonitor>> monitors;
    std::unique_ptr<sim::Simulation::PeriodicTask> statsTask;
};

void
attachSiteObservability(SiteWorld &world)
{
    obs::Observability *obs = world.obs;
    if (!obs)
        return;
    sim::Simulation &sim = world.sim;
    cluster::Site &site = world.site;
    // The site root doubles as "the row" for the flat telemetry
    // namespace, so dashboards (and the report timeline) read
    // the site rollup from telemetry.latest_row_watts.
    site.root().manager()->attachObservability(obs);
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
    for (cluster::Site::SiteRow &row : site.rows())
        row.dispatcher->attachObservability(obs);
    for (cluster::InferenceServer *server : site.root().servers())
        server->attachObservability(obs);
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
makeSiteTraces(SiteWorld &world, const WarmupSnapshot *resume)
{
    const ExperimentConfig &config = world.config;
    cluster::Site &site = world.site;
    if (resume) {
        POLCA_CHECK(resume->traces,
                    "site warmup snapshot carries no traces");
        POLCA_CHECK(resume->traces->size() == site.rows().size(),
                    "snapshot has ", resume->traces->size(),
                    " traces, site has ", site.rows().size(),
                    " rows");
        world.traces = resume->traces;
        return;
    }
    // One trace per row, keyed by row *name* (forkPath of the trace
    // master seed), so a row's offered load is invariant to the rest
    // of the site layout.
    sim::Rng traceMaster(config.seed ^ 0x7ace);
    auto traces = std::make_shared<std::vector<workload::Trace>>();
    traces->reserve(site.rows().size());
    for (cluster::Site::SiteRow &row : site.rows()) {
        workload::TraceGenerator generator(config.mix);
        llm::PhaseModel phases(row.model);
        workload::TraceGenOptions traceOptions;
        traceOptions.duration = config.duration;
        traceOptions.numServers = row.domain->numServers();
        traceOptions.serviceSecondsPerRequest =
            generator.expectedServiceSeconds(phases);
        traceOptions.diurnal = config.diurnal;
        traceOptions.seed = traceMaster.forkPath(row.name).seed();
        traces->push_back(generator.generate(traceOptions));
    }
    world.traces = std::move(traces);
}

void
buildSiteManagers(SiteWorld &world)
{
    const ExperimentConfig &config = world.config;
    if (!config.managed || !world.topology.manageRows)
        return;
    // One POLCA manager per row, capping against the row's
    // *effective* budget: the row budget shrunk by any tighter
    // ancestor budget shared out pro rata (parent-budget awareness).
    for (cluster::Site::SiteRow &row : world.site.rows()) {
        auto manager = std::make_unique<PowerManager>(
            world.sim, *row.domain->manager(),
            row.domain->effectiveBudgetWatts(), config.policy,
            row.rng.fork(0x90CA), config.manager);
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

void
buildSiteMonitors(SiteWorld &world)
{
    const ExperimentConfig &config = world.config;
    if (!config.safety.monitor)
        return;
    for (std::size_t i = 0; i < world.site.rows().size(); ++i) {
        cluster::Site::SiteRow &row = world.site.rows()[i];
        cluster::PowerDomain *domain = row.domain;
        SafetyMonitor::Limits limits = rowSafetyLimits(
            config, domain->budgetWatts(),
            domain->breaker() ? domain->breaker()->breakerLimitWatts()
                              : 0.0);
        auto monitor = std::make_unique<SafetyMonitor>(
            world.sim, limits,
            [domain] { return domain->powerWatts(); },
            i < world.managers.size() ? world.managers[i].get()
                                      : nullptr);
        if (world.obs)
            monitor->attachObservability(world.obs);
        monitor->attachTelemetry(*domain->manager());
        monitor->start();
        world.monitors.push_back(std::move(monitor));
    }
}

/** Control plane started at t = warmup in deferred runs: per-row
 *  managers, then per-row safety monitors — the same relative order
 *  a warmup == 0 run constructs them in. */
void
startSiteControlPlane(SiteWorld &world)
{
    buildSiteManagers(world);
    buildSiteMonitors(world);
}

void
buildSiteWorld(SiteWorld &world, bool deferControl,
               const WarmupSnapshot *resume)
{
    const ExperimentConfig &config = world.config;
    cluster::Site &site = world.site;

    if (config.powerScaleFactor != 1.0) {
        for (cluster::InferenceServer *server : site.root().servers())
            server->setPowerScaleFactor(config.powerScaleFactor);
    }

    site.root().visit([&world, &config](cluster::PowerDomain &domain) {
        telemetry::DomainManager *manager = domain.manager();
        if (!manager)
            return;
        // Size each domain's recording buffer for the full horizon
        // so steady-state sampling never reallocates.
        manager->reserveSeries(config.duration);
        sim::Accumulator &acc = world.wattsAcc[&domain];
        manager->addListener(
            [&acc](sim::Tick, double watts) { acc.add(watts); });
    });

    world.obs = config.obs;
    attachSiteObservability(world);
    makeSiteTraces(world, resume);

    world.energy = std::make_unique<telemetry::EnergyMeter>(
        world.sim, [&site] { return site.root().powerWatts(); });
    world.energy->start();

    // Site utilization against the site budget, from the root
    // manager's delivered readings (mirrors the flat-row harness).
    sim::Accumulator &utilization = world.utilization;
    double siteBudget = site.root().budgetWatts();
    site.root().manager()->addListener(
        [&utilization, siteBudget](sim::Tick, double watts) {
            utilization.add(watts / siteBudget);
        });

    if (!deferControl) {
        buildSiteManagers(world);
        buildSiteMonitors(world);
    }

    if (!resume) {
        for (std::size_t i = 0; i < site.rows().size(); ++i)
            site.rows()[i].dispatcher->injectTrace(
                (*world.traces)[i]);
    }

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
captureSiteSnapshot(SiteWorld &world)
{
    WarmupSnapshot snap;
    snap.warmup = world.config.warmup;
    snap.seed = world.config.seed;
    snap.duration = world.config.duration;
    snap.simState.queue = world.sim.queue().captureState();
    snap.traces = world.traces;
    for (cluster::Site::SiteRow &row : world.site.rows())
        snap.dispatchers.push_back(row.dispatcher->saveState());
    for (cluster::InferenceServer *server :
         world.site.root().servers())
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

void
restoreSiteWorld(SiteWorld &world, const WarmupSnapshot &snapshot)
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
                " dispatchers, site has ", site.rows().size(),
                " rows");
    std::vector<cluster::InferenceServer *> servers =
        site.root().servers();
    POLCA_CHECK(snapshot.servers.size() == servers.size(),
                "snapshot has ", snapshot.servers.size(),
                " servers, site has ", servers.size());

    world.sim.queue().beginRestore(snapshot.simState.queue);
    for (std::size_t i = 0; i < site.rows().size(); ++i) {
        site.rows()[i].dispatcher->restoreState(
            snapshot.dispatchers[i], &(*world.traces)[i]);
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
        // Unobserved branch of an observed leader: the leader's
        // stats sampler stays behind (see the flat-row note in
        // oversub_experiment.cc).
        --expectedLive;
    }
    world.sim.queue().endRestore(expectedLive);
}

ExperimentResult
finishSiteRun(SiteWorld &world,
              std::chrono::steady_clock::time_point wallStart)
{
    const ExperimentConfig &config = world.config;
    obs::Observability *obs = world.obs;
    sim::Simulation &sim = world.sim;
    cluster::Site &site = world.site;
    const cluster::TopologyConfig &topology = world.topology;
    std::vector<std::unique_ptr<PowerManager>> &managers =
        world.managers;
    std::vector<std::unique_ptr<SafetyMonitor>> &monitors =
        world.monitors;
    std::map<const cluster::PowerDomain *, sim::Accumulator>
        &wattsAcc = world.wattsAcc;

    for (auto &monitor : monitors)
        monitor->finish(config.duration);
    if (world.statsTask) {
        obs->interval.snapshot(sim::ticksToSeconds(config.duration),
                               obs->metrics);
        world.statsTask->stop();
    }
    if (obs) {
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

    // Fleet latency/throughput: merge every row's serving cell.
    sim::Sampler lowAll;
    sim::Sampler highAll;
    std::vector<sim::Sampler> byWorkload;
    for (cluster::Site::SiteRow &row : site.rows()) {
        const cluster::Dispatcher &dispatcher = *row.dispatcher;
        for (double v :
             dispatcher.latencySeconds(workload::Priority::Low).values())
            lowAll.add(v);
        for (double v :
             dispatcher.latencySeconds(workload::Priority::High).values())
            highAll.add(v);
        const std::vector<sim::Sampler> &perClass =
            dispatcher.latencyByWorkload();
        if (byWorkload.size() < perClass.size())
            byWorkload.resize(perClass.size());
        for (std::size_t w = 0; w < perClass.size(); ++w) {
            for (double v : perClass[w].values())
                byWorkload[w].add(v);
        }
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
    result.low = LatencyStats::from(lowAll);
    result.high = LatencyStats::from(highAll);
    for (const sim::Sampler &sampler : byWorkload)
        result.byWorkload.push_back(LatencyStats::from(sampler));

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

    for (const auto &manager : managers) {
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

    for (const auto &monitor : monitors) {
        const std::vector<SafetyViolation> &violations =
            monitor->violations();
        result.violations.insert(result.violations.end(),
                                 violations.begin(), violations.end());
    }

    // The headline breaker columns report the *site* breaker — the
    // upstream protection the whole tree must not trip.
    if (const telemetry::BreakerModel *siteBreaker =
            site.root().breaker()) {
        result.breakerTrips = siteBreaker->trips();
        result.breakerNearTrips = siteBreaker->nearTrips();
        result.firstBreakerTrip = siteBreaker->firstTripTime();
        result.ticksAboveProvisioned =
            siteBreaker->ticksAboveProvisioned();
        result.overdrawWattSeconds =
            siteBreaker->overdrawWattSeconds();
        result.longestOverLimitStreak =
            siteBreaker->longestOverLimitStreak();
    }

    // Per-level rollup, pre-order so the site row leads the table.
    std::map<const cluster::PowerDomain *, std::size_t> rowIndex;
    for (std::size_t i = 0; i < site.rows().size(); ++i)
        rowIndex[site.rows()[i].domain] = i;
    site.root().visit([&](const cluster::PowerDomain &domain) {
        if (domain.isLeaf())
            return;
        DomainStats stats;
        stats.path = domain.path();
        stats.level = cluster::toString(domain.level());
        stats.servers = domain.numServers();
        stats.provisionedWatts = domain.provisionedWatts();
        stats.budgetWatts = domain.budgetWatts();
        auto accIt = wattsAcc.find(&domain);
        if (accIt != wattsAcc.end() && accIt->second.count() > 0) {
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
            if (i < managers.size()) {
                stats.capCommands = managers[i]->capCommands();
                stats.powerBrakeEvents =
                    managers[i]->powerBrakeEvents();
            }
            if (i < monitors.size()) {
                stats.violations = static_cast<std::uint64_t>(
                    monitors[i]->violations().size());
            }
        }
        result.domains.push_back(std::move(stats));
    });

    site.root().visit([&result](const cluster::PowerDomain &domain) {
        if (domain.manager())
            result.droppedReadings +=
                domain.manager()->droppedReadings();
    });
    for (const cluster::InferenceServer *server :
         static_cast<const cluster::PowerDomain &>(site.root())
             .servers())
        result.droppedRequests += server->droppedRequests();

    if (topology.recordSeries) {
        result.rowPowerSeries = site.root().manager()->series();
        for (const cluster::Site::SiteRow &row : site.rows()) {
            DomainPowerSeries series;
            series.path = row.domain->path();
            series.series = row.domain->manager()->series();
            result.domainPowerSeries.push_back(std::move(series));
        }
    }
    return result;
}

} // namespace

ExperimentResult
runSiteExperiment(const ExperimentConfig &config)
{
    if (config.externalTrace)
        sim::fatal("site mode does not support external traces");
    if (!config.faultPlan.empty() || config.chaos.enabled)
        sim::fatal("site mode does not support fault/chaos injection");
    validateWarmupConfig(config);

    SiteWorld world(config);
    const WarmupSnapshot *resume = config.resumeFrom.get();
    buildSiteWorld(world, /*deferControl=*/config.warmup > 0, resume);

    auto wallStart = std::chrono::steady_clock::now();
    if (config.warmup > 0) {
        if (resume) {
            restoreSiteWorld(world, *resume);
        } else {
            world.sim.runUntil(config.warmup);
            if (config.onWarmupSnapshot) {
                config.onWarmupSnapshot(
                    std::make_shared<const WarmupSnapshot>(
                        captureSiteSnapshot(world)));
            }
        }
        startSiteControlPlane(world);
    }
    world.sim.runUntil(config.duration);
    return finishSiteRun(world, wallStart);
}

} // namespace polca::core
