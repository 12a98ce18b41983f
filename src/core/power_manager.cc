#include "core/power_manager.hh"

#include <algorithm>
#include <cmath>

#include "core/contracts.hh"
#include "sim/logging.hh"

namespace polca::core {

namespace {

/** Applied-vs-commanded clocks within this margin count as equal;
 *  re-issuing over sub-MHz differences would churn the OOB path. */
constexpr double kClockToleranceMhz = 0.5;

bool
clocksMatch(double appliedMhz, double commandedMhz)
{
    return std::abs(appliedMhz - commandedMhz) <= kClockToleranceMhz;
}

} // namespace

const char *
toString(ControlMode mode)
{
    switch (mode) {
      case ControlMode::Full:
        return "full";
      case ControlMode::StalePartial:
        return "stale-partial";
      case ControlMode::Blind:
        return "blind";
    }
    return "unknown";
}

PowerManager::PowerManager(sim::Simulation &sim,
                           telemetry::DomainManager &telemetry,
                           double provisionedWatts, PolicyConfig policy,
                           sim::Rng rng, ManagerOptions options)
    : sim_(sim), telemetry_(telemetry),
      provisionedWatts_(provisionedWatts), policy_(std::move(policy)),
      rng_(std::move(rng)), options_(options),
      ruleActive_(policy_.rules.size(), false),
      ruleActivatedAt_(policy_.rules.size(), 0)
{
    if (provisionedWatts_ <= 0.0)
        sim::fatal("PowerManager: non-positive provisioned power");
    policy_.validate();
}

PowerManager::PoolState &
PowerManager::poolState(workload::Priority pool)
{
    return pool == workload::Priority::High ? highPool_ : lowPool_;
}

const PowerManager::PoolState &
PowerManager::poolState(workload::Priority pool) const
{
    return pool == workload::Priority::High ? highPool_ : lowPool_;
}

void
PowerManager::addTarget(workload::Priority pool,
                        telemetry::ClockControllable *target)
{
    POLCA_CHECK(!started_, "addTarget after start");
    POLCA_CHECK(target != nullptr, "null target");

    PoolState &state = poolState(pool);
    telemetry::SmbpbiController::Options channelOptions;
    channelOptions.commandLatency = options_.oobCommandLatency;
    channelOptions.brakeLatency = options_.brakeLatency;
    channelOptions.silentFailureProbability =
        options_.smbpbiFailureProbability;
    state.targets.push_back(target);
    state.channels.push_back(
        std::make_unique<telemetry::SmbpbiController>(
            sim_, *target,
            rng_.fork(0x5b + state.channels.size() * 17 +
                      (pool == workload::Priority::High ? 1000 : 0)),
            channelOptions));
    state.consecutiveReissues.push_back(0);
    state.flagged.push_back(false);
    if (obs_) {
        auto track = static_cast<std::int32_t>(
            state.channels.size() - 1 +
            (pool == workload::Priority::High ? 100 : 0));
        state.channels.back()->attachObservability(channelObs(), track);
    }
}

const telemetry::SmbpbiController::ObsHandles &
PowerManager::channelObs()
{
    // Resolved at the first channel that attaches to obs_, so a
    // manager without channels registers no smbpbi.* metric.
    // attachObservability() clears the handles, so they never
    // outlive the sink they were resolved from.
    if (channelObs_.sink != obs_)
        channelObs_ = telemetry::SmbpbiController::ObsHandles::resolve(obs_);
    return channelObs_;
}

void
PowerManager::attachObservability(obs::Observability *obs)
{
    obs_ = obs;
    channelObs_ = {};
    if (!obs) {
        trace_ = nullptr;
        capStat_ = uncapStat_ = reissueStat_ = brakeStat_ =
            failSafeStat_ = flaggedStat_ = modeStat_ = nullptr;
        decisionGapStat_ = nullptr;
        brakeDwellStat_ = mttrStat_ = nullptr;
        for (PoolState *pool : {&lowPool_, &highPool_}) {
            for (auto &channel : pool->channels)
                channel->attachObservability(channelObs(), 0);
        }
        return;
    }
    trace_ = &obs->trace;
    capStat_ = &obs->metrics.counter(
        "manager.cap_commands", "pool-wide capping decisions");
    uncapStat_ = &obs->metrics.counter(
        "manager.uncap_commands", "pool-wide uncapping decisions");
    reissueStat_ = &obs->metrics.counter(
        "manager.reissues",
        "commands re-issued after failed verification");
    brakeStat_ = &obs->metrics.counter(
        "manager.brake_events", "reactive power-brake engagements");
    failSafeStat_ = &obs->metrics.counter(
        "manager.failsafe_entries",
        "watchdog-declared telemetry blackouts");
    flaggedStat_ = &obs->metrics.counter(
        "manager.flagged_channels",
        "OOB channels flagged by the re-issue circuit breaker");
    modeStat_ = &obs->metrics.counter(
        "manager.mode_transitions",
        "control-mode ladder transitions (Full/StalePartial/Blind)");
    decisionGapStat_ = &obs->metrics.histogram(
        "manager.decision_gap_s", 0.0, 30.0, 15,
        "gap between consecutive telemetry readings (seconds)");
    // 1 ms .. ~1 day at 1 % relative error covers both a minimum
    // brake hold and a blackout-length dwell or recovery.
    brakeDwellStat_ = &obs->metrics.logHistogram(
        "manager.brake_dwell_s", 1e-3, 1e5, 0.01,
        "power-brake engage-to-release dwell (seconds)");
    mttrStat_ = &obs->metrics.logHistogram(
        "manager.mttr_s", 1e-3, 1e5, 0.01,
        "controller crash to first delivered reading (seconds)");
    for (workload::Priority pool :
         {workload::Priority::Low, workload::Priority::High}) {
        PoolState &state = poolState(pool);
        for (std::size_t i = 0; i < state.channels.size(); ++i) {
            auto track = static_cast<std::int32_t>(
                i + (pool == workload::Priority::High ? 100 : 0));
            state.channels[i]->attachObservability(channelObs(), track);
        }
    }
}

std::vector<telemetry::SmbpbiController *>
PowerManager::channels(workload::Priority pool)
{
    std::vector<telemetry::SmbpbiController *> out;
    for (const auto &channel : poolState(pool).channels)
        out.push_back(channel.get());
    return out;
}

void
PowerManager::start()
{
    if (started_)
        return;
    started_ = true;
    // Staleness is measured from start, not from tick 0: a manager
    // attached mid-run must not instantly declare telemetry dead.
    lastReadingTime_ = sim_.now();
    aliveSince_ = sim_.now();
    modeSince_ = sim_.now();
    telemetry_.addListener([this](sim::Tick now, double watts) {
        onReading(now, watts);
    });
    if (options_.watchdogEnabled) {
        watchdog_ = sim_.every(
            options_.watchdogInterval,
            [this](sim::Tick now) { watchdogCheck(now); });
    }
}

void
PowerManager::onReading(sim::Tick now, double watts)
{
    // A dead controller process sees nothing; the listener outlives
    // the crash, so readings during the downtime are dropped here.
    if (crashed_)
        return;

    // Telemetry readings arrive on the simulation clock, so they can
    // never run backwards, and sensors clamp at zero (FaultInjector
    // included), so a negative reading is a wiring bug upstream.
    POLCA_ASSERT(now >= lastReadingTime_,
                 "reading at t=", now, " behind previous t=",
                 lastReadingTime_);
    POLCA_CHECK(watts >= 0.0, "negative row power ", watts, " W");

    // A fresh reading means telemetry is back: leave fail-safe.
    // The escalated rules stay active and release through the normal
    // hysteresis path below, so recovery is conservative, not abrupt.
    if (failSafe_)
        exitFailSafe(now);
    if (mode_ != ControlMode::Full)
        setMode(now, ControlMode::Full);
    if (recovering_) {
        // First delivered reading since the restart closes the
        // recovery: the controller is acting on fresh data again.
        recovering_ = false;
        ++controllerRecoveries_;
        sim::Tick mttr = now - crashedAt_;
        mttrTotalTicks_ += mttr;
        mttrMaxTicks_ = std::max(mttrMaxTicks_, mttr);
        if (mttrStat_)
            mttrStat_->add(sim::ticksToSeconds(mttr));
    }

    double utilization = watts / provisionedWatts_;

    // Trailing-mean smoothing for threshold decisions.  Readings
    // taken while the brake is engaged are artificially low and
    // would trick the thresholds into uncapping, so they are kept
    // out of the window.
    if (!brakeEngaged_) {
        recentReadings_.emplace_back(now, utilization);
        smoothedSum_ += utilization;
        while (now - recentReadings_.front().first >=
               options_.decisionSmoothingWindow) {
            smoothedSum_ -= recentReadings_.front().second;
            recentReadings_.pop_front();
        }
    }
    // The incremental window sum is a sum of non-negative terms;
    // float cancellation driving it negative would silently corrupt
    // every later cap decision.
    POLCA_ASSERT(smoothedSum_ >= -1e-9,
                 "smoothing window sum went negative: ", smoothedSum_);
    double smoothed = recentReadings_.empty()
        ? utilization
        : smoothedSum_ / static_cast<double>(recentReadings_.size());

    // Locked-time accounting across the telemetry interval.
    sim::Tick interval = now - lastReadingTime_;
    if (decisionGapStat_)
        decisionGapStat_->add(sim::ticksToSeconds(interval));
    lastReadingTime_ = now;
    for (PoolState *pool : {&lowPool_, &highPool_}) {
        if (pool->commandedMhz > 0.0)
            pool->lockedTicks += interval;
    }

    // Emergency power brake dominates rule transitions, but cap
    // commands keep flowing so the fleet is maximally capped by the
    // time the brake releases.
    if (brakeEngaged_) {
        if (utilization <= policy_.powerBrakeReleaseFraction &&
            now - brakeEngagedAt_ >= options_.minBrakeHold) {
            releaseBrake();
        }
        applyDesiredLocks(now);
        return;
    }
    if (policy_.powerBrakeEnabled &&
        utilization >= policy_.powerBrakeFraction) {
        engageBrake(now, /*countEvent=*/true);
        applyDesiredLocks(now);
        return;
    }

    updateRuleStates(now, smoothed);
    applyDesiredLocks(now);
}

void
PowerManager::updateRuleStates(sim::Tick now, double utilization)
{
    // Release with hysteresis: scan the escalation ladder from the
    // top, at most one rule per reading.  Uncapping is conservative:
    // it also waits out the rule's dwell time.
    for (std::size_t i = policy_.rules.size(); i-- > 0;) {
        if (ruleActive_[i] &&
            utilization <= policy_.rules[i].uncapFraction &&
            now - ruleActivatedAt_[i] >= options_.minRuleDwell) {
            ruleActive_[i] = false;
            if (trace_) {
                trace_->instant(obs::TraceCategory::Control,
                                "rule_release", now, -1,
                                static_cast<double>(i));
            }
            return;  // one transition per reading
        }
    }
    // Escalate: first inactive rule whose trigger is breached.
    for (std::size_t i = 0; i < policy_.rules.size(); ++i) {
        if (!ruleActive_[i] &&
            utilization >= policy_.rules[i].capFraction) {
            ruleActive_[i] = true;
            ruleActivatedAt_[i] = now;
            if (trace_) {
                trace_->instant(obs::TraceCategory::Control,
                                "rule_escalate", now, -1,
                                static_cast<double>(i));
            }
            return;
        }
    }
}

void
PowerManager::applyDesiredLocks(sim::Tick now)
{
    for (workload::Priority pool :
         {workload::Priority::Low, workload::Priority::High}) {
        PoolState &state = poolState(pool);

        // Desired lock = lowest frequency among active rules
        // targeting this pool (deeper caps win).
        double desired = 0.0;
        for (std::size_t i = 0; i < policy_.rules.size(); ++i) {
            if (!ruleActive_[i] || policy_.rules[i].target != pool)
                continue;
            if (desired == 0.0 || policy_.rules[i].lockMhz < desired)
                desired = policy_.rules[i].lockMhz;
        }

        // Cap-bound contract: a commanded lock must sit inside the
        // GPU's controllable range (policy.validate() bounds each
        // rule, so a violation here means the ladder logic broke).
        POLCA_ASSERT(desired >= 0.0,
                     "negative desired lock ", desired, " MHz");
        if (desired != state.commandedMhz) {
            bool capping = desired > 0.0 &&
                (state.commandedMhz == 0.0 ||
                 desired < state.commandedMhz);
            for (auto &channel : state.channels) {
                if (desired > 0.0)
                    channel->requestClockLock(desired);
                else
                    channel->requestClockUnlock();
            }
            state.commandedMhz = desired;
            state.lastCommandTime = now;
            if (capping) {
                ++capCommands_;
                if (capStat_)
                    ++*capStat_;
            } else {
                ++uncapCommands_;
                if (uncapStat_)
                    ++*uncapStat_;
            }
        } else {
            verifyApplied(now, state);
        }
    }
}

void
PowerManager::verifyApplied(sim::Tick now, PoolState &pool)
{
    if (pool.lastCommandTime < 0)
        return;
    if (now - pool.lastCommandTime <
        options_.oobCommandLatency + options_.verifySlack) {
        return;  // command may still be in flight
    }
    for (std::size_t i = 0; i < pool.targets.size(); ++i) {
        double applied = pool.targets[i]->appliedClockLockMhz();
        if (clocksMatch(applied, pool.commandedMhz)) {
            pool.consecutiveReissues[i] = 0;
            continue;
        }
        // Silent SMBPBI failure: re-issue on the affected channel.
        if (pool.commandedMhz > 0.0)
            pool.channels[i]->requestClockLock(pool.commandedMhz);
        else
            pool.channels[i]->requestClockUnlock();
        ++reissued_;
        if (reissueStat_)
            ++*reissueStat_;
        pool.lastCommandTime = now;
        // Circuit breaker: a channel that keeps needing re-issues is
        // likely broken, not unlucky — flag it for the operator.
        if (++pool.consecutiveReissues[i] >=
                options_.channelFlagThreshold &&
            !pool.flagged[i]) {
            pool.flagged[i] = true;
            ++flaggedChannels_;
            if (flaggedStat_)
                ++*flaggedStat_;
            sim::warn("PowerManager: OOB channel ", i,
                         " needed ", pool.consecutiveReissues[i],
                         " consecutive re-issues; flagging");
        }
    }
}

void
PowerManager::watchdogCheck(sim::Tick now)
{
    // The watchdog timer dies with the controller process
    // (controllerCrash resets it), so this never observes crashed_.
    sim::Tick staleness = now - lastReadingTime_;
    if (!failSafe_) {
        if (staleness >= options_.watchdogTimeout) {
            enterFailSafe(now);
        } else if (mode_ == ControlMode::Full &&
                   staleness >= options_.staleWarnTimeout) {
            setMode(now, ControlMode::StalePartial);
        }
    }
    // Recovery-SLO accounting: integrate (at heartbeat granularity)
    // the time the row sits under caps the manager cannot currently
    // justify with fresh data.
    if (mode_ != ControlMode::Full && capsHeld())
        capsHeldStaleTicks_ += options_.watchdogInterval;
}

void
PowerManager::escalateAllRules(sim::Tick now)
{
    for (std::size_t i = 0; i < policy_.rules.size(); ++i) {
        if (!ruleActive_[i]) {
            ruleActive_[i] = true;
            ruleActivatedAt_[i] = now;
        }
    }
}

void
PowerManager::enterFailSafe(sim::Tick now)
{
    failSafe_ = true;
    failSafeEnteredAt_ = now;
    // How long the row ran unprotected before the watchdog acted —
    // the headline number the chaos campaign's safety SLO checks.
    timeToFailSafeMax_ =
        std::max(timeToFailSafeMax_, now - lastReadingTime_);
    setMode(now, ControlMode::Blind);
    ++failSafeEntries_;
    if (failSafeStat_)
        ++*failSafeStat_;
    if (trace_) {
        trace_->instant(obs::TraceCategory::Control, "failsafe_enter",
                        now, -1,
                        sim::ticksToSeconds(now - lastReadingTime_));
    }
    sim::warn("PowerManager: telemetry stale for ",
                 sim::ticksToSeconds(now - lastReadingTime_),
                 " s; entering fail-safe");
    // Flying blind: assume the worst.  Escalate every rule to the
    // deepest caps and, when allowed, pull the brake — its dedicated
    // hardware line works even when the BMC command path does not.
    escalateAllRules(now);
    // Precautionary, not reactive: counted under failSafeEntries,
    // not powerBrakeEvents.
    if (options_.failSafeEngageBrake && policy_.powerBrakeEnabled &&
        !brakeEngaged_) {
        engageBrake(now, /*countEvent=*/false);
    }
    applyDesiredLocks(now);
}

void
PowerManager::exitFailSafe(sim::Tick now)
{
    POLCA_ASSERT(now >= failSafeEnteredAt_,
                 "fail-safe exit at t=", now, " before entry at t=",
                 failSafeEnteredAt_);
    failSafe_ = false;
    failSafeTicks_ += now - failSafeEnteredAt_;
    if (trace_) {
        trace_->complete(obs::TraceCategory::Control, "fail_safe",
                         failSafeEnteredAt_, now - failSafeEnteredAt_,
                         -1, 0.0);
    }
    // The brake (if we pulled it) releases through the regular
    // reading path once utilization is back under the release
    // threshold and the minimum hold has passed.
}

sim::Tick
PowerManager::failSafeTicks() const
{
    sim::Tick total = failSafeTicks_;
    if (failSafe_)
        total += sim_.now() - failSafeEnteredAt_;
    return total;
}

bool
PowerManager::channelFlagged(workload::Priority pool,
                             std::size_t index) const
{
    const PoolState &state = poolState(pool);
    return index < state.flagged.size() && state.flagged[index];
}

void
PowerManager::engageBrake(sim::Tick now, bool countEvent)
{
    POLCA_ASSERT(!brakeEngaged_, "brake engaged twice");
    brakeEngaged_ = true;
    brakeEngagedAt_ = now;
    if (countEvent) {
        ++brakeEvents_;
        if (brakeStat_)
            ++*brakeStat_;
    }
    if (trace_) {
        trace_->instant(obs::TraceCategory::Power, "brake_engage",
                        now, -1, countEvent ? 1.0 : 0.0);
    }
    for (PoolState *pool : {&lowPool_, &highPool_}) {
        for (auto &channel : pool->channels)
            channel->requestPowerBrake(true);
    }
    // Hitting the brake means the policy under-capped: escalate
    // every rule now so the row comes back from the brake at the
    // deepest capping level instead of rebounding over the limit.
    escalateAllRules(now);
}

void
PowerManager::releaseBrake()
{
    POLCA_ASSERT(brakeEngaged_, "releasing a brake that is not engaged");
    brakeEngaged_ = false;
    brakeTicks_ += sim_.now() - brakeEngagedAt_;
    if (brakeDwellStat_) {
        brakeDwellStat_->add(
            sim::ticksToSeconds(sim_.now() - brakeEngagedAt_));
    }
    if (trace_) {
        trace_->instant(obs::TraceCategory::Power, "brake_release",
                        sim_.now(), -1, 0.0);
    }
    for (PoolState *pool : {&lowPool_, &highPool_}) {
        for (auto &channel : pool->channels)
            channel->requestPowerBrake(false);
    }
}

void
PowerManager::setMode(sim::Tick now, ControlMode mode)
{
    if (mode == mode_)
        return;
    if (mode_ == ControlMode::StalePartial)
        staleTicks_ += now - modeSince_;
    mode_ = mode;
    modeSince_ = now;
    ++modeTransitions_;
    if (modeStat_)
        ++*modeStat_;
    if (trace_) {
        trace_->instant(obs::TraceCategory::Control, "mode_transition",
                        now, -1, static_cast<double>(mode));
    }
}

bool
PowerManager::capsHeld() const
{
    return brakeEngaged_ || lowPool_.commandedMhz > 0.0 ||
        highPool_.commandedMhz > 0.0;
}

PowerManager::Snapshot
PowerManager::snapshot() const
{
    Snapshot snap;
    snap.ruleActive = ruleActive_;
    snap.ruleActivatedAt = ruleActivatedAt_;
    snap.lowCommandedMhz = lowPool_.commandedMhz;
    snap.highCommandedMhz = highPool_.commandedMhz;
    snap.brakeEngaged = brakeEngaged_;
    snap.brakeEngagedAt = brakeEngagedAt_;
    return snap;
}

void
PowerManager::controllerCrash()
{
    POLCA_CHECK(started_, "controller crash before start");
    POLCA_CHECK(!crashed_, "controller crashed twice");
    sim::Tick now = sim_.now();
    // The durable store gets the last write before the process dies;
    // a warm restart rehydrates from exactly this.
    persistedSnapshot_ = snapshot();
    // A dead process is not "in" fail-safe: close out the span so
    // failSafeTicks() stays an honest account of armed fail-safe.
    if (failSafe_)
        exitFailSafe(now);
    crashed_ = true;
    crashedAt_ = now;
    ++controllerCrashes_;
    // Process memory and timers die with the process.  The hardware
    // side survives: in-flight OOB commands still land, applied
    // clock locks persist, and the brake line stays asserted
    // (brakeEngaged_ mirrors that line, so it is not wiped).
    watchdog_.reset();
    std::fill(ruleActive_.begin(), ruleActive_.end(), false);
    std::fill(ruleActivatedAt_.begin(), ruleActivatedAt_.end(),
              sim::Tick{0});
    recentReadings_.clear();
    smoothedSum_ = 0.0;
    for (PoolState *pool : {&lowPool_, &highPool_}) {
        pool->commandedMhz = 0.0;
        pool->lastCommandTime = -1;
        std::fill(pool->consecutiveReissues.begin(),
                  pool->consecutiveReissues.end(), 0u);
        pool->flagged.assign(pool->flagged.size(), false);
    }
    setMode(now, ControlMode::Blind);
    sim::warn("PowerManager: controller crashed at t=",
              sim::ticksToSeconds(now), " s");
}

void
PowerManager::controllerRestart(bool coldRestart)
{
    POLCA_CHECK(crashed_, "controller restart without a crash");
    sim::Tick now = sim_.now();
    crashed_ = false;
    controllerDownTicks_ += now - crashedAt_;
    aliveSince_ = now;
    // Staleness is measured from revival: the new process cannot
    // blame its predecessor's blackout for readings it never missed.
    lastReadingTime_ = now;
    recovering_ = true;
    // While the controller was down every cap and the brake line
    // were frozen in place with nobody watching: the whole downtime
    // counts as caps-held-stale.
    if (persistedSnapshot_.brakeEngaged ||
        persistedSnapshot_.lowCommandedMhz > 0.0 ||
        persistedSnapshot_.highCommandedMhz > 0.0) {
        capsHeldStaleTicks_ += now - crashedAt_;
    }
    if (options_.watchdogEnabled) {
        watchdog_ = sim_.every(
            options_.watchdogInterval,
            [this](sim::Tick tick) { watchdogCheck(tick); });
    }
    if (!coldRestart) {
        // Warm: resume from last-known caps instead of blind.
        ruleActive_ = persistedSnapshot_.ruleActive;
        ruleActivatedAt_ = persistedSnapshot_.ruleActivatedAt;
        lowPool_.commandedMhz = persistedSnapshot_.lowCommandedMhz;
        highPool_.commandedMhz = persistedSnapshot_.highCommandedMhz;
        brakeEngaged_ = persistedSnapshot_.brakeEngaged;
        brakeEngagedAt_ = persistedSnapshot_.brakeEngagedAt;
        // Whatever drifted during the downtime is unknowable; push
        // the rehydrated posture back down every channel.
        for (PoolState *pool : {&lowPool_, &highPool_}) {
            if (pool->commandedMhz > 0.0) {
                for (auto &channel : pool->channels)
                    channel->requestClockLock(pool->commandedMhz);
                pool->lastCommandTime = now;
            }
            if (brakeEngaged_) {
                for (auto &channel : pool->channels)
                    channel->requestPowerBrake(true);
            }
        }
        setMode(now, ControlMode::StalePartial);
        sim::inform("PowerManager: warm restart at t=",
                    sim::ticksToSeconds(now),
                    " s; resumed from snapshot");
    } else {
        // Cold: no snapshot to rehydrate.  Assume the worst until
        // telemetry proves the world out.
        sim::warn("PowerManager: cold restart at t=",
                  sim::ticksToSeconds(now),
                  " s; no snapshot, entering fail-safe");
        enterFailSafe(now);
    }
}

void
PowerManager::serverRestarted(telemetry::ClockControllable *target)
{
    if (crashed_ || target == nullptr)
        return;  // a dead controller notices nothing
    sim::Tick now = sim_.now();
    for (PoolState *pool : {&lowPool_, &highPool_}) {
        for (std::size_t i = 0; i < pool->targets.size(); ++i) {
            if (pool->targets[i] != target)
                continue;
            // The re-issue streak and any flag described the dead
            // server, not the channel hardware: reset them.
            pool->consecutiveReissues[i] = 0;
            if (pool->flagged[i]) {
                pool->flagged[i] = false;
                sim::inform("PowerManager: OOB channel ", i,
                            " unflagged after server restart");
            }
            // The reboot wiped the server's applied OOB state;
            // re-establish the pool's posture ahead of the next
            // verification pass.
            if (pool->commandedMhz > 0.0) {
                pool->channels[i]->requestClockLock(
                    pool->commandedMhz);
                pool->lastCommandTime = now;
                ++reissued_;
                if (reissueStat_)
                    ++*reissueStat_;
            }
            if (brakeEngaged_)
                pool->channels[i]->requestPowerBrake(true);
            return;
        }
    }
}

sim::Tick
PowerManager::staleTicks() const
{
    sim::Tick total = staleTicks_;
    if (mode_ == ControlMode::StalePartial)
        total += sim_.now() - modeSince_;
    return total;
}

sim::Tick
PowerManager::brakeTicks() const
{
    sim::Tick total = brakeTicks_;
    if (brakeEngaged_)
        total += sim_.now() - brakeEngagedAt_;
    return total;
}

sim::Tick
PowerManager::lockedTicks(workload::Priority pool) const
{
    return poolState(pool).lockedTicks;
}

double
PowerManager::desiredLockMhz(workload::Priority pool) const
{
    return poolState(pool).commandedMhz;
}

} // namespace polca::core
