#include "faults/fault_injector.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace polca::faults {

FaultInjector::FaultInjector(sim::Simulation &sim, FaultPlan plan,
                             sim::Rng rng)
    : sim_(sim), plan_(std::move(plan)), rng_(rng)
{
    plan_.validate();
}

void
FaultInjector::attachTelemetry(telemetry::DomainManager &telemetry)
{
    telemetry.setFaultHook(
        [this](sim::Tick now, double watts) {
            return filterReading(now, watts);
        });
}

void
FaultInjector::attachChannels(
    std::vector<telemetry::SmbpbiController *> channels)
{
    for (telemetry::SmbpbiController *channel : channels) {
        if (!channel)
            sim::panic("FaultInjector: null channel");
        channels_.push_back(channel);
    }
}

void
FaultInjector::attachServers(
    std::vector<cluster::InferenceServer *> servers)
{
    for (cluster::InferenceServer *server : servers) {
        if (!server)
            sim::panic("FaultInjector: null server");
        servers_.push_back(server);
    }
}

void
FaultInjector::attachController(ControllerHooks *controller)
{
    controller_ = controller;
}

void
FaultInjector::attachObservability(obs::Observability *obs)
{
    if (!obs) {
        trace_ = nullptr;
        blackedOutStat_ = burstDroppedStat_ = corruptedStat_ =
            crashStat_ = controllerCrashStat_ = nullptr;
        return;
    }
    trace_ = &obs->trace;
    blackedOutStat_ = &obs->metrics.counter(
        "faults.blacked_out_readings",
        "readings suppressed by blackout windows");
    burstDroppedStat_ = &obs->metrics.counter(
        "faults.burst_dropped_readings",
        "readings lost to the bursty-loss channel");
    corruptedStat_ = &obs->metrics.counter(
        "faults.corrupted_readings",
        "readings delivered with a corrupted value");
    crashStat_ = &obs->metrics.counter(
        "faults.crashes_injected", "server crash events executed");
    controllerCrashStat_ = &obs->metrics.counter(
        "faults.controller_crashes_injected",
        "controller crash events executed");
}

void
FaultInjector::setOutage(bool active)
{
    for (telemetry::SmbpbiController *channel : channels_)
        channel->setOutage(active);
}

void
FaultInjector::start()
{
    if (started_)
        sim::panic("FaultInjector: start called twice");
    started_ = true;

    // Every planned window is known a priori; record them as spans
    // now so the trace shows fault context even for windows whose
    // effects never fire (e.g. a blackout with no reading in it).
    if (trace_) {
        for (const BlackoutWindow &w : plan_.blackouts) {
            trace_->complete(obs::TraceCategory::Fault,
                             "telemetry_blackout", w.start,
                             w.duration, -2, 0.0);
        }
        for (const OobOutage &o : plan_.oobOutages) {
            trace_->complete(obs::TraceCategory::Fault, "oob_outage",
                             o.start, o.duration, -2, 0.0);
        }
        for (const SensorFault &f : plan_.sensorFaults) {
            trace_->complete(obs::TraceCategory::Fault, "sensor_fault",
                             f.start, f.duration, -2,
                             static_cast<double>(f.mode));
        }
        for (const ServerCrash &c : plan_.crashes) {
            trace_->complete(obs::TraceCategory::Fault,
                             "server_downtime", c.at, c.downtime,
                             c.serverIndex,
                             static_cast<double>(c.serverIndex));
        }
        for (const ControllerCrash &c : plan_.controllerCrashes) {
            trace_->complete(obs::TraceCategory::Fault,
                             "controller_downtime", c.at, c.downtime,
                             -3, c.coldRestart ? 1.0 : 0.0);
        }
    }

    for (const OobOutage &outage : plan_.oobOutages) {
        if (!channels_.empty()) {
            sim_.queue().post(
                outage.start, [this] { setOutage(true); },
                "fault-oob-outage-start");
            sim_.queue().post(
                outage.start + outage.duration,
                [this] { setOutage(false); },
                "fault-oob-outage-end");
        }
    }

    for (const ServerCrash &crash : plan_.crashes) {
        if (static_cast<std::size_t>(crash.serverIndex) >=
            servers_.size()) {
            sim::fatal("FaultInjector: crash server index ",
                       crash.serverIndex, " but only ",
                       servers_.size(), " servers attached");
        }
        cluster::InferenceServer *victim =
            servers_[static_cast<std::size_t>(crash.serverIndex)];
        sim_.queue().post(
            crash.at,
            [this, victim] {
                victim->crash();
                ++crashesInjected_;
                if (crashStat_)
                    ++*crashStat_;
                if (trace_) {
                    trace_->instant(obs::TraceCategory::Fault,
                                    "server_crash", sim_.now(),
                                    victim->id(),
                                    static_cast<double>(victim->id()));
                }
            },
            "fault-crash");
        if (crash.permanent)
            continue;  // deliberately dark for the rest of the run
        sim_.queue().post(
            crash.at + crash.downtime,
            [this, victim] {
                victim->restore();
                // The reboot wiped the server's applied OOB state;
                // tell the controller so it can reset per-channel
                // bookkeeping and re-assert its caps.
                if (controller_)
                    controller_->serverRestarted(victim);
            },
            "fault-restore");
    }

    for (const ControllerCrash &crash : plan_.controllerCrashes) {
        if (!controller_)
            break;  // unmanaged run: nothing to crash
        bool cold = crash.coldRestart;
        sim_.queue().post(
            crash.at,
            [this] {
                controller_->controllerCrash();
                ++controllerCrashesInjected_;
                if (controllerCrashStat_)
                    ++*controllerCrashStat_;
                if (trace_) {
                    trace_->instant(obs::TraceCategory::Fault,
                                    "controller_crash", sim_.now(),
                                    -3, 0.0);
                }
            },
            "fault-controller-crash");
        sim_.queue().post(
            crash.at + crash.downtime,
            [this, cold] { controller_->controllerRestart(cold); },
            "fault-controller-restart");
    }
}

std::optional<double>
FaultInjector::filterReading(sim::Tick now, double watts)
{
    // 1. Blackout windows: the reading never happens.
    for (const BlackoutWindow &w : plan_.blackouts) {
        if (now >= w.start && now < w.start + w.duration) {
            ++blackedOut_;
            if (blackedOutStat_)
                ++*blackedOutStat_;
            return std::nullopt;
        }
    }

    // 2. Bursty loss: advance the Gilbert–Elliott channel once per
    //    scheduled reading, then lose the reading at the state's
    //    loss rate.  State advances even for delivered readings so
    //    the process is well-defined regardless of outcome.
    if (plan_.burstyLoss.enabled) {
        const BurstyLoss &ge = plan_.burstyLoss;
        if (inBurst_)
            inBurst_ = !rng_.bernoulli(ge.exitBurstProbability);
        else
            inBurst_ = rng_.bernoulli(ge.enterBurstProbability);
        double lossProbability = inBurst_ ? ge.burstLossProbability
                                          : ge.goodLossProbability;
        if (lossProbability > 0.0 &&
            rng_.bernoulli(lossProbability)) {
            ++burstDropped_;
            if (burstDroppedStat_)
                ++*burstDroppedStat_;
            return std::nullopt;
        }
    }

    // 3. Sensor corruption: the reading arrives, but lies.
    bool wasCorrupted = false;
    for (const SensorFault &fault : plan_.sensorFaults) {
        if (now < fault.start || now >= fault.start + fault.duration)
            continue;
        switch (fault.mode) {
          case SensorFaultMode::Bias:
            watts += fault.biasWatts;
            break;
          case SensorFaultMode::Noise:
            watts += rng_.normal(0.0, fault.noiseStddevWatts);
            break;
          case SensorFaultMode::StuckAtLast:
            if (haveLastGood_)
                watts = lastGoodWatts_;
            break;
        }
        wasCorrupted = true;
    }
    if (wasCorrupted) {
        ++corrupted_;
        if (corruptedStat_)
            ++*corruptedStat_;
        return std::max(0.0, watts);
    }

    lastGoodWatts_ = watts;
    haveLastGood_ = true;
    return watts;
}

} // namespace polca::faults
