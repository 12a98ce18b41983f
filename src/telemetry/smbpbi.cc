#include "telemetry/smbpbi.hh"

#include <utility>

#include "core/contracts.hh"

namespace polca::telemetry {

SmbpbiController::SmbpbiController(sim::Simulation &sim,
                                   ClockControllable &target,
                                   sim::Rng rng, Options options)
    : sim_(sim), target_(target), rng_(std::move(rng)), options_(options)
{
}

SmbpbiController::ObsHandles
SmbpbiController::ObsHandles::resolve(obs::Observability *sink)
{
    ObsHandles handles;
    if (!sink)
        return handles;
    handles.sink = sink;
    handles.issued = &sink->metrics.counter(
        "smbpbi.commands_issued", "OOB capping commands put on the wire");
    handles.dropped = &sink->metrics.counter(
        "smbpbi.commands_dropped", "capping commands lost silently");
    handles.superseded = &sink->metrics.counter(
        "smbpbi.commands_superseded",
        "capping commands replaced while still in flight");
    handles.brakes = &sink->metrics.counter(
        "smbpbi.brake_commands", "power-brake line togglings");
    // 100 us .. 100 s at 1 % relative error: OOB command latencies
    // sit around seconds, brake latencies around milliseconds.
    handles.applyLatency = &sink->metrics.logHistogram(
        "smbpbi.apply_latency_s", 1e-4, 100.0, 0.01,
        "command issue to application latency (seconds)");
    return handles;
}

void
SmbpbiController::attachObservability(const ObsHandles &handles,
                                      std::int32_t track)
{
    POLCA_DCHECK(handles == ObsHandles::resolve(handles.sink),
                 "OOB channel ", track, ": metric handles differ from "
                 "the sink's registry (stale or hand-built handle)");
    obs_ = handles;
    track_ = track;
}

void
SmbpbiController::issue(double lockMhz)
{
    // A newer command supersedes any pending one.
    if (pending_.pending()) {
        if (obs_.superseded)
            ++*obs_.superseded;
        if (obs_.sink) {
            obs_.sink->trace.instant(obs::TraceCategory::Control,
                                     "cap_superseded", sim_.now(), track_);
        }
    }
    sim_.queue().cancel(pending_);
    ++issued_;
    if (obs_.issued)
        ++*obs_.issued;

    // Loss is decided when the command hits the wire: an injected
    // channel outage swallows it just like a stochastic failure.  A
    // lossless channel never draws, so its stream is never built.
    bool drop = outage_ ||
        (options_.silentFailureProbability > 0.0 &&
         rng_.bernoulli(options_.silentFailureProbability));
    sim::Tick issuedAt = sim_.now();
    pendingIssueTime_ = issuedAt;
    pending_ = sim_.queue().scheduleAfter(
        options_.commandLatency,
        [this, lockMhz, drop, issuedAt] {
            sim::Tick now = sim_.now();
            // The cap_issue span covers issue -> (attempted)
            // application; its duration is the OOB command latency
            // by construction, which the control_plane_timeline
            // example cross-checks against the configuration.
            if (obs_.sink) {
                obs_.sink->trace.complete(obs::TraceCategory::Control,
                                          "cap_issue", issuedAt,
                                          now - issuedAt, track_, lockMhz);
            }
            if (obs_.applyLatency)
                obs_.applyLatency->add(sim::ticksToSeconds(now - issuedAt));
            if (drop) {
                // Silent failure: no state change, no error signal.
                ++dropped_;
                if (obs_.dropped)
                    ++*obs_.dropped;
                if (obs_.sink) {
                    obs_.sink->trace.instant(obs::TraceCategory::Control,
                                             "cap_dropped", now, track_,
                                             lockMhz);
                }
                return;
            }
            if (lockMhz > 0.0)
                target_.applyClockLock(lockMhz);
            else
                target_.applyClockUnlock();
        });
}

void
SmbpbiController::requestClockLock(double mhz)
{
    issue(mhz);
}

void
SmbpbiController::requestClockUnlock()
{
    issue(0.0);
}

void
SmbpbiController::requestPowerBrake(bool engage)
{
    ++brakes_;
    if (obs_.brakes)
        ++*obs_.brakes;
    sim::Tick issuedAt = sim_.now();
    sim_.queue().postAfter(
        options_.brakeLatency,
        [this, engage, issuedAt] {
            if (obs_.sink) {
                obs_.sink->trace.complete(obs::TraceCategory::Control,
                                          "brake_cmd", issuedAt,
                                          sim_.now() - issuedAt, track_,
                                          engage ? 1.0 : 0.0);
            }
            target_.applyPowerBrake(engage);
        });
}

} // namespace polca::telemetry
