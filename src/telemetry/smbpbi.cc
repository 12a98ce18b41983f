#include "telemetry/smbpbi.hh"

#include <utility>

namespace polca::telemetry {

SmbpbiController::SmbpbiController(sim::Simulation &sim,
                                   ClockControllable &target,
                                   sim::Rng rng, Options options)
    : sim_(sim), target_(target), rng_(std::move(rng)), options_(options)
{
}

void
SmbpbiController::attachObservability(obs::Observability *obs,
                                      std::int32_t track)
{
    if (!obs) {
        trace_ = nullptr;
        issuedStat_ = droppedStat_ = supersededStat_ = brakeStat_ =
            nullptr;
        applyLatencyStat_ = nullptr;
        return;
    }
    trace_ = &obs->trace;
    track_ = track;
    issuedStat_ = &obs->metrics.counter(
        "smbpbi.commands_issued", "OOB capping commands put on the wire");
    droppedStat_ = &obs->metrics.counter(
        "smbpbi.commands_dropped", "capping commands lost silently");
    supersededStat_ = &obs->metrics.counter(
        "smbpbi.commands_superseded",
        "capping commands replaced while still in flight");
    brakeStat_ = &obs->metrics.counter(
        "smbpbi.brake_commands", "power-brake line togglings");
    // 100 us .. 100 s at 1 % relative error: OOB command latencies
    // sit around seconds, brake latencies around milliseconds.
    applyLatencyStat_ = &obs->metrics.logHistogram(
        "smbpbi.apply_latency_s", 1e-4, 100.0, 0.01,
        "command issue to application latency (seconds)");
}

void
SmbpbiController::issue(double lockMhz)
{
    // A newer command supersedes any pending one.
    if (pending_.pending()) {
        if (supersededStat_)
            ++*supersededStat_;
        if (trace_) {
            trace_->instant(obs::TraceCategory::Control,
                            "cap_superseded", sim_.now(), track_);
        }
    }
    sim_.queue().cancel(pending_);
    ++issued_;
    if (issuedStat_)
        ++*issuedStat_;

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
            if (trace_) {
                trace_->complete(obs::TraceCategory::Control,
                                 "cap_issue", issuedAt, now - issuedAt,
                                 track_, lockMhz);
            }
            if (applyLatencyStat_) {
                applyLatencyStat_->add(
                    sim::ticksToSeconds(now - issuedAt));
            }
            if (drop) {
                // Silent failure: no state change, no error signal.
                ++dropped_;
                if (droppedStat_)
                    ++*droppedStat_;
                if (trace_) {
                    trace_->instant(obs::TraceCategory::Control,
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
    if (brakeStat_)
        ++*brakeStat_;
    sim::Tick issuedAt = sim_.now();
    sim_.queue().postAfter(
        options_.brakeLatency,
        [this, engage, issuedAt] {
            if (trace_) {
                trace_->complete(obs::TraceCategory::Control,
                                 "brake_cmd", issuedAt,
                                 sim_.now() - issuedAt, track_,
                                 engage ? 1.0 : 0.0);
            }
            target_.applyPowerBrake(engage);
        });
}

} // namespace polca::telemetry
