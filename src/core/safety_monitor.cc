#include "core/safety_monitor.hh"

#include <algorithm>
#include <utility>

#include "core/contracts.hh"
#include "sim/logging.hh"

namespace polca::core {

const char *
toString(SafetyInvariant invariant)
{
    switch (invariant) {
      case SafetyInvariant::BreakerEnvelope:
        return "breaker-envelope";
      case SafetyInvariant::FailSafeDeadline:
        return "fail-safe-deadline";
      case SafetyInvariant::CapRelease:
        return "cap-release";
      case SafetyInvariant::CapFloor:
        return "cap-floor";
      case SafetyInvariant::PerfBudget:
        return "perf-budget";
    }
    return "unknown";
}

SafetyMonitor::SafetyMonitor(sim::Simulation &sim, Limits limits,
                             std::function<double()> rawPower,
                             PowerManager *manager)
    : sim_(sim), limits_(limits), rawPower_(std::move(rawPower)),
      manager_(manager)
{
    POLCA_CHECK(rawPower_ != nullptr,
                "SafetyMonitor: no raw power source");
    POLCA_CHECK(limits_.checkInterval > 0,
                "SafetyMonitor: non-positive check interval");
    POLCA_CHECK(limits_.provisionedWatts > 0.0,
                "SafetyMonitor: non-positive provisioned power");
}

void
SafetyMonitor::attachTelemetry(telemetry::DomainManager &telemetry)
{
    telemetry.addListener([this](sim::Tick now, double watts) {
        lastDelivered_ = now;
        staleReported_ = false;
        // Quiet-episode tracking: the cap-release clock starts when
        // the row drops below every release threshold and stops the
        // moment it pops back over any of them.
        double utilization = watts / limits_.provisionedWatts;
        if (utilization < limits_.quietUtilization) {
            if (!quiet_) {
                quiet_ = true;
                quietSince_ = now;
                quietReported_ = false;
            }
        } else {
            quiet_ = false;
        }
    });
}

void
SafetyMonitor::attachObservability(obs::Observability *obs)
{
    if (!obs) {
        trace_ = nullptr;
        violationStat_ = nullptr;
        return;
    }
    trace_ = &obs->trace;
    violationStat_ = &obs->metrics.counter(
        "safety.violations", "safety invariants breached");
}

void
SafetyMonitor::start()
{
    POLCA_CHECK(!started_, "SafetyMonitor: start called twice");
    started_ = true;
    lastDelivered_ = sim_.now();
    sweep_ = sim_.every(limits_.checkInterval,
                        [this](sim::Tick now) { check(now); });
}

void
SafetyMonitor::record(SafetyInvariant invariant, sim::Tick at,
                      double value, double limit)
{
    violations_.push_back({invariant, at, value, limit});
    if (violationStat_)
        ++*violationStat_;
    if (trace_) {
        trace_->instant(obs::TraceCategory::Control,
                        "safety_violation", at, -4,
                        static_cast<double>(invariant));
    }
    sim::warn("SafetyMonitor: ", toString(invariant),
              " violated at t=", sim::ticksToSeconds(at),
              " s (value ", value, ", limit ", limit, ")");
}

void
SafetyMonitor::check(sim::Tick now)
{
    // 1. Breaker envelope on ground-truth power.  Excursions are
    //    tolerated up to the breaker's own grace, then reported once
    //    per excursion.
    if (limits_.breakerLimitWatts > 0.0) {
        double raw = rawPower_();
        if (raw > limits_.breakerLimitWatts) {
            if (!excursionActive_) {
                excursionActive_ = true;
                excursionSince_ = now;
                excursionReported_ = false;
            }
            if (!excursionReported_ &&
                now - excursionSince_ >= limits_.breakerGrace) {
                excursionReported_ = true;
                record(SafetyInvariant::BreakerEnvelope, now, raw,
                       limits_.breakerLimitWatts);
            }
        } else {
            excursionActive_ = false;
        }
    }

    if (!manager_)
        return;

    // A crashed controller holds no invariants — what matters is
    // what its replacement does, and the restart path either
    // rehydrates or fails safe.  Restart the clocks so episodes that
    // straddle the crash are measured from revival.
    if (manager_->crashed()) {
        staleReported_ = false;
        quietSince_ = now;
        quietReported_ = false;
        return;
    }

    // 2. Fail-safe deadline: telemetry stale past the bound with no
    //    fail-safe active means the watchdog is broken or off.
    //    Staleness is measured against this controller incarnation.
    sim::Tick freshPoint = std::max(lastDelivered_,
                                    manager_->aliveSince());
    sim::Tick staleness = now - freshPoint;
    if (staleness > limits_.failSafeDeadline &&
        !manager_->failSafeActive() && !staleReported_) {
        staleReported_ = true;
        record(SafetyInvariant::FailSafeDeadline, now,
               sim::ticksToSeconds(staleness),
               sim::ticksToSeconds(limits_.failSafeDeadline));
    }

    // 3. Cap release: with the controller healthy, telemetry fresh,
    //    and the row quiet beyond the deadline, caps must be gone.
    //    Fail-safe and staleness pause (and restart) the clock —
    //    holding caps while blind is correct behavior.
    if (manager_->failSafeActive() ||
        staleness > limits_.failSafeDeadline) {
        quietSince_ = now;
        quietReported_ = false;
    } else if (quiet_ && !quietReported_ &&
               now - quietSince_ > limits_.capReleaseDeadline) {
        bool capsHeld =
            manager_->brakeEngaged() ||
            manager_->desiredLockMhz(workload::Priority::Low) > 0.0 ||
            manager_->desiredLockMhz(workload::Priority::High) > 0.0;
        if (capsHeld) {
            quietReported_ = true;
            record(SafetyInvariant::CapRelease, now,
                   sim::ticksToSeconds(now - quietSince_),
                   sim::ticksToSeconds(limits_.capReleaseDeadline));
        }
    }

    // 4. Cap floor: no commanded lock may undercut the deepest rule
    //    in the policy (reported once per pool per episode).
    if (limits_.capFloorMhz > 0.0) {
        double low = manager_->desiredLockMhz(workload::Priority::Low);
        double high =
            manager_->desiredLockMhz(workload::Priority::High);
        bool lowBad = low > 0.0 && low < limits_.capFloorMhz - 0.5;
        bool highBad = high > 0.0 && high < limits_.capFloorMhz - 0.5;
        if (lowBad && !floorReportedLow_) {
            floorReportedLow_ = true;
            record(SafetyInvariant::CapFloor, now, low,
                   limits_.capFloorMhz);
        } else if (!lowBad) {
            floorReportedLow_ = false;
        }
        if (highBad && !floorReportedHigh_) {
            floorReportedHigh_ = true;
            record(SafetyInvariant::CapFloor, now, high,
                   limits_.capFloorMhz);
        } else if (!highBad) {
            floorReportedHigh_ = false;
        }
    }
}

void
SafetyMonitor::finish(sim::Tick end)
{
    POLCA_CHECK(started_, "SafetyMonitor: finish before start");
    if (finished_)
        return;
    finished_ = true;
    sweep_.reset();

    // 5. Perf budget: total brake time over the whole run.
    if (manager_ && end > 0 && limits_.maxBrakeTimeFraction < 1.0) {
        double fraction =
            static_cast<double>(manager_->brakeTicks()) /
            static_cast<double>(end);
        if (fraction > limits_.maxBrakeTimeFraction) {
            record(SafetyInvariant::PerfBudget, end, fraction,
                   limits_.maxBrakeTimeFraction);
        }
    }
}

} // namespace polca::core
