#include "power/gpu_power_model.hh"

#include <algorithm>
#include <cmath>

#include "core/contracts.hh"
#include "sim/logging.hh"

namespace polca::power {

namespace {

/** One dynamic term's clock factor (f / fmax)^exponent, unmemoized. */
double
clockTerm(const GpuSpec &spec, double mhz, double exponent)
{
    double ratio = std::clamp(mhz / spec.maxSmClockMhz, 0.0, 1.0);
    return std::pow(ratio, exponent);
}

} // namespace

GpuPowerModel::GpuPowerModel(GpuSpec spec)
    : spec_(std::move(spec)), capThrottleClockMhz_(spec_.maxSmClockMhz)
{
    if (spec_.tdpWatts <= 0.0 || spec_.maxSmClockMhz <= 0.0)
        sim::fatal("GpuPowerModel: invalid spec '", spec_.name, "'");
}

void
GpuPowerModel::setActivity(const GpuActivity &activity)
{
    POLCA_CHECK(activity.compute >= 0.0 && activity.memory >= 0.0,
                "negative activity (", activity.compute, ", ",
                activity.memory, ")");
    activity_ = activity;
}

void
GpuPowerModel::lockClock(double mhz)
{
    lockedClockMhz_ = std::clamp(mhz, spec_.minSmClockMhz,
                                 spec_.maxSmClockMhz);
}

void
GpuPowerModel::unlockClock()
{
    lockedClockMhz_ = 0.0;
}

void
GpuPowerModel::setPowerCap(double watts)
{
    capWatts_ = std::clamp(watts, spec_.minPowerCapWatts,
                           spec_.maxPowerCapWatts);
}

void
GpuPowerModel::clearPowerCap()
{
    capWatts_ = 0.0;
    capThrottleClockMhz_ = spec_.maxSmClockMhz;
}

void
GpuPowerModel::setPowerBrake(bool engaged)
{
    brakeEngaged_ = engaged;
}

double
GpuPowerModel::targetClockMhz() const
{
    return clockLocked() ? lockedClockMhz_ : spec_.maxSmClockMhz;
}

double
GpuPowerModel::effectiveClockMhz() const
{
    if (brakeEngaged_)
        return spec_.powerBrakeClockMhz;
    return std::min(targetClockMhz(), capThrottleClockMhz_);
}

double
GpuPowerModel::powerAtClock(double mhz) const
{
    if (mhz != memoClockMhz_) {
        memoClockMhz_ = mhz;
        memoComputeTerm_ =
            clockTerm(spec_, mhz, spec_.computeClockExponent);
        memoMemoryTerm_ = clockTerm(spec_, mhz, spec_.memoryClockExponent);
    }
    POLCA_DCHECK(
        core::bitwiseEqual(memoComputeTerm_,
                           clockTerm(spec_, mhz,
                                     spec_.computeClockExponent)) &&
            core::bitwiseEqual(memoMemoryTerm_,
                               clockTerm(spec_, mhz,
                                         spec_.memoryClockExponent)),
        "memoized clock terms at ", mhz,
        " MHz differ from a fresh evaluation");
    // Same operation order as the unmemoized formula,
    // (activity * dynWatts) * term, so every draw is bitwise equal.
    double compute =
        activity_.compute * spec_.computeDynWatts * memoComputeTerm_;
    double memory =
        activity_.memory * spec_.memoryDynWatts * memoMemoryTerm_;
    return spec_.idleWatts + compute + memory;
}

double
GpuPowerModel::powerWatts() const
{
    return powerAtClock(effectiveClockMhz());
}

void
GpuPowerModel::stepCapController()
{
    if (!powerCapped()) {
        capThrottleClockMhz_ = spec_.maxSmClockMhz;
        return;
    }

    double p = powerWatts();
    double clock = effectiveClockMhz();
    if (brakeEngaged_)
        return;  // brake overrides; nothing to adjust

    if (p > capWatts_) {
        // Throttle proportionally to the overshoot, at most 12 % per
        // control period.  Reacting takes a few periods, which is why
        // prompt spikes escape the cap (Fig 9b).
        double scale = std::max(capWatts_ / p, 0.88);
        capThrottleClockMhz_ = std::max(clock * scale,
                                        spec_.minSmClockMhz);
    } else if (p < capWatts_ * 0.97 &&
               capThrottleClockMhz_ < targetClockMhz()) {
        // Recover slowly (3 % per period) to avoid oscillation; this
        // is the reactive lag that makes capping "less precise" than
        // locking (Section 3.2).
        capThrottleClockMhz_ = std::min(
            capThrottleClockMhz_ * 1.03, targetClockMhz());
    }
}

double
GpuPowerModel::slowdownFactor(double computeBoundFraction) const
{
    POLCA_CHECK(computeBoundFraction >= 0.0 &&
                    computeBoundFraction <= 1.0,
                "compute-bound fraction ", computeBoundFraction,
                " outside [0,1]");
    double f = effectiveClockMhz();
    double ratio = spec_.maxSmClockMhz / f;
    return computeBoundFraction * ratio + (1.0 - computeBoundFraction);
}

} // namespace polca::power
