#include "workload/diurnal.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/logging.hh"

namespace polca::workload {

namespace {
constexpr double secondsPerDay = 24.0 * 3600.0;
constexpr double pi = 3.14159265358979323846;
} // namespace

DiurnalModel::DiurnalModel(Params params, sim::Rng rng)
    : params_(params), rng_(std::move(rng))
{
    if (params_.baseUtilization <= 0.0)
        sim::fatal("DiurnalModel: non-positive base utilization");
}

double
DiurnalModel::deterministicAt(sim::Tick time) const
{
    double seconds = sim::ticksToSeconds(time);
    double secondsOfDay = std::fmod(seconds, secondsPerDay);
    double phase = 2.0 * pi *
        (secondsOfDay - params_.peakSecondsOfDay) / secondsPerDay;
    double daily = params_.dailyAmplitude * std::cos(phase);

    // Day 0 is a Monday; days 5 and 6 are the weekend.
    auto day = static_cast<long>(seconds / secondsPerDay) % 7;
    double weekend = (day == 5 || day == 6) ? -params_.weekendDip : 0.0;

    double u = params_.baseUtilization + daily + weekend;
    return std::clamp(u, params_.minUtilization, params_.maxUtilization);
}

double
DiurnalModel::utilizationAt(sim::Tick time)
{
    if (!first_ && time < lastTime_) {
        sim::panic("DiurnalModel: time ", time,
                   " precedes last query ", lastTime_);
    }

    double dtSeconds =
        first_ ? 0.0 : sim::ticksToSeconds(time - lastTime_);
    first_ = false;
    lastTime_ = time;

    // AR(1) noise with the configured correlation time.
    double rho = std::exp(-dtSeconds / params_.noiseCorrSeconds);
    double innovation = params_.noiseAmplitude *
        std::sqrt(std::max(0.0, 1.0 - rho * rho));
    noiseState_ = rho * noiseState_ + rng_.normal(0.0, innovation);

    double u = deterministicAt(time) + noiseState_;
    return std::clamp(u, params_.minUtilization, params_.maxUtilization);
}

} // namespace polca::workload
