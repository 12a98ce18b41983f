/**
 * @file
 * Physical row circuit-breaker model and power-violation accounting.
 *
 * Oversubscription is only "safe" if the provisioned limit is never
 * violated long enough to trip the row breaker (Section 3.1: the
 * entire point of capping is to avoid tripping upstream protection).
 * This model closes the loop the simulator was missing: it watches
 * the *raw* electrical draw — independently of the OOB telemetry
 * that POLCA sees, and therefore through telemetry blackouts — and
 * trips when power stays above the breaker limit for a sustained
 * duration (thermal breakers ride through short transients).
 *
 * A trip here is an accounting event, not a simulated outage: the
 * run keeps going so experiments can count how often a policy would
 * have taken the row down.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/observability.hh"
#include "sim/simulation.hh"

namespace polca::telemetry {

/**
 * Sampled thermal-breaker model over one row's supply.
 */
class BreakerModel
{
  public:
    using PowerSource = std::function<double()>;

    struct Config
    {
        /** Row power budget; overdraw accounting is against this. */
        double provisionedWatts;

        /**
         * Breaker trip limit in watts.  0 selects the NEC-style
         * default: breakers are continuously rated at 80 % of their
         * trip limit, so a row provisioned at the continuous rating
         * has a trip limit of provisioned / 0.8.
         */
        double breakerLimitWatts;

        /** Sustained time above the limit before the breaker trips
         *  (thermal element: transients ride through). */
        sim::Tick tripDuration;

        /** An above-limit streak at least this fraction of
         *  tripDuration that ends without tripping counts as a
         *  near trip. */
        double nearTripFraction;

        /** Supply sampling cadence. */
        sim::Tick sampleInterval;

        Config()
            : provisionedWatts(0.0), breakerLimitWatts(0.0),
              tripDuration(sim::secondsToTicks(30)),
              nearTripFraction(0.5),
              sampleInterval(sim::secondsToTicks(1))
        {}
    };

    BreakerModel(sim::Simulation &sim, PowerSource supply,
                 Config config);

    /**
     * Register trip/near-trip counters, the windup-occupancy
     * histogram (fraction of tripDuration each above-limit streak
     * reached), and windup/trip trace events with @p obs.
     *
     * @p prefix names the metric namespace: the flat "breaker"
     * default keeps the historical row-experiment names
     * (breaker.trips, ...); hierarchical topologies pass the
     * domain's metric path (e.g. "site.row3.breaker") so every
     * level's breaker reports under its own namespace.
     */
    void attachObservability(obs::Observability *obs,
                             const std::string &prefix = "breaker");

    /** Begin sampling the supply. */
    void start();

    /** Stop sampling (accounting retained). */
    void stop();

    bool running() const { return task_ != nullptr; }

    /** Effective trip limit in watts. */
    double breakerLimitWatts() const { return limitWatts_; }

    /** Sustained time above the limit before the breaker trips. */
    sim::Tick tripDuration() const { return config_.tripDuration; }

    /** @name Violation accounting */
    /** @{ */
    /** Breaker trips so far (the breaker re-arms after each). */
    std::uint64_t trips() const { return trips_; }

    /** @return true if the breaker has ever tripped. */
    bool tripped() const { return trips_ > 0; }

    /** Tick of the first trip, or -1 when never tripped. */
    sim::Tick firstTripTime() const { return firstTrip_; }

    /** Above-limit streaks that came close but did not trip. */
    std::uint64_t nearTrips() const { return nearTrips_; }

    /** Total time spent above the provisioned budget. */
    sim::Tick ticksAboveProvisioned() const { return aboveBudget_; }

    /** Total time spent above the breaker limit. */
    sim::Tick ticksAboveLimit() const { return aboveLimit_; }

    /** Integral of max(0, draw - provisioned) over time. */
    double overdrawWattSeconds() const { return overdrawWs_; }

    /** Longest contiguous above-limit streak observed. */
    sim::Tick longestOverLimitStreak() const { return longestStreak_; }
    /** @} */

    /** Mutable state at a snapshot boundary: the violation
     *  accounting plus the sampler's schedule position. */
    struct State
    {
        sim::Tick streak = 0;
        sim::Tick longestStreak = 0;
        sim::Tick aboveBudget = 0;
        sim::Tick aboveLimit = 0;
        double overdrawWs = 0.0;
        std::uint64_t trips = 0;
        std::uint64_t nearTrips = 0;
        sim::Tick firstTrip = -1;
        sim::Simulation::PeriodicTask::State task;
    };

    /** Capture mutable state (snapshot support). */
    [[nodiscard]] State saveState() const;

    /** Restore from a snapshot while the queue has a restore open;
     *  the breaker must be start()ed when the saved task was
     *  running. */
    void restoreState(const State &state);

  private:
    void sample(sim::Tick now);
    void endStreak(sim::Tick now, bool tripped);

    sim::Simulation &sim_;
    PowerSource supply_;
    // polca-snapshot: skip(config_, immutable breaker config)
    Config config_;
    // polca-snapshot: skip(limitWatts_, derived from config_ at construction)
    double limitWatts_;
    std::unique_ptr<sim::Simulation::PeriodicTask> task_;

    sim::Tick streak_ = 0;          ///< current above-limit streak
    sim::Tick longestStreak_ = 0;
    sim::Tick aboveBudget_ = 0;
    sim::Tick aboveLimit_ = 0;
    double overdrawWs_ = 0.0;
    std::uint64_t trips_ = 0;
    std::uint64_t nearTrips_ = 0;
    sim::Tick firstTrip_ = -1;

    obs::TraceRecorder *trace_ = nullptr;
    obs::Counter *tripStat_ = nullptr;
    obs::Counter *nearTripStat_ = nullptr;
    obs::Histogram *windupStat_ = nullptr;
    obs::LogHistogram *overdrawStat_ = nullptr;
};

} // namespace polca::telemetry

