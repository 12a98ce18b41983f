/**
 * @file
 * Behavioural model of one GPU: activity-driven power draw plus the
 * three control knobs the paper characterizes — frequency locking,
 * reactive power capping, and the OOB power brake (Section 3.2).
 */

#pragma once

#include <limits>
#include <memory>

#include "power/gpu_spec.hh"
#include "sim/types.hh"

namespace polca::power {

/**
 * Workload activity on a GPU, set by the LLM phase models.
 * Components are utilization factors; compute may exceed 1.0 to model
 * short above-TDP bursts (prompt phases, Insight 4).
 */
struct GpuActivity
{
    double compute = 0.0;   ///< SM + tensor pipe activity
    double memory = 0.0;    ///< HBM bandwidth activity

    static GpuActivity idle() { return {0.0, 0.0}; }
};

/**
 * One GPU's power state machine.
 *
 * Knob semantics mirror the paper:
 *  - lockClock(): in-band frequency locking; always active, reduces
 *    power unconditionally (Insight 3/7).
 *  - setPowerCap(): reactive capping; a periodic on-device controller
 *    (stepCapController()) throttles the clock only after measured
 *    power exceeds the cap, so short prompt spikes overshoot the cap
 *    (Fig 9b) while sustained phases settle under it.
 *  - setPowerBrake(): OOB emergency brake that slams the clock to
 *    powerBrakeClockMhz (paper: 288 MHz, ~5 s actuation modelled at
 *    the telemetry layer).
 *
 * The effective clock is min(locked clock, cap-throttle clock), or the
 * brake clock when the brake is engaged.
 *
 * The spec is shared and immutable: a server's eight GPUs hold one
 * GpuSpec between them, and copies (snapshots, branch restores) share
 * it too, so a GPU carries only its activity and knobs (88 bytes).
 */
class GpuPowerModel
{
  public:
    /** A GPU with its own copy of @p spec (standalone use). */
    explicit GpuPowerModel(GpuSpec spec);

    /** A GPU sharing @p spec with the other GPUs of its server. */
    explicit GpuPowerModel(std::shared_ptr<const GpuSpec> spec);

    const GpuSpec &spec() const { return *spec_; }

    /** @name Workload interface */
    /** @{ */
    /** Set current activity (held until the next change). */
    void setActivity(const GpuActivity &activity);
    const GpuActivity &activity() const { return activity_; }
    /** @} */

    /** @name Control knobs */
    /** @{ */
    /** Lock the SM clock to @p mhz (clamped to the legal range). */
    void lockClock(double mhz);

    /** Remove a frequency lock. */
    void unlockClock();

    bool clockLocked() const { return lockedClockMhz_ > 0.0; }
    double lockedClockMhz() const { return lockedClockMhz_; }

    /** Set a software power cap in watts (clamped to the cap range). */
    void setPowerCap(double watts);

    /** Remove the power cap (reverts to the TDP default). */
    void clearPowerCap();

    bool powerCapped() const { return capWatts_ > 0.0; }
    double powerCapWatts() const { return capWatts_; }

    /** Engage/release the OOB power brake. */
    void setPowerBrake(bool engaged);
    bool powerBrake() const { return brakeEngaged_; }
    /** @} */

    /** Clock actually applied after all knobs, MHz. */
    double effectiveClockMhz() const;

    /** Instantaneous power draw at the current activity/clock. */
    double powerWatts() const;

    /**
     * Power that the current activity would draw at clock @p mhz.
     * The two clock terms (f / fmax)^exponent are memoized for the
     * last clock they were computed at, so reads at an unchanged
     * clock skip std::pow; the result is bitwise the same either way.
     */
    double powerAtClock(double mhz) const;

    /**
     * Advance the reactive cap controller by one control period.
     * Call every capControlPeriod() ticks; no-op without a cap.
     * Throttles quickly when over the cap, recovers slowly when
     * under it (the asymmetry that causes cap overshoot and the
     * performance variability of Insight 3).
     */
    void stepCapController();

    /** Period of the on-device cap control loop (25 ms). */
    static sim::Tick capControlPeriod() { return sim::msToTicks(25); }

    /**
     * Workload slowdown at the effective clock relative to the
     * maximum clock, for a phase whose compute-bound fraction is
     * @p computeBoundFraction: memory-bound phases barely slow down
     * when the SM clock drops (Insight 7).
     *
     * @return multiplier >= 1 on phase duration.
     */
    double slowdownFactor(double computeBoundFraction) const;

  private:
    /** Clock ceiling requested by lock (or max when unlocked). */
    double targetClockMhz() const;

    std::shared_ptr<const GpuSpec> spec_;  ///< never null
    GpuActivity activity_;
    double lockedClockMhz_ = 0.0;   ///< 0 = unlocked
    double capWatts_ = 0.0;         ///< 0 = uncapped
    double capThrottleClockMhz_ = 0.0;  ///< cap controller's clock ceiling
    bool brakeEngaged_ = false;

    // Clock terms (f / fmax)^exponent for memoClockMhz_; a copy
    // carries them with the knobs, and any other clock recomputes.
    // NaN matches no clock, so the first read computes them.
    // polca-snapshot: skip(memoClockMhz_, derived; keys the clock terms, recomputed at any other clock)
    mutable double memoClockMhz_ =
        std::numeric_limits<double>::quiet_NaN();
    // polca-snapshot: skip(memoComputeTerm_, derived; recomputed with memoClockMhz_)
    mutable double memoComputeTerm_ = 0.0;
    // polca-snapshot: skip(memoMemoryTerm_, derived; recomputed with memoClockMhz_)
    mutable double memoMemoryTerm_ = 0.0;
};

} // namespace polca::power

