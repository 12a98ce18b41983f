/**
 * @file
 * Static GPU device parameters.
 *
 * The catalog anchors to the hardware the paper profiles: NVIDIA
 * A100-40GB/80GB (DGX-A100) plus an H100 entry for the paper's
 * forward-looking discussion.  Power-model coefficients are calibrated
 * so the phase powers, troughs, and frequency-sensitivity the paper
 * reports are reproduced (see DESIGN.md "Model calibration anchors").
 */

#pragma once

#include <string>
#include <vector>

#include "sim/types.hh"

namespace polca::power {

/**
 * Immutable description of one GPU model: electrical limits, clock
 * domains, and the coefficients of the analytic power model
 *
 *   P(f, a) = idle
 *           + a.compute * computeDynWatts * (f / maxClock)^computeExp
 *           + a.memory  * memoryDynWatts  * (f / maxClock)^memoryExp
 *
 * where `a` is the workload activity (see GpuActivity).  Compute
 * activity may exceed 1.0 to model the short above-TDP transients the
 * paper observes during prompt phases (Insight 4).
 */
struct GpuSpec
{
    std::string name;

    /** Thermal design power (the advertised board power), watts. */
    double tdpWatts;

    /** Idle draw, watts (paper: ~20 % of TDP for A100). */
    double idleWatts;

    /** SM clock domain, MHz. */
    double maxSmClockMhz;
    double baseSmClockMhz;
    double minSmClockMhz;

    /** Clock forced by the OOB power brake (paper: 288 MHz). */
    double powerBrakeClockMhz;

    /** Software power-cap range, watts (paper: 300-400 W on A100). */
    double minPowerCapWatts;
    double maxPowerCapWatts;

    /** Dynamic power at maximum clock and activity 1.0, watts. */
    double computeDynWatts;
    double memoryDynWatts;

    /** Clock-scaling exponents of the two dynamic components. */
    double computeClockExponent;
    double memoryClockExponent;

    /** HBM capacity, GB (drives how many GPUs a model needs). */
    double memoryGb;

    /** NVIDIA A100 80GB SXM (inference machine in the paper). */
    static GpuSpec a100_80gb();

    /** NVIDIA A100 40GB SXM (training machine in the paper). */
    static GpuSpec a100_40gb();

    /** NVIDIA H100 80GB SXM (Section 6.7 forward-looking entry). */
    static GpuSpec h100_80gb();

    /** The three presets above, in usage-text order. */
    static const std::vector<GpuSpec> &presets();

    /** Look up a preset by name; fatal() on unknown names. */
    static GpuSpec byName(const std::string &name);
};

} // namespace polca::power

