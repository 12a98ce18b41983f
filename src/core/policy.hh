/**
 * @file
 * POLCA capping policies (Section 6.3, Table 5).
 *
 * A policy is an ordered list of threshold rules.  Each rule names a
 * target priority pool, a trigger level (fraction of provisioned row
 * power), a release level placed below the trigger to avoid
 * capping/uncapping hysteresis (the paper uses 5 %), and the SM
 * frequency to lock the pool to.  Rules are escalated one at a time:
 * later rules only engage if power stays above their trigger after
 * the earlier rules have been applied.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "workload/workload_spec.hh"

namespace polca::cluster {
struct RowConfig;
} // namespace polca::cluster

namespace polca::core {

/** One capping threshold (a row of Table 5). */
struct ThresholdRule
{
    std::string name;               ///< e.g. "T1", "T2-LP", "T2-HP"
    workload::Priority target;
    double capFraction;             ///< trigger, fraction of budget
    double uncapFraction;           ///< release, below capFraction
    double lockMhz;                 ///< frequency to lock the pool to
};

/** A complete policy. */
struct PolicyConfig
{
    std::string name;
    std::vector<ThresholdRule> rules;

    /** Emergency power brake trigger (fraction of budget). */
    double powerBrakeFraction = 1.00;

    /** Brake releases when power falls to this fraction. */
    double powerBrakeReleaseFraction = 0.90;

    /** Disable the brake entirely (only for unprotected baselines
     *  in ablations; all of the paper's policies keep it). */
    bool powerBrakeEnabled = true;

    /**
     * The paper's dual-threshold POLCA policy.
     *
     * @param t1  T1 trigger (default 0.80): lock LP to @p t1LockMhz.
     * @param t2  T2 trigger (default 0.89): lock LP to 1110 MHz,
     *            then escalate HP to 1305 MHz.
     * @param t1LockMhz  LP frequency at T1 (default: A100 base
     *            clock, 1275 MHz; swept in Fig 15a).
     */
    static PolicyConfig polca(double t1 = 0.80, double t2 = 0.89,
                              double t1LockMhz = 1275.0);

    /** Baseline: single threshold for LP only (1-Thresh-Low-Pri). */
    static PolicyConfig oneThreshLowPri(double threshold = 0.89);

    /** Baseline: single threshold for all workloads (1-Thresh-All). */
    static PolicyConfig oneThreshAll(double threshold = 0.89);

    /** Baseline: no proactive capping; brake-only (No-cap). */
    static PolicyConfig noCap();

    /** Validate invariants (ordering, ranges); fatal() on error. */
    void validate() const;
};

/**
 * The policy preset named @p name for @p row: "polca" (T1 @p t1
 * locking LP to @p t1LockMhz, T2 @p t2), "1tlp" and "1tall" (one
 * @p threshold), "nocap", "aware" (workloadAwarePolicy() for the
 * row's model on the row's GPU) or "none" (no rules); std::nullopt
 * for any other name.
 */
std::optional<PolicyConfig> policyPreset(
    const std::string &name, const cluster::RowConfig &row,
    double t1 = 0.80, double t2 = 0.89, double t1LockMhz = 1275.0,
    double threshold = 0.89);

/** The names policyPreset() resolves, joined with '|'. */
std::string policyPresetNames();

} // namespace polca::core

