/**
 * @file
 * Declarative scenario layer: one TOML-ish file describes a complete
 * experiment — deployment ([row], [row.server], [row.server.gpu]),
 * served model ([model]), policy ([policy] preset or explicit
 * [[policy.rules]]), control plane ([manager]), traffic
 * ([workload.diurnal], [[workload.mix]]), fault injection ([faults]
 * preset or explicit windows), and run parameters ([experiment]).
 *
 * Resolution order (later wins): struct defaults < scenario file <
 * `--set path=value` CLI overrides < sweep axis values.
 *
 * A [sweep] section declares axes as dotted config paths with a list
 * of values (`seed = [1..8]`, `"policy.preset" = ["polca", "1tlp"]`);
 * the file expands into the cartesian product of its axes, one
 * resolved ExperimentConfig per point, which core::SweepRunner
 * executes.  The reserved key `jobs` is not an axis: it sets how many
 * worker threads execute the points (`jobs = 4`; 0 = one per
 * hardware thread), overridable by the CLI's --jobs.
 *
 * dumpResolved() writes the fully-resolved effective configuration —
 * every bound field of every struct, with per-value provenance
 * comments — as a scenario file that reparses to a config dumping
 * the identical values (verified by test_scenario), so any run can
 * be reproduced byte-for-byte from its dumped artifact.
 */

#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "config/bindings.hh"
#include "config/config_node.hh"

namespace polca::config {

/** One expanded sweep point (or the single point of a plain file). */
struct ResolvedScenario
{
    /** "seed=1,policy.preset=polca" for sweep points, else "". */
    std::string label;

    /** Effective source tree: file + CLI overrides + sweep values
     *  (the [sweep] section itself removed).  Drives provenance in
     *  dumpResolved(). */
    ConfigNode tree;

    core::ExperimentConfig config;
};

/** A loaded scenario file, expanded over its sweep axes. */
struct ScenarioSet
{
    std::string name;  ///< file stem, for artifact naming
    std::vector<ResolvedScenario> points;

    /**
     * Requested sweep parallelism (the reserved `jobs` key of the
     * [sweep] section, which is not an axis): worker threads for
     * core::SweepRunner.  1 = sequential; `jobs = 0` in the file
     * means "one per hardware thread" and is resolved at load time.
     * The CLI's --jobs flag overrides this.
     */
    int jobs = 1;

    /**
     * Checkpoint/branch execution (the reserved `branch` key of the
     * [sweep] section): when the points share a warmup prefix
     * (`warmup = "1h"` in [sweep], or experiment.warmup in the
     * file), the runner simulates the prefix once per distinct
     * prefix and forks every point — and every baseline — from the
     * in-memory snapshot.  `branch = false` forces every point to
     * simulate from t = 0.  The CLI's --branch flag overrides this.
     */
    bool branch = true;

    bool isSweep() const { return points.size() > 1; }
};

/**
 * Bind a parsed scenario tree into an ExperimentConfig.  Reports
 * line-precise errors (unknown sections/keys with suggestions, unit
 * mismatches, out-of-range values, incomplete list entries) to
 * @p diag; @return false when anything failed.
 */
bool bindExperiment(const ConfigNode &root,
                    core::ExperimentConfig &config,
                    Diagnostics &diag);

/**
 * Load scenario text: parse, apply `path=value` @p overrides (origin
 * "cli"), expand sweep axes, and bind every point.  On error the
 * returned set may be partial; check @p diag.
 */
ScenarioSet loadScenarioString(const std::string &text,
                               const std::string &name,
                               const std::vector<std::string> &overrides,
                               Diagnostics &diag);

/** Load a scenario file from disk. */
ScenarioSet loadScenarioFile(const std::string &path,
                             const std::vector<std::string> &overrides,
                             Diagnostics &diag);

/**
 * Dump the fully-resolved effective configuration of @p config as a
 * reparseable scenario file with per-value provenance comments.
 * @p source is the effective source tree the config was bound from
 * (ResolvedScenario::tree); pass an empty section for pure-default
 * configs.
 */
void dumpResolved(const core::ExperimentConfig &config,
                  const ConfigNode &source, std::ostream &os);

/**
 * Digest of a point's *warmup prefix*: fnv1a64Hex over the resolved
 * dump (dumpResolved) of the physical sections only, leaving out
 * every section that configures only the control plane — [policy*],
 * [manager], [safety], [faults*], [chaos] — and the [experiment]
 * keys that only steer the control plane or post-run reporting
 * (`managed`, `record_row_series`).  Two points with equal
 * digests share one physical configuration, and so one unthrottled
 * baseline, and a bit-identical physical trajectory up to
 * t = warmup, because the control plane does not exist before the
 * boundary in a warmup run: that is the key under which a sweep
 * shares baselines and branches warmups
 * (core::SweepPoint::warmupKey).
 */
std::string warmupDigest(const core::ExperimentConfig &config,
                         const ConfigNode &source);

} // namespace polca::config

