/**
 * @file
 * Execution of a list of resolved experiment configurations — the
 * execution half of the scenario layer's sweep expansion
 * (config/scenario.hh), but usable with any hand-built config list.
 *
 * Each point runs the managed experiment, optionally its unthrottled
 * baseline (for the paper's normalized-latency y-axes), and — when an
 * artifact directory is set — writes one metrics CSV per point plus a
 * combined summary CSV.  summaryTable() renders the cross-point
 * comparison the CLI prints after a sweep.
 *
 * With SweepOptions::jobs > 1 the points — and each point's
 * managed/baseline pair — execute concurrently on a core::ThreadPool.
 * Results are stitched back in point order on the calling thread, so
 * every artifact (per-point metrics CSVs, summary.csv) and the
 * results() vector are byte-identical to a jobs = 1 run; only
 * wall-clock time and the interleaving of log lines differ.  Each
 * point simulates in its own Simulation/EventQueue with its own
 * observability sink, so tasks share no mutable state.
 *
 * Points with the same SweepPoint::warmupKey share one physical
 * configuration, so they share one unthrottled baseline, at any
 * warmup and with or without branching: the first such point runs
 * it and every later one copies it (they differ only in
 * control-plane sections, which unthrottledBaseline() removes).
 *
 * With SweepOptions::branch (the default) and warmup > 0, points
 * with the same key also simulate their warmup prefix once: the
 * group leader runs its warmup live, captures a core::WarmupSnapshot
 * at the boundary, and every other member, and the group's one
 * baseline, forks from the immutable in-memory snapshot instead of
 * re-simulating [0, warmup).  Branched runs are bit-exact
 * continuations, so all artifacts stay byte-identical to a
 * branch = false sweep.
 */

#pragma once

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "analysis/table.hh"
#include "core/oversub_experiment.hh"
#include "obs/manifest.hh"
#include "obs/observability.hh"

namespace polca::core {

struct WarmupSnapshot;

/** One experiment to run, with a display/artifact label. */
struct SweepPoint
{
    /** "seed=1,policy.preset=polca" style; may be empty for a
     *  single-point run. */
    std::string label;

    ExperimentConfig config;

    /**
     * Physical-configuration key (config::warmupDigest fills it from
     * the resolved dump with the control-plane sections filtered
     * out).  Points with the same non-empty key share one
     * unthrottled baseline at any warmup; with warmup > 0 and
     * branching on they also share a bit-identical trajectory up to
     * t = warmup, which the runner simulates once and forks every
     * member from.  Equal keys therefore promise equal configs
     * outside the control plane (policy, manager, safety, faults,
     * chaos, `managed`, `recordRowSeries`) and the same external
     * trace; a hand-made key must keep that promise.  A differing
     * seed or duration panics at restore time; other physical
     * differences go undetected.  Empty key: the point shares
     * nothing with other points, but still branches its own baseline
     * off its managed warmup when warmup > 0.
     */
    std::string warmupKey;
};

struct SweepOptions
{
    /** Directory for per-point metrics CSVs and summary.csv; empty
     *  writes no artifacts. */
    std::string artifactDir;

    /** Also run the unthrottled baseline, once per physical
     *  configuration (SweepPoint::warmupKey), and normalize every
     *  point's latencies against it. */
    bool runBaseline = true;

    /** Print a one-line progress note per point. */
    bool echoProgress = true;

    /** Worker threads for point execution; 1 = run in order on the
     *  calling thread, N > 1 = run points (and managed/baseline
     *  pairs) concurrently with deterministic stitching. */
    int jobs = 1;

    /**
     * Checkpoint/branch execution: for points with warmup > 0,
     * simulate each distinct warmup prefix (SweepPoint::warmupKey)
     * once and fork every dependent run from the captured snapshot
     * instead of re-simulating from t = 0.  Branched runs produce
     * byte-identical artifacts to from-scratch runs; false forces
     * every run to simulate its own warmup.
     */
    bool branch = true;

    /**
     * Write a manifest.json into the artifact directory after the
     * sweep (inventory filled in from the artifacts actually
     * written).  Callers pre-populate `manifest` with provenance
     * (command, scenario path, config digest, seed, duration);
     * ignored when no artifact directory is set.
     */
    bool writeManifest = false;
    obs::RunManifest manifest;
};

/** Everything one executed sweep point produced. */
struct SweepPointResult
{
    std::string label;
    ExperimentResult result;

    /** Valid only when SweepOptions::runBaseline. */
    ExperimentResult baseline;
    NormalizedLatency lowNorm;
    NormalizedLatency highNorm;

    /** Metrics CSV path, empty when no artifact directory was set. */
    std::string artifactPath;
};

class SweepRunner
{
  public:
    SweepRunner(std::vector<SweepPoint> points, SweepOptions options);

    /** Execute every point; idempotent (reruns replace the previous
     *  results). */
    const std::vector<SweepPointResult> &run();

    const std::vector<SweepPointResult> &results() const
    {
        return results_;
    }

    /** Cross-point comparison of the headline metrics. */
    analysis::Table summaryTable() const;

    /** Label -> filesystem-safe artifact stem ("seed=1,x" ->
     *  "seed-1_x"); "point-<i>" for empty labels. */
    static std::string artifactStem(const std::string &label,
                                    std::size_t index);

  private:
    /** Run point @p index's managed experiment into results_[index],
     *  attaching @p fallbackObs when the point has no sink of its
     *  own and artifacts are wanted.  @return the effective sink (for
     *  the artifact dump), or null. */
    obs::Observability *runManaged(std::size_t index,
                                   obs::Observability *fallbackObs);

    /** Run point @p index's unthrottled baseline into
     *  results_[index].baseline. */
    void runBaseline(std::size_t index);

    /** Adopt a shared baseline, normalize latencies and write the
     *  per-point artifact CSV. */
    void finishPoint(std::size_t index, obs::Observability *sink);

    void runSequential();
    void runParallel(int jobs);
    void writeSummary();

    /**
     * Assign baselines and branch groups (fills baselineOwner_,
     * group_, groupLeader_, groupPromises_, groupSnapshots_).  Points
     * with the same non-empty warmupKey share the baseline of the
     * first of them.  With branching on, points with warmup > 0 and
     * the same non-empty key also share one group; a point with an
     * empty key forms a group of its own (its baseline still
     * branches off its managed warmup).  The group leader — the
     * lowest point index — runs its managed warmup live and fulfills
     * the group's snapshot promise; every other run of the group
     * blocks on the shared future and resumes from the snapshot.
     * Fails fast (sim::fatal) on configs whose fault plan cannot
     * honor a warmup boundary.
     */
    void plan();

    std::vector<SweepPoint> points_;
    SweepOptions options_;
    std::vector<SweepPointResult> results_;

    /** Per-point index of the point whose baseline it reuses (the
     *  lowest index with its key; itself for an empty key). */
    std::vector<std::size_t> baselineOwner_;

    /** Per-point group id, -1 = unbranched (warmup == 0 or branching
     *  disabled). */
    std::vector<int> group_;

    /** Per-group leader point index. */
    std::vector<std::size_t> groupLeader_;

    /** Per-group snapshot hand-off: the leader's managed run sets the
     *  promise at its warmup boundary; dependents wait on the shared
     *  future.  The snapshot itself is immutable, so any number of
     *  branches may fork from it concurrently. */
    std::vector<std::promise<std::shared_ptr<const WarmupSnapshot>>>
        groupPromises_;
    std::vector<
        std::shared_future<std::shared_ptr<const WarmupSnapshot>>>
        groupSnapshots_;

    /** File names (relative to the artifact dir) written this run,
     *  in emission order; feeds the manifest inventory. */
    std::vector<std::string> artifacts_;
};

} // namespace polca::core

