#include "core/sweep_runner.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <utility>

#include "core/thread_pool.hh"
#include "core/warmup_snapshot.hh"
#include "sim/logging.hh"

namespace polca::core {

SweepRunner::SweepRunner(std::vector<SweepPoint> points,
                         SweepOptions options)
    : points_(std::move(points)), options_(std::move(options))
{}

std::string
SweepRunner::artifactStem(const std::string &label, std::size_t index)
{
    if (label.empty())
        return "point-" + std::to_string(index);
    std::string stem;
    stem.reserve(label.size());
    for (char c : label) {
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '-' || c == '.') {
            stem += c;
        } else if (c == ',') {
            stem += '_';
        } else if (c == '=') {
            stem += '-';
        } else {
            stem += '_';
        }
    }
    return stem;
}

void
SweepRunner::plan()
{
    std::size_t n = points_.size();
    group_.assign(n, -1);
    baselineOwner_.resize(n);
    groupLeader_.clear();
    groupPromises_.clear();
    groupSnapshots_.clear();

    std::map<std::string, std::size_t> firstWithKey;
    for (std::size_t i = 0; i < n; ++i) {
        const SweepPoint &point = points_[i];
        std::size_t first = i;
        if (!point.warmupKey.empty())
            first = firstWithKey.emplace(point.warmupKey, i).first->second;
        baselineOwner_[i] = first;
        if (!options_.branch || point.config.warmup <= 0)
            continue;
        // Surface fault-plan/warmup conflicts before any point has
        // burned simulation time.
        validateWarmupConfig(point.config);
        if (first == i) {
            group_[i] = static_cast<int>(groupLeader_.size());
            groupLeader_.push_back(i);
        } else {
            group_[i] = group_[first];
        }
    }

    groupPromises_ = std::vector<
        std::promise<std::shared_ptr<const WarmupSnapshot>>>(
        groupLeader_.size());
    groupSnapshots_.resize(groupLeader_.size());
    for (std::size_t g = 0; g < groupLeader_.size(); ++g)
        groupSnapshots_[g] = groupPromises_[g].get_future().share();
}

obs::Observability *
SweepRunner::runManaged(std::size_t index,
                        std::unique_ptr<obs::Observability> &fallback)
{
    const SweepPoint &point = points_[index];
    SweepPointResult &out = results_[index];
    out.label = point.label;

    ExperimentConfig config = point.config;
    if (!options_.artifactDir.empty() && !config.obs) {
        fallback = std::make_unique<obs::Observability>();
        config.obs = fallback.get();
    }

    int g = group_[index];
    if (g >= 0) {
        if (groupLeader_[static_cast<std::size_t>(g)] == index) {
            // Leader: run the warmup live and publish the boundary
            // snapshot for the rest of the group (chaining any hook
            // the caller installed).
            auto user = config.onWarmupSnapshot;
            auto *promise = &groupPromises_[static_cast<std::size_t>(g)];
            config.onWarmupSnapshot =
                [promise,
                 user](std::shared_ptr<const WarmupSnapshot> snap) {
                    promise->set_value(snap);
                    if (user)
                        user(snap);
                };
        } else {
            // Dependent: fork from the leader's snapshot instead of
            // re-simulating [0, warmup).
            config.resumeFrom =
                groupSnapshots_[static_cast<std::size_t>(g)].get();
        }
    }
    out.result = runOversubExperiment(config);
    return config.obs;
}

void
SweepRunner::runBaseline(std::size_t index)
{
    ExperimentConfig base = unthrottledBaseline(points_[index].config);
    base.obs = nullptr;
    int g = group_[index];
    if (g >= 0) {
        // The baseline shares the point's warmup prefix: only
        // control-plane knobs differ, and the control plane does not
        // exist before t = warmup.
        base.onWarmupSnapshot = nullptr;
        base.resumeFrom =
            groupSnapshots_[static_cast<std::size_t>(g)].get();
    }
    results_[index].baseline = runOversubExperiment(base);
}

void
SweepRunner::finishPoint(std::size_t index, obs::Observability *sink)
{
    SweepPointResult &out = results_[index];
    if (options_.runBaseline) {
        // A baseline's owner is the lowest index sharing it, so its
        // baseline is finished before any other sharer gets here.
        std::size_t owner = baselineOwner_[index];
        if (owner != index)
            out.baseline = results_[owner].baseline;
        out.lowNorm = normalizeLatency(out.result.low,
                                       out.baseline.low);
        out.highNorm = normalizeLatency(out.result.high,
                                        out.baseline.high);
    }
    if (options_.artifactDir.empty())
        return;

    std::string stem = artifactStem(out.label, index);
    std::filesystem::path path =
        std::filesystem::path(options_.artifactDir) /
        (stem + ".metrics.csv");
    std::ofstream os(path);
    if (!os) {
        sim::fatal("SweepRunner: cannot write artifact ",
                   path.string());
    }
    sink->metrics.dumpCsv(os);
    out.artifactPath = path.string();
    artifacts_.push_back(stem + ".metrics.csv");

    // Interval stats, when the point's [obs] cadence produced any.
    if (!sink->interval.empty()) {
        std::filesystem::path ipath =
            std::filesystem::path(options_.artifactDir) /
            (stem + ".stats_interval.csv");
        std::ofstream is(ipath);
        if (!is) {
            sim::fatal("SweepRunner: cannot write artifact ",
                       ipath.string());
        }
        sink->interval.writeCsv(is);
        artifacts_.push_back(stem + ".stats_interval.csv");
    }
}

void
SweepRunner::execute()
{
    std::size_t n = points_.size();
    int jobs = options_.jobs;
    if (options_.echoProgress) {
        std::printf("[sweep] running %zu point%s on %d worker%s\n", n,
                    n == 1 ? "" : "s", jobs, jobs == 1 ? "" : "s");
        std::fflush(stdout);
    }

    // Runner-owned sinks for points that write artifacts but bring
    // none of their own: tasks must not share a metrics registry.
    // Each is released once its point's artifacts are written.
    std::vector<std::unique_ptr<obs::Observability>> sinks(n);
    std::vector<std::future<obs::Observability *>> managed(n);
    std::vector<std::future<void>> baselines(n);
    {
        ThreadPool pool(static_cast<std::size_t>(jobs));

        // Submit group-leader managed runs first.  The pool's queue
        // is FIFO, so by the time any worker picks up a dependent
        // run (which blocks on its group's snapshot future), the
        // leader that fulfills it has already been picked up by some
        // worker and is making progress — no worker can starve the
        // leader it is waiting for, even with one worker.
        std::vector<char> isLeader(n, 0);
        for (std::size_t leader : groupLeader_)
            isLeader[leader] = 1;
        for (std::size_t i = 0; i < n; ++i) {
            if (!isLeader[i])
                continue;
            managed[i] = pool.submit([this, i, &sinks] {
                return runManaged(i, sinks[i]);
            });
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (!isLeader[i]) {
                managed[i] = pool.submit([this, i, &sinks] {
                    return runManaged(i, sinks[i]);
                });
            }
            if (options_.runBaseline && baselineOwner_[i] == i) {
                baselines[i] = pool.submit([this, i] {
                    runBaseline(i);
                });
            }
        }

        // Stitch in point order on this thread: artifacts and
        // progress come out in point order at any worker count.
        for (std::size_t i = 0; i < n; ++i) {
            obs::Observability *sink = managed[i].get();
            if (options_.runBaseline && baselineOwner_[i] == i)
                baselines[i].get();
            finishPoint(i, sink);
            sinks[i].reset();
            if (options_.echoProgress) {
                std::printf("[sweep %zu/%zu] %s: done\n", i + 1, n,
                            points_[i].label.empty()
                                ? "(single point)"
                                : points_[i].label.c_str());
                std::fflush(stdout);
            }
        }
    }
}

void
SweepRunner::writeSummary()
{
    if (options_.artifactDir.empty())
        return;
    std::filesystem::path path =
        std::filesystem::path(options_.artifactDir) / "summary.csv";
    std::ofstream os(path);
    if (!os)
        return;
    os << "label,lp_p99_s,hp_p99_s,lp_p99_norm,hp_p99_norm,"
          "brake_events,breaker_trips,max_utilization,"
          "energy_kwh,failsafe_s,mttr_max_s,caps_stale_s,"
          "safety_violations\n";
    for (const SweepPointResult &r : results_) {
        os << '"' << r.label << '"' << ','
           << r.result.low.p99 << ',' << r.result.high.p99
           << ',' << r.lowNorm.p99 << ',' << r.highNorm.p99
           << ',' << r.result.powerBrakeEvents << ','
           << r.result.breakerTrips << ','
           << r.result.maxUtilization << ','
           << r.result.energyKwh << ','
           << sim::ticksToSeconds(r.result.failSafeTicks) << ','
           << sim::ticksToSeconds(r.result.mttrMaxTicks) << ','
           << sim::ticksToSeconds(r.result.capsHeldStaleTicks) << ','
           << r.result.violations.size() << '\n';
    }
    os.close();
    artifacts_.push_back("summary.csv");

    if (options_.writeManifest) {
        obs::RunManifest manifest = options_.manifest;
        manifest.artifacts = artifacts_;
        std::filesystem::path mpath =
            std::filesystem::path(options_.artifactDir) /
            "manifest.json";
        std::ofstream ms(mpath);
        if (ms)
            manifest.writeJson(ms);
    }
}

const std::vector<SweepPointResult> &
SweepRunner::run()
{
    results_.clear();
    results_.resize(points_.size());
    artifacts_.clear();

    plan();
    if (options_.echoProgress && options_.runBaseline) {
        std::size_t baselines = 0;
        for (std::size_t i = 0; i < baselineOwner_.size(); ++i)
            baselines += baselineOwner_[i] == i;
        if (baselines < points_.size()) {
            std::printf("[sweep] %zu unthrottled baseline%s for %zu "
                        "points\n",
                        baselines, baselines == 1 ? "" : "s",
                        points_.size());
            std::fflush(stdout);
        }
    }
    if (options_.echoProgress && !groupLeader_.empty()) {
        std::size_t branched = 0;
        for (int g : group_)
            branched += g >= 0;
        // Leaders simulate their own warmup live; every other
        // managed run of a group, and the group's one baseline, forks
        // from the leader's snapshot.
        std::size_t runs = branched - groupLeader_.size() +
            (options_.runBaseline ? groupLeader_.size() : 0);
        std::printf("[sweep] branch: %zu warmup snapshot%s feeding "
                    "%zu run%s\n",
                    groupLeader_.size(),
                    groupLeader_.size() == 1 ? "" : "s", runs,
                    runs == 1 ? "" : "s");
        std::fflush(stdout);
    }

    if (!options_.artifactDir.empty())
        std::filesystem::create_directories(options_.artifactDir);

    if (options_.jobs < 1) {
        sim::fatal("SweepRunner: jobs must be >= 1 (got ",
                   options_.jobs, ")");
    }
    execute();

    writeSummary();
    return results_;
}

analysis::Table
SweepRunner::summaryTable() const
{
    analysis::Table table({"point", "LP p99 (s)", "HP p99 (s)",
                           "LP p99 (norm)", "HP p99 (norm)", "brakes",
                           "trips", "max util", "energy (kWh)",
                           "failsafe (s)", "MTTR max (s)",
                           "violations"});
    for (const SweepPointResult &r : results_) {
        table.row()
            .cell(r.label.empty() ? "(single point)" : r.label)
            .cell(r.result.low.p99, 2)
            .cell(r.result.high.p99, 2)
            .cell(r.lowNorm.p99, 3)
            .cell(r.highNorm.p99, 3)
            .cell(static_cast<long long>(r.result.powerBrakeEvents))
            .cell(static_cast<long long>(r.result.breakerTrips))
            .percentCell(r.result.maxUtilization)
            .cell(r.result.energyKwh, 1)
            .cell(sim::ticksToSeconds(r.result.failSafeTicks), 0)
            .cell(sim::ticksToSeconds(r.result.mttrMaxTicks), 0)
            .cell(static_cast<long long>(r.result.violations.size()));
    }
    return table;
}

} // namespace polca::core
