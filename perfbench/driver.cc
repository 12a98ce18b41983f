/**
 * @file
 * One benchmark invocation: load a scenario and run it through the
 * same public calls `polcactl run` makes (tools/polcactl.cc) — a
 * single point as managed run with the metrics sink, unthrottled
 * baseline, then the run directory; a sweep through
 * core::SweepRunner with per-point artifacts — timing each call.
 *
 *   perfbench_driver --scenario FILE [--set path=value]... \
 *                    --out DIR [--profile SAMPLES_FILE]
 *
 * The last line of standard output is one JSON object: host-time
 * spans around each call, the event-loop time read back from the
 * program's own sink (sim.events_processed ÷
 * sim.wallclock_events_per_s), exact work counts from the same sink,
 * and the paper-anchor outputs.  With --profile the whole invocation
 * runs under the CPU-time stack sampler and the raw samples go to
 * SAMPLES_FILE.  perfbench/run.py drives this binary.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "config/scenario.hh"
#include "core/oversub_experiment.hh"
#include "core/run_artifacts.hh"
#include "core/sweep_runner.hh"
#include "obs/manifest.hh"
#include "obs/observability.hh"
#include "sim/types.hh"
#include "stack_sampler.hh"

namespace {

using namespace polca;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Args
{
    std::string scenario;
    std::vector<std::string> sets;
    std::string out;
    std::string profile;
};

/** Benchmark count name -> the sink scalars it sums. */
const std::vector<std::pair<std::string, std::vector<std::string>>> &
countSources()
{
    static const std::vector<
        std::pair<std::string, std::vector<std::string>>>
        sources = {
            {"sim.events", {"sim.events_processed"}},
            {"sim.queue_high_water", {"sim.queue_high_water"}},
            {"cluster.arrivals",
             {"dispatcher.arrivals_high", "dispatcher.arrivals_low"}},
            {"cluster.completions", {"dispatcher.completions"}},
            {"cluster.central_spills", {"dispatcher.central_spills"}},
            {"cluster.batches", {"server.batches"}},
            {"telemetry.readings", {"telemetry.readings_delivered"}},
            {"telemetry.readings_dropped", {"telemetry.readings_dropped"}},
            // One decision-gap observation per controller decision.
            {"core.decisions", {"manager.decision_gap_s::count"}},
            {"core.cap_commands", {"manager.cap_commands"}},
            {"core.uncap_commands", {"manager.uncap_commands"}},
            {"core.brake_events", {"manager.brake_events"}},
            {"core.reissues", {"manager.reissues"}},
            {"telemetry.smbpbi_issued", {"smbpbi.commands_issued"}},
            {"telemetry.smbpbi_superseded",
             {"smbpbi.commands_superseded"}},
            {"telemetry.smbpbi_dropped", {"smbpbi.commands_dropped"}},
        };
    return sources;
}

/** What one observed run's sink says about the run. */
struct SinkReadout
{
    std::map<std::string, double> counts;
    double loopSeconds = 0.0;
};

SinkReadout
readSink(obs::Observability &sink)
{
    std::map<std::string, double> scalars;
    sink.metrics.visitScalars(
        [&scalars](const std::string &name,
                   obs::MetricsRegistry::ScalarKind, double value) {
            scalars[name] = value;
        });
    SinkReadout out;
    for (const auto &[name, parts] : countSources()) {
        double total = 0.0;
        for (const std::string &part : parts) {
            auto it = scalars.find(part);
            if (it != scalars.end())
                total += it->second;
        }
        out.counts[name] = total;
    }
    double events = scalars["sim.events_processed"];
    double rate = sink.metrics.gauge("sim.wallclock_events_per_s").value();
    out.loopSeconds = rate > 0.0 ? events / rate : 0.0;
    return out;
}

/** Minimal JSON object writer (numbers and nested objects). */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double value)
    {
        char text[64];
        std::snprintf(text, sizeof text, "%.17g", value);
        return raw(key, text);
    }
    JsonObject &raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
countsJson(const std::map<std::string, double> &counts)
{
    JsonObject json;
    for (const auto &[name, value] : counts)
        json.num(name, value);
    return json.text();
}

/** Timings and outputs of one invocation, filled by the runners. */
struct Invocation
{
    JsonObject spans;
    JsonObject anchors;
    std::map<std::string, double> counts;
    double setupSeconds = 0.0;
    double loopSeconds = 0.0;
    double simSeconds = 0.0;
};

/** Single point: what runSinglePoint() in polcactl does with --out-dir. */
void
runSingle(const Args &args, config::ResolvedScenario &point,
          double loadSeconds, Invocation &inv)
{
    core::ExperimentConfig &config = point.config;
    obs::Observability observability;
    observability.trace.setCategoryMask(obs::parseTraceCategories("all"));
    config.obs = &observability;

    Clock::time_point t0 = Clock::now();
    core::ExperimentResult result = core::runOversubExperiment(config);
    Clock::time_point t1 = Clock::now();

    core::ExperimentConfig baselineConfig =
        core::unthrottledBaseline(config);
    baselineConfig.obs = nullptr;
    core::ExperimentResult baseline =
        core::runOversubExperiment(baselineConfig);
    core::NormalizedLatency low =
        core::normalizeLatency(result.low, baseline.low);
    core::NormalizedLatency high =
        core::normalizeLatency(result.high, baseline.high);
    Clock::time_point t2 = Clock::now();

    core::RunDirOptions dirOptions;
    dirOptions.dir = args.out;
    dirOptions.scenarioPath = args.scenario;
    dirOptions.command = "run";
    std::ostringstream resolved;
    config::dumpResolved(config, point.tree, resolved);
    dirOptions.resolvedConfig = resolved.str();
    std::vector<std::string> written = core::writeRunDir(
        dirOptions, config, result, low, high, config.obs);
    if (written.empty()) {
        std::fprintf(stderr, "cannot write run directory '%s'\n",
                     args.out.c_str());
        std::exit(1);
    }
    Clock::time_point t3 = Clock::now();

    SinkReadout sink = readSink(observability);
    double managed = since(t0, t1);
    inv.loopSeconds = sink.loopSeconds;
    inv.setupSeconds = loadSeconds + (managed - sink.loopSeconds);
    inv.simSeconds = sim::ticksToSeconds(config.duration);
    inv.counts = sink.counts;
    inv.spans.num("core.managed_run_s", managed)
        .num("core.baseline_run_s", since(t1, t2))
        .num("core.artifacts_s", since(t2, t3))
        .num("core.sweep_run_s", 0.0)
        .num("core.sweep_busy_s", 0.0)
        .num("sweep_workers", 0.0);

    inv.anchors.num("lp_p50_norm", low.p50)
        .num("lp_p99_norm", low.p99)
        .num("brakes", static_cast<double>(result.powerBrakeEvents));
    if (!result.domains.empty()) {
        std::map<std::string, double> trips;
        for (const core::DomainStats &d : result.domains)
            trips[d.level] += static_cast<double>(d.breakerTrips);
        for (const auto &[level, n] : trips)
            inv.anchors.num("trips_" + level, n);
    }
}

/** Sweep: what cmdRun() in polcactl does for a [sweep] file. */
void
runSweep(const Args &args, config::ScenarioSet &set,
         Clock::time_point start, Invocation &inv)
{
    std::vector<core::SweepPoint> points;
    points.reserve(set.points.size());
    for (config::ResolvedScenario &point : set.points) {
        points.push_back(
            {point.label, point.config,
             point.config.warmup > 0
                 ? config::warmupDigest(point.config, point.tree)
                 : std::string()});
    }

    core::SweepOptions options;
    options.artifactDir = args.out;
    options.jobs = set.jobs;
    options.branch = set.branch;
    options.writeManifest = true;
    options.manifest.command = "sweep";
    options.manifest.scenarioPath = args.scenario;
    std::ostringstream resolved;
    for (const config::ResolvedScenario &point : set.points) {
        resolved << "# point: " << point.label << "\n";
        config::dumpResolved(point.config, point.tree, resolved);
    }
    options.manifest.configDigest = obs::fnv1a64Hex(resolved.str());
    options.manifest.seed = set.points.front().config.seed;
    options.manifest.jobs = options.jobs;
    options.manifest.durationS =
        sim::ticksToSeconds(set.points.front().config.duration);
    options.manifest.metricsIntervalS = sim::ticksToSeconds(
        set.points.front().config.obsOptions.metricsInterval);

    // A point that has a sink of its own keeps it: the runner then
    // writes that sink's dump, so the benchmark can read each
    // point's volatile loop rate afterwards.
    std::vector<std::unique_ptr<obs::Observability>> sinks;
    for (core::SweepPoint &point : points) {
        sinks.push_back(std::make_unique<obs::Observability>());
        point.config.obs = sinks.back().get();
    }

    // Which points simulate their warmup live (the runner's group
    // leaders) and which fork from the shared snapshot.
    std::vector<double> simSeconds;
    std::set<std::string> keysSeen;
    for (const core::SweepPoint &point : points) {
        double full = sim::ticksToSeconds(point.config.duration);
        bool forked = false;
        if (options.branch && point.config.warmup > 0 &&
            !point.warmupKey.empty())
            forked = !keysSeen.insert(point.warmupKey).second;
        simSeconds.push_back(
            forked ? full - sim::ticksToSeconds(point.config.warmup)
                   : full);
    }
    int workers = options.jobs;
    Clock::time_point t0 = Clock::now();
    inv.setupSeconds = since(start, t0);

    core::SweepRunner runner(std::move(points), std::move(options));
    const std::vector<core::SweepPointResult> &results = runner.run();
    Clock::time_point t1 = Clock::now();

    double busy = 0.0;
    for (std::size_t i = 0; i < sinks.size(); ++i) {
        SinkReadout sink = readSink(*sinks[i]);
        busy += sink.loopSeconds;
        inv.simSeconds += simSeconds[i];
        for (const auto &[name, value] : sink.counts) {
            double &total = inv.counts[name];
            total = name == "sim.queue_high_water"
                ? std::max(total, value)
                : total + value;
        }
    }
    inv.loopSeconds = busy;
    inv.spans.num("core.managed_run_s", 0.0)
        .num("core.baseline_run_s", 0.0)
        .num("core.artifacts_s", 0.0)
        .num("core.sweep_run_s", since(t0, t1))
        .num("core.sweep_busy_s", busy)
        .num("sweep_workers", workers);

    for (const core::SweepPointResult &r : results) {
        inv.anchors.raw(
            r.label,
            JsonObject()
                .num("lp_p50_norm", r.lowNorm.p50)
                .num("lp_p99_norm", r.lowNorm.p99)
                .num("brakes",
                     static_cast<double>(r.result.powerBrakeEvents))
                .text());
    }
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: missing value\n", flag.c_str());
            std::exit(2);
        }
        std::string value = argv[++i];
        if (flag == "--scenario")
            args.scenario = value;
        else if (flag == "--set")
            args.sets.push_back(value);
        else if (flag == "--out")
            args.out = value;
        else if (flag == "--profile")
            args.profile = value;
        else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            std::exit(2);
        }
    }
    if (args.scenario.empty() || args.out.empty()) {
        std::fprintf(stderr, "usage: perfbench_driver --scenario FILE "
                             "[--set path=value]... --out DIR "
                             "[--profile FILE]\n");
        std::exit(2);
    }
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    bool profiling = !args.profile.empty();
    double cpuStart = 0.0;
    if (profiling) {
        perfbench::startSampling(1000, std::size_t{1} << 21);
        cpuStart = processCpuSeconds();
    }

    Clock::time_point start = Clock::now();
    config::Diagnostics diag;
    config::ScenarioSet set =
        config::loadScenarioFile(args.scenario, args.sets, diag);
    if (!diag.ok() || set.points.empty()) {
        std::fprintf(stderr, "%s\n", diag.str().c_str());
        return 2;
    }
    double loadSeconds = since(start, Clock::now());

    Invocation inv;
    if (set.isSweep())
        runSweep(args, set, start, inv);
    else
        runSingle(args, set.points.front(), loadSeconds, inv);
    double wallSeconds = since(start, Clock::now());

    JsonObject out;
#ifdef __OPTIMIZE__
    out.raw("optimized", "true");
#else
    out.raw("optimized", "false");
#endif
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    out.num("wall_s", wallSeconds)
        .num("setup_s", inv.setupSeconds)
        .num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
        .num("loop_s", inv.loopSeconds)
        .num("sim_s", inv.simSeconds)
        .raw("spans", inv.spans.num("config.load_s", loadSeconds).text())
        .raw("counts", countsJson(inv.counts))
        .raw("anchors", inv.anchors.text());

    if (profiling) {
        double cpuSeconds = processCpuSeconds() - cpuStart;
        perfbench::stopSampling();
        std::ofstream samples(args.profile);
        perfbench::writeSamples(samples);
        if (!samples) {
            std::fprintf(stderr, "cannot write %s\n", args.profile.c_str());
            return 1;
        }
        out.raw("profile",
                JsonObject()
                    .num("cpu_s", cpuSeconds)
                    .num("samples", static_cast<double>(
                                        perfbench::samplesRecorded()))
                    .num("dropped", static_cast<double>(
                                        perfbench::samplesDropped()))
                    .text());
    }
    std::printf("%s\n", out.text().c_str());
    return 0;
}
