/**
 * @file
 * polcactl — command-line front-end to the polcasim library.
 *
 *   polcactl models
 *   polcactl policy <polca|1tlp|1tall|nocap|aware|none>
 *   polcactl trace generate [--days N] [--servers N] [--seed S] \
 *                           [--out FILE]
 *   polcactl trace stats FILE
 *   polcactl trace regenerate FILE [--bin SECONDS] [--seed S] \
 *                             [--out FILE]
 *   polcactl run [--scenario-file FILE] [--set path=value]... \
 *                [--out-dir DIR] [--workload FILE] [--trace FILE] \
 *                [--metrics FILE] [--trace-categories LIST]
 *   polcactl chaos [--runs N] [--seed S] [--scenario-file FILE] \
 *                  [--set path=value]... [--out-dir DIR]
 *   polcactl report <run-dir>...
 *   polcactl config check FILE...
 *   polcactl config dump [--scenario-file FILE] [--set path=value]... \
 *                        [--point N]
 *   polcactl scenarios
 *
 * `run`, `chaos` and `config dump` resolve their configuration
 * through the scenario layer (config/scenario.hh): struct defaults <
 * scenario file < `--set` dotted-path overrides < sweep axis values;
 * `--set` is the only command-line spelling of a scenario key.
 * Every run goes through core::SweepRunner: a single point is a
 * one-point sweep paired with its unthrottled baseline, a chaos
 * campaign is a sweep over its seeds, and a scenario file with a
 * [sweep] section expands into one run per point, executed with one
 * metrics CSV artifact per point plus a summary table.  The [sweep]
 * jobs key (`--set sweep.jobs=N`) runs any of them on N worker
 * threads with byte-identical artifacts.  When the points share a
 * warmup prefix ([sweep] warmup, sugar for experiment.warmup), the
 * runner simulates the prefix once per distinct prefix and branches
 * every point — and every baseline — from the in-memory snapshot
 * (checkpoint/branch execution; `--set sweep.branch=false` disables
 * it), with artifacts byte-identical either way.
 *
 * `config dump` prints the fully-resolved effective configuration
 * with per-value provenance comments; the output reparses to the
 * identical resolved config.  `config check` validates scenario
 * files without running anything.
 *
 * `run --trace` exports the control-plane trace as Chrome
 * trace_event JSON (chrome://tracing / Perfetto); `--metrics` dumps
 * the metrics registry (gem5 stats style, or CSV when the file name
 * ends in .csv).  Flags accept both `--flag VALUE` and
 * `--flag=VALUE`; unknown flags are rejected with a nearest-match
 * suggestion, or with the `--set` key that replaced the flag.
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/table.hh"
#include "cluster/topology.hh"
#include "config/scenario.hh"
#include "core/oversub_experiment.hh"
#include "core/run_artifacts.hh"
#include "core/sweep_runner.hh"
#include "faults/fault_plan.hh"
#include "llm/model_spec.hh"
#include "llm/phase_model.hh"
#include "obs/manifest.hh"
#include "obs/observability.hh"
#include "obs/report.hh"
#include "sim/logging.hh"
#include "workload/trace_gen.hh"

using namespace polca;

namespace {

/** Flags of `run`, `chaos` and `config dump` that became `--set`
 *  keys, with the spelling that replaced each (ctest
 *  `polcactl_replaced_flags` feeds each through `config dump`). */
constexpr std::pair<const char *, const char *> kReplacedFlags[] = {
    {"added", "--set row.added_server_fraction=F"},
    {"branch", "--set sweep.branch=true|false"},
    {"days", "--set experiment.duration=Nd"},
    {"dropout", "--set row.telemetry_dropout_probability=P"},
    {"failures", "--set manager.smbpbi_failure_probability=P"},
    {"jobs", "--set sweep.jobs=N"},
    {"metrics-interval", "--set obs.interval=SECONDS"},
    {"policy", "--set policy.preset=NAME"},
    {"power-scale", "--set experiment.power_scale_factor=F"},
    {"scenario", "--set faults.scenario=NAME"},
    {"seed", "--set experiment.seed=S"},
    {"servers", "--set row.base_servers=N"},
    {"watchdog", "--set manager.watchdog_enabled=true|false"},
};

/**
 * --flag VALUE parser over an argv tail.  Every flag must be in the
 * command's known set — a typo is fatal with a nearest-match
 * suggestion.  Repeated flags accumulate (needed for --set).
 */
class Args
{
  public:
    Args(int argc, char **argv, int start,
         std::vector<std::string> known)
        : known_(std::move(known))
    {
        for (int i = start; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0) {
                positional_.push_back(arg);
                continue;
            }
            std::string key, value;
            std::string::size_type eq = arg.find('=');
            if (eq != std::string::npos) {
                key = arg.substr(2, eq - 2);
                value = arg.substr(eq + 1);
            } else if (i + 1 < argc &&
                       std::string(argv[i + 1]).rfind("--", 0) != 0) {
                key = arg.substr(2);
                value = argv[++i];
            } else {
                key = arg.substr(2);
                value = "1";
            }
            checkKnown(key);
            values_.emplace_back(std::move(key), std::move(value));
        }
    }

    bool
    has(const std::string &key) const
    {
        for (const auto &[k, v] : values_) {
            if (k == key)
                return true;
        }
        return false;
    }

    /** Last value of @p key (later flags win), or @p fallback. */
    std::string
    text(const std::string &key, const std::string &fallback) const
    {
        const std::string *found = nullptr;
        for (const auto &[k, v] : values_) {
            if (k == key)
                found = &v;
        }
        return found ? *found : fallback;
    }

    /** Strict numeric flag: malformed values are fatal, naming the
     *  flag and the offending value. */
    double
    number(const std::string &key, double fallback) const
    {
        std::string raw = text(key, "");
        if (raw.empty() && !has(key))
            return fallback;
        double value = 0.0;
        const char *begin = raw.data();
        const char *end = begin + raw.size();
        auto [ptr, ec] = std::from_chars(begin, end, value);
        if (ec != std::errc() || ptr != end || raw.empty()) {
            sim::fatal("--", key, ": malformed number '", raw, "'");
        }
        return value;
    }

    /** All values of a repeatable flag, in order. */
    std::vector<std::string>
    list(const std::string &key) const
    {
        std::vector<std::string> out;
        for (const auto &[k, v] : values_) {
            if (k == key)
                out.push_back(v);
        }
        return out;
    }

    const std::vector<std::string> &
    positional() const
    {
        return positional_;
    }

  private:
    void
    checkKnown(const std::string &key) const
    {
        bool takesSet = false;
        for (const std::string &k : known_) {
            if (k == key)
                return;
            takesSet |= k == "set";
        }
        // A flag that a `--set` key replaced names its replacement
        // instead of a look-alike flag.
        if (takesSet) {
            for (const auto &[flag, replacement] : kReplacedFlags) {
                if (key == flag) {
                    sim::fatal("unknown flag '--", key, "' (use ",
                               replacement, ")");
                }
            }
        }
        std::string near = config::nearestKey(key, known_);
        if (near.empty()) {
            sim::fatal("unknown flag '--", key, "'");
        }
        sim::fatal("unknown flag '--", key, "' (did you mean '--",
                   near, "'?)");
    }

    std::vector<std::string> known_;
    std::vector<std::pair<std::string, std::string>> values_;
    std::vector<std::string> positional_;
};

int
usage()
{
    std::printf(
        "polcactl -- LLM cluster power management simulator\n\n"
        "  polcactl models\n"
        "  polcactl policy <%s>\n"
        "  polcactl trace generate [--days N] [--servers N] "
        "[--seed S] [--out FILE]\n"
        "  polcactl trace stats FILE\n"
        "  polcactl trace regenerate FILE [--bin SECONDS] [--seed S] "
        "[--out FILE]\n"
        "  polcactl run [--scenario-file FILE] [--set path=value]... "
        "[--out-dir DIR]\n"
        "               [--workload FILE] [--trace FILE] "
        "[--metrics FILE]\n"
        "               [--trace-categories LIST]\n"
        "  polcactl chaos [--runs N] [--seed S] "
        "[--scenario-file FILE]\n"
        "                 [--set path=value]... [--out-dir DIR]\n"
        "  polcactl report <run-dir>...\n"
        "  polcactl config check FILE...\n"
        "  polcactl config dump [--scenario-file FILE] "
        "[--set path=value]... [--point N]\n"
        "  polcactl scenarios\n"
        "\n"
        "  chaos runs N randomized fault campaigns (seeds derived "
        "from --seed) with\n"
        "  the safety monitor armed; exits 1 if any invariant is "
        "violated.  --out-dir\n"
        "  writes a per-run CSV and, for violating seeds, a "
        "reproduction trace.\n"
        "  run resolves defaults < scenario file < --set overrides "
        "< sweep values\n"
        "  (--set experiment.duration=2d --set "
        "row.added_server_fraction=0.3);\n"
        "  config dump prints what a run resolves to, the struct "
        "defaults with no file.\n"
        "  A [sweep] section runs every point and writes one metrics "
        "CSV per point\n"
        "  into --out-dir plus a summary table.  --set sweep.jobs=N "
        "runs a sweep's\n"
        "  points, a single point's managed/baseline pair or a chaos "
        "campaign's seeds\n"
        "  on N worker threads (0 = one per hardware thread) with "
        "byte-identical\n"
        "  artifacts.  With [sweep] warmup = \"1h\" (sugar for "
        "experiment.warmup)\n"
        "  points sharing a warmup prefix simulate it once and branch "
        "from the\n"
        "  snapshot — artifacts stay byte-identical; disable with\n"
        "  --set sweep.branch=false.\n"
        "  run --trace exports Chrome trace_event JSON "
        "(chrome://tracing);\n"
        "  --metrics dumps the metrics registry (.csv for CSV);\n"
        "  --trace-categories filters: "
        "sim,telemetry,control,power,cluster,fault,all\n"
        "  --set obs.interval=S snapshots the registry every S "
        "simulated seconds.\n"
        "  A single-point run --out-dir writes the full artifact set "
        "(manifest.json,\n"
        "  resolved.toml, result.csv, metrics.csv, stats_interval.csv, "
        "violations.csv)\n"
        "  that `polcactl report` turns into report.md + report.html "
        "(self-contained,\n"
        "  inline-SVG timeline).\n",
        core::policyPresetNames().c_str());
    return 2;
}

int
cmdModels()
{
    llm::ModelCatalog catalog;
    analysis::Table table({"Model", "Architecture", "Params (B)",
                           "GPUs", "Token ms", "Prompt ms/Ktok"});
    for (const auto &model : catalog.models()) {
        table.row()
            .cell(model.name)
            .cell(llm::toString(model.architecture))
            .cell(model.paramsBillions, 3)
            .cell(static_cast<long long>(model.inferenceGpus))
            .cell(model.tokenTimeMs, 1)
            .cell(model.promptMsPerKtoken, 1);
    }
    table.print(std::cout);
    return 0;
}

int
cmdPolicy(const Args &args)
{
    if (args.positional().empty())
        return usage();
    // The `[row]` defaults: BLOOM-176B on the DGX-A100-80GB.
    const std::string &name = args.positional()[0];
    std::optional<core::PolicyConfig> preset =
        core::policyPreset(name, cluster::RowConfig{});
    if (!preset) {
        sim::fatal("unknown policy '", name, "' (use ",
                   core::policyPresetNames(), ")");
    }
    const core::PolicyConfig &policy = *preset;
    std::printf("Policy: %s\n", policy.name.c_str());
    analysis::Table table({"Rule", "Target", "Cap at", "Uncap at",
                           "Lock (MHz)"});
    for (const auto &rule : policy.rules) {
        table.row()
            .cell(rule.name)
            .cell(workload::toString(rule.target))
            .percentCell(rule.capFraction, 0)
            .percentCell(rule.uncapFraction, 0)
            .cell(rule.lockMhz, 0);
    }
    table.print(std::cout);
    std::printf("Power brake at %.0f%% (release %.0f%%), %s\n",
                policy.powerBrakeFraction * 100.0,
                policy.powerBrakeReleaseFraction * 100.0,
                policy.powerBrakeEnabled ? "enabled" : "disabled");
    return 0;
}

int
cmdTraceGenerate(const Args &args)
{
    workload::TraceGenerator generator;
    llm::PhaseModel phases(
        llm::ModelCatalog().byName("BLOOM-176B"));

    workload::TraceGenOptions options;
    options.duration = sim::secondsToTicks(
        args.number("days", 1.0) * 24 * 3600.0);
    options.numServers =
        static_cast<int>(args.number("servers", 40));
    options.serviceSecondsPerRequest =
        generator.expectedServiceSeconds(phases);
    options.seed =
        static_cast<std::uint64_t>(args.number("seed", 42));

    workload::Trace trace = generator.generate(options);
    std::string out = args.text("out", "");
    if (out.empty()) {
        trace.save(std::cout);
    } else {
        std::ofstream file(out);
        if (!file)
            sim::fatal("cannot open '", out, "' for writing");
        trace.save(file);
        std::printf("wrote %zu requests over %.2f days to %s\n",
                    trace.size(),
                    sim::ticksToSeconds(trace.duration()) / 86400.0,
                    out.c_str());
    }
    return 0;
}

workload::Trace
loadTrace(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        sim::fatal("cannot open trace '", path, "'");
    return workload::Trace::load(file);
}

int
cmdTraceStats(const Args &args)
{
    if (args.positional().empty())
        return usage();
    workload::Trace trace = loadTrace(args.positional()[0]);

    analysis::Table table({"Metric", "Value"});
    table.row().cell("Requests")
        .cell(static_cast<long long>(trace.size()));
    table.row().cell("Duration (days)")
        .cell(sim::ticksToSeconds(trace.duration()) / 86400.0, 2);
    table.row().cell("Mean arrival rate (req/s)")
        .cell(trace.meanArrivalRate(), 4);
    table.row().cell("High-priority fraction")
        .percentCell(trace.highPriorityFraction());

    double inputSum = 0.0, outputSum = 0.0;
    for (const auto &r : trace.requests()) {
        inputSum += r.inputTokens;
        outputSum += r.outputTokens;
    }
    double n = std::max<double>(1.0, static_cast<double>(trace.size()));
    table.row().cell("Mean input tokens").cell(inputSum / n, 0);
    table.row().cell("Mean output tokens").cell(outputSum / n, 0);
    table.print(std::cout);
    return 0;
}

int
cmdTraceRegenerate(const Args &args)
{
    if (args.positional().empty())
        return usage();
    workload::Trace reference = loadTrace(args.positional()[0]);
    workload::TraceGenerator generator;
    workload::Trace synthetic = generator.regenerate(
        reference,
        sim::secondsToTicks(args.number("bin", 300.0)),
        static_cast<std::uint64_t>(args.number("seed", 99)));

    std::string out = args.text("out", "");
    if (out.empty()) {
        synthetic.save(std::cout);
    } else {
        std::ofstream file(out);
        if (!file)
            sim::fatal("cannot open '", out, "' for writing");
        synthetic.save(file);
        std::printf("wrote synthetic trace (%zu requests) to %s\n",
                    synthetic.size(), out.c_str());
    }
    return 0;
}

int
cmdScenarios()
{
    analysis::Table table({"Scenario", "What it injects"});
    for (const faults::FaultScenario &scenario : faults::faultScenarios())
        table.row().cell(scenario.name).cell(scenario.description);
    table.print(std::cout);
    return 0;
}

/**
 * The scenario set of `run`, `chaos` and `config dump`: the
 * --scenario-file (or no file), then @p overrides, then the --set
 * overrides, expanded over sweep axes.  Prints what is wrong and
 * returns nothing unless it resolves to at least one point.
 */
std::optional<config::ScenarioSet>
loadScenario(const Args &args, std::vector<std::string> overrides)
{
    for (const std::string &value : args.list("set"))
        overrides.push_back(value);
    config::Diagnostics diag;
    config::ScenarioSet set = args.has("scenario-file")
        ? config::loadScenarioFile(args.text("scenario-file", ""),
                                   overrides, diag)
        : config::loadScenarioString("", "cli", overrides, diag);
    if (!diag.ok()) {
        std::fprintf(stderr, "%s\n", diag.str().c_str());
        return std::nullopt;
    }
    if (set.points.empty()) {
        std::fprintf(stderr, "scenario resolved to no points\n");
        return std::nullopt;
    }
    return set;
}

/**
 * Detailed single-run report (the classic `polcactl run` output): a
 * one-point sweep whose managed run feeds --trace, --metrics and the
 * --out-dir run directory.
 */
int
runSinglePoint(const Args &args, const config::ConfigNode &tree,
               core::SweepPoint point, core::SweepOptions options,
               std::uint32_t traceCategories)
{
    core::ExperimentConfig &config = point.config;

    workload::Trace external;
    std::string workloadPath = args.text("workload", "");
    if (!workloadPath.empty()) {
        external = loadTrace(workloadPath);
        config.externalTrace = &external;
        config.duration = external.duration();
    }

    // Observability: attach to the managed run only — the baseline
    // exists purely as a latency reference.  A run directory
    // (--out-dir) always gets a metrics dump, so it attaches too.
    std::string traceOut = args.text("trace", "");
    std::string metricsOut = args.text("metrics", "");
    std::string outDir = args.text("out-dir", "");
    obs::Observability observability;
    if (!traceOut.empty() || !metricsOut.empty() || !outDir.empty()) {
        observability.trace.setCategoryMask(traceCategories);
        config.obs = &observability;
    }

    if (config.topology.enabled) {
        std::printf("Running %s on a %d-row / %d-server site for "
                    "%.2f days (seed %llu, watchdog %s)...\n",
                    config.policy.name.c_str(),
                    config.topology.numRows(),
                    config.topology.numServers(),
                    sim::ticksToSeconds(config.duration) / 86400.0,
                    static_cast<unsigned long long>(config.seed),
                    config.manager.watchdogEnabled ? "on" : "off");
    } else {
        std::printf("Running %s on %d+%.0f%% servers for %.2f days "
                    "(seed %llu, watchdog %s)...\n",
                    config.policy.name.c_str(),
                    config.row.baseServers,
                    config.row.addedServerFraction * 100.0,
                    sim::ticksToSeconds(config.duration) / 86400.0,
                    static_cast<unsigned long long>(config.seed),
                    config.manager.watchdogEnabled ? "on" : "off");
    }

    core::SweepRunner runner({point}, options);
    const core::SweepPointResult &done = runner.run().front();
    const core::ExperimentResult &result = done.result;
    const core::NormalizedLatency &low = done.lowNorm;
    const core::NormalizedLatency &high = done.highNorm;

    if (!traceOut.empty()) {
        std::ofstream file(traceOut);
        if (!file)
            sim::fatal("cannot open '", traceOut, "' for writing");
        observability.trace.exportChromeJson(file);
        std::printf("wrote %llu trace events to %s\n",
                    static_cast<unsigned long long>(
                        observability.trace.events().size()),
                    traceOut.c_str());
    }
    if (!metricsOut.empty()) {
        std::ofstream file(metricsOut);
        if (!file)
            sim::fatal("cannot open '", metricsOut, "' for writing");
        if (metricsOut.size() >= 4 &&
            metricsOut.compare(metricsOut.size() - 4, 4, ".csv") == 0)
            observability.metrics.dumpCsv(file);
        else
            observability.metrics.dump(file);
        std::printf("wrote %zu metrics to %s\n",
                    observability.metrics.size(), metricsOut.c_str());
    }

    if (!outDir.empty()) {
        core::RunDirOptions dirOptions;
        dirOptions.dir = outDir;
        dirOptions.scenarioPath = args.text("scenario-file", "");
        dirOptions.command = "run";
        std::ostringstream resolved;
        config::dumpResolved(config, tree, resolved);
        dirOptions.resolvedConfig = resolved.str();
        dirOptions.jobs = options.jobs;
        std::vector<std::string> written = core::writeRunDir(
            dirOptions, config, result, low, high,
            config.obs);
        if (written.empty())
            sim::fatal("cannot write run directory '", outDir, "'");
        std::printf("wrote %zu artifacts to %s (report with: "
                    "polcactl report %s)\n",
                    written.size(), outDir.c_str(), outDir.c_str());
    }

    analysis::Table table({"Metric", "Value"});
    table.row().cell("Power brake events")
        .cell(static_cast<long long>(result.powerBrakeEvents));
    table.row().cell("Cap / uncap commands")
        .cell(std::to_string(result.capCommands) + " / " +
              std::to_string(result.uncapCommands));
    table.row().cell("Re-issued (failed) commands")
        .cell(static_cast<long long>(result.reissuedCommands));
    table.row().cell("Mean / peak row utilization")
        .cell(analysis::formatPercent(result.meanUtilization) + " / " +
              analysis::formatPercent(result.maxUtilization));
    table.row().cell("Requests served")
        .cell(static_cast<long long>(result.lowCompletions +
                                     result.highCompletions));
    table.row().cell("Row energy")
        .cell(analysis::formatFixed(result.energyKwh, 1) + " kWh (" +
              analysis::formatFixed(result.energyPerRequestKj, 1) +
              " kJ/request)");
    table.row().cell("LP p50/p99 latency (normalized)")
        .cell(analysis::formatFixed(low.p50, 3) + " / " +
              analysis::formatFixed(low.p99, 3));
    table.row().cell("HP p50/p99 latency (normalized)")
        .cell(analysis::formatFixed(high.p50, 3) + " / " +
              analysis::formatFixed(high.p99, 3));
    table.row().cell("LP time locked")
        .cell(analysis::formatFixed(
                  sim::ticksToSeconds(result.lpLockedTicks) / 3600.0,
                  2) + " h");
    table.row().cell("HP time locked")
        .cell(analysis::formatFixed(
                  sim::ticksToSeconds(result.hpLockedTicks) / 3600.0,
                  2) + " h");
    table.row().cell("Breaker trips / near-trips")
        .cell(std::to_string(result.breakerTrips) + " / " +
              std::to_string(result.breakerNearTrips));
    table.row().cell("Time above provisioned")
        .cell(analysis::formatFixed(
                  sim::ticksToSeconds(result.ticksAboveProvisioned),
                  0) + " s");
    table.row().cell("Overdraw energy")
        .cell(analysis::formatFixed(
                  result.overdrawWattSeconds / 1000.0, 1) + " kJ");
    table.row().cell("Fail-safe entries / time")
        .cell(std::to_string(result.failSafeEntries) + " / " +
              analysis::formatFixed(
                  sim::ticksToSeconds(result.failSafeTicks), 0) +
              " s");
    table.row().cell("Flagged OOB channels")
        .cell(static_cast<long long>(result.flaggedChannels));
    table.row().cell("Dropped / corrupted readings")
        .cell(std::to_string(result.droppedReadings) + " / " +
              std::to_string(result.corruptedReadings));
    table.row().cell("Server crashes (dropped requests)")
        .cell(std::to_string(result.crashesInjected) + " (" +
              std::to_string(result.droppedRequests) + ")");
    table.print(std::cout);

    if (!result.domains.empty()) {
        // Site and row levels only; domains.csv keeps the racks.
        std::printf("\nTopology rollup (racks in domains.csv):\n");
        analysis::Table rollup({"Domain", "Level", "Servers",
                                "Budget (kW)", "Peak (kW)",
                                "Mean (kW)", "Trips / near",
                                "Overdraw (kJ)", "Completions"});
        for (const core::DomainStats &d : result.domains) {
            if (d.level == "rack")
                continue;
            rollup.row().cell(d.path).cell(d.level)
                .cell(static_cast<long long>(d.servers))
                .cell(analysis::formatFixed(d.budgetWatts / 1000.0,
                                            1))
                .cell(analysis::formatFixed(d.peakWatts / 1000.0, 1))
                .cell(analysis::formatFixed(d.meanWatts / 1000.0, 1))
                .cell(std::to_string(d.breakerTrips) + " / " +
                      std::to_string(d.breakerNearTrips))
                .cell(analysis::formatFixed(
                          d.overdrawWattSeconds / 1000.0, 1))
                .cell(static_cast<long long>(d.completions));
        }
        rollup.print(std::cout);
    }

    bool ok = core::meetsSlos(low, high, result.powerBrakeEvents,
                              workload::paperSlos());
    std::printf("\nSLOs: %s\n", ok ? "MET" : "VIOLATED");
    return ok ? 0 : 1;
}

int
cmdRun(const Args &args)
{
    std::optional<config::ScenarioSet> loaded = loadScenario(args, {});
    if (!loaded)
        return 2;
    config::ScenarioSet &set = *loaded;
    std::uint32_t traceCategories = obs::parseTraceCategories(
        args.text("trace-categories", "all"));

    std::vector<core::SweepPoint> points;
    points.reserve(set.points.size());
    for (config::ResolvedScenario &point : set.points) {
        points.push_back({point.label, point.config,
                          config::warmupDigest(point.config, point.tree)});
    }
    core::SweepOptions options;
    options.echoProgress = set.isSweep();
    options.jobs = set.jobs;
    options.branch = set.branch;

    if (!set.isSweep()) {
        return runSinglePoint(args, set.points.front().tree,
                              std::move(points.front()),
                              std::move(options), traceCategories);
    }

    if (args.has("trace") || args.has("metrics") ||
        args.has("workload") || args.has("trace-categories")) {
        sim::fatal("--trace/--metrics/--workload/--trace-categories "
                   "do not apply to sweep runs; use --out-dir for "
                   "per-point artifacts");
    }

    std::string outDir = args.text("out-dir", "sweep-" + set.name);
    options.artifactDir = outDir;

    // Sweep provenance: the manifest digest covers every point's
    // fully-resolved configuration, labels included.
    options.writeManifest = true;
    options.manifest.command = "sweep";
    options.manifest.scenarioPath = args.text("scenario-file", "");
    std::ostringstream resolved;
    for (const config::ResolvedScenario &point : set.points) {
        resolved << "# point: " << point.label << "\n";
        config::dumpResolved(point.config, point.tree, resolved);
    }
    options.manifest.configDigest = obs::fnv1a64Hex(resolved.str());
    options.manifest.seed = set.points.front().config.seed;
    options.manifest.jobs = set.jobs;
    options.manifest.durationS =
        sim::ticksToSeconds(set.points.front().config.duration);
    options.manifest.metricsIntervalS = sim::ticksToSeconds(
        set.points.front().config.obsOptions.metricsInterval);

    core::SweepRunner runner(std::move(points), std::move(options));
    const std::vector<core::SweepPointResult> &results = runner.run();

    std::printf("\nSweep '%s': %zu points (%d worker%s)\n",
                set.name.c_str(), results.size(), set.jobs,
                set.jobs == 1 ? "" : "s");
    runner.summaryTable().print(std::cout);
    std::printf("\nArtifacts in %s (one metrics CSV per point + "
                "summary.csv)\n", outDir.c_str());
    return 0;
}

/**
 * Seeded chaos campaign: N randomized fault scenarios, safety
 * monitor armed, deterministic per-run seeds derived from --seed.
 * Exit 1 on any invariant violation; --out-dir captures a summary
 * CSV plus a reproduction trace for every violating seed.
 */
int
cmdChaos(const Args &args)
{
    double runsRaw = args.number("runs", 10);
    if (runsRaw < 1 || runsRaw != static_cast<int>(runsRaw))
        sim::fatal("--runs: expected a positive integer");
    int runs = static_cast<int>(runsRaw);
    auto baseSeed =
        static_cast<std::uint64_t>(args.number("seed", 42));

    std::vector<std::string> overrides;
    if (!args.has("scenario-file")) {
        // Campaign defaults: a small row and a 2 h run keep 100
        // seeded scenarios CI-sized; a scenario file states its own.
        overrides.push_back("row.base_servers=8");
        overrides.push_back("row.added_server_fraction=0.30");
        overrides.push_back("experiment.duration=7200");
    }
    // The campaign is pointless without the chaos engine and the
    // monitor, so they are forced on ahead of user --set overrides.
    overrides.push_back("chaos.enabled=true");
    overrides.push_back("safety.monitor=true");
    std::optional<config::ScenarioSet> loaded =
        loadScenario(args, std::move(overrides));
    if (!loaded)
        return 2;
    const config::ScenarioSet &set = *loaded;
    if (set.isSweep()) {
        sim::fatal("chaos: the scenario expands to a sweep; chaos "
                   "varies the seed instead — drop the [sweep] "
                   "section");
    }
    const core::ExperimentConfig &base = set.points.front().config;

    std::string outDir = args.text("out-dir", "");
    std::ofstream csv;
    std::vector<std::string> artifacts;
    if (!outDir.empty()) {
        std::filesystem::create_directories(outDir);
        csv.open(std::filesystem::path(outDir) / "chaos_summary.csv");
        csv << "run,seed,controller_crashes,server_crashes,"
               "failsafe_entries,failsafe_s,mttr_max_s,caps_stale_s,"
               "brake_s,violations\n";
        artifacts.push_back("chaos_summary.csv");
    }

    std::printf("Chaos campaign: %d runs (base seed %llu, intensity "
                "%.2f) on %d+%.0f%% servers, %.2f h each\n",
                runs, static_cast<unsigned long long>(baseSeed),
                base.chaos.intensity, base.row.baseServers,
                base.row.addedServerFraction * 100.0,
                sim::ticksToSeconds(base.duration) / 3600.0);

    // A sweep over the seeds, with no baselines.  Sequential seeds,
    // so any reported seed reproduces directly via `--runs 1 --seed
    // <seed>` (run 0 = the base seed).
    std::vector<core::SweepPoint> points;
    for (int i = 0; i < runs; ++i) {
        points.push_back({"", base, ""});
        points.back().config.seed =
            baseSeed + static_cast<std::uint64_t>(i);
    }
    core::SweepOptions options;
    options.runBaseline = false;
    options.echoProgress = false;
    options.jobs = set.jobs;
    options.branch = set.branch;
    core::SweepRunner runner(points, options);
    const std::vector<core::SweepPointResult> &results = runner.run();

    analysis::Table table({"run", "seed", "ctl crashes",
                           "srv crashes", "failsafe", "failsafe (s)",
                           "MTTR max (s)", "caps stale (s)",
                           "violations"});
    std::uint64_t totalViolations = 0;
    for (int i = 0; i < runs; ++i) {
        const core::ExperimentConfig &config = points[i].config;
        const core::ExperimentResult &result = results[i].result;
        totalViolations += result.violations.size();

        table.row()
            .cell(static_cast<long long>(i))
            .cell(std::to_string(config.seed))
            .cell(static_cast<long long>(result.controllerCrashes))
            .cell(static_cast<long long>(result.crashesInjected))
            .cell(static_cast<long long>(result.failSafeEntries))
            .cell(sim::ticksToSeconds(result.failSafeTicks), 0)
            .cell(sim::ticksToSeconds(result.mttrMaxTicks), 0)
            .cell(sim::ticksToSeconds(result.capsHeldStaleTicks), 0)
            .cell(static_cast<long long>(result.violations.size()));
        if (csv.is_open()) {
            csv << i << ',' << config.seed << ','
                << result.controllerCrashes << ','
                << result.crashesInjected << ','
                << result.failSafeEntries << ','
                << sim::ticksToSeconds(result.failSafeTicks) << ','
                << sim::ticksToSeconds(result.mttrMaxTicks) << ','
                << sim::ticksToSeconds(result.capsHeldStaleTicks)
                << ','
                << sim::ticksToSeconds(result.brakeTicks) << ','
                << result.violations.size() << '\n';
        }

        for (const core::SafetyViolation &v : result.violations) {
            std::printf("run %d (seed %llu): %s violated at "
                        "t=%.0f s (value %.2f, limit %.2f)\n",
                        i,
                        static_cast<unsigned long long>(config.seed),
                        core::toString(v.invariant),
                        sim::ticksToSeconds(v.at), v.value, v.limit);
        }
        if (!result.violations.empty() && !outDir.empty()) {
            // Reproduction artifact: rerun the violating seed with
            // observability attached and export the full trace.
            obs::Observability observability;
            core::ExperimentConfig repro = config;
            repro.obs = &observability;
            (void)runOversubExperiment(repro);
            std::filesystem::path tracePath =
                std::filesystem::path(outDir) /
                ("violation_seed_" + std::to_string(config.seed) +
                 ".trace.json");
            std::ofstream traceFile(tracePath);
            if (traceFile)
                observability.trace.exportChromeJson(traceFile);
            artifacts.push_back(tracePath.filename().string());
            std::printf("run %d: wrote reproduction trace %s\n", i,
                        tracePath.string().c_str());
        }
    }
    table.print(std::cout);

    if (!outDir.empty()) {
        obs::RunManifest manifest;
        manifest.command = "chaos";
        manifest.scenarioPath = args.text("scenario-file", "");
        std::ostringstream resolved;
        config::dumpResolved(base, set.points.front().tree, resolved);
        manifest.configDigest = obs::fnv1a64Hex(resolved.str());
        manifest.seed = baseSeed;
        manifest.jobs = set.jobs;
        manifest.durationS = sim::ticksToSeconds(base.duration);
        manifest.metricsIntervalS =
            sim::ticksToSeconds(base.obsOptions.metricsInterval);
        manifest.artifacts = artifacts;
        std::ofstream ms(std::filesystem::path(outDir) /
                         "manifest.json");
        if (ms)
            manifest.writeJson(ms);
    }

    std::printf("\n%d runs, %llu safety violation%s\n", runs,
                static_cast<unsigned long long>(totalViolations),
                totalViolations == 1 ? "" : "s");
    if (totalViolations > 0) {
        std::printf("reproduce with: polcactl chaos --runs 1 "
                    "--seed <violating seed shown above>\n");
        return 1;
    }
    return 0;
}

/** `polcactl report <run-dir>`: render report.md + report.html from
 *  the artifacts a previous run wrote. */
int
cmdReport(const Args &args)
{
    if (args.positional().empty()) {
        std::fprintf(stderr,
                     "report: no run directory given "
                     "(usage: polcactl report <run-dir>)\n");
        return 2;
    }
    int failures = 0;
    for (const std::string &dir : args.positional()) {
        obs::ReportResult result = obs::writeRunReport(dir);
        if (!result.ok) {
            std::fprintf(stderr, "report: %s\n",
                         result.error.c_str());
            ++failures;
            continue;
        }
        for (const std::string &path : result.written)
            std::printf("wrote %s\n", path.c_str());
    }
    return failures == 0 ? 0 : 2;
}

int
cmdConfigCheck(const Args &args)
{
    if (args.positional().empty()) {
        std::fprintf(stderr,
                     "config check: no scenario files given\n");
        return 2;
    }
    int failures = 0;
    for (const std::string &path : args.positional()) {
        config::Diagnostics diag;
        config::ScenarioSet set =
            config::loadScenarioFile(path, {}, diag);
        if (!diag.ok()) {
            std::fprintf(stderr, "%s: FAILED\n%s\n", path.c_str(),
                         diag.str().c_str());
            ++failures;
            continue;
        }
        std::printf("%s: OK (%zu point%s)\n", path.c_str(),
                    set.points.size(),
                    set.points.size() == 1 ? "" : "s");
    }
    return failures == 0 ? 0 : 1;
}

int
cmdConfigDump(const Args &args)
{
    std::optional<config::ScenarioSet> loaded = loadScenario(args, {});
    if (!loaded)
        return 2;
    const config::ScenarioSet &set = *loaded;
    std::size_t index =
        static_cast<std::size_t>(args.number("point", 0));
    if (index >= set.points.size()) {
        sim::fatal("--point ", index, " out of range (scenario has ",
                   set.points.size(), " points)");
    }
    const config::ResolvedScenario &point = set.points[index];
    if (set.isSweep()) {
        std::printf("# sweep point %zu/%zu: %s\n", index + 1,
                    set.points.size(), point.label.c_str());
    }
    config::dumpResolved(point.config, point.tree, std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);
    if (argc < 2)
        return usage();

    std::string command = argv[1];
    if (command == "models")
        return cmdModels();
    if (command == "policy")
        return cmdPolicy(Args(argc, argv, 2, {}));
    if (command == "run") {
        return cmdRun(Args(argc, argv, 2,
                           {"scenario-file", "set", "out-dir",
                            "workload", "trace", "metrics",
                            "trace-categories"}));
    }
    if (command == "chaos") {
        return cmdChaos(Args(argc, argv, 2,
                             {"runs", "seed", "scenario-file", "set",
                              "out-dir"}));
    }
    if (command == "report")
        return cmdReport(Args(argc, argv, 2, {}));
    if (command == "scenarios")
        return cmdScenarios();
    if (command == "config") {
        if (argc < 3)
            return usage();
        std::string sub = argv[2];
        if (sub == "check")
            return cmdConfigCheck(Args(argc, argv, 3, {}));
        if (sub == "dump") {
            return cmdConfigDump(
                Args(argc, argv, 3, {"scenario-file", "set", "point"}));
        }
        return usage();
    }
    if (command == "trace") {
        if (argc < 3)
            return usage();
        std::string sub = argv[2];
        std::vector<std::string> traceFlags = {"days", "servers",
                                               "seed", "out", "bin"};
        Args args(argc, argv, 3, traceFlags);
        if (sub == "generate")
            return cmdTraceGenerate(args);
        if (sub == "stats")
            return cmdTraceStats(args);
        if (sub == "regenerate")
            return cmdTraceRegenerate(args);
        return usage();
    }
    if (command == "--help" || command == "-h")
        return usage();
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage();
}
