#!/usr/bin/env python3
"""polcasim benchmark: two workloads, timed end to end and per module.

    python3 perfbench/run.py --workload site_10k --seed 42 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all      # site_10k, then sweep_branch

Builds the simulator and the benchmark driver from this checkout into
.bench_build/ (a no-op after the first run), then runs the workload
through perfbench_driver, one process per invocation, until --seconds
of measurement have passed.  Every invocation's simulated artifacts
are hashed; the digest must match across the run's invocations
(traced and untraced) and across earlier runs of the same build and
seed.  Each workload's report ends in one JSON result line (the last
line of standard output for a single workload):
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from stack-sampled invocations run beside untraced
ones.  Seeds: 42 is the default, 7 the held-out seed a speed claim
must also hold on.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import attribution  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = Path(".bench_build")
BUILD = BUILD_ROOT / "perfbench"
WORK = BUILD_ROOT / "work"
DRIVER = BUILD / "perfbench_driver"
POLCACTL = BUILD / "polca" / "tools" / "polcactl"

DEFAULT_SEED = 42
HELD_OUT_SEED = 7
INVOCATION_TIMEOUT_S = 120
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")
LOAD_WAIT_S = 60

# Scenario, overrides (as `polcactl run --set`) and the artifacts each
# invocation must leave.  The sweep's scenario is generated per seed.
WORKLOADS = {
    "site_10k": {
        "scenario": "scenarios/site_10k.toml",
        "sets": ["experiment.duration=180"],
        "artifacts": ["result.csv", "metrics.csv", "domains.csv"],
    },
    "sweep_branch": {
        "template": "perfbench/sweep_branch.toml",
        "artifacts": ["summary.csv"],
    },
}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("sim_speed", "sim_s/s"),
              ("peak_rss_mb", "MiB"), ("ok_frac", "ratio")]

SPANS = ["config.load_s", "core.managed_run_s", "core.baseline_run_s",
         "core.sweep_run_s", "core.artifacts_s"]
COUNTS = ["sim.events", "sim.queue_high_water", "cluster.arrivals",
          "cluster.completions", "cluster.central_spills",
          "cluster.batches", "telemetry.readings",
          "telemetry.readings_dropped", "core.decisions",
          "core.cap_commands", "core.uncap_commands", "core.brake_events",
          "core.reissues", "telemetry.smbpbi_issued",
          "telemetry.smbpbi_superseded"]


class Refused(Exception):
    """The benchmark cannot produce a trustworthy result here."""


def log(message):
    print(message, flush=True)


def scenario_for(workload, seed, horizon=None):
    """(scenario path relative to the root, --set overrides) of a run.

    @p horizon = (duration, warmup) shortens a workload for the
    self-test; the warmup applies to the sweep only.
    """
    spec = WORKLOADS[workload]
    if "template" not in spec:
        sets = list(spec["sets"])
        if horizon:
            sets = [s for s in sets if not s.startswith("experiment.duration=")]
            sets.insert(0, "experiment.duration=" + horizon[0])
        return spec["scenario"], sets + ["experiment.seed=%d" % seed]
    text = (ROOT / spec["template"]).read_text()
    text = re.sub(r'(?m)^"experiment\.seed" = .*$',
                  '"experiment.seed" = [%d..%d]' % (seed, seed + 1), text)
    if horizon:
        text = re.sub(r"(?m)^duration = .*$", "duration = " + horizon[0], text)
        text = re.sub(r"(?m)^warmup = .*$", "warmup = " + horizon[1], text)
    path = WORK / ("%s-%d%s.toml" % (workload, seed, "-short" if horizon else ""))
    (ROOT / path).parent.mkdir(parents=True, exist_ok=True)
    (ROOT / path).write_text(text)
    return str(path), []


def build():
    """Configure (once) and build the driver and polcactl."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise Refused("simulator sources (CMakeLists.txt, src/) not found "
                      "next to perfbench/")
    jobs = str(len(os.sched_getaffinity(0)))
    (ROOT / BUILD).mkdir(parents=True, exist_ok=True)
    with open(ROOT / BUILD_ROOT / "build.log", "w") as out:
        steps = []
        if not (ROOT / BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", "perfbench", "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "perfbench_driver", "polcactl", "-j", jobs])
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise Refused("build failed; see %s" % (BUILD_ROOT / "build.log"))


def cmake_cache(key):
    text = (ROOT / BUILD / "CMakeCache.txt").read_text()
    m = re.search(r"(?m)^%s:[A-Z]+=(.*)$" % re.escape(key), text)
    return m.group(1) if m else ""


def host_record():
    """Where and from what the numbers come."""
    commit = "none"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or "none"
    tree = hashlib.sha256()
    for path in sorted(p for d in ("src", "tools", "perfbench")
                       for p in (ROOT / d).rglob("*") if p.is_file()):
        tree.update(str(path.relative_to(ROOT)).encode() + b"\0")
        tree.update(path.read_bytes())
    compiler = "unknown"
    for f in (ROOT / BUILD / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"):
        text = f.read_text()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            compiler = "%s %s" % (ident.group(1), version.group(1))
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "source_digest": tree.hexdigest()[:16],
            "compiler": compiler, "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "load1": os.getloadavg()[0]}


def wait_for_quiet_host(nproc):
    """Refuse to measure while the 1-minute load exceeds the cores."""
    deadline = time.monotonic() + LOAD_WAIT_S
    while os.getloadavg()[0] > nproc:
        if time.monotonic() > deadline:
            raise Refused("1-minute load %.2f exceeds %d cores"
                          % (os.getloadavg()[0], nproc))
        time.sleep(5)


def digest(run_dir):
    """Hash of every simulated CSV artifact in a run directory."""
    h = hashlib.sha256()
    for path in sorted((ROOT / run_dir).rglob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def invoke(workload, scenario, sets, run_dir, profile=None):
    """One driver process; returns its JSON (plus digest) or raises."""
    shutil.rmtree(ROOT / run_dir, ignore_errors=True)
    cmd = [str(DRIVER), "--scenario", scenario]
    for s in sets:
        cmd += ["--set", s]
    cmd += ["--out", str(run_dir)]
    if profile:
        cmd += ["--profile", str(profile)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("driver exit status %d: %s"
                           % (proc.returncode, proc.stderr.strip()[-400:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    missing = [a for a in WORKLOADS[workload]["artifacts"]
               if not (ROOT / run_dir / a).is_file()]
    if missing:
        raise RuntimeError("missing artifacts: " + ", ".join(missing))
    result["digest"] = digest(run_dir)
    return result


def check_history(workload, seed, value):
    """The digest of (workload, seed) must not change within one build."""
    build_id = hashlib.sha256((ROOT / DRIVER).read_bytes()).hexdigest()
    path = ROOT / BUILD / "digests.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    if store.get("build") != build_id:
        store = {"build": build_id, "digests": {}}
    known = store["digests"].setdefault("%s:%d" % (workload, seed), value)
    path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return known


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(runs, attempted, failed):
    return {
        "wall_s": median([r["wall_s"] for r in runs]),
        "setup_s": median([r["setup_s"] for r in runs]),
        "sim_speed": median([r["sim_s"] / r["loop_s"] for r in runs]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(untraced, traced):
    """Per-layer metrics: spans and counts from the untraced invocations,
    host time per module from the stack samples of the traced ones."""
    m = {}
    for span in SPANS:
        m[span] = median([r["spans"][span] for r in untraced])
    m["sim.loop_s"] = median([r["loop_s"] for r in untraced])
    counts = untraced[0]["counts"]
    m["sim.host_us_per_event"] = (
        m["sim.loop_s"] / counts["sim.events"] * 1e6
        if counts["sim.events"] else 0.0)
    m["core.sweep_busy_s"] = median(
        [r["spans"]["core.sweep_busy_s"] for r in untraced])
    m["core.sweep_parallel_eff"] = median(
        [r["spans"]["core.sweep_busy_s"] /
         (r["spans"]["core.sweep_run_s"] * r["spans"]["sweep_workers"])
         for r in untraced if r["spans"]["sweep_workers"]])
    for name in COUNTS:
        m[name] = counts[name]
    issued = counts["telemetry.smbpbi_issued"]
    m["telemetry.smbpbi_useful_ratio"] = (
        (issued - counts["telemetry.smbpbi_superseded"] -
         counts["telemetry.smbpbi_dropped"]) / issued if issued else 0.0)

    samples = []
    cpu = 0.0
    symbols = attribution.SymbolTable(str(ROOT / DRIVER))
    for r in traced:
        samples += symbols.resolve(ROOT / r["profile_path"])
        cpu += r["profile"]["cpu_s"]
    self_counts, function_counts = attribution.charge(samples)
    if not samples or sum(self_counts.values()) != len(samples):
        raise RuntimeError("stack samples not fully charged")
    per_sample = cpu / len(samples) / len(traced)
    for module, n in self_counts.items():
        m[module + ".self_s"] = n * per_sample
    for name, n in function_counts.items():
        m[name] = n * per_sample
    m["trace.overhead_frac"] = (
        median([r["wall_s"] for r in traced]) /
        median([r["wall_s"] for r in untraced]) - 1.0)
    return m, len(samples)


def print_anchors(workload, anchors):
    log("# paper anchors (informational, not gated; the model is validated "
        "only against the EXPERIMENTS.md anchors):")
    if workload == "site_10k":
        log("#   breaker trips: " + ", ".join(
            "%s %d" % (k[len("trips_"):], v) for k, v in sorted(anchors.items())
            if k.startswith("trips_")))
        return
    log("#   (anchor at +30 % servers under POLCA: LP p50 <= 1.05x, 0 brakes)")
    for label, point in anchors.items():
        log("#   %-40s LP p50 / p99 normalised %.3f / %.3f, brakes %d"
            % (label, point["lp_p50_norm"], point["lp_p99_norm"],
               point["brakes"]))


def measure(workload, seed, seconds, trace):
    """Invoke the driver until @p seconds pass; with @p trace every
    second invocation runs under the stack sampler."""
    scenario, sets = scenario_for(workload, seed)
    run_root = WORK / workload
    runs, failures = [], []
    attempted = 0
    start = time.monotonic()
    while True:
        traced = trace and attempted % 2 == 1
        run_dir = run_root / str(attempted)
        profile = run_root / ("%d.samples" % attempted) if traced else None
        attempted += 1
        t0 = time.monotonic()
        try:
            r = invoke(workload, scenario, sets, run_dir, profile)
            r["traced"] = traced
            r["profile_path"] = profile
            runs.append(r)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            failures.append(str(e))
        elapsed = time.monotonic() - start
        # Stop once the next invocation would end past the budget by
        # more than half its length.
        if elapsed + 0.5 * (time.monotonic() - t0) >= seconds and (
                not trace or attempted >= 2):
            break
    return scenario, sets, runs, failures, attempted


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "sim.host_us_per_event":
        return "us"
    if name.endswith(("_ratio", "_eff", "_frac")):
        return "ratio"
    return "count"


def report(workload, seed, seconds, trace, host):
    """Measure one workload; print its report and JSON result line."""
    log("# polcasim benchmark: workload %s, seed %d (default %d, held out %d)"
        % (workload, seed, DEFAULT_SEED, HELD_OUT_SEED))
    log("# host: " + ", ".join("%s=%s" % kv for kv in host.items()))
    scenario, sets, runs, failures, attempted = measure(
        workload, seed, seconds, trace)

    # Output checks: every invocation of one build and seed simulates
    # the same thing, traced or not.
    if runs:
        if not all(r["optimized"] for r in runs):
            print("refused: driver built without optimisation", file=sys.stderr)
            return 3
        known = check_history(workload, seed, runs[0]["digest"])
        for r in runs:
            if r["digest"] != known or r["counts"] != runs[0]["counts"]:
                failures.append("digest %s / counts differ from digest %s"
                                % (r["digest"], known))
                r["bad"] = True
        runs = [r for r in runs if not r.get("bad")]
    failed = len(failures)
    for f in failures:
        log("# FAILED: " + f)
    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    if not untraced or (trace and not traced):
        print("no successful invocation", file=sys.stderr)
        return 1

    log("# scenario %s %s" % (scenario, " ".join("--set " + s for s in sets)))
    log("# digest %s over %d invocations (%d traced)"
        % (runs[0]["digest"], len(runs), len(traced)))
    e2e = end_to_end(untraced, attempted, failed)
    for name, unit in END_TO_END:
        log("%-30s %14.6f %s" % (name, e2e[name], unit))
    log("%-30s %14.6f %s" % ("fail_frac", failed / attempted, "ratio"))
    print_anchors(workload, runs[0]["anchors"])

    if trace:
        metrics, nsamples = per_layer(untraced, traced)
        log("# %d stack samples over %d traced invocations"
            % (nsamples, len(traced)))
        for name, value in metrics.items():
            log("%-30s %14.6f" % (name, value))
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = e2e
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    try:
        build()
        host = host_record()
        if host["build_type"] not in OPTIMIZED_BUILD_TYPES:
            raise Refused("build type '%s' is not optimised" % host["build_type"])
        wait_for_quiet_host(host["nproc"])
        host["load1"] = os.getloadavg()[0]
    except Refused as e:
        print("refused: %s" % e, file=sys.stderr)
        return 3
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(report(w, args.seed, args.seconds, args.trace == 1, host)
               for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
