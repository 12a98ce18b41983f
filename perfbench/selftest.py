#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Module attribution: fixed demangled names map to the right src/
   module, std:: frames are charged to their polca caller, and the
   module self-time shares of synthetic and of real stack samples sum
   to 100 %.
2. Driver matches CLI: at a short horizon, the driver's run directory
   for site_10k (a single point) and for sweep_branch is byte-identical
   to the one `polcactl run` writes for the same scenario, overrides
   and seed, so the benchmark times the program users run.

Exits 0 when every check passes, 1 otherwise.
"""

import filecmp
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import attribution  # noqa: E402
import run  # noqa: E402

# (demangled symbol, module it is charged to; None = charged to caller)
FIXTURES = [
    # plain member function
    ("polca::power::GpuPowerModel::powerAtClock(double, double) const",
     "power"),
    # lambda inside a polca::core function
    ("polca::core::PowerManager::start()::{lambda()#1}::operator()() const",
     "core"),
    # std::function trampoline around a core lambda: charged to caller
    ("std::_Function_handler<void (), polca::core::PowerManager::start()"
     "::{lambda()#1}>::_M_invoke(std::_Any_data const&)", None),
    # template function printed with its return type
    ("std::vector<double, std::allocator<double> > "
     "polca::sim::sortedCopy<double>(std::vector<double, "
     "std::allocator<double> > const&)", "sim"),
    ("double polca::analysis::mean<std::vector<double, "
     "std::allocator<double> > >(std::vector<double, "
     "std::allocator<double> > const&)", "analysis"),
    # anonymous namespace inside a module namespace
    ("polca::cluster::(anonymous namespace)::idleIndices("
     "polca::cluster::Row const&)", "cluster"),
    # operators and thunks
    ("polca::sim::Tick::operator<(polca::sim::Tick const&) const", "sim"),
    ("polca::obs::MetricsRegistry::operator()(int)", "obs"),
    ("non-virtual thunk to polca::telemetry::BreakerModel::sample(long)",
     "telemetry"),
    # libm / libc / the driver itself
    ("__ieee754_pow_fma", None),
    ("main", None),
    (None, None),
]

SYNTHETIC_SAMPLES = [
    # std frames between a polca caller and libm: self time -> power
    ["__ieee754_pow_fma", None,
     "polca::power::GpuPowerModel::powerAtClock(double, double) const",
     "polca::power::ServerModel::powerWatts() const",
     "polca::sim::EventQueue::runUntil(long)", "main"],
    # std::function trampoline charged to the event kernel
    ["std::_Function_handler<void (), polca::core::PowerManager::start()"
     "::{lambda()#1}>::_M_invoke(std::_Any_data const&)",
     "polca::sim::EventQueue::runUntil(long)", "main"],
    # no polca frame at all
    ["main", None],
]


def check(ok, message, failures):
    print("%s %s" % ("ok  " if ok else "FAIL", message), flush=True)
    if not ok:
        failures.append(message)


def test_attribution(failures):
    for name, module in FIXTURES:
        got = attribution.module_of(name)
        check(got == module, "%s -> %s" % (name, got), failures)
    self_counts, function_counts = attribution.charge(SYNTHETIC_SAMPLES)
    check(self_counts["power"] == 1 and self_counts["sim"] == 1 and
          self_counts["other"] == 1,
          "synthetic samples charged power/sim/other: %s" % {
              k: v for k, v in self_counts.items() if v}, failures)
    check(sum(self_counts.values()) == len(SYNTHETIC_SAMPLES),
          "synthetic self shares sum to 100 %", failures)
    check(function_counts["power.server_eval_s"] == 1 and
          function_counts["power.gpu_eval_s"] == 1 and
          function_counts["sim.kernel_s"] == 1,
          "function metrics: %s" % {
              k: v for k, v in function_counts.items() if v}, failures)


def test_traced_invocation(seed, failures):
    scenario, sets = run.scenario_for("site_10k", seed, ("20", None))
    out = run.WORK / "selftest" / "traced"
    profile = run.WORK / "selftest" / "traced.samples"
    result = run.invoke("site_10k", scenario, sets, out, profile)
    samples = attribution.SymbolTable(str(run.DRIVER)).resolve(profile)
    self_counts, _ = attribution.charge(samples)
    check(len(samples) == result["profile"]["samples"] and samples,
          "traced invocation wrote %d samples" % len(samples), failures)
    check(sum(self_counts.values()) == len(samples),
          "real self shares sum to 100 %", failures)
    leaked = sum(1 for s in samples if s and s[0] and "onProf" in s[0])
    check(leaked == 0, "no sample starts in the sampler's handler", failures)


def same_tree(a, b):
    """Relative paths that differ between two directories (or [])."""
    names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if names_a != names_b:
        return sorted(set(map(str, names_a)) ^ set(map(str, names_b)))
    return [str(n) for n in names_a
            if not filecmp.cmp(a / n, b / n, shallow=False)]


def test_cli_match(workload, horizon, seed, failures):
    scenario, sets = run.scenario_for(workload, seed, horizon)
    ours = run.WORK / "selftest" / (workload + "-driver")
    theirs = run.WORK / "selftest" / (workload + "-polcactl")
    run.invoke(workload, scenario, sets, ours)
    shutil.rmtree(theirs, ignore_errors=True)
    cmd = [str(run.POLCACTL), "run", "--scenario-file", scenario]
    for s in sets:
        cmd += ["--set", s]
    cmd += ["--out-dir", str(theirs)]
    # polcactl exits 1 when the run misses its SLOs; that is a result.
    status = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True).returncode
    check(status in (0, 1), "polcactl %s exit status %d" % (workload, status),
          failures)
    diff = same_tree(run.ROOT / ours, run.ROOT / theirs)
    check(not diff, "%s run directory byte-identical to polcactl run%s"
          % (workload, (": differs in " + ", ".join(diff)) if diff else ""),
          failures)


def main():
    os.chdir(run.ROOT)
    failures = []
    test_attribution(failures)
    try:
        run.build()
    except run.Refused as e:
        print("FAIL %s" % e)
        return 1
    test_traced_invocation(run.DEFAULT_SEED, failures)
    test_cli_match("site_10k", ("20", None), run.DEFAULT_SEED, failures)
    test_cli_match("sweep_branch", ("2h", "1h"), run.HELD_OUT_SEED, failures)
    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
