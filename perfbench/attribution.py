"""Charge stack samples to the simulator's src/ modules.

A sample is a list of demangled function names, innermost first
(None for a frame outside the driver executable, e.g. in libc or
libm).  Its self time goes to the innermost frame that belongs to a
``polca::<module>::`` function; frames in ``std::``, libm and libc are
charged to their nearest polca caller, and a sample with no polca
frame at all is charged to ``other``.  Each module is its own static
library and the build has no LTO, so no module's code is inlined into
another's and a sample lands on the right layer.
"""

import bisect
import functools
import subprocess

MODULES = ("sim", "power", "llm", "workload", "cluster", "telemetry",
           "core", "obs", "faults", "config", "analysis")

# Operator spellings that would otherwise read as brackets.
_OPERATORS = sorted(
    ["()", "[]", "<=>", "<<=", ">>=", "->*", "<<", ">>", "<=", ">=",
     "==", "!=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=",
     "&=", "|=", "^=", "->", "<", ">", "=", "!", "+", "-", "*", "/",
     "%", "&", "|", "^", "~", ","],
    key=len, reverse=True)
_OPEN = "<({["
_CLOSE = ">)}]"


@functools.lru_cache(maxsize=None)
def function_name(demangled):
    """The qualified name of the function a demangled symbol names.

    Drops the return type a template instantiation is printed with
    and everything from the parameter list on, so
    ``std::vector<double> polca::sim::f<int>(int) const`` gives
    ``polca::sim::f<int>``.  A lambda or local class keeps only its
    enclosing function: ``polca::core::A::b()::{lambda()#1}::operator()()``
    gives ``polca::core::A::b``.
    """
    s = demangled.replace("(anonymous namespace)", "{anon}")
    depth = 0
    start = 0
    i = 0
    while i < len(s):
        if s.startswith("operator", i) and (i == 0 or s[i - 1] in ": "):
            i += len("operator")
            for op in _OPERATORS:
                if s.startswith(op, i):
                    i += len(op)
                    break
            continue
        c = s[i]
        if c in _OPEN:
            if c == "(" and depth == 0:
                return s[start:i]
            depth += 1
        elif c in _CLOSE:
            depth -= 1
        elif c == " " and depth == 0:
            start = i + 1
        i += 1
    return s[start:]


@functools.lru_cache(maxsize=None)
def module_of(demangled):
    """The src/ module a symbol belongs to, or None (std, libc, ...)."""
    if demangled is None:
        return None
    name = function_name(demangled)
    if not name.startswith("polca::"):
        return None
    head = name[len("polca::"):].split("::", 1)[0].split("<", 1)[0]
    return head if head in MODULES else None


def _under(*prefixes):
    """Predicate: a qualified function name is one of / under these."""
    def match(name):
        return any(name == p or name.startswith(p + "<") or
                   (p.endswith("::") and name.startswith(p))
                   for p in prefixes)
    return match


def _last_component_in(*names):
    def match(name):
        return name.rsplit("::", 1)[-1].split("<", 1)[0] in names
    return match


# Function-level host-time metrics.  "incl": samples with a matching
# frame anywhere on the stack; "self": samples whose charged (innermost
# polca) frame matches.
FUNCTION_METRICS = [
    ("power.server_eval_s", "incl",
     _under("polca::power::ServerModel::powerWatts")),
    ("power.gpu_eval_s", "incl", _under("polca::power::GpuPowerModel::")),
    ("cluster.domain_sum_s", "self",
     _under("polca::cluster::PowerDomain::powerWatts")),
    ("cluster.pick_server_s", "incl",
     _under("polca::cluster::Dispatcher::pickServer")),
    ("telemetry.sample_s", "incl",
     _under("polca::telemetry::DomainManager::sample",
            "polca::telemetry::BreakerModel::sample",
            "polca::telemetry::EnergyMeter::sample")),
    ("core.control_s", "incl", _under("polca::core::PowerManager::")),
    ("sim.kernel_s", "self",
     _under("polca::sim::EventQueue::",
            "polca::sim::Simulation::PeriodicTask::")),
    ("sim.quantile_s", "incl", _under("polca::sim::Sampler::quantile")),
    ("obs.interval_s", "incl",
     _under("polca::obs::IntervalStats::snapshot")),
    ("core.snapshot_s", "incl",
     _last_component_in("saveState", "restoreState", "captureState")),
    ("workload.tracegen_s", "incl",
     _under("polca::workload::TraceGenerator::generate")),
    ("cluster.build_s", "incl",
     _under("polca::cluster::Row::Row", "polca::cluster::Site::Site",
            "polca::cluster::PowerDomain::finalize")),
]


_SELF_METRICS = frozenset(m for m, kind, _ in FUNCTION_METRICS
                         if kind == "self")


@functools.lru_cache(maxsize=None)
def _metrics_matching(name):
    return frozenset(m for m, _, match in FUNCTION_METRICS if match(name))


def charge(samples):
    """Sample counts per metric for a list of samples.

    Returns (self_counts, function_counts): self_counts maps every
    module in MODULES plus "other" to the samples whose self time it
    is charged, and sums to len(samples); function_counts maps each
    FUNCTION_METRICS name to its sample count.
    """
    self_counts = dict.fromkeys(MODULES + ("other",), 0)
    function_counts = {name: 0 for name, _, _ in FUNCTION_METRICS}
    for frames in samples:
        polca = [f for f in frames if module_of(f)]
        if not polca:
            self_counts["other"] += 1
            continue
        self_counts[module_of(polca[0])] += 1
        innermost = _metrics_matching(function_name(polca[0]))
        hits = set()
        for frame in polca:
            hits |= _metrics_matching(function_name(frame))
        for metric in hits:
            if metric not in _SELF_METRICS or metric in innermost:
                function_counts[metric] += 1
    return self_counts, function_counts


class SymbolTable:
    """Address -> demangled name for one executable, from ``nm``."""

    def __init__(self, binary):
        out = subprocess.run(
            ["nm", "--demangle", "--defined-only", "--print-size",
             "--numeric-sort", binary],
            check=True, capture_output=True, text=True).stdout
        self._starts = []
        self._ends = []
        self._names = []
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) != 4 or parts[2] not in "tTwW":
                continue
            start = int(parts[0], 16)
            self._starts.append(start)
            self._ends.append(start + int(parts[1], 16))
            self._names.append(parts[3])

    def lookup(self, offset):
        i = bisect.bisect_right(self._starts, offset) - 1
        if i >= 0 and offset < self._ends[i]:
            return self._names[i]
        return None

    def resolve(self, path):
        """Read a sample file written by the driver's sampler."""
        cache = {}
        samples = []
        with open(path) as f:
            for line in f:
                frames = []
                for word in line.split():
                    if word not in cache:
                        cache[word] = (None if word == "x"
                                       else self.lookup(int(word, 16)))
                    frames.append(cache[word])
                samples.append(frames)
        return samples
