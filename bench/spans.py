"""In-memory span tracer installed around otmlab's public functions.

A span is (name, start, end, parent).  Spans are kept in flat arrays while
the traced rounds run and written to one .npz file when the run ends; the
per-layer metrics are derived from those arrays.  Tracing wraps functions
from the outside, by rebinding module attributes and class methods, and
leaves the program's source untouched.  Self time is a span's duration
minus the durations of its direct children.
"""

import contextlib
import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("hashfam", "tails", "entropy", "nets", "quantum", "otm", "cli")

# Field arithmetic is the inner loop of every hash evaluation; a span per
# multiply would cost more than the multiply, so it stays inside the
# HashFunction.eval_field span.
UNSPANNED = {("hashfam", "BinaryField"): {"mul", "add", "pow"}}

BOUND_FUNCS = {"tails.kite_bound", "tails.kite_bound_log2", "tails.crayfish_bound",
               "tails.crayfish_bound_log2", "tails.hanson_wright_bound"}
COVER_FUNCS = {"nets.SeparableNetSpec.covering_index", "nets.TwoLocalNetSpec.covering_map"}
ASSEMBLE_FUNCS = {"quantum.SeparableOutcome.assemble", "quantum.assemble_two_local"}
NET_BUILD_FUNCS = {"nets.build_qubit_net", "nets.build_kraus_net"}


def _count_outcomes(counts, report):
    counts["otm.outcomes"] += len(report.rows)


def _count_bias_trials(counts, result):
    counts["otm.bias_trials"] += result["trials"]


def _count_mc_trials(counts, result):
    counts["tails.mc_trials"] += result["trials"]


def _count_net(counts, net):
    counts["nets.grid_points"] += len(net.grid_params)
    counts["nets.members"] += len(net.points)


COUNT_HOOKS = {
    "otm.evaluate_security": _count_outcomes,
    "otm.hash_bias_tail": _count_bias_trials,
    "tails.empirical_tail_linear": _count_mc_trials,
    "tails.empirical_tail_quadratic": _count_mc_trials,
    "nets.build_qubit_net": _count_net,
}
COUNTERS = ("otm.outcomes", "otm.bias_trials", "tails.mc_trials",
            "nets.grid_points", "nets.members")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._patched = []

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0):
        self.end[idx] = time.perf_counter()
        self.start[idx] = t0
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0)

    def wrap(self, fn, name):
        hook = COUNT_HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0)
            if hook is not None:
                hook(self.counts, result)
            return result

        return functools.wraps(fn)(traced)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package_modules):
        """Wrap the public functions, constructors and public methods of each
        layer module, and rebind every name other modules imported."""
        wrapped = {}
        for mod in package_modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(obj, "%s.%s" % (layer, name))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    skip = UNSPANNED.get((layer, name), set())
                    for attr, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn) or attr in skip:
                            continue
                        if attr == "__init__" or not attr.startswith("_"):
                            self._set(obj, attr,
                                      self.wrap(fn, "%s.%s.%s" % (layer, name, attr)))
        for mod in package_modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, name, wrapped[id(obj)])

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self):
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
        }

    def dump(self, path):
        np.savez(path, counter_names=np.array(COUNTERS, dtype=str),
                 counter_values=np.array([self.counts[c] for c in COUNTERS], dtype=float),
                 **self.arrays())


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, rounds, overhead_s):
    """Per-layer metrics, as totals per traced round, from the span arrays."""
    a = tracer.arrays()
    names = list(a["names"])
    nid, parent = a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_t = dur - child
    span_name = np.array(names, dtype=object)[nid]
    span_layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)[nid]

    def pick(*wanted):
        return np.isin(span_name, list(wanted))

    def total(mask):
        return float(dur[mask].sum())

    per = 1.0 / rounds
    c = tracer.counts
    m = {}
    for layer in LAYERS:
        m["%s.self_s" % layer] = float(self_t[span_layer == layer].sum()) * per

    evals = pick("hashfam.HashFunction.eval_field")
    m["hashfam.evals"] = int(evals.sum()) * per
    m["hashfam.evals_per_s"] = _rate(int(evals.sum()), total(evals))
    m["hashfam.field_builds"] = int(pick("hashfam.BinaryField.__init__").sum()) * per

    mc = pick("tails.empirical_tail_linear", "tails.empirical_tail_quadratic")
    m["tails.mc_trials_per_s"] = _rate(c["tails.mc_trials"], total(mc))
    bounds = pick(*BOUND_FUNCS)
    m["tails.bound_evals"] = int(bounds.sum()) * per
    m["tails.bound_s"] = total(bounds) * per

    splits = pick("entropy.entropy_split")
    smooth = pick("entropy.smoothed_min_entropy")
    in_split = smooth & has_parent & np.isin(parent, np.flatnonzero(splits))
    n_split = int(splits.sum())
    m["entropy.split_mean_s"] = total(splits) / n_split if n_split else 0.0
    m["entropy.smoothings"] = int(smooth.sum()) * per
    m["entropy.certify_per_split"] = ((int(in_split.sum()) - n_split) / n_split
                                      if n_split else 0.0)

    m["nets.build_s"] = total(pick(*NET_BUILD_FUNCS)) * per
    m["nets.grid_points"] = c["nets.grid_points"] * per
    m["nets.dedup_ratio"] = (c["nets.members"] / c["nets.grid_points"]
                             if c["nets.grid_points"] else 0.0)
    covers = pick(*COVER_FUNCS)
    m["nets.covers_per_s"] = _rate(int(covers.sum()), total(covers))

    m["quantum.povm_builds"] = int(pick("quantum.PovmElement.__init__").sum()) * per
    m["quantum.assemble_s"] = total(pick(*ASSEMBLE_FUNCS)) * per

    security = pick("otm.evaluate_security")
    m["otm.outcome_mean_s"] = (total(security) / c["otm.outcomes"]
                               if c["otm.outcomes"] else 0.0)
    m["otm.bias_trials_per_s"] = _rate(c["otm.bias_trials"], total(pick("otm.hash_bias_tail")))
    programs = pick("otm.program_ideal")
    trips = programs | pick("otm.IdealBitOtm.read_bit")
    m["otm.round_trips_per_s"] = _rate(int(programs.sum()), total(trips))

    m["trace.overhead_s"] = overhead_s
    return m
