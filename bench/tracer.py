"""Outside-in spans around engelkit's layer functions.

The tracer replaces each target function with a wrapper in every engelkit
module that holds a binding to it (several are imported with
`from ... import`), so nothing under `src/` changes.  A wrapper records a
span only for the outermost call of its function: `normalize` and
`evaluate` recurse through their module globals, and the inner calls pass
straight through.

Spans live in memory as parallel arrays and are folded into per-function
figures (`calls`, `self_s`, `total_s` and a few ratios) once the traced
work is over.  A function's self time is its span time minus the part of
that interval its child spans cover.
"""

import sys
import time
from array import array

# metric prefix -> (module, attribute path) of each traced function
TARGETS = {
    "expr.normalize": ("engelkit.expr", "normalize"),
    "expr.cleanup": ("engelkit.expr", "cleanup"),
    "expr.differentiate": ("engelkit.expr", "differentiate"),
    "expr.evaluate": ("engelkit.expr", "evaluate"),
    "sampling.points": ("engelkit.sampling", "SamplingPolicy.points"),
    "sampling.is_zero_expr": ("engelkit.sampling", "is_zero_expr"),
    "sampling.is_zero_many": ("engelkit.sampling", "is_zero_many"),
    "sampling.nonvanishing": ("engelkit.sampling", "nonvanishing"),
    "frames.bracket": ("engelkit.frames", "bracket"),
    "frames.d": ("engelkit.frames", "d"),
    "frames.wedge": ("engelkit.frames", "wedge"),
    "frames.interior": ("engelkit.frames", "interior"),
    "frames.dual_coframe": ("engelkit.frames", "dual_coframe"),
    "frames.determinant": ("engelkit.frames", "determinant"),
    "frames.solve_kernel": ("engelkit.frames", "solve_kernel"),
    "frames.solve_kernel_greedy": ("engelkit.frames", "solve_kernel_greedy"),
    "engel.analyze": ("engelkit.engel", "analyze"),
    "engel.identity_suite": ("engelkit.engel", "identity_suite"),
    "kengel.kengel_check": ("engelkit.kengel", "kengel_check"),
    "kengel.kengel_invariants": ("engelkit.kengel", "kengel_invariants"),
    "contact.contactization_report": ("engelkit.contact",
                                      "contactization_report"),
    "bundles.boothby_wang": ("engelkit.bundles", "boothby_wang"),
    "bundles.t2_bundle_condition": ("engelkit.bundles",
                                    "t2_bundle_condition"),
    "metric.tangency_report": ("engelkit.metric", "tangency_report"),
    "catalog.geometry_row": ("engelkit.catalog", "geometry_row"),
    "catalog.kengel_framing_search": ("engelkit.catalog",
                                      "kengel_framing_search"),
    "catalog.jacobi_check": ("engelkit.catalog", "jacobi_check"),
    "qfield.rational_rank": ("engelkit.qfield", "rational_rank"),
    "manifest.load_manifest": ("engelkit.manifest", "load_manifest"),
    "report.run_manifest": ("engelkit.report", "run_manifest"),
    "report.machine_text": ("engelkit.report", "RunReport.machine_text"),
}

# what a span remembers of its call, for the derived ratios
NOTES = {
    "expr.normalize": lambda args, out: (args[0], out),
    "sampling.is_zero_expr": lambda args, out: getattr(out, "kind", None),
    "sampling.is_zero_many": lambda args, out: getattr(out, "kind", None),
    "sampling.nonvanishing": lambda args, out: args[0],
}

# the per-function figures reported for each target; see layer_metrics
FIGURES = {
    "expr.normalize": ("calls", "self_s", "noop_frac"),
    "expr.evaluate": ("calls", "self_s", "singular_frac"),
    "manifest.load_manifest": ("self_s",),
    "report.run_manifest": ("self_s",),
    "report.machine_text": ("self_s",),
}
ANALYSIS = ("engel.", "kengel.", "contact.", "bundles.", "metric.",
            "catalog.", "qfield.")


def figures(name):
    if name in FIGURES:
        return FIGURES[name]
    if name.startswith(ANALYSIS):
        return ("calls", "self_s", "total_s")
    return ("calls", "self_s")


class Tracer:
    """In-memory span store: name, start, end, parent span and check id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.checks = []
        self.notes = {}          # span index -> note, for NOTES names
        self.errors = {}         # span index -> class name of the raise
        self.check = None
        self._open = []
        self._patched = []       # (owner, attribute, original)

    def __len__(self):
        return len(self.names)

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.checks.append(self.check)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx):
        self.ends[idx] = self.clock()
        self._open.pop()

    def wrap(self, name, fn):
        """A wrapper recording one span per outermost call of fn."""
        note = NOTES.get(name)
        active = [False]

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                self.end(idx)
                self.errors[idx] = type(err).__name__
                raise
            finally:
                active[0] = False
            self.end(idx)
            if note is not None:
                self.notes[idx] = note(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets=TARGETS):
        """Wrap every binding of each target in the loaded engelkit modules.

        Returns the names whose function could not be found.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if key == "engelkit" or key.startswith("engelkit.")]
        missing = []
        for name, (modname, path) in targets.items():
            owner = sys.modules.get(modname)
            *head, attr = path.split(".")
            for part in head:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(name)
                continue
            wrapper = self.wrap(name, fn)
            if head:
                self._patch(owner, attr, fn, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, fn, wrapper)
        return missing

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def spans(self):
        """Every span as a dict, in start order."""
        return [{"name": self.names[i], "start": self.starts[i],
                 "end": self.ends[i], "parent": self.parents[i],
                 "check": self.checks[i]} for i in range(len(self))]


def self_times(starts, ends, parents):
    """Each span's duration minus the union of its children's intervals."""
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted((max(starts[c], lo), min(ends[c], hi))
                           for c in children.get(i, ())):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def layer_totals(tracer):
    """Additive per-function totals, so several processes can be summed.

    `<fn>.calls`, `<fn>.self_s` and `<fn>.total_s` for every target, and
    the hit counts behind the ratios of layer_metrics.  Only outermost
    calls get a span (see Tracer.wrap), so `calls` counts outermost calls
    and `total_s` never counts time twice.  Tracing stops first, since the
    ratios call engelkit again.
    """
    tracer.uninstall()
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    out = {}
    for name in TARGETS:
        out.update({f"{name}.calls": 0, f"{name}.self_s": 0.0,
                    f"{name}.total_s": 0.0})
    for i, name in enumerate(tracer.names):
        for fig, value in (("calls", 1), ("self_s", selfs[i]),
                           ("total_s", tracer.ends[i] - tracer.starts[i])):
            key = f"{name}.{fig}"
            out[key] = out.get(key, 0) + value
    out.update(_hits(tracer))
    return out


def _hits(tracer):
    """Counts behind the ratios.

    noop: outermost normalize calls whose output equals the input.
    singular: outermost evaluate calls that raised SingularPoint.
    exact: zero verdicts (is_zero_expr/is_zero_many) of kind exact.
    rational: nonvanishing calls whose every expression normalizes to a
    rational.
    """
    from engelkit.expr import normalize
    hits = {"expr.normalize.noop": 0, "expr.evaluate.singular": 0,
            "sampling.zero.exact": 0, "sampling.nonvanishing.rational": 0}
    for idx, note in tracer.notes.items():
        name = tracer.names[idx]
        if name == "expr.normalize":
            hits["expr.normalize.noop"] += note[1] == note[0]
        elif name == "sampling.nonvanishing":
            hits["sampling.nonvanishing.rational"] += all(
                normalize(e)[0] == "rat" for e in note)
        else:
            hits["sampling.zero.exact"] += note == "exact"
    hits["expr.evaluate.singular"] = sum(
        1 for idx, kind in tracer.errors.items()
        if tracer.names[idx] == "expr.evaluate" and kind == "SingularPoint")
    return hits


def add_totals(many):
    """Sum layer_totals dicts key by key."""
    out = {}
    for totals in many:
        for key, value in totals.items():
            out[key] = out.get(key, 0) + value
    return out


def _ratio(hits, total):
    return hits / total if total else 0.0


def layer_metrics(totals):
    """The reported per-layer figures, ratios included, from totals."""
    out = {}
    for name in TARGETS:
        for fig in figures(name):
            if f"{name}.{fig}" in totals:
                out[f"{name}.{fig}"] = totals[f"{name}.{fig}"]
    verdicts = (totals["sampling.is_zero_expr.calls"]
                + totals["sampling.is_zero_many.calls"])
    out["expr.normalize.noop_frac"] = _ratio(
        totals["expr.normalize.noop"], totals["expr.normalize.calls"])
    out["expr.evaluate.singular_frac"] = _ratio(
        totals["expr.evaluate.singular"], totals["expr.evaluate.calls"])
    out["sampling.zero.exact_frac"] = _ratio(
        totals["sampling.zero.exact"], verdicts)
    out["sampling.nonvanishing.rational_frac"] = _ratio(
        totals["sampling.nonvanishing.rational"],
        totals["sampling.nonvanishing.calls"])
    return out


def layer_names():
    """Every per-layer metric name the traced run reports, in order."""
    out = []
    for name in TARGETS:
        out += [f"{name}.{fig}" for fig in figures(name)]
    out += ["sampling.zero.exact_frac", "sampling.nonvanishing.rational_frac",
            "trace.overhead_frac"]
    return out
