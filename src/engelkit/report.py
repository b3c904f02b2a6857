"""Run a manifest's tasks and build deterministic reports.

Each task produces outcome tokens (matched against the manifest's expect
lines), report lines (rendered verdicts and derived objects), and the
object its op built, which run_manifest hands on to later tasks by name.

The machine-readable report is line-oriented with a versioned header and
a stable field order; given the same manifest and seed, two runs emit
byte-identical files.  Wall-clock timing therefore appears only in the
human-readable output.
"""

import importlib.util
import os
import sys
import time
from fractions import Fraction

from . import expr as ex
from .bundles import (T2_FIBRE, boothby_wang, filling_check,
                      t2_bundle_condition, torus_family)
from .contact import contactization_report
from .engel import (EngelData, EngelError, analyze, dbeta2_criterion,
                    identity_suite, integrability_report, rho_criterion,
                    transform_forms)
from .expr import CheckError, ExprError
from .frames import fmt_field, fmt_form, zero
from .kengel import (KEngelData, KEngelError, kengel_check, kengel_framing,
                     kengel_invariants, require_all)
from .manifest import ManifestError
from .metric import (bracket_pattern_report, orthonormal_metric,
                     tangency_report)
from .sampling import SamplingPolicy, failed, fmt_float, fmt_point, weakest


# Only commutant and framing tasks (none in the corpus) read `catalog`: it is
# compiled at first use, but sys.modules lists it now for bench/tracer.py.
catalog = sys.modules.get(f"{__package__}.catalog")
if catalog is None:
    spec = importlib.util.find_spec(f"{__package__}.catalog")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    catalog = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    setattr(sys.modules[__package__], "catalog", catalog)
    spec.loader.exec_module(catalog)


class TaskResult:
    def __init__(self, name, op):
        self.name = name
        self.op = op
        self.tokens = set()
        self.lines = []          # (kind, name, text)
        self.output = None       # what run_manifest hands on
        self.expect_results = []  # (raw, matched)
        self.seconds = 0.0

    def token(self, *parts):
        self.tokens.add(" ".join(str(p) for p in parts if p != ""))

    def fail_tokens(self, kind, names):
        self.token(kind)
        for n in names:
            self.token(kind, n)

    def verdict(self, name, v):
        self.lines.append(("verdict", name, v.describe()))

    def outcome(self, prefix, bad):
        """`<prefix>_pass`, or `<prefix>_fail` once bare and once per name."""
        if bad:
            self.fail_tokens(f"{prefix}_fail", bad)
        else:
            self.token(f"{prefix}_pass")
        return not bad

    def verdicts(self, prefix, verdicts):
        """Render every verdict, then the outcome."""
        for name, v in verdicts.items():
            self.verdict(name, v)
        return self.outcome(prefix, failed(verdicts))

    def derived(self, name, text):
        self.lines.append(("derived", name, text))

    def built(self, kdata):
        """A built triple, returned, with its pair's forms and Reeb field."""
        self.derived("alpha", fmt_form(kdata.data.alpha))
        self.derived("beta", fmt_form(kdata.data.beta))
        self.derived("R", fmt_field(kdata.data.R))
        return kdata


# ---------------------------------------------------------------------------
# argument resolution

def _need(task, key):
    if key not in task.args:
        raise ManifestError(f"task '{task.name}': missing argument '{key}'")
    return task.args[key]


def _named(task, name, table, kind):
    if name not in table:
        raise ManifestError(f"task '{task.name}': unknown {kind} '{name}'")
    return table[name]


def _form(mf, task, key, degree):
    name = _need(task, key)
    w = _named(task, name, mf.forms, "form")
    if w.degree != degree:
        raise ManifestError(f"task '{task.name}': '{key}' needs a "
                            f"{degree}-form, but form '{name}' has degree "
                            f"{w.degree}")
    return w


def _field(mf, task, key, optional=False):
    if optional and key not in task.args:
        return None
    return _named(task, _need(task, key), mf.fields, "field")


def _pair(obj):
    """The analyzed pair of a handed-on object: itself, or a triple's."""
    return obj.data if isinstance(obj, KEngelData) else obj


def _data(results, task, triple=False):
    """The pair, or with triple the K-Engel triple, that the earlier task
    named by `data` handed on.  A name no earlier task has, or whose op hands
    on no such object, is a manifest error; a failed task's fails as a
    check, so an op reads its other arguments first."""
    name = _need(task, "data")
    prior = next((res for res in results if res.name == name), None)
    if prior is None:
        raise ManifestError(f"task '{task.name}': no prior task '{name}'")
    if not issubclass(MAKES[prior.op],
                      KEngelData if triple else (EngelData, KEngelData)):
        raise ManifestError(
            f"task '{task.name}': task '{name}' did not produce "
            f"{'KEngelData' if triple else 'EngelData or KEngelData'}")
    if prior.output is None:
        raise CheckError(f"task '{name}' failed, so there is nothing to check")
    return prior.output if triple else _pair(prior.output)


def _on_pair(task, key, obj, data):
    """Refuse a manifest field or metric off the `data` pair's frame."""
    if obj is None:
        return
    have, want = obj.space, data.space
    if have.dim != want.dim:
        raise ManifestError(
            f"task '{task.name}': '{key}' is {have.dim}-dim, but the "
            f"pair of task '{task.args['data']}' lives on a "
            f"{want.dim}-dim space")
    if (have.kinds, have.names) != (want.kinds, want.names):
        frame = [", ".join(map(" ".join, zip(s.kinds, s.names)))
                 for s in (have, want)]
        raise ManifestError(
            f"task '{task.name}': '{key}' is on the frame ({frame[0]}), but "
            f"the pair of task '{task.args['data']}' lives on ({frame[1]})")


def _data_metric(mf, task, results):
    """The pair named by `data`, and the metric by `metric` or its own."""
    name = task.args.get("metric", "orthonormal")
    g = None if name == "orthonormal" else _named(task, name, mf.metrics,
                                                  "metric")
    data = _data(results, task)
    _on_pair(task, "metric", g, data)
    return data, g or orthonormal_metric(data)


def _rational_vec(task, V):
    out = []
    for c in V.comps:
        e = ex.normalize(c)
        if e[0] != "rat":
            raise ManifestError(
                f"task '{task.name}': field component {ex.to_str(c)} is "
                f"not rational")
        out.append(e[1])
    return out


def _lie_algebra(mf, task):
    sp = mf.space
    if sp.dim != 4 or any(k != "lie" for k in sp.kinds):
        raise ManifestError(f"task '{task.name}': needs a 4-dim invariant "
                            f"frame space")
    return sp


def _scalar_arg(mf, task, key):
    text = _need(task, key)
    try:
        return mf.space.scalar(text)
    except Exception as err:
        raise ManifestError(f"task '{task.name}': bad expression for "
                            f"'{key}': {err}")


# ---------------------------------------------------------------------------
# operations: each returns what it built, or None, and its return annotation
# says what it can hand on; run_manifest alone decides whether it does.

def op_engel(mf, task, policy, results, res) -> EngelData:
    if mf.space.dim != 4:
        raise ManifestError(f"task '{task.name}': needs a 4-dim space")
    alpha = _form(mf, task, "alpha", 1)
    beta = _form(mf, task, "beta", 1)
    W = _field(mf, task, "W", optional=True)
    X = _field(mf, task, "X", optional=True)
    try:
        data = analyze(mf.space, alpha, beta, policy, W=W, X=X)
    except EngelError as err:
        # name the defining condition that broke, if one did
        checks, _ = check_defining_forms(mf.space, alpha, beta, policy)
        for name, v in checks.items():
            res.verdict(name, v)
        res.fail_tokens("engel_fail", failed(checks) or ["analysis"])
        res.derived("error", str(err))
        return
    res.verdicts("engel", data.defining)
    for name, V in zip("WXTR", data.framing()):
        res.derived(name, fmt_field(V))
    res.derived("u", ex.to_str(data.u))
    res.derived("v", ex.to_str(data.v))
    for key in sorted(data.table):
        e = ex.cleanup(data.table[key])
        if not ex.is_zero(e):
            res.derived(f"table {key}", ex.to_str(e))
    return data


def op_kengel(mf, task, policy, results, res) -> KEngelData:
    Z = _field(mf, task, "Z")
    rank = task.args.get("rank")
    if rank is not None:
        if not (rank.isdecimal() and 1 <= int(rank) <= mf.space.dim):
            raise ManifestError(f"task '{task.name}': rank must be an "
                                f"integer from 1 to {mf.space.dim}, got "
                                f"{rank!r}")
        rank = int(rank)
    data, g = _data_metric(mf, task, results)
    _on_pair(task, "Z", Z, data)
    verdicts = kengel_check(data, g, Z, policy)
    killing = [v for name, v in verdicts.items()
               if name.startswith("Killing ")]
    for name, v in verdicts.items():
        if not name.startswith("Killing "):
            res.verdict(name, v)
    res.verdict("Killing equation", weakest(killing))
    require_all(verdicts, "the triple check fails")
    res.token("kengel_pass")
    return KEngelData(data, g, Z, rank=rank)


def op_kframing(mf, task, policy, results, res) -> KEngelData:
    kdata = kengel_framing(_data(results, task, triple=True), policy)
    res.token("kframing_pass")
    return res.built(kdata)


def op_kinvariants(mf, task, policy, results, res):
    res.verdicts("invariants", kengel_invariants(_data(results, task),
                                                 policy))


def op_identities(mf, task, policy, results, res):
    res.verdicts("identities", identity_suite(_data(results, task), policy))


def op_contact(mf, task, policy, results, res):
    verdicts, closed = contactization_report(_data(results, task), policy)
    res.verdicts("contact", verdicts)
    res.derived("closed form", fmt_field(closed))


def op_geodesic(mf, task, policy, results, res):
    plane = task.args.get("plane", "D")
    if plane not in ("D", "R"):
        raise ManifestError(f"task '{task.name}': plane must be D or R")
    data, g = _data_metric(mf, task, results)
    verdicts, exprs = tangency_report(data, g, plane, policy)
    for name, v in verdicts.items():
        res.verdict(name, v)
    bad = failed(verdicts)
    if bad:
        res.fail_tokens("not_geodesic", bad[:1])
        res.derived("witness", f"{bad[0]} = {ex.to_str(exprs[bad[0]])}")
    else:
        res.token("geodesic")


def op_pattern(mf, task, policy, results, res):
    res.verdicts("pattern", bracket_pattern_report(_data(results, task),
                                                   policy))


def op_dbeta2(mf, task, policy, results, res):
    verdicts, mu = dbeta2_criterion(_data(results, task), policy)
    res.verdicts("dbeta2", verdicts)
    res.derived("mu", ex.to_str(mu))


def op_integrability(mf, task, policy, results, res):
    data = _data(results, task)
    report = integrability_report(data, policy)
    for name, v in report.items():
        res.verdict(name, v)
    res.derived("c_TR", ex.to_str(data.table["c_TR"]))
    closes = (report["closure det with W"].ok
              and report["closure det with X"].ok)
    agrees = report["integrable"].ok == closes
    res.derived("frobenius agrees", "yes" if agrees else "no")
    bad = failed(report)
    if not agrees:
        res.fail_tokens("integrability_fail", ["frobenius disagrees"])
    elif bad:
        res.fail_tokens("not_integrable", bad)
    else:
        res.token("integrable")


def op_transform(mf, task, policy, results, res) -> EngelData:
    moves = [key for key in ("lam", "mu", "nu") if key in task.args]
    if len(moves) != 1:
        raise ManifestError(f"task '{task.name}': transform needs exactly "
                            f"one of lam, mu, nu, got {len(moves)}")
    by = _scalar_arg(mf, task, moves[0])
    new, checks = transform_forms(_data(results, task), moves[0], by, policy)
    res.verdicts("transform", checks)
    res.derived("T", fmt_field(new.T))
    res.derived("R", fmt_field(new.R))
    return new


def op_rho(mf, task, policy, results, res):
    verdicts, drho, drho_zero = rho_criterion(_data(results, task), policy)
    res.verdicts("rho", verdicts)
    res.verdict("drho zero", drho_zero)
    res.derived("drho", fmt_form(drho))


def op_commutant(mf, task, policy, results, res):
    lie = _lie_algebra(mf, task)
    vecs = [_rational_vec(task, _named(task, name, mf.fields, "field"))
            for name in _need(task, "set").split()]
    basis = catalog.commutant(lie, vecs)
    res.token("commutant_dim", len(basis))
    for i, vec in enumerate(basis):
        res.derived(f"basis {i}", catalog.fmt_vec(lie.names, vec))


def op_framing(mf, task, policy, results, res):
    lie = _lie_algebra(mf, task)
    W = _rational_vec(task, _field(mf, task, "W"))
    X = _rational_vec(task, _field(mf, task, "X"))
    R_hint = _field(mf, task, "R", optional=True)
    if R_hint is not None:
        R_hint = _rational_vec(task, R_hint)
    try:
        search = catalog.kengel_framing_search(lie, W, X, R_hint=R_hint)
    except catalog.CatalogError as err:
        res.token("framing_rejected")
        res.derived("error", str(err))
        return
    res.derived("commutant dim", str(search["commutant_dim"]))
    if search["found"]:
        res.token("framing_found")
        res.derived("Y", catalog.fmt_vec(lie.names, search["Y"]))
        res.derived("R", catalog.fmt_vec(lie.names, search["R"]))
        res.derived("det", str(search["det"]))
    else:
        res.token("framing_none")
        res.derived("certificate", search["certificate"])


def op_lattice(mf, task, policy, results, res) -> KEngelData:
    lattice = _named(task, _need(task, "lattice"), mf.lattices, "lattice")
    try:
        kdata, rank = torus_family(lattice, policy)
    except KEngelError as err:
        res.token("lattice_error")
        res.derived("error", str(err))
        return
    res.token("rank", rank)
    return kdata


def op_bw(mf, task, policy, results, res) -> KEngelData:
    if mf.space.dim != 3:
        raise ManifestError(f"task '{task.name}': needs a 3-dim base space")
    lam = _form(mf, task, "lam", 1)
    L = _field(mf, task, "L")
    a_loc = _form(mf, task, "a", 1)
    verdicts, kdata = boothby_wang(mf.space, lam, L, a_loc, policy)
    res.verdicts("bw", verdicts)
    # boothby_wang raises unless the built pair passes the triple check
    res.lines.append(("verdict", "triple check", "yes"))
    return res.built(kdata)


def op_filling(mf, task, policy, results, res):
    res.verdicts("filling", filling_check(_data(results, task, triple=True),
                                          policy))


def op_t2(mf, task, policy, results, res) -> KEngelData:
    if mf.space.dim != 2 or "lie" in mf.space.kinds:
        raise ManifestError(f"task '{task.name}': needs a 2-dim chart")
    f = _scalar_arg(mf, task, "f")
    g = _scalar_arg(mf, task, "g")
    alpha0 = _form(mf, task, "alpha0", 1)
    beta0 = _form(mf, task, "beta0", 1)
    Omega = _form(mf, task, "Omega", 2)
    prim1 = _form(mf, task, "prim1", 1)
    prim2 = _form(mf, task, "prim2", 1)
    n, eps = _need(task, "n"), task.args.get("eps", "1/2")
    try:
        n1, n2 = map(int, n.split())
        eps = Fraction(eps)
    except (ValueError, ZeroDivisionError):
        raise ManifestError(f"task '{task.name}': n needs two integers and "
                            f"eps a rational, got n = {n!r}, eps = {eps!r}")
    hints = {}
    # hint components live on the total space, with its two fibre legs
    variables = list(mf.space.names) + list(T2_FIBRE)
    for key in ("W", "X"):
        if key in task.args:
            parts = [p.strip() for p in task.args[key].split(";")]
            if len(parts) != 4:
                raise ManifestError(f"task '{task.name}': {key} hint needs "
                                    f"4 components")
            try:
                hints[key] = [ex.parse(p, variables, mf.space.params)
                              for p in parts]
            except Exception as err:
                raise ManifestError(f"task '{task.name}': bad {key} hint: "
                                    f"{err}")
    verdicts, unweighted, kdata = t2_bundle_condition(
        mf.space, f, g, alpha0, beta0, Omega, prim1, prim2, n1, n2, eps,
        policy, W=hints.get("W"), X=hints.get("X"))
    for name, v in verdicts.items():
        if name == "first condition":
            res.lines.append(("verdict", name, "holds" if v.ok
                              else f"fails at {fmt_point(v.point)}"))
        else:
            res.verdict(name, v)
    res.verdict("third condition (unweighted twist)", unweighted)
    if res.outcome("t2", failed(verdicts)):
        return res.built(kdata)


OPS = {op.__name__.removeprefix("op_"): op for op in (
    op_engel, op_kengel, op_kframing, op_kinvariants, op_identities,
    op_contact, op_geodesic, op_pattern, op_dbeta2, op_integrability,
    op_transform, op_rho, op_commutant, op_framing, op_lattice, op_bw,
    op_filling, op_t2)}
# what each op can hand on, read now, since a caller may wrap an op in OPS
MAKES = {name: op.__annotations__.get("return", type(None))
         for name, op in OPS.items()}


# ---------------------------------------------------------------------------
# expectation matching

def match_expect(raw, res, policy):
    """Whether an expectation holds; `reeb` reads the handed-on pair."""
    parts = raw.split()
    if parts and parts[0] == "reeb":
        if len(parts) < 4 or parts[2] != "=" or parts[1] not in tuple("WXTR"):
            raise ManifestError(f"bad expectation {raw!r}; usage: "
                                f"reeb F = c1; c2; ...")
        if res.output is None:
            return False
        data = _pair(res.output)
        sp = data.space
        want_text = raw.split("=", 1)[1]
        try:
            comps = [sp.scalar(p.strip()) for p in want_text.split(";")]
        except ExprError as err:
            raise ManifestError(f"bad expectation {raw!r}: {err}")
        if len(comps) != sp.dim:
            raise ManifestError(f"expectation {raw!r} needs {sp.dim} "
                                f"components")
        have = getattr(data, parts[1]).comps
        diff = [ex.add(got, ex.neg(want)) for got, want in zip(have, comps)]
        return zero(diff, sp.coord_ranges, policy).ok
    return raw in res.tokens


# ---------------------------------------------------------------------------
# the run itself

class RunReport:
    def __init__(self, manifest_name, policy):
        self.manifest_name = manifest_name
        self.seed = policy.seed
        self.samples = policy.n_samples
        self.tol = policy.abs_tol
        self.results = []
        self.reference_error = None

    @property
    def mismatches(self):
        out = []
        for res in self.results:
            for raw, ok in res.expect_results:
                if not ok:
                    out.append((res.name, raw))
        return out

    @property
    def exit_code(self):
        if self.reference_error is not None:
            return 2
        return 1 if self.mismatches else 0

    def machine_text(self):
        lines = ["engelkit-report 1",
                 f"manifest {self.manifest_name}",
                 f"seed {self.seed}",
                 f"samples {self.samples}",
                 f"tol {fmt_float(self.tol)}",
                 f"tasks {len(self.results)}"]
        for res in self.results:
            lines.append(f"task {res.name} :: {res.op}")
            for token in sorted(res.tokens):
                lines.append(f"token {token}")
            for kind, name, text in res.lines:
                lines.append(f"{kind} {name} :: {text}")
            for raw, ok in res.expect_results:
                lines.append(f"expect {raw} :: "
                             f"{'ok' if ok else 'MISMATCH'}")
            lines.append(f"end {res.name}")
        lines.append(f"mismatches {len(self.mismatches)}")
        lines.append(f"exit {self.exit_code}")
        return "\n".join(lines) + "\n"

    def human_text(self):
        lines = [f"manifest {self.manifest_name} "
                 f"(seed {self.seed}, samples {self.samples}, "
                 f"tol {fmt_float(self.tol)})"]
        for res in self.results:
            lines.append(f"task {res.name} [{res.op}]  "
                         f"({res.seconds:.2f}s)")
            for kind, name, text in res.lines:
                lines.append(f"  {name}: {text}")
            for raw, ok in res.expect_results:
                mark = "ok" if ok else "MISMATCH"
                lines.append(f"  expect {raw} -> {mark}")
        n = len(self.mismatches)
        lines.append(f"{len(self.results)} task(s), {n} mismatch(es)")
        return "\n".join(lines) + "\n"


def run_manifest(mf, policy):
    report = RunReport(os.path.basename(mf.path), policy)
    for task in mf.tasks:
        res = TaskResult(task.name, task.op)
        try:
            if task.op not in OPS:
                raise ManifestError(f"task '{task.name}': unknown op "
                                    f"'{task.op}'")
            task_policy = policy
            if task.overrides:
                task_policy = SamplingPolicy(
                    seed=policy.seed,
                    n_samples=task.overrides.get("samples", policy.n_samples),
                    abs_tol=task.overrides.get("tol", policy.abs_tol))
            start = time.monotonic()
            try:
                built = OPS[task.op](mf, task, task_policy, report.results,
                                     res)
                # the one hand-on rule: its pair passed every defining check
                if built is not None and not failed(_pair(built).defining):
                    res.output = built
            except KEngelError as err:
                # a construction that cannot be built, whichever op tried
                res.fail_tokens(f"{task.op}_fail", err.names)
                res.derived("error", str(err))
            except CheckError as err:
                res.token("task_error")
                res.token("task_error", type(err).__name__)
                res.derived("error", str(err))
            res.seconds = time.monotonic() - start
            stray = task.args.unread()
            if stray:
                raise ManifestError(f"task '{task.name}': op {task.op} "
                                    f"takes no argument '{stray[0]}'")
            for raw in task.expects:
                ok = match_expect(raw, res, task_policy)
                res.expect_results.append((raw, ok))
        except ManifestError as err:
            report.reference_error = f"{mf.path}:{task.lineno}: {err}"
            break   # a reference error leaves the task out of the report
        if not task.expects and "task_error" in res.tokens:
            res.expect_results.append(("no unexpected error", False))
        report.results.append(res)
    return report
