"""Deterministic sample points and numeric zero/nonzero verdicts.

Symbolic zero is decided exactly when possible; otherwise an expression is
probed on a low-discrepancy point set and the verdict records either
"vanished at every sample" or a concrete witness point.  All sampling is a
pure function of (seed, sample count), so repeated runs agree byte for byte.
"""

from types import MappingProxyType

from . import expr as ex

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_RETRIES = 16   # singular samples `nonvanishing` replaces before failing


def halton(index: int, base: int) -> float:
    """Van der Corput radical inverse of `index` in `base` (index 0 -> 0)."""
    f = 1.0
    out = 0.0
    i = index
    while i > 0:
        f /= base
        out += f * (i % base)
        i //= base
    return out


class SamplingPolicy:
    """How numeric checks probe expressions.

    seed offsets the Halton sequence (index = seed*n_samples + i), so two
    runs with the same seed visit identical points.  Sample 0 of seed 0 is
    the corner of the box: degenerate loci at coordinate zero are probed
    on purpose.
    """

    def __init__(self, seed=0, n_samples=64, abs_tol=1e-9):
        self.seed = int(seed)
        self.n_samples = int(n_samples)
        self.abs_tol = float(abs_tol)
        if self.seed < 0 or not (self.n_samples > 0 and self.abs_tol > 0):
            raise ValueError("need seed >= 0, n_samples > 0 and abs_tol > 0")
        self._points = {}    # coordinate tuple -> its sample points
        self._columns = {}   # prime -> its Halton column

    def points(self, coords):
        """Sample points for named coordinate ranges.

        coords: sequence of (name, lo, hi).  Every coordinate samples the
        half-open range [lo, hi), as the Halton radical inverse never
        reaches 1; a manifest's `periodic` keyword changes nothing here.
        Coordinate j of sample i is lo + halton(seed*n + i, PRIMES[j]) *
        (hi - lo); each column of Halton values is computed once per
        policy.  The points are built once per coordinate tuple and
        returned as the same tuple of read-only mappings on every later
        call.
        """
        coords = tuple(coords)
        pts = self._points.get(coords)
        if pts is None:
            cols = [self._scaled(j, float(lo), float(hi))
                    for j, (_, lo, hi) in enumerate(coords)]
            names = [c[0] for c in coords]
            rows = zip(*cols) if cols else [()] * self.n_samples
            pts = self._points[coords] = tuple(
                MappingProxyType(dict(zip(names, row))) for row in rows)
        return pts

    def _scaled(self, j, lo, hi):
        """Coordinate j of every sample, for the float range [lo, hi)."""
        base = PRIMES[j % len(PRIMES)]
        col = self._columns.get(base)
        if col is None:
            start = self.seed * self.n_samples
            col = self._columns[base] = [halton(start + i, base)
                                         for i in range(self.n_samples)]
        return [lo + u * (hi - lo) for u in col]

    def extra_point(self, coords, k):
        """Fallback point k past the base sequence, for retries."""
        return self._point(coords, (self.seed + 1) * self.n_samples + k)

    @staticmethod
    def _point(coords, index):
        env = {}
        for j, (name, lo, hi) in enumerate(coords):
            u = halton(index, PRIMES[j % len(PRIMES)])
            lo, hi = float(lo), float(hi)
            env[name] = lo + u * (hi - lo)
        return env


class Verdict:
    """Outcome of a vanishing or a nonvanishing check.

    kind is 'exact' (zero by normalization), 'sampled' (below tolerance at
    every sample point) or 'nonzero' (a witness point and value) for a
    zero check; 'nonvanishing' or 'vanishing' for a nonvanishing check,
    with the smallest sampled magnitude as value and where it was taken.
    """

    PASSING = ("exact", "sampled", "nonvanishing")

    def __init__(self, kind, value=None, point=None):
        assert kind in self.PASSING + ("nonzero", "vanishing")
        self.kind = kind
        self.value = value
        self.point = point

    @property
    def ok(self):
        return self.kind in self.PASSING

    def __repr__(self):
        return f"Verdict({self.describe()})"

    def describe(self):
        if self.kind in ("exact", "sampled"):
            return f"zero={self.kind}"
        if self.kind == "nonzero":
            return (f"zero=no value={fmt_float(self.value)} "
                    f"at {fmt_point(self.point)}")
        word = "yes" if self.ok else "NO"
        return (f"nonvanishing={word} min={fmt_float(self.value)} "
                f"at {fmt_point(self.point)}")


def failed(verdicts):
    """Names of the failing checks in a {name: Verdict} dict."""
    return [name for name, v in verdicts.items() if not v.ok]


def weakest(verdicts):
    """One verdict standing for several zero checks.

    The first failure if any fails; otherwise 'sampled' when any passed only
    by sampling, else 'exact'.
    """
    verdicts = list(verdicts)
    bad = [v for v in verdicts if not v.ok]
    if bad:
        return bad[0]
    if any(v.kind == "sampled" for v in verdicts):
        return Verdict("sampled")
    return Verdict("exact")


def fmt_float(v):
    return f"{float(v):.12g}"


def fmt_point(pt):
    if not pt:
        return "-"
    return ",".join(f"{k}={fmt_float(v)}" for k, v in sorted(pt.items()))


def is_zero_expr(e, coords, policy):
    """Decide whether a scalar expression vanishes identically on the box."""
    return is_zero_many([e], coords, policy)


def is_zero_many(exprs, coords, policy):
    """Joint vanishing check; first non-vanishing component wins.

    A sample where a component is singular is skipped for that component,
    but every component must be evaluated somewhere: one that no sample
    could evaluate fails with value nan at the first sample.
    """
    live = [e for e in map(ex.normalize, exprs) if not ex.is_zero(e)]
    if not live:
        return Verdict("exact")
    pts = policy.points(coords)
    unseen = set(range(len(live)))
    for env in pts:
        for i, e in enumerate(live):
            try:
                v = ex.evaluate(e, env)
            except ex.SingularPoint:
                continue
            unseen.discard(i)
            if abs(v) > policy.abs_tol:
                return Verdict("nonzero", value=v, point=env)
    if unseen:
        return Verdict("nonzero", value=float("nan"), point=pts[0])
    return Verdict("sampled")


def nonvanishing(exprs, coords, policy):
    """Certify that at every sample some component exceeds tolerance.

    The verdict's value is the minimum over samples of the largest
    component magnitude, taken at its point; an empty list is the zero
    form and vanishes everywhere.  Singular sample points are retried from
    a fallback sequence.
    """
    normed = [ex.normalize(e) for e in exprs]
    if all(e[0] == "rat" for e in normed):
        # the same magnitude at every sample: the loop would keep the first
        m = max((abs(float(e[1])) for e in normed), default=0.0)
        return Verdict("nonvanishing" if m > policy.abs_tol else "vanishing",
                       value=m, point=policy.points(coords)[0])
    best_min = None
    worst_pt = None
    retries = 0
    queue = list(policy.points(coords))
    k = 0
    while queue:
        env = queue.pop(0)
        try:
            m = max((abs(ex.evaluate(e, env)) for e in normed),
                    default=0.0)
        except ex.SingularPoint:
            retries += 1
            if retries > MAX_RETRIES:
                return Verdict("vanishing", value=0.0, point=env)
            queue.append(policy.extra_point(coords, k))
            k += 1
            continue
        if best_min is None or m < best_min:
            best_min = m
            worst_pt = env
    ok = best_min is not None and best_min > policy.abs_tol
    return Verdict("nonvanishing" if ok else "vanishing",
                   value=best_min or 0.0, point=worst_pt)
