"""Deterministic sample points and numeric zero/nonzero verdicts.

Symbolic zero is decided exactly when possible; otherwise an expression is
probed on a low-discrepancy point set and the verdict records either
"vanished at every sample" or a concrete witness point.  All sampling is a
pure function of (seed, sample count), so repeated runs agree byte for byte.
"""

from . import expr as ex

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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

    def __init__(self, seed=0, n_samples=64, abs_tol=1e-9, max_retries=16):
        self.seed = int(seed)
        self.n_samples = int(n_samples)
        self.abs_tol = float(abs_tol)
        self.max_retries = int(max_retries)
        assert self.n_samples > 0 and self.abs_tol > 0

    def points(self, coords):
        """Sample points for named coordinate ranges.

        coords: sequence of (name, lo, hi, periodic).  Periodic coordinates
        sample the half-open cell [lo, hi); the rest the closed box.
        """
        pts = []
        for i in range(self.n_samples):
            index = self.seed * self.n_samples + i
            env = {}
            for j, (name, lo, hi, periodic) in enumerate(coords):
                u = halton(index, PRIMES[j % len(PRIMES)])
                lo = float(lo)
                hi = float(hi)
                env[name] = lo + u * (hi - lo)
            pts.append(env)
        return pts

    def extra_point(self, coords, k):
        """Fallback point k past the base sequence, for retries."""
        index = (self.seed + 1) * self.n_samples + k
        env = {}
        for j, (name, lo, hi, periodic) in enumerate(coords):
            u = halton(index, PRIMES[j % len(PRIMES)])
            env[name] = float(lo) + u * (float(hi) - float(lo))
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


def is_zero_expr(e, coords, policy, env_extra=None):
    """Decide whether a scalar expression vanishes identically on the box."""
    return is_zero_many([e], coords, policy, env_extra)


def is_zero_many(exprs, coords, policy, env_extra=None):
    """Joint vanishing check; first non-vanishing component wins."""
    normed = [ex.normalize(e) for e in exprs]
    if all(e == ex.ZERO for e in normed):
        return Verdict("exact")
    base = dict(env_extra or {})
    for env in policy.points(coords):
        env = {**base, **env}
        for e in normed:
            if e == ex.ZERO:
                continue
            try:
                v = ex.evaluate(e, env)
            except ex.SingularPoint:
                continue
            if abs(v) > policy.abs_tol:
                return Verdict("nonzero", value=v, point=env)
    return Verdict("sampled")


def nonvanishing(exprs, coords, policy, env_extra=None):
    """Certify that at every sample some component exceeds tolerance.

    The verdict's value is the minimum over samples of the largest
    component magnitude, taken at its point; an empty list is the zero
    form and vanishes everywhere.  Singular sample points are retried from
    a fallback sequence.
    """
    normed = [ex.normalize(e) for e in exprs]
    base = dict(env_extra or {})
    best_min = None
    worst_pt = None
    retries = 0
    queue = list(policy.points(coords))
    k = 0
    while queue:
        env = {**base, **queue.pop(0)}
        try:
            m = max((abs(ex.evaluate(e, env)) for e in normed),
                    default=0.0)
        except ex.SingularPoint:
            retries += 1
            if retries > policy.max_retries:
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
