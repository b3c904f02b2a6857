"""Exact symbolic scalar expressions.

Expressions are immutable nested tuples.  Node shapes:

    ('rat', Fraction)         exact rational
    ('const', name)           named constant ('pi', mostly)
    ('var', name)             chart coordinate
    ('add', (t1, ..., tk))    k >= 2, terms sorted
    ('mul', (f1, ..., fk))    k >= 2, factors sorted, optional leading rational
    ('pow', base, n)          integer n >= 2 in canonical form
    ('div', num, den)         den neither rational nor a div
    ('sin', a) ('cos', a) ('exp', a) ('ln', a)
    ('neg', a)                input sugar only; normalize removes it

`normalize` produces a canonical form: fully expanded sums of monomials with
exact rational folding and like-term cancellation.  It never rewrites function
nodes (sin(0) stays sin(0)); structural identities such as sin^2+cos^2 = 1
live in the separate, opt-in `cleanup` pass that post-processes solver output.
"""

from fractions import Fraction

SINGULAR_EPS = 1e-14

FUNCS = ("sin", "cos", "exp", "ln")


class ExprError(Exception):
    pass


class SingularPoint(ExprError):
    """Evaluation hit a division (or log) singularity at the sample point."""


class EvalError(ExprError):
    pass


class ParseError(ExprError):
    pass


# ---------------------------------------------------------------------------
# constructors

def rat(q) -> tuple:
    return ("rat", Fraction(q))


ZERO = rat(0)
ONE = rat(1)
PI = ("const", "pi")


def var(name: str) -> tuple:
    return ("var", name)


def const(name: str) -> tuple:
    return ("const", name)


def add(*terms):
    return ("add", tuple(terms))


def mul(*factors):
    return ("mul", tuple(factors))


def pow_(base, n: int):
    return ("pow", base, n)


def div(num, den):
    return ("div", num, den)


def neg(e):
    return ("neg", e)


def sin(a):
    return ("sin", a)


def cos(a):
    return ("cos", a)


def exp(a):
    return ("exp", a)


def ln(a):
    return ("ln", a)


def children(e):
    if e[0] in ("add", "mul"):
        return e[1]
    if e[0] == "pow":
        return (e[1],)
    if e[0] == "div":
        return (e[1], e[2])
    if e[0] in FUNCS or e[0] == "neg":
        return (e[1],)
    return ()


def has_div(e) -> bool:
    if e[0] == "div":
        return True
    return any(has_div(c) for c in children(e))


def size(e) -> int:
    return 1 + sum(size(c) for c in children(e))


# ---------------------------------------------------------------------------
# normalization

def normalize(e):
    tag = e[0]
    if tag == "rat":
        return ("rat", Fraction(e[1]))
    if tag in ("const", "var"):
        return e
    if tag == "neg":
        return normalize(mul(rat(-1), e[1]))
    if tag in FUNCS:
        return (tag, normalize(e[1]))
    if tag == "pow":
        return _norm_pow(normalize(e[1]), e[2])
    if tag == "mul":
        return _norm_mul([normalize(f) for f in e[1]])
    if tag == "add":
        return _norm_add([normalize(t) for t in e[1]])
    if tag == "div":
        return _norm_div(normalize(e[1]), normalize(e[2]))
    raise ExprError(f"unknown node tag {tag!r}")


def _norm_pow(b, n):
    assert isinstance(n, int), "exponents must be integers"
    if n == 0:
        return ONE
    if n == 1:
        return b
    if b[0] == "rat":
        if b[1] == 0 and n < 0:
            raise EvalError("0 raised to a negative power")
        return ("rat", b[1] ** n)
    if b[0] == "pow":
        return _norm_pow(b[1], b[2] * n)
    if b[0] == "mul":
        return _norm_mul([_norm_pow(f, n) for f in b[1]])
    if b[0] == "div":
        return _norm_div(_norm_pow(b[1], n), _norm_pow(b[2], n))
    if b[0] == "add":
        if n > 0:
            return _norm_mul([b] * n)
        return _norm_div(ONE, _norm_pow(b, -n))
    if n < 0:
        return _norm_div(ONE, ("pow", b, -n))
    return ("pow", b, n)


def _norm_mul(factors):
    flat = []
    stack = list(factors)
    while stack:
        f = stack.pop()
        if f[0] == "mul":
            stack.extend(f[1])
        else:
            flat.append(f)
    # distribute over sums (full expansion)
    for i, f in enumerate(flat):
        if f[0] == "add":
            rest = flat[:i] + flat[i + 1:]
            return _norm_add([_norm_mul(rest + [t]) for t in f[1]])
    # quotients escape products: a * (b/c) -> (a*b)/c
    nums, dens = [], []
    for f in flat:
        if f[0] == "div":
            nums.append(f[1])
            dens.append(f[2])
        else:
            nums.append(f)
    if dens:
        return _norm_div(_norm_mul(nums), _norm_mul(dens))
    coeff = Fraction(1)
    powers = {}   # base -> multiplicity
    order = []
    for f in flat:
        if f[0] == "rat":
            coeff *= f[1]
            continue
        base, n = (f[1], f[2]) if f[0] == "pow" else (f, 1)
        if base not in powers:
            powers[base] = 0
            order.append(base)
        powers[base] += n
    if coeff == 0:
        return ZERO
    out = []
    for base in sorted(powers):
        n = powers[base]
        if n:
            out.append(base if n == 1 else ("pow", base, n))
    if not out:
        return ("rat", coeff)
    if coeff == 1:
        return out[0] if len(out) == 1 else ("mul", tuple(out))
    return ("mul", (("rat", coeff),) + tuple(out))


def split_coeff(term):
    """Canonical term -> (rational coefficient, coefficient-free key).

    The key is None for a pure rational.
    """
    if term[0] == "rat":
        return term[1], None
    if term[0] == "mul" and term[1][0][0] == "rat":
        rest = term[1][1:]
        return term[1][0][1], rest[0] if len(rest) == 1 else ("mul", rest)
    return Fraction(1), term


def with_coeff(q, key):
    if key is None:
        return ("rat", q)
    if q == 0:
        return ZERO
    if q == 1:
        return key
    factors = key[1] if key[0] == "mul" else (key,)
    return ("mul", (("rat", Fraction(q)),) + factors)


def _norm_add(terms):
    flat = []
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t[0] == "add":
            stack.extend(t[1])
        else:
            flat.append(t)
    acc = {}
    order = []
    for t in flat:
        q, key = split_coeff(t)
        if key not in acc:
            acc[key] = Fraction(0)
        acc[key] += q
    out = []
    for key in sorted((k for k in acc if k is not None)):
        if acc[key] != 0:
            out.append(with_coeff(acc[key], key))
    qnone = acc.get(None, Fraction(0))
    if qnone != 0:
        out.append(("rat", qnone))
    # fold quotient terms over a common denominator
    divs = {}
    others = []
    changed = False
    for t in out:
        q, key = split_coeff(t)
        if key is not None and key[0] == "div":
            num = key[1] if q == 1 else _norm_mul([("rat", Fraction(q)),
                                                   key[1]])
            divs.setdefault(key[2], []).append(num)
            if q != 1:
                changed = True
        else:
            others.append(t)
    if any(len(nums) > 1 for nums in divs.values()):
        changed = True
    if changed:
        rebuilt = list(others)
        for den in sorted(divs):
            nums = divs[den]
            rebuilt.append(_norm_div(
                nums[0] if len(nums) == 1 else _norm_add(nums), den))
        return _norm_add(rebuilt)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return ("add", tuple(out))


def _norm_div(n, d):
    if d[0] == "rat":
        if d[1] == 0:
            raise EvalError("exact division by zero")
        return _norm_mul([("rat", 1 / d[1]), n])
    if n[0] == "rat" and n[1] == 0:
        return ZERO
    if n == d:
        return ONE
    if n[0] == "div":
        return _norm_div(n[1], _norm_mul([n[2], d]))
    if d[0] == "div":
        return _norm_div(_norm_mul([n, d[2]]), d[1])
    q, key = split_coeff(d)
    if q < 0:
        return _norm_div(_norm_mul([("rat", Fraction(-1)), n]),
                         with_coeff(-q, key))
    return ("div", n, d)


# ---------------------------------------------------------------------------
# calculus

def differentiate(e, v: str):
    """Partial derivative by the coordinate name; returns a raw tree."""
    tag = e[0]
    if tag in ("rat", "const"):
        return ZERO
    if tag == "var":
        return ONE if e[1] == v else ZERO
    if tag == "neg":
        return neg(differentiate(e[1], v))
    if tag == "add":
        return add(*[differentiate(t, v) for t in e[1]])
    if tag == "mul":
        fs = e[1]
        terms = []
        for i in range(len(fs)):
            terms.append(mul(*fs[:i], differentiate(fs[i], v), *fs[i + 1:]))
        return add(*terms)
    if tag == "pow":
        return mul(rat(e[2]), pow_(e[1], e[2] - 1), differentiate(e[1], v))
    if tag == "div":
        n, d = e[1], e[2]
        return div(add(mul(differentiate(n, v), d),
                       neg(mul(n, differentiate(d, v)))),
                   pow_(d, 2))
    if tag == "sin":
        return mul(cos(e[1]), differentiate(e[1], v))
    if tag == "cos":
        return neg(mul(sin(e[1]), differentiate(e[1], v)))
    if tag == "exp":
        return mul(e, differentiate(e[1], v))
    if tag == "ln":
        return div(differentiate(e[1], v), e[1])
    raise ExprError(f"cannot differentiate {tag!r}")


def substitute(e, mapping):
    """Replace variables by expressions.  Returns a raw tree."""
    tag = e[0]
    if tag == "var":
        return mapping.get(e[1], e)
    if tag in ("rat", "const"):
        return e
    if tag in FUNCS or tag == "neg":
        return (tag, substitute(e[1], mapping))
    if tag in ("add", "mul"):
        return (tag, tuple(substitute(t, mapping) for t in e[1]))
    if tag == "pow":
        return ("pow", substitute(e[1], mapping), e[2])
    if tag == "div":
        return ("div", substitute(e[1], mapping), substitute(e[2], mapping))
    raise ExprError(f"cannot substitute into {tag!r}")


def evaluate(e, env) -> float:
    import math
    tag = e[0]
    if tag == "rat":
        return float(e[1])
    if tag == "const":
        if e[1] == "pi":
            return math.pi
        if e[1] in env:
            return float(env[e[1]])
        raise EvalError(f"unbound constant '{e[1]}'")
    if tag == "var":
        if e[1] in env:
            return float(env[e[1]])
        raise EvalError(f"unbound variable '{e[1]}'")
    if tag == "neg":
        return -evaluate(e[1], env)
    if tag == "add":
        return sum(evaluate(t, env) for t in e[1])
    if tag == "mul":
        out = 1.0
        for f in e[1]:
            out *= evaluate(f, env)
        return out
    if tag == "pow":
        b = evaluate(e[1], env)
        if e[2] < 0 and abs(b) < SINGULAR_EPS:
            raise SingularPoint("negative power of a vanishing base")
        return b ** e[2]
    if tag == "div":
        d = evaluate(e[2], env)
        if abs(d) < SINGULAR_EPS:
            raise SingularPoint("vanishing denominator")
        return evaluate(e[1], env) / d
    if tag == "sin":
        return math.sin(evaluate(e[1], env))
    if tag == "cos":
        return math.cos(evaluate(e[1], env))
    if tag == "exp":
        return math.exp(evaluate(e[1], env))
    if tag == "ln":
        a = evaluate(e[1], env)
        if a < SINGULAR_EPS:
            raise SingularPoint("log of a non-positive value")
        return math.log(a)
    raise ExprError(f"cannot evaluate {tag!r}")


# ---------------------------------------------------------------------------
# parsing

def tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if text.startswith("**", i):
            toks.append(("op", "^", i))
            i += 2
            continue
        if c in "+-*/^()":
            toks.append(("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r} at position {i}")
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text, variables, constants):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        self.variables = set(variables)
        self.constants = dict(constants or {})

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None, value=None):
        tok = self.toks[self.pos]
        if kind and tok[0] != kind or value and tok[1] != value:
            raise ParseError(
                f"expected {value or kind} at position {tok[2]} in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self):
        e = self.expr()
        if self.peek()[0] != "end":
            tok = self.peek()
            raise ParseError(
                f"trailing input at position {tok[2]} in {self.text!r}")
        return e

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            node = add(node, rhs) if op == "+" else add(node, neg(rhs))
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            rhs = self.factor()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def factor(self):
        if self.peek()[:2] == ("op", "-"):
            self.take()
            return neg(self.factor())
        if self.peek()[:2] == ("op", "+"):
            self.take()
            return self.factor()
        node = self.primary()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            node = pow_(node, self.int_exponent())
        return node

    def int_exponent(self):
        sign = 1
        if self.peek()[:2] == ("op", "-"):
            self.take()
            sign = -1
        tok = self.take("num")
        if "." in tok[1]:
            raise ParseError(f"exponent must be an integer, got {tok[1]}")
        return sign * int(tok[1])

    def primary(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return rat(Fraction(tok[1]))
        if tok[0] == "name":
            self.take()
            name = tok[1]
            if name in FUNCS:
                self.take("op", "(")
                arg = self.expr()
                self.take("op", ")")
                return (name, arg)
            if name == "pi":
                return PI
            if name in self.constants:
                return rat(self.constants[name])
            if name in self.variables:
                return var(name)
            raise ParseError(f"unknown symbol '{name}' in {self.text!r}")
        if tok[:2] == ("op", "("):
            self.take()
            e = self.expr()
            self.take("op", ")")
            return e
        raise ParseError(
            f"unexpected token at position {tok[2]} in {self.text!r}")


def parse(text, variables=(), constants=None):
    """Parse an infix expression into canonical form.

    Decimal literals become exact rationals.  Names in `constants` are
    substituted by their exact values at parse time; 'pi' stays symbolic.
    """
    return normalize(_Parser(text, variables, constants).parse())


# ---------------------------------------------------------------------------
# printing

def to_str(e) -> str:
    return _render(e, 0)


_PREC = {"add": 1, "div": 2, "mul": 2, "neg": 2, "pow": 3}


def _render(e, outer):
    tag = e[0]
    if tag == "rat":
        s = str(e[1])
        return f"({s})" if e[1] < 0 and outer >= 2 else s
    if tag in ("const", "var"):
        return e[1]
    if tag in FUNCS:
        return f"{tag}({_render(e[1], 0)})"
    prec = _PREC[tag]
    if tag == "add":
        parts = []
        for i, t in enumerate(e[1]):
            q, key = split_coeff(t)
            if q < 0:
                sep = "-" if i == 0 else " - "
                parts.append(sep + _render(with_coeff(-q, key), prec))
            else:
                sep = "" if i == 0 else " + "
                parts.append(sep + _render(t, prec))
        s = "".join(parts)
    elif tag == "mul":
        fs = e[1]
        if fs[0][0] == "rat" and fs[0][1] == -1 and len(fs) > 1:
            rest = fs[1] if len(fs) == 2 else ("mul", fs[1:])
            s = "-" + _render(rest, prec)
        else:
            pieces = []
            for i, f in enumerate(fs):
                if i == 0 and f[0] == "rat":
                    pieces.append(str(f[1]))
                else:
                    pieces.append(_render(f, prec + (1 if f[0] == "div" else 0)))
            s = "*".join(pieces)
    elif tag == "div":
        s = _render(e[1], prec) + "/" + _render(e[2], prec + 1)
    elif tag == "neg":
        s = "-" + _render(e[1], prec)
    elif tag == "pow":
        s = _render(e[1], prec + 1) + "^" + str(e[2])
    else:
        raise ExprError(f"cannot render {tag!r}")
    return f"({s})" if prec < outer or (tag == "mul" and s.startswith("-")
                                        and outer >= 2) else s


# ---------------------------------------------------------------------------
# cleanup: opt-in structural simplification for solver output

def cleanup(e):
    """Fold sin^2+cos^2 pairs and cancel exact polynomial quotients.

    Only rewrites that provably preserve the value are applied; anything
    else is returned unchanged (in canonical form).
    """
    e = normalize(e)
    return _cleanup(e)


def _cleanup(e):
    tag = e[0]
    if tag in ("rat", "const", "var"):
        return e
    if tag in FUNCS:
        return (tag, _cleanup(e[1]))
    if tag == "pow":
        return normalize(("pow", _cleanup(e[1]), e[2]))
    if tag == "mul":
        return normalize(("mul", tuple(_cleanup(f) for f in e[1])))
    if tag == "add":
        folded = _pythagoras(normalize(("add", tuple(_cleanup(t)
                                                     for t in e[1]))))
        return folded
    if tag == "div":
        n = _cleanup(e[1])
        d = _cleanup(e[2])
        n = _pythagoras(n)
        d = _pythagoras(d)
        q = _poly_quotient(n, d)
        if q is not None:
            return _pythagoras(q)
        return normalize(("div", n, d))
    raise ExprError(f"cannot clean {tag!r}")


def _factor_map(key):
    """Coefficient-free monomial key -> {base: multiplicity}, or None."""
    if key is None:
        return {}
    factors = key[1] if key[0] == "mul" else (key,)
    out = {}
    for f in factors:
        if f[0] == "div":
            return None
        base, n = (f[1], f[2]) if f[0] == "pow" else (f, 1)
        out[base] = out.get(base, 0) + n
    return out


def _from_factor_map(q, fmap):
    factors = []
    for base in sorted(fmap):
        n = fmap[base]
        if n:
            factors.append(base if n == 1 else ("pow", base, n))
    return with_coeff(q, ("mul", tuple(factors)) if len(factors) > 1
                      else (factors[0] if factors else None))


def _pythagoras(e):
    """Iterated fold of q*sin(u)^2*M + q*cos(u)^2*M into q*M."""
    if e[0] != "add":
        return e
    terms = [split_coeff(t) for t in e[1]]
    entries = []
    for q, key in terms:
        entries.append((q, key, _factor_map(key)))
    changed = True
    while changed:
        changed = False
        for i in range(len(entries)):
            q1, _, m1 = entries[i]
            if m1 is None:
                continue
            sin_bases = [b for b, n in m1.items() if b[0] == "sin" and n >= 2]
            for sb in sin_bases:
                want = dict(m1)
                want[sb] -= 2
                cb = ("cos", sb[1])
                want[cb] = want.get(cb, 0) + 2
                want = {b: n for b, n in want.items() if n}
                for j in range(len(entries)):
                    if j == i:
                        continue
                    q2, k2, m2 = entries[j]
                    if m2 == want and (q1 > 0) == (q2 > 0):
                        # fold the shared part; unequal coefficients leave
                        # a residual term behind
                        f = q1 if abs(q1) <= abs(q2) else q2
                        merged = {b: n for b, n in m1.items() if b != sb or n > 2}
                        if sb in m1 and m1[sb] > 2:
                            merged[sb] = m1[sb] - 2
                        else:
                            merged.pop(sb, None)
                        new = _from_factor_map(f, merged)
                        nq, nk = split_coeff(normalize(new))
                        keep = [entries[k] for k in range(len(entries))
                                if k not in (i, j)]
                        if q1 != f:
                            keep.append((q1 - f, entries[i][1], m1))
                        if q2 != f:
                            keep.append((q2 - f, k2, m2))
                        keep.append((nq, nk, _factor_map(nk)))
                        entries = keep
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
    out = _norm_add([with_coeff(q, k) for q, k, _ in entries])
    # greedy pairing can dead-end on high powers; the cosine-elimination
    # normal form is canonical, so prefer it whenever it is smaller
    cand = _sin_reduce(out)
    if cand != out and size(cand) < size(out):
        return cand
    return out


def _sin_reduce(e):
    """Rewrite cos(u)^(2k+r) as (1 - sin(u)^2)^k cos(u)^r and renormalize."""
    if e[0] != "add":
        terms = (e,)
    else:
        terms = e[1]
    new_terms = []
    hit = False
    for t in terms:
        q, key = split_coeff(t)
        fmap = _factor_map(key)
        if fmap is None:
            new_terms.append(t)
            continue
        factors = [("rat", q)]
        for base in sorted(fmap):
            n = fmap[base]
            if base[0] == "cos" and n >= 2:
                hit = True
                k, r = divmod(n, 2)
                flip = ("add", (("rat", Fraction(1)),
                                ("neg", ("pow", ("sin", base[1]), 2))))
                factors.append(flip if k == 1 else ("pow", flip, k))
                if r:
                    factors.append(base)
            else:
                factors.append(base if n == 1 else ("pow", base, n))
        new_terms.append(("mul", tuple(factors)))
    if not hit:
        return e
    return normalize(("add", tuple(new_terms)))


def _to_poly(e):
    """Canonical expr -> {monomial: coeff} over non-rational atomic bases.

    Returns None if the expression contains quotients (not a polynomial).
    Monomials are sorted tuples of (base, multiplicity).
    """
    terms = e[1] if e[0] == "add" else (e,)
    poly = {}
    for t in terms:
        q, key = split_coeff(t)
        fmap = _factor_map(key)
        if fmap is None:
            return None
        mono = tuple(sorted(fmap.items()))
        poly[mono] = poly.get(mono, Fraction(0)) + q
    return {m: c for m, c in poly.items() if c}


def _poly_quotient(n, d):
    """Exact polynomial quotient n/d, or None if it does not divide.

    Monomials are exponent vectors over the union of atomic bases, compared
    in graded lexicographic order (a genuine monomial order, so the division
    loop succeeds exactly when d divides n).
    """
    pn = _to_poly(n)
    pd = _to_poly(d)
    if pn is None or pd is None or not pd:
        return None
    if not pn:
        return ZERO
    atoms = sorted({b for p in (pn, pd) for m in p for b, _ in m})
    idx = {b: i for i, b in enumerate(atoms)}

    def vec(m):
        v = [0] * len(atoms)
        for b, k in m:
            v[idx[b]] = k
        return tuple(v)

    def key(v):
        return (sum(v), v)

    pn = {vec(m): c for m, c in pn.items()}
    pd = {vec(m): c for m, c in pd.items()}
    lead = max(pd, key=key)
    lc = pd[lead]
    quot = {}
    rem = dict(pn)
    steps = 0
    while rem:
        steps += 1
        if steps > 512:
            return None
        mlead = max(rem, key=key)
        if any(a < b for a, b in zip(mlead, lead)):
            return None
        qm = tuple(a - b for a, b in zip(mlead, lead))
        qc = rem[mlead] / lc
        quot[qm] = quot.get(qm, Fraction(0)) + qc
        for m, c in pd.items():
            mm = tuple(a + b for a, b in zip(m, qm))
            rem[mm] = rem.get(mm, Fraction(0)) - c * qc
            if not rem[mm]:
                del rem[mm]
    terms = []
    for v, c in quot.items():
        fmap = {atoms[i]: k for i, k in enumerate(v) if k}
        terms.append(_from_factor_map(c, fmap))
    return _norm_add(terms)
