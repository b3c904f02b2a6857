"""Exact symbolic scalar expressions.

Expressions are immutable nested tuples.  Node shapes:

    ('rat', int | Fraction)   exact rational: an int when integral
    ('const', name)           named constant ('pi', mostly)
    ('var', name)             chart coordinate
    ('add', (t1, ..., tk))    k >= 2, terms sorted
    ('mul', (f1, ..., fk))    k >= 2, factors sorted, optional leading rational
    ('pow', base, n)          integer n >= 2 in canonical form
    ('div', num, den)         den neither rational nor a div
    ('sin', a) ('cos', a) ('exp', a) ('ln', a)

Most coefficients of a frame calculation are small integers, and int
arithmetic is many times cheaper than Fraction arithmetic, so a canonical
`rat` holds an int whenever its value is integral and a Fraction otherwise.
Since `2 == Fraction(2)` and their hashes agree, the choice never changes
which node a value interns to.  Every division of two coefficients is a
Fraction division, so no float enters a node.

`normalize` produces a canonical form: fully expanded sums of monomials with
exact rational folding and like-term cancellation.  It never rewrites function
nodes (sin(0) stays sin(0)); sin^2+cos^2 = 1 and exact polynomial quotients
live in the separate, opt-in `cleanup` pass, applied before any verdict.

Canonical nodes are hash-consed (Filliatre & Conchon, "Type-Safe Modular
Hash-Consing", 2006): `normalize` returns the one interned node of each
canonical value, and `normalize` of an interned node is that node itself.
The invariant: an interned node is canonical, and no node is ever mutated.
`cleanup`, `derivative` (the normalized partial derivative by each
coordinate), and the Python function that evaluates an expression over a
whole column set of points, which `evaluate` calls for one point, are
remembered per interned node.  The tables live for the process
and are dropped together once one holds more than TABLE_LIMIT entries.
"""

import ast
import math
import re
from fractions import Fraction

SINGULAR_EPS = 1e-14

FUNCS = ("sin", "cos", "exp", "ln")


class CheckError(Exception):
    """An input a check cannot handle: its manifest task gives `task_error`."""


class ExprError(CheckError):
    pass


class SingularPoint(ExprError):
    """Evaluation hit a division (or log) singularity at the sample point."""


class EvalError(ExprError):
    pass


class ParseError(ExprError):
    pass


# ---------------------------------------------------------------------------
# constructors

def _q(x):
    """An exact rational as its canonical coefficient: the int of an
    integral value, else the Fraction."""
    return x.numerator if x.denominator == 1 else x


def rat(q) -> tuple:
    if type(q) is not int:
        q = _q(q if type(q) is Fraction else Fraction(q))
    return ("rat", q)


ZERO = rat(0)
ONE = rat(1)
PI = ("const", "pi")


def var(name: str) -> tuple:
    return ("var", name)


def add(*terms):
    return ("add", tuple(terms))


def mul(*factors):
    return ("mul", tuple(factors))


def pow_(base, n: int):
    return ("pow", base, n)


def div(num, den):
    return ("div", num, den)


def neg(e):
    return ("mul", (_MINUS_ONE, e))


def sin(a):
    return ("sin", a)


def cos(a):
    return ("cos", a)


def children(e):
    if e[0] in ("add", "mul"):
        return e[1]
    if e[0] == "pow" or e[0] in FUNCS:
        return (e[1],)
    if e[0] == "div":
        return (e[1], e[2])
    return ()


def is_zero(e) -> bool:
    """Is the canonical e the rational zero?"""
    return e[0] == "rat" and not e[1]


def is_constant(e) -> bool:
    """Is the canonical e a polynomial in pi with rational coefficients,
    the same value at every point?"""
    if e[0] in ("add", "mul", "pow"):
        return all(map(is_constant, children(e)))
    return e[0] == "rat" or e == PI


def has_div(e) -> bool:
    if e[0] == "div":
        return True
    return any(has_div(c) for c in children(e))


def size(e) -> int:
    return 1 + sum(size(c) for c in children(e))


# ---------------------------------------------------------------------------
# normalization

# Interning: every canonical node that `normalize` returns is held in
# _CANON under its identity, so a later `normalize` of it is one lookup.  A
# raw node is looked up by a shallow key: its tag, its exponent or rational,
# and the identities of its normalized children, so no lookup hashes a deep
# tree.  The tables hold every node whose identity a key names, so no
# identity is reused while it is a key.  Errors are never stored.

# Entries one table may hold before all are dropped together; _CLEAN and
# _EVAL are keyed by identities that _CANON holds, so they are no larger,
# and _DIFF holds at most one entry per such identity and coordinate.
# An entry takes 0.2-0.5 kB; a corpus manifest makes at most ~720 keys, and
# 100 catalog rows about 2,000.
TABLE_LIMIT = 20_000

_CANON = {}    # id(node) -> node, for every interned canonical node
_VALUES = {}   # canonical node -> the one interned node of that value
_NODES = {}    # shallow key of a raw node -> interned normal form
_CLEAN = {}    # id(interned node) -> its cleanup
_EVAL = {}     # id(interned node) -> its compiled float function
_DIFF = {}     # (id(interned node), coordinate) -> its interned derivative


def clear_tables():
    """Forget every interned node; later calls rebuild what they need."""
    for table in (_CANON, _VALUES, _NODES, _CLEAN, _EVAL, _DIFF):
        table.clear()


def _intern(node, held):
    """The interned node equal to canonical `node`.

    `held` are nodes whose identities the caller is about to use in a key;
    they are (re)entered so that those identities stay taken.
    """
    if len(_NODES) > TABLE_LIMIT or len(_CANON) > TABLE_LIMIT:
        clear_tables()
    node = _VALUES.setdefault(node, node)
    _CANON[id(node)] = node
    for h in held:
        _CANON[id(h)] = h
    return node


def normalize(e):
    """The interned canonical form of e; raises EvalError on an exact
    division by zero."""
    if id(e) in _CANON:
        return e
    tag = e[0]
    if tag == "rat":
        kids = ()
        q = e[1]
        if type(q) is not int and type(q) is not Fraction:
            q = Fraction(q)
        key = (tag, q.numerator, q.denominator)
    elif tag == "add" or tag == "mul":
        kids = tuple([normalize(t) for t in e[1]])
        key = (tag, *map(id, kids))
    elif tag == "pow":
        assert isinstance(e[2], int), "exponents must be integers"
        kids = (normalize(e[1]),)
        key = (tag, id(kids[0]), e[2])
    elif tag == "div":
        kids = (normalize(e[1]), normalize(e[2]))
        key = (tag, id(kids[0]), id(kids[1]))
    elif tag in FUNCS:
        kids = (normalize(e[1]),)
        key = (tag, id(kids[0]))
    elif tag == "const" or tag == "var":
        kids = ()
        key = e
    else:
        raise ExprError(f"unknown node tag {tag!r}")
    out = _NODES.get(key)
    if out is not None:
        return out
    if tag == "add":
        out = _norm_add(kids)
    elif tag == "mul":
        out = _norm_mul(kids)
    elif tag == "pow":
        out = _norm_pow(kids[0], e[2])
    elif tag == "div":
        out = _norm_div(*kids)
    elif tag == "rat":
        out = ("rat", _q(q))
    elif kids:
        out = (tag, kids[0])
    else:
        out = e
    out = _intern(out, kids)
    _NODES[key] = out
    return out


# the constants every module builds with are interned from the start
ZERO, ONE, PI = normalize(ZERO), normalize(ONE), normalize(PI)
_MINUS_ONE = normalize(rat(-1))


def _norm_pow(b, n):
    if n == 0:
        return ONE
    if n == 1:
        return b
    if b[0] == "rat":
        if b[1] == 0 and n < 0:
            raise EvalError("0 raised to a negative power")
        return ("rat", _q(Fraction(b[1]) ** n) if n < 0 else b[1] ** n)
    if b[0] == "pow":
        return _norm_pow(b[1], b[2] * n)
    if b[0] == "mul":
        return _norm_mul([_norm_pow(f, n) for f in b[1]])
    if b[0] == "div":
        return _norm_div(_norm_pow(b[1], n), _norm_pow(b[2], n))
    if b[0] == "add" and n > 0:
        return _norm_mul([b] * n)
    if n < 0:
        return _norm_div(ONE, _norm_pow(b, -n))
    return ("pow", b, n)


# The terms of a sum and the factors of a product.  Of a canonical node no
# term is a sum and no factor a product, so one level flattens fully.
def _terms(e):
    return e[1] if e[0] == "add" else (e,)


def _factors(e):
    return e[1] if e[0] == "mul" else (e,)


def _norm_mul(factors):
    flat = [f for e in factors for f in _factors(e)]
    # expand one sum at a time, collecting like terms after each
    sums = [f for f in flat if f[0] == "add"]
    if sums:
        out = _norm_mul([f for f in flat if f[0] != "add"])
        for s in sums:
            out = _norm_add([_norm_mul([t, u])
                             for t in _terms(out) for u in s[1]])
        return out
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
    coeff = 1
    powers = {}   # base -> multiplicity
    for f in flat:
        if f[0] == "rat":
            coeff *= f[1]
            continue
        base, n = (f[1], f[2]) if f[0] == "pow" else (f, 1)
        powers[base] = powers.get(base, 0) + n
    if coeff == 0:
        return ZERO
    return _monomial(coeff, sorted(powers.items()))


def split_coeff(term):
    """Canonical term -> (rational coefficient, coefficient-free key).

    The key is None for a pure rational.
    """
    if term[0] == "rat":
        return term[1], None
    if term[0] == "mul" and term[1][0][0] == "rat":
        rest = term[1][1:]
        return term[1][0][1], rest[0] if len(rest) == 1 else ("mul", rest)
    return 1, term


def with_coeff(q, key):
    if key is None:
        return ("rat", _q(q))
    if q == 0:
        return ZERO
    if q == 1:
        return key
    return ("mul", (("rat", _q(q)),) + _factors(key))


def _norm_add(terms):
    flat = [t for e in terms for t in _terms(e)]
    acc = {}
    for t in flat:
        q, key = split_coeff(t)
        if key not in acc:
            acc[key] = 0
        acc[key] += q
    out = []
    for key in sorted((k for k in acc if k is not None)):
        if acc[key] != 0:
            out.append(with_coeff(acc[key], key))
    qnone = acc.get(None, 0)
    if qnone != 0:
        out.append(("rat", _q(qnone)))
    # fold quotient terms over a common denominator
    divs = {}
    others = []
    changed = False
    for t in out:
        q, key = split_coeff(t)
        if key is not None and key[0] == "div":
            num = key[1] if q == 1 else _norm_mul([("rat", q), key[1]])
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
        return _norm_mul([("rat", Fraction(1, d[1])), n])
    if n[0] == "rat" and n[1] == 0:
        return ZERO
    # n = q d cancels to q; then the first terms of n and d share a key
    (qn, kn), (qd, kd) = (split_coeff(_terms(e)[0]) for e in (n, d))
    if kn == kd:
        q = rat(Fraction(qn) / qd)
        if _norm_mul([q, d]) == n:
            return q
    if n[0] == "div":
        return _norm_div(n[1], _norm_mul([n[2], d]))
    if d[0] == "div":
        return _norm_div(_norm_mul([n, d[2]]), d[1])
    q, key = split_coeff(d)
    if q < 0:
        return _norm_div(_norm_mul([_MINUS_ONE, n]),
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


def derivative(e, v: str):
    """The interned normal form of the partial derivative of e by v."""
    out = _DIFF.get((id(e), v))   # a raw e is never a key: it is not held
    if out is None:
        e = normalize(e)
        out = normalize(differentiate(e, v))
        _CANON[id(e)] = e   # held again: normalize may have dropped the tables
        _DIFF[(id(e), v)] = out
    return out


def _rebuild(e, f):
    """e with f applied to each child; a raw tree."""
    tag = e[0]
    if tag in ("rat", "const", "var"):
        return e
    if tag in ("add", "mul"):
        return (tag, tuple(map(f, e[1])))
    if tag == "pow":
        return ("pow", f(e[1]), e[2])
    if tag == "div":
        return ("div", f(e[1]), f(e[2]))
    if tag in FUNCS:
        return (tag, f(e[1]))
    raise ExprError(f"unknown node tag {tag!r}")


def substitute(e, mapping):
    """Replace variables by expressions.  Returns a raw tree."""
    if e[0] == "var":
        return mapping.get(e[1], e)
    return _rebuild(e, lambda c: substitute(c, mapping))


# Evaluation compiles an expression into one Python function over a column
# set (name -> the name's value at each point): a loop over the points whose
# body is one straight-line statement per distinct node, in the order of a
# recursive walk that evaluates a denominator before its numerator.  So the
# float operations, their order and the first error raised at a point are
# those of the walk, and a shared subexpression is computed once per point
# (evaluation is pure).  The loop raises at a failing point, and
# `evaluate_columns` records the error for that point and resumes at the
# next: a loop without exception handling compiles in about half the time,
# and compiling is a large share of a 64-sample check.  A sum is `sum` of a
# flat tuple and a product a chain from 1.0 cut into short statements, so
# the code nests no deeper as terms are added.  Names enter the source only
# as repr() literals, and rationals only through the function's globals.

_CHUNK = 32   # factors per product statement


class _Unbound:
    """The column of a name that a column set lacks: reading it raises."""

    def __init__(self, kind, name):
        self.text = f"unbound {kind} '{name}'"

    def __getitem__(self, i):
        raise EvalError(self.text)


def _failure(err):
    """The ExprError that `evaluate` raises for an error of compiled code."""
    if isinstance(err, ExprError):
        return err.with_traceback(None)
    if isinstance(err, OverflowError):
        return SingularPoint("value overflows a float")
    return SingularPoint("value outside a function's domain")


_GLOBALS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
            "log": math.log, "pi": math.pi, "EPS": SINGULAR_EPS,
            "SingularPoint": SingularPoint, "ExprError": ExprError}


def evaluate(e, env) -> float:
    """The float value of e at the point env (name -> number).

    Raises SingularPoint at a vanishing denominator, a negative power of a
    vanishing base, the log of a non-positive value, a value outside a
    function's domain (sin of inf) or a result that overflows a float or
    is not finite, and EvalError for an unbound name.
    """
    values, errors = evaluate_columns(
        e, {name: (float(v),) for name, v in env.items()}, 0, 1)
    if errors:
        raise errors[0]
    return values[0]


def evaluate_columns(e, columns, start, stop):
    """The values of e at points start..stop-1 of a column set.

    columns maps a name to a sequence of its float at each point; a name
    that columns lacks is unbound at every point.  Returns
    (values, errors): values[i - start] is the value at point i, 0.0 where
    evaluation fails, and errors[i] is the ExprError that `evaluate` raises
    at point i, for each point where it fails.
    """
    f = _EVAL.get(id(e))
    if f is None:
        f = _compile(e)
        if id(e) in _CANON:
            _EVAL[id(e)] = f
    values, errors = [], {}
    put = values.append
    i = start
    while i < stop:   # a failure ends its point; the next call resumes
        try:
            f(columns, i, stop, put)
        except (ExprError, OverflowError, ValueError) as err:
            errors[start + len(values)] = _failure(err)
            put(0.0)
        i = start + len(values)
    if not all(map(math.isfinite, values)):
        for p, value in enumerate(values):
            if not math.isfinite(value):
                values[p] = 0.0
                errors[start + p] = SingularPoint("value overflows a float")
    return values, errors


_LOOP = """\
def f(columns, start, stop, put):
{head}    for i in range(start, stop):
{body}        put({out})
"""


def _compile(e):
    """The column function of e: f(columns, start, stop, put) puts the value
    of e at each point start..stop-1 and raises at a point where the walk
    would, with the error of compiled code."""
    space = dict(_GLOBALS)
    head = []    # once per call: each name's column
    lines = []   # once per point
    named = {}   # a leaf, or the identity of an inner node -> its name
    todo = [(e, "walk")]
    while todo:
        node, step = todo.pop()
        tag = node[0]
        leaf = tag in ("rat", "const", "var")
        key = _key(node)
        if step == "walk" and key in named:
            continue
        v = f"v{len(named)}"
        if step == "walk" and not leaf:
            todo.append((node, "emit"))
            if tag == "div":
                todo += [(node[1], "walk"), (node, "check"),
                         (node[2], "walk")]
            else:
                todo += [(k, "walk") for k in reversed(children(node))]
            continue
        if step == "check":
            lines.append(f"if abs({named[_key(node[2])]}) < EPS: "
                         "raise SingularPoint('vanishing denominator')")
            continue
        args = [named[_key(k)] for k in children(node)]
        if tag == "rat":
            c = f"c{len(named)}"
            try:
                space[c] = float(node[1])
                v = c
            except OverflowError:   # raise it where the walk would
                space[c] = node[1]
                lines.append(f"{v} = float({c})")
        elif tag == "const" and node[1] == "pi":
            v = "pi"
        elif leaf:
            kind = "constant" if tag == "const" else "variable"
            name = repr(node[1])
            col = f"k{len(named)}"
            space[f"u{len(named)}"] = _Unbound(kind, node[1])
            head.append(f"{col} = columns.get({name}, u{len(named)})")
            lines.append(f"{v} = {col}[i]")
        elif tag == "add":
            lines.append(f"{v} = sum(({''.join(a + ', ' for a in args)}))")
        elif tag == "mul":
            acc = "1.0"
            for i in range(0, max(len(args), 1), _CHUNK):
                lines.append(f"{v} = {' * '.join([acc] + args[i:i + _CHUNK])}")
                acc = v
        elif tag == "pow":
            if node[2] < 0:
                lines.append(f"if abs({args[0]}) < EPS: raise SingularPoint("
                             "'negative power of a vanishing base')")
            space[f"n{len(named)}"] = node[2]
            lines.append(f"{v} = {args[0]} ** n{len(named)}")
        elif tag == "div":
            lines.append(f"{v} = {args[0]} / {args[1]}")
        elif tag == "ln":
            lines.append(f"if {args[0]} < EPS: "
                         "raise SingularPoint('log of a non-positive value')")
            lines.append(f"{v} = log({args[0]})")
        elif tag in FUNCS:
            lines.append(f"{v} = {tag}({args[0]})")
        else:
            lines.append(f"raise ExprError({f'cannot evaluate {tag!r}'!r})")
        named[key] = v
    source = _LOOP.format(
        head="".join(f"    {line}\n" for line in head),
        body="".join(f"        {line}\n" for line in lines),
        out=named[_key(e)])
    exec(source, space)
    return space["f"]


def _key(node):
    return node if node[0] in ("rat", "const", "var") else id(node)


# ---------------------------------------------------------------------------
# parsing

_NUMBER = re.compile(r"[0-9]+\.?[0-9]*|\.[0-9]+")

# Deepest accepted nesting: the longest chain of expression nodes from the
# whole expression to a leaf, so `x` is 1 deep, `-x` and `x + y` are 2 and
# `x + y + z`, read as `(x + y) + z`, is 3.
MAX_DEPTH = 100

_OPS = {ast.Add: add, ast.Sub: lambda a, b: add(a, neg(b)), ast.Mult: mul,
        ast.Div: div, ast.UAdd: lambda a: a, ast.USub: neg}


def parse(text, variables=(), constants=None):
    """Parse an infix expression into canonical form.

    The text is read as a Python expression with `^` for `**`.  Accepted:
    `+ - * /`, unary signs, powers to an integer literal, decimal literals,
    names, and sin/cos/exp/ln of one argument.  Decimal literals become
    exact rationals.  Names in `constants` are substituted by their exact
    values at parse time; 'pi' stays symbolic.  An expression nested deeper
    than MAX_DEPTH is a ParseError.
    """
    source = text.strip().replace("^", "**")
    constants = constants or {}

    def reject(node, what):
        segment = ast.get_source_segment(source, node)
        raise ParseError(f"{what} {segment!r} in {text!r}")

    def number(node):
        digits = ast.get_source_segment(source, node)
        if not _NUMBER.fullmatch(digits):
            reject(node, "not a decimal number:")
        return Fraction(digits)

    def convert(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            n, sign = node.right, 1
            if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub):
                n, sign = n.operand, -1
            if not (isinstance(n, ast.Constant) and type(n.value) is int):
                reject(n, "exponent must be an integer, got")
            return pow_(convert(node.left), sign * int(number(n)))
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            return _OPS[type(node.op)](convert(node.left),
                                       convert(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _OPS:
            return _OPS[type(node.op)](convert(node.operand))
        if isinstance(node, ast.Constant):
            return rat(number(node))
        if isinstance(node, ast.Name):
            if node.id == "pi":
                return PI
            if node.id in constants:
                return rat(constants[node.id])
            if node.id in variables:
                return var(node.id)
            raise ParseError(f"unknown symbol '{node.id}' in {text!r}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in FUNCS and len(node.args) == 1 \
                and not node.keywords:
            return (node.func.id, convert(node.args[0]))
        reject(node, "unsupported syntax")

    try:
        tree = ast.parse(source, mode="eval").body
        if _depth(tree) <= MAX_DEPTH:
            return normalize(convert(tree))
    except (SyntaxError, ValueError) as err:
        raise ParseError(f"{err.args[0]} in {text!r}") from None
    except (RecursionError, MemoryError):
        pass  # a safety net: the depth bound should stop this first
    raise ParseError(f"expression nested too deeply: {text!r}")


def _depth(tree):
    """Nesting depth of an expression tree, measured without recursion."""
    deepest, todo = 0, [(tree, 1)]
    while todo:
        node, level = todo.pop()
        deepest = max(deepest, level)
        todo.extend((child, level + 1) for child in ast.iter_child_nodes(node)
                    if isinstance(child, ast.expr))
    return deepest


# ---------------------------------------------------------------------------
# printing

def to_str(e) -> str:
    return _render(e, 0)


_PREC = {"add": 1, "div": 2, "mul": 2, "pow": 3}


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
    elif tag == "pow":
        s = _render(e[1], prec + 1) + "^" + str(e[2])
    else:
        raise ExprError(f"cannot render {tag!r}")
    return f"({s})" if prec < outer or (tag == "mul" and s.startswith("-")
                                        and outer >= 2) else s


# ---------------------------------------------------------------------------
# cleanup: opt-in structural simplification of derived expressions

def cleanup(e):
    """Apply sin(u)^2 + cos(u)^2 = 1 and cancel exact polynomial quotients.

    Every sum with a cos power becomes its sine normal form, each cos(u)^2
    written as 1 - sin(u)^2: the remainder modulo the Groebner basis
    {sin(u)^2 + cos(u)^2 - 1, one per angle} (Cox, Little & O'Shea), so a
    polynomial that vanishes by the identity cleans to ZERO.  n/d becomes
    the quotient when d divides n as a polynomial, as they stand or in
    sine normal form.  Returns an interned node.
    """
    e = normalize(e)
    out = _CLEAN.get(id(e))
    if out is None:
        out = _cleanup(e)
        _CANON[id(e)] = e   # held again: _cleanup may have dropped the tables
        _CLEAN[id(e)] = out
    return out


def _cleanup(e):
    if e[0] != "div":
        return _pythagoras(normalize(_rebuild(e, _cleanup)))
    # a sine normal form need not divide where the sum itself does
    n, d = (normalize(_rebuild(c, _cleanup)) for c in e[1:])
    q = _poly_quotient(n, d)
    if q is None:
        n, d = _pythagoras(n), _pythagoras(d)
        q = _poly_quotient(n, d)
    return _pythagoras(normalize(("div", n, d) if q is None else q))


def _monomial(q, pairs):
    """The canonical term q * b1^n1 * ... of sorted (base, n >= 1) pairs."""
    factors = tuple(b if n == 1 else ("pow", b, n) for b, n in pairs)
    return with_coeff(q, ("mul", factors) if len(factors) > 1
                      else (factors[0] if factors else None))


def _is_cos_power(f):
    return f[0] == "pow" and f[1][0] == "cos"


def _sine_factor(f):
    """cos(u)^(2k+r) as (1 - sin(u)^2)^k cos(u)^r; any other factor as is."""
    if not _is_cos_power(f):
        return f
    k, r = divmod(f[2], 2)
    flip = ("add", (ONE, neg(("pow", ("sin", f[1][1]), 2))))
    return ("mul", (("pow", flip, k), f[1] if r else ONE))


def _pythagoras(e):
    """The sine normal form of a sum with a cos power; any other e as is."""
    if e[0] != "add" or not any(_is_cos_power(f) for t in e[1]
                                for f in _factors(t)):
        return e
    return normalize(("add", tuple(
        t if t[0] == "div" else ("mul", tuple(map(_sine_factor, _factors(t))))
        for t in e[1])))


def to_poly(e):
    """Canonical expr -> {monomial: coeff} over non-rational atomic bases.

    Returns None if the expression contains quotients (not a polynomial),
    and {} for zero.  A monomial is a term's own sorted tuple of (base,
    multiplicity); a canonical sum repeats no monomial and has no zero term.
    """
    poly = {}
    for t in () if is_zero(e) else _terms(e):
        q, key = split_coeff(t)
        pairs = []
        for f in () if key is None else _factors(key):
            if f[0] == "div":
                return None
            pairs.append((f[1], f[2]) if f[0] == "pow" else (f, 1))
        poly[tuple(pairs)] = q
    return poly


def _poly_quotient(n, d):
    """Exact polynomial quotient n/d, or None if it does not divide.

    A monomial is its exponent vector over the union of atomic bases,
    led by its total degree, so tuple order is graded lexicographic order
    (a genuine monomial order, so the division loop succeeds exactly when
    d divides n).  Each step's quotient monomial is new, since the leading
    monomial of the remainder falls; at most 512 steps are taken.
    """
    pn = to_poly(n)
    pd = to_poly(d)
    if pn is None or pd is None or not pd:
        return None
    if not pn:
        return ZERO
    atoms = sorted({b for p in (pn, pd) for m in p for b, _ in m})

    def vec(m):
        m = dict(m)
        v = [m.get(b, 0) for b in atoms]
        return (sum(v), *v)

    rem = {vec(m): c for m, c in pn.items()}
    pd = {vec(m): c for m, c in pd.items()}
    lead = max(pd)
    lc = pd[lead]
    quot = {}
    while rem:
        if len(quot) == 512:
            return None
        mlead = max(rem)
        if any(a < b for a, b in zip(mlead, lead)):
            return None
        qm = tuple(a - b for a, b in zip(mlead, lead))
        qc = quot[qm] = Fraction(rem[mlead], lc)
        for m, c in pd.items():
            mm = tuple(a + b for a, b in zip(m, qm))
            rem[mm] = rem.get(mm, 0) - c * qc
            if not rem[mm]:
                del rem[mm]
    return _norm_add([_monomial(c, [(b, k) for b, k in zip(atoms, v[1:]) if k])
                      for v, c in quot.items()])
