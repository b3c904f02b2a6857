"""Thickening a defining pair to a contact form on a transverse interval.

With (alpha, beta) a defining pair on the 4-space, eta = beta + s alpha is a
contact form on the product with the interval s in [-1, 1].  The module
computes its Reeb direction both from the closed-form expression through the
adapted bracket table and from eta alone, as the kernel line of deta ^ deta.
It also pulls thickened forms back along sections s = h(p, s) and restricts
them to graph sections s = g(p), which the contact filling's boundary uses.
"""

from . import expr as ex
from .frames import (DiffForm, FrameError, FrameSpace, VectorField, d,
                     interior, kernel_line, pair, perm_sign, wedge, zero)
from .sampling import nonvanishing


def thicken_space(space, name="s", lo=-1, hi=1):
    """The product of the base with one more coordinate direction."""
    if name in space.names:
        raise FrameError(f"cannot thicken by {name!r}: the space already "
                         f"has a direction of that name")
    entries = list(space.entries) + [("coord", name, lo, hi)]
    brackets = {}
    for (i, j), vec in space.structure.items():
        brackets[(space.names[i], space.names[j])] = list(vec) + [0]
    return FrameSpace(entries, brackets=brackets, params=space.params)


def promote_form(space5, w):
    return DiffForm(space5, w.degree, dict(w.comps))


def contact_form(data, space5=None):
    """eta = beta + s alpha on the thickened space."""
    sp5 = space5 or thicken_space(data.space)
    s = ex.var("s")
    alpha5 = promote_form(sp5, data.alpha)
    beta5 = promote_form(sp5, data.beta)
    return sp5, beta5 + alpha5.scale(s)


def reeb_closed_form(data, sp5):
    """The contact Reeb direction assembled from the adapted table.

        R_eta = T + s W + (c_TR + s d_TR + s^2 d_WR) d/ds
    """
    t = data.table
    s = ex.var("s")
    comps = [ex.add(c, ex.mul(s, w))
             for c, w in zip(data.T.comps, data.W.comps)]
    comps.append(ex.add(t["c_TR"], ex.mul(s, t["d_TR"]),
                        ex.mul(ex.pow_(s, 2), t["d_WR"])))
    return VectorField(sp5, comps)


def reeb_solved(sp5, eta, deta, policy):
    """The Reeb direction from eta and deta = d(eta) alone: K / eta(K) for
    the kernel line K of deta ^ deta, so i_K deta = 0 (deta has rank 4),
    and eta(K) is the density of the contact volume eta ^ deta ^ deta."""
    K = kernel_line(wedge(deta, deta))
    norm = ex.cleanup(pair(eta, K))
    verdict = nonvanishing([norm], sp5.coord_ranges, policy)
    if not verdict.ok:
        raise FrameError(f"contact Reeb field: eta(K) {verdict.describe()}")
    return K.scale(ex.div(ex.ONE, norm)).cleanup()


def contactization_report(data, policy):
    sp5, eta = contact_form(data)
    out = {"eta": eta}
    deta = d(eta)
    ranges = sp5.coord_ranges
    # the top-degree volume form has a single density component
    vol = wedge(wedge(eta, deta), deta)
    out["contact volume"] = nonvanishing([vol.comp(range(sp5.dim))], ranges,
                                         policy)
    closed = reeb_closed_form(data, sp5)
    out["closed form"] = closed
    out["pairs to one"] = zero([ex.add(pair(eta, closed), ex.rat(-1))],
                               ranges, policy)
    out["contracts to zero"] = zero(interior(closed, deta), ranges, policy)
    solved = reeb_solved(sp5, eta, deta, policy)
    out["solved"] = solved
    out["closed form matches solve"] = zero(closed - solved, ranges, policy)
    return out


def pullback_section_map(form5, h, sp5):
    """Pull a form back along (p, s) -> (p, h(p, s)).

    Only the interval coordinate moves; h may depend on base coordinates
    and on s.
    """
    n = sp5.dim
    s_idx = n - 1
    sub = {sp5.names[s_idx]: h}
    out = {}
    for idx, c in form5.comps.items():
        if s_idx not in idx:
            out[idx] = ex.add(out.get(idx, ex.ZERO),
                              ex.substitute(c, sub))
        else:
            rest = tuple(i for i in idx if i != s_idx)
            sign = 1 if (len(idx) - 1 - idx.index(s_idx)) % 2 == 0 else -1
            base = ex.substitute(c, sub)
            if sign < 0:
                base = ex.neg(base)
            # ds pulls back to dh = sum_i (D_i h) theta^i + (ds h) ds
            for i in range(n):
                dh = sp5.dir_deriv(i, ex.normalize(h))
                if ex.is_zero(dh) or i in rest:
                    continue
                full = tuple(sorted(rest + (i,)))
                # sign of inserting i into the slot where s sat, then sorting
                perm = list(rest) + [i]
                sgn = perm_sign(perm)
                term = ex.mul(base, dh)
                out[full] = ex.add(out.get(full, ex.ZERO),
                                   term if sgn == 1 else ex.neg(term))
    return DiffForm(sp5, form5.degree, {k: v for k, v in out.items()})


def restrict_to_section(form5, g_expr, base_space):
    """Restrict a thickened form to the graph section s = g(p).

    This is the pullback along (p, s) -> (p, g(p)) moved onto the base; g
    must not depend on s, so no interval leg survives.
    """
    pulled = pullback_section_map(form5, g_expr, form5.space)
    return DiffForm(base_space, form5.degree, pulled.comps)

