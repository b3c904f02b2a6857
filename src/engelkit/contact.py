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
                     interior, normalized_kernel_line, pair, wedge, zero)
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


def contact_form(data):
    """eta = beta + s alpha on the thickened space."""
    sp5 = thicken_space(data.space)
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


def reeb_solved(sp5, eta, dd, policy):
    """The Reeb direction from eta and dd = deta ^ deta alone: K / eta(K)
    for the kernel line K of dd, so i_K deta = 0 (deta has rank 4), and
    eta(K) is the density of the contact volume eta ^ dd."""
    return normalized_kernel_line(dd, eta, policy,
                                  "contact Reeb field eta(K)", FrameError)


def contactization_report(data, policy):
    """Verdicts on the thickened contact form, and the closed-form Reeb
    field they test."""
    sp5, eta = contact_form(data)
    deta = d(eta)
    ranges = sp5.coord_ranges
    dd = wedge(deta, deta)
    # the top-degree volume form has a single density component
    vol = wedge(eta, dd)
    out = {"contact volume": nonvanishing([vol.comp(range(sp5.dim))], ranges,
                                          policy)}
    closed = reeb_closed_form(data, sp5)
    out["pairs to one"] = zero([ex.add(pair(eta, closed), ex.rat(-1))],
                               ranges, policy)
    out["contracts to zero"] = zero(interior(closed, deta), ranges, policy)
    solved = reeb_solved(sp5, eta, dd, policy)
    out["closed form matches solve"] = zero(closed - solved, ranges, policy)
    return out, closed


def pullback_section_map(form5, h, sp5):
    """Pull a form back along (p, s) -> (p, h(p, s)).

    Only the interval coordinate s, the last direction, moves; h may
    depend on base coordinates and on s.  The form is A + B ^ ds with no
    ds leg in A or B, and pulls back to A(h) + B(h) ^ dh, where dh is `d`
    of the 0-form h and `wedge` supplies the signs.
    """
    s = sp5.dim - 1
    sub = {sp5.names[s]: h}
    a, b = {}, {}
    for idx, c in form5.comps.items():
        if idx and idx[-1] == s:
            b[idx[:-1]] = ex.substitute(c, sub)
        else:
            a[idx] = ex.substitute(c, sub)
    A = DiffForm(sp5, form5.degree, a)
    if not b:   # also every 0-form
        return A
    return A + wedge(DiffForm(sp5, form5.degree - 1, b),
                     d(DiffForm(sp5, 0, {(): h})))


def restrict_to_section(form5, g_expr, base_space):
    """Restrict a thickened form to the graph section s = g(p).

    This is the pullback along (p, s) -> (p, g(p)) moved onto the base; g
    must not depend on s, so no interval leg survives.
    """
    return DiffForm(base_space, form5.degree,
                    pullback_section_map(form5, g_expr, form5.space).comps)

