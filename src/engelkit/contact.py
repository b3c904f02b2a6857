"""Thickening a defining pair to a contact form on a transverse interval.

With (alpha, beta) a defining pair on the 4-space, eta = beta + s alpha is a
contact form on the product with the interval s in [-1, 1].  The module
computes its Reeb direction both from the closed-form expression through the
adapted bracket table and by solving the defining conditions from scratch,
builds the reparametrizing maps induced by rescaling/shearing the pair, and
restricts back to graph sections.
"""

from . import expr as ex
from .frames import (DiffForm, FrameSpace, VectorField, d, interior,
                     lie_form, pair, perm_sign, solve_kernel, wedge, zero)
from .sampling import nonvanishing


def thicken_space(space, name="s", lo=-1, hi=1, periodic=False):
    """The product of the base with one more coordinate direction.

    An interval by default; a circle fibre with periodic=True.
    """
    assert name not in space.names, f"name {name!r} already used"
    entries = list(space.entries) + [("coord", name, lo, hi, periodic)]
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


def reeb_solved(sp5, eta, policy):
    """The Reeb direction from its defining conditions alone."""
    res = solve_kernel(sp5, [(d(eta), ex.ZERO), (eta, ex.ONE)], policy)
    if not res.ok:
        raise ValueError(f"contact Reeb solve failed: {res.message}")
    return res.field.cleanup()


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
    solved = reeb_solved(sp5, eta, policy)
    out["solved"] = solved
    out["closed form matches solve"] = zero(closed - solved, ranges, policy)
    return out


# ---------------------------------------------------------------------------
# the induced reparametrization of the interval

def interval_map(lam, mu, nu):
    """The affine reparametrization induced by the pair transformation.

    For alpha' = lam alpha, beta' = mu beta + nu alpha, the section
    coordinate maps by s -> f s + g with f = mu/lam, g = -nu/lam, and the
    pulled-back contact form rescales by mu.
    """
    f = ex.cleanup(ex.div(mu, lam))
    g = ex.cleanup(ex.div(ex.neg(nu), lam))
    return f, g


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
                if dh == ex.ZERO or i in rest:
                    continue
                full = tuple(sorted(rest + (i,)))
                # sign of inserting i into the slot where s sat, then sorting
                perm = list(rest) + [i]
                sgn = perm_sign(perm)
                term = ex.mul(base, dh)
                out[full] = ex.add(out.get(full, ex.ZERO),
                                   term if sgn == 1 else ex.neg(term))
    return DiffForm(sp5, form5.degree, {k: v for k, v in out.items()})


def contactomorphism_report(base_eta_data, new_data, lam, mu, nu, policy):
    """Check that the induced interval map intertwines the contact forms.

    eta and eta' are the thickenings of the original and transformed pairs;
    the map (p, s) -> (p, f s + g) must pull eta' back to mu eta.
    """
    sp5, eta = contact_form(base_eta_data)
    _, eta2 = contact_form(new_data, space5=sp5)
    f, g = interval_map(lam, mu, nu)
    h = ex.add(ex.mul(f, ex.var("s")), g)
    pulled = pullback_section_map(eta2, h, sp5)
    verdict = zero(pulled - eta.scale(mu), sp5.coord_ranges, policy)
    return {"f": f, "g": g, "pullback matches mu eta": verdict}


def restrict_to_section(form5, g_expr, base_space):
    """Restrict a thickened form to the graph section s = g(p).

    This is the pullback along (p, s) -> (p, g(p)) moved onto the base; g
    must not depend on s, so no interval leg survives.
    """
    pulled = pullback_section_map(form5, g_expr, form5.space)
    return DiffForm(base_space, form5.degree, pulled.comps)


def graph_recovery_report(data, nu, policy):
    """Recover the sheared pair from the contact thickening.

    Restricting eta to the section s = nu gives beta + nu alpha, and the
    s-derivative of eta restricts to alpha.
    """
    sp5, eta = contact_form(data)
    beta_rec = restrict_to_section(eta, nu, data.space)
    alpha_rec = restrict_to_section(lie_form(sp5.basis_field(sp5.dim - 1),
                                             eta), ex.ZERO, data.space)
    want_beta = data.beta + data.alpha.scale(nu)
    ranges = data.space.coord_ranges
    return {"section recovers sheared beta": zero(beta_rec - want_beta,
                                                  ranges, policy),
            "s-derivative recovers alpha": zero(alpha_rec - data.alpha,
                                                ranges, policy)}
