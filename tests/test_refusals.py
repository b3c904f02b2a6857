"""Every refused construction says `<step>: <verdict>`, witness included.

A real input drives each refusal that one can reach.  Where the steps
before a site already rule its failure out (beta([W,X]) and alpha([X,T])
vanish only where the span density, and so T's normalizer, does; the
rescaled c_WX and d_XT are 1 by construction), the verdict at that site
is replaced by a failing one, while every verdict is still computed.
The refusals of T's normalizer and of the contact Reeb field on real inputs
are in test_kernel_lines.py.
"""

import re

import pytest

from engelkit import engel, frames
from engelkit import expr as ex
from engelkit.engel import EngelError, analyze
from engelkit.kengel import (KEngelData, KEngelError, kengel_check,
                             kengel_framing)
from engelkit.metric import orthonormal_metric
from engelkit.sampling import Verdict, failed

from conftest import torus_forms, torus_framing_hints, torus_space

NUMBER = r"[-+0-9.e]+"
WITNESS = rf" at [a-z]={NUMBER}(,[a-z]={NUMBER})*"
NONZERO = rf"zero=no value={NUMBER}{WITNESS}"
VANISHING = rf"nonvanishing=NO min={NUMBER}{WITNESS}"
# what a failed zero check and a failed nonvanishing check answer
BAD = {"zero": Verdict("nonzero", 0.5, {"t": 0.25}),
       "nonvanishing": Verdict("vanishing", 0.0, {"t": 0.25})}


def refusal(error, step, verdict, call):
    with pytest.raises(error) as err:
        call()
    message = str(err.value)
    assert message.startswith(f"{step}: ")
    assert re.fullmatch(verdict, message[len(step) + 2:]), message
    return err.value


def torus_case():
    sp = torus_space()
    alpha, beta = torus_forms(sp)
    W, X = torus_framing_hints(sp)
    return sp, alpha, beta, W, X


# -- analyze, with real inputs ------------------------------------------------

def test_a_w_hint_off_the_characteristic_line(policy):
    sp, alpha, beta, W, X = torus_case()
    refusal(EngelError, "W hint not in ker(alpha ^ dalpha)", NONZERO,
            lambda: analyze(sp, alpha, beta, policy,
                            W=sp.basis_field(0), X=X))


def test_an_x_hint_off_the_plane(policy):
    sp, alpha, beta, W, X = torus_case()
    refusal(EngelError, "X hint not in ker alpha ∩ ker beta", NONZERO,
            lambda: analyze(sp, alpha, beta, policy,
                            W=W, X=sp.basis_field(0)))


def test_x_hint_equal_to_w_degenerates_the_framing(policy):
    sp, alpha, beta, W, _ = torus_case()
    refusal(EngelError, "framing det(W, X, T, R)", VANISHING,
            lambda: analyze(sp, alpha, beta, policy, W=W, X=W))


# -- analyze, with a failing verdict substituted -------------------------------

def failing_call(monkeypatch, module, name, index):
    """Make the index-th call of module.name answer BAD[name]; every call
    still computes its own verdict."""
    real = getattr(module, name)
    calls = []

    def patched(*args):
        calls.append(real(*args))
        return BAD[name] if len(calls) == index else calls[-1]

    monkeypatch.setattr(module, name, patched)
    return calls


def test_r_normalizer_refusal(policy, monkeypatch):
    # frames' nonvanishing calls: nonintegrability, span, T's normalizer,
    # then R's
    sp, alpha, beta, W, X = torus_case()
    failing_call(monkeypatch, frames, "nonvanishing", 4)
    refusal(EngelError, "transverse direction R", VANISHING,
            lambda: analyze(sp, alpha, beta, policy, W=W, X=X))


# with both hints given, analyze's own nonvanishing calls are the framing
# determinant, beta([W,X]) and alpha([X,T]), and its zero calls are the flag
# condition, the two hints, then c_WX - 1 and d_XT - 1
@pytest.mark.parametrize("name, index, step, verdict", [
    ("nonvanishing", 2, "beta([W,X])", VANISHING),
    ("nonvanishing", 3, "alpha([X,T])", VANISHING),
    ("zero", 4, "beta([W',X']) != 1 after rescaling", NONZERO),
    ("zero", 5, "alpha([X',T]) != 1 after rescaling", NONZERO)])
def test_an_analyze_refusal_names_its_step(policy, monkeypatch, name, index,
                                           step, verdict):
    sp, alpha, beta, W, X = torus_case()
    calls = failing_call(monkeypatch, engel, name, index)
    err = refusal(EngelError, step, verdict,
                  lambda: analyze(sp, alpha, beta, policy, W=W, X=X))
    assert len(calls) == index
    assert str(err) == f"{step}: {BAD[name].describe()}"


# -- outside analyze ----------------------------------------------------------

def test_a_zero_field_passes_the_triple_check_but_not_alpha_z(torus, policy):
    Z = torus.space.field([ex.ZERO] * 4)
    g = orthonormal_metric(torus)
    assert not failed(kengel_check(torus, g, Z, policy))
    err = refusal(KEngelError, "alpha(Z) = 0", VANISHING,
                  lambda: kengel_framing(KEngelData(torus, g, Z, rank=1),
                                         policy))
    assert err.names == ["alpha(Z)"]
