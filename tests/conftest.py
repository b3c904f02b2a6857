import pytest

from engelkit import expr as ex
from engelkit.engel import analyze
from engelkit.frames import FrameSpace
from engelkit.sampling import SamplingPolicy


@pytest.fixture(scope="session")
def policy():
    return SamplingPolicy(n_samples=32)


def torus_space():
    return FrameSpace([("coord", n, 0, 1) for n in "xyzt"])


def torus_forms(sp):
    alpha = sp.one_form([sp.scalar("-cos(2*pi*t)"), sp.scalar("-sin(2*pi*t)"),
                         ex.ONE, ex.ZERO])
    beta = sp.one_form([sp.scalar("-sin(2*pi*t)"), sp.scalar("cos(2*pi*t)"),
                        ex.ZERO, ex.ZERO])
    return alpha, beta


def torus_framing_hints(sp):
    W = sp.field([sp.scalar("cos(2*pi*t)"), sp.scalar("sin(2*pi*t)"),
                  ex.ONE, ex.ZERO])
    X = sp.basis_field(3)
    return W, X


@pytest.fixture(scope="session")
def torus(policy):
    sp = torus_space()
    alpha, beta = torus_forms(sp)
    W, X = torus_framing_hints(sp)
    return analyze(sp, alpha, beta, policy, W=W, X=X)


def nil4_space():
    return FrameSpace([("lie", n) for n in "ABCD"],
                      brackets={("D", "A"): [0, 1, 0, 0],
                                ("D", "B"): [0, 0, 1, 0]})


def nil4_forms(sp):
    # alpha, beta dual to the transverse pair (-C, -B) of the framing
    alpha = sp.one_form([ex.ZERO, ex.ZERO, ex.rat(-1), ex.ZERO])
    beta = sp.one_form([ex.ZERO, ex.rat(-1), ex.ZERO, ex.ZERO])
    return alpha, beta


@pytest.fixture(scope="session")
def nil4(policy):
    sp = nil4_space()
    alpha, beta = nil4_forms(sp)
    W = sp.basis_field(0)
    X = sp.basis_field(3)
    return analyze(sp, alpha, beta, policy, W=W, X=X)
