"""Accuracy of the closed-form kernels against a 60-digit reference.

Each example is one instance: a leakage direction a, a channel h_d = k a +
delta e that is as near parallel to a as delta makes it (delta = 0 is
parallel up to rounding), independent scales on h_d and a, and a cap from
0 to above ||a||^2. mpmath evaluates the exact downlink gain and leakage of
w ∝ h_d - alpha p at the alpha the kernel returned, from the kernel's own
float inputs. Reading the error at the kernel's alpha separates the gain
formulas from alpha's own rounding, which 1/(1 - alpha) amplifies.

The bounds are 1e-13 relative for the gain and 1e-13 times the MRT leakage
|a^H h_d|^2 / ||h_d||^2 for the leakage, each scaled by
kappa = max(1, ||h_d|| ||q|| / ||w||^2). Any float evaluation starts from a
residual q = h_d - p whose entries carry rounding of order ulp * ||h_d||,
and the gains amplify that by kappa; kappa is 1 unless h_d is near parallel
to a with the cap active.
"""

import mpmath
import numpy as np
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from fdbf import kernels

mpmath.mp.dps = 60

RTOL = 1e-13

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.filter_too_much])


def _mp(x):
    return mpmath.mpc(complex(x))


def exact(h_d, a, eps, alpha):
    """60-digit Gram scalars of (h_d, a) and the gains of w(alpha)."""
    h = [_mp(x) for x in h_d]
    av = [_mp(x) for x in a]
    hd2 = mpmath.fsum(abs(x) ** 2 for x in h)
    gram = mpmath.fsum(abs(x) ** 2 for x in av)
    c = mpmath.fsum(mpmath.conj(x) * y for x, y in zip(av, h))
    mag = abs(c) ** 2
    q2 = mpmath.fsum(abs(y - x * c / gram) ** 2 for x, y in zip(av, h))
    p2 = mag / gram
    b = 1 - mpmath.mpf(float(alpha))
    w2 = q2 + b * b * p2
    mu = q2 + b * p2
    return dict(hd2=hd2, gram=gram, mag=mag, q2=q2, w2=w2,
                gain=mu * mu / w2 if w2 else None,
                si=b * b * mag / w2 if w2 else None,
                corner_gain=eps * hd2 * hd2 / mag,
                corner_norm=mpmath.sqrt(eps * hd2 / mag))


def normal(x):
    """x is 0 or a normal float64 magnitude, with headroom."""
    return x == 0 or 1e-300 < x < 1e300


unit = st.floats(-1.0, 1.0)


def cvec(n_t):
    return st.lists(st.builds(complex, unit, unit), min_size=n_t,
                    max_size=n_t).map(lambda xs: np.array(xs, dtype=complex))


@st.composite
def instances(draw, h_exp=150):
    """(h_d, a, eps): h_d scaled by up to 10**±h_exp, a by up to 10**±150,
    and ||h_d|| ||a|| by at most 10**±140, so that every Gram scalar is a
    normal float."""
    n_t = draw(st.integers(1, 4))
    a = draw(cvec(n_t))
    assume(np.vdot(a, a).real >= 0.25)
    k = complex(draw(st.floats(0.1, 3.0)), draw(st.floats(-3.0, 3.0)))
    # now and then exactly parallel before rounding, else delta from 1e-11
    delta = 0.0 if draw(st.integers(0, 9)) == 0 else 10.0 ** draw(
        st.floats(-11.0, 1.0))
    h_d = k * a + delta * draw(cvec(n_t))
    x_h = draw(st.floats(-h_exp, h_exp))
    x_a = min(max(draw(st.floats(-150.0, 150.0)), -140.0 - x_h), 140.0 - x_h)
    h_d = h_d * 10.0 ** x_h
    a = a * 10.0 ** x_a
    # caps from full nulling (now and then), through active, to above ||a||^2
    ratio = 0.0 if draw(st.integers(0, 9)) == 0 else 10.0 ** draw(
        st.floats(-16.0, 0.5))
    return h_d, a, ratio * float(np.vdot(a, a).real)


def check(h_d, a, eps, alpha, si, gain, norm_w):
    """Assert one kernel result against the 60-digit reference."""
    ref = exact(h_d, a, eps, alpha)
    assume(all(normal(ref[k]) for k in ("hd2", "gram", "mag", "q2")))
    mrt_si = ref["mag"] / ref["hd2"]
    event("parallel corner" if norm_w < 1.0 else
          "alpha = 0" if alpha == 0.0 else "alpha = 1" if alpha == 1.0 else
          "0 < alpha < 1")
    if norm_w < 1.0:
        # parallel corner: along h_d at reduced power, leakage on the cap
        assume(normal(ref["corner_gain"]))
        assert si == eps
        assert abs(norm_w - ref["corner_norm"]) <= RTOL * ref["corner_norm"]
        assert abs(gain - ref["corner_gain"]) <= RTOL * ref["corner_gain"]
        return
    assume(normal(ref["gain"]))
    kappa = max(1, mpmath.sqrt(ref["hd2"] * ref["q2"]) / ref["w2"])
    assert norm_w == 1.0
    assert abs(gain - ref["gain"]) <= RTOL * kappa * ref["gain"]
    assert abs(si - ref["si"]) <= RTOL * kappa * mrt_si


# a parallel corner whose eps ||h_d||^2 = 4.7e-314 is subnormal, though the
# back-off norm and gain are normal floats
CORNER = (np.array([3e-72j]), np.array([2e-78 + 0j]), 5.2e-171)


@SETTINGS
@given(instances())
@example(CORNER)
def test_solve_one_is_exact_to_the_bound(inst):
    h_d, a, eps = inst
    # one receive antenna with v = 1: the leakage direction H^H v is a
    alpha, si, gain, norm_w = kernels.solve_one(
        h_d, a[None, :].conj(), np.ones(1, dtype=complex), eps)
    check(h_d, a, eps, alpha, si, gain, norm_w)


# solve_batch squares ||h_d||^2 in the terms it keeps bit for bit: the
# alpha = 0 gain |h_d^H h_d|^2 / ||h_d||^2 and the zero-forcing gain
# |h_d^H q|^2 / ||q||^2 that it reports at alpha = 1. So its range of
# ||h_d|| is about 10**±75, not 10**±150.
@SETTINGS
@given(instances(h_exp=70))
@example(CORNER)
def test_solve_batch_is_exact_to_the_bound(inst):
    h_d, a, eps = inst
    alpha, si, gain, gain_zf, norm_w, _ = (
        x[0] for x in kernels.solve_batch(h_d[None], a[None], eps))
    if alpha == 1.0 and norm_w == 1.0:
        # the zero-forcing vector q itself, reported as gain_zf, whose
        # h_d^H q = ||q||^2 + p^H q carries rounding of order ulp ||h_d||^2:
        # r = ||h_d||^2 / ||q||^2 amplifies it, squared once r passes 1/ulp
        ref = exact(h_d, a, eps, alpha)
        assume(normal(ref["q2"]) and normal(ref["hd2"]))
        event("zero-forcing row")
        assert gain == gain_zf and si == 0.0
        r = ref["hd2"] / ref["q2"]
        assert abs(gain - ref["q2"]) <= RTOL * r * (1 + RTOL * r) * ref["q2"]
        return
    check(h_d, a, eps, alpha, si, gain, norm_w)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, 1e150), st.floats(0.0, 1e150), st.floats(0.0, 1e150),
       st.floats(0.0, 1.0))
# the leakage 1 / 5e-324 overflows: Python floats give inf silently, and the
# arrays must give the same inf
@example(q2=0.0, p2=5e-324, mag=1.0, b=1.0)
def test_gram_gains_floats_and_arrays_agree(q2, p2, mag, b):
    scalar = kernels._gram_gains(q2, p2, mag, b)
    with np.errstate(over="ignore"):
        array = kernels._gram_gains(*(np.array([x]) for x in (q2, p2, mag, b)))
    for x, y in zip(scalar, array):
        assert type(x) is float
        assert np.array([x]).tobytes() == y.tobytes()

