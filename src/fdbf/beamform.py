"""Transmit beamformers under a self-interference power constraint.

The design problem: choose a transmit vector w, ||w|| <= 1, maximizing the
downlink rate log2(1 + rho |h_d^H w|^2) subject to the leakage cap
|v^H H w|^2 <= epsilon seen by the uplink combiner v.

Everything reduces to the interplay of two directions: the downlink channel
h_d and the effective leakage direction a = H^H v. Write p for the component
of h_d along a and q = h_d - p for the orthogonal remainder. The optimizer
lives on the one-parameter family

    w(alpha) ∝ h_d - alpha p,      alpha in [0, 1],

which slides from the matched (maximum-ratio) beamformer at alpha = 0 to the
fully nulled (zero-forcing) one at alpha = 1. The closed form picks the
smallest alpha whose leakage meets the cap:

    zeta = (1 - epsilon/||a||^2) |a^H h_d|^2     leakage margin scale
    eta  = |a^H h_d|^2 - epsilon ||h_d||^2       cap violation at alpha = 0

    alpha* = 0                               if eta <= 0 (matched filter feasible)
           = 1 - min(1, sqrt((zeta-eta)/zeta)) otherwise (constraint active)

When eta > 0 the Cauchy-Schwarz inequality forces zeta >= eta > 0, so the
square root is well defined. zeta - eta = epsilon ||q||^2 and
zeta = (||a||^2 - epsilon) ||p||^2 exactly, so the active branch is

    1 - alpha* = min(1, sqrt(epsilon / (||a||^2 - epsilon)) * ||q|| / ||p||).

The scalar path states each piece once: _leakage_split is the one split
of h_d into p and q, and closed_form() the one decision, returning alpha*
with the squared parallel-corner back-off. optimal() and kernels.solve_one
both call the two; kernels.solve_batch is their vectorized form over a
batch of instances and an axis of caps. The difference zeta - eta cancels
catastrophically when h_d is nearly parallel to a, while the residual norm
||q|| is computed componentwise and stays accurate.

All returned beamformers have unit norm (full available power) except in one
degenerate corner: h_d parallel to a with the cap active, where nulling would
zero the signal entirely and the optimum instead backs off transmit power
along h_d until the leakage meets the cap exactly.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import PARALLEL_TOL_SQ, as_cmatrix, as_cvector, inner, matvec_adj, norm_sq


class DegenerateParallelError(ValueError):
    """Nulling direction coincides with the signal direction: w(1) = 0."""


@dataclass(frozen=True, eq=False)
class BeamformerSolution:
    """A transmit vector with its audit quantities.

    w: transmit vector; dl_gain: |h_d^H w|^2; norm_w: ||w||;
    alpha: position on the matched-to-nulled family; si_power: |v^H H w|^2,
    None when no leakage context applies; degenerate: the nulled direction
    vanished.
    """

    w: np.ndarray
    dl_gain: float
    norm_w: float
    alpha: float
    si_power: Optional[float]
    degenerate: bool = False


class SubnormalLeakageError(ValueError):
    """||a||^2 is subnormal: the projection coefficient a^H h_d / ||a||^2
    overflows or loses its bits, and with them the split of h_d."""

    def __init__(self, message="||a||^2 must be 0 or a normal float64"):
        super().__init__(message)


_NORMAL_MIN = float(np.finfo(np.float64).tiny)


def _leakage_split(h_d, a):
    """Component of h_d along a and the orthogonal remainder.

    h_d and a are complex128 vectors of one shape. Returns (p, q, gram, mag)
    with p = a (a^H h_d)/||a||^2, q = h_d - p, gram = ||a||^2 and
    mag = |a^H h_d|^2. For ||a||^2 = 0: p = 0, q = h_d. Raises
    SubnormalLeakageError on a subnormal ||a||^2.
    """
    gram = float(np.vdot(a, a).real)
    if gram < _NORMAL_MIN:
        if gram:
            raise SubnormalLeakageError
        return np.zeros_like(h_d), h_d, 0.0, 0.0
    c = complex(np.vdot(a, h_d))
    p = a * (c / gram)
    return p, h_d - p, gram, abs(c) ** 2


def mrt(h_d):
    """Maximum-ratio beamformer h_d / ||h_d||, ignoring any leakage cap."""
    h_d = as_cvector(h_d)
    n = math.sqrt(norm_sq(h_d))
    if n == 0.0:
        raise ValueError("h_d must be nonzero")
    w = h_d / n
    return BeamformerSolution(w=w, dl_gain=abs(inner(h_d, w)) ** 2, norm_w=1.0,
                              alpha=0.0, si_power=None)


def zf(h_d, a):
    """Zero-forcing beamformer: the family member at alpha = 1.

    When h_d is (numerically) parallel to a the projection vanishes and no
    unit-norm nulling vector pointed at the user exists; the returned
    solution is the zero vector flagged degenerate.
    """
    try:
        return family(1.0, h_d, a)
    except DegenerateParallelError:
        return BeamformerSolution(w=np.zeros_like(as_cvector(h_d)), dl_gain=0.0,
                                  norm_w=0.0, alpha=1.0, si_power=0.0,
                                  degenerate=True)


def family(alpha, h_d, a):
    """Unit-norm member w(alpha) ∝ h_d - alpha p of the matched-to-nulled family.

    alpha = 0 is the matched beamformer, alpha = 1 the zero-forcing one.
    Raises DegenerateParallelError when the unnormalized vector vanishes
    (only possible at alpha = 1 with h_d parallel to a).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    h_d = as_cvector(h_d)
    a = as_cvector(a)
    if a.shape != h_d.shape:
        raise ValueError(f"dimension mismatch: {h_d.shape} vs {a.shape}")
    return _member(alpha, h_d, a, _leakage_split(h_d, a)[0])


def _member(alpha, h_d, a, p):
    """family(alpha, h_d, a) for checked inputs and p from _leakage_split."""
    w_un = h_d - alpha * p
    w2 = norm_sq(w_un)
    if w2 <= PARALLEL_TOL_SQ * norm_sq(h_d):
        raise DegenerateParallelError(
            "h_d is parallel to the leakage direction; w(1) has no direction")
    w = w_un / math.sqrt(w2)
    return BeamformerSolution(w=w, dl_gain=abs(inner(h_d, w)) ** 2, norm_w=1.0,
                              alpha=float(alpha), si_power=abs(inner(a, w)) ** 2)


def closed_form(hd2, gram, mag, q2, epsilon):
    """alpha* and the squared parallel-corner back-off from the Gram scalars.

    Inputs are ||h_d||^2, ||a||^2, |a^H h_d|^2, ||q||^2 (q computed
    componentwise) and the cap. Returns (alpha, back2): back2 is
    epsilon ||h_d||^2 / |a^H h_d|^2 < 1 when the cap is active, the squared
    norm at which transmitting along h_d puts the leakage exactly on the cap
    (the optimum when h_d is parallel to a), and 1.0 otherwise. That corner
    transmits norm sqrt(back2) with gain back2 ||h_d||^2.
    """
    if gram == 0.0 or mag - epsilon * hd2 <= 0.0 or gram <= epsilon:
        return 0.0, 1.0
    b2 = (epsilon / (gram - epsilon)) * (q2 * gram / mag)
    # epsilon (hd2 / mag), not epsilon hd2 / mag: epsilon hd2 can be
    # subnormal where the back-off is a normal float
    return 1.0 - min(1.0, math.sqrt(b2)), epsilon * (hd2 / mag)


def optimal(h_d, H, v, epsilon):
    """Closed-form rate-optimal beamformer under ||w|| <= 1 and the leakage cap.

    Single pass: the effective leakage direction a = H^H v and its squared
    norm are computed once and alpha* follows in O(n_t n_r) arithmetic.
    In the parallel degenerate corner (h_d parallel to a within
    numerics.PARALLEL_TOL_SQ, with the cap active) the optimum transmits
    along h_d at reduced power so the leakage sits exactly on the cap;
    everywhere else the returned vector has unit norm.
    """
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    h_d = as_cvector(h_d)
    H = as_cmatrix(H)
    v = as_cvector(v)
    hd2 = norm_sq(h_d)
    if hd2 == 0.0:
        raise ValueError("h_d must be nonzero")
    a = matvec_adj(H, v)
    if a.shape != h_d.shape:
        raise ValueError(f"dimension mismatch: h_d is {h_d.shape}, H is {H.shape}")
    p, q, gram, mag = _leakage_split(h_d, a)
    q2 = norm_sq(q)
    al, back2 = closed_form(hd2, gram, mag, q2, epsilon)
    # under an active cap (al != 0), h_d parallel to a takes the corner
    if al == 0.0 or q2 > PARALLEL_TOL_SQ * hd2:
        try:
            return _member(al, h_d, a, p)
        except DegenerateParallelError:
            pass
    backoff = math.sqrt(back2)
    w = (backoff / math.sqrt(hd2)) * h_d
    return BeamformerSolution(w=w, dl_gain=abs(inner(h_d, w)) ** 2,
                              norm_w=backoff, alpha=al,
                              si_power=abs(inner(a, w)) ** 2, degenerate=True)


def si_power(w, H, v):
    """Leakage power |v^H H w|^2 reaching the combiner."""
    H = as_cmatrix(H)
    try:
        return abs(inner(matvec_adj(H, v), np.asarray(w, dtype=np.complex128))) ** 2
    except ValueError as exc:
        raise ValueError(f"incompatible shapes for si_power: {exc}") from exc


def dl_rate(w, h_d, rho):
    """Downlink spectral efficiency log2(1 + rho |h_d^H w|^2) in bit/s/Hz."""
    if not (rho >= 0.0 and math.isfinite(rho)):
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    return math.log2(1.0 + rho * abs(inner(h_d, w)) ** 2)
