"""Brute-force certifiers for the closed-form beamformer.

Two independent searches bound the closed form from below and from the side,
and certify judges one instance by both, against the *_TOL constants below:

  * grid_search sweeps the one-parameter matched-to-nulled family on a
    uniform grid, keeping the best feasible candidate. The optimum provably
    lies in this family except in the measure-zero parallel corner, so the
    grid is a complete certificate up to its resolution.
  * random_feasible_search samples isotropic random directions in C^{n_t},
    backs each off in power onto the cap when needed, and keeps the best.
    It certifies global optimality empirically without assuming the family.
    A float32-trig filter bounds every candidate's gain and only the few
    that can still win are rebuilt and scanned exactly, so the result is
    that of an exhaustive exact scan, bit for bit.

timing_bench races the closed form against the grid search on identical
inputs, standing in for the complexity comparison against iterative solvers.
"""

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .beamform import DegenerateParallelError, dl_rate, family, optimal, si_power
from .channel import require_int
from .numerics import RngState, box_muller, norm_sq, stream_uniforms

# The sampling filter. A candidate is w = r (cos t + i sin t) entrywise, from
# an exact float64 radius r and phase t; the filter takes w' with float32
# cos and sin of float32(t) in their place. Per entry, |w'_j - w_j| <= d r_j
# with d = 8.6e-8 + 2**-22 < 3.3e-7: the first term is the largest
# |cos32(p) + i sin32(p) - (cos p + i sin p)| over every float32 p in
# [0, float32(2 pi)], measured with numpy 2.4 on an AVX-512 x86-64, and
# the second is half a float32 ulp, lost rounding a phase below 8 to
# float32. So ||w' - w|| <= d ||r|| = d ||w||, and the amplitudes
# x = |h_d^H w| / ||w|| and y = |a^H w| / ||w|| are within d ||h_d|| and
# d ||a|| of the filter's x' and y'. The filter allows _SAMPLE_ETA = 4e-6 >= 8 d in place of d; the
# float64 rounding of both scans, about n_t ulp of ||h_d|| or ||a||, is far
# inside the difference. As x, x' <= (1 + eta) ||h_d||, the squares differ
# by at most (2 + eta) eta ||h_d||^2, and the filter widens x'^2 by
# (2 + 3 eta) eta ||h_d||^2 each way; likewise y'^2 with ||a||^2.
_SAMPLE_ETA = 4e-6
# Entries (candidates x n_t) per filter block: each block's temporaries stay
# cache-sized, and verify's default 10 000 candidates at n_t = 2 make one
# block, whose 30 or so numpy calls are not bound by call overhead. In one
# process at n_t = 2 (2-vCPU x86-64, numpy 2.4), 1000 filters took 0.71 s in
# blocks of 4096 entries, 0.62 s in blocks of 32768 and 0.65 s in 65536.
_FILTER_ENTRIES = 1 << 15
# The bounds above are relative, so the filter needs every value it compares
# to be a normal float. A nonzero candidate has ||w||^2 >= 1e-16 (r_j >= 1e-8
# for u1 <= 1 - 2**-53), so gains of at least _SAMPLE_FLOOR keep every
# product of the exact scan normal, with 1e11 to spare, when ||h_d||^2 and
# ||a||^2 stay below 1 / _SAMPLE_FLOOR and a nonzero cap above
# _SAMPLE_FLOOR max(1, ||a||^2), which keeps the back-off factor normal.
_SAMPLE_FLOOR = 1e-280
# What certify accepts; the slacks are rates above the candidate's, bits/s/Hz
OVERSHOOT_TOL = 1e-9     # SI above the cap, power above 1: feasible, both searches
ACTIVITY_TOL = 1e-6      # relative SI error of a candidate with alpha > 0
GRID_SLACK_TOL = 1e-6    # the grid search's best rate
SAMPLE_SLACK_TOL = 1e-9  # the sampling search's best rate


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Outcome of one brute-force search.

    best_alpha is the winning family position (None for searches not
    parameterized by alpha or when nothing was feasible); best_rate is the
    best feasible downlink rate found (-inf when nothing was feasible);
    max_violation is the worst SI overshoot among accepted candidates and
    must stay below OVERSHOOT_TOL (the sampling search backs every candidate
    off onto the cap, so its overshoot is rounding, within 2 ulp of the cap);
    degenerate flags an all-infeasible grid, which only happens in the
    parallel corner.
    """

    best_alpha: Optional[float]
    best_rate: float
    max_violation: float
    degenerate: bool = False


def feasible(w, realization):
    """True iff w meets the SI cap and unit power up to OVERSHOOT_TOL."""
    w = np.asarray(w, dtype=np.complex128)
    si = si_power(w, realization.H, realization.v)
    return si <= realization.epsilon + OVERSHOOT_TOL and norm_sq(w) <= 1.0 + OVERSHOOT_TOL


def grid_search(realization, grid_points, rho=1.0):
    """Scan the matched-to-nulled family on a uniform alpha grid.

    Deterministic. Keeps candidates whose leakage is within
    kernels.GRID_FEAS_TOL of the cap and returns the best by downlink rate
    at SNR rho. An all-infeasible grid (parallel corner) comes back flagged
    degenerate with best_rate = -inf.
    """
    require_int(grid_points, "grid_points")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    best_idx, best_gain, _, max_violation = kernels.grid_scan(
        realization.h_d, realization.effective_si_vector(),
        realization.epsilon, grid_points)
    if best_idx < 0:
        return OracleReport(best_alpha=None, best_rate=float("-inf"),
                            max_violation=max_violation, degenerate=True)
    best_alpha = best_idx / (grid_points - 1)
    return OracleReport(best_alpha=best_alpha,
                        best_rate=math.log2(1.0 + rho * best_gain),
                        max_violation=max_violation)


def _backed_off_gain(x2, y2, eps):
    """x2 min(1, eps / y2): the gain of a unit candidate whose downlink and
    leakage gains are x2 and y2, backed off onto the cap. eps / 0 is inf
    or, at eps = 0, NaN, and fmin takes the intended factor 1 from both."""
    return x2 * np.fmin(eps / y2, 1.0)


def _sampling_filter(h_d, a, eps, U1, U2):
    """Candidates that can still win the exact scan, and the filter's overshoot.

    U1, U2 hold the (samples, n_t) Box-Muller uniforms of the candidates.
    Each candidate gets a gain interval [g_lo, g_hi] that holds its exact
    gain: the gain x^2 min(1, eps / y^2) rises with the downlink gain x^2
    and falls with the leakage y^2, so the filter's x'^2 and y'^2, each
    widened by its bound (see _SAMPLE_ETA), give its ends. Returns
    (rows, violation): the indices with g_hi >= max g_lo, ascending, and
    the worst back-off overshoot min(1, eps / y'^2) y'^2 - eps among the
    other candidates (-inf if none). A candidate outside rows has an exact
    gain below the winner's, so it can neither win nor tie. An all-zero
    candidate scores NaN and stays in rows for the exact scan to skip.
    rows is None, for all of them, at n_t = 1 (every candidate is the same
    direction) and where the floats leave the range the bounds need (see
    _SAMPLE_FLOOR). x'^2 and y'^2 are computed in blocks of about
    _FILTER_ENTRIES entries, and both ends once over every candidate.
    """
    samples, n_t = U1.shape
    h_d = np.asarray(h_d, dtype=np.complex128)
    a = np.asarray(a, dtype=np.complex128)
    hd2, gram = norm_sq(h_d), norm_sq(a)
    ceil = 1.0 / _SAMPLE_FLOOR
    if not (n_t > 1 and hd2 <= ceil and gram <= ceil
            and (eps == 0.0 or eps >= _SAMPLE_FLOOR * max(1.0, gram))):
        return None, -math.inf
    widen_x, widen_y = (2.0 + 3.0 * _SAMPLE_ETA) * _SAMPLE_ETA * np.array([hd2, gram])
    # Re w' @ Mc + Im w' @ Ms = [Re, Im of h_d^H w', Re, Im of a^H w']
    Mc = np.stack((h_d.real, -h_d.imag, a.real, -a.imag), axis=1)
    Ms = np.stack((h_d.imag, h_d.real, a.imag, a.real), axis=1)
    ones = np.ones(n_t)
    gains = np.empty((2, samples))  # x'^2 and y'^2 of every candidate
    step = max(1, _FILTER_ENTRIES // n_t)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, samples, step):
            blk = slice(lo, lo + step)
            r2 = -np.log(U1[blk])
            r = np.sqrt(r2)
            t = (2.0 * np.pi * U2[blk]).astype(np.float32)
            P = (r * np.cos(t)) @ Mc + (r * np.sin(t)) @ Ms
            P *= P
            # |h_d^H w'|^2 and |a^H w'|^2 over ||w||^2 = ||r||^2
            q = gains[:, blk]
            np.add(P[:, 0], P[:, 1], out=q[0])
            np.add(P[:, 2], P[:, 3], out=q[1])
            q /= r2 @ ones
        x2, y2 = gains
        # the high downlink end with the low leakage end, and the reverse
        g_hi = _backed_off_gain(x2 + widen_x, np.maximum(y2 - widen_y, 0.0), eps)
        g_lo = _backed_off_gain(np.maximum(x2 - widen_x, 0.0), y2 + widen_y, eps)
        best_lo = float(np.fmax.reduce(g_lo))
        if not best_lo >= _SAMPLE_FLOOR:
            return None, -math.inf
        rest = g_hi < best_lo
        viol = _backed_off_gain(y2, y2, eps) - eps
    return np.flatnonzero(~rest), float(np.max(viol, where=rest, initial=-np.inf))


def random_feasible_search(realization, samples, rng, rho=1.0):
    """Best downlink rate over random isotropic candidates forced feasible.

    Directions are normalized i.i.d. complex Gaussians; any candidate whose
    unit-power leakage exceeds the cap is backed off in power until the
    leakage sits exactly on it, so every sample yields a feasible candidate.
    rng is an RngState: the draw is the first 2 samples n_t uniforms of its
    stream, read by numerics.stream_uniforms and laid out as
    channel.draw_streams lays out a variable: u1 = 1 - the first half, u2
    the second.

    Two passes over the draw give the result of one exact scan of every
    candidate: _sampling_filter bounds every candidate's gain with float32
    trig, and only the few that can still win are rebuilt with the exact
    Box-Muller transform and scanned by kernels.sample_scan, whose rows do
    not depend on each other. best_rate is therefore that of the
    exhaustive scan, bit for bit. max_violation is the worst back-off
    overshoot over all candidates, from the exact leakage of the rescanned
    ones and the filter's leakage of the rest. Both round the same formula
    eps / si * si - eps, so it stays within 2 ulp of eps either way.
    """
    require_int(samples, "samples")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not isinstance(rng, RngState):
        raise TypeError(f"rng must be an RngState, got {type(rng).__name__}")
    h_d = realization.h_d
    a = realization.effective_si_vector()
    eps = realization.epsilon
    n_t = h_d.shape[0]
    U1, U2 = stream_uniforms(rng.seed, rng.stream_id,
                             2 * samples * n_t).reshape(2, samples, n_t)
    np.subtract(1.0, U1, out=U1)
    rows, filtered_violation = _sampling_filter(h_d, a, eps, U1, U2)
    if rows is not None:
        U1, U2 = U1[rows], U2[rows]
    W = box_muller(U1, U2)
    _, best_gain, _, max_violation = kernels.sample_scan(h_d, a, eps, W)
    return OracleReport(best_alpha=None,
                        best_rate=math.log2(1.0 + rho * best_gain),
                        max_violation=max(max_violation, filtered_violation))


class Verdict(NamedTuple):
    """What certifying one instance found."""

    reasons: tuple                # failure messages, in the order checked
    grid_slack: Optional[float]   # None where the grid was degenerate
    sample_slack: float
    activity: float               # relative SI activity error; 0 if inactive


def certify(realization, rng, *, grid_points, samples, perturb_alpha, rho):
    """Certify the closed form, moved by perturb_alpha as a negative control,
    against both oracles (rng feeds the sampling one). Prints nothing."""
    r = realization
    reasons = []
    sol = optimal(r.h_d, r.H, r.v, r.epsilon)
    cand = sol
    if perturb_alpha != 0.0 and not sol.degenerate:
        alpha = min(1.0, max(0.0, sol.alpha + perturb_alpha))
        try:
            cand = family(alpha, r.h_d, r.effective_si_vector())
        except DegenerateParallelError:
            cand = sol
    rate_c = dl_rate(cand.w, r.h_d, rho)

    if not feasible(cand.w, r):
        reasons.append(f"candidate infeasible: si={cand.si_power!r} "
                       f"norm={cand.norm_w!r} eps={r.epsilon!r}")
    activity = 0.0
    if cand.alpha > 0.0:
        activity = abs(cand.si_power - r.epsilon) / r.epsilon
        if activity > ACTIVITY_TOL:
            reasons.append(f"SI constraint not active at alpha={cand.alpha}: "
                           f"relative error {activity:.3e}")

    grid = grid_search(r, grid_points, rho=rho)
    if grid.max_violation > OVERSHOOT_TOL:
        reasons.append(f"grid oracle accepted SI overshoot {grid.max_violation:.3e}")
    grid_slack = None
    if not grid.degenerate:
        grid_slack = rate_c - grid.best_rate
        if grid_slack < -GRID_SLACK_TOL:
            reasons.append(f"grid oracle beats candidate by {-grid_slack:.3e} "
                           f"bits/s/Hz (alpha={cand.alpha} vs grid {grid.best_alpha})")

    rand = random_feasible_search(r, samples, rng, rho=rho)
    if rand.max_violation > OVERSHOOT_TOL:
        reasons.append(f"sampling oracle accepted SI overshoot {rand.max_violation:.3e}")
    sample_slack = rate_c - rand.best_rate
    if sample_slack < -SAMPLE_SLACK_TOL:
        reasons.append(f"random feasible candidate beats closed form by "
                       f"{-sample_slack:.3e}")
    return Verdict(tuple(reasons), grid_slack, sample_slack, activity)


def _per_solve_ns(fn, inputs):
    """Wall time of one loop of fn over inputs, divided by len(inputs)."""
    t0 = time.perf_counter_ns()
    for args in inputs:
        fn(*args)
    return (time.perf_counter_ns() - t0) / len(inputs)


def timing_bench(realizations, grid_points, passes=5):
    """Median wall-clock nanoseconds per solve: closed form vs grid search.

    Both methods run single-threaded on identical inputs, starting from the
    raw (h_d, H, v) triple so each pays for its own a = H^H v. Each pass
    times one loop of each method over the whole realization list, back to
    back, alternating which runs first, so a change of machine speed
    between passes moves both loops alike. Returns (closed_ns, grid_ns,
    speedup): the medians over passes of the per-solve times and of the
    per-pass ratios grid/closed.
    """
    if not realizations:
        raise ValueError("need at least one realization")
    cvec = kernels._cvec
    inputs = [(cvec(r.h_d), cvec(r.H), cvec(r.v), float(r.epsilon))
              for r in realizations]
    n_grid = int(grid_points)

    def run_grid(h_d, H, v, eps):
        return kernels.grid_scan(h_d, H.conj().T @ v, eps, n_grid)

    kernels.solve_one(*inputs[0])
    run_grid(*inputs[0])
    closed, grid = [], []
    for k in range(passes):
        if k % 2 == 0:
            closed.append(_per_solve_ns(kernels.solve_one, inputs))
            grid.append(_per_solve_ns(run_grid, inputs))
        else:
            grid.append(_per_solve_ns(run_grid, inputs))
            closed.append(_per_solve_ns(kernels.solve_one, inputs))
    closed, grid = np.array(closed), np.array(grid)
    return (float(np.median(closed)), float(np.median(grid)),
            float(np.median(grid / closed)))
