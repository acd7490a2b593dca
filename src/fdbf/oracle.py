"""Brute-force certifiers for the closed-form beamformer.

Two independent searches bound the closed form from below and from the side:

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
import statistics
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .beamform import _leakage_split, _member, si_power
from .numerics import RngState, box_muller, box_muller_uniforms, norm_sq

# Grid feasibility slack. Has to admit exact boundary candidates whose
# leakage lands last-ulp above the cap (so the alpha* grid point itself is
# never rejected) while keeping any accepted overshoot far below the 1e-9
# report invariant; 1e-12 absolute does both for caps down to 1e-6.
GRID_FEAS_TOL = 1e-12

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
# Candidates per filter block: each block's temporaries stay cache-sized.
# At n_t = 2 under the CLI's heap policy (procs.keep_freed_memory), blocks of
# 1024 took about 20% longer and blocks of 4096 the same time within noise,
# with no page faults either way (2-vCPU x86-64, numpy 2.4). Without the
# policy glibc trims and re-faults the temporaries, and blocks of 4096 took
# twice the faults of 2048 (234 against 117 per search) and 5-15% longer.
# With two verify workers sharing the cache (2 vCPUs, 1000 instances at
# seed 7, two sets of 10 alternating rounds), 2048 took a median of 1.165
# and 1.151 s, 1024 took 1.230 and 1.195 s (faster in 4 and 3 of 10
# rounds) and 4096 took 1.094 and 1.087 s (faster in 6 and 7 of 10): no
# size won 9 of 10, so 2048 stays.
_SAMPLE_BLOCK = 2048
# The bounds above are relative, so the filter needs every value it compares
# to be a normal float. A nonzero candidate has ||w||^2 >= 1e-16 (r_j >= 1e-8
# for u1 <= 1 - 2**-53), so gains of at least _SAMPLE_FLOOR keep every
# product of the exact scan normal, with 1e11 to spare, when ||h_d||^2 and
# ||a||^2 stay below 1 / _SAMPLE_FLOOR and a nonzero cap above
# _SAMPLE_FLOOR max(1, ||a||^2), which keeps the back-off factor normal.
_SAMPLE_FLOOR = 1e-280


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Outcome of one brute-force search.

    best_alpha is the winning family position (None for searches not
    parameterized by alpha or when nothing was feasible); best_rate is the
    best feasible downlink rate found (-inf when nothing was feasible);
    max_violation is the worst SI overshoot among accepted candidates and
    must stay below 1e-9 (the sampling search backs every candidate off
    onto the cap, so its overshoot is rounding, within 2 ulp of the cap);
    degenerate flags an all-infeasible grid, which only happens in the
    parallel corner.
    """

    best_alpha: Optional[float]
    best_rate: float
    best_w: Optional[np.ndarray]
    samples_tested: int
    max_violation: float
    n_feasible: int
    degenerate: bool = False


def feasible(w, realization, tol=1e-9):
    """True iff w meets both constraints up to tol: SI cap and unit power."""
    w = np.asarray(w, dtype=np.complex128)
    si = si_power(w, realization.H, realization.v)
    return si <= realization.epsilon + tol and norm_sq(w) <= 1.0 + tol


def grid_search(realization, grid_points, rho=1.0, tol=GRID_FEAS_TOL):
    """Scan the matched-to-nulled family on a uniform alpha grid.

    Deterministic. Keeps candidates whose leakage is within tol of the cap
    and returns the best by downlink rate at SNR rho. An all-infeasible grid
    (parallel corner) comes back flagged degenerate with best_rate = -inf.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    h_d = realization.h_d
    a = realization.effective_si_vector()
    p = _leakage_split(h_d, a)[0]
    best_idx, best_gain, n_feasible, max_violation = kernels.grid_scan(
        h_d, p, a, realization.epsilon, int(grid_points), float(tol))
    if best_idx < 0:
        return OracleReport(best_alpha=None, best_rate=float("-inf"), best_w=None,
                            samples_tested=int(grid_points),
                            max_violation=max_violation, n_feasible=0,
                            degenerate=True)
    best_alpha = best_idx / (grid_points - 1)
    return OracleReport(best_alpha=best_alpha,
                        best_rate=math.log2(1.0 + rho * best_gain),
                        best_w=_member(best_alpha, h_d, a, p).w,
                        samples_tested=int(grid_points),
                        max_violation=max_violation, n_feasible=int(n_feasible))


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
    _SAMPLE_FLOOR).
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
    g_hi = np.empty(samples)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, samples, _SAMPLE_BLOCK):
            blk = slice(lo, lo + _SAMPLE_BLOCK)
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
            # the high downlink end with the low leakage end, and at the
            # end the reverse
            g_hi[blk] = _backed_off_gain(q[0] + widen_x, np.maximum(q[1] - widen_y, 0.0), eps)
        x2, y2 = gains
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
    Deterministic given rng, and a Generator ends 2 * samples * n_t
    uniforms further on.

    Two passes over the draw give the result of one exact scan of every
    candidate: _sampling_filter bounds every candidate's gain with float32
    trig, and only the few that can still win are rebuilt with the exact
    Box-Muller transform and scanned by kernels.sample_scan, whose rows do
    not depend on each other. best_rate and best_w are therefore those of
    the exhaustive scan, bit for bit. max_violation is the worst back-off
    overshoot over all candidates, from the exact leakage of the rescanned
    ones and the filter's leakage of the rest. Both round the same formula
    eps / si * si - eps, so it stays within 2 ulp of eps either way.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    samples = int(samples)
    h_d = realization.h_d
    a = realization.effective_si_vector()
    eps = realization.epsilon
    n_t = h_d.shape[0]
    gen = rng.generator() if isinstance(rng, RngState) else rng
    U1, U2 = (u.reshape(samples, n_t)
              for u in box_muller_uniforms(gen, samples * n_t))
    rows, filtered_violation = _sampling_filter(h_d, a, eps, U1, U2)
    if rows is not None:
        U1, U2 = U1[rows], U2[rows]
    W = box_muller(U1, U2)
    k, best_gain, best_scale, max_violation = kernels.sample_scan(h_d, a, eps, W)
    row = W[k]
    best_w = row * (best_scale / math.sqrt(norm_sq(row)))
    return OracleReport(best_alpha=None,
                        best_rate=math.log2(1.0 + rho * best_gain),
                        best_w=best_w, samples_tested=samples,
                        max_violation=max(max_violation, filtered_violation),
                        n_feasible=samples)


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
    closed_inputs = []
    grid_inputs = []
    for r in realizations:
        h_d = np.ascontiguousarray(r.h_d, dtype=np.complex128)
        H = np.ascontiguousarray(r.H, dtype=np.complex128)
        v = np.ascontiguousarray(r.v, dtype=np.complex128)
        closed_inputs.append((h_d, H, v, float(r.epsilon)))
        grid_inputs.append((h_d, H, v, float(r.epsilon), int(grid_points)))

    def run_grid(h_d, H, v, eps, n_grid):
        a = H.conj().T @ v
        return kernels.grid_scan(h_d, _leakage_split(h_d, a)[0], a, eps, n_grid,
                                 GRID_FEAS_TOL)

    kernels.solve_one(*closed_inputs[0])
    run_grid(*grid_inputs[0])
    closed, grid = [], []
    for k in range(passes):
        if k % 2 == 0:
            closed.append(_per_solve_ns(kernels.solve_one, closed_inputs))
            grid.append(_per_solve_ns(run_grid, grid_inputs))
        else:
            grid.append(_per_solve_ns(run_grid, grid_inputs))
            closed.append(_per_solve_ns(kernels.solve_one, closed_inputs))
    return (float(statistics.median(closed)), float(statistics.median(grid)),
            float(statistics.median(g / c for g, c in zip(grid, closed))))
