"""Brute-force certifiers for the closed-form beamformer.

Two independent searches bound the closed form from below and from the side:

  * grid_search sweeps the one-parameter matched-to-nulled family on a
    uniform grid, keeping the best feasible candidate. The optimum provably
    lies in this family except in the measure-zero parallel corner, so the
    grid is a complete certificate up to its resolution.
  * random_feasible_search samples isotropic random directions in C^{n_t},
    backs each off in power onto the cap when needed, and keeps the best.
    It certifies global optimality empirically without assuming the family.

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
from .beamform import family, si_power
from .numerics import RngState, _standard_complex_normal, norm_sq

# Grid feasibility slack. Has to admit exact boundary candidates whose
# leakage lands last-ulp above the cap (so the alpha* grid point itself is
# never rejected) while keeping any accepted overshoot far below the 1e-9
# report invariant; 1e-12 absolute does both for caps down to 1e-6.
GRID_FEAS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Outcome of one brute-force search.

    best_alpha is the winning family position (None for searches not
    parameterized by alpha or when nothing was feasible); best_rate is the
    best feasible downlink rate found (-inf when nothing was feasible);
    max_violation is the worst SI overshoot among accepted candidates and
    must stay below 1e-9; degenerate flags an all-infeasible grid, which
    only happens in the parallel corner.
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


def _along(h_d, a):
    """Component p = a (a^H h_d)/||a||^2 of h_d along a; zero when a = 0."""
    gram = np.vdot(a, a).real
    if gram > 0.0:
        return a * (np.vdot(a, h_d) / gram)
    return np.zeros_like(a)


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
    best_idx, best_gain, n_feasible, max_violation = kernels.grid_scan(
        h_d, _along(h_d, a), a, realization.epsilon, int(grid_points), float(tol))
    if best_idx < 0:
        return OracleReport(best_alpha=None, best_rate=float("-inf"), best_w=None,
                            samples_tested=int(grid_points),
                            max_violation=max_violation, n_feasible=0,
                            degenerate=True)
    best_alpha = best_idx / (grid_points - 1)
    return OracleReport(best_alpha=best_alpha,
                        best_rate=math.log2(1.0 + rho * best_gain),
                        best_w=family(best_alpha, h_d, a).w,
                        samples_tested=int(grid_points),
                        max_violation=max_violation, n_feasible=int(n_feasible))


def random_feasible_search(realization, samples, rng, rho=1.0):
    """Best downlink rate over random isotropic candidates forced feasible.

    Directions are normalized i.i.d. complex Gaussians; any candidate whose
    unit-power leakage exceeds the cap is backed off in power until the
    leakage sits exactly on it, so every sample yields a feasible candidate.
    Deterministic given rng.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    h_d = realization.h_d
    a = realization.effective_si_vector()
    n_t = h_d.shape[0]
    gen = rng.generator() if isinstance(rng, RngState) else rng
    W = _standard_complex_normal(gen, int(samples) * n_t).reshape(int(samples), n_t)
    best_idx, best_gain, best_scale, max_violation = kernels.sample_scan(
        h_d, a, realization.epsilon, W)
    row = W[best_idx]
    best_w = row * (best_scale / math.sqrt(norm_sq(row)))
    return OracleReport(best_alpha=None,
                        best_rate=math.log2(1.0 + rho * best_gain),
                        best_w=best_w, samples_tested=int(samples),
                        max_violation=float(max_violation),
                        n_feasible=int(samples))


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
        return kernels.grid_scan(h_d, _along(h_d, a), a, eps, n_grid,
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
