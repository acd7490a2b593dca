"""Monte Carlo harness: throughput-gain and power-saving sweeps.

Two scalar figures of merit compare the optimal beamformer against
zero-forcing under identical transmit power:

  * throughput gain, E[rate_opt / rate_zf] - 1: relative downlink rate
    increase at a given SNR;
  * power saving, 1 - E[gain_zf / gain_opt]: fraction of transmit power the
    optimal beamformer could shed and still match the zero-forcing rate.
    The gain ratio contains no SNR term, so this metric is independent of
    rho by construction.

Sweeps share channel draws across every grid point that only differs in
rho or c: per-trial RNG streams are keyed by trial index, the whole batch
of streams is drawn in one vectorized pass that reproduces the per-trial
draws bit for bit, and the downlink/leakage geometry for a given
(seed, trial, n_t) is drawn exactly once. Ratio averages use
compensated summation to stay order-insensitive at the 1e-12 level.

Trials where zero-forcing is degenerate (downlink channel parallel to the
leakage direction, impossible under continuous fading but reachable with
adversarial inputs) are excluded from the ratio averages and surfaced
through a per-point counter.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import kernels
from .beamform import dl_rate, optimal, si_power, zf
from .channel import db_to_linear, draw_realization, ricean_params, si_threshold
from .numerics import (RngState, box_muller, inner, norm_sq, philox_raw,
                       uniforms)

# two-sided 95% normal quantile
_Z95 = 1.959963984540054


def throughput_gain(rate_opt, rate_zf):
    """Per-trial throughput gain rate_opt/rate_zf - 1. Requires rate_zf > 0."""
    if not rate_zf > 0.0:
        raise ValueError(f"rate_zf must be > 0, got {rate_zf}")
    return rate_opt / rate_zf - 1.0

def power_saving(gain_opt, gain_zf):
    """Per-trial power saving 1 - gain_zf/gain_opt. Requires gain_opt > 0."""
    if not gain_opt > 0.0:
        raise ValueError(f"gain_opt must be > 0, got {gain_opt}")
    return 1.0 - gain_zf / gain_opt


@dataclass(frozen=True)
class TrialRecord:
    """One Monte Carlo trial: both beamformers on one channel draw.

    gain_* are squared downlink amplitudes of the unit-norm beamformers,
    rate_* the corresponding spectral efficiencies at the configured SNR.
    tg_ratio = rate_opt/rate_zf and ps_ratio = gain_zf/gain_opt are the raw
    ratios whose averages the sweep metrics are built from.
    """

    trial_index: int
    alpha_star: float
    rate_opt: float
    rate_zf: float
    gain_opt: float
    gain_zf: float
    si_opt: float
    tg_ratio: float
    ps_ratio: float


@dataclass(frozen=True)
class SweepAxes:
    """Grid of sweep coordinates: antenna counts, SNRs (dB), SIC levels (dB)."""

    n_t: Tuple[int, ...]
    rho_db: Tuple[float, ...]
    c_db: Tuple[float, ...]

    def __post_init__(self):
        if not (self.n_t and self.rho_db and self.c_db):
            raise ValueError("every sweep axis needs at least one value")

    @classmethod
    def from_config(cls, cfg):
        return cls((cfg.n_t,), (cfg.rho_db,), (cfg.c_db,))


@dataclass(frozen=True)
class SweepPoint:
    """Aggregates at one (n_t, rho_db, c_db) grid point.

    n_excluded counts degenerate-zero-forcing trials left out of both ratio
    averages; ci fields are 95% normal-approximation half-widths.
    """

    n_t: int
    rho_db: float
    c_db: float
    tg_mean: float
    tg_ci: float
    ps_mean: float
    ps_ci: float
    n_excluded: int


@dataclass(frozen=True)
class SweepResult:
    """All grid points of one sweep plus the Monte Carlo controls."""

    axes: SweepAxes
    points: Tuple[SweepPoint, ...]
    trials: int
    seed: int

    def point(self, n_t, rho_db, c_db):
        for pt in self.points:
            if pt.n_t == n_t and pt.rho_db == rho_db and pt.c_db == c_db:
                return pt
        raise KeyError(f"no grid point ({n_t}, {rho_db}, {c_db})")


def run_trial(cfg, trial_index):
    """Reference single-trial path through the full object API.

    Returns None for a degenerate-zero-forcing draw. The sweep path uses the
    batched kernels; this function exists as the slow, readable mirror the
    tests compare against.
    """
    r = draw_realization(cfg, RngState(cfg.seed, trial_index))
    a = r.effective_si_vector()
    z = zf(r.h_d, a)
    if z.degenerate:
        return None
    opt = optimal(r.h_d, r.H, r.v, r.epsilon)
    rho = db_to_linear(cfg.rho_db)
    rate_opt = dl_rate(opt.w, r.h_d, rho)
    rate_zf = dl_rate(z.w, r.h_d, rho)
    return TrialRecord(trial_index=trial_index, alpha_star=opt.alpha,
                       rate_opt=rate_opt, rate_zf=rate_zf,
                       gain_opt=opt.dl_gain, gain_zf=z.dl_gain,
                       si_opt=opt.si_power,
                       tg_ratio=rate_opt / rate_zf,
                       ps_ratio=z.dl_gain / opt.dl_gain)


# raw words drawn per vectorized pass: keeps the temporaries of one pass
# cache-sized and peak memory flat in the trial count
_WORDS_PER_PASS = 1 << 16


def _gaussian_columns(u, start, k, mean=0.0, std=1.0):
    """CN(mean, std^2) rows from uniform columns start .. start + 2k.

    Consumes k uniforms for u1 and then k for u2, the order in which
    sample_complex_gaussian consumes a stream, and scales the same way.
    """
    u1 = 1.0 - u[:, start:start + k]
    u2 = np.ascontiguousarray(u[:, start + k:start + 2 * k])
    return complex(mean) + float(std) * box_muller(u1, u2)


def draw_batch(cfg, trials=None):
    """Channel geometry for `trials` independent draws, one RNG stream each.

    Returns (h_d, a) of shape (trials, n_t): the downlink channels and the
    effective leakage directions a = H^H v. Row t is bit-identical to
    draw_realization(cfg, RngState(cfg.seed, t)): the raw words of all
    streams of a chunk come from one vectorized Philox pass and then go
    through the per-trial path's operations in the same order, batched.
    """
    n = cfg.trials if trials is None else int(trials)
    n_r, n_t = cfg.n_r, cfg.n_t
    mean, std = ricean_params(cfg.k_factor_db, cfg.omega_db)
    words = 2 * (n_r + n_t + n_r * n_t)
    chunk = max(1, _WORDS_PER_PASS // words)
    h_d = np.empty((n, n_t), dtype=np.complex128)
    a = np.empty((n, n_t), dtype=np.complex128)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        u = uniforms(philox_raw(cfg.seed, np.arange(lo, hi), words))
        h_u = _gaussian_columns(u, 0, n_r)
        h_d[lo:hi] = _gaussian_columns(u, 2 * n_r, n_t)
        H = _gaussian_columns(u, 2 * (n_r + n_t), n_r * n_t, mean, std)
        with np.errstate(invalid="ignore"):  # all-zero rows are replayed below
            v = h_u / np.sqrt(np.vecdot(h_u, h_u).real)[:, None]
        H_adj = H.reshape(hi - lo, n_r, n_t).conj().transpose(0, 2, 1)
        a[lo:hi] = np.matmul(H_adj, v[:, :, None])[:, :, 0]
        # an all-zero h_u is redrawn from the same stream: replay that trial
        for t in lo + np.flatnonzero(~np.any(h_u, axis=1)):
            r = draw_realization(cfg, RngState(cfg.seed, int(t)))
            h_d[t] = r.h_d
            a[t] = r.effective_si_vector()
    if not np.all(np.isfinite(h_d)):
        raise ValueError("vector entries must be finite")
    return h_d, a


def _mean_ci(values):
    """(mean, 95% half-width) by compensated summation; (nan, nan) if empty.

    Works on Python floats: scalar `** 2` is libm pow, which an array
    square does not reproduce bit for bit.
    """
    xs = values.tolist()
    m = len(xs)
    if m == 0:
        return float("nan"), float("nan")
    mean = math.fsum(xs) / m
    if m == 1:
        return mean, 0.0
    var = math.fsum([(x - mean) ** 2 for x in xs]) / (m - 1)
    return mean, _Z95 * math.sqrt(var / m)


def run_sweep(cfg, axes=None):
    """Monte Carlo sweep over the (n_t, rho_db, c_db) grid.

    For each n_t the channel set is drawn once and the whole c axis is
    solved in one pass; the zero-forcing rates are computed once per
    (n_t, rho) and the gain ratios once per (n_t, c) and reused across rho,
    so the power-saving column is bit-identical along the rho axis by
    construction. Deterministic given (cfg.seed, axes).
    """
    if axes is None:
        axes = SweepAxes.from_config(cfg)
    eps = np.array([si_threshold(cfg.replace(c_db=float(c_db)))
                    for c_db in axes.c_db])
    rhos = [db_to_linear(float(rho_db)) for rho_db in axes.rho_db]
    points = []
    for n_t in axes.n_t:
        cfg_nt = cfg.replace(n_t=int(n_t))
        h_d, a = draw_batch(cfg_nt, cfg.trials)
        _, _, gain_opt, gain_zf, _, zf_ok = kernels.solve_batch(h_d, a, eps)
        keep = np.flatnonzero(zf_ok)
        n_excluded = cfg.trials - keep.size
        g_zf = gain_zf[keep]
        rate_zf = [np.log2(1.0 + rho * g_zf) for rho in rhos]
        for c_db, gain in zip(axes.c_db, gain_opt):
            g_opt = gain[keep]
            ps_mean, ps_ci = _mean_ci(1.0 - g_zf / g_opt)
            for rho_db, rho, r_zf in zip(axes.rho_db, rhos, rate_zf):
                tg_mean, tg_ci = _mean_ci(np.log2(1.0 + rho * g_opt) / r_zf - 1.0)
                points.append(SweepPoint(n_t=int(n_t), rho_db=float(rho_db),
                                         c_db=float(c_db), tg_mean=tg_mean,
                                         tg_ci=tg_ci, ps_mean=ps_mean,
                                         ps_ci=ps_ci, n_excluded=n_excluded))
    return SweepResult(axes=axes, points=tuple(points), trials=cfg.trials,
                       seed=cfg.seed)


def uplink_sinr(realization, w, p_u, p_d, sigma2):
    """Uplink SINR through combiner v: p_u|v^H h_u|^2 / (p_d|v^H H w|^2 + s2‖v‖^2)."""
    if p_u < 0.0 or p_d < 0.0 or sigma2 < 0.0:
        raise ValueError("powers must be >= 0")
    v = realization.v
    signal = p_u * abs(inner(v, realization.h_u)) ** 2
    denom = p_d * si_power(w, realization.H, v) + sigma2 * norm_sq(v)
    if denom == 0.0:
        raise ValueError("zero denominator: no self-interference and no noise")
    return signal / denom
