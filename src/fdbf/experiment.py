"""Monte Carlo harness: throughput-gain and power-saving sweeps.

Two scalar figures of merit compare the optimal beamformer against
zero-forcing under identical transmit power:

  * throughput gain, E[rate_opt / rate_zf] - 1: relative downlink rate
    increase at a given SNR;
  * power saving, 1 - E[gain_zf / gain_opt]: fraction of transmit power the
    optimal beamformer could shed and still match the zero-forcing rate.
    The gain ratio contains no SNR term, so this metric is independent of
    rho by construction.

Sweeps share channel draws across the whole grid: per-trial RNG streams
are keyed by trial index, and each stream's words are drawn once per
sweep, in vectorized chunks of trials that reproduce the per-trial draws
bit for bit. Every n_t reads a prefix of those words, so the geometry for
a given (seed, trial, n_t) is built exactly once, solved for every rho and
c with the rest of its chunk, and then dropped. Ratio means and their
confidence intervals are exact up to one final rounding, so they do not
depend on the order of the trials: the sums are correctly rounded, with
math.fsum's bits, and computed without a Python loop over the values.

Trials where zero-forcing is degenerate (downlink channel parallel to the
leakage direction, impossible under continuous fading but reachable with
adversarial inputs) are excluded from the ratio averages and surfaced
through a per-point counter.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from . import kernels
from .beamform import dl_rate, optimal, zf
from .channel import (ChannelRealization, db_to_linear, draw_realization,
                      draw_streams, require_int, si_threshold, stream_words)
from .numerics import RngState, one_at_a_time, prepare_stream_drawer

# two-sided 95% normal quantile
_Z95 = 1.959963984540054


class ZeroRateError(ValueError):
    """Some trial's zero-forcing rate log2(1 + rho g_zf) rounds to 0."""


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
        for n_t in self.n_t:
            require_int(n_t, "n_t")
            if n_t < 1:
                raise ValueError(f"n_t must be >= 1, got {n_t}")

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
# cache-sized and peak memory flat in the trial count. It alone bounds the
# rows in flight, as kernels.solve_batch solves a chunk in one pass: a chunk
# of floor(2**16 / 2 (n_r + top + n_r top)) trials has rows * n_t <
# 2**15 / (1 + n_r) <= 2**14 entries, unless it is one trial. Under the
# heap policy (procs.keep_freed_memory) a one-worker figure sweep took 209
# page faults with half, this or twice this, in the same time within
# noise; without it glibc re-faults its temporaries: 10.1k, 8.9k and 8k.
_WORDS_PER_PASS = 1 << 16


class _Draw(NamedTuple):
    """One chunk of trials at one n_t, as _draws yields it.

    rows is the slice of trial indices; h_u (rows, n_r) and v are shared
    by every n_t of the chunk; h_d (rows, n_t), H (rows, n_r, n_t) and
    a = H^H v (rows, n_t) are this n_t's.
    """

    rows: slice
    n_t: int
    h_u: np.ndarray
    h_d: np.ndarray
    H: np.ndarray
    v: np.ndarray
    a: np.ndarray


def _chunk_trials(n_r, top):
    """Trials per chunk of _draws when the largest n_t is `top`."""
    return max(1, _WORDS_PER_PASS // stream_words(n_r, top))


def _draws(cfg, trials, n_ts, chunks=None):
    """Channels of trials 0 .. trials - 1 for each n_t, chunk by chunk.

    Yields a _Draw for each chunk of trials and each n_t in n_ts, in that
    order; `chunks`, a range of chunk indices, draws only those. Trial t
    reads stream (cfg.seed, t), and its chunk's rows are draw_streams's,
    so they are draw_realization(cfg with n_t, RngState(cfg.seed, t)),
    whichever chunks are drawn.
    """
    chunk = _chunk_trials(cfg.n_r, max(n_ts))
    if chunks is None:
        chunks = range(-(-trials // chunk))
    for k in chunks:
        rows = slice(k * chunk, min((k + 1) * chunk, trials))
        streams = np.arange(rows.start, rows.stop)
        for n_t, h_u, h_d, H, v in draw_streams(cfg, cfg.seed, streams, n_ts):
            a = np.matmul(H.conj().transpose(0, 2, 1), v[:, :, None])[:, :, 0]
            yield _Draw(rows, n_t, h_u, h_d, H, v, a)


def draw_batch(cfg):
    """Channel geometry for cfg.trials independent draws, one RNG stream each.

    Returns (h_d, a) of shape (trials, n_t): the downlink channels and the
    effective leakage directions a = H^H v. Row t is bit-identical to
    draw_realization(cfg, RngState(cfg.seed, t)). This is the one-n_t view
    of the chunk drawer run_sweep solves from, with every chunk kept.
    """
    h_d = np.empty((cfg.trials, cfg.n_t), dtype=np.complex128)
    a = np.empty((cfg.trials, cfg.n_t), dtype=np.complex128)
    for d in _draws(cfg, cfg.trials, (cfg.n_t,)):
        h_d[d.rows], a[d.rows] = d.h_d, d.a
    return h_d, a


def draw_realizations(cfg, n):
    """draw_realization(cfg, RngState(cfg.seed, t)) for t = 0 .. n - 1, lazily.

    Bit-identical to the per-trial draws, but drawn chunk by chunk through
    the sweep's drawer, so memory stays flat in n. Each realization's
    arrays are views into its chunk's rows.
    """
    eps = si_threshold(cfg)
    for d in _draws(cfg, n, (cfg.n_t,)):
        for h_u, h_d, H, v in zip(d.h_u, d.h_d, d.H, d.v):
            yield ChannelRealization(h_u=h_u, h_d=h_d, H=H, v=v, epsilon=eps)


# on sweep ratios two passes leave a few residuals at most and a third
# finds none; values spread over more binades leave more to the final fsum
_EXTRACT_PASSES = 3
_SIGMA_MIN = 2.0 ** -1022  # sigma must be a normal float for the sums
_SIGMA_MAX = 2.0 ** 1023   # of q to be exact and sigma + r to stay finite


def _exact_sum(x):
    """math.fsum(x.tolist()) bit for bit, with no Python loop over x.

    Error-free vector extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput.
    31(1), 2008): with sigma a power of two >= (n + 2) max|r|,
    q = (sigma + r) - sigma is r on a grid of ulp(sigma) / 2, so both
    q and r - q are exact and every partial sum of q is exact, whatever
    the order. The sums of q and the residuals left after the passes then
    go to fsum, whose correctly rounded result depends only on the exact
    sum. When sigma would leave the normal range (huge or subnormal
    values, or none left), extraction stops early; if it never started,
    fsum gets x itself, in order, and raises what it raises on x.
    """
    n = len(x)
    partials = []
    r = x
    for _ in range(_EXTRACT_PASSES):
        top = float(np.max(np.abs(r), initial=0.0)) * (n + 2)
        if not _SIGMA_MIN <= top < _SIGMA_MAX:
            break
        sigma = math.ldexp(1.0, math.frexp(top)[1])
        q = (sigma + r) - sigma
        partials.append(float(np.sum(q)))
        r = r - q
    tail = r[r != 0.0] if partials else r
    return math.fsum(partials + tail.tolist())


def _pow_squares(d):
    """[v ** 2 for v in d.tolist()] bit for bit, as a float64 array.

    numpy's d * d is correctly rounded; a Python float's ** 2 is libm pow,
    which may round the other way near a rounding midpoint. np.float_power
    calls libm pow on each element, as ** 2 does (np.power may not: it can
    take a vectorized pow). Where a finite d squares to inf, ** 2 raises
    OverflowError, and so does this.
    """
    with np.errstate(over="ignore"):
        s = np.float_power(d, 2.0)
    over = np.isinf(s)
    if over.any() and np.isfinite(d[over]).any():
        raise OverflowError("square out of range")
    return s


def _mean_ci(values):
    """(mean, 95% half-width) of a float64 array; (nan, nan) if empty.

    Both sums are correctly rounded, so they are exact up to one final
    rounding and do not depend on the order of the values: they are
    math.fsum's bits. The squared deviations are libm pow's, as a Python
    float's ** 2 gives them. So the result is that of the scalar
    fsum-and-** 2 form bit for bit. Raises ValueError on a value that is
    not finite; an empty array, where every trial was excluded, gives NaN.
    """
    m = len(values)
    if m == 0:
        return float("nan"), float("nan")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    mean = _exact_sum(values) / m
    if m == 1:
        return mean, 0.0
    with np.errstate(over="ignore"):  # an inf d squares to inf, as a float's does
        d = values - mean
    var = _exact_sum(_pow_squares(d)) / (m - 1)
    return mean, _Z95 * math.sqrt(var / m)


def run_sweep(cfg, axes=None, workers=1):
    """Monte Carlo sweep over the (n_t, rho_db, c_db) grid.

    Each trial's stream is drawn once per sweep and shared by every n_t as
    a prefix. Channels are solved chunk by chunk, each (chunk, n_t) pair
    with the whole c axis in one call, and then dropped: only the gains and
    the zero-forcing flags are kept. The zero-forcing rates are computed
    once per (n_t, rho) and the gain ratios once per (n_t, c) and reused
    across rho, so the power-saving column is bit-identical along the rho
    axis by construction. Deterministic given (cfg.seed, axes). Raises
    ZeroRateError where some trial's zero-forcing rate rounds to 0.

    `workers` processes, forked once, share the work through two stages of
    procs.fork_stages: each draws and solves a range of chunks into shared
    arrays, and once every chunk is solved, aggregates a range of (n_t, c)
    columns. A chunk's bits do not depend on which process draws it and the
    sums are exact, so neither does the result.
    """
    from . import procs  # not at import, so importing experiment skips it

    if axes is None:
        axes = SweepAxes.from_config(cfg)
    eps = np.array([si_threshold(cfg.replace(c_db=float(c_db)))
                    for c_db in axes.c_db])
    rhos = [db_to_linear(float(rho_db)) for rho_db in axes.rho_db]
    n = cfg.trials
    n_ts = tuple(dict.fromkeys(int(n_t) for n_t in axes.n_t))
    # per n_t: gain_opt (caps, trials), gain_zf and zf_ok (trials,)
    gain_opt = procs.shared_empty((len(n_ts), len(eps), n))
    gain_zf = procs.shared_empty((len(n_ts), n))
    zf_ok = procs.shared_empty((len(n_ts), n), bool)

    def solve(chunk):
        for d in _draws(cfg, n, n_ts, range(chunk, chunk + 1)):
            j = n_ts.index(d.n_t)
            _, _, g_opt, g_zf, _, ok = kernels.solve_batch(d.h_d, d.a, eps)
            gain_opt[j, :, d.rows], gain_zf[j, d.rows], zf_ok[j, d.rows] = (
                g_opt, g_zf, ok)

    @functools.lru_cache(maxsize=1)  # columns come in n_t order
    def zero_forcing(j):
        keep = np.flatnonzero(zf_ok[j])
        g_zf = gain_zf[j, keep]
        rate_zf = [np.log2(1.0 + rho * g_zf) for rho in rhos]
        for rho_db, rate in zip(axes.rho_db, rate_zf):
            if not rate.all():
                raise ZeroRateError(f"rho_db = {float(rho_db)!r} rounds some "
                                    f"trial's zero-forcing rate to 0")
        return keep, g_zf, rate_zf

    def aggregate(column):
        j, k = column
        keep, g_zf, rate_zf = zero_forcing(j)
        g_opt = gain_opt[j, k, keep]
        tg = [_mean_ci(np.log2(1.0 + rho * g_opt) / r_zf - 1.0)
              for rho, r_zf in zip(rhos, rate_zf)]
        return n - keep.size, _mean_ci(1.0 - g_zf / g_opt), tg

    chunk = _chunk_trials(cfg.n_r, max(n_ts))
    chunks = range(-(-n // chunk))
    columns = [(j, k) for j in range(len(n_ts)) for k in range(len(eps))]
    stages = [(solve, chunks), (aggregate, columns)]
    # the last chunk is the smallest: if it reads through stream_generator,
    # make its drawer here, so the workers inherit it and numpy.random; if
    # none does, the drawer and numpy.random are never loaded
    if one_at_a_time(n - chunk * (len(chunks) - 1),
                     stream_words(cfg.n_r, max(n_ts))):
        prepare_stream_drawer()
    aggregates = iter(procs.fork_stages(stages, workers)[1])
    points = {}
    for n_t in n_ts:
        points[n_t] = []
        for c_db in axes.c_db:
            n_excluded, (ps_mean, ps_ci), tg = next(aggregates)
            for rho_db, (tg_mean, tg_ci) in zip(axes.rho_db, tg):
                points[n_t].append(SweepPoint(
                    n_t=n_t, rho_db=float(rho_db), c_db=float(c_db),
                    tg_mean=tg_mean, tg_ci=tg_ci, ps_mean=ps_mean,
                    ps_ci=ps_ci, n_excluded=n_excluded))
    return SweepResult(axes=axes, trials=n, seed=cfg.seed,
                       points=tuple(pt for n_t in axes.n_t
                                    for pt in points[int(n_t)]))
