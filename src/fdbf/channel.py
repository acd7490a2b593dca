"""System configuration and stochastic channel generation.

A full-duplex node with n_t transmit and n_r receive antennas serves a
downlink user (channel h_d, Rayleigh) while receiving an uplink stream
(channel h_u, Rayleigh) through a residual self-interference channel H
(Ricean, near-field line-of-sight dominates). The uplink combiner v is the
matched filter h_u / ||h_u||.

Power bookkeeping is done in dB once, here: the self-interference power
constraint in the unit-power transmit domain is

    epsilon = 10 ** ((r_n_dbm - c_db - p_d_dbm) / 10)

i.e. residual leakage after cancellation (attenuation c_db) of a p_d_dbm
transmit signal must stay below the receiver noise floor r_n_dbm.
"""

import dataclasses
import math
import operator
from dataclasses import dataclass

import numpy as np

from .numerics import (box_muller_join, box_muller_phase, box_muller_radius,
                       matvec_adj, stream_uniforms)


def require_int(value, name):
    """Raise ValueError unless value is an integer (numpy's included)."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def db_to_linear(x_db):
    """Power ratio for a dB value; -inf maps to 0.0, and +inf or any value
    whose ratio overflows a float to inf."""
    if math.isnan(x_db):
        raise ValueError("dB value must not be NaN")
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SystemConfig:
    """Immutable experiment configuration.

    Antenna counts, link powers (dBm), self-interference cancellation c_db
    and Ricean statistics (k_factor_db, omega_db) of the residual channel,
    downlink SNR rho_db, and Monte Carlo controls (trials, seed).
    """

    n_t: int = 2
    n_r: int = 2
    p_d_dbm: float = 30.0
    r_n_dbm: float = -116.4
    c_db: float = -110.0
    omega_db: float = -30.0
    k_factor_db: float = 10.0
    rho_db: float = 0.0
    trials: int = 10000
    seed: int = 0

    def __post_init__(self):
        for name in ("n_t", "n_r", "trials", "seed"):
            require_int(getattr(self, name), name)
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.n_t < 1:
            raise ValueError("n_t must be >= 1")
        if self.n_r < 1:
            raise ValueError("n_r must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for name in ("p_d_dbm", "r_n_dbm", "c_db", "omega_db", "rho_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if math.isnan(self.k_factor_db):
            raise ValueError("k_factor_db must not be NaN")
        mean, std = ricean_params(self.k_factor_db, self.omega_db)
        if not (math.isfinite(mean) and math.isfinite(std)):
            raise ValueError(f"k_factor_db = {self.k_factor_db!r} and omega_db "
                             f"= {self.omega_db!r} give an SI channel whose "
                             f"Ricean mean or std is not finite")
        # a Box-Muller draw has |z|^2 = -log(u1) <= 53 ln 2 < 36.8, as
        # u1 >= 2**-53, so |z| < 6.07: ||h_d||^2 <= 36.8 n_t, and as ||v|| = 1,
        # ||a||^2 = ||H^H v||^2 <= ||H||_F^2 <= n_t n_r (mean + 6.07 std)^2;
        # a beamformer with ||w|| <= 1 has rho |h_d^H w|^2 <= rho ||h_d||^2
        entry = mean + 6.07 * std
        if math.isinf(36.8 * self.n_t * db_to_linear(self.rho_db)):
            raise ValueError(f"rho_db = {self.rho_db!r} can make rho ||h_d||^2 "
                             f"overflow a float at n_t = {self.n_t}")
        if math.isinf(36.8 * self.n_t * self.n_t * self.n_r * entry * entry):
            raise ValueError(f"omega_db = {self.omega_db!r} (k_factor_db = "
                             f"{self.k_factor_db!r}) can make ||h_d||^2 "
                             f"||a||^2 overflow a float at n_t = {self.n_t}, "
                             f"n_r = {self.n_r}")

    def replace(self, **changes):
        """Copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


def si_threshold(cfg):
    """Self-interference power cap for a unit-power transmit vector.

    Residual leakage of the actual p_d_dbm transmit signal, after c_db of
    cancellation, must not exceed the noise floor r_n_dbm; dividing the
    resulting power cap by the transmit power lands it in the ||w|| <= 1
    domain used by the beamformers.
    """
    eps = db_to_linear(cfg.r_n_dbm - cfg.c_db - cfg.p_d_dbm)
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"si threshold must be finite and positive, got {eps}")
    return eps


def ricean_params(k_factor_db, omega_db):
    """Per-entry (mean, std) of a Ricean channel with total power omega.

    K is the line-of-sight to scattered power ratio: mean^2 = omega * K/(K+1)
    and std^2 = omega / (K+1). K = inf (any K-factor in dB whose ratio
    overflows) collapses onto the deterministic mean, K = 0 (-inf dB) is
    pure Rayleigh.
    """
    omega = db_to_linear(omega_db)
    k = db_to_linear(k_factor_db)
    if math.isinf(k):
        return math.sqrt(omega), 0.0
    mean = math.sqrt(omega * k / (k + 1.0))
    std = math.sqrt(omega / (k + 1.0))
    return mean, std


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One Monte Carlo draw of the propagation state.

    h_u: uplink channel (n_r,), h_d: downlink channel (n_t,),
    H: residual self-interference channel (n_r, n_t),
    v: unit-norm uplink combiner (n_r,), epsilon: SI power cap.
    """

    h_u: np.ndarray
    h_d: np.ndarray
    H: np.ndarray
    v: np.ndarray
    epsilon: float

    def replace(self, **changes):
        return dataclasses.replace(self, **changes)

    def effective_si_vector(self):
        """a = H^H v, the transmit-side direction the combiner is exposed to."""
        return matvec_adj(self.H, self.v)


def stream_words(n_r, n_t):
    """Words of a stream that draw_streams reads at n_t: h_u, h_d and H,
    two words an entry."""
    return 2 * (n_r + n_t + n_r * n_t)


def _tables(u, spans, transform):
    """{(lo, hi): views of transform(u[:, lo:hi])} for each span (lo, hi).

    transform maps a block of columns to a tuple of tables of its shape,
    elementwise. It runs once on each maximal run of the columns the spans
    cover, and each span takes views into its run's tables, so a column
    that several spans cover is transformed once.
    """
    runs = []
    for lo, hi in sorted(spans):
        if runs and lo <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo, hi])
    views = {}
    for start, stop in runs:
        tables = transform(u[:, start:stop])
        for lo, hi in spans:
            if start <= lo and hi <= stop:
                views[lo, hi] = [t[:, lo - start:hi - start] for t in tables]
    return views


def draw_streams(cfg, seed, streams, n_ts):
    """Channels of the streams (seed, s), s in streams, at each n_t in n_ts.

    Yields (n_t, h_u, h_d, H, v) for each n_t in n_ts, in that order, with
    a row for each stream: h_u (rows, n_r) and the combiner v = h_u /
    ||h_u|| are shared by every n_t, h_d (rows, n_t) and H (rows, n_r, n_t)
    are this n_t's. This is the one statement of the stream layout. A
    stream is read as h_u, h_d, H (row-major), each k entries taking k
    uniforms U as u1 = 1 - U and then k as u2, joined by Box-Muller into
    CN(0, 1) draws; H is the Ricean mean + std z. An all-zero h_u, whose n_r
    u1 words are all 0, is redrawn from the stream's next 2 n_r words, and
    everything after it moves on with it. So each n_t's words are a prefix
    of the largest n_t's: stream_uniforms draws those once, and h_u and v
    are built once. Box-Muller runs once per word: the radius of every word
    some n_t reads as u1, and the cos and sin of every word some n_t reads
    as u2, are computed once over each maximal run of such words, and every
    variable of every n_t joins views into them. With one n_t the runs are
    the variables' own ranges.
    """
    n_r, top = cfg.n_r, max(n_ts)
    mean, std = ricean_params(cfg.k_factor_db, cfg.omega_db)
    words = stream_words(n_r, top)
    streams = np.asarray(streams, dtype=np.uint64).reshape(-1)
    u = stream_uniforms(seed, streams, words)
    for i in np.flatnonzero(~u[:, :n_r].any(axis=1)):
        skip = 0
        while not u[i, :n_r].any():
            skip += 2 * n_r
            u[i] = stream_uniforms(seed, streams[i:i + 1], skip + words)[0, skip:]
    # (first word, entries) of h_u, then of h_d and H at each n_t
    starts = [(0, n_r)]
    for n_t in n_ts:
        starts += [(2 * n_r, n_t), (2 * (n_r + n_t), n_r * n_t)]
    radius = _tables(u, {(w, w + m) for w, m in starts},
                     lambda block: (box_muller_radius(1.0 - block),))
    phase = _tables(u, {(w + m, w + 2 * m) for w, m in starts},
                    box_muller_phase)

    def gaussian(w, m, mean=0.0, std=1.0):
        z = box_muller_join(*radius[w, w + m], *phase[w + m, w + 2 * m])
        z = complex(mean) + float(std) * z
        if not np.isfinite(z).all():
            raise ValueError("channel entries must be finite")
        return z

    h_u = gaussian(0, n_r)
    v = h_u / np.sqrt(np.vecdot(h_u, h_u).real)[:, None]
    for n_t in n_ts:
        h_d = gaussian(2 * n_r, n_t)
        H = gaussian(2 * (n_r + n_t), n_r * n_t, mean, std)
        yield n_t, h_u, h_d, H.reshape(-1, n_r, n_t), v


def draw_realization(cfg, state):
    """The ChannelRealization of stream (state.seed, state.stream_id) at
    cfg's n_t and n_r: draw_streams on that lone stream, whose start it
    reads through numerics.stream_generator, so the same state always
    gives the same realization.
    """
    _, h_u, h_d, H, v = next(draw_streams(cfg, state.seed,
                                          state.stream_id, (cfg.n_t,)))
    return ChannelRealization(h_u=h_u[0], h_d=h_d[0], H=H[0], v=v[0],
                              epsilon=si_threshold(cfg))
