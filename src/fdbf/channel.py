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

from .numerics import (RngState, as_cvector, matvec_adj, sample_complex_gaussian,
                       stream_generator)


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


def draw_realization(cfg, rng):
    """Draw one ChannelRealization.

    Draw order within the stream is fixed (h_u, then h_d, then H row-major)
    so a realization is fully determined by (cfg, rng): an RngState, read
    from its stream's start by stream_generator, or a Generator, advanced.
    The combiner is the matched filter v = h_u / ||h_u||; the measure-zero
    event ||h_u|| = 0 is redrawn from the same stream.
    """
    gen = (stream_generator(rng.seed, rng.stream_id)
           if isinstance(rng, RngState) else rng)
    h_u = sample_complex_gaussian(gen, cfg.n_r)
    while not np.any(h_u):
        h_u = sample_complex_gaussian(gen, cfg.n_r)
    h_d = sample_complex_gaussian(gen, cfg.n_t)
    mean, std = ricean_params(cfg.k_factor_db, cfg.omega_db)
    H = sample_complex_gaussian(gen, cfg.n_r * cfg.n_t, mean=mean, std=std)
    H = H.reshape(cfg.n_r, cfg.n_t)
    v = h_u / math.sqrt(np.vdot(h_u, h_u).real)
    return ChannelRealization(h_u=h_u, h_d=as_cvector(h_d), H=H, v=v,
                              epsilon=si_threshold(cfg))
