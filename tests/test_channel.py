import math

import numpy as np
import pytest

from fdbf.channel import (ChannelRealization, SystemConfig, db_to_linear,
                          draw_realization, ricean_params, si_threshold)
from fdbf.numerics import (RngState, box_muller_radius, norm_sq,
                           sample_complex_gaussian)


class TestDbToLinear:
    def test_decades(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(-30.0) == pytest.approx(1e-3)

    def test_infinities(self):
        assert db_to_linear(float("-inf")) == 0.0
        assert db_to_linear(float("inf")) == math.inf

    def test_overflow_is_inf_and_underflow_zero(self):
        assert db_to_linear(4000.0) == math.inf
        assert db_to_linear(-4000.0) == 0.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            db_to_linear(float("nan"))


class TestSiThreshold:
    def test_default_value(self):
        # r_n - c - p_d = -116.4 + 110 - 30 = -36.4 dB
        eps = si_threshold(SystemConfig())
        assert eps == pytest.approx(2.2908676527677702e-04, rel=1e-12)
        assert eps == pytest.approx(10.0 ** -3.64, rel=1e-15)

    def test_more_cancellation_raises_cap(self):
        lo = si_threshold(SystemConfig(c_db=-110.0))
        hi = si_threshold(SystemConfig(c_db=-120.0))
        assert hi == pytest.approx(10.0 * lo, rel=1e-12)

    def test_rejects_degenerate_cap(self):
        with pytest.raises(ValueError):
            si_threshold(SystemConfig(r_n_dbm=-10000.0))


class TestRiceanParams:
    def test_equal_split_at_zero_db(self):
        mean, std = ricean_params(0.0, 0.0)
        assert mean == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert std == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_total_power_is_omega(self):
        for k_db in (-10.0, 0.0, 10.0, 20.0):
            mean, std = ricean_params(k_db, -30.0)
            assert mean ** 2 + std ** 2 == pytest.approx(1e-3, rel=1e-12)

    def test_pure_line_of_sight(self):
        mean, std = ricean_params(float("inf"), -30.0)
        assert std == 0.0
        assert mean ** 2 == pytest.approx(1e-3, rel=1e-12)

    def test_overflowing_k_factor_is_line_of_sight(self):
        for omega_db in (-30.0, 0.0):
            assert ricean_params(4000.0, omega_db) == \
                ricean_params(float("inf"), omega_db)
            assert ricean_params(-4000.0, omega_db) == \
                ricean_params(float("-inf"), omega_db)

    def test_pure_scatter(self):
        mean, std = ricean_params(float("-inf"), -30.0)
        assert mean == 0.0
        assert std ** 2 == pytest.approx(1e-3, rel=1e-12)

    def test_entry_second_moment_statistical(self):
        # 1e5 draws at the default SI-channel statistics: E|H_ij|^2 within 3%
        mean, std = ricean_params(10.0, -30.0)
        z = sample_complex_gaussian(RngState(11, 0), 100_000, mean=mean, std=std)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1e-3, rel=0.03)


class TestSystemConfig:
    def test_defaults(self):
        cfg = SystemConfig()
        assert (cfg.n_t, cfg.n_r) == (2, 2)
        assert cfg.p_d_dbm == 30.0
        assert cfg.r_n_dbm == -116.4
        assert cfg.c_db == -110.0
        assert cfg.omega_db == -30.0
        assert cfg.k_factor_db == 10.0
        assert cfg.rho_db == 0.0
        assert cfg.trials == 10000
        assert cfg.seed == 0

    def test_replace(self):
        cfg = SystemConfig().replace(n_t=6, c_db=-90.0)
        assert cfg.n_t == 6 and cfg.c_db == -90.0

    @pytest.mark.parametrize("bad", [dict(n_t=0), dict(n_r=0), dict(trials=0),
                                     dict(rho_db=float("inf")),
                                     dict(k_factor_db=float("nan")),
                                     dict(rho_db=4000.0), dict(omega_db=4000.0),
                                     dict(k_factor_db=-4000.0, omega_db=3090.0)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SystemConfig(**bad)


    def test_refuses_an_si_power_whose_gram_bound_overflows(self):
        # the largest Box-Muller radius, at u1 = 2**-53, is within the bound
        assert box_muller_radius(2.0 ** -53) ** 2 < 36.8
        assert box_muller_radius(2.0 ** -53) < 6.07
        # at the defaults the bound reaches the float64 range near 3049 dB
        SystemConfig(omega_db=3048.0)
        with pytest.raises(ValueError, match="omega_db = 3050.0"):
            SystemConfig(omega_db=3050.0)
        with pytest.raises(ValueError, match="n_t = 64"):
            SystemConfig(omega_db=3048.0, n_t=64)
        SystemConfig(omega_db=3048.0, k_factor_db=float("inf"))


class TestDrawRealization:
    def test_shapes_and_combiner(self):
        cfg = SystemConfig(n_t=5, n_r=3, seed=1)
        r = draw_realization(cfg, RngState(1, 0))
        assert r.h_u.shape == (3,) and r.h_d.shape == (5,) and r.H.shape == (3, 5)
        assert norm_sq(r.v) == pytest.approx(1.0, abs=1e-12)
        # matched-filter combiner is h_u rescaled
        assert np.allclose(r.v * math.sqrt(norm_sq(r.h_u)), r.h_u, atol=1e-12)
        assert r.epsilon == si_threshold(cfg)

    def test_deterministic_per_stream(self):
        cfg = SystemConfig(seed=9)
        r1 = draw_realization(cfg, RngState(9, 4))
        r2 = draw_realization(cfg, RngState(9, 4))
        assert np.array_equal(r1.h_d, r2.h_d)
        assert np.array_equal(r1.H, r2.H)
        r3 = draw_realization(cfg, RngState(9, 5))
        assert not np.array_equal(r1.h_d, r3.h_d)

    def test_si_channel_mean_power(self):
        cfg = SystemConfig(n_t=4, n_r=4, seed=2)
        acc = 0.0
        n = 400
        for t in range(n):
            r = draw_realization(cfg, RngState(2, t))
            acc += float(np.mean(np.abs(r.H) ** 2))
        assert acc / n == pytest.approx(1e-3, rel=0.05)

    def test_effective_si_vector(self):
        r = draw_realization(SystemConfig(n_t=3, n_r=2, seed=3), RngState(3, 0))
        assert np.allclose(r.effective_si_vector(), r.H.conj().T @ r.v, atol=1e-15)

    def test_realization_replace(self):
        r = draw_realization(SystemConfig(seed=4), RngState(4, 0))
        r2 = r.replace(epsilon=0.5)
        assert r2.epsilon == 0.5 and np.array_equal(r2.h_d, r.h_d)
