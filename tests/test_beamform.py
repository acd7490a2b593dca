import math

import numpy as np
import pytest

from conftest import canonical_realization, random_instance
from fdbf import kernels
from fdbf.beamform import (BeamformerSolution, DegenerateParallelError,
                           closed_form, dl_rate, family, mrt, optimal, si_power,
                           zf)
from fdbf.numerics import inner, matvec_adj, norm_sq

INV_SQRT10 = 1.0 / math.sqrt(10.0)


@pytest.fixture
def canon_parts(canonical):
    a = matvec_adj(canonical.H, canonical.v)
    return canonical.h_d, canonical.H, canonical.v, a, canonical.epsilon


class TestMrt:
    def test_points_along_channel(self, canon_parts):
        h_d, _, _, _, _ = canon_parts
        sol = mrt(h_d)
        assert sol.norm_w == pytest.approx(1.0, abs=1e-12)
        assert sol.alpha == 0.0
        assert sol.dl_gain == pytest.approx(norm_sq(h_d), abs=1e-12)
        assert sol.si_power is None

    def test_rejects_zero_channel(self):
        with pytest.raises(ValueError):
            mrt(np.zeros(3, complex))


class TestZf:
    def test_canonical_gain(self, canon_parts):
        h_d, _, _, a, _ = canon_parts
        sol = zf(h_d, a)
        assert sol.dl_gain == pytest.approx(0.5, abs=1e-9)
        assert sol.si_power == pytest.approx(0.0, abs=1e-15)
        assert sol.alpha == 1.0
        assert not sol.degenerate

    def test_nulls_leakage_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            h_d, H, v, _ = random_instance(rng, n_t=int(rng.integers(2, 8)))
            a = matvec_adj(H, v)
            sol = zf(h_d, a)
            assert abs(inner(a, sol.w)) <= 1e-10 * math.sqrt(norm_sq(a))
            assert norm_sq(sol.w) == pytest.approx(1.0, abs=1e-12)

    def test_zero_leakage_direction_reduces_to_mrt(self):
        h_d = np.array([1 + 1j, 2 - 1j])
        sol = zf(h_d, np.zeros(2, complex))
        assert sol.dl_gain == pytest.approx(norm_sq(h_d), rel=1e-12)
        assert sol.si_power == pytest.approx(0.0, abs=1e-15)

    def test_parallel_is_degenerate(self):
        h_d = np.array([1 + 2j, -0.5 + 1j])
        sol = zf(h_d, 2.0j * h_d)
        assert sol.degenerate
        assert sol.dl_gain == 0.0 and sol.norm_w == 0.0
        assert np.all(sol.w == 0)


class TestFamily:
    def test_canonical_member(self):
        a = np.array([1.0 + 0j, 0j])
        h_d = np.array([1.0 + 0j, 1.0 + 0j]) / math.sqrt(2)
        sol = family(2.0 / 3.0, h_d, a)
        assert np.allclose(sol.w, [INV_SQRT10, 3 * INV_SQRT10], atol=1e-9)

    def test_endpoints_are_mrt_and_zf(self, canon_parts):
        h_d, _, _, a, _ = canon_parts
        lo = family(0.0, h_d, a)
        hi = family(1.0, h_d, a)
        assert np.allclose(lo.w, mrt(h_d).w, atol=1e-12)
        assert np.allclose(hi.w, zf(h_d, a).w, atol=1e-12)

    def test_leakage_decreases_with_alpha(self, canon_parts):
        h_d, _, _, a, _ = canon_parts
        sis = [family(al, h_d, a).si_power for al in np.linspace(0, 1, 11)]
        assert all(x >= y - 1e-15 for x, y in zip(sis, sis[1:]))

    def test_alpha_out_of_range(self, canon_parts):
        h_d, _, _, a, _ = canon_parts
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                family(bad, h_d, a)

    def test_parallel_at_one_raises(self):
        h_d = np.array([1 + 1j, 2 + 0j])
        with pytest.raises(DegenerateParallelError):
            family(1.0, h_d, -3.0 * h_d)


def zeta_eta_alpha(h_d, a, eps):
    """alpha* read off the textbook pair (zeta, eta), an independent reference.

    zeta - eta cancels when h_d is nearly parallel to a, so this reference
    is only trusted where it is well conditioned.
    """
    gram = norm_sq(a)
    mag = abs(inner(a, h_d)) ** 2
    eta = mag - eps * norm_sq(h_d)
    if eta <= 0.0:
        return 0.0
    zeta = (1.0 - eps / gram) * mag
    return 1.0 - min(1.0, math.sqrt(max(0.0, (zeta - eta) / zeta)))


def gram_scalars(h_d, a):
    """(||h_d||^2, ||a||^2, |a^H h_d|^2, ||q||^2) with q computed componentwise."""
    gram = norm_sq(a)
    c = inner(a, h_d)
    q = h_d - a * (c / gram) if gram > 0.0 else h_d
    return norm_sq(h_d), gram, abs(c) ** 2, norm_sq(q)


class TestClosedForm:
    def test_canonical_value(self, canon_parts):
        h_d, _, _, a, eps = canon_parts
        alpha, back2 = closed_form(*gram_scalars(h_d, a), eps)
        assert alpha == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert back2 == pytest.approx(0.2, rel=1e-12)

    def test_inactive_cap(self, canon_parts):
        h_d, _, _, a, _ = canon_parts
        assert closed_form(*gram_scalars(h_d, a), 10.0) == (0.0, 1.0)
        # eta = 0 exactly: the matched filter sits on the cap
        assert closed_form(1.0, 1.0, 0.5, 0.5, 0.5) == (0.0, 1.0)

    def test_zero_leakage_direction(self):
        h_d = np.array([1.0 + 0j, 1j])
        scalars = gram_scalars(h_d, np.zeros(2, complex))
        assert scalars == (2.0, 0.0, 0.0, 2.0)
        assert closed_form(*scalars, 0.3) == (0.0, 1.0)

    def test_full_nulling_limit(self):
        # no residual off the leakage direction: nulling is all that is left
        assert closed_form(1.0, 1.0, 1.0, 0.0, 0.5) == (1.0, 0.5)

    def test_monotone_in_cap(self, canon_parts):
        h_d, _, _, a, _ = canon_parts
        scalars = gram_scalars(h_d, a)
        alphas = [closed_form(*scalars, eps)[0] for eps in np.geomspace(1e-6, 1.0, 25)]
        assert all(x >= y - 1e-15 for x, y in zip(alphas, alphas[1:]))

    def test_matches_zeta_eta_reference_where_well_conditioned(self):
        rng = np.random.default_rng(22)
        compared = 0
        for _ in range(500):
            h_d, H, v, eps = random_instance(rng)
            a = matvec_adj(H, v)
            ref = zeta_eta_alpha(h_d, a, eps)
            if ref >= 1.0 - 1e-3:
                continue
            alpha, _ = closed_form(*gram_scalars(h_d, a), eps)
            assert alpha == pytest.approx(ref, abs=1e-9)
            compared += 1
        assert compared > 100

    def test_near_parallel_keeps_cap_active(self):
        # h_d = 3a + 1e-7 e: zeta - eta cancels, the componentwise ||q|| does not
        rng = np.random.default_rng(23)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        e = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h_d = 3.0 * a + 1e-7 * e / np.linalg.norm(e)
        H = a.conj()[None, :]
        v = np.array([1.0 + 0j])
        eps = 0.1
        sol = optimal(h_d, H, v, eps)
        alpha, si, gain, norm_w = kernels.solve_one(h_d, H, v, eps)
        assert not sol.degenerate and norm_w == 1.0
        assert 0.0 < sol.alpha < 1.0
        assert sol.si_power == pytest.approx(eps, rel=1e-6)
        assert si == pytest.approx(eps, rel=1e-6)
        assert alpha == pytest.approx(sol.alpha, abs=1e-12)
        # both carry alpha's last-ulp rounding, amplified by 1/(1 - alpha)
        assert gain == pytest.approx(sol.dl_gain, rel=1e-6)


class TestOptimal:
    def test_canonical_instance(self, canon_parts):
        h_d, H, v, _, eps = canon_parts
        sol = optimal(h_d, H, v, eps)
        assert sol.alpha == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert np.allclose(sol.w, [INV_SQRT10, 3 * INV_SQRT10], atol=1e-9)
        assert sol.si_power == pytest.approx(0.1, abs=1e-9)
        assert sol.dl_gain == pytest.approx(0.8, abs=1e-9)
        assert sol.norm_w == pytest.approx(1.0, abs=1e-12)
        assert not sol.degenerate

    def test_relaxed_cap_returns_mrt(self, canon_parts):
        h_d, H, v, _, _ = canon_parts
        sol = optimal(h_d, H, v, 10.0)
        assert sol.alpha == 0.0
        assert sol.dl_gain == pytest.approx(1.0, abs=1e-12)

    def test_cap_is_active_whenever_alpha_positive(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            h_d, H, v, eps = random_instance(rng)
            sol = optimal(h_d, H, v, eps)
            assert sol.si_power <= eps * (1 + 1e-9)
            if sol.alpha > 0.0:
                assert sol.si_power == pytest.approx(eps, rel=1e-6)

    def test_beats_zf_and_any_feasible_family_member(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            h_d, H, v, eps = random_instance(rng, n_t=int(rng.integers(2, 8)))
            a = matvec_adj(H, v)
            sol = optimal(h_d, H, v, eps)
            z = zf(h_d, a)
            assert sol.dl_gain >= z.dl_gain - 1e-12
            for al in np.linspace(0, 1, 201):
                member = family(al, h_d, a)
                if member.si_power <= eps:
                    assert sol.dl_gain >= member.dl_gain - 1e-9

    def test_parallel_active_backs_off_power(self):
        # leakage direction equals the channel direction: nulling would zero
        # the signal, so the optimum reduces power until the cap binds
        h_d = np.array([1.0 + 0j, 1j]) * 2.0
        H = np.array([[0.25 + 0j, -0.25j]])  # a = H^H v = 0.125 h_d
        v = np.array([1.0 + 0j])
        eps = 0.1
        sol = optimal(h_d, H, v, eps)
        assert sol.degenerate
        assert sol.si_power == pytest.approx(eps, rel=1e-9)
        assert sol.norm_w < 1.0
        u = h_d / math.sqrt(norm_sq(h_d))
        assert sol.dl_gain == pytest.approx(
            eps * norm_sq(h_d) ** 2 / abs(inner(matvec_adj(H, v), h_d)) ** 2,
            rel=1e-9)
        assert np.allclose(sol.w, sol.norm_w * u, atol=1e-12)

    def test_rounding_left_in_q_is_not_a_direction(self):
        # h_d = a / 10 leaves only rounding in q; under a cap 1.9e-13 below
        # the MRT leakage, a unit-norm w along that rounding would leak
        # ||a||^2 > eps exactly, so all three solvers take the corner
        h_d = np.array([0.8359375j])
        H = np.array([[-8.359375j]])  # a = H^H v = 8.359375j
        v = np.array([1.0 + 0j])
        eps = 69.87915039061203
        sol = optimal(h_d, H, v, eps)
        alpha, si, gain, norm_w = kernels.solve_one(h_d, H, v, eps)
        batch = kernels.solve_batch(h_d[None], matvec_adj(H, v)[None], eps)
        assert sol.degenerate and sol.norm_w < 1.0
        assert norm_w == batch[4][0] == sol.norm_w
        assert si == batch[1][0] == eps
        assert gain == batch[2][0]
        assert gain == pytest.approx(sol.dl_gain, rel=1e-15)

    def test_single_antenna_paths(self):
        # active cap: power backoff along the only direction
        sol = optimal(np.array([2.0 + 0j]), np.array([[1.0 + 0j]]),
                      np.array([1.0 + 0j]), 0.5)
        assert sol.degenerate
        assert sol.si_power == pytest.approx(0.5, rel=1e-12)
        # w = sqrt(0.5) along h/|h|, so the gain is 0.5 * |h|^2 = 2
        assert sol.dl_gain == pytest.approx(2.0, rel=1e-12)
        # relaxed cap: full power
        sol = optimal(np.array([2.0 + 0j]), np.array([[1.0 + 0j]]),
                      np.array([1.0 + 0j]), 9.0)
        assert not sol.degenerate
        assert sol.dl_gain == pytest.approx(4.0, rel=1e-12)

    def test_bad_inputs(self, canon_parts):
        h_d, H, v, _, _ = canon_parts
        with pytest.raises(ValueError):
            optimal(h_d, H, v, 0.0)
        with pytest.raises(ValueError):
            optimal(np.zeros(2, complex), H, v, 0.1)
        with pytest.raises(ValueError):
            optimal(h_d, H, np.ones(3, complex), 0.1)

    def test_subnormal_leakage_norm_is_rejected(self):
        # ||a||^2 = 1e-322: family once returned dl_gain 1.79418 where the
        # exact value is 1.8, from a projection coefficient that lost its bits
        h_d, a = np.array([1.0 + 0j, 1j]), np.array([1e-161 + 0j, 0.0])
        with pytest.raises(ValueError, match="must be 0 or a normal float64"):
            family(0.5, h_d, a)
        with pytest.raises(ValueError, match="must be 0 or a normal float64"):
            optimal(h_d, a.conj()[None, :], np.array([1.0 + 0j]), 0.5)


class TestSiPowerAndRate:
    def test_si_power_canonical(self, canon_parts):
        h_d, H, v, _, _ = canon_parts
        w = np.array([INV_SQRT10, 3 * INV_SQRT10])
        assert si_power(w, H, v) == pytest.approx(0.1, abs=1e-9)

    def test_dl_rate_canonical(self, canon_parts):
        h_d, H, v, _, eps = canon_parts
        sol = optimal(h_d, H, v, eps)
        assert dl_rate(sol.w, h_d, 1.0) == pytest.approx(math.log2(1.8), abs=1e-9)
        assert dl_rate(sol.w, h_d, 0.0) == 0.0

    def test_dl_rate_rejects_bad_rho(self, canon_parts):
        h_d, _, _, _, _ = canon_parts
        with pytest.raises(ValueError):
            dl_rate(h_d, h_d, -1.0)
