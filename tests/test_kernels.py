import math
import subprocess
import sys

import numpy as np
import pytest

from fdbf import kernels
from fdbf.beamform import DegenerateParallelError, family, optimal, zf
from fdbf.numerics import inner, matvec_adj, norm_sq

from conftest import canonical_realization, child_env, random_instance

needs_numba = pytest.mark.skipif(not kernels.HAS_NUMBA, reason="numba not installed")


def batch_of(instances):
    """Stack (h_d, H, v, eps) tuples into the (h_d, a) arrays kernels take."""
    h = np.stack([h_d for h_d, _, _, _ in instances])
    a = np.stack([matvec_adj(H, v) for _, H, v, _ in instances])
    return h, a


class TestBackendSelection:
    def test_exports(self):
        assert kernels.BACKEND in ("numba", "numpy")
        assert isinstance(kernels.HAS_NUMBA, bool)
        for name in ("solve_batch", "solve_one", "grid_scan", "sample_scan"):
            assert callable(getattr(kernels, name))
            assert callable(getattr(kernels, name + "_numpy"))

    def test_dispatch_matches_backend(self):
        if kernels.BACKEND == "numba":
            assert kernels.solve_batch is kernels.solve_batch_numba
            assert kernels.grid_scan is kernels.grid_scan_numba
        else:
            assert kernels.solve_batch is kernels.solve_batch_numpy
            assert kernels.grid_scan is kernels.grid_scan_numpy

    def test_env_forces_numpy(self):
        env = child_env(FDBF_BACKEND="numpy")
        out = subprocess.run(
            [sys.executable, "-c", "from fdbf import kernels; print(kernels.BACKEND)"],
            capture_output=True, text=True, env=env)
        assert out.returncode == 0
        assert out.stdout.strip() == "numpy"

    def test_env_rejects_unknown_backend(self):
        env = child_env(FDBF_BACKEND="bogus")
        out = subprocess.run(
            [sys.executable, "-c", "import fdbf.kernels"],
            capture_output=True, text=True, env=env)
        assert out.returncode != 0
        assert "FDBF_BACKEND" in out.stderr


class TestSolveBatch:
    def test_matches_reference_solver(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            n_t = int(rng.integers(1, 9))
            eps = 10.0 ** rng.uniform(-6.0, -1.0)
            instances = [random_instance(rng, n_t=n_t, eps=eps) for _ in range(25)]
            h, a = batch_of(instances)
            alpha, si, gain, gain_zf, norm_w, zf_ok = kernels.solve_batch(h, a, eps)
            for i, (h_d, H, v, _) in enumerate(instances):
                sol = optimal(h_d, H, v, eps)
                assert alpha[i] == pytest.approx(sol.alpha, abs=1e-12)
                assert si[i] == pytest.approx(sol.si_power, rel=1e-10, abs=1e-30)
                assert gain[i] == pytest.approx(sol.dl_gain, rel=1e-10)
                assert norm_w[i] == pytest.approx(sol.norm_w, rel=1e-10)
                assert (norm_w[i] < 1.0) == sol.degenerate
                z = zf(h_d, a[i])
                assert bool(zf_ok[i]) == (not z.degenerate)
                if zf_ok[i]:
                    assert gain_zf[i] == pytest.approx(z.dl_gain, rel=1e-10)

    def test_mixed_edge_rows(self):
        eps = 0.1
        s = 1.0 / math.sqrt(2.0)
        h = np.array([
            [s, s],            # canonical active instance
            [s, s],            # zero leakage direction
            [1.0, 0.0],        # leakage orthogonal to the channel
            [2.0, 2.0j],       # leakage parallel to the channel
        ], dtype=complex)
        a = np.array([
            [1.0, 0.0],
            [0.0, 0.0],
            [0.0, 1.0],
            [0.25, 0.25j],
        ], dtype=complex)
        alpha, si, gain, gain_zf, norm_w, zf_ok = kernels.solve_batch(h, a, eps)

        assert alpha[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert si[0] == pytest.approx(0.1, abs=1e-12)
        assert gain[0] == pytest.approx(0.8, abs=1e-12)
        assert gain_zf[0] == pytest.approx(0.5, abs=1e-12)
        assert norm_w[0] == 1.0 and zf_ok[0]

        assert alpha[1] == 0.0 and si[1] == 0.0
        assert gain[1] == pytest.approx(1.0, abs=1e-12)
        assert gain_zf[1] == pytest.approx(1.0, abs=1e-12)

        assert alpha[2] == 0.0 and si[2] == 0.0
        assert gain[2] == pytest.approx(1.0, abs=1e-12)

        # parallel + active cap: power backoff, no zero-forcing direction
        assert not zf_ok[3] and gain_zf[3] == 0.0
        assert si[3] == pytest.approx(eps, rel=1e-12)
        hd2 = 8.0
        mag = 1.0
        assert gain[3] == pytest.approx(eps * hd2 * hd2 / mag, rel=1e-12)
        assert norm_w[3] == pytest.approx(math.sqrt(eps * hd2 / mag), rel=1e-12)

    def test_alpha_one_gains_bitwise_equal(self):
        # cap so tight that alpha rounds to exactly 1.0 while the residual
        # is still far above the parallelism threshold: the optimal vector
        # must then be the zero-forcing one bit for bit
        h = np.array([[1.0 + 0j, 1e-10 + 0j]])
        a = np.array([[1.0 + 0j, 0j]])
        eps = 1e-14
        for solver in filter(None, (kernels.solve_batch_numpy,
                                    kernels.solve_batch_numba)):
            alpha, si, gain, gain_zf, norm_w, zf_ok = solver(h, a, eps)
            assert alpha[0] == 1.0
            assert zf_ok[0]
            assert gain[0] == gain_zf[0]
            assert si[0] <= eps

    def test_single_antenna_rows(self):
        eps = 0.5
        h = np.array([[2.0 + 0j], [2.0 + 0j]])
        a = np.array([[1.0 + 0j], [3.0 + 0j]])
        alpha, si, gain, gain_zf, norm_w, zf_ok = kernels.solve_batch(h, a, eps)
        # row 0: cap active, backoff to si = eps
        assert si[0] == pytest.approx(eps, rel=1e-12)
        assert gain[0] == pytest.approx(2.0, rel=1e-12)
        assert not zf_ok[0]
        # row 1: gram = 9 but eta = 36 - 0.5*4 > 0, still backoff
        assert si[1] == pytest.approx(eps, rel=1e-12)
        assert not zf_ok[1]


class TestSolveOne:
    def test_canonical(self):
        r = canonical_realization()
        alpha, si, gain, norm_w = kernels.solve_one(r.h_d, r.H, r.v, r.epsilon)
        assert alpha == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert si == pytest.approx(0.1, abs=1e-12)
        assert gain == pytest.approx(0.8, abs=1e-12)
        assert norm_w == 1.0

    def test_matches_reference_solver(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            h_d, H, v, eps = random_instance(rng)
            alpha, si, gain, norm_w = kernels.solve_one(h_d, H, v, eps)
            sol = optimal(h_d, H, v, eps)
            assert alpha == pytest.approx(sol.alpha, abs=1e-12)
            assert si == pytest.approx(sol.si_power, rel=1e-10, abs=1e-30)
            assert gain == pytest.approx(sol.dl_gain, rel=1e-10)
            assert norm_w == pytest.approx(sol.norm_w, rel=1e-10)

    @pytest.mark.parametrize("h_d, H, v, eps", [
        # zero leakage direction
        ([0.6, 0.8j], [[0.0, 0.0]], [1.0], 0.1),
        # leakage parallel to the channel with the cap active: power back-off
        ([2.0, 2.0j], [[0.25, -0.25j]], [1.0], 0.1),
        # single antenna, cap active (back-off) and relaxed (full power)
        ([2.0], [[1.0]], [1.0], 0.5),
        ([2.0], [[1.0]], [1.0], 9.0),
        # cap so tight that alpha rounds to exactly 1.0
        ([1.0, 1e-10], [[1.0, 0.0]], [1.0], 1e-14),
    ], ids=["a_zero", "parallel_backoff", "n_t1_active", "n_t1_relaxed",
            "alpha_one"])
    def test_edge_rows_match_reference_solver(self, h_d, H, v, eps):
        h_d, H, v = (np.array(x, dtype=complex) for x in (h_d, H, v))
        alpha, si, gain, norm_w = kernels.solve_one(h_d, H, v, eps)
        sol = optimal(h_d, H, v, eps)
        assert alpha == sol.alpha
        assert si == pytest.approx(sol.si_power, rel=1e-12, abs=1e-30)
        assert gain == pytest.approx(sol.dl_gain, rel=1e-12)
        assert norm_w == pytest.approx(sol.norm_w, rel=1e-12)
        assert (norm_w < 1.0) == sol.degenerate


class TestGridScan:
    def test_canonical_pinpoints_optimum(self):
        r = canonical_realization()
        a = matvec_adj(r.H, r.v)
        p = a * (inner(a, r.h_d) / norm_sq(a))
        n_grid = 100001
        best_idx, best_gain, n_feasible, max_violation = kernels.grid_scan(
            r.h_d, p, a, r.epsilon, n_grid, 1e-12)
        # smallest feasible grid alpha sits just above 2/3
        assert best_idx == 66667
        assert best_gain == pytest.approx(0.8, abs=1e-4)
        assert best_gain <= 0.8 + 1e-9
        assert n_feasible == n_grid - best_idx
        assert max_violation == 0.0

    def test_relaxed_cap_prefers_matched_filter(self):
        r = canonical_realization(epsilon=10.0)
        a = matvec_adj(r.H, r.v)
        p = a * (inner(a, r.h_d) / norm_sq(a))
        best_idx, best_gain, n_feasible, _ = kernels.grid_scan(
            r.h_d, p, a, r.epsilon, 501, 1e-12)
        assert best_idx == 0
        assert best_gain == pytest.approx(1.0, abs=1e-12)
        assert n_feasible == 501

    def test_parallel_instance_has_no_feasible_point(self):
        # a parallel to h_d with constant unit-power leakage above the cap:
        # every live grid point is infeasible and alpha = 1 has no direction
        h_d = np.array([2.0 + 0j, 2.0j])
        a = np.array([0.25 + 0j, 0.25j])
        p = a * (inner(a, h_d) / norm_sq(a))
        best_idx, best_gain, n_feasible, max_violation = kernels.grid_scan(
            h_d, p, a, 0.1, 1001, 1e-12)
        assert best_idx == -1
        assert best_gain == -1.0
        assert n_feasible == 0
        assert max_violation == 0.0

    def test_agrees_with_direct_family_walk(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            h_d, H, v, eps = random_instance(rng, n_t=4)
            a = matvec_adj(H, v)
            p = a * (inner(a, h_d) / norm_sq(a))
            n_grid, tol = 257, 1e-12
            got = kernels.grid_scan(h_d, p, a, eps, n_grid, tol)

            best_idx, best_gain, n_feasible = -1, -1.0, 0
            for g in range(n_grid):
                try:
                    member = family(g / (n_grid - 1), h_d, a)
                except DegenerateParallelError:
                    continue
                if member.si_power <= eps + tol:
                    n_feasible += 1
                    if member.dl_gain > best_gain:
                        best_gain = member.dl_gain
                        best_idx = g
            assert got[0] == best_idx
            assert got[1] == pytest.approx(best_gain, rel=1e-10)
            assert got[2] == n_feasible

    def test_chunking_is_invisible(self, monkeypatch):
        # a grid spanning several chunks must report exactly what a single
        # pass over the whole grid would
        r = canonical_realization()
        a = matvec_adj(r.H, r.v)
        p = a * (inner(a, r.h_d) / norm_sq(a))
        n_grid = kernels._GRID_CHUNK * 2 + 17
        chunked = kernels.grid_scan_numpy(r.h_d, p, a, r.epsilon, n_grid, 1e-12)
        monkeypatch.setattr(kernels, "_GRID_CHUNK", n_grid)
        whole = kernels.grid_scan_numpy(r.h_d, p, a, r.epsilon, n_grid, 1e-12)
        assert chunked == whole
        assert chunked[0] > 0 and chunked[2] > 0


class TestSampleScan:
    def test_canonical_candidates(self):
        r = canonical_realization()
        a = matvec_adj(r.H, r.v)
        w_star = np.array([1.0, 3.0]) / math.sqrt(10.0)
        W = np.stack([
            r.h_d / np.linalg.norm(r.h_d),   # matched filter, backed off
            np.array([0.0, 1.0 + 0j]),       # zero-forcing direction
            w_star.astype(complex),          # known optimum
        ])
        best_idx, best_gain, best_scale, max_violation = kernels.sample_scan(
            r.h_d, a, r.epsilon, W)
        assert best_idx == 2
        assert best_gain == pytest.approx(0.8, rel=1e-12)
        assert best_scale == pytest.approx(1.0, abs=1e-12)
        assert max_violation <= 1e-15

    def test_backoff_keeps_all_candidates_feasible(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            h_d, H, v, eps = random_instance(rng, n_t=3)
            a = matvec_adj(H, v)
            W = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
            best_idx, best_gain, best_scale, max_violation = kernels.sample_scan(
                h_d, a, eps, W)
            assert max_violation <= 1e-9
            w = W[best_idx] / np.linalg.norm(W[best_idx]) * best_scale
            assert abs(inner(a, w)) ** 2 <= eps * (1.0 + 1e-9)
            assert best_gain == pytest.approx(abs(inner(h_d, w)) ** 2, rel=1e-10)
            assert 0.0 < best_scale <= 1.0 + 1e-12

    def test_all_zero_candidates(self):
        r = canonical_realization()
        a = matvec_adj(r.H, r.v)
        got = kernels.sample_scan(r.h_d, a, r.epsilon, np.zeros((3, 2), complex))
        assert got == (-1, -1.0, 1.0, 0.0)

    def test_zero_rows_are_skipped(self):
        r = canonical_realization()
        a = matvec_adj(r.H, r.v)
        W = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        best_idx, best_gain, _, _ = kernels.sample_scan(r.h_d, a, r.epsilon, W)
        assert best_idx == 1
        assert best_gain == pytest.approx(0.5, abs=1e-12)


@needs_numba
class TestBackendEquivalence:
    def test_solve_batch(self):
        rng = np.random.default_rng(34)
        for n_t in (1, 2, 5, 8):
            eps = 10.0 ** rng.uniform(-6.0, -1.0)
            instances = [random_instance(rng, n_t=n_t, eps=eps) for _ in range(50)]
            h, a = batch_of(instances)
            res_np = kernels.solve_batch_numpy(h, a, eps)
            res_nb = kernels.solve_batch_numba(h, a, eps)
            for x, y in zip(res_np[:5], res_nb[:5]):
                np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-30)
            np.testing.assert_array_equal(res_np[5], res_nb[5])

    def test_solve_one(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            h_d, H, v, eps = random_instance(rng)
            res_np = kernels.solve_one_numpy(h_d, H, v, eps)
            res_nb = kernels.solve_one_numba(h_d, H, v, eps)
            assert res_np == pytest.approx(res_nb, rel=1e-12, abs=1e-30)

    def test_grid_scan(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            h_d, H, v, eps = random_instance(rng, n_t=4)
            a = matvec_adj(H, v)
            p = a * (inner(a, h_d) / norm_sq(a))
            res_np = kernels.grid_scan_numpy(h_d, p, a, eps, 4097, 1e-12)
            res_nb = kernels.grid_scan_numba(h_d, p, a, eps, 4097, 1e-12)
            assert res_np[0] == res_nb[0]
            assert res_np[2] == res_nb[2]
            assert res_np[1] == pytest.approx(res_nb[1], rel=1e-12)
            assert res_np[3] == pytest.approx(res_nb[3], rel=1e-12, abs=1e-30)

    def test_sample_scan(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            h_d, H, v, eps = random_instance(rng, n_t=5)
            a = matvec_adj(H, v)
            W = rng.standard_normal((128, 5)) + 1j * rng.standard_normal((128, 5))
            res_np = kernels.sample_scan_numpy(h_d, a, eps, W)
            res_nb = kernels.sample_scan_numba(h_d, a, eps, W)
            assert res_np[0] == res_nb[0]
            assert res_np[1] == pytest.approx(res_nb[1], rel=1e-12)
            assert res_np[2] == pytest.approx(res_nb[2], rel=1e-12)
            # the clamped violation is a difference of nearly equal numbers;
            # the backends may round it to different sub-1e-15 values
            assert abs(res_np[3] - res_nb[3]) <= 1e-15


def test_warmup_runs_on_any_backend():
    kernels.warmup()
