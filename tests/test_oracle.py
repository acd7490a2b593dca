import math

import numpy as np
import pytest

from fdbf import kernels, oracle
from fdbf.beamform import mrt, optimal, zf
from fdbf.channel import ChannelRealization
from fdbf.numerics import RngState, matvec_adj, norm_sq
from fdbf.oracle import (GRID_FEAS_TOL, OracleReport, feasible, grid_search,
                         random_feasible_search, timing_bench)

from conftest import canonical_realization, random_instance


def parallel_realization():
    """Leakage direction equal to the channel direction, cap active."""
    v = np.array([1.0 + 0j])
    H = np.array([[0.25 + 0j, -0.25j]])
    h_d = np.array([2.0 + 0j, 2.0j])
    return ChannelRealization(h_u=v.copy(), h_d=h_d, H=H, v=v, epsilon=0.1)


class TestFeasible:
    def test_zero_vector_is_feasible(self, canonical):
        assert feasible(np.zeros(2, complex), canonical)

    def test_known_optimum_is_feasible(self, canonical):
        w = np.array([1.0, 3.0]) / math.sqrt(10.0)
        assert feasible(w, canonical)

    def test_matched_filter_violates_active_cap(self, canonical):
        assert not feasible(mrt(canonical.h_d).w, canonical)

    def test_power_violation_detected(self, canonical):
        w = 1.2 * np.array([0.0, 1.0 + 0j])  # no leakage but over unit power
        assert not feasible(w, canonical)


class TestGridSearch:
    def test_certifies_canonical_optimum(self, canonical):
        report = grid_search(canonical, 100001)
        assert not report.degenerate
        assert report.best_alpha == pytest.approx(2.0 / 3.0, abs=1e-5)
        assert report.best_rate == pytest.approx(math.log2(1.8), abs=1e-5)
        assert report.best_rate <= math.log2(1.8) + 1e-9
        assert report.samples_tested == 100001
        assert report.n_feasible == 33334
        assert report.max_violation <= GRID_FEAS_TOL
        assert feasible(report.best_w, canonical)

    def test_relaxed_cap_lands_on_matched_filter(self):
        report = grid_search(canonical_realization(epsilon=10.0), 4001)
        assert report.best_alpha == 0.0
        assert report.best_rate == pytest.approx(1.0, abs=1e-12)
        assert report.n_feasible == 4001

    def test_tight_cap_lands_on_nulled_end(self):
        # mid-grid leakage never reaches 1e-30, only alpha = 1 nulls exactly
        report = grid_search(canonical_realization(epsilon=1e-30), 10001)
        assert report.best_alpha == 1.0
        assert report.n_feasible == 1
        assert report.best_rate == pytest.approx(math.log2(1.5), abs=1e-12)

    def test_rho_scales_the_reported_rate(self, canonical):
        base = grid_search(canonical, 2001)
        boosted = grid_search(canonical, 2001, rho=3.0)
        gain = 2.0 ** base.best_rate - 1.0
        assert boosted.best_rate == pytest.approx(math.log2(1.0 + 3.0 * gain),
                                                  abs=1e-12)

    def test_rejects_tiny_grid(self, canonical):
        with pytest.raises(ValueError):
            grid_search(canonical, 1)

    def test_parallel_corner_reports_degenerate(self):
        report = grid_search(parallel_realization(), 1001)
        assert report.degenerate
        assert report.best_alpha is None
        assert report.best_w is None
        assert report.best_rate == float("-inf")
        assert report.n_feasible == 0

    def test_never_beats_closed_form(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            h_d, H, v, eps = random_instance(rng)
            r = ChannelRealization(h_u=v.copy(), h_d=h_d, H=H, v=v, epsilon=eps)
            sol = optimal(h_d, H, v, eps)
            report = grid_search(r, 20001)
            rate_opt = math.log2(1.0 + sol.dl_gain)
            assert report.best_rate <= rate_opt + 1e-9
            if not report.degenerate:
                # and the closed form never beats the grid by a grid step
                assert report.best_rate >= rate_opt - 1e-4


class TestRandomFeasibleSearch:
    def test_canonical_dominated_by_closed_form(self, canonical):
        report = random_feasible_search(canonical, 20000, RngState(123))
        assert report.best_rate <= math.log2(1.8) + 1e-9
        assert report.best_rate >= math.log2(1.8) - 0.05
        assert report.max_violation <= 1e-9
        assert report.samples_tested == 20000
        assert report.n_feasible == 20000
        assert feasible(report.best_w, canonical)

    def test_single_antenna_matches_power_backoff(self):
        # every direction is the same direction: the backed-off sample equals
        # the closed-form reduced-power optimum exactly
        v = np.array([1.0 + 0j])
        r = ChannelRealization(h_u=v.copy(), h_d=np.array([2.0 + 0j]),
                               H=np.array([[1.0 + 0j]]), v=v, epsilon=0.5)
        report = random_feasible_search(r, 64, RngState(5))
        sol = optimal(r.h_d, r.H, r.v, r.epsilon)
        assert sol.degenerate
        assert report.best_rate == pytest.approx(math.log2(1.0 + sol.dl_gain),
                                                 rel=1e-12)
        assert report.max_violation <= 1e-12

    def test_relaxed_cap_needs_no_backoff(self):
        r = canonical_realization(epsilon=2.0)  # cap above ||a||^2
        report = random_feasible_search(r, 20000, RngState(9))
        assert report.max_violation == 0.0
        assert norm_sq(report.best_w) == pytest.approx(1.0, rel=1e-12)
        best_gain = 2.0 ** report.best_rate - 1.0
        assert 0.99 <= best_gain <= 1.0 + 1e-12

    def test_deterministic_given_state(self, canonical):
        r1 = random_feasible_search(canonical, 500, RngState(77))
        r2 = random_feasible_search(canonical, 500, RngState(77))
        assert r1.best_rate == r2.best_rate
        np.testing.assert_array_equal(r1.best_w, r2.best_w)

    def test_accepts_raw_generator(self, canonical):
        gen = RngState(77).generator()
        r1 = random_feasible_search(canonical, 500, gen)
        r2 = random_feasible_search(canonical, 500, RngState(77))
        assert r1.best_rate == r2.best_rate

    def test_rejects_zero_samples(self, canonical):
        with pytest.raises(ValueError):
            random_feasible_search(canonical, 0, RngState(0))


class TestTimingBench:
    def test_reports_positive_times_and_ratio(self):
        rng = np.random.default_rng(41)
        realizations = []
        for _ in range(5):
            h_d, H, v, eps = random_instance(rng, n_t=4, n_r=2)
            realizations.append(ChannelRealization(h_u=v.copy(), h_d=h_d, H=H,
                                                   v=v, epsilon=eps))
        closed_ns, grid_ns, speedup = timing_bench(realizations, 201, passes=3)
        assert closed_ns > 0.0 and grid_ns > 0.0 and speedup > 0.0

    def test_pairs_alternating_passes_on_a_scripted_clock(self, monkeypatch):
        # each fake kernel call advances the clock by its cost in the current
        # pass (four clock reads per pass); the median of the per-pass ratios
        # (20) differs from the ratio of the medians (15)
        closed_cost, grid_cost = [10, 20, 40], [200, 300, 1000]
        state = {"now": 0, "reads": 0}
        log = []

        def clock():
            state["reads"] += 1
            log.append("t")
            return state["now"]

        def fake(name, costs, result):
            def run(*args):
                log.append(name)
                state["now"] += costs[state["reads"] // 4]
                return result
            return run

        monkeypatch.setattr(oracle.time, "perf_counter_ns", clock)
        monkeypatch.setattr(kernels, "solve_one",
                            fake("c", closed_cost, (0.0, 0.0, 0.0, 1.0)))
        monkeypatch.setattr(kernels, "grid_scan",
                            fake("g", grid_cost, (0, 1.0, 1, 0.0)))
        n = 3
        closed_ns, grid_ns, speedup = timing_bench(
            [canonical_realization()] * n, 101, passes=3)
        c, g = ["c"] * n, ["g"] * n
        assert log == ["c", "g",                       # one warm call each
                       "t", *c, "t", "t", *g, "t",     # pass 0: closed first
                       "t", *g, "t", "t", *c, "t",     # pass 1: grid first
                       "t", *c, "t", "t", *g, "t"]     # pass 2: closed first
        assert (closed_ns, grid_ns, speedup) == (20.0, 300.0, 20.0)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            timing_bench([], 100)
