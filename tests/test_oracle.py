import math
import pickle

import numpy as np
import pytest

from fdbf import kernels, oracle
from fdbf.beamform import family, mrt, optimal, zf
from fdbf.channel import ChannelRealization, SystemConfig, draw_realization
from fdbf.experiment import draw_realizations
from fdbf.numerics import RngState, box_muller, matvec_adj, norm_sq, stream_uniforms
from fdbf.oracle import (OracleReport, feasible, grid_search,
                         random_feasible_search, timing_bench)

from conftest import canonical_realization, philox_generator, random_instance


def parallel_realization():
    """Leakage direction equal to the channel direction, cap active."""
    v = np.array([1.0 + 0j])
    H = np.array([[0.25 + 0j, -0.25j]])
    h_d = np.array([2.0 + 0j, 2.0j])
    return ChannelRealization(h_u=v.copy(), h_d=h_d, H=H, v=v, epsilon=0.1)


def grid_feasible(realization, grid_points):
    """How many of the grid's points kernels.grid_scan finds feasible."""
    return kernels.grid_scan(realization.h_d, realization.effective_si_vector(),
                             realization.epsilon, grid_points)[2]


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
        assert grid_feasible(canonical, 100001) == 33334
        assert report.max_violation <= kernels.GRID_FEAS_TOL
        best = family(report.best_alpha, canonical.h_d,
                      canonical.effective_si_vector())
        assert feasible(best.w, canonical)

    def test_relaxed_cap_lands_on_matched_filter(self):
        relaxed = canonical_realization(epsilon=10.0)
        report = grid_search(relaxed, 4001)
        assert report.best_alpha == 0.0
        assert report.best_rate == pytest.approx(1.0, abs=1e-12)
        assert grid_feasible(relaxed, 4001) == 4001

    def test_tight_cap_lands_on_nulled_end(self):
        # mid-grid leakage never reaches 1e-30, only alpha = 1 nulls exactly
        tight = canonical_realization(epsilon=1e-30)
        report = grid_search(tight, 10001)
        assert report.best_alpha == 1.0
        assert grid_feasible(tight, 10001) == 1
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

    def test_rejects_a_fractional_grid(self, canonical):
        # 2.5 points once scanned alpha in {0, 1} and reported alpha 0.667
        with pytest.raises(ValueError, match="grid_points must be an integer"):
            grid_search(canonical, 2.5)

    def test_rejects_subnormal_leakage_norm(self):
        # ||a||^2 = 1e-322 leaves the projection coefficient without its bits
        v = np.array([1.0 + 0j])
        r = ChannelRealization(h_u=v.copy(), h_d=np.array([1.0 + 0j, 1j]),
                               H=np.array([[1e-161 + 0j, 0.0]]), v=v,
                               epsilon=0.5)
        with pytest.raises(ValueError, match="must be 0 or a normal float64"):
            grid_search(r, 101)

    def test_parallel_corner_reports_degenerate(self):
        report = grid_search(parallel_realization(), 1001)
        assert report.degenerate
        assert report.best_alpha is None
        assert report.best_rate == float("-inf")
        assert grid_feasible(parallel_realization(), 1001) == 0

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
        # the search's winner is the exhaustive scan's (see assert_exhaustive)
        _, rate, w = exhaustive_search(canonical, 20000,
                                       contract_draw(RngState(123), 40000))
        assert report.best_rate == rate
        assert feasible(w, canonical)

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
        _, rate, w = exhaustive_search(r, 20000, contract_draw(RngState(9), 40000))
        assert report.best_rate == rate
        assert norm_sq(w) == pytest.approx(1.0, rel=1e-12)
        best_gain = 2.0 ** report.best_rate - 1.0
        assert 0.99 <= best_gain <= 1.0 + 1e-12

    def test_deterministic_given_state(self, canonical):
        r1 = random_feasible_search(canonical, 500, RngState(77))
        r2 = random_feasible_search(canonical, 500, RngState(77))
        assert r1.best_rate == r2.best_rate
        assert r1.max_violation == r2.max_violation

    def test_refuses_anything_but_a_state(self, canonical):
        for rng in (philox_generator(77, 0), (77, 0), 77):
            with pytest.raises(TypeError, match="rng must be an RngState"):
                random_feasible_search(canonical, 500, rng)

    @pytest.mark.parametrize("n_t, samples", [(1, 3001), (2, 3001), (8, 1)])
    def test_reads_the_first_2_samples_n_t_words_of_its_stream(
            self, monkeypatch, n_t, samples):
        calls = []

        def recording(*args):
            calls.append(args)
            return stream_uniforms(*args)

        monkeypatch.setattr(oracle, "stream_uniforms", recording)
        random_feasible_search(realization_at(n_t, 0), samples, RngState(77, 5))
        assert calls == [(77, 5, 2 * samples * n_t)]

    @pytest.mark.parametrize("n_t", [1, 2, 8])
    @pytest.mark.parametrize("samples", [1, 23, 24, 500, 10_000])
    def test_state_and_its_generator_give_the_same_bits(self, n_t, samples):
        # the search on a state scans what its stream's own Generator draws
        # (the stream contract), on verify's oracle streams. 2 samples n_t
        # words: at n_t = 2, 23 samples make a short stream and 24 a long
        # one, both read by the drawer
        for i in range(2):
            assert_exhaustive(realization_at(n_t, i), samples,
                              RngState(3, 1_000_000 + i))

    def test_rejects_zero_samples(self, canonical):
        with pytest.raises(ValueError):
            random_feasible_search(canonical, 0, RngState(0))

    def test_rejects_a_fractional_sample_count(self, canonical):
        # 2.5 samples once drew 2 silently
        with pytest.raises(ValueError, match="samples must be an integer"):
            random_feasible_search(canonical, 2.5, RngState(1))


@pytest.mark.parametrize("change", [
    {"epsilon": math.nan}, {"epsilon": -1.0},
    {"h_d": np.array([math.nan, 1.0 + 0j])}],
    ids=["nan_cap", "negative_cap", "nan_channel"])
def test_both_oracles_refuse_what_the_solvers_refuse(canonical, change):
    # the sampling search once reported a rate above the optimum at a NaN
    # cap, failed in math.sqrt at -1 and gave nan at a NaN channel; the
    # grid called all three degenerate
    r = canonical.replace(**change)
    with pytest.raises(ValueError, match="must be finite"):
        random_feasible_search(r, 100, RngState(1))
    with pytest.raises(ValueError, match="must be finite"):
        grid_search(r, 101)


def contract_draw(rng, k):
    """(U, u2): the first 2k uniforms of rng's stream, k and k, by the
    stream contract itself, a new Generator at the stream's start."""
    gen = philox_generator(rng.seed, rng.stream_id)
    return gen.random(k), gen.random(k)


def feed(monkeypatch, U, u2):
    """Make random_feasible_search draw U and then u2 on any stream, by
    replacing oracle.stream_uniforms, its one reader. Returns (U, u2)."""
    U, u2 = np.ravel(U), np.ravel(u2)
    words = np.concatenate((U, u2))

    def crafted(seed, stream_ids, m):
        assert m == words.size
        return words[None].copy()

    monkeypatch.setattr(oracle, "stream_uniforms", crafted)
    return U, u2


def _float32_flips(u2):
    """Uniforms just below and just above each point where float32(2 pi u2)
    rounds to the next float32 up."""
    lo = (2.0 * np.pi * u2).astype(np.float32)
    flip = (lo.astype(np.float64) + np.nextafter(lo, np.float32(np.inf))) / 2.0
    below = flip / (2.0 * np.pi)
    while (2.0 * np.pi * below >= flip).any():
        below = np.where(2.0 * np.pi * below >= flip, np.nextafter(below, 0.0), below)
    above = np.nextafter(below, 1.0)
    while (2.0 * np.pi * above <= flip).any():
        above = np.where(2.0 * np.pi * above <= flip, np.nextafter(above, 1.0), above)
    return below, above


def _radius_nudges(u):
    """Copies of u with one entry moved by a relative 1e-9 either way."""
    for j in range(len(u)):
        for sign in (1.0, -1.0):
            nudged = u.copy()
            nudged[j] *= 1.0 + sign * 1e-9
            yield nudged


def exhaustive_search(realization, samples, draw, rho=1.0):
    """random_feasible_search as one exact scan of every candidate.

    Takes the draw (U, u2) as the search does, u1 = 1 - U and u2, rebuilds
    every candidate with the exact Box-Muller transform and scans them
    all. Returns (best_idx, best_rate, the winning candidate backed off
    onto the cap).
    """
    n_t = realization.h_d.shape[0]
    U, u2 = draw
    W = box_muller(1.0 - U, u2).reshape(samples, n_t)
    k, gain, scale, _ = kernels.sample_scan(
        realization.h_d, realization.effective_si_vector(), realization.epsilon, W)
    row = W[k]
    return k, math.log2(1.0 + rho * gain), row * (scale / math.sqrt(norm_sq(row)))


def assert_exhaustive(realization, samples, rng, draw=None, rho=1.0):
    """The search on rng equals the exhaustive scan of its draw bit for
    bit; returns the rows its filter kept for the exact scan (None for all
    of them). The draw is rng's stream by the contract, or the one fed."""
    n_t = realization.h_d.shape[0]
    if draw is None:
        draw = contract_draw(rng, samples * n_t)
    k, rate, _ = exhaustive_search(realization, samples, draw, rho)
    report = random_feasible_search(realization, samples, rng, rho)
    assert report.best_rate == rate
    eps = realization.epsilon
    assert 0.0 <= report.max_violation <= 2.0 * np.spacing(eps)
    U1, U2 = (1.0 - draw[0]).reshape(samples, n_t), draw[1].reshape(samples, n_t)
    rows, _ = oracle._sampling_filter(realization.h_d, realization.effective_si_vector(),
                                      eps, U1, U2)
    assert rows is None or k in rows
    return rows


def realization_at(n_t, stream, c_db=-110.0):
    return draw_realization(SystemConfig(n_t=n_t, c_db=c_db), RngState(2024, stream))


class TestRandomFeasibleSearchIsExhaustive:
    """The filtered search returns what an exact scan of every candidate does."""

    @pytest.mark.parametrize("n_t", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("samples", [1, 7, 2049, 10_000])
    def test_antennas_and_sample_counts(self, n_t, samples):
        for i in range(2):
            r = realization_at(n_t, i)
            rows = assert_exhaustive(r, samples, RngState(7, 100 + i))
            if n_t == 1:
                assert rows is None
            elif samples >= 2049:
                # the point of the filter: few candidates need the exact scan
                assert rows is not None and len(rows) <= 20

    @pytest.mark.parametrize("n_t", [2, 8])
    @pytest.mark.parametrize("cap", ["zero", "default", "c-80", "c-140", "above"])
    def test_caps(self, n_t, cap):
        for i in range(3):
            r = realization_at(n_t, i, c_db={"c-80": -80.0, "c-140": -140.0}.get(cap, -110.0))
            if cap == "zero":
                r = r.replace(epsilon=0.0)
            elif cap == "above":
                r = r.replace(epsilon=2.0 * norm_sq(r.effective_si_vector()))
            assert_exhaustive(r, 2049, RngState(8, i))

    @pytest.mark.parametrize("scale", [1e100, 1e-100])
    @pytest.mark.parametrize("n_t", [2, 3])
    def test_channel_scales(self, scale, n_t):
        for i in range(2):
            r = realization_at(n_t, i)
            both = r.replace(h_d=scale * r.h_d, H=scale * r.H, epsilon=scale ** 2 * r.epsilon)
            if scale > 1.0:
                # ||h_d||^2 ||a||^2 overflows, which the kernels refuse:
                # scale the leakage direction alone
                with pytest.raises(ValueError, match="must be finite"):
                    random_feasible_search(both, 2049, RngState(9, i))
                both = r.replace(H=scale * r.H, epsilon=scale ** 2 * r.epsilon)
            rows = assert_exhaustive(both, 2049, RngState(9, i))
            assert rows is not None
            assert_exhaustive(r.replace(h_d=scale * r.h_d), 2049, RngState(9, i))

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_scales_past_the_filter_range_scan_every_candidate(self, scale):
        r = realization_at(2, 0)
        scaled = [r.replace(h_d=scale * r.h_d, H=scale * r.H, epsilon=scale ** 2 * r.epsilon)]
        if scale > 1.0:
            # ||h_d||^2 ||a||^2 overflows, which the kernels refuse: take
            # ||h_d||^2 and ||a||^2 past 1 / _SAMPLE_FLOOR one at a time
            with pytest.raises(ValueError, match="must be finite"):
                random_feasible_search(scaled[0], 2049, RngState(9, 0))
            scaled = [r.replace(h_d=scale * r.h_d),
                      r.replace(H=scale * r.H, epsilon=scale ** 2 * r.epsilon)]
        for each in scaled:
            assert assert_exhaustive(each, 2049, RngState(9, 0)) is None

    @pytest.mark.parametrize("n_t", [2, 8])
    def test_no_leakage_direction_and_zero_cap(self, n_t):
        # a = 0 and eps = 0: the filter's eps / |a^H w|^2 is 0/0, which must
        # mean "no back-off", not a NaN that drops every candidate
        r = realization_at(n_t, 0)
        r = r.replace(H=np.zeros_like(r.H), epsilon=0.0)
        rows = assert_exhaustive(r, 2049, RngState(10, 0))
        assert rows is not None and 1 <= len(rows) <= 20

    def test_zero_channel_ties_every_candidate(self):
        r = realization_at(3, 0)
        assert_exhaustive(r.replace(h_d=np.zeros_like(r.h_d)), 2049, RngState(11, 0))

    @pytest.mark.parametrize("n_t", [2, 3])
    @pytest.mark.parametrize("samples", [2047, 2048, 2049, 4100])
    def test_across_filter_blocks(self, monkeypatch, n_t, samples):
        # blocks of 2048 candidates: one short block, one full block, or
        # full blocks and a last one of 1 or 4 candidates. All-zero
        # candidates score NaN and stay in rows, so they mark the first and
        # last rows of each block as scored
        monkeypatch.setattr(oracle, "_FILTER_ENTRIES", 2048 * n_t)
        zeros = sorted({0, 2047, 2048, 4095, 4096, samples - 1} & set(range(samples)))
        rng = np.random.default_rng(samples)
        for i in range(2):
            u, u2 = rng.random((samples, n_t)), rng.random(samples * n_t)
            u[zeros] = 0.0
            rows = assert_exhaustive(realization_at(n_t, i), samples, RngState(0),
                                     feed(monkeypatch, u, u2))
            assert set(zeros) <= set(rows) and len(rows) <= len(zeros) + 20

    def test_all_zero_candidate_rows(self, monkeypatch):
        # U = 0 makes u1 = 1, a zero radius: the whole row is a zero vector,
        # here on both sides of a filter block boundary
        n_t, samples = 3, 4100
        monkeypatch.setattr(oracle, "_FILTER_ENTRIES", 2048 * n_t)
        rng = np.random.default_rng(12)
        u, u2 = rng.random((samples, n_t)), rng.random(samples * n_t)
        u[[0, 5, 2047, 2048, samples - 1]] = 0.0
        rows = assert_exhaustive(realization_at(n_t, 1), samples, RngState(0),
                                 feed(monkeypatch, u, u2))
        assert {0, 5, 2047, 2048, samples - 1} <= set(rows)

    def test_near_ties_below_float32_error(self, monkeypatch):
        # Two candidates: B has every phase just past a point where float32
        # rounding flips, on its side of higher gain, and A just before it,
        # so float32 trig puts B ahead by about 1e-6. A's radii make it win
        # the exact scan by 1e-13 to 1e-10 instead: only the exact scan of
        # both can tell, and a filter narrower than its error drops A.
        n_t = 8
        rng = np.random.default_rng(13)
        for i in range(10):
            r = realization_at(n_t, i)
            h_d, a, eps = r.h_d, r.effective_si_vector(), r.epsilon

            def gain(u, u2):
                return kernels.sample_scan(h_d, a, eps, box_muller(1.0 - u, u2)[None])[1]

            u, u2 = rng.random(n_t), rng.uniform(0.65, 0.95, n_t)
            below, above = _float32_flips(u2)
            step = 1e-7 * np.eye(n_t)
            rising = np.array([gain(u, u2 + step[j]) > gain(u, u2 - step[j])
                               for j in range(n_t)])
            u2_b, u2_a = np.where(rising, above, below), np.where(rising, below, above)
            gain_b = gain(u, u2_b)
            margin, u_a = min(((d, ua) for ua in _radius_nudges(u)
                               if (d := gain(ua, u2_a) - gain_b) > 0.0),
                              key=lambda pair: pair[0])
            assert margin < 1e-9 * gain_b
            draw = feed(monkeypatch, np.concatenate((u_a, u)),
                        np.concatenate((u2_a, u2_b)))
            rows = assert_exhaustive(r, 2, RngState(0), draw)
            assert list(rows) == [0, 1]


def test_float32_trig_error_is_inside_the_filter_bound():
    # the filter's bound: per entry, cos32 + i sin32 of float32(2 pi u) is
    # within _SAMPLE_ETA / 8 of the exact cos + i sin of the float64 phase
    u = np.random.default_rng(14).random(1_000_000)
    quarter = np.arange(9) * (np.pi / 4) / (2.0 * np.pi)
    steps = np.concatenate((np.arange(-50, 51) * 1e-9, np.arange(-50, 51) * 2.0 ** -53))
    u = np.concatenate((u, (quarter[:, None] + steps).ravel()))
    u = u[(u >= 0.0) & (u < 1.0)]
    phase = 2.0 * np.pi * u
    t = phase.astype(np.float32)
    err = np.hypot(np.cos(t) - np.cos(phase), np.sin(t) - np.sin(phase))
    assert err.max() <= oracle._SAMPLE_ETA / 8


class TestCertify:
    """The per-instance check `fdbf verify` runs, called as a library."""

    @staticmethod
    def certify(r, grid_points=10_000, samples=200, perturb_alpha=0.0):
        return oracle.certify(r, RngState(0, 1_000_000), grid_points=grid_points,
                              samples=samples, perturb_alpha=perturb_alpha, rho=1.0)

    @pytest.mark.parametrize("grid_points", [4, 10_000])
    def test_canonical_optimum_passes_on_the_grid(self, canonical, grid_points):
        # alpha* = 2/3 is a grid point of both grids
        verdict = self.certify(canonical, grid_points)
        assert verdict.reasons == ()
        assert verdict.grid_slack == 0.0
        assert verdict.sample_slack >= -oracle.SAMPLE_SLACK_TOL
        assert verdict.activity <= oracle.ACTIVITY_TOL

    def test_a_perturbed_candidate_fails_activity_and_grid_not_feasibility(self):
        for r in draw_realizations(SystemConfig(n_t=4), 200):
            verdict = self.certify(r, grid_points=1000, perturb_alpha=0.05)
            assert verdict.activity > oracle.ACTIVITY_TOL
            assert verdict.grid_slack < -oracle.GRID_SLACK_TOL
            checks = [reason.split(" ")[0] for reason in verdict.reasons]
            assert checks[:2] == ["SI", "grid"] and "candidate" not in checks

    def test_one_antenna_with_an_active_cap_has_a_degenerate_grid(self):
        active = [r for r in draw_realizations(SystemConfig(n_t=1), 40)
                  if norm_sq(r.effective_si_vector()) > r.epsilon]
        assert len(active) >= 10
        for r in active:
            verdict = self.certify(r, grid_points=100)
            assert verdict.reasons == () and verdict.grid_slack is None

    def test_a_verdict_survives_pickling(self):
        # verify's workers send their verdicts back pickled
        for r in (canonical_realization(), realization_at(1, 0)):
            verdict = self.certify(r, grid_points=100, perturb_alpha=0.05)
            assert pickle.loads(pickle.dumps(verdict)) == verdict


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
