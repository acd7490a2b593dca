import dataclasses
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdbf.beamform import optimal, zf
from fdbf.channel import SystemConfig, draw_realization, si_threshold
import fdbf.experiment
import fdbf.procs
from fdbf.numerics import _LONG_STREAM, RngState
from fdbf.experiment import (_Z95, SweepAxes, SweepPoint, SweepResult, _draws,
                             _exact_sum, _mean_ci, _pow_squares, draw_batch,
                             draw_realizations, run_sweep, run_trial)

from conftest import assert_no_children, count_forks

CANONICAL_TG = 0.4496602867867916  # log2(1.8)/log2(1.5) - 1


class TestMetrics:
    def test_canonical_instance_metrics(self, canonical):
        sol = optimal(canonical.h_d, canonical.H, canonical.v, canonical.epsilon)
        z = zf(canonical.h_d, canonical.effective_si_vector())
        tg = math.log2(1.0 + sol.dl_gain) / math.log2(1.0 + z.dl_gain) - 1.0
        assert tg == pytest.approx(CANONICAL_TG, abs=1e-12)
        assert 1.0 - z.dl_gain / sol.dl_gain == pytest.approx(0.375, abs=1e-12)


class TestAxes:
    def test_from_config_is_singleton_grid(self):
        cfg = SystemConfig(n_t=4, rho_db=5.0, c_db=-100.0)
        axes = SweepAxes.from_config(cfg)
        assert axes == SweepAxes((4,), (5.0,), (-100.0,))

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            SweepAxes((), (0.0,), (-110.0,))

    def test_point_lookup(self):
        pt = SweepPoint(n_t=2, rho_db=0.0, c_db=-110.0, tg_mean=1.0, tg_ci=0.1,
                        ps_mean=0.4, ps_ci=0.05, n_excluded=0)
        res = SweepResult(axes=SweepAxes((2,), (0.0,), (-110.0,)), points=(pt,),
                          trials=10, seed=0)
        assert res.point(2, 0.0, -110.0) is pt
        with pytest.raises(KeyError):
            res.point(4, 0.0, -110.0)


class TestRunTrial:
    def test_matches_object_api(self):
        cfg = SystemConfig(n_t=4, trials=1, seed=3)
        rec = run_trial(cfg, 0)
        assert rec is not None
        assert rec.rate_opt >= rec.rate_zf
        assert rec.si_opt <= si_threshold(cfg) * (1.0 + 1e-9)
        assert rec.tg_ratio == rec.rate_opt / rec.rate_zf
        assert rec.ps_ratio == rec.gain_zf / rec.gain_opt

    def test_single_antenna_draw_is_degenerate(self):
        cfg = SystemConfig(n_t=1, trials=1, seed=0)
        assert run_trial(cfg, 0) is None


def _per_trial_draws(cfg):
    rows = [draw_realization(cfg, RngState(cfg.seed, t))
            for t in range(cfg.trials)]
    return (np.array([r.h_d for r in rows]),
            np.array([r.effective_si_vector() for r in rows]))


def _stream_words(n_r, n_t):
    """Words of one trial's stream: h_u, h_d and H, two uniforms an entry."""
    return 2 * (n_r + n_t + n_r * n_t)


# the smallest n_t whose streams (n_r = 2) take the long-stream path
_LONG_N_T = -(-(_LONG_STREAM - 4) // 6)


def _zero_uplink_of_trial_6(monkeypatch, n_r):
    """Make trial 6's first n_r uniforms 0, so u1 = 1 and h_u = 0."""
    real = fdbf.experiment.stream_uniforms

    def uniforms_with_zero_uplink(seed, streams, m):
        u = real(seed, streams, m)
        u[np.asarray(streams) == 6, :n_r] = 0.0
        return u

    monkeypatch.setattr(fdbf.experiment, "stream_uniforms",
                        uniforms_with_zero_uplink)


class TestDrawBatch:
    @pytest.mark.parametrize("seed, n_t, n_r, k_db, trials", [
        (7, 2, 2, 10.0, 300),
        (0, 1, 2, 10.0, 100),
        (3, 5, 1, 0.0, 100),
        (5, 4, 4, math.inf, 100),
        (9, 8, 2, -math.inf, 100),
        (2**64 - 1, 3, 2, 20.0, 50),
        (11, 64, 2, 10.0, 400),  # 168 trials per pass: 400 is no multiple
    ])
    def test_bit_identical_to_per_trial_draws(self, seed, n_t, n_r, k_db,
                                              trials):
        cfg = SystemConfig(n_t=n_t, n_r=n_r, k_factor_db=k_db, trials=trials,
                           seed=seed)
        h_ref, a_ref = _per_trial_draws(cfg)
        h, a = draw_batch(cfg)
        np.testing.assert_array_equal(h, h_ref)
        np.testing.assert_array_equal(a, a_ref)

    def test_chunk_size_does_not_change_the_draw(self, monkeypatch):
        cfg = SystemConfig(n_t=3, trials=64, seed=11)
        h1, a1 = draw_batch(cfg)
        monkeypatch.setattr(fdbf.experiment, "_WORDS_PER_PASS", 7 * 22)
        h7, a7 = draw_batch(cfg)  # 22 words a trial: passes of 7 trials
        np.testing.assert_array_equal(h1, h7)
        np.testing.assert_array_equal(a1, a7)

    def test_rows_match_single_trial_draws(self):
        cfg = SystemConfig(n_t=2, trials=8, seed=5)
        h, a = draw_batch(cfg)
        assert h.shape == (8, 2) and a.shape == (8, 2)
        for t in (0, 3, 7):
            r = draw_realization(cfg, RngState(cfg.seed, t))
            np.testing.assert_array_equal(h[t], r.h_d)
            np.testing.assert_array_equal(a[t], r.effective_si_vector())

    def test_all_zero_uplink_channel_replays_the_trial(self, monkeypatch):
        real_draw = fdbf.experiment.draw_realization
        replayed = []

        def counting_draw(cfg_, rng):
            replayed.append(rng.stream_id)
            return real_draw(cfg_, rng)

        _zero_uplink_of_trial_6(monkeypatch, 2)
        monkeypatch.setattr(fdbf.experiment, "draw_realization", counting_draw)
        for n_t in (3, _LONG_N_T):  # a short stream and a long one
            cfg = SystemConfig(n_t=n_t, n_r=2, trials=10, seed=4)
            replayed.clear()
            monkeypatch.setattr(fdbf.experiment, "_WORDS_PER_PASS",
                                4 * _stream_words(cfg.n_r, n_t))
            h, a = draw_batch(cfg)  # passes of 4 trials: trial 6 in the second
            assert replayed == [6]
            h_ref, a_ref = _per_trial_draws(cfg)
            np.testing.assert_array_equal(h, h_ref)
            np.testing.assert_array_equal(a, a_ref)

    @pytest.mark.parametrize("n_t, n_r, replay", [(2, 2, False),
                                                  (_LONG_N_T, 2, False),
                                                  (3, 1, True)])
    def test_realizations_equal_single_trial_draws(self, monkeypatch, n_t,
                                                   n_r, replay):
        cfg = SystemConfig(n_t=n_t, n_r=n_r, seed=7)
        if replay:
            _zero_uplink_of_trial_6(monkeypatch, n_r)
        monkeypatch.setattr(fdbf.experiment, "_WORDS_PER_PASS",
                            4 * _stream_words(n_r, n_t))
        rows = list(draw_realizations(cfg, 10))
        assert len(rows) == 10
        for t, r in enumerate(rows):
            ref = draw_realization(cfg, RngState(cfg.seed, t))
            for name in ("h_u", "h_d", "H", "v"):
                np.testing.assert_array_equal(getattr(r, name),
                                              getattr(ref, name))
            assert r.epsilon == ref.epsilon

    def test_non_finite_draw_raises(self, monkeypatch):
        monkeypatch.setattr(fdbf.experiment, "box_muller_join",
                            lambda r, cos, sin: np.full(r.shape, np.nan + 0j))
        with pytest.raises(ValueError, match="finite"):
            draw_batch(SystemConfig(n_t=2, trials=3, seed=0))


class TestSharedBoxMuller:
    @pytest.mark.parametrize("n_r", [1, 2, 3])
    @pytest.mark.parametrize("n_ts", [(2, 4, 6, 8, 10), (8, 2, 8), (1, 2, 5)])
    def test_every_n_t_equals_its_own_draw(self, monkeypatch, n_ts, n_r):
        cfg = SystemConfig(n_r=n_r, k_factor_db=3.0, seed=12)
        # passes of 7 trials at the largest n_t: chunk ends inside the 30
        monkeypatch.setattr(fdbf.experiment, "_WORDS_PER_PASS",
                            7 * _stream_words(n_r, max(n_ts)))
        shared = list(_draws(cfg, 30, n_ts))
        assert [d.n_t for d in shared] == list(n_ts) * 5
        for j, n_t in enumerate(n_ts):
            mine = shared[j::len(n_ts)]
            # the one-n_t draw, in chunks sized on n_t alone
            alone = list(_draws(cfg, 30, (n_t,)))
            for name in ("h_u", "h_d", "H", "v", "a"):
                np.testing.assert_array_equal(
                    np.concatenate([getattr(d, name) for d in mine]),
                    np.concatenate([getattr(d, name) for d in alone]))
            for d in mine:
                for i, t in enumerate(range(30)[d.rows]):
                    r = draw_realization(cfg.replace(n_t=n_t),
                                         RngState(cfg.seed, t))
                    for name in ("h_u", "h_d", "H", "v"):
                        np.testing.assert_array_equal(getattr(d, name)[i],
                                                      getattr(r, name))
                    np.testing.assert_array_equal(d.a[i],
                                                  r.effective_si_vector())

    @pytest.mark.parametrize("n_ts, n_r, cos_sin, log_sqrt", [
        ((2, 4, 6, 8, 10), 2, 60, 42),  # figure_nt: 92 of each, one per n_t
        ((64,), 2, 194, 194),           # cancel_dense: one n_t, no sharing
        ((3,), 2, 2 + 3 + 6, 2 + 3 + 6)])
    def test_each_word_is_transformed_once(self, monkeypatch, n_ts, n_r,
                                           cos_sin, log_sqrt):
        counts = {"phase": 0, "radius": 0}

        def counting(name, real):
            def count(u):
                counts[name] += u.size
                return real(u)
            return count

        monkeypatch.setattr(fdbf.experiment, "box_muller_phase", counting(
            "phase", fdbf.experiment.box_muller_phase))
        monkeypatch.setattr(fdbf.experiment, "box_muller_radius", counting(
            "radius", fdbf.experiment.box_muller_radius))
        trials = 300
        for _ in _draws(SystemConfig(n_r=n_r, seed=1), trials, n_ts):
            pass
        assert counts == {"phase": cos_sin * trials, "radius": log_sqrt * trials}


def _mean_ci_reference(values):
    """The generator-over-numpy-scalars form the sweep CSVs were made with."""
    m = len(values)
    if m == 0:
        return float("nan"), float("nan")
    mean = math.fsum(values) / m
    if m == 1:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in values) / (m - 1)
    return mean, _Z95 * math.sqrt(var / m)


class TestMeanCi:
    def test_bit_identical_to_reference(self):
        # an array square in place of scalar ** 2 changes about one result
        # in a thousand here, so the count is what makes this a gate
        rng = np.random.default_rng(17)
        for _ in range(3000):
            n = int(rng.integers(2, 300))
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7) + rng.random()
            assert _mean_ci(x) == _mean_ci_reference(x)

    def test_empty_and_single(self):
        mean, ci = _mean_ci(np.array([]))
        assert math.isnan(mean) and math.isnan(ci)
        assert _mean_ci(np.array([2.5])) == (2.5, 0.0)


# values mixed into some arrays: signed zeros, the smallest subnormal,
# deeper subnormals and the smallest normal
_TINY = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1060, -(2.0 ** -1040),
                  2.0 ** -1022])


@st.composite
def value_arrays(draw):
    """Finite float64 arrays that stress correctly rounded sums and squares.

    Lengths 1-5000 and binary exponents spread up to 700 either side of a
    centre in [-1000, 1000], so squares reach the subnormal range or
    overflow. Then one of: as drawn; a third of the values replaced by
    signed zeros and subnormals; every value also negated, so the exact sum
    is 0, perhaps plus one value scaled far down; one sign and one binade
    for all values, so that the sum is near n times the largest; or a tenth
    of the values near the top of the float64 range, so that the sum
    overflows.
    """
    n = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    centre = draw(st.integers(-1000, 1000))
    spread = draw(st.integers(0, 700))
    exps = rng.integers(centre - spread, centre + spread, n, endpoint=True)
    x = np.ldexp(rng.standard_normal(n), np.clip(exps, -1100, 1020))
    kind = draw(st.sampled_from(["plain", "tiny", "cancelling", "one_sign",
                                 "huge"]))
    if kind == "tiny":
        x[rng.integers(0, n, n // 3 + 1)] = rng.choice(_TINY, n // 3 + 1)
    elif kind == "cancelling":
        half = x[:(n + 1) // 2]
        parts = [half, -half]
        if draw(st.booleans()):
            parts.append(half[:1] * 2.0 ** -70)
        x = rng.permutation(np.concatenate(parts))
    elif kind == "one_sign":
        x = np.ldexp(rng.uniform(0.5, 1.0, n), min(centre, 1000))
        x *= draw(st.sampled_from([-1.0, 1.0]))
    elif kind == "huge":
        k = n // 10 + 1
        x[rng.integers(0, n, k)] = np.ldexp(rng.uniform(-0.99, 0.99, k), 1024)
    return x


def _outcome(f, x):
    """The bits f(x) returns, as hex strings, or the type of what it raises."""
    try:
        return tuple(float(v).hex() for v in np.atleast_1d(f(x)))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


# values of d whose d * d and libm pow's d ** 2 differ, found by search: the
# error of d * d is 0.493 to 0.49999 of the gap to the neighbour on its side,
# and exactly 0.5 for the last
_POW_NOT_PRODUCT = [-64908.28678893847, 0.24907417054625416,
                    -0.11118209934717183, -0.09476659939607528,
                    1.1386475824509238e+139, -8.15048591954273e-151,
                    6.491795029670573e-153]


class TestExactAggregation:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(value_arrays())
    def test_matches_the_scalar_forms(self, x):
        # the reference on Python floats is the scalar form itself: its
        # ** 2 raises OverflowError where a square overflows
        xs = x.tolist()
        assert _outcome(_mean_ci, x) == _outcome(_mean_ci_reference, xs)
        assert _outcome(_exact_sum, x) == _outcome(math.fsum, xs)
        assert _outcome(_pow_squares, x) == _outcome(
            lambda v: [t ** 2 for t in v], xs)

    def test_exact_sum_of_one_sign_values(self):
        # sums near n max|x| are where a sigma below (n + 2) max|x| would
        # round the sum of q; random arrays above reach them only by chance
        rng = np.random.default_rng(3)
        for _ in range(40):
            x = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0, 1000)
            assert _exact_sum(x) == math.fsum(x.tolist())

    def test_pow_squares_near_rounding_midpoints(self):
        d = np.array(_POW_NOT_PRODUCT)
        assert all(v * v != v ** 2 for v in _POW_NOT_PRODUCT)
        assert _pow_squares(d).tolist() == [v ** 2 for v in _POW_NOT_PRODUCT]

    def test_squares_at_binade_edges(self):
        # below a power of two the gap is half the one above, but d * d is a
        # power of two only when d is one, and then it is exact: so the gap
        # read from d * d's exponent is the gap on the side of its error.
        # The candidates are the floats next to 2**m and sqrt(2) 2**m.
        edge = []
        for m in range(-470, 470, 7):
            for base in (1.0, math.sqrt(2.0)):
                v = math.ldexp(base, m)
                for _ in range(3):
                    v = math.nextafter(v, 0.0)
                for _ in range(6):
                    edge.append(v)
                    v = math.nextafter(v, math.inf)
        for v in edge:
            if math.frexp(v * v)[0] == 0.5:
                assert Fraction(v) ** 2 == Fraction(v * v)
        d = np.array(edge)
        assert _pow_squares(d).tolist() == [v ** 2 for v in edge]

    @pytest.mark.parametrize("values", [[1.0, np.nan], [np.nan],
                                        [np.inf, -np.inf], [2.0, -np.inf]],
                             ids=["nan", "lone_nan", "inf_pair", "neg_inf"])
    def test_non_finite_values_raise(self, values):
        with pytest.raises(ValueError, match="values must be finite"):
            _mean_ci(np.array(values))

    def test_sweep_fails_on_a_nan_ratio(self, monkeypatch):
        # a NaN gain must stop the sweep, not become a CSV cell
        real_solve = fdbf.experiment.kernels.solve_batch

        def nan_gain(h_d, a, eps):
            out = real_solve(h_d, a, eps)
            out[2][..., 0] = np.nan
            return out

        monkeypatch.setattr(fdbf.experiment.kernels, "solve_batch", nan_gain)
        with pytest.raises(ValueError, match="values must be finite"):
            run_sweep(SystemConfig(n_t=2, trials=20, seed=1))


def _bits(points):
    """Sweep points as tuples with every float as its hex bits."""
    return [tuple(v.hex() if isinstance(v, float) else v
                  for v in dataclasses.astuple(pt)) for pt in points]


class TestRunSweep:
    def test_single_trial_matches_reference_record(self):
        cfg = SystemConfig(n_t=4, trials=1, seed=3, rho_db=10.0)
        rec = run_trial(cfg, 0)
        res = run_sweep(cfg)
        pt = res.point(4, 10.0, cfg.c_db)
        assert pt.tg_mean == pytest.approx(rec.tg_ratio - 1.0, abs=1e-12)
        assert pt.ps_mean == pytest.approx(1.0 - rec.ps_ratio, abs=1e-12)
        assert pt.tg_ci == 0.0 and pt.ps_ci == 0.0
        assert pt.n_excluded == 0

    def test_mean_matches_per_trial_reference(self):
        cfg = SystemConfig(n_t=2, trials=200, seed=7)
        res = run_sweep(cfg)
        pt = res.points[0]
        recs = [run_trial(cfg, t) for t in range(cfg.trials)]
        kept = [r for r in recs if r is not None]
        assert pt.n_excluded == len(recs) - len(kept)
        tg_ref = math.fsum(r.tg_ratio - 1.0 for r in kept) / len(kept)
        ps_ref = math.fsum(1.0 - r.ps_ratio for r in kept) / len(kept)
        assert pt.tg_mean == pytest.approx(tg_ref, rel=1e-10)
        assert pt.ps_mean == pytest.approx(ps_ref, rel=1e-10)

    def test_power_saving_identical_along_snr_axis(self):
        cfg = SystemConfig(trials=500, seed=2)
        axes = SweepAxes(n_t=(2, 4), rho_db=(-10.0, 0.0, 20.0), c_db=(-110.0,))
        res = run_sweep(cfg, axes)
        for n_t in axes.n_t:
            ps = {res.point(n_t, r, -110.0).ps_mean for r in axes.rho_db}
            ci = {res.point(n_t, r, -110.0).ps_ci for r in axes.rho_db}
            assert len(ps) == 1 and len(ci) == 1

    def test_points_do_not_depend_on_the_rest_of_the_grid(self):
        cfg = SystemConfig(trials=300, seed=4)
        axes = SweepAxes(n_t=(2, 3), rho_db=(0.0,), c_db=(-110.0, -100.0))
        res = run_sweep(cfg, axes)
        for pt in res.points:
            alone = run_sweep(cfg, SweepAxes((pt.n_t,), (pt.rho_db,),
                                             (pt.c_db,)))
            assert alone.points == (pt,)

    def test_one_solve_per_array_size(self, monkeypatch):
        # every solve gets the whole c axis, once per (chunk, n_t)
        real_solve = fdbf.experiment.kernels.solve_batch
        calls = []

        def counting_solve(h_d, a, eps):
            calls.append((h_d.shape, np.shape(eps)))
            return real_solve(h_d, a, eps)

        monkeypatch.setattr(fdbf.experiment.kernels, "solve_batch",
                            counting_solve)
        # n_t = 3 takes 22 words a trial: passes of 16 trials
        monkeypatch.setattr(fdbf.experiment, "_WORDS_PER_PASS", 16 * 22)
        axes = SweepAxes(n_t=(2, 3), rho_db=(0.0, 10.0),
                         c_db=(-120.0, -110.0, -100.0))
        res = run_sweep(SystemConfig(trials=40, seed=6), axes)
        assert calls == [((rows, n_t), (3,)) for rows in (16, 16, 8)
                         for n_t in (2, 3)]
        assert len(res.points) == 12

    def test_shared_draw_matches_single_n_t_sweeps(self, monkeypatch):
        # unsorted, with a repeat and n_t = 1; n_t = 4 takes 28 words a
        # trial, so passes of 7 trials put chunk boundaries inside the 30
        cfg = SystemConfig(trials=30, seed=8)
        axes = SweepAxes(n_t=(4, 1, 3, 4), rho_db=(0.0, 10.0),
                         c_db=(-120.0, -100.0))
        alone = [run_sweep(cfg, SweepAxes((n_t,), axes.rho_db, axes.c_db))
                 for n_t in axes.n_t]
        monkeypatch.setattr(fdbf.experiment, "_WORDS_PER_PASS", 7 * 28)
        res = run_sweep(cfg, axes)
        assert _bits(res.points) == _bits(
            [pt for r in alone for pt in r.points])
        assert res.point(1, 0.0, -120.0).n_excluded == cfg.trials

    def test_all_zero_uplink_channel_replays_every_n_t(self, monkeypatch):
        cfg = SystemConfig(n_r=2, trials=10, seed=4)
        real_draw = fdbf.experiment.draw_realization
        real_solve = fdbf.experiment.kernels.solve_batch
        replayed = []
        solved = {}

        def counting_draw(cfg_, rng):
            replayed.append((cfg_.n_t, rng.stream_id))
            return real_draw(cfg_, rng)

        def keeping_solve(h_d, a, eps):
            solved.setdefault(h_d.shape[1], []).append((h_d, a))
            return real_solve(h_d, a, eps)

        _zero_uplink_of_trial_6(monkeypatch, cfg.n_r)
        monkeypatch.setattr(fdbf.experiment, "draw_realization", counting_draw)
        monkeypatch.setattr(fdbf.experiment.kernels, "solve_batch",
                            keeping_solve)
        for n_ts in ((2, 5), (2, _LONG_N_T)):  # short streams, long ones
            replayed.clear()
            solved.clear()
            # passes of 4 trials sized on the larger n_t: trial 6 in the second
            monkeypatch.setattr(fdbf.experiment, "_WORDS_PER_PASS",
                                4 * _stream_words(cfg.n_r, n_ts[1]))
            run_sweep(cfg, SweepAxes(n_ts, (0.0,), (-110.0,)))
            assert replayed == [(n_ts[0], 6), (n_ts[1], 6)]
            assert sorted(solved) == list(n_ts)
            for n_t, parts in solved.items():
                h_ref, a_ref = _per_trial_draws(cfg.replace(n_t=n_t))
                np.testing.assert_array_equal(
                    np.concatenate([h for h, _ in parts]), h_ref)
                np.testing.assert_array_equal(
                    np.concatenate([a for _, a in parts]), a_ref)

    def test_channels_are_not_kept_across_chunks(self, monkeypatch):
        # all of h_d and a at n_t = 64 would take 2 * 4000 * 64 * 16 bytes
        cfg = SystemConfig(n_t=64, trials=4000, seed=1)
        axes = SweepAxes((64,), (0.0,), tuple(range(-130, -79, 5)))
        run_sweep(cfg.replace(trials=10), axes)  # first-call allocations
        shared = []
        real_shared_empty = fdbf.procs.shared_empty

        def keeping_shared_empty(*args):
            shared.append(real_shared_empty(*args))
            return shared[-1]

        monkeypatch.setattr(fdbf.procs, "shared_empty", keeping_shared_empty)
        tracemalloc.start()
        try:
            run_sweep(cfg, axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(axes.c_db) == 11
        assert peak < 2 * cfg.trials * cfg.n_t * 16
        # the kept gains are in shared memory, which tracemalloc does not
        # see: one float64 per cap, gain_zf and a flag per trial, the bytes
        # cli.Settings bounds --trials by
        assert sum(a.nbytes for a in shared) == cfg.trials * (8 * 11 + 9)

    def test_deterministic_across_runs(self):
        cfg = SystemConfig(trials=100, seed=9)
        assert run_sweep(cfg).points == run_sweep(cfg).points

    def test_single_antenna_excludes_everything(self):
        cfg = SystemConfig(n_t=1, trials=50, seed=0)
        pt = run_sweep(cfg).points[0]
        assert pt.n_excluded == 50
        assert math.isnan(pt.tg_mean) and math.isnan(pt.ps_mean)

    def test_interval_shrinks_with_sample_size(self):
        wide = run_sweep(SystemConfig(n_t=4, trials=100, seed=13)).points[0]
        tight = run_sweep(SystemConfig(n_t=4, trials=10000, seed=13)).points[0]
        ratio = wide.ps_ci / tight.ps_ci
        assert 5.0 <= ratio <= 20.0  # expect ~sqrt(100) = 10
        assert abs(wide.ps_mean - tight.ps_mean) <= wide.ps_ci + tight.ps_ci

    @pytest.mark.parametrize("n_ts, c_db", [
        ((2, 6, 4), (-110.0,)), ((6,), (-130.0, -110.0, -90.0))],
        ids=["n_t sweep", "c sweep"])
    def test_workers_give_the_serial_bits(self, monkeypatch, n_ts, c_db):
        # n_t = 6 takes 40 words a trial: 6 chunks of at most 9 trials
        monkeypatch.setattr(fdbf.experiment, "_WORDS_PER_PASS", 9 * 40)
        cfg = SystemConfig(trials=50, seed=11)
        axes = SweepAxes(n_ts, (-10.0, 10.0), c_db)
        serial = _bits(run_sweep(cfg, axes).points)
        forks = count_forks(monkeypatch)
        for workers in (2, 3):
            assert _bits(run_sweep(cfg, axes, workers).points) == serial
            assert_no_children()
        # one child per worker, to draw and solve and then to aggregate
        assert len(forks) == 2 + 3

    def test_a_worker_error_reaches_the_caller(self, monkeypatch):
        def failing_solve(h_d, a, eps):
            raise ValueError(f"raised in process {os.getpid()}")

        monkeypatch.setattr(fdbf.experiment, "_WORDS_PER_PASS", 9 * 40)
        monkeypatch.setattr(fdbf.experiment.kernels, "solve_batch",
                            failing_solve)
        forks = count_forks(monkeypatch)
        with pytest.raises(ValueError, match="raised in process") as exc:
            run_sweep(SystemConfig(n_t=6, trials=50, seed=1), workers=2)
        assert len(forks) == 2
        assert str(exc.value) != f"raised in process {os.getpid()}"
        assert_no_children()
