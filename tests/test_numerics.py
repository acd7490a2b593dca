import math
import os
import sys
import threading

import numpy as np
import pytest

import fdbf.numerics
from fdbf.numerics import (_LONG_STREAM, RngState, box_muller,
                           box_muller_join, box_muller_phase,
                           box_muller_radius, box_muller_uniforms, inner, matvec_adj, norm_sq,
                           one_at_a_time, philox_raw, prepare_stream_drawer,
                           stream_generator, stream_uniforms, uniforms)
from fdbf.procs import fork_stages

from conftest import philox_generator, refuse_new_generators


class TestInner:
    def test_worked_example(self):
        a = np.array([1 + 1j, 2 + 0j])
        b = np.array([1 + 0j, 1 - 1j])
        assert inner(a, b) == pytest.approx(3 - 3j, abs=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-12)

    def test_linearity_in_second_argument(self):
        rng = np.random.default_rng(2)
        a, b, c = (rng.standard_normal(4) + 1j * rng.standard_normal(4)
                   for _ in range(3))
        lam = 0.7 - 1.3j
        lhs = inner(a, b + lam * c)
        rhs = inner(a, b) + lam * inner(a, c)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_self_inner_is_norm_sq(self):
        a = np.array([3 + 4j, 1j])
        assert inner(a, a) == pytest.approx(26.0)
        assert norm_sq(a) == pytest.approx(26.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner(np.ones(2, complex), np.ones(3, complex))


class TestMatvecAdj:
    def test_worked_example(self):
        H = np.array([[1j, 1 + 0j]])
        v = np.array([1.0 + 0j])
        out = matvec_adj(H, v)
        assert np.allclose(out, [-1j, 1.0], atol=1e-12)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(3)
        H = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        # <H^H v, x> == <v, H x>
        assert inner(matvec_adj(H, v), x) == pytest.approx(inner(v, H @ x), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            matvec_adj(np.ones((2, 3), complex), np.ones(3, complex))


class TestRngState:
    def test_value_semantics(self):
        st = RngState(42, 3)
        x = box_muller(*box_muller_uniforms(st, 8))
        y = box_muller(*box_muller_uniforms(st, 8))
        assert np.array_equal(x, y)

    def test_generator_semantics_advance(self):
        gen = philox_generator(42, 3)
        x = box_muller(*box_muller_uniforms(gen, 8))
        y = box_muller(*box_muller_uniforms(gen, 8))
        assert not np.array_equal(x, y)

    def test_streams_do_not_collide(self):
        x = box_muller(*box_muller_uniforms(RngState(42, 0), 8))
        y = box_muller(*box_muller_uniforms(RngState(42, 1), 8))
        assert not np.array_equal(x, y)

    def test_fixed_draw_count_per_call(self):
        # n complex draws consume exactly 2n uniforms, no rejection loop
        split = philox_generator(9, 2)
        box_muller_uniforms(split, 5)
        tail_after_5 = split.random(4)
        straight = philox_generator(9, 2)
        straight.random(10)
        assert np.array_equal(tail_after_5, straight.random(4))


class TestVectorizedPhilox:
    @pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("m", [1, 3, 4, 5, 17, 388])
    def test_known_answer_against_numpy(self, seed, m):
        streams = [0, 1, 999_999, 2**32, 2**63, 2**64 - 2, 2**64 - 1]
        words = philox_raw(seed, streams, m)
        assert words.shape == (len(streams), m) and words.dtype == np.uint64
        for row, stream in zip(words, streams):
            key = np.array([seed, stream], dtype=np.uint64)
            ref = np.random.Philox(key=key).random_raw(m)
            np.testing.assert_array_equal(row, np.atleast_1d(ref))

    def test_uniforms_match_generator_random(self):
        words = philox_raw(42, [3], 9)
        np.testing.assert_array_equal(uniforms(words)[0],
                                      philox_generator(42, 3).random(9))


class TestStreamUniforms:
    # 2**64 - 1 first and last, repeats and no order: a state left over from
    # one stream would show in the next
    STREAMS = [2**64 - 1, 5, 0, 5, 2**63, 1, 999_999, 0, 2**64 - 1]

    @pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("m", [1, 3, _LONG_STREAM - 1, _LONG_STREAM, 388])
    def test_rows_equal_fresh_generators(self, seed, m):
        u = stream_uniforms(seed, self.STREAMS, m)
        assert u.shape == (len(self.STREAMS), m) and u.dtype == np.float64
        for row, stream in zip(u, self.STREAMS):
            np.testing.assert_array_equal(
                row, philox_generator(seed, stream).random(m))

    @pytest.mark.parametrize("m, vectorized", [(_LONG_STREAM - 1, True),
                                               (_LONG_STREAM, False)])
    def test_stream_length_picks_the_path(self, monkeypatch, m, vectorized):
        calls = []
        real = fdbf.numerics.philox_raw

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fdbf.numerics, "philox_raw", counting)
        stream_uniforms(3, [0, 1], m)
        assert bool(calls) == vectorized
        assert one_at_a_time(2, m) != vectorized

    @pytest.mark.parametrize("stream", [[2**64 - 1], 0])
    @pytest.mark.parametrize("m", [1, _LONG_STREAM - 1])
    def test_a_lone_stream_reads_through_the_drawer(self, monkeypatch,
                                                    stream, m):
        ref = philox_generator(3, np.ravel(stream)[0]).random(m)
        prepare_stream_drawer()
        monkeypatch.setattr(fdbf.numerics, "philox_raw", None)
        refuse_new_generators(monkeypatch)
        assert one_at_a_time(1, m)
        u = stream_uniforms(3, stream, m)
        assert u.shape == (1, m)
        np.testing.assert_array_equal(u[0], ref)


class TestStreamDrawer:
    """The long-stream drawer is kept per thread; no draw may depend on it."""

    M = _LONG_STREAM + 37

    def assert_fresh(self, seed, streams, m):
        u = stream_uniforms(seed, streams, m)
        for row, stream in zip(u, streams):
            np.testing.assert_array_equal(
                row, philox_generator(seed, stream).random(m))

    def test_rows_after_other_draws(self):
        for seed, streams, m in [(1, [4, 2**64 - 1], 500), (2**64 - 1, [0], self.M),
                                 (9, [3, 3, 8], _LONG_STREAM), (0, [1], 5)]:
            stream_uniforms(seed, streams, m)
            self.assert_fresh(7, [2**63, 0, 11], self.M)

    def test_two_threads_at_once(self):
        # a short switch interval lets one thread run between the other's
        # key reset and its draw, which a shared drawer would not survive
        start = threading.Barrier(2)
        errors = []

        def draw(seed):
            try:
                start.wait(timeout=30)
                for k in range(100):
                    self.assert_fresh(seed, [k, k + 1, k + 2, 2**64 - 1 - k], self.M + k)
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(seed,)) for seed in (3, 4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_forked_child_after_the_parent_drew(self):
        stream_uniforms(5, [1, 2], self.M)
        drawer = id(fdbf.numerics._thread.drawer)
        streams = [7, 2**64 - 1]

        def child(seed):
            inherited = id(getattr(fdbf.numerics._thread, "drawer", None))
            return os.getpid(), inherited, stream_uniforms(seed, streams, self.M)

        for seed, (pid, inherited, u) in zip((5, 6), fork_stages([(child, (5, 6))], 2)[0]):
            assert pid != os.getpid() and inherited == drawer
            np.testing.assert_array_equal(u, np.array(
                [philox_generator(seed, s).random(self.M) for s in streams]))

    def test_a_stream_restarts_whatever_was_drawn_before(self):
        # a 32-bit draw leaves half a word buffered, which a restart drops
        stream_generator(3, 8).integers(0, 2**32, 3, dtype=np.uint32)
        for seed, stream in [(3, 8), (np.uint64(2**64 - 1), np.uint64(2**63))]:
            ref = philox_generator(seed, stream)
            halves, whole = ref.integers(0, 2**32, 5, dtype=np.uint32), ref.random(7)
            got = stream_generator(seed, stream)
            np.testing.assert_array_equal(
                got.integers(0, 2**32, 5, dtype=np.uint32), halves)
            np.testing.assert_array_equal(got.random(7), whole)

    def test_prepare_makes_the_drawer(self, monkeypatch):
        monkeypatch.setattr(fdbf.numerics, "_thread", threading.local())
        prepare_stream_drawer()
        assert hasattr(fdbf.numerics._thread, "drawer")

    @pytest.mark.parametrize("n", [1, 5, _LONG_STREAM // 2 - 1, _LONG_STREAM // 2, 300])
    def test_a_state_draws_through_the_drawer_at_any_length(self, monkeypatch, n):
        state = RngState(2**64 - 1, 9)
        gen = philox_generator(state.seed, state.stream_id)
        u1, u2 = 1.0 - gen.random(n), gen.random(n)
        stream_uniforms(4, [1, 2], self.M)  # leave the drawer on another stream
        drawer = fdbf.numerics._thread.drawer
        refuse_new_generators(monkeypatch)
        for _ in range(2):
            got = box_muller_uniforms(state, n)
            np.testing.assert_array_equal(got[0], u1)
            np.testing.assert_array_equal(got[1], u2)
        assert fdbf.numerics._thread.drawer is drawer


def _box_muller_product(u1, u2):
    """The complex-product form the sweep CSVs were made with."""
    r = np.sqrt(-np.log(u1))
    phase = 2.0 * np.pi * u2
    return r * (np.cos(phase) + 1j * np.sin(phase))


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64),
                                                 y.view(np.uint64))


class TestBoxMuller:
    def test_bit_identical_to_the_complex_product(self):
        u = uniforms(philox_raw(5, np.arange(200), 2000))
        u1, u2 = 1.0 - u[:, :1000], np.ascontiguousarray(u[:, 1000:])
        assert _same_bits(box_muller(u1, u2), _box_muller_product(u1, u2))

    def test_u1_of_one_across_phases(self):
        # u1 == 1 gives r = -0.0, where r cos and r sin alone sign the zeros
        # differently from the complex product in about a third of the phases
        u2 = np.concatenate([np.linspace(0.0, 1.0, 64, endpoint=False),
                             [0.25, 0.5, 0.75, 2.0 ** -53, 1.0 - 2.0 ** -53]])
        u1 = np.ones((2, u2.size))
        u1[1, ::2] = 0.5
        u2 = np.stack([u2, u2])
        assert _same_bits(box_muller(u1, u2), _box_muller_product(u1, u2))


    def test_join_of_strided_views_at_u1_of_one(self):
        # the join takes views into wider tables; u1 == 1 gives r = -0.0
        u2 = np.linspace(0.0, 1.0, 48, endpoint=False).reshape(3, 16)
        u1 = np.ones((3, 16))
        u1[1] = 0.25
        r = box_muller_radius(u1)
        assert np.signbit(r[0]).all() and not r[0].any()
        cos, sin = box_muller_phase(u2)
        z = box_muller_join(r[:, 2:14:3], cos[:, 1:13:3], sin[:, 1:13:3])
        expected = r[:, 2:14:3] * (cos[:, 1:13:3] + 1j * sin[:, 1:13:3])
        assert _same_bits(z, expected)
        assert _same_bits(box_muller(u1, u2), _box_muller_product(u1, u2))


class TestComplexGaussian:
    def test_variance_split_and_mean(self):
        z = box_muller(*box_muller_uniforms(RngState(1, 0), 200_000))
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)
        assert np.var(z.real) == pytest.approx(0.5, rel=0.03)
        assert np.var(z.imag) == pytest.approx(0.5, rel=0.03)
        assert np.mean(z) == pytest.approx(0.0, abs=0.01)

    def test_isotropy_of_phase(self):
        z = box_muller(*box_muller_uniforms(RngState(3, 1), 100_000))
        # rotating by i leaves the distribution invariant; compare moments
        assert np.mean(z) == pytest.approx(0.0, abs=0.02)
        assert np.mean(z ** 2) == pytest.approx(0.0, abs=0.02)
