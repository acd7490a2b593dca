import hashlib
import math

import numpy as np
import pytest

from fdbf import kernels
from fdbf.beamform import DegenerateParallelError, family, optimal, zf
from fdbf.channel import SystemConfig, si_threshold
from fdbf.experiment import draw_batch
from fdbf.numerics import inner, matvec_adj, norm_sq

from conftest import canonical_realization, random_instance


def batch_of(instances):
    """Stack (h_d, H, v, eps) tuples into the (h_d, a) arrays kernels take."""
    h = np.stack([h_d for h_d, _, _, _ in instances])
    a = np.stack([matvec_adj(H, v) for _, H, v, _ in instances])
    return h, a


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
        alpha, si, gain, gain_zf, norm_w, zf_ok = kernels.solve_batch(h, a, eps)
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


def _solve_batch_one_cap(h_d, a, eps):
    """solve_batch for one scalar cap: all rows at once, every
    cap-independent term recomputed, and the gains of rows with alpha != 0
    from the Gram terms. The reference the cap-axis kernel must reproduce
    bit for bit."""
    h_d = np.ascontiguousarray(h_d, dtype=np.complex128)
    a = np.ascontiguousarray(a, dtype=np.complex128)
    tol_sq = kernels._PAR_TOL_SQ
    hh = np.einsum("ij,ij->i", h_d.conj(), h_d)
    hd2 = hh.real
    gram = np.einsum("ij,ij->i", a.conj(), a).real
    c = np.einsum("ij,ij->i", a.conj(), h_d)
    mag = c.real ** 2 + c.imag ** 2
    safe_gram = np.where(gram > 0.0, gram, 1.0)
    coef = np.where(gram > 0.0, c / safe_gram, 0.0)
    p = a * coef[:, None]
    q = h_d - p
    q2 = np.einsum("ij,ij->i", q.conj(), q).real
    eta = mag - eps * hd2
    active = (eta > 0.0) & (gram > eps)
    den = np.where(active, gram - eps, 1.0)
    safe_mag = np.where(mag > 0.0, mag, 1.0)
    b2 = (eps / den) * (q2 * gram / safe_mag)
    alpha = np.where(active, 1.0 - np.minimum(1.0, np.sqrt(b2)), 0.0)
    zf_ok = q2 > tol_sq * hd2
    cq = np.einsum("ij,ij->i", h_d.conj(), q)
    gain_zf = np.divide(cq.real ** 2 + cq.imag ** 2, q2,
                        out=np.zeros_like(q2), where=zf_ok)
    # w = q + b p with b = 1 - alpha; at alpha = 0 it is h_d itself
    b = 1.0 - alpha
    p2 = mag / safe_gram
    on = alpha != 0.0
    w2 = np.where(on, q2 + b * b * p2, hd2)
    live = w2 > tol_sq * hd2
    safe_w2 = np.where(live, w2, 1.0)
    mu = q2 + b * p2
    gain_opt = np.where(on, mu * (mu / safe_w2),
                        (hh.real ** 2 + hh.imag ** 2) / safe_w2)
    si_opt = np.where(on, b * b * mag / safe_w2, mag / safe_w2)
    gain_opt[alpha == 1.0] = gain_zf[alpha == 1.0]
    norm_w = np.ones_like(w2)
    dead = ~live
    back2 = eps * (hd2 / safe_mag)
    gain_opt[dead] = (back2 * hd2)[dead]
    si_opt[dead] = eps
    norm_w[dead] = np.sqrt(back2)[dead]
    return alpha, si_opt, gain_opt, gain_zf, norm_w, zf_ok


def _solve_batch_one_cap_einsum(h_d, a, eps):
    """The one-cap kernel as it was before the Gram-term gains: it forms
    w = h_d - alpha p and takes its gains by einsum. The Gram form must
    agree with it to within _EINSUM_GAIN_ULPS and _EINSUM_SI_ULPS."""
    h_d = np.ascontiguousarray(h_d, dtype=np.complex128)
    a = np.ascontiguousarray(a, dtype=np.complex128)
    tol_sq = kernels._PAR_TOL_SQ
    hd2 = np.einsum("ij,ij->i", h_d.conj(), h_d).real
    gram = np.einsum("ij,ij->i", a.conj(), a).real
    c = np.einsum("ij,ij->i", a.conj(), h_d)
    mag = c.real ** 2 + c.imag ** 2
    safe_gram = np.where(gram > 0.0, gram, 1.0)
    coef = np.where(gram > 0.0, c / safe_gram, 0.0)
    p = a * coef[:, None]
    q = h_d - p
    q2 = np.einsum("ij,ij->i", q.conj(), q).real
    eta = mag - eps * hd2
    active = (eta > 0.0) & (gram > eps)
    den = np.where(active, gram - eps, 1.0)
    safe_mag = np.where(mag > 0.0, mag, 1.0)
    b2 = (eps / den) * (q2 * gram / safe_mag)
    alpha = np.where(active, 1.0 - np.minimum(1.0, np.sqrt(b2)), 0.0)
    w_un = h_d - alpha[:, None] * p
    zf_ok = q2 > tol_sq * hd2
    cq = np.einsum("ij,ij->i", h_d.conj(), q)
    gain_zf = np.divide(cq.real ** 2 + cq.imag ** 2, q2,
                        out=np.zeros_like(q2), where=zf_ok)
    w2 = np.einsum("ij,ij->i", w_un.conj(), w_un).real
    live = w2 > tol_sq * hd2
    safe_w2 = np.where(live, w2, 1.0)
    cw = np.einsum("ij,ij->i", h_d.conj(), w_un)
    ca = np.einsum("ij,ij->i", a.conj(), w_un)
    gain_opt = (cw.real ** 2 + cw.imag ** 2) / safe_w2
    si_opt = (ca.real ** 2 + ca.imag ** 2) / safe_w2
    norm_w = np.ones_like(w2)
    dead = ~live
    gain_opt[dead] = (eps * hd2 * hd2 / safe_mag)[dead]
    si_opt[dead] = eps
    norm_w[dead] = np.sqrt(eps * hd2 / safe_mag)[dead]
    return alpha, si_opt, gain_opt, gain_zf, norm_w, zf_ok


# The einsum kernel forms w = h_d - alpha p componentwise, so its gains carry
# rounding of order ulp * ||h_d||^2 / ||w||^2 relative to themselves, and its
# leakage of order ulp times the MRT leakage |a^H h_d|^2 / ||h_d||^2; near
# alpha = 1 that leakage is pure noise. On 150 row sets like those of
# test_agrees_with_the_einsum_kernel the two kernels differed by at most 12
# and 150 of these ulps.
_EINSUM_GAIN_ULPS = 64
_EINSUM_SI_ULPS = 1024


def assert_matches_per_cap(got, h, a, caps):
    """got = solve_batch(h, a, caps) equals the reference at every cap."""
    alpha, si, gain, gain_zf, norm_w, zf_ok = got
    for k, eps in enumerate(caps):
        ref = _solve_batch_one_cap(h, a, float(eps))
        for x, y in zip((alpha[k], si[k], gain[k], gain_zf, norm_w[k], zf_ok),
                        ref):
            np.testing.assert_array_equal(x, y)


def random_rows(rng, n, n_t):
    """Rows of h_d and a with per-row scales over six decades."""
    def rows():
        z = rng.standard_normal((n, n_t)) + 1j * rng.standard_normal((n, n_t))
        return z * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    return rows(), rows()


def block_rows(n_t):
    """Rows of about 16k complex entries at n_t: batches larger than a
    sweep chunk's at every n_t."""
    return (1 << 14) // n_t


# rows of test_mixed_edge_rows plus the alpha = 1.0 and zero-channel rows
_EDGE_H = [[0.5 ** 0.5, 0.5 ** 0.5], [0.5 ** 0.5, 0.5 ** 0.5], [1.0, 0.0],
           [2.0, 2.0j], [1.0, 1e-10], [0.0, 0.0]]
_EDGE_A = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0],
           [0.25, 0.25j], [1.0, 0.0], [1.0, 1.0]]
_EDGE_CAPS = np.array([0.0, 1e-14, 0.1, 0.5, 10.0])


def with_edge_rows(h, a, starts):
    """Copies of h, a with the edge rows written in at each start row."""
    h, a = h.copy(), a.copy()
    for start in starts:
        h[start:start + len(_EDGE_H)] = np.array(_EDGE_H, dtype=complex)
        a[start:start + len(_EDGE_A)] = np.array(_EDGE_A, dtype=complex)
    return h, a


def edge_rows_across_a_boundary(rng):
    """Random n_t = 2 rows with the edge rows on both sides of row
    block_rows(2) and at the very end."""
    rows = block_rows(2)
    h, a = random_rows(rng, 2 * rows + 5, 2)
    return with_edge_rows(h, a, (rows - 3, len(h) - len(_EDGE_H)))


class TestCapAxis:
    @pytest.mark.parametrize("n_t", [1, 2, 10, 64])
    def test_bit_identical_to_one_solve_per_cap(self, n_t):
        rng = np.random.default_rng(40 + n_t)
        rows = block_rows(n_t)
        h, a = random_rows(rng, 2 * rows + rows // 3 + 1, n_t)
        gram = np.einsum("ij,ij->i", a.conj(), a).real
        # from every row active (eps = 0) to none (eps above every |a|^2)
        caps = np.concatenate([[0.0], np.logspace(-12.0, 7.0, 12),
                               [2.0 * gram.max()]])
        got = kernels.solve_batch(h, a, caps)
        assert np.all(got[0][0] > 0.0) and np.all(got[0][-1] == 0.0)
        assert_matches_per_cap(got, h, a, caps)

    @pytest.mark.parametrize("n_t", [1, 2, 10, 64])
    def test_agrees_with_the_einsum_kernel(self, n_t):
        rng = np.random.default_rng(60 + n_t)
        h, a = random_rows(rng, 3000 // n_t + 5, n_t)
        gram = np.einsum("ij,ij->i", a.conj(), a).real
        caps = np.concatenate([[0.0], np.logspace(-16.0, 7.0, 24),
                               [2.0 * gram.max()]])
        alpha, si, gain, _, _, _ = kernels.solve_batch(h, a, caps)
        hd2 = np.einsum("ij,ij->i", h.conj(), h).real
        c = np.einsum("ij,ij->i", a.conj(), h)
        p = a * (c / gram)[:, None]
        mrt_si = (c.real ** 2 + c.imag ** 2) / hd2
        ulp = np.finfo(np.float64).eps
        for k, eps in enumerate(caps):
            _, si_ref, gain_ref, _, _, _ = _solve_batch_one_cap_einsum(h, a, eps)
            w = h - alpha[k, :, None] * p
            w2 = np.einsum("ij,ij->i", w.conj(), w).real
            with np.errstate(divide="ignore", invalid="ignore"):
                bound = _EINSUM_GAIN_ULPS * ulp * (hd2 / w2) * gain_ref
            assert np.all((gain[k] == gain_ref)
                          | (np.abs(gain[k] - gain_ref) <= bound))
            assert np.all(np.abs(si[k] - si_ref)
                          <= _EINSUM_SI_ULPS * ulp * mrt_si)

    def test_edge_rows_on_both_sides_of_a_block_boundary(self):
        h, a = edge_rows_across_a_boundary(np.random.default_rng(47))
        got = kernels.solve_batch(h, a, _EDGE_CAPS)
        assert_matches_per_cap(got, h, a, _EDGE_CAPS)
        alpha, _, gain, gain_zf, norm_w, zf_ok = got
        rows = block_rows(2)
        for at in (rows - 3, len(h) - len(_EDGE_H)):
            # the alpha = 1.0 row transmits the zero-forcing vector
            assert alpha[1, at + 4] == 1.0 and gain[1, at + 4] == gain_zf[at + 4]
            # the parallel row backs off power, the zero channel has none
            assert not zf_ok[at + 3] and 0.0 < norm_w[2, at + 3] < 1.0
            assert norm_w[2, at + 5] == 0.0

    @pytest.mark.parametrize("lo, hi", [(0, 1), (11, 17), (5, 14), (0, 60),
                                        (53, 60), (30, 59)])
    def test_a_row_slice_solves_as_in_the_whole_batch(self, lo, hi):
        # the sweep solves each chunk of trials on its own: a row's bits
        # must not depend on the rows passed with it
        h, a = random_rows(np.random.default_rng(48), 60, 2)
        h, a = with_edge_rows(h, a, (11, 54))
        whole = kernels.solve_batch(h, a, _EDGE_CAPS)
        part = kernels.solve_batch(h[lo:hi], a[lo:hi], _EDGE_CAPS)
        for x, y in zip(whole, part):
            np.testing.assert_array_equal(x[..., lo:hi], y)

    def test_output_shapes(self):
        h, a = random_rows(np.random.default_rng(49), 7, 3)
        scalar = kernels.solve_batch(h, a, 1e-3)
        assert [x.shape for x in scalar] == [(7,)] * 6
        axis = kernels.solve_batch(h, a, [1e-3, 1e-2, 1.0])
        assert [x.shape for x in axis] == [(3, 7), (3, 7), (3, 7), (7,),
                                           (3, 7), (7,)]
        assert scalar[5].dtype == axis[5].dtype == bool
        for k in (0, 1, 2, 4):
            np.testing.assert_array_equal(scalar[k], axis[k][0])

    @pytest.mark.parametrize("eps", [[], [[0.1, 0.2]]], ids=["empty", "2-D"])
    def test_rejects_other_cap_shapes(self, eps):
        h, a = random_rows(np.random.default_rng(50), 4, 2)
        with pytest.raises(ValueError, match="eps"):
            kernels.solve_batch(h, a, eps)

    @pytest.mark.parametrize("a_shape", [(5, 2), (3, 3)], ids=["rows", "columns"])
    def test_rejects_mismatched_shapes(self, a_shape):
        h = np.ones((3, 2), dtype=complex)
        with pytest.raises(ValueError, match="same shape"):
            kernels.solve_batch(h, np.ones(a_shape, dtype=complex), 0.01)

    def test_sweep_solve_bytes_are_pinned(self):
        # the solve behind test_cli's c-axis CSV pin; the CSVs print 10
        # digits and miss a one-ulp change, these digests do not
        cfg = SystemConfig(n_t=64, trials=1500, seed=7)
        h, a = draw_batch(cfg)
        caps = [si_threshold(cfg.replace(c_db=float(c_db)))
                for c_db in range(-130, -79, 5)]
        got = dict(zip(("alpha", "si_opt", "gain_opt", "gain_zf", "norm_w",
                        "zf_ok"), kernels.solve_batch(h, a, caps)))
        assert {k: hashlib.sha256(x.tobytes()).hexdigest()
                for k, x in got.items()} == {
            "alpha": "072cc004e7a12e7b13dc8280490ee6f5c5e4db5fd2ef90e6fc38560d48ea31a0",
            "si_opt": "4f5a39cd66d72fc6adfda53b8cdbc7fadfbd9b0c43082d8cedc60e2bf85c8416",
            "gain_opt": "73e5a406e123b436d199e87dde2ef2b89d6b50bac397a979e3b111a73f1ed4b5",
            "gain_zf": "c983a960af630049e82417acf86d7eb78fca8e6aa8ee122ce5d6ae368bd7a67c",
            "norm_w": "688456608f8835cb7ab7f0d1918c2af9c8f3d50aad56bb7336a1cd37006a6666",
            "zf_ok": "b6f524d4dcd4f01a9cadd967f443875150f2a303fa0284179dafdee9fd9ac8d2",
        }


class TestBadInputs:
    # each of these once came back as nan, or as a negative gain, silently
    @pytest.mark.parametrize("h, a", [
        ([1.0, np.nan], [0.3, 0.1j]),
        ([1.0, 0.5j], [np.inf, 0.1j]),
        ([1e200, 0.5j], [1e200, 0.1j]),  # ||h_d||^2 ||a||^2 overflows
    ], ids=["nan_channel", "inf_leakage", "overflow"])
    def test_solve_batch_rejects_non_finite_channels(self, h, a):
        rows = block_rows(2)
        hs, as_ = random_rows(np.random.default_rng(52), 2 * rows, 2)
        for at in (0, rows + 1):  # in the first row and in a later one
            hb, ab = hs.copy(), as_.copy()
            hb[at], ab[at] = h, a
            with pytest.raises(ValueError, match="must be finite"):
                kernels.solve_batch(hb, ab, [0.01, 0.1])

    # each of these was once reshaped or broadcast into other instances and
    # solved silently, or failed with TypeError (2-D channel) or
    # ZeroDivisionError/IndexError (n_t = 0): the 1-D h_d = (1, 1j),
    # a = (1, 0) came back as two n_t = 1 rows with gain_opt (0.1, 1.0),
    # where its one n_t = 2 row gives 1.6, and the 1-D candidate (1, 1j)
    # scored 0.2 where the same candidate as a row scores 0.4
    @pytest.mark.parametrize("kernel, args", [
        ("solve_batch", ([1.0, 1j], [1.0, 0.0], 0.1)),
        ("solve_batch", (np.ones((2, 2, 3)), np.ones((2, 2, 3)), 0.1)),
        ("sample_scan", ([1.0, 1j], [1.0, 0.0], 0.1, [1.0, 1j])),
        ("sample_scan", ([1.0, 1j], [1.0, 0.0], 0.1, [[1.0], [1j]])),
        ("sample_scan", ([[1.0, 1j]], [[1.0, 0.0]], 0.1, [[1.0, 1j]])),
        ("solve_batch", (np.ones((2, 0)), np.ones((2, 0)), 0.1)),
        ("sample_scan", (np.ones(0), np.ones(0), 0.1, np.ones((3, 0)))),
    ], ids=["batch_1d", "batch_3d", "sample_1d_candidate",
            "sample_one_column", "sample_2d_channel", "batch_no_antenna",
            "sample_no_antenna"])
    def test_rejects_malformed_shapes(self, kernel, args):
        with pytest.raises(ValueError, match="same shape"):
            getattr(kernels, kernel)(*args)

    @pytest.mark.parametrize("eps", [0.0, 1e300, [0.0, 1e300]],
                             ids=["zero_cap", "huge_cap", "cap_axis"])
    def test_solve_batch_rejects_gains_past_the_float64_range(self, eps):
        # ||h_d|| = 1e78: the exact gains are 2e156, but |h_d^H h_d|^2 and
        # |h_d^H q|^2 overflow on the way, which once returned inf silently
        h = np.array([[0.0, 1e78j, 1e78j]])
        a = np.array([[0.0, 0.0, 1j]])
        with pytest.raises(ValueError, match="must be finite"):
            kernels.solve_batch(h, a, eps)

    @pytest.mark.parametrize("eps", [-1.0, np.nan, np.inf, [0.1, -1e-300]],
                             ids=["negative", "nan", "inf", "one_of_an_axis"])
    def test_solve_batch_rejects_bad_caps(self, eps):
        h, a = random_rows(np.random.default_rng(53), 4, 2)
        with pytest.raises(ValueError, match="eps must be finite and >= 0"):
            kernels.solve_batch(h, a, eps)

    @pytest.mark.parametrize("h_d, H, v", [
        ([1.0, np.nan], [[0.3, 0.1j]], [1.0]),
        ([1.0, 0.5j], [[np.nan, 0.1j]], [1.0]),
        ([1.0, 0.5j], [[0.3, 0.1j]], [np.inf]),
        ([np.inf, 0.5j], [[0.0, 0.0]], [1.0]),
    ], ids=["nan_channel", "nan_si_channel", "inf_combiner", "inf_no_leakage"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_solve_one_rejects_non_finite_channels(self, h_d, H, v):
        h_d, H, v = (np.array(x, dtype=complex) for x in (h_d, H, v))
        with pytest.raises(ValueError, match="must be finite"):
            kernels.solve_one(h_d, H, v, 0.01)

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf])
    def test_solve_one_rejects_bad_caps(self, eps):
        r = canonical_realization()
        with pytest.raises(ValueError, match="eps must be finite and >= 0"):
            kernels.solve_one(r.h_d, r.H, r.v, eps)

    def test_zero_cap_is_full_nulling(self):
        # eps = 0 stays valid: every row with leakage nulls it exactly
        h, a = random_rows(np.random.default_rng(54), 50, 3)
        alpha, si, gain, gain_zf, norm_w, zf_ok = kernels.solve_batch(
            h, a, 0.0)
        assert np.all(zf_ok) and np.all(norm_w == 1.0)
        assert np.all(alpha == 1.0) and np.all(si == 0.0)
        np.testing.assert_array_equal(gain, gain_zf)
        H = a[:, None, :].conj()  # one receive antenna, v = 1: H^H v = a
        for i in range(len(h)):
            one = kernels.solve_one(h[i], H[i], np.ones(1, complex), 0.0)
            assert one[0] == 1.0 and one[1] == 0.0 and one[3] == 1.0
            assert one[2] == pytest.approx(gain_zf[i], rel=1e-12)

    def test_subnormal_leakage_norm_is_rejected(self):
        # ||a||^2 = 1e-320: solve_one once returned alpha = 1 with gain 1.24
        # where full nulling at n_t = 1 leaves 0, and solve_batch overflowed
        h, a = np.array([[1e5 + 0j]]), np.array([[1e-160 + 0j]])
        with pytest.raises(ValueError, match="must be 0 or a normal float64"):
            kernels.solve_one(h[0], a.conj(), np.ones(1, complex), 0.0)
        with pytest.raises(ValueError, match="must be 0 or a normal float64"):
            kernels.solve_batch(h, a, 0.0)
        # the smallest normal ||a||^2 is still solved: full nulling, gain 0
        a = np.array([[2.0 ** -511 + 0j]])
        assert kernels.solve_one(h[0], a.conj(), np.ones(1, complex),
                                       0.0)[:3] == (1.0, 0.0, 0.0)
        alpha, si, gain, _, _, _ = kernels.solve_batch(h, a, 0.0)
        assert (alpha[0], si[0], gain[0]) == (1.0, 0.0, 0.0)

    def test_solve_batch_rejects_a_channel_whose_square_norm_underflows(self):
        # ||h_d||^4 = 1e-318 is subnormal: the batch once gave
        # 9.99988867e-161 for both gains where solve_one gives 1e-160
        h = np.array([[0.0, 1e-80j, 3e-80j]])
        a = np.array([[0.0, 0.0, 1j]])
        assert kernels.solve_one(h[0], a.conj(), np.ones(1, complex),
                                       0.0)[2] == 1e-160
        for eps in (0.0, [0.0, 1e-300]):
            with pytest.raises(ValueError, match="a normal float64 unless"):
                kernels.solve_batch(h, a, eps)
        # h_d = 0 has no gain to lose and stays valid
        zero = kernels.solve_batch(np.zeros_like(h), a, 0.0)
        assert zero[2][0] == 0.0 and not zero[5][0]


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
        n_grid = 100001
        best_idx, best_gain, n_feasible, max_violation = kernels.grid_scan(
            r.h_d, a, r.epsilon, n_grid)
        # smallest feasible grid alpha sits just above 2/3
        assert best_idx == 66667
        assert best_gain == pytest.approx(0.8, abs=1e-4)
        assert best_gain <= 0.8 + 1e-9
        assert n_feasible == n_grid - best_idx
        assert max_violation == 0.0

    def test_relaxed_cap_prefers_matched_filter(self):
        r = canonical_realization(epsilon=10.0)
        a = matvec_adj(r.H, r.v)
        best_idx, best_gain, n_feasible, _ = kernels.grid_scan(
            r.h_d, a, r.epsilon, 501)
        assert best_idx == 0
        assert best_gain == pytest.approx(1.0, abs=1e-12)
        assert n_feasible == 501

    def test_parallel_instance_has_no_feasible_point(self):
        # a parallel to h_d with constant unit-power leakage above the cap:
        # every live grid point is infeasible and alpha = 1 has no direction
        h_d = np.array([2.0 + 0j, 2.0j])
        a = np.array([0.25 + 0j, 0.25j])
        best_idx, best_gain, n_feasible, max_violation = kernels.grid_scan(
            h_d, a, 0.1, 1001)
        assert best_idx == -1
        assert best_gain == -1.0
        assert n_feasible == 0
        assert max_violation == 0.0

    def test_agrees_with_direct_family_walk(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            h_d, H, v, eps = random_instance(rng, n_t=4)
            a = matvec_adj(H, v)
            n_grid = 257
            got = kernels.grid_scan(h_d, a, eps, n_grid)

            best_idx, best_gain, n_feasible = -1, -1.0, 0
            for g in range(n_grid):
                try:
                    member = family(g / (n_grid - 1), h_d, a)
                except DegenerateParallelError:
                    continue
                if member.si_power <= eps + kernels.GRID_FEAS_TOL:
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
        n_grid = kernels._GRID_CHUNK * 2 + 17
        chunked = kernels.grid_scan(r.h_d, a, r.epsilon, n_grid)
        monkeypatch.setattr(kernels, "_GRID_CHUNK", n_grid)
        whole = kernels.grid_scan(r.h_d, a, r.epsilon, n_grid)
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

    @pytest.mark.parametrize("n_t", [1, 2, 3, 4, 8, 64])
    def test_rows_scan_independently(self, n_t):
        # a row's bits must not depend on the rows scanned with it: the best
        # row scanned alone, or inside any window, keeps its gain and scale
        rng = np.random.default_rng(40 + n_t)
        for _ in range(40 if n_t == 4 else 6):
            h_d, H, v, eps = random_instance(rng, n_t=n_t)
            a = matvec_adj(H, v)
            W = rng.standard_normal((1000, n_t)) + 1j * rng.standard_normal((1000, n_t))
            k, gain, scale, _ = kernels.sample_scan(h_d, a, eps, W)
            assert kernels.sample_scan(h_d, a, eps, W[k:k + 1])[:3] == (0, gain, scale)
            lo = max(0, k - 5)
            assert kernels.sample_scan(h_d, a, eps, W[lo:k + 9])[:3] == (k - lo, gain, scale)

    def test_max_violation_is_the_worst_single_row(self):
        rng = np.random.default_rng(46)
        h_d, H, v, _ = random_instance(rng, n_t=3)
        a = matvec_adj(H, v)
        W = rng.standard_normal((60, 3)) + 1j * rng.standard_normal((60, 3))
        for eps in (0.0, 1e-7 * norm_sq(a), 0.3 * norm_sq(a)):
            worst = max(kernels.sample_scan(h_d, a, eps, W[k:k + 1])[3]
                        for k in range(len(W)))
            assert kernels.sample_scan(h_d, a, eps, W)[3] == worst

    def test_zero_rows_are_skipped(self):
        r = canonical_realization()
        a = matvec_adj(r.H, r.v)
        W = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        best_idx, best_gain, _, _ = kernels.sample_scan(r.h_d, a, r.epsilon, W)
        assert best_idx == 1
        assert best_gain == pytest.approx(0.5, abs=1e-12)


def test_warmup_and_backend_name_are_kept():
    # the benchmark harness times warmup() in its set-up and records BACKEND
    assert kernels.warmup() is None
    assert kernels.BACKEND == "numpy"
