"""Hot numeric loops of the closed form and its two oracles, in numpy.

`solve_batch` solves a batch of instances and `solve_one` a single instance
from raw (h_d, H, v); `grid_scan` (an alpha grid of the one-parameter
family) and `sample_scan` (arbitrary candidate directions) scan one instance
(h_d, a, eps). Each is written once, vectorized over complex128 arrays.

Shared conventions: channels enter unnormalized, beamformers are normalized
inside the kernel, downlink gain |h_d^H w|^2 and leakage |a^H w|^2 are
reported for the normalized vector. A projection residual with squared norm
below 1e-24 * ||h_d||^2 counts as zero (the parallel corner). Caps must be
finite and >= 0 (0 asks for full nulling), channels finite and of the
documented shapes, or the kernels raise ValueError.

The solvers take their gains from Gram scalars: with h_d = q + p and q
orthogonal to p, the optimum w ∝ q + (1 - alpha) p has every norm and gain
in closed form from ||q||^2, ||p||^2 and |a^H h_d|^2. `_gram_gains` states
that once, for `solve_one` on Python floats and `solve_batch` on arrays.

`solve_batch` takes one cap or a 1-D axis of caps. A sweep over the SIC
level hands it the whole axis in one call: one pass computes the rows'
cap-independent geometry once, and each cap's values are bit-identical to
a call with that cap alone.
"""

import math

import numpy as np

from .beamform import (_NORMAL_MIN, SubnormalLeakageError, _leakage_split,
                       closed_form)
from .numerics import PARALLEL_TOL_SQ

# the one kernel implementation; only perfbench records it
BACKEND = "numpy"


def _cvec(x):
    return np.ascontiguousarray(x, dtype=np.complex128)


def _batch_rows(h_d, a):
    """h_d and a of a batch solve as equal (n, n_t) complex128 arrays, n_t >= 1."""
    h_d, a = _cvec(h_d), _cvec(a)
    if h_d.ndim != 2 or h_d.shape != a.shape or h_d.shape[1] == 0:
        raise ValueError(f"h_d and a must be (n, n_t) arrays of the same shape "
                         f"with n_t >= 1, got {h_d.shape} and {a.shape}")
    return h_d, a


def _caps(eps):
    """The cap argument of solve_batch as float64: 0-d or non-empty 1-D."""
    caps = np.asarray(eps, dtype=np.float64)
    if caps.ndim > 1 or (caps.ndim == 1 and caps.size == 0):
        raise ValueError("eps must be a scalar or a non-empty 1-D array of caps")
    bad = caps[~(np.isfinite(caps) & (caps >= 0.0))]
    if bad.size:
        raise ValueError(f"eps must be finite and >= 0, got {bad[0]}")
    return caps


# a non-finite entry, or one so large that ||h_d||^2 ||a||^2 overflows, makes
# the product of the two reductions inf or nan: checking it costs O(n), not O(n n_t)
_NOT_FINITE = "h_d and a must be finite, with ||h_d||^2 ||a||^2 below the float64 range"
# solve_batch squares ||h_d||^2 in the gains it keeps bit for bit, so that
# square must neither overflow nor, for a nonzero h_d, leave the normal range.
# Like beamform._leakage_split, whose bound and error it shares, it
# rejects a subnormal ||a||^2.
_NOT_FINITE_BATCH = _NOT_FINITE + ", and ||h_d||^4 a normal float64 unless h_d = 0"


def _check_instance(hd2, gram, eps):
    """The input rule of one instance, from its Python floats ||h_d||^2
    and ||a||^2 and its cap: ValueError unless hd2 * gram is finite and
    0 <= eps < inf."""
    if not math.isfinite(hd2 * gram):
        raise ValueError(_NOT_FINITE)
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")


def _dot_rows(x, y):
    """Row-wise sum of x * y: the one reduction every batched term uses."""
    return np.einsum("ij,ij->i", x, y)


def _gram_gains(q2, p2, mag, b):
    """Norm and gains of w ∝ q + b p from Gram scalars, on floats or arrays.

    q2 = ||q||^2, p2 = ||p||^2 = mag/||a||^2, mag = |a^H h_d|^2 and
    b = 1 - alpha. Since h_d = q + p with q orthogonal to p, the unnormalized
    w has ||w||^2 = q2 + b^2 p2, h_d^H w = q2 + b p2 and |a^H w|^2 = b^2 mag.
    Returns (w2, gain, si): ||w||^2 and the downlink gain and leakage of the
    normalized w. Squares are x * x, which rounds alike on Python floats and
    numpy arrays (a float's ** 2 is libm pow); gain is mu * (mu / w2), which
    stays finite wherever mu is. w2 = 0 only in the parallel corner, whose
    gains every caller replaces: dividing by 1 there neither raises nor warns.
    """
    bb = b * b
    w2 = q2 + bb * p2
    mu = q2 + b * p2
    d = w2 + (w2 == 0.0)
    return w2, mu * (mu / d), bb * mag / d


def solve_batch(h_d, a, eps):
    """Closed-form solve of a batch of instances under one cap or a cap axis.

    h_d, a: (n, n_t) complex arrays of downlink channels and effective
    leakage directions; eps: scalar cap or 1-D array of caps. Returns
    (alpha, si_opt, gain_opt, gain_zf, norm_w, zf_ok). The cap-dependent
    alpha, si_opt, gain_opt and norm_w have shape eps.shape + (n,); gain_zf
    and zf_ok do not depend on the cap and have shape (n,). gain_* are
    squared downlink amplitudes of the normalized optimal / zero-forcing
    vectors; zf_ok is False where zero-forcing is degenerate (h_d parallel
    to a). This is the vectorized form of beamform.closed_form.

    One pass computes the cap-independent geometry of every row once, then
    alpha and the gains of every (cap, row) pair, elementwise: rows with
    alpha != 0 take them from _gram_gains, rows with alpha = 0 transmit
    h_d itself, and rows with alpha = 1 transmit the zero-forcing vector
    and report gain_zf. Each cap's values are bit-identical to a solve with
    that cap alone, and a row's to a solve of that row alone, so callers
    bound a call's memory by the rows they pass. Raises ValueError on h_d
    and a that are not 2-D of one shape, on a cap that is not finite or
    below 0, on channels whose ||h_d||^2 ||a||^2 is not finite or whose
    ||h_d||^4 is not a normal float64 (h_d = 0 aside), and on a subnormal
    ||a||^2.
    """
    h_d, a = _batch_rows(h_d, a)
    caps = _caps(eps)
    e = caps.reshape(-1, 1)  # one row per cap, broadcast over the rows
    hc, ac = h_d.conj(), a.conj()
    hh = _dot_rows(hc, h_d)
    hd2 = hh.real
    gram = _dot_rows(ac, a).real
    # the gains square hh and h_d^H q, and |h_d^H q| <= hd2
    with np.errstate(over="ignore"):
        hd4 = hd2 * hd2
        big = ~(np.isfinite(hd2 * gram) & np.isfinite(hd4))
    if (big | ((hd2 > 0.0) & (hd4 < _NORMAL_MIN))).any():
        raise ValueError(_NOT_FINITE_BATCH)
    if ((gram > 0.0) & (gram < _NORMAL_MIN)).any():
        raise SubnormalLeakageError
    c = _dot_rows(ac, h_d)
    mag = c.real ** 2 + c.imag ** 2

    safe_gram = np.where(gram > 0.0, gram, 1.0)
    coef = np.where(gram > 0.0, c / safe_gram, 0.0)
    p = a * coef[:, None]
    q = h_d - p
    q2 = _dot_rows(q.conj(), q).real
    tol = PARALLEL_TOL_SQ * hd2
    zf_ok = q2 > tol
    cq = _dot_rows(hc, q)
    gain_zf = np.divide(cq.real ** 2 + cq.imag ** 2, q2,
                        out=np.zeros_like(q2), where=zf_ok)

    # active cap: 1 - alpha = min(1, sqrt(eps/(gram-eps)) * ||q||/||p||),
    # the cancellation-free equivalent of sqrt((zeta-eta)/zeta)
    safe_mag = np.where(mag > 0.0, mag, 1.0)
    active = (mag - e * hd2 > 0.0) & (gram > e)
    den = np.where(active, gram - e, 1.0)
    b2 = (e / den) * (q2 * gram / safe_mag)
    alpha = np.where(active, 1.0 - np.minimum(1.0, np.sqrt(b2)), 0.0)

    # alpha != 0 transmits w ∝ q + (1 - alpha) p: gains from the Gram
    # terms; alpha = 0 transmits h_d itself: |w|^2 = hd2, h_d^H w = hh,
    # a^H w = c
    on = alpha != 0.0
    w2, g, s = _gram_gains(q2, mag / safe_gram, mag, 1.0 - alpha)
    # under an active cap, a row parallel to a (not zf_ok) takes the
    # corner: the rounding left in its q is no direction to move along
    live = np.where(on, zf_ok, hd2 > tol)
    safe_hd2 = np.where(hd2 > tol, hd2, 1.0)
    gain_opt = np.where(on, g, (hh.real ** 2 + hh.imag ** 2) / safe_hd2)
    si_opt = np.where(on, s, mag / safe_hd2)
    norm_w = np.ones(alpha.shape)
    zf_row = alpha == 1.0
    if zf_row.any():
        # alpha = 1 transmits the zero-forcing vector q itself
        gain_opt[zf_row] = np.broadcast_to(gain_zf, zf_row.shape)[zf_row]

    if not live.all():
        # parallel corner: transmit along h_d at reduced power, leakage
        # on the cap. back2 = eps (hd2 / mag) is the squared back-off
        # norm; eps hd2 alone can be subnormal where back2 is not
        dead = ~live
        back2 = e * (hd2 / safe_mag)
        gain_opt[dead] = (back2 * hd2)[dead]
        si_opt[dead] = np.broadcast_to(e, dead.shape)[dead]
        norm_w[dead] = np.sqrt(back2)[dead]
    out = caps.shape + (len(h_d),)
    return (alpha.reshape(out), si_opt.reshape(out), gain_opt.reshape(out),
            gain_zf, norm_w.reshape(out), zf_ok)


def solve_one(h_d, H, v, eps):
    """Closed-form solve of a single instance from raw (h_d, H, v, eps).

    Returns (alpha, si_opt, gain_opt, norm_w). Counts the full work of one
    solve including the effective leakage direction a = H^H v. The split
    of h_d comes from beamform._leakage_split, alpha and the corner
    back-off from beamform.closed_form and the gains from _gram_gains, on
    Python floats. Raises ValueError on a cap that is not finite or below
    0, on a channel or leakage direction whose ||h_d||^2 ||a||^2 is not
    finite, and on a subnormal ||a||^2.
    """
    a = np.dot(v, H.conj())
    _, q, gram, mag = _leakage_split(h_d, a)
    p2 = mag / gram if gram else 0.0
    q2 = float(np.vdot(q, q).real)
    hd2 = q2 + p2
    _check_instance(hd2, gram, eps)
    alpha, back2 = closed_form(hd2, gram, mag, q2, eps)
    w2, gain, si = _gram_gains(q2, p2, mag, 1.0 - alpha)
    # under an active cap (alpha != 0) the corner is h_d parallel to a,
    # reported as solve_batch reports it
    if (q2 if alpha else w2) <= PARALLEL_TOL_SQ * hd2:
        return alpha, eps, back2 * hd2, math.sqrt(back2)
    return alpha, si, gain, 1.0


# Grid feasibility slack. Has to admit exact boundary candidates whose
# leakage lands last-ulp above the cap (so the alpha* grid point itself is
# never rejected) while keeping any accepted overshoot far below verify's
# oracle.OVERSHOOT_TOL; 1e-12 absolute does both for caps down to 1e-6.
GRID_FEAS_TOL = 1e-12
_GRID_CHUNK = 65536


def grid_scan(h_d, a, eps, n_grid):
    """Exhaustive scan of the one-parameter family on a uniform alpha grid.

    Splits h_d along a with beamform._leakage_split, evaluates
    w(alpha) ∝ h_d - alpha p at alpha = g/(n_grid-1) and keeps the best
    downlink gain among candidates whose leakage meets eps + GRID_FEAS_TOL.
    Returns (best_idx, best_gain, n_feasible, max_violation) where
    max_violation = max(0, si - eps) over accepted candidates and
    best_idx = -1 when no candidate is feasible. Raises ValueError as
    solve_one does on the channels and the cap.
    """
    h_d, a = _cvec(h_d), _cvec(a)
    p, _, gram, _ = _leakage_split(h_d, a)
    hd2 = float(np.vdot(h_d, h_d).real)
    _check_instance(hd2, gram, eps)
    denom = float(max(n_grid - 1, 1))
    best_idx = -1
    best_gain = -1.0
    n_feasible = 0
    max_violation = 0.0
    for start in range(0, n_grid, _GRID_CHUNK):
        idx = np.arange(start, min(start + _GRID_CHUNK, n_grid))
        alphas = idx / denom
        W = h_d[None, :] - alphas[:, None] * p[None, :]
        w2 = np.einsum("ij,ij->i", W.conj(), W).real
        live = w2 > PARALLEL_TOL_SQ * hd2
        safe_w2 = np.where(live, w2, 1.0)
        ca = W @ a.conj()
        si = (ca.real ** 2 + ca.imag ** 2) / safe_w2
        feas = live & (si <= eps + GRID_FEAS_TOL)
        n_here = int(np.count_nonzero(feas))
        if n_here == 0:
            continue
        n_feasible += n_here
        viol = float(np.max(si[feas] - eps))
        if viol > max_violation:
            max_violation = viol
        cw = W @ h_d.conj()
        gain = (cw.real ** 2 + cw.imag ** 2) / safe_w2
        gain[~feas] = -np.inf
        k = int(np.argmax(gain))
        if gain[k] > best_gain:
            best_gain = float(gain[k])
            best_idx = int(idx[k])
    return best_idx, best_gain, n_feasible, max_violation


def _row_sums(x):
    """Sums over the last axis, added one column at a time from the left."""
    total = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        total += x[..., j]
    return total


def sample_scan(h_d, a, eps, W):
    """Scan arbitrary candidate directions, power-scaled onto the feasible set.

    Each row of W is normalized; rows whose unit-power leakage exceeds eps
    are backed off in power until the leakage sits on the cap. Returns
    (best_idx, best_gain, best_scale, max_violation); best_scale is the norm
    of the winning (possibly backed-off) beamformer.

    Row-independent: every sum runs over a row's own entries, one column at
    a time, in elementwise operations (no BLAS, whose blocking makes a row's
    bits depend on the rows passed with it). So scanning W[k:k+1] gives row
    k the same bits as scanning all of W.

    h_d and a are 1-D of one length n_t >= 1 and W is (m, n_t), and the
    channels and cap meet solve_one's rule, or ValueError.
    """
    h_d, a, W = _cvec(h_d), _cvec(a), _cvec(W)
    if (h_d.ndim != 1 or h_d.shape != a.shape or W.shape[1:] != h_d.shape
            or h_d.size == 0):
        raise ValueError(f"h_d and a must be (n_t,) arrays of the same shape with "
                         f"n_t >= 1 and W (m, n_t), got {h_d.shape}, {a.shape} "
                         f"and {W.shape}")
    _check_instance(float(np.vdot(h_d, h_d).real), float(np.vdot(a, a).real), eps)
    Wr, Wi = W.real, W.imag
    w2 = _row_sums(Wr * Wr + Wi * Wi)
    # Re and Im of h_d^H w and a^H w, one row of the result each
    c = np.stack((h_d, a))[:, None, :]
    re = _row_sums(c.real * Wr + c.imag * Wi)
    im = _row_sums(c.real * Wi - c.imag * Wr)
    cw2, ca2 = re * re + im * im
    live = w2 > 0.0
    safe_w2 = np.where(live, w2, 1.0)
    si_unit = ca2 / safe_w2
    scale2 = np.where(si_unit > eps, eps / np.where(si_unit > 0.0, si_unit, 1.0), 1.0)
    gain = scale2 * cw2 / safe_w2
    gain[~live] = -np.inf
    if not np.any(live):
        return -1, -1.0, 1.0, 0.0
    viol = scale2 * si_unit - eps
    max_violation = float(max(0.0, np.max(viol[live])))
    k = int(np.argmax(gain))
    return k, float(gain[k]), float(math.sqrt(scale2[k])), max_violation


def warmup():
    """Do nothing: the kernels are plain numpy, with nothing to compile.

    Kept because perfbench times `import fdbf` plus this call as `setup_s`.
    """
