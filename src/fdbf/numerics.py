"""Complex dense vector/matrix primitives and seeded complex-Gaussian sampling.

All downstream modules build on the handful of operations defined here:
Hermitian inner products, adjoint matrix-vector products and deterministic
circularly-symmetric Gaussian draws.

Vectors are 1-D complex128 ndarrays, matrices are 2-D complex128 ndarrays.
Random streams are counter-based (Philox) so that every Monte Carlo trial
can own an independent stream addressed by (seed, stream id) without any
shared mutable generator state. `stream_uniforms` draws the first uniforms
of many such streams, bit-identical to numpy's generator: long streams one
at a time through numpy's own Philox with its key reset per stream, short
ones all at once through `philox_raw`, a vectorized Philox4x64-10.
"""

from dataclasses import dataclass

import numpy as np

PARALLEL_RTOL = 1e-12  # |residual| / |input| below which a projection counts as zero


def as_cvector(x):
    """Coerce to a finite 1-D complex128 vector of dimension >= 1."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector with at least one entry, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def as_cmatrix(x):
    """Coerce to a finite 2-D complex128 matrix with rows, cols >= 1."""
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def inner(a, b):
    """Hermitian inner product sum_i conj(a_i) * b_i (conjugate on the first argument)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def norm_sq(a):
    """Squared Euclidean norm, real and >= 0."""
    a = np.asarray(a)
    return float(np.vdot(a, a).real)


def matvec_adj(H, v):
    """Adjoint product H^H v, mapping C^rows -> C^cols. Linear in v."""
    H = np.asarray(H)
    v = np.asarray(v)
    if v.shape != (H.shape[0],):
        raise ValueError(f"dimension mismatch: H is {H.shape}, v is {v.shape}")
    return H.conj().T @ v


@dataclass(frozen=True)
class RngState:
    """Value-type handle onto a counter-based random stream.

    The same (seed, stream_id) pair always reproduces the same draw sequence;
    distinct stream ids give statistically independent streams, so concurrent
    trials never share generator state.
    """

    seed: int
    stream_id: int = 0

    def generator(self):
        """Fresh numpy Generator positioned at the start of this stream."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 constants (Salmon et al., "Parallel random numbers: as easy
# as 1, 2, 3", SC'11): round multipliers and Weyl key increments.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1


def _mulhilo64(m, x):
    """(high, low) 64-bit halves of the 128-bit product m * x, elementwise.

    m is a Python int constant, x a uint64 array. The high half is built
    from 32-bit partial products in carry-free form: t and w1 each add a
    32-bit value to a product of two 32-bit values, which never overflows
    uint64, so 15 element operations give both halves.
    """
    m_lo, m_hi = m & _MASK32, m >> 32
    x_lo, x_hi = x & _MASK32, x >> 32
    t = (x_lo * m_lo >> 32) + x_hi * m_lo
    w1 = (t & _MASK32) + x_lo * m_hi
    high = x_hi * m_hi + (t >> 32) + (w1 >> 32)
    return high, x * m


def philox_raw(seed, stream_ids, m):
    """First m raw 64-bit words of each stream (seed, s) for s in stream_ids.

    Row i equals np.random.Philox(key=[seed, stream_ids[i]]).random_raw(m),
    the stream behind RngState(seed, stream_ids[i]).generator(), computed for
    all streams at once. numpy increments the 256-bit counter before each
    4-word block, so block b of a fresh stream is generated from counter b + 1.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64).reshape(-1, 1)
    blocks = -(-m // 4)
    # counter words start as a row (block index) and zeros; broadcasting
    # against the per-stream key widens them, so the first two rounds
    # multiply mostly small arrays
    c0 = np.arange(1, blocks + 1, dtype=np.uint64).reshape(1, -1)
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    k0, k1 = int(np.asarray(seed, dtype=np.uint64)), ids
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W0) & _MASK64
            k1 = k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo64(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo64(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(ids.shape[0], 4 * blocks)
    return words[:, :m]


def uniforms(words):
    """Doubles in [0, 1) from raw words, as Generator.random makes them."""
    return (words >> 11).astype(np.float64) * 2.0 ** -53


# streams at least this long are drawn one at a time by numpy's own Philox,
# which makes a word in about 5 ns but takes 2 to 3 us to reset per stream;
# philox_raw makes every word of a chunk at once, at 30 to 60 ns a word.
# Medians per 10 000 streams, 15 alternating rounds on 2 vCPUs, vectorized
# against one at a time: 16 words 10 against 39 ms, 64 words 37 against
# 37 ms, 96 words 44 against 29 ms, 388 words 178 against 47 ms. The two
# broke even between 64 and 80 words in that run and between 80 and 96 in
# a slower one.
_LONG_STREAM = 96


def stream_uniforms(seed, stream_ids, m):
    """First m uniforms of each stream (seed, s) for s in stream_ids.

    Row i equals RngState(seed, stream_ids[i]).generator().random(m) bit
    for bit. Streams of at least _LONG_STREAM words are drawn by one numpy
    Philox whose key word 1 is set to each stream id in turn: the state read
    back from a fresh generator has counter 0 and an empty buffer, so every
    stream it is set to starts fresh. Shorter streams go through
    philox_raw, all at once.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64).reshape(-1)
    if m < _LONG_STREAM:
        return uniforms(philox_raw(seed, ids, m))
    bit_gen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state
    key = state["state"]["key"]
    out = np.empty((ids.size, m))
    for row, s in zip(out, ids):
        key[1] = s
        bit_gen.state = state
        gen.random(out=row)
    return out


def box_muller_radius(u1):
    """Box-Muller radii sqrt(-log(u1)) of uniforms u1 in (0, 1]."""
    return np.sqrt(-np.log(u1))


def box_muller_phase(u2):
    """(cos, sin) of the Box-Muller phases 2 pi u2 of uniforms u2 in [0, 1)."""
    phase = 2.0 * np.pi * u2
    return np.cos(phase), np.sin(phase)


def box_muller_join(r, cos, sin):
    """r (cos + 1j sin), elementwise, with the complex product's bits.

    r cos and r sin go straight into the real and imaginary parts, which is
    r * (cos + 1j sin) bit for bit wherever r != 0. At u1 == 1, r is -0.0
    and the complex product signs each zero by both factors, so those
    elements take the complex product itself. The arguments may be views
    with any strides.
    """
    z = np.empty(r.shape, dtype=np.complex128)
    np.multiply(r, cos, out=z.real)
    np.multiply(r, sin, out=z.imag)
    if not r.all():
        at_zero = r == 0.0
        z[at_zero] = r[at_zero] * (cos[at_zero] + 1j * sin[at_zero])
    return z


def box_muller(u1, u2):
    """CN(0, 1) draws from uniforms u1 in (0, 1] and u2 in [0, 1).

    Elementwise, so a batch of contiguous rows gives the same bits as one
    row at a time: each draw is box_muller_join of its radius and phase.
    """
    return box_muller_join(box_muller_radius(u1), *box_muller_phase(u2))


def box_muller_uniforms(gen, n):
    """The 2n uniforms of n Box-Muller draws: all n of u1, then all n of u2.

    u1 = 1 - U lies in (0, 1], which keeps log() finite; u2 lies in [0, 1).
    """
    u1 = gen.random(n)
    np.subtract(1.0, u1, out=u1)
    return u1, gen.random(n)


def sample_complex_gaussian(rng, n, mean=0.0, std=1.0):
    """n i.i.d. complex Gaussian draws CN(mean, std^2).

    Total variance is std^2, split evenly between real and imaginary parts.
    `rng` is either an RngState (value semantics: repeated calls with the
    same state return identical vectors) or an active numpy Generator
    (sequential semantics: each call consumes the stream). The Box-Muller
    transform takes exactly 2n uniforms, so the draw count per call is
    fixed; no rejection loop is ever taken.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if std < 0:
        raise ValueError("std must be >= 0")
    gen = rng.generator() if isinstance(rng, RngState) else rng
    z = box_muller(*box_muller_uniforms(gen, n))
    return complex(mean) + float(std) * z
