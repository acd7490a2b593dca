"""Complex dense vector/matrix primitives and seeded complex-Gaussian sampling.

All downstream modules build on the handful of operations defined here:
Hermitian inner products, adjoint matrix-vector products and deterministic
circularly-symmetric Gaussian draws.

Vectors are 1-D complex128 ndarrays, matrices are 2-D complex128 ndarrays.
Random streams are counter-based so that every Monte Carlo trial can own an
independent stream addressed by (seed, stream id), whichever process or
thread draws it: stream (seed, s) is numpy's Philox with the key
np.array([seed, s], dtype=np.uint64), drawn from its start. `stream_uniforms`
draws the first uniforms of many such streams, bit-identical to numpy's
generator: several short streams all at once through `philox_raw`, a
vectorized Philox4x64-10, and long streams, or a lone one, one at a time.
Those, and every draw from an `RngState`, go through `stream_generator`:
one numpy Philox per thread, made on first use and kept, whose key, counter
and buffer each stream resets, so no draw depends on the one before it. A
caller about to fork makes it first (`prepare_stream_drawer`), and its
children inherit it.
"""

import threading
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

    Row i equals np.random.Philox(key=np.array([seed, stream_ids[i]],
    dtype=np.uint64)).random_raw(m), computed for all streams at once. numpy
    increments the 256-bit counter before each 4-word block, so block b of a
    fresh stream is generated from counter b + 1.
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


def one_at_a_time(count, m):
    """Whether stream_uniforms reads `count` streams of m words one at a
    time, through stream_generator: when they are long, or when there is
    one. A lone stream of 12 to 95 words took philox_raw 260 to 460 us and
    stream_generator 1.6 to 2.1 us on a 2-vCPU x86-64."""
    return count == 1 or m >= _LONG_STREAM


_thread = threading.local()


def _drawer():
    """This thread's (Philox, Generator, start state), made on its first
    call and kept. The start state is the dict numpy's Philox state setter
    reads, in Python ints, which it converts fastest: counter 0 and an empty
    buffer. Set with a key, it starts that key's stream."""
    try:
        return _thread.drawer
    except AttributeError:
        bit_gen = np.random.Philox(key=0)
        start = {"bit_generator": "Philox", "buffer": [0, 0, 0, 0],
                 "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        _thread.drawer = bit_gen, np.random.Generator(bit_gen), start
        return _thread.drawer


def stream_generator(seed, stream_id):
    """This thread's Generator, set to the start of stream (seed, stream_id).

    It draws what a new Generator on the stream's own Philox draws, without
    making either, until this thread's next call resets it.
    """
    bit_gen, gen, start = _drawer()
    key = start["state"]["key"]
    key[0] = int(seed)
    key[1] = int(stream_id)
    bit_gen.state = start
    return gen


def prepare_stream_drawer():
    """Make this thread's drawer now.

    numpy imports numpy.random, with secrets, hashlib and OpenSSL behind
    its entropy source, on first use. A caller about to fork calls this
    first, so that every child inherits the drawer and those modules
    instead of making them again on its first draw: on a 2-vCPU x86-64
    that took a verify worker's first instance from about 7 to 20-50 ms
    and 900 to 1900 page faults.
    """
    _drawer()


def stream_uniforms(seed, stream_ids, m):
    """First m uniforms of each stream (seed, s) for s in stream_ids.

    Row i equals stream_generator(seed, stream_ids[i]).random(m) bit for
    bit, the uniforms of stream (seed, stream_ids[i]). Streams of at least
    _LONG_STREAM words, or a lone stream, are drawn one at a time that way
    (one_at_a_time). Several shorter streams go through philox_raw, all at
    once.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64).reshape(-1)
    if not one_at_a_time(ids.size, m):
        return uniforms(philox_raw(seed, ids, m))
    out = np.empty((ids.size, m))
    for row, s in zip(out, ids):
        stream_generator(seed, s).random(out=row)
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


def box_muller_uniforms(rng, n):
    """The 2n uniforms of n Box-Muller draws: all n of u1, then all n of u2.

    u1 = 1 - U lies in (0, 1], which keeps log() finite; u2 lies in [0, 1).
    rng is a numpy Generator, which this advances by 2n words, or an
    RngState, whose stream stream_generator reads from its start: both give
    the same bits for the same stream.
    """
    if isinstance(rng, RngState):
        rng = stream_generator(rng.seed, rng.stream_id)
    u1 = rng.random(n)
    u2 = rng.random(n)
    np.subtract(1.0, u1, out=u1)
    return u1, u2
