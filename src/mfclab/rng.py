"""Counter-based random number streams (Philox4x32-10).

Every draw is a pure function of (seed, tag, i0, i1, i2): the 64-bit seed is
the Philox key, the three 32-bit indices plus a domain-separation tag form the
counter. Streams are therefore independent of evaluation order, worker count,
and batch size, which is what makes the Monte Carlo layers bit-reproducible.
"""

from __future__ import annotations

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)

# domain-separation tags (counter word 3)
TAG_WIENER = 0x57494E52
TAG_MOLLIFY_OFFSET = 0x4D4F4C4C
TAG_MOLLIFY_INDEX = 0x4D494458
TAG_PROBE = 0x50524F42


def _philox4x32(c0, c1, c2, c3, k0, k1):
    """10 Philox rounds on broadcastable uint64 word arrays (values < 2^32)."""
    c0, c1, c2, c3 = (np.asarray(w, dtype=np.uint64) for w in (c0, c1, c2, c3))
    c0, c1, c2, c3 = np.broadcast_arrays(c0, c1, c2, c3)
    c0 = c0.copy()
    k0 = np.uint64(k0)
    k1 = np.uint64(k1)
    for _ in range(10):
        p0 = _M0 * c0
        p1 = _M1 * c2
        hi0, lo0 = p0 >> np.uint64(32), p0 & _MASK32
        hi1, lo1 = p1 >> np.uint64(32), p1 & _MASK32
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return c0, c1, c2, c3


def _split_seed(seed: int):
    s = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.uint64(s & 0xFFFFFFFF), np.uint64(s >> 32)


def _to_unit(hi, lo):
    """Two 32-bit words -> double in (0, 1)."""
    v = (hi << np.uint64(32)) | lo
    return ((v >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def pair_uniforms(seed: int, tag: int, i0, i1, i2):
    """Two U(0,1) arrays, one pair per counter (seed, tag, i0, i1, i2)."""
    k0, k1 = _split_seed(seed)
    w0, w1, w2, w3 = _philox4x32(i0, i1, i2, np.uint64(tag & 0xFFFFFFFF), k0, k1)
    return _to_unit(w0, w1), _to_unit(w2, w3)


def pair_normals(seed: int, tag: int, i0, i1, i2):
    """Two N(0,1) arrays per counter, via Box-Muller."""
    u1, u2 = pair_uniforms(seed, tag, i0, i1, i2)
    rad = np.sqrt(-2.0 * np.log(u1))
    ang = (2.0 * np.pi) * u2
    return rad * np.cos(ang), rad * np.sin(ang)


def _blocks(pair, seed: int, tag: int, i0, i1, count: int):
    """`count` values of the pair stream `pair` per (i0, i1) index pair, shape
    broadcast(i0, i1) + (count,).

    Consecutive values come from counter blocks i2 = 0, 1, ... so the draw for a
    given (seed, tag, i0, i1, j) never depends on how many others were requested.
    """
    i0 = np.asarray(i0)
    i1 = np.asarray(i1)
    shape = np.broadcast_shapes(i0.shape, i1.shape)
    blocks = (count + 1) // 2
    blk = np.arange(blocks, dtype=np.uint64).reshape((1,) * len(shape) + (blocks,))
    v0, v1 = pair(seed, tag, i0[..., None], i1[..., None], blk)
    out = np.empty(shape + (2 * blocks,))
    out[..., 0::2] = v0
    out[..., 1::2] = v1
    return out[..., :count]


def normals(seed: int, tag: int, i0, i1, count: int):
    """`count` N(0,1) values per (i0, i1) index pair; block layout as in _blocks()."""
    return _blocks(pair_normals, seed, tag, i0, i1, count)


def uniforms(seed: int, tag: int, i0, i1, count: int):
    """`count` U(0,1) values per (i0, i1) index pair; block layout as in _blocks()."""
    return _blocks(pair_uniforms, seed, tag, i0, i1, count)
