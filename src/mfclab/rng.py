"""Counter-based random number streams (Philox4x32-10).

Every draw is a pure function of (seed, tag, i0, i1, i2): the 64-bit seed is
the Philox key, the three 32-bit indices plus a domain-separation tag form the
counter. Streams are therefore independent of evaluation order, worker count,
and batch size, which is what makes the Monte Carlo layers bit-reproducible.
"""

from __future__ import annotations

import math

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
# counters per Philox tile in _blocks: on 262,144 counters (2 MiB L2) 2^15 ran
# 43 ns per counter, 2^14 46, 2^16 56 and one tile of all 262,144 82
_TILE = 1 << 15

# domain-separation tags (counter word 3)
TAG_WIENER = 0x57494E52
TAG_MOLLIFY_OFFSET = 0x4D4F4C4C
TAG_MOLLIFY_INDEX = 0x4D494458


def _philox4x32(c0, c1, c2, c3, k0, k1):
    """10 Philox rounds on broadcastable uint64 word arrays (values < 2^32).

    The rounds run in place on C-order copies of the words, never on the
    caller's arrays. C order for all four gives them one layout (a copy of a
    broadcast view in numpy's default order may be Fortran-ordered), so each
    in-place ufunc below runs as one flat loop. Callers tile: see _blocks().
    """
    c0, c1, c2, c3 = words = [np.array(w, dtype=np.uint64, order="C")
                              for w in np.broadcast_arrays(c0, c1, c2, c3)]
    p0 = np.empty_like(c0)
    p1 = np.empty_like(c0)
    for r in range(10):
        np.multiply(c0, _M0, out=p0)
        np.multiply(c2, _M1, out=p1)
        np.right_shift(p1, _SHIFT32, out=c0)
        c0 ^= c1
        c0 ^= (int(k0) + r * _W0) & 0xFFFFFFFF
        np.bitwise_and(p1, _MASK32, out=c1)
        np.right_shift(p0, _SHIFT32, out=c2)
        c2 ^= c3
        c2 ^= (int(k1) + r * _W1) & 0xFFFFFFFF
        np.bitwise_and(p0, _MASK32, out=c3)
    return tuple(words)


def _split_seed(seed: int):
    s = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.uint64(s & 0xFFFFFFFF), np.uint64(s >> 32)


def _to_unit(hi, lo):
    """Two 32-bit words -> double in (0, 1); works in place on `hi`."""
    hi <<= np.uint64(32)
    hi |= lo
    hi >>= np.uint64(11)
    u = hi.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


def pair_uniforms(seed: int, tag: int, i0, i1, i2):
    """Two U(0,1) arrays, one pair per counter (seed, tag, i0, i1, i2)."""
    k0, k1 = _split_seed(seed)
    w0, w1, w2, w3 = _philox4x32(i0, i1, i2, np.uint64(tag & 0xFFFFFFFF), k0, k1)
    return _to_unit(w0, w1), _to_unit(w2, w3)


def pair_normals(seed: int, tag: int, i0, i1, i2):
    """Two N(0,1) arrays per counter, via Box-Muller."""
    return _box_muller(*pair_uniforms(seed, tag, i0, i1, i2))


def _box_muller(u1, u2, halves=None):
    """Box-Muller normals (rad cos, rad sin) of two U(0,1) arrays; the sine half
    only of the first `halves` entries along the last axis (of all when None)."""
    rad = np.sqrt(-2.0 * np.log(u1))
    ang = (2.0 * np.pi) * u2
    return rad * np.cos(ang), rad[..., :halves] * np.sin(ang[..., :halves])


def _blocks(pair, seed: int, tag: int, i0, i1, count: int):
    """`count` values per (i0, i1) index pair, shape broadcast(i0, i1) + (count,):
    `pair(u1, u2, halves)` maps the uniform pairs of the counters to the value
    pairs: the first values of every block, the second of the first `halves`.

    Consecutive values come from counter blocks i2 = 0, 1, ... so the draw for a
    given (seed, tag, i0, i1, j) never depends on how many others were requested.
    For an odd `count` the last block's second value is not used, so it is not
    computed (a sine per index pair for normals). Only here are draws tiled: whole
    index rows, about _TILE counters at a time, so their Philox words stay in L2
    through all ten rounds. That changes no bit: a draw depends on its counter only.
    """
    i0, i1 = np.broadcast_arrays(np.asarray(i0), np.asarray(i1))
    out = np.empty(i0.shape + (count,))
    i0, i1 = np.atleast_1d(i0, i1)
    blocks = (count + 1) // 2
    blk = np.arange(blocks, dtype=np.uint64)
    rows = out.reshape(i0.shape + (count,))     # a view; one row for scalar indices
    step = max(1, _TILE // max(1, blocks * math.prod(i0.shape[1:])))
    for start in range(0, len(rows), step):
        tile = slice(start, start + step)
        v0, v1 = pair(*pair_uniforms(seed, tag, i0[tile, ..., None], i1[tile, ..., None], blk),
                      count // 2)
        rows[tile, ..., 0::2] = v0
        rows[tile, ..., 1::2] = v1
    return out


def normals(seed: int, tag: int, i0, i1, count: int):
    """`count` N(0,1) values per (i0, i1) index pair; block layout as in _blocks()."""
    return _blocks(_box_muller, seed, tag, i0, i1, count)


def uniforms(seed: int, tag: int, i0, i1, count: int):
    """`count` U(0,1) values per (i0, i1) index pair; block layout as in _blocks()."""
    return _blocks(lambda u1, u2, halves: (u1, u2[..., :halves]), seed, tag, i0, i1, count)
