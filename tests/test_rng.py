import numpy as np
import pytest

from mfclab import rng


def test_repeat_is_bit_identical():
    a = rng.normals(7, rng.TAG_WIENER, np.arange(5), np.arange(5), 4)
    b = rng.normals(7, rng.TAG_WIENER, np.arange(5), np.arange(5), 4)
    assert np.array_equal(a, b)


def test_every_key_field_matters():
    base = rng.pair_uniforms(1, rng.TAG_WIENER, 2, 3, 4)
    assert not np.allclose(base, rng.pair_uniforms(2, rng.TAG_WIENER, 2, 3, 4))
    assert not np.allclose(base, rng.pair_uniforms(1, rng.TAG_MOLLIFY_INDEX, 2, 3, 4))
    assert not np.allclose(base, rng.pair_uniforms(1, rng.TAG_WIENER, 3, 3, 4))
    assert not np.allclose(base, rng.pair_uniforms(1, rng.TAG_WIENER, 2, 4, 4))
    assert not np.allclose(base, rng.pair_uniforms(1, rng.TAG_WIENER, 2, 3, 5))


def test_frozen_vectors():
    """Regression pin: stream contents must never change across releases, to the bit."""
    u0, u1 = rng.pair_uniforms(17, rng.TAG_WIENER, np.array([0, 1, 2]),
                               np.array([0, 0, 5]), np.array([0, 3, 0]))
    assert [float(v).hex() for v in u0] == [
        "0x1.53518f6802639p-2", "0x1.d94027ce3ba84p-1", "0x1.6e8031b618896p-1"]
    assert [float(v).hex() for v in u1] == [
        "0x1.70b1872969daep-1", "0x1.f190dbafd6492p-1", "0x1.b222bb5f8441ep-1"]
    z = rng.normals(99, rng.TAG_MOLLIFY_OFFSET, np.array([4]), np.array([2]), 3)
    assert [float(v).hex() for v in z[0]] == [
        "-0x1.59e7285ef3a7cp+0", "0x1.1db72e00abe03p-2", "-0x1.80c46dfb9ff0bp-1"]


def test_index_arrays_are_not_written():
    """Philox rounds run in place on copies: a uint64 index array the caller
    passes in (the bump sampler's slot indices, say) is left as it was."""
    idx = np.arange(5, 12, dtype=np.uint64)
    keep = idx.copy()
    rng.normals(3, rng.TAG_MOLLIFY_OFFSET, idx, np.uint64(1), 3)
    rng.uniforms(3, rng.TAG_MOLLIFY_OFFSET, idx, idx, 2)
    rng.pair_uniforms(3, rng.TAG_MOLLIFY_INDEX, idx, idx, idx)
    rng._philox4x32(idx, idx, idx, idx, 1, 2)
    np.testing.assert_array_equal(idx, keep)
    long = np.arange(rng._TILE + 5, dtype=np.uint64)    # the rounds run tile by tile
    keep = long.copy()
    rng.uniforms(3, rng.TAG_MOLLIFY_OFFSET, long, np.uint64(1), 2)
    rng._philox4x32(long, long, long, long, 1, 2)
    np.testing.assert_array_equal(long, keep)


def test_broadcast_batch_equals_scalar_calls():
    """An (N, 1) x (1, B) batch draws what N*B scalar calls draw, bit for bit."""
    i0 = np.arange(4, dtype=np.uint64)[:, None] * np.uint64(7)
    i1 = np.arange(3, dtype=np.uint64)[None, :] + np.uint64(2)
    for draw in (rng.normals, rng.uniforms):
        batch = draw(21, rng.TAG_WIENER, i0, i1, 3)
        assert batch.shape == (4, 3, 3)
        for i, j in np.ndindex(4, 3):
            one = draw(21, rng.TAG_WIENER, int(i0[i, 0]), int(i1[0, j]), 3)
            np.testing.assert_array_equal(batch[i, j], one)
    u0, u1 = rng.pair_uniforms(21, rng.TAG_MOLLIFY_INDEX, i0, i1, np.uint64(5))
    for i, j in np.ndindex(4, 3):
        one = rng.pair_uniforms(21, rng.TAG_MOLLIFY_INDEX, int(i0[i, 0]), int(i1[0, j]), 5)
        assert (u0[i, j], u1[i, j]) == tuple(map(float, one))


def test_normals_moments():
    z = rng.normals(123, rng.TAG_MOLLIFY_INDEX, np.arange(500)[:, None], np.arange(200)[None, :], 1)
    flat = z.reshape(-1)
    n = flat.size
    assert abs(flat.mean()) < 4.0 / np.sqrt(n)
    # var(sample variance) ~ 2/n for gaussians
    assert abs(flat.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_uniforms_in_open_interval():
    u = rng.uniforms(5, rng.TAG_MOLLIFY_INDEX, np.arange(100)[:, None], np.arange(10)[None, :], 3)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_block_layout_is_stable_under_count():
    """Draw j is a function of the counter only, not of how many were asked for."""
    a = rng.normals(11, rng.TAG_WIENER, 3, 4, 6)
    b = rng.normals(11, rng.TAG_WIENER, 3, 4, 2)
    np.testing.assert_array_equal(a[:2], b)


@pytest.mark.parametrize("draw, pair", [(rng.normals, rng.pair_normals),
                                        (rng.uniforms, rng.pair_uniforms)])
def test_blocks_interleave_pairs_into_an_array_of_their_own(draw, pair):
    """Value j of an index pair is word j % 2 of counter block j // 2, and the
    result owns exactly `count` values per index pair."""
    i0, i1 = np.arange(3)[:, None], np.arange(2)[None, :] + 5
    for count in range(1, 6):
        blocks = np.arange((count + 1) // 2, dtype=np.uint64)
        v0, v1 = pair(8, rng.TAG_WIENER, i0[..., None], i1[..., None], blocks)
        want = np.stack([v0, v1], axis=-1).reshape(3, 2, -1)[..., :count]
        got = draw(8, rng.TAG_WIENER, i0, i1, count)
        np.testing.assert_array_equal(got, want)
        assert got.base is None


def test_cross_stream_independence():
    z = rng.normals(42, rng.TAG_WIENER, np.arange(2000)[:, None], np.zeros(1, dtype=int)[None, :], 2)
    x, y = z[:, 0, 0], z[:, 0, 1]
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(x.size)
    adjacent = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(adjacent) < 4.0 / np.sqrt(x.size)


# Random123 known-answer vectors for Philox4x32-10: (counter, key, output)
PHILOX_KAT = [
    ((0, 0, 0, 0), (0, 0),
     (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF, 0xFFFFFFFF),
     (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


@pytest.mark.parametrize("ctr, key, want", PHILOX_KAT)
def test_philox_known_answers(ctr, key, want):
    got = rng._philox4x32(*ctr, *key)
    assert tuple(int(w) for w in got) == want


@pytest.mark.parametrize("ctr, key, want", PHILOX_KAT)
def test_philox_known_answers_across_tiles(ctr, key, want):
    """One call over two tiles and three counters: the known-answer counter at
    both ends of the first tile boundary and at either end of the call gives
    its known answer, and every counter gives what a call within one tile does."""
    size = 2 * rng._TILE + 3
    words = np.random.default_rng(5).integers(0, 1 << 32, (4, size), dtype=np.uint64)
    at = [0, rng._TILE - 1, rng._TILE, size - 1]
    words[:, at] = np.array(ctr, dtype=np.uint64)[:, None]
    got = rng._philox4x32(*words, *key)
    for w, v in zip(got, want):
        assert w.shape == (size,) and np.all(w[at] == v)
    for start in range(0, size, 1000):
        part = rng._philox4x32(*words[:, start:start + 1000], *key)
        for w, p in zip(got, part):
            np.testing.assert_array_equal(w[start:start + 1000], p)


def test_broadcast_batch_over_several_tiles_equals_row_calls():
    """An (N, 1) x (1, B) batch of more than one tile (whose broadcast copies
    numpy would lay out in Fortran order unless asked for C order) draws what
    its rows draw, word for word and value for value."""
    i0 = np.arange(37, dtype=np.uint64)[:, None] * np.uint64(5)
    i1 = np.arange(1000, dtype=np.uint64)[None, :]
    assert i0.size * i1.size > rng._TILE
    words = rng._philox4x32(i0, i1, 7, rng.TAG_WIENER, 3, 4)
    z = rng.normals(3, rng.TAG_WIENER, i0, i1, 3)
    for i in range(37):
        for w, row in zip(words, rng._philox4x32(i0[i], i1[0], 7, rng.TAG_WIENER, 3, 4)):
            np.testing.assert_array_equal(w[i], row)
        np.testing.assert_array_equal(z[i], rng.normals(3, rng.TAG_WIENER, i0[i], i1[0], 3))
