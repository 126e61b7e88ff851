"""Property tests for the flat Morton-key-array primitives.

The vectorized key-space algebra (:func:`key_ancestor`,
:func:`key_descendant_span`, :func:`seg_searchsorted`, :func:`group_order`,
:func:`dedup_octants`) and the batched
octant operations (:func:`neighborhood`, :func:`merge_sorted_octants`,
the lazy key cache, :func:`_unique_rows`) are pinned against scalar or
pre-existing reference formulations over randomized octant populations
at every level from 0 to ``maxlevel``, in both 2D and 3D.
"""

from unittest import mock

import numpy as np
import pytest

from repro.p4est.bits import (
    dimension,
    group_order,
    interleave,
    key_ancestor,
    key_descendant_span,
    key_level,
    key_morton,
    key_parent,
    seg_searchsorted,
    sfc_key,
)
from repro.p4est.balance import dedup_octants
from repro.p4est.nodes import _unique_rows
from repro.p4est.octant import (
    Octants,
    all_neighbor_offsets,
    merge_sorted_octants,
    neighborhood,
    searchsorted_octants,
)


def random_octants(dim: int, n: int, seed: int, num_trees: int = 4) -> Octants:
    """Random valid octants: levels 0..maxlevel, coords on the level grid."""
    rng = np.random.default_rng(seed)
    D = dimension(dim)
    level = rng.integers(0, D.maxlevel + 1, size=n).astype(np.int64)
    h = D.octant_len(level)
    cells = (np.int64(1) << level).astype(np.float64)
    coords = []
    for _ in range(dim):
        coords.append((rng.random(n) * cells).astype(np.int64) * h)
    while len(coords) < 3:
        coords.append(np.zeros(n, dtype=np.int64))
    tree = rng.integers(0, num_trees, size=n).astype(np.int64)
    return Octants(dim, tree, coords[0], coords[1], coords[2], level)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_key_level_morton_roundtrip(dim, seed):
    octs = random_octants(dim, 300, seed)
    keys = sfc_key(dim, octs.x, octs.y, octs.z, octs.level)
    assert np.array_equal(key_level(keys), octs.level.astype(np.uint64))
    assert np.array_equal(
        key_morton(keys), interleave(dim, octs.x, octs.y, octs.z)
    )


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_key_ancestor_matches_coordinate_ancestors(dim, seed):
    octs = random_octants(dim, 400, seed)
    rng = np.random.default_rng(seed + 100)
    anc_level = (rng.random(len(octs)) * (octs.level + 1)).astype(np.int64)
    anc = octs.ancestors(anc_level)
    want = sfc_key(dim, anc.x, anc.y, anc.z, anc.level)
    got = key_ancestor(dim, octs.keys(), anc_level)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [2, 3])
def test_key_parent_matches_parents(dim):
    octs = random_octants(dim, 400, 7)
    octs = octs[octs.level >= 1]
    par = octs.parents()
    want = sfc_key(dim, par.x, par.y, par.z, par.level)
    assert np.array_equal(key_parent(dim, octs.keys()), want)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_key_descendant_span_matches_descendant_octants(dim, seed):
    octs = random_octants(dim, 400, seed)
    first, last = key_descendant_span(dim, octs.keys())
    fd = octs.first_descendants()
    ld = octs.last_descendants()
    assert np.array_equal(first, interleave(dim, fd.x, fd.y, fd.z))
    assert np.array_equal(last, interleave(dim, ld.x, ld.y, ld.z))
    # The span is exactly the octant's volume at maxlevel resolution.
    D = dimension(dim)
    vol = (last - first + np.uint64(1)).astype(object)
    want_vol = [
        1 << (dim * (D.maxlevel - int(lv))) for lv in octs.level
    ]
    assert list(vol) == want_vol


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seg_searchsorted_matches_scalar_bisect(side, seed):
    import bisect

    rng = np.random.default_rng(seed)
    nbase, nq = 500, 300
    nseg = int(rng.integers(1, 6))
    base = sorted(
        (int(rng.integers(0, nseg)), int(rng.integers(0, 50)))
        for _ in range(nbase)
    )
    queries = [
        (int(rng.integers(0, nseg)), int(rng.integers(0, 50)))
        for _ in range(nq)
    ]
    fn = bisect.bisect_left if side == "left" else bisect.bisect_right
    want = np.array([fn(base, q) for q in queries], dtype=np.int64)
    base_seg = np.array([t for t, _ in base], dtype=np.int32)
    base_key = np.array([k for _, k in base], dtype=np.uint64)
    q_seg = np.array([t for t, _ in queries], dtype=np.int32)
    q_key = np.array([k for _, k in queries], dtype=np.uint64)
    got = seg_searchsorted(base_seg, base_key, q_seg, q_key, side=side)
    assert np.array_equal(got, want)


def per_query_searchsorted(base_seg, base_key, q_seg, q_key, side):
    """One scalar ``np.searchsorted`` per query, inside its segment."""
    out = []
    for t, k in zip(q_seg, q_key):
        lo = np.searchsorted(base_seg, t, side="left")
        hi = np.searchsorted(base_seg, t, side="right")
        out.append(lo + np.searchsorted(base_key[lo:hi], k, side=side))
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("nseg", [1, 5])
@pytest.mark.parametrize("arrival", ["unsorted", "sorted", "duplicates"])
def test_seg_searchsorted_in_key_order_matches_per_query_reference(side, nseg, arrival):
    rng = np.random.default_rng(nseg)
    base_seg = np.sort(rng.integers(0, nseg, 400)).astype(np.int32)
    base_key = np.empty(400, dtype=np.uint64)
    for t in range(nseg):
        at = base_seg == t
        # Few distinct values, so base keys repeat and queries hit them.
        base_key[at] = np.sort(rng.integers(0, 60, at.sum())).astype(np.uint64)
    q_seg = rng.integers(0, nseg, 300).astype(np.int32)
    q_key = rng.integers(0, 64, 300).astype(np.uint64)
    if arrival == "sorted":
        order = np.lexsort((q_key, q_seg))
        q_seg, q_key = q_seg[order], q_key[order]
    elif arrival == "duplicates":
        q_seg, q_key = np.repeat(q_seg[:60], 5), np.repeat(q_key[:60], 5)
        shuffle = rng.permutation(len(q_seg))
        q_seg, q_key = q_seg[shuffle], q_key[shuffle]
    got = seg_searchsorted(base_seg, base_key, q_seg, q_key, side=side)
    want = per_query_searchsorted(base_seg, base_key, q_seg, q_key, side)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    empty = seg_searchsorted(base_seg, base_key, q_seg[:0], q_key[:0], side=side)
    assert empty.shape == (0,) and empty.dtype == np.int64


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_searchsorted_octants_matches_python_order(dim, seed):
    base = random_octants(dim, 300, seed).sorted()
    queries = random_octants(dim, 200, seed + 50)
    got = searchsorted_octants(base, queries, side="left")
    base_keys = list(zip(base.tree.tolist(), base.keys().tolist()))
    q_keys = list(zip(queries.tree.tolist(), queries.keys().tolist()))
    import bisect

    want = np.array([bisect.bisect_left(base_keys, q) for q in q_keys])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim,codim", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_neighborhood_matches_per_offset_shifts(dim, codim):
    octs = random_octants(dim, 250, 11)
    src_idx, nb = neighborhood(octs, codim)
    offs = all_neighbor_offsets(dim, codim)
    n = len(octs)
    h = octs.lens()
    assert len(nb) == n * len(offs)
    for j, off in enumerate(offs):
        block = nb[j * n : (j + 1) * n]
        want = octs.shifted(off[0] * h, off[1] * h, off[2] * h)
        assert block == want
        assert np.array_equal(src_idx[j * n : (j + 1) * n], np.arange(n))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merge_sorted_octants_matches_concat_sort(dim, seed):
    a = random_octants(dim, 300, seed).sorted()
    b = random_octants(dim, 180, seed + 30).sorted()
    got = merge_sorted_octants(a, b)
    want = Octants.concat([a, b]).sorted()
    assert got == want
    assert got.is_sorted()
    # Lazy-key cache of the merged array must agree with a fresh compute.
    assert np.array_equal(
        got.keys(), sfc_key(dim, got.x, got.y, got.z, got.level)
    )


@pytest.mark.parametrize("dim", [2, 3])
def test_key_cache_survives_selection(dim):
    octs = random_octants(dim, 300, 3)
    fresh = sfc_key(dim, octs.x, octs.y, octs.z, octs.level)
    octs.keys()  # populate the cache
    sel = octs[np.flatnonzero(octs.level % 2 == 0)]
    assert np.array_equal(
        sel.keys(), fresh[np.flatnonzero(octs.level % 2 == 0)]
    )
    sl = octs[10:200]
    assert np.array_equal(sl.keys(), fresh[10:200])
    # copy() must NOT inherit the cache: callers mutate copies in place.
    cp = octs.copy()
    cp.x[:] = 0
    assert np.array_equal(cp.keys(), sfc_key(dim, cp.x, cp.y, cp.z, cp.level))


def _assert_unique_rows(arr, packed=False):
    if packed:  # the packed path never falls back to np.unique
        with mock.patch.object(np, "unique", side_effect=AssertionError):
            got_u, got_inv = _unique_rows(arr)
    else:
        got_u, got_inv = _unique_rows(arr)
    want_u, want_inv = np.unique(arr, axis=0, return_inverse=True)
    assert np.array_equal(got_u, want_u)
    assert np.array_equal(got_inv, want_inv.reshape(-1))
    assert np.array_equal(got_u[got_inv], arr)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_unique_rows_matches_np_unique(seed):
    """Nodes' key domain: trees and coordinates in ``[0, base)``, 3D and 2D.

    Each coordinate draws from a few values at both ends of its range, so
    rows collide often.  With odd values and ``base - 1`` of 21 (3D,
    degree 3) or 32 bits (2D, degree 6), the rows cannot pack into one
    word and take the ``np.unique`` path.
    """
    rng = np.random.default_rng(seed)
    for dim, degree in ((3, 3), (2, 6)):
        base = degree * dimension(dim).root_len + 1
        vals = np.array([0, 1, 2, base // 2, base - 2, base - 1], dtype=np.int64)
        arr = vals[rng.integers(0, len(vals), size=(400, 4))]
        arr[:, 0] = rng.integers(0, 6, size=400)
        if dim == 2:
            arr[:, 3] = 0
        _assert_unique_rows(arr)


@pytest.mark.parametrize("shift", [0, 7, 20])
@pytest.mark.parametrize("seed", [0, 1])
def test_unique_rows_packed_word_at_its_63_bit_edge(seed, shift):
    """Coordinates ``v << shift`` with ``v`` of 18 bits and trees of 9:
    9 + 3*18 = 63 bits, the widest word the packed path takes.  One more
    tree bit overflows the word and takes ``np.unique``; both agree with
    it, on values at both ends of each field."""
    rng = np.random.default_rng(seed)
    top = (1 << 18) - 1
    vals = np.array([0, 1, 2, top // 2, top - 1, top], dtype=np.int64) << shift
    for tree_top in ((1 << 9) - 1, 1 << 9):
        arr = vals[rng.integers(0, len(vals), size=(500, 4))]
        arr[:, 0] = rng.choice([0, 1, tree_top - 1, tree_top], size=500)
        _assert_unique_rows(arr, packed=tree_top < 1 << 9)
        _assert_unique_rows(arr[:1], packed=arr[0, 0] < 1 << 9)


def test_unique_rows_all_zero_coordinates():
    arr = np.zeros((5, 4), dtype=np.int64)
    arr[:, 0] = [3, 0, 3, 1, 0]
    _assert_unique_rows(arr, packed=True)


@pytest.mark.parametrize(
    "trees",
    [
        np.arange(6),  # a forest's tree ids: the 16-bit copy
        np.array([70_000, 70_000 + 0xFFFF]),  # range 0xFFFF: still 16 bits
        np.array([0, 1, 0x10000]),  # range 0x10000: the int32 sort
        np.array([0, 123_456, 2**31 - 1]),
    ],
    ids=["small", "range-0xffff", "range-0x10000", "wide"],
)
def test_grouping_on_both_sides_of_16_bits(trees):
    """``group_order``, ``seg_searchsorted`` and ``dedup_octants`` against
    scalar references, with tree ids whose range fits 16 bits and not."""
    import bisect

    rng = np.random.default_rng(int(trees[-1]) % 97)
    ids = rng.choice(trees, size=700).astype(np.int32)
    want_order = sorted(range(len(ids)), key=lambda i: ids[i])
    assert np.array_equal(group_order(ids), want_order)
    assert np.array_equal(group_order(ids.astype(np.int64)), want_order)

    for side, fn in (("left", bisect.bisect_left), ("right", bisect.bisect_right)):
        base = sorted(
            (int(rng.choice(trees)), int(rng.integers(0, 50))) for _ in range(300)
        )
        queries = [(int(t), int(rng.integers(0, 50))) for t in ids]
        got = seg_searchsorted(
            np.array([t for t, _ in base], dtype=np.int32),
            np.array([k for _, k in base], dtype=np.uint64),
            ids,
            np.array([k for _, k in queries], dtype=np.uint64),
            side=side,
        )
        assert np.array_equal(got, [fn(base, q) for q in queries])

    octs = random_octants(3, 700, 5, num_trees=1)
    octs = Octants(3, ids, octs.x, octs.y, octs.z, octs.level)
    octs = Octants.concat([octs, octs[::3]])  # duplicates
    got = dedup_octants(octs)
    want = sorted(set(zip(octs.tree.tolist(), octs.keys().tolist())))
    assert list(zip(got.tree.tolist(), got.keys().tolist())) == want


@pytest.mark.parametrize("dim", [2, 3])
def test_key_order_equals_octant_order_at_all_levels(dim):
    """Packed keys sort identically to the (morton, level) total order."""
    D = dimension(dim)
    octs = random_octants(dim, 500, 23, num_trees=1)
    # Include ancestor/descendant chains sharing a corner at every level.
    chains = [
        octs.ancestors(np.minimum(octs.level.astype(np.int64), lv))
        for lv in range(0, D.maxlevel + 1, 3)
    ]
    allo = Octants.concat([octs] + chains)
    key_order = np.argsort(allo.keys(), kind="stable")
    ml = allo.mortons().astype(object)
    lv = allo.level.astype(object)
    want = sorted(range(len(allo)), key=lambda i: (ml[i], lv[i]))
    assert np.array_equal(key_order, np.array(want))
