"""Integer coordinates, Morton interleaving, and space-filling-curve keys.

Octant coordinates are integers on a ``2**maxlevel`` lattice per tree (the
lower-left-front corner of the octant), exactly as in p4est.  The Morton
index of an octant is the bit-interleave of its coordinates; traversing
octants in Morton order within a tree, and trees in index order, yields the
z-shaped space-filling curve of the paper (Fig. 2).  Within one tree the
total order is ``(morton, level)``: an ancestor shares its descendants'
Morton prefix and sorts first by its smaller level.

All hot paths are vectorized over numpy uint64 arrays (magic-mask bit
spreading), per the optimization guidance for numerical Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

# np.unique checks np.ma.is_masked, lazily importing numpy.ma (~20 ms)
# on its first call — which would otherwise land inside whichever traced
# kernel phase happens to call unique first.  Pay it at import time.
import numpy.ma  # noqa: F401

ArrayLike = Union[int, np.ndarray]

# Bit budgets: keys must pack (morton | level) into one uint64.
# 2D: 29 bits/axis -> 58-bit morton; 3D: 19 bits/axis -> 57-bit morton.
# Both leave 6 bits for the level field (levels 0..63).
MAXLEVEL_2D = 29
MAXLEVEL_3D = 19
LEVEL_BITS = 6


@dataclass(frozen=True)
class Dimension:
    """Static facts about one spatial dimension (2 or 3)."""

    dim: int
    maxlevel: int

    @property
    def num_children(self) -> int:
        """Children of an octant: ``2**dim``."""
        return 1 << self.dim

    @property
    def num_faces(self) -> int:
        """Faces of an octant: ``2*dim``."""
        return 2 * self.dim

    @property
    def num_edges(self) -> int:
        """Edges of an octant: 12 in 3D, none in 2D (faces are edges)."""
        return 12 if self.dim == 3 else 0

    @property
    def num_corners(self) -> int:
        """Corners of an octant: ``2**dim``."""
        return 1 << self.dim

    @property
    def root_len(self) -> int:
        """Side length of the root octant on the integer lattice."""
        return 1 << self.maxlevel

    def octant_len(self, level: ArrayLike) -> ArrayLike:
        """Side length of an octant at ``level``."""
        if isinstance(level, np.ndarray):
            return np.int64(1) << (self.maxlevel - level.astype(np.int64))
        return 1 << (self.maxlevel - int(level))


DIM2 = Dimension(2, MAXLEVEL_2D)
DIM3 = Dimension(3, MAXLEVEL_3D)


def dimension(dim: int) -> Dimension:
    """Return the :class:`Dimension` singleton for ``dim`` in {2, 3}."""
    if dim == 2:
        return DIM2
    if dim == 3:
        return DIM3
    raise ValueError(f"dimension must be 2 or 3, got {dim}")


# Morton bit spreading -------------------------------------------------------
#
# spread2: insert one zero bit between each of the low 32 bits.
# spread3: insert two zero bits between each of the low 21 bits.
# Standard magic-number sequences; operate on uint64 numpy arrays or scalars.


def _as_u64(x: ArrayLike) -> np.ndarray:
    return np.asarray(x, dtype=np.uint64)


def spread2(x: ArrayLike) -> np.ndarray:
    """Move bit ``i`` of each value's low 32 bits to bit ``2*i``."""
    v = _as_u64(x)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def compact2(v: ArrayLike) -> np.ndarray:
    """Inverse of :func:`spread2`: gather the even bits into the low 32."""
    v = _as_u64(v) & np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v


def spread3(x: ArrayLike) -> np.ndarray:
    """Move bit ``i`` of each value's low 21 bits to bit ``3*i``."""
    v = _as_u64(x) & np.uint64(0x1FFFFF)
    v = (v | (v << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v << np.uint64(2))) & np.uint64(0x1249249249249249)
    return v


def compact3(v: ArrayLike) -> np.ndarray:
    """Inverse of :func:`spread3`: gather every third bit into the low 21."""
    v = _as_u64(v) & np.uint64(0x1249249249249249)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return v


def interleave(dim: int, x: ArrayLike, y: ArrayLike, z: ArrayLike = 0) -> np.ndarray:
    """Morton index of lattice point(s): bit-interleave of the coordinates.

    The z coordinate is ignored in 2D.
    """
    if dim == 2:
        return spread2(x) | (spread2(y) << np.uint64(1))
    if dim == 3:
        return spread3(x) | (spread3(y) << np.uint64(1)) | (spread3(z) << np.uint64(2))
    raise ValueError(f"dimension must be 2 or 3, got {dim}")


def deinterleave(dim: int, m: ArrayLike) -> Tuple[np.ndarray, ...]:
    """Inverse of :func:`interleave`: recover (x, y[, z]) from Morton index."""
    m = _as_u64(m)
    if dim == 2:
        return compact2(m), compact2(m >> np.uint64(1))
    if dim == 3:
        return compact3(m), compact3(m >> np.uint64(1)), compact3(m >> np.uint64(2))
    raise ValueError(f"dimension must be 2 or 3, got {dim}")


def sfc_key(dim: int, x: ArrayLike, y: ArrayLike, z: ArrayLike, level: ArrayLike) -> np.ndarray:
    """Packed intra-tree total-order key ``(morton << LEVEL_BITS) | level``.

    Octants with the same lower-left corner are ancestor/descendant pairs,
    and the smaller level (the ancestor) must sort first, which the packed
    level field achieves.  Keys from different trees are only comparable
    per-tree; use ``lexsort((key, tree))`` for global order.
    """
    morton = interleave(dim, x, y, z)
    return (morton << np.uint64(LEVEL_BITS)) | _as_u64(level)


def key_level(key: ArrayLike) -> np.ndarray:
    """Extract the level field from a packed SFC key."""
    return _as_u64(key) & np.uint64((1 << LEVEL_BITS) - 1)


def key_morton(key: ArrayLike) -> np.ndarray:
    """Extract the Morton index from a packed SFC key."""
    return _as_u64(key) >> np.uint64(LEVEL_BITS)


# Flat key-array algorithms ---------------------------------------------------
#
# The hot kernels (Balance/Ghost/Nodes) run batch operations over whole
# sorted uint64 key arrays instead of per-octant Python loops.  The
# primitives below operate directly on packed keys so no coordinate
# round-trips are needed on those paths.


def key_ancestor(dim: int, key: ArrayLike, level: ArrayLike) -> np.ndarray:
    """Packed key of each key's ancestor at the (coarser) ``level``.

    Zeroes the Morton bits below the ancestor's resolution and replaces
    the level field.  ``level`` must be <= each key's own level
    elementwise (not checked here; the caller owns validation).
    """
    D = dimension(dim)
    key = _as_u64(key)
    lev = _as_u64(level)
    drop = _as_u64(dim) * (_as_u64(D.maxlevel) - lev)
    morton = (key >> np.uint64(LEVEL_BITS)) >> drop << drop
    return (morton << np.uint64(LEVEL_BITS)) | lev


def key_parent(dim: int, key: ArrayLike) -> np.ndarray:
    """Packed key of each key's parent (all levels must be >= 1)."""
    return key_ancestor(dim, key, key_level(key) - np.uint64(1))


def key_descendant_span(dim: int, key: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Morton range ``[first, last]`` of each key's deepest descendants.

    The first descendant shares the key's Morton index; the last fills
    every interleaved bit below the key's resolution.  Together they
    bound the half-open SFC interval covered by the octant, which is how
    owner ranges and overlap queries are answered on flat arrays.
    """
    D = dimension(dim)
    key = _as_u64(key)
    first = key >> np.uint64(LEVEL_BITS)
    fill = _as_u64(dim) * (_as_u64(D.maxlevel) - key_level(key))
    last = first + ((np.uint64(1) << fill) - np.uint64(1))
    return first, last


def group_order(ids: np.ndarray) -> np.ndarray:
    """Stable argsort of integer group ids (tree ids, packed group codes).

    The order groups equal ids, keeping each group's rows in their input
    order.  NumPy's stable sort is a radix sort for integers of 16 bits
    or fewer and a timsort for wider ones (~4x slower on 256K rows), so
    ids whose range fits 16 bits are sorted through a ``uint16`` copy of
    ``ids - min``, which has the same stable order.
    """
    ids = np.asarray(ids)
    if len(ids):
        lo = ids.min()
        if int(ids.max()) - int(lo) <= 0xFFFF:
            ids = (ids - lo).astype(np.uint16)
    return np.argsort(ids, kind="stable")


def _bisect(base: np.ndarray, keys: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(base, keys)`` with the keys bisected in key order.

    NumPy's bisect starts each search from the previous one's bracket
    while the keys do not decrease, so sorted keys walk ``base`` in order
    instead of from the top each time.  Keys already in order are not
    sorted again; equal keys get equal positions in any order, so the
    result is the unsorted call's.
    """
    if not (keys[1:] < keys[:-1]).any():
        return np.searchsorted(base, keys, side=side)
    order = np.argsort(keys)
    out = np.empty(len(keys), dtype=np.int64)
    out[order] = np.searchsorted(base, keys[order], side=side)
    return out


def seg_searchsorted(
    base_seg: np.ndarray,
    base_key: np.ndarray,
    q_seg: np.ndarray,
    q_key: np.ndarray,
    side: str = "left",
) -> np.ndarray:
    """Positions of ``(q_seg, q_key)`` in the ``(base_seg, base_key)``
    array sorted lexicographically by (segment, key).

    This is the flat-array replacement for searchsorted on a structured
    ``(tree, key)`` dtype, which numpy handles with a per-element generic
    comparison loop ~20x slower than a primitive-dtype bisect.  Keys are
    bisected per base segment (tree): one ``searchsorted`` per distinct
    query segment, each over a contiguous uint64 slice, the queries
    grouped by segment with one :func:`group_order` and bisected in key
    order within it (:func:`_bisect`).
    """
    base_seg = np.asarray(base_seg)
    base_key = np.asarray(base_key)
    q_seg = np.asarray(q_seg)
    q_key = np.asarray(q_key)
    out = np.empty(len(q_seg), dtype=np.int64)
    if len(q_seg) == 0:
        return out
    if q_seg.min() == q_seg.max():
        # Common case (single-tree forest): one primitive bisect.
        lo = np.searchsorted(base_seg, q_seg[0], side="left")
        hi = np.searchsorted(base_seg, q_seg[0], side="right")
        out[:] = lo + _bisect(base_key[lo:hi], q_key, side)
        return out
    order = group_order(q_seg)
    seg_s = q_seg[order]
    cut = np.flatnonzero(seg_s[1:] != seg_s[:-1]) + 1
    bounds = np.concatenate([[0], cut, [len(seg_s)]])
    segs = seg_s[bounds[:-1]]
    starts = np.searchsorted(base_seg, segs, side="left")
    ends = np.searchsorted(base_seg, segs, side="right")
    for i in range(len(segs)):
        sel = order[bounds[i] : bounds[i + 1]]
        out[sel] = starts[i] + _bisect(base_key[starts[i] : ends[i]], q_key[sel], side)
    return out
