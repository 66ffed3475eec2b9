"""Regular paving trees as prefix-closed sets of integer node labels.

The plane binary tree is addressed by naturals: the root is 1, the left
child of node ``n`` is ``2n`` and the right child ``2n + 1``.  This is a
binary encoding of the root-to-node path (a leading 1 followed by 0 for
left and 1 for right), so ancestors are right shifts and the depth is
the bit length minus one.  Labels are plain Python ints and therefore
unbounded; nothing caps the depth at a machine word.

A cell's bounds are a pure function of its label and the root box.
The cells a run creates are planned once each, from their parent's
bounds, in its cell store (:class:`rphist.pqmc.CellStore`); a file holds
only labels, so :func:`cell_bounds` derives the bounds of a whole batch
of labels at once, descending one tree level per numpy step, for the
histogram loader.  :func:`paves` checks that a label set is the leaf
set of a paving.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NotBisectable, RootHasNoParent
from .geometry import Box, split_plane

ROOT = 1


def parent(n: int) -> int:
    """Parent label ``floor(n/2)``; the root has none."""
    if n <= ROOT:
        raise RootHasNoParent("node 1 is the root")
    return n >> 1


def children(n: int) -> tuple[int, int]:
    """Labels ``(2n, 2n+1)`` of the left and right child."""
    return 2 * n, 2 * n + 1


def depth(n: int) -> int:
    """Distance from the root: the index of the most significant bit."""
    if n < ROOT:
        raise ValueError(f"invalid node label {n}")
    return n.bit_length() - 1


class CellBounds(NamedTuple):
    """Geometry of a batch of cells, one row per label (see :func:`cell_bounds`)."""

    lo: np.ndarray  # (L, d) lower bounds
    hi: np.ndarray  # (L, d) upper bounds
    axis: np.ndarray  # (L,) the cell's own split coordinate
    mid: np.ndarray  # (L,) the midpoint it splits at
    splittable: np.ndarray  # (L,) whether that split is valid in floats


def cell_bounds(root_box: Box, labels) -> CellBounds:
    """Bounds and own split planes (:func:`geometry.split_plane`) of the
    cells of a batch of labels, one row per label.

    All cells descend from the root together, one tree level per numpy
    step: a left step moves the split coordinate's upper bound to the
    midpoint, a right step its lower bound.  So each bound is
    bit-identical to splitting box by box along the label's path.  The
    path bits are read from each label's binary digits, so
    labels of any size, 2**63 and above included, take the same steps.

    Raises
    ------
    NotBisectable
        If some box along a path cannot be split in machine arithmetic.
    """
    labels = [int(v) for v in labels]
    if labels and min(labels) < ROOT:
        raise ValueError(f"invalid node label {min(labels)}")
    n, d = len(labels), root_box.dim
    paths = [bin(v)[3:] for v in labels]  # child directions, root first
    depths = np.array([len(p) for p in paths], dtype=np.int64)
    order = np.argsort(-depths, kind="stable")  # deepest first
    top = int(depths.max(initial=0))
    text = "".join(paths[i].ljust(top, "0") for i in order.tolist())
    right = np.frombuffer(text.encode(), dtype=np.uint8).reshape(n, top) == ord("1")
    # rows still descending at each level: a prefix, since deepest come first
    alive = np.count_nonzero(depths[:, None] > np.arange(top), axis=0).tolist()
    # row i holds lo | hi; a left step moves an upper bound, a right step a lower one
    bounds = np.tile(np.concatenate([root_box.lows(), root_box.highs()]), (n, 1))
    lo, hi, flat = bounds[:, :d], bounds[:, d:], bounds.reshape(-1)
    start = np.arange(n) * (2 * d)
    for level, c in enumerate(alive):
        axis, mid, ok = split_plane(lo[:c], hi[:c])
        if not ok.all():
            bad = labels[order[np.argmin(ok)]]
            raise NotBisectable(f"cannot bisect along the path to {bad}")
        flat.put(start[:c] + axis + d * ~right[:c, level], mid)
    back = np.argsort(order)
    lo, hi = lo[back], hi[back]
    return CellBounds(lo, hi, *split_plane(lo, hi))


def paves(labels) -> bool:
    """Whether the labels, each listed once, are the leaves of a paving.

    Label ``v`` at depth ``k`` stands for the dyadic interval of width
    ``2**-k`` at its path bits ``v - 2**k``, and labels are the leaves of
    a paving exactly when their intervals tile ``[0, 1)``: sorted, each
    starts where the one before ends.  A repeated label, or a label and
    its ancestor, overlap.  The intervals are scaled to integers at the
    deepest label's depth, so labels of any size work.
    """
    if not labels or min(labels) < ROOT:
        return False
    top = max(labels).bit_length()
    end = 1 << (top - 1)  # intervals scaled to [2**(top-1), 2**top)
    for start, shift in sorted([(v << (top - v.bit_length()), top - v.bit_length())
                                for v in labels]):
        if start != end:
            return False
        end = start + (1 << shift)
    return end == 1 << top
