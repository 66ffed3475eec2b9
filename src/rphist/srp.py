"""Statistical regular pavings: per-node counts and the histogram estimate.

An SRP is a paving whose every node caches the number of data points
that fell into its cell, so the count of an internal node always equals
the sum of its children's counts.  The counts of a given tree are
filled in by :func:`rphist.pqmc.ingest`, which routes the points through
the same cell table as the chains.  The histogram estimate places the
density ``count / (n * volume)`` on each leaf cell, which is the maximum
likelihood simple function for the partition given by the leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySample,
    PointOutsideRootBox,
)
from .geometry import Box, bounds_volume, split_plane
from .tree import ROOT, RPTree, cell_bounds


@dataclass(frozen=True)
class SRP:
    """A regular paving with a sample count cached at every node."""

    tree: RPTree
    counts: dict[int, int]
    n: int

    @property
    def leaf_count(self) -> int:
        return self.tree.leaf_count

    def nonempty_leaves(self) -> list[int]:
        return [v for v in self.tree.leaves() if self.counts.get(v, 0) > 0]

    def validate(self) -> None:
        """Check the parent-sum invariant and the root count."""
        if self.counts.get(ROOT, 0) != self.n:
            raise ValueError("root count does not equal n")
        for v in self.tree.internal():
            if self.counts.get(v, 0) != self.counts.get(2 * v, 0) + self.counts.get(2 * v + 1, 0):
                raise ValueError(f"count of node {v} does not equal its children's sum")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SRP):
            return NotImplemented
        if self.n != other.n or self.tree != other.tree:
            return False
        return all(self.counts.get(v, 0) == other.counts.get(v, 0) for v in self.tree.nodes)

    def __hash__(self):
        return hash((self.tree, self.n))


def root_srp(root_box: Box, n_points: int = 0) -> SRP:
    """The trivial SRP: a root-only tree holding ``n_points`` points."""
    return SRP(RPTree(root_box), {ROOT: int(n_points)}, int(n_points))


def inside_mask(box: Box, points: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of ``points`` lying in the closed ``box``."""
    points = np.asarray(points, dtype=float)
    inside = points >= box.lows()
    inside &= points <= box.highs()  # in place: one (n, d) temporary fewer
    return inside.all(axis=1)


def points_in_box(box: Box, points, strict: bool = True) -> np.ndarray:
    """The rows of ``points`` in the closed ``box`` as an ``(n, d)`` float
    array; strict mode raises :class:`PointOutsideRootBox` instead."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        points = points.reshape(0, box.dim)
    if points.shape[1] != box.dim:
        raise DimensionMismatch(
            f"points have dimension {points.shape[1]}, root box {box.dim}"
        )
    inside = inside_mask(box, points)
    dropped = int((~inside).sum())
    if dropped and strict:
        bad = int(np.nonzero(~inside)[0][0])
        raise PointOutsideRootBox(
            f"{dropped} points outside the root box (first at row {bad})"
        )
    return points[inside] if dropped else points


@dataclass(frozen=True)
class HistogramLeaf:
    label: int
    count: int
    volume: float
    height: float


@dataclass(frozen=True, eq=False)
class Histogram:
    """Piecewise-constant density over the leaf cells of an SRP, held as
    columns.

    Row ``i`` is the leaf ``labels[i]`` (a Python int, so labels of any
    depth survive): ``counts[i]`` of the ``n`` points fell into its cell,
    whose bounds are ``lo[i]`` and ``hi[i]`` (:func:`~rphist.tree.cell_bounds`)
    and volume ``volumes[i]``, and ``heights[i]`` is its density
    ``counts[i] / (n * volumes[i])``.  Build one with :meth:`from_counts`.
    """

    root_box: Box
    n: int
    labels: tuple[int, ...] = field(repr=False)
    counts: np.ndarray = field(repr=False)
    volumes: np.ndarray = field(repr=False)
    heights: np.ndarray = field(repr=False)
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)

    @property
    def leaf_count(self) -> int:
        return len(self.labels)

    @cached_property
    def leaves(self) -> tuple[HistogramLeaf, ...]:
        """The rows as :class:`HistogramLeaf` objects, built on first access."""
        return tuple(map(HistogramLeaf, self.labels, self.counts.tolist(),
                         self.volumes.tolist(), self.heights.tolist()))

    @cached_property
    def row_of(self) -> dict[int, int]:
        """The row of each leaf label, built on first access."""
        return dict(zip(self.labels, range(self.leaf_count)))

    def total_mass(self) -> float:
        """The sum of ``height * volume`` over the rows, left to right."""
        return float(np.cumsum(np.append(0.0, self.heights * self.volumes))[-1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (self.root_box == other.root_box and self.n == other.n
                and self.labels == other.labels
                and all(np.array_equal(a, b) for a, b in (
                    (self.counts, other.counts), (self.volumes, other.volumes),
                    (self.heights, other.heights))))

    def __hash__(self):
        return hash((self.root_box, self.n, self.labels))

    @classmethod
    def from_counts(cls, root_box: Box, n: int, labels, counts) -> "Histogram":
        """Histogram of ``n`` points with ``counts[i]`` in leaf ``labels[i]``:
        the cell of each label under ``root_box`` carries the density
        ``count / (n * volume)``.

        Raises
        ------
        ZeroDivisionError
            If some cell's volume underflows to 0.
        """
        if n < 1:
            raise EmptySample("cannot form a histogram from zero points")
        labels = tuple(labels)
        lo, hi, *_ = cell_bounds(root_box, labels)
        volumes = bounds_volume(lo, hi)
        if not volumes.all():
            raise ZeroDivisionError("a cell's volume underflows to 0")
        counts = np.array(counts, dtype=np.int64)
        with np.errstate(over="ignore"):  # an overflowing height is inf
            heights = counts / (float(n) * volumes)
        return cls(root_box, n, labels, counts, volumes, heights, lo, hi)


def histogram(s: SRP) -> Histogram:
    """The SRP histogram: density ``count / (n * volume)`` per leaf cell."""
    labels = s.tree.leaves()
    return Histogram.from_counts(s.tree.root_box, s.n, labels,
                                 [s.counts.get(label, 0) for label in labels])


def density_at(h: Histogram, p) -> float:
    """Histogram density at a point; 0 outside the root box.

    The walk from the root to the point's leaf looks each label up in
    :attr:`Histogram.row_of`, so a call costs the leaf's depth.  A point
    on an internal splitting hyperplane belongs to the right child
    (:func:`~rphist.geometry.split_plane`).
    """
    p = np.asarray(p, dtype=float).ravel()
    if p.size != h.root_box.dim:
        raise DimensionMismatch(
            f"point has {p.size} coordinates, histogram has {h.root_box.dim}"
        )
    if not inside_mask(h.root_box, p[None])[0]:
        return 0.0
    row_of = h.row_of
    label = ROOT
    lo = h.root_box.lows()[None]
    hi = h.root_box.highs()[None]
    while label not in row_of:
        (axis,), (mid,), _ = split_plane(lo, hi)
        if p[axis] >= mid:
            label = 2 * label + 1
            lo[0, axis] = mid
        else:
            label = 2 * label
            hi[0, axis] = mid
    return float(h.heights[row_of[label]])


def cell_terms(counts: np.ndarray, vol: np.ndarray, n: int) -> np.ndarray:
    """The rows ``c log(c/(n v))`` (0 where ``c = 0``), ``c^2/v`` and
    ``c(c-1)/v`` for cells of float counts ``c`` of ``n`` points and
    volumes ``v``: the log-likelihood and leave-one-out CV terms
    (:func:`rphist.smoothing.cv_score`), written here alone."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.where(counts > 0, counts * np.log(counts / (n * vol)), 0.0)
    return np.stack([ll, counts * counts / vol, counts * (counts - 1) / vol])


def leaf_terms(s: SRP) -> np.ndarray:
    """The three :func:`cell_terms` of the SRP, each summed left to right
    over its non-empty leaves in label order."""
    labels = s.nonempty_leaves()
    lo, hi, *_ = cell_bounds(s.tree.root_box, labels)
    terms = np.zeros((3, len(labels) + 1))  # a leading 0: the sums start from 0.0
    terms[:, 1:] = cell_terms(np.array([s.counts[v] for v in labels], dtype=float),
                              bounds_volume(lo, hi), s.n)
    return np.cumsum(terms, axis=1)[:, -1]


def log_likelihood(s: SRP) -> float:
    """Log-likelihood of the data under the SRP's own histogram: the sum
    of ``count * log(count / (n * volume))`` over its leaves
    (:func:`leaf_terms`)."""
    if s.n < 1:
        raise EmptySample("log-likelihood of an empty sample")
    return float(leaf_terms(s)[0])
