"""Statistical regular pavings: leaf counts and the histogram estimate.

A statistical regular paving caches at every cell the number of data
points that fell into it, so the count of a split cell always equals
the sum of its children's counts.  The cells of a run are the rows of
its cell store, and a chain state names its leaves among them
(:class:`rphist.pqmc.State`), so everything here reads a state's leaf
labels, counts and bounds from the store.  The histogram estimate places
the density ``count / (n * volume)`` on each leaf cell, which is the
maximum likelihood simple function for the partition given by the leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySample,
    PointOutsideRootBox,
)
from .geometry import Box, bounds_volume, split_plane
from .tree import ROOT, cell_bounds

if TYPE_CHECKING:
    from .pqmc import State


def inside_mask(box: Box, points: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of ``points`` lying in the closed ``box``."""
    points = np.asarray(points, dtype=float)
    inside = points >= box.lows()
    inside &= points <= box.highs()  # in place: one (n, d) temporary fewer
    return inside.all(axis=1)


def points_in_box(box: Box, points) -> np.ndarray:
    """The rows of ``points`` as an ``(n, d)`` float array, all in the
    closed ``box``; a row outside it raises :class:`PointOutsideRootBox`."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        points = points.reshape(0, box.dim)
    if points.shape[1] != box.dim:
        raise DimensionMismatch(
            f"points have dimension {points.shape[1]}, root box {box.dim}"
        )
    inside = inside_mask(box, points)
    dropped = int((~inside).sum())
    if dropped:
        bad = int(np.nonzero(~inside)[0][0])
        raise PointOutsideRootBox(
            f"{dropped} points outside the root box (first at row {bad})"
        )
    return points


@dataclass(frozen=True)
class HistogramLeaf:
    label: int
    count: int
    volume: float
    height: float


@dataclass(frozen=True, eq=False)
class Histogram:
    """Piecewise-constant density over the leaf cells of a paving, held
    as columns.

    Row ``i`` is the leaf ``labels[i]`` (a Python int, so labels of any
    depth survive): ``counts[i]`` of the ``n`` points fell into its cell,
    whose bounds are ``lo[i]`` and ``hi[i]`` and volume ``volumes[i]``,
    and ``heights[i]`` is its density ``counts[i] / (n * volumes[i])``.
    Build one with :meth:`from_counts`.
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
    def from_counts(cls, root_box: Box, n: int, labels, counts,
                    bounds: tuple[np.ndarray, np.ndarray] | None = None) -> "Histogram":
        """Histogram of ``n`` points with ``counts[i]`` in leaf ``labels[i]``:
        the cell of each label under ``root_box`` carries the density
        ``count / (n * volume)``.  The cells' ``(lo, hi)`` bounds are
        derived from the labels (:func:`~rphist.tree.cell_bounds`) unless
        given.

        Raises
        ------
        ZeroDivisionError
            If some cell's volume underflows to 0.
        """
        if n < 1:
            raise EmptySample("cannot form a histogram from zero points")
        labels = tuple(labels)
        lo, hi = cell_bounds(root_box, labels)[:2] if bounds is None else bounds
        volumes = bounds_volume(lo, hi)
        if not volumes.all():
            raise ZeroDivisionError("a cell's volume underflows to 0")
        counts = np.array(counts, dtype=np.int64)
        with np.errstate(over="ignore"):  # an overflowing height is inf
            heights = counts / (float(n) * volumes)
        return cls(root_box, n, labels, counts, volumes, heights, lo, hi)


def histogram(s: State) -> Histogram:
    """The state's histogram: density ``count / (n * volume)`` per leaf
    cell, from the labels, counts and bounds its store holds."""
    labels, counts, lo, hi = s.leaves
    return Histogram.from_counts(s.root_box, s.n, labels, counts, (lo, hi))


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


def leaf_terms(s: State) -> np.ndarray:
    """The three :func:`cell_terms` of the state, each summed left to
    right over its non-empty leaves in label order."""
    _, counts, lo, hi = s.leaves
    full = counts > 0
    terms = np.zeros((3, np.count_nonzero(full) + 1))  # a leading 0: the sums start from 0.0
    terms[:, 1:] = cell_terms(counts[full].astype(float), bounds_volume(lo[full], hi[full]), s.n)
    return np.cumsum(terms, axis=1)[:, -1]


def log_likelihood(s: State) -> float:
    """Log-likelihood of the data under the state's own histogram: the sum
    of ``count * log(count / (n * volume))`` over its leaves
    (:func:`leaf_terms`)."""
    if s.n < 1:
        raise EmptySample("log-likelihood of an empty sample")
    return float(leaf_terms(s)[0])
