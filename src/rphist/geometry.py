"""Closed boxes and the one rule that splits them.

A box is a pair of float tuples, its lower and upper bounds.  A cell
is the root box split along its label's path, each split at the
midpoint of the first widest coordinate (:func:`split_plane`, the one
place that rule is written): a run's cell store plans each cell's
bounds from its parent's (:class:`rphist.pqmc.CellStore`), and
:func:`rphist.tree.cell_bounds` derives them from the labels of a
file.  The store holds each cell's volume too, its widths' product
(:func:`bounds_volume`), computed once beside its bounds.  The cells of
a paving are half-open: a cell is closed on the faces of the root box,
and a point on a splitting plane belongs to the right child.  So the
leaves partition the closed root box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput, NotBisectable

#: Relative padding applied per side by :func:`bounding_box`.
DEFAULT_PAD = 1e-9
#: Absolute half-width given to zero-width sides when padding is requested.
ZERO_WIDTH_FLOOR = 1e-9


@dataclass(frozen=True)
class Box:
    """A closed axis-aligned box ``[lo_0, hi_0] x ... x [lo_{d-1}, hi_{d-1}]``."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @classmethod
    def from_bounds(cls, lows, highs) -> "Box":
        """Closed box from per-coordinate lower and upper bounds."""
        lo = tuple(float(x) for x in lows)
        hi = tuple(float(x) for x in highs)
        if len(lo) != len(hi):
            raise DimensionMismatch(f"{len(lo)} lower vs {len(hi)} upper bounds")
        if not lo:
            raise ValueError("a box needs at least one coordinate")
        for a, b in zip(lo, hi):
            if not (a <= b):
                raise ValueError(f"bounds out of order: [{a}, {b}]")
        return cls(lo, hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(bounds_volume(self.lows()[None], self.highs()[None])[0])

    def lows(self) -> np.ndarray:
        return np.array(self.lo)

    def highs(self) -> np.ndarray:
        return np.array(self.hi)


def split_plane(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """The split rule, for a batch of boxes given by ``(L, d)`` bounds.

    A box splits at the midpoint ``lo + (hi - lo)/2`` (no overflow for
    finite operands) of its first widest coordinate.  Returns ``(axis,
    mid, ok)`` of shape ``(L,)``; ``ok`` is False where the midpoint is
    not strictly inside, i.e. the box cannot be bisected in machine
    arithmetic (zero width or float exhaustion).

    On the split coordinate the left child takes the part below ``mid``
    and the right child the rest, so a point on the plane goes right.  A
    cell is thus closed on the faces of the root box and open on every
    other upper face.
    """
    axis = (hi - lo).argmax(axis=1)
    rows = np.arange(len(axis))
    a = lo[rows, axis]
    b = hi[rows, axis]
    mid = a + (b - a) / 2.0
    return axis, mid, (a < mid) & (mid < b)


def bounds_volume(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Volume of each box in a batch of ``(L, d)`` bounds: the widths'
    product, left to right, so every caller gets the same float."""
    widths = hi - lo
    vol = widths[:, 0].copy()
    for j in range(1, widths.shape[1]):
        vol *= widths[:, j]
    return vol


def require_volume(box: Box) -> None:
    """Check ``box`` as a root box, whose cells need a positive, finite
    volume: one that is zero or not finite (an infinite bound, or widths
    whose product overflows) raises :class:`NotBisectable`."""
    with np.errstate(over="ignore", invalid="ignore"):
        volume = box.volume
    if not 0 < volume < math.inf:
        raise NotBisectable(f"the root box {box} has volume {volume}, not a positive "
                            "finite one")


def bounding_box(points, pad: float = DEFAULT_PAD) -> Box:
    """Smallest closed box containing all points, symmetrically inflated.

    Each side is widened by ``pad * side_width`` on both ends; a
    zero-width side gets the absolute half-width ``ZERO_WIDTH_FLOOR``
    instead (only when ``pad > 0``).  With ``pad > 0`` every input point
    is strictly interior, which keeps points off the root-box boundary
    after round-trips through text formats.  The bounds are reduced one
    column at a time; a NaN or infinite point shows in them.  A pad that
    overflows a side gives an infinite bound.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise EmptyInput("bounding_box of an empty point set")
    if not pad >= 0:
        raise ValueError("pad must be >= 0")
    lows = np.array([col.min() for col in pts.T])
    highs = np.array([col.max() for col in pts.T])
    if not (np.isfinite(lows).all() and np.isfinite(highs).all()):
        raise ValueError("points must be finite")
    if pad > 0:
        with np.errstate(over="ignore"):
            widths = highs - lows
            grow = np.where(widths > 0, pad * widths, ZERO_WIDTH_FLOOR)
            lows = lows - grow
            highs = highs + grow
    return Box.from_bounds(lows, highs)

