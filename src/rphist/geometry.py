"""Interval and box arithmetic for regular midpoint bisection.

Boxes are axis-aligned interval vectors.  A split always happens at the
midpoint of the first widest coordinate (:func:`split_plane`, the one
place that rule is written), and the left child gets a
half-open upper facet on the split coordinate so that sibling boxes are
disjoint and a point on the splitting hyperplane lands in the right
child.
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
class Interval:
    """A real interval with optionally open endpoints.

    The root box only ever uses closed intervals; half-open intervals
    ``[lo, hi)`` arise on the split coordinate of left children.
    """

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"interval bounds out of order: [{self.lo}, {self.hi}]")
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            raise ValueError("degenerate interval cannot have open endpoints")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        # the split rule's midpoint, for a one-coordinate box
        return float(split_plane(np.array([[self.lo]]), np.array([[self.hi]]))[1][0])

    def contains(self, x: float) -> bool:
        above = x > self.lo if self.lo_open else x >= self.lo
        below = x < self.hi if self.hi_open else x <= self.hi
        return above and below


@dataclass(frozen=True)
class Box:
    """An axis-aligned box: an ordered tuple of intervals, one per coordinate."""

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        if len(self.intervals) < 1:
            raise ValueError("a box needs at least one coordinate")

    @classmethod
    def from_bounds(cls, lows, highs) -> "Box":
        """Closed box from per-coordinate lower and upper bounds."""
        lows = [float(x) for x in lows]
        highs = [float(x) for x in highs]
        if len(lows) != len(highs):
            raise DimensionMismatch(f"{len(lows)} lower vs {len(highs)} upper bounds")
        return cls(tuple(Interval(lo, hi) for lo, hi in zip(lows, highs)))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @property
    def volume(self) -> float:
        return float(bounds_volume(self.lows()[None], self.highs()[None])[0])

    def lows(self) -> np.ndarray:
        return np.array([iv.lo for iv in self.intervals])

    def highs(self) -> np.ndarray:
        return np.array([iv.hi for iv in self.intervals])


def split_plane(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """The split rule, for a batch of boxes given by ``(L, d)`` bounds.

    A box splits at the midpoint ``lo + (hi - lo)/2`` (no overflow for
    finite operands) of its first widest coordinate.  Returns ``(axis,
    mid, ok)`` of shape ``(L,)``; ``ok`` is False where the midpoint is
    not strictly inside, i.e. the box cannot be bisected in machine
    arithmetic (zero width or float exhaustion).
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
    vol = np.ones(len(lo))
    for j in range(lo.shape[1]):
        vol *= hi[:, j] - lo[:, j]
    return vol


def _plane(b: Box) -> tuple[int, float, bool]:
    axis, mid, ok = split_plane(b.lows()[None], b.highs()[None])
    return int(axis[0]), float(mid[0]), bool(ok[0])


def widest_coordinate(b: Box) -> int:
    """Index of the first coordinate of maximum width (0-based).

    Ties are broken towards the smallest index, so the split coordinate
    of a box is a deterministic function of the box.
    """
    return _plane(b)[0]


def can_bisect(b: Box) -> bool:
    """True iff the widest coordinate has a midpoint strictly inside it."""
    return _plane(b)[2]


def bisect(b: Box) -> tuple[Box, Box]:
    """Split a box at the midpoint of its first widest coordinate.

    Returns ``(left, right)``.  The left child's split coordinate becomes
    ``[lo, mid)`` and the right child's ``[mid, hi]`` (keeping the
    parent's upper-facet openness), so the children are disjoint and
    cover the parent exactly.

    Raises
    ------
    NotBisectable
        If the midpoint is not strictly between the bounds in machine
        arithmetic (zero-width coordinate or float exhaustion).
    """
    i, mid, ok = _plane(b)
    iv = b.intervals[i]
    if not ok:
        raise NotBisectable(
            f"coordinate {i} of width {iv.width!r} cannot be split at {mid!r}"
        )
    left_iv = Interval(iv.lo, mid, iv.lo_open, True)
    right_iv = Interval(mid, iv.hi, False, iv.hi_open)
    ivs = b.intervals
    left = Box(ivs[:i] + (left_iv,) + ivs[i + 1:])
    right = Box(ivs[:i] + (right_iv,) + ivs[i + 1:])
    return left, right


def contains(b: Box, p) -> bool:
    """Membership of a point in a box, honouring open facets."""
    p = np.asarray(p, dtype=float).ravel()
    if p.size != b.dim:
        raise DimensionMismatch(f"point has {p.size} coordinates, box has {b.dim}")
    return all(iv.contains(x) for iv, x in zip(b.intervals, p))


def bounding_box(points, pad: float = DEFAULT_PAD) -> Box:
    """Smallest closed box containing all points, symmetrically inflated.

    Each side is widened by ``pad * side_width`` on both ends; a
    zero-width side gets the absolute half-width ``ZERO_WIDTH_FLOOR``
    instead (only when ``pad > 0``).  With ``pad > 0`` every input point
    is strictly interior, which keeps points off the root-box boundary
    after round-trips through text formats.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise EmptyInput("bounding_box of an empty point set")
    if pad < 0:
        raise ValueError("pad must be >= 0")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    lows = pts.min(axis=0)
    highs = pts.max(axis=0)
    if pad > 0:
        widths = highs - lows
        grow = np.where(widths > 0, pad * widths, ZERO_WIDTH_FLOOR)
        lows = lows - grow
        highs = highs + grow
    return Box.from_bounds(lows, highs)


def volume_at_depth(root_volume: float, depth: int) -> float:
    """Volume of any cell at a given depth: ``root_volume * 2**-depth``.

    Uses ``math.ldexp`` so deep cells degrade gracefully through the
    subnormal range instead of overflowing ``2**depth``.
    """
    return math.ldexp(root_volume, -depth)
