import math

import numpy as np
import pytest

from rphist.errors import DimensionMismatch, EmptyInput, NotBisectable
from rphist.geometry import (
    Box,
    Interval,
    ZERO_WIDTH_FLOOR,
    bisect,
    bounding_box,
    can_bisect,
    contains,
    widest_coordinate,
)

from conftest import unit_box


@pytest.mark.parametrize("lo,hi,expected", [(0, 1, 1), (-2, 3, 5), (0.5, 0.5, 0)])
def test_width(lo, hi, expected):
    assert Interval(lo, hi).width == expected


@pytest.mark.parametrize("lo,hi,expected", [(0, 1, 0.5), (-1, 1, 0), (2, 6, 4)])
def test_midpoint(lo, hi, expected):
    assert Interval(lo, hi).midpoint == expected


def test_midpoint_no_overflow():
    # naive (lo + hi)/2 would overflow here; lo + (hi - lo)/2 must not
    big = 0.9 * np.finfo(float).max
    assert math.isfinite(Interval(0.5 * big, big).midpoint)
    assert Interval(0.5 * big, big).midpoint == pytest.approx(0.75 * big)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(0.5, 0.5, hi_open=True)


@pytest.mark.parametrize("bounds,expected", [
    ([(0, 1), (0, 2)], 1),        # second coordinate wider
    ([(0, 1), (0, 1)], 0),        # tie broken to the first index
    ([(0, 3), (0, 2), (0, 3)], 0),  # tie between first and third
])
def test_widest_coordinate(bounds, expected):
    box = Box.from_bounds([b[0] for b in bounds], [b[1] for b in bounds])
    assert widest_coordinate(box) == expected


def test_bisect_unit_square():
    left, right = bisect(unit_box(2))
    assert left.intervals[0] == Interval(0.0, 0.5, False, True)
    assert left.intervals[1] == Interval(0.0, 1.0)
    assert right.intervals[0] == Interval(0.5, 1.0)
    assert right.intervals[1] == Interval(0.0, 1.0)


def test_bisect_left_child_splits_other_axis():
    left, _ = bisect(unit_box(2))
    ll, lr = bisect(left)
    # the half-wide child is taller than wide, so the second axis splits
    assert ll.intervals[0] == Interval(0.0, 0.5, False, True)
    assert ll.intervals[1] == Interval(0.0, 0.5, False, True)
    assert lr.intervals[1] == Interval(0.5, 1.0)


def test_bisect_exhaustion():
    a = 1.0
    b = np.nextafter(a, 2.0)
    iv = Interval(a, b)
    assert iv.midpoint == a  # the midpoint collapses onto the lower bound
    box = Box((iv, Interval(0.0, np.nextafter(0.0, 1.0))))
    assert not can_bisect(box)
    with pytest.raises(NotBisectable):
        bisect(box)


def test_zero_width_widest_coordinate_not_bisectable():
    box = Box.from_bounds([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(NotBisectable):
        bisect(box)


def test_contains_half_open_boundary():
    left, right = bisect(unit_box(2))
    assert not contains(left, (0.5, 0.2))
    assert contains(right, (0.5, 0.2))
    assert contains(unit_box(2), (1.0, 1.0))
    with pytest.raises(DimensionMismatch):
        contains(unit_box(2), (0.5,))


def test_child_membership_is_exclusive_and_exhaustive():
    box = unit_box(2)
    left, right = bisect(box)
    xs = np.linspace(0.0, 1.0, 9)  # includes the 0.5 splitting hyperplane
    for x in xs:
        for y in xs:
            p = (x, y)
            assert contains(box, p)
            assert contains(left, p) != contains(right, p)


def test_volume_additivity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        lo = rng.uniform(-10, 10, d)
        box = Box.from_bounds(lo, lo + rng.uniform(0.1, 10, d))
        left, right = bisect(box)
        assert left.volume + right.volume == pytest.approx(box.volume, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_repeated_bisection_volume(d):
    box = unit_box(d)
    for k in range(1, 11):
        for _ in range(d):
            box = bisect(box)[0]
        assert box.volume == pytest.approx(2.0 ** (-d * k), rel=1e-9)


def test_widest_coordinate_permutation_covariant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        widths = rng.permutation(np.arange(1, d + 1, dtype=float))  # tie-free
        box = Box.from_bounds(np.zeros(d), widths)
        rev = Box.from_bounds(np.zeros(d), widths[::-1])
        assert widest_coordinate(rev) == d - 1 - widest_coordinate(box)


def test_bounding_box_exact():
    box = bounding_box([(0, 0), (1, 2)], pad=0)
    assert box == Box.from_bounds([0, 0], [1, 2])


def test_bounding_box_zero_width_floor():
    box = bounding_box([(5, 5)], pad=0.1)
    w = ZERO_WIDTH_FLOOR
    assert box == Box.from_bounds([5 - w, 5 - w], [5 + w, 5 + w])


def test_bounding_box_degenerate_side_allowed():
    box = bounding_box([(0, 0), (1, 0)], pad=0)
    assert box == Box.from_bounds([0, 0], [1, 0])
    assert box.volume == 0.0


def test_bounding_box_strict_interior():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-3, 3, size=(40, 3))
    box = bounding_box(pts, pad=1e-9)
    for i, iv in enumerate(box.intervals):
        assert iv.lo < pts[:, i].min()
        assert iv.hi > pts[:, i].max()


def test_bounding_box_empty_input():
    with pytest.raises(EmptyInput):
        bounding_box([])
