import math

import numpy as np
import pytest

from rphist.errors import DimensionMismatch, EmptyInput, NotBisectable
from rphist.geometry import (
    Box,
    ZERO_WIDTH_FLOOR,
    bounding_box,
    bounds_volume,
    split_plane,
)
from rphist.pqmc import CellTable
from rphist.srp import inside_mask
from rphist.tree import cell_bounds

from conftest import leaf_counts, leaf_state, table_leaf_rows, unit_box


def plane(box: Box) -> tuple[int, float, bool]:
    """``split_plane`` of one box."""
    (axis,), (mid,), (ok,) = split_plane(box.lows()[None], box.highs()[None])
    return int(axis), float(mid), bool(ok)


def rows(box: Box, labels) -> list[tuple[list[float], list[float]]]:
    """``(lo, hi)`` of the cells of ``labels`` under ``box``."""
    cells = cell_bounds(box, labels)
    return list(zip(cells.lo.tolist(), cells.hi.tolist()))


@pytest.mark.parametrize("lo,hi,expected", [(0, 1, 1), (-2, 3, 5), (0.5, 0.5, 0)])
def test_width(lo, hi, expected):
    assert Box.from_bounds([lo], [hi]).volume == expected


@pytest.mark.parametrize("lo,hi,expected", [(0, 1, 0.5), (-1, 1, 0), (2, 6, 4)])
def test_midpoint(lo, hi, expected):
    assert plane(Box.from_bounds([lo], [hi]))[1] == expected


def test_midpoint_no_overflow():
    # naive (lo + hi)/2 would overflow here; lo + (hi - lo)/2 must not
    big = 0.9 * np.finfo(float).max
    mid = plane(Box.from_bounds([0.5 * big], [big]))[1]
    assert math.isfinite(mid)
    assert mid == pytest.approx(0.75 * big)


def test_from_bounds_validation():
    with pytest.raises(ValueError):
        Box.from_bounds([1.0], [0.0])
    with pytest.raises(ValueError):
        Box.from_bounds([0.0, math.nan], [1.0, 1.0])
    with pytest.raises(ValueError):
        Box.from_bounds([], [])
    with pytest.raises(DimensionMismatch):
        Box.from_bounds([0.0, 0.0], [1.0])
    box = Box.from_bounds(np.array([0, -1]), [2, 1])
    assert box == Box((0.0, -1.0), (2.0, 1.0))
    assert all(type(x) is float for x in box.lo + box.hi)
    assert box.dim == 2 and box.volume == 4.0


@pytest.mark.parametrize("bounds,expected", [
    ([(0, 1), (0, 2)], 1),        # second coordinate wider
    ([(0, 1), (0, 1)], 0),        # tie broken to the first index
    ([(0, 3), (0, 2), (0, 3)], 0),  # tie between first and third
])
def test_widest_coordinate(bounds, expected):
    box = Box.from_bounds([b[0] for b in bounds], [b[1] for b in bounds])
    assert plane(box)[0] == expected


def test_bisect_unit_square():
    assert rows(unit_box(2), [2, 3]) == [([0.0, 0.0], [0.5, 1.0]),
                                         ([0.5, 0.0], [1.0, 1.0])]


def test_bisect_left_child_splits_other_axis():
    # the half-wide child is taller than wide, so the second axis splits
    assert cell_bounds(unit_box(2), [2]).axis[0] == 1
    assert rows(unit_box(2), [4, 5]) == [([0.0, 0.0], [0.5, 0.5]),
                                         ([0.0, 0.5], [0.5, 1.0])]


def test_bisect_exhaustion():
    a = 1.0
    b = np.nextafter(a, 2.0)
    assert plane(Box.from_bounds([a], [b]))[1:] == (a, False)  # mid collapses onto lo
    box = Box.from_bounds([a, 0.0], [b, np.nextafter(0.0, 1.0)])
    assert not cell_bounds(box, [1]).splittable[0]
    with pytest.raises(NotBisectable):
        cell_bounds(box, [2])


def test_zero_width_widest_coordinate_not_bisectable():
    box = Box.from_bounds([0.0, 0.0], [0.0, 0.0])
    assert plane(box) == (0, 0.0, False)
    with pytest.raises(NotBisectable):
        cell_bounds(box, [3])


def test_contains_half_open_boundary():
    s = leaf_state(unit_box(2), [2, 3], [[0.5, 0.2]])  # on the plane x = 0.5
    assert leaf_counts(s) == {2: 0, 3: 1}
    corners = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0 + 1e-12], [-1e-300, 0.5]])
    assert inside_mask(unit_box(2), corners).tolist() == [True, True, False, False]
    with pytest.raises(DimensionMismatch):
        CellTable([(0.5,)], unit_box(2))


def test_child_membership_is_exclusive_and_exhaustive():
    box = unit_box(2)
    xs = np.linspace(0.0, 1.0, 9)  # includes the 0.5 splitting hyperplane
    pts = np.array([(x, y) for x in xs for y in xs])
    assert inside_mask(box, pts).all()
    leaf_of = {int(i): v for v, idx in table_leaf_rows(box, [2, 3], pts).items()
               for i in idx}
    assert sorted(leaf_of) == list(range(len(pts)))
    # left child [0, 0.5) x [0, 1], right child [0.5, 1] x [0, 1]
    assert all(leaf_of[i] == (3 if x >= 0.5 else 2) for i, (x, _) in enumerate(pts))


def test_volume_additivity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        lo = rng.uniform(-10, 10, d)
        box = Box.from_bounds(lo, lo + rng.uniform(0.1, 10, d))
        cells = cell_bounds(box, [2, 3])
        left, right = bounds_volume(cells.lo, cells.hi)
        assert left + right == pytest.approx(box.volume, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_repeated_bisection_volume(d):
    box = unit_box(d)
    for k in range(1, 11):
        cells = cell_bounds(box, [2 ** (d * k)])  # the leftmost cell, d*k deep
        assert bounds_volume(cells.lo, cells.hi)[0] == pytest.approx(2.0 ** (-d * k),
                                                                     rel=1e-9)


def test_widest_coordinate_permutation_covariant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        widths = rng.permutation(np.arange(1, d + 1, dtype=float))  # tie-free
        box = Box.from_bounds(np.zeros(d), widths)
        rev = Box.from_bounds(np.zeros(d), widths[::-1])
        assert plane(rev)[0] == d - 1 - plane(box)[0]


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
    assert (box.lows() < pts.min(axis=0)).all()
    assert (box.highs() > pts.max(axis=0)).all()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [0, 7, 39])
def test_bounding_box_rejects_a_non_finite_value(value, row):
    pts = np.random.default_rng(3).uniform(-3, 3, size=(40, 3))
    pts[row, row % 3] = value
    for pad in (0.0, 1e-9):
        with pytest.raises(ValueError, match="points must be finite"):
            bounding_box(pts, pad)


@pytest.mark.parametrize("column", [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0, 0.0],
                                    [0.0, 1.0, -0.0], [-0.0, -1.0, 0.0, -0.0]])
def test_bounding_box_keeps_signed_zeros(column):
    # the bounds are those of numpy's reductions over the whole array,
    # signs of zero included
    pts = np.array([column, column[::-1]]).T
    box = bounding_box(pts, pad=0)
    ref = Box.from_bounds(pts.min(axis=0), pts.max(axis=0))
    assert box == ref
    assert np.signbit(box.lo + box.hi).tolist() == np.signbit(ref.lo + ref.hi).tolist()


def test_bounding_box_empty_input():
    with pytest.raises(EmptyInput):
        bounding_box([])
