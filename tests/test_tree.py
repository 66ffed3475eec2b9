import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rphist.errors import NotBisectable, RootHasNoParent
from rphist.geometry import Box, bounds_volume, split_plane, volume_at_depth
from rphist.pqmc import CellTable, State
from rphist.tree import cell_bounds, children, depth, parent, paves

from conftest import (
    cell_membership,
    fig2_points,
    leaf_counts,
    leaves_of,
    split_leaf,
    table_leaf_rows,
    unit_box,
)


def test_parent():
    assert parent(5) == 2
    assert parent(2) == 1
    with pytest.raises(RootHasNoParent):
        parent(1)


def test_children():
    assert children(1) == (2, 3)
    assert children(2) == (4, 5)
    assert children(5) == (10, 11)


def test_depth():
    assert depth(1) == 0
    assert depth(5) == 2
    assert depth(1024) == 10


def test_label_identities_on_big_labels():
    rng = np.random.default_rng(3)
    labels = [2**64 - 1, 2**64, 2**200 + 12345] + [
        int(rng.integers(1, 2**63)) for _ in range(200)
    ]
    for n in labels:
        assert depth(2 * n) == depth(n) + 1
        left, right = children(n)
        assert parent(left) == n
        assert parent(right) == n


def test_cell_bounds_examples():
    cells = cell_bounds(unit_box(2), [1, 3, 5])
    assert cells.lo.tolist() == [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]]
    assert cells.hi.tolist() == [[1.0, 1.0], [1.0, 1.0], [0.5, 1.0]]
    assert cells.axis.tolist() == [0, 1, 0]
    assert cells.mid.tolist() == [0.5, 0.5, 0.25]


def test_split_and_merge_examples():
    # a state is its launch leaves with each row split in turn; dropping
    # the last row gives the state before it back
    table = CellTable(fig2_points(), unit_box(2))
    two = table.cell(2)  # splits the root
    table.cell(4), table.cell(6)  # split cells 2 and 3
    root, s2, s3 = (State(table, [1], rows) for rows in ([], [1], [1, two]))
    assert leaf_counts(s3) == {3: 5, 4: 2, 5: 3}
    assert State(table, [1], s3.rows[:1]) == s2
    assert State(table, [1], s3.rows[:0]) == root
    # equality goes by the leaves and their counts, not by store or ids
    other = CellTable(fig2_points(), unit_box(2))
    assert State(other, [other.cell(v) for v in (5, 3, 4)]) == s3
    assert s3 != s2 and s3 != State(table, [1], [1, two + 1])
    fewer = CellTable(fig2_points()[:-1], unit_box(2))
    fewer.cell(2)
    assert State(fewer, [1], [1]) != s2
    with pytest.raises(ValueError, match="not split"):
        State(fewer, [1], [1, fewer.find(2)]).leaves


def test_leaves():
    table = CellTable(fig2_points(), unit_box(2))
    launch = State(table, [table.cell(v) for v in (3, 4, 5)])
    assert State(table, [1]).leaves.labels == [1]
    assert State(table, [1], [1]).leaves.labels == [2, 3]
    assert State(table, [1], [1, table.find(2)]).leaves.labels == [3, 4, 5]
    # launch leaves of another store, matched by label
    other = CellTable(fig2_points(), unit_box(2))
    other.cell(20)  # splits cells 1, 2, 5 and 10
    s = State(other, launch.launch, [other.find(5), other.find(10)], origin=table)
    assert s.leaves.labels == [3, 4, 11, 20, 21]
    assert leaf_counts(s) == {3: 5, 4: 2, 11: 1, 20: 1, 21: 1}
    assert s == State(other, [other.cell(v) for v in (3, 4, 11, 20, 21)])
    with pytest.raises(ValueError):
        s.relaunched()
    assert State(table, [1], [1, table.find(2)]).relaunched() == launch


def test_split_then_merge_is_identity_over_random_edits():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, size=(500, 3))
    table = CellTable(pts, unit_box(3))
    s = State(table, [1])
    for _ in range(200):
        v = int(s.leaves.labels[rng.integers(s.leaf_count)])
        kid = table.cell(2 * v)  # splits leaf v
        cell = table.find(v)
        s2 = State(table, [1], np.append(s.rows, cell))
        before, after = leaf_counts(s), leaf_counts(s2)
        assert set(after) == set(before) - {v} | {2 * v, 2 * v + 1}
        assert after[2 * v] + after[2 * v + 1] == before[v]
        assert after[2 * v] == table.count[kid]
        assert State(table, [1], s2.rows[:-1]) == s
        assert s2.leaves.labels == sorted(after)
        if rng.random() < 0.7:
            s = s2


def _random_tree(rng, d=2, n_splits=25) -> frozenset[int]:
    nodes = frozenset({1})
    for _ in range(n_splits):
        leaves = leaves_of(nodes)
        nodes = split_leaf(nodes, int(leaves[rng.integers(len(leaves))]))
    return nodes


def leaf_volumes(nodes, d: int) -> np.ndarray:
    cells = cell_bounds(unit_box(d), leaves_of(nodes))
    return bounds_volume(cells.lo, cells.hi)


def test_leaf_volumes_partition_root():
    rng = np.random.default_rng(5)
    for d in (1, 2, 4):
        t = _random_tree(rng, d=d)
        assert leaf_volumes(t, d).sum() == pytest.approx(unit_box(d).volume, rel=1e-9)


def test_exactly_one_leaf_contains_each_point():
    rng = np.random.default_rng(6)
    box = unit_box(2)
    leaves = leaves_of(_random_tree(rng, d=2, n_splits=30))
    cells = cell_bounds(box, leaves)
    pts = rng.uniform(0, 1, size=(200, 2))
    # include points exactly on split hyperplanes and on the root's faces
    pts = np.vstack([pts, [[0.5, 0.5]], [[0.25, 0.75]], [[0.5, 0.0]], [[1.0, 1.0]],
                     cells.lo, cells.hi])
    inside = cell_membership(box, cells.lo, cells.hi, pts)
    assert (inside.sum(axis=1) == 1).all()
    got = np.full(len(pts), -1)
    for leaf, idx in table_leaf_rows(box, leaves, pts).items():
        assert (got[idx] == -1).all()
        got[idx] = leaves.index(leaf)
    assert got.tolist() == inside.argmax(axis=1).tolist()


def test_paves_a_random_tree_and_not_broken_label_sets():
    rng = np.random.default_rng(7)
    t = _random_tree(rng)
    assert paves(leaves_of(t))
    assert not paves([2])  # 3 missing
    assert not paves([1, 2, 3])  # 1 is not a leaf


def test_deep_tree_beyond_word_size():
    label = 1 << 80  # depth 80 down the leftmost spine: more than 64 bits
    assert depth(label) == 80
    assert label > 2**64
    cells = cell_bounds(unit_box(1), [label])
    assert bounds_volume(cells.lo, cells.hi)[0] == pytest.approx(2.0**-80, rel=1e-9)


@st.composite
def root_boxes(draw, max_dim=4):
    """Root boxes with exact 2:1 and equal width ratios, widths down to
    the smallest subnormal, and bounds away from the origin."""
    d = draw(st.integers(1, max_dim))
    base = draw(st.one_of(st.sampled_from([1.0, 3.0, 1e-300, 5e-324, 1e-320]),
                          st.floats(1e-3, 1e3)))
    lows, highs = [], []
    for _ in range(d):
        lo = draw(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)))
        width = base * draw(st.sampled_from([1.0, 2.0, 0.5]))
        lows.append(lo)
        highs.append(lo + width)
    return Box.from_bounds(lows, highs)


def walk(root: Box, label: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference: split box by box along the label's path, one ``(1, d)``
    row per level."""
    lo, hi = root.lows()[None], root.highs()[None]
    for bit in bin(label)[3:]:
        (axis,), (mid,), (ok,) = split_plane(lo, hi)
        if not ok:
            raise NotBisectable(f"cannot bisect along the path to {label}")
        if bit == "1":
            lo[0, axis] = mid
        else:
            hi[0, axis] = mid
    return lo, hi


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(root_boxes(), st.lists(st.integers(1, 2**90), min_size=1, max_size=4))
def test_cell_bounds_equals_box_by_box_bisection(root, labels):
    boxes = []
    for label in labels:
        try:
            boxes.append(walk(root, label))
        except NotBisectable:
            boxes.append(None)
    if None in boxes:
        with pytest.raises(NotBisectable):
            cell_bounds(root, labels)
    keep = [i for i, box in enumerate(boxes) if box is not None]
    cells = cell_bounds(root, [labels[i] for i in keep])
    volumes = bounds_volume(cells.lo, cells.hi)
    for row, (lo, hi) in enumerate(boxes[i] for i in keep):
        (axis,), (mid,), (ok,) = split_plane(lo, hi)
        assert bits(cells.lo[row]) == bits(lo[0])
        assert bits(cells.hi[row]) == bits(hi[0])
        assert cells.axis[row] == axis
        assert bits(cells.mid[row]) == bits(mid)
        assert cells.splittable[row] == ok
        assert bits(volumes[row]) == bits(bounds_volume(lo, hi))


def test_cell_bounds_raises_on_a_subnormal_width():
    root = Box.from_bounds([0.0, 0.0], [5e-324, 5e-324])
    cells = cell_bounds(root, [1])
    assert not cells.splittable[0]
    for labels in ([2], [3, 1], [1, 2**70]):
        with pytest.raises(NotBisectable):
            cell_bounds(root, labels)


def test_cell_bounds_empty_batch_and_invalid_label():
    cells = cell_bounds(unit_box(3), [])
    assert cells.lo.shape == (0, 3) and cells.mid.shape == (0,)
    with pytest.raises(ValueError):
        cell_bounds(unit_box(3), [2, 0])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.data())
def test_split_plane_is_the_first_widest_midpoint(d, data):
    coords = st.floats(-1e6, 1e6)
    lo = np.array(data.draw(st.lists(coords, min_size=d, max_size=d)))
    hi = lo + np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 0.5, 1e-9]),
                                          min_size=d, max_size=d)))
    axis, mid, ok = split_plane(lo[None], hi[None])
    best = 0
    for i in range(1, d):
        if hi[i] - lo[i] > hi[best] - lo[best]:
            best = i
    a, b = float(lo[best]), float(hi[best])
    assert axis[0] == best
    assert bits(mid[0]) == bits(a + (b - a) / 2.0)
    assert ok[0] == (a < a + (b - a) / 2.0 < b)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.data())
def test_volume_at_depth_agrees_with_the_bounds_product(d, data):
    # Priorities use volume_at_depth; the histogram, likelihood and CV use
    # the product of the cell bounds, which carries the rounding of every
    # midpoint.  Six halvings per coordinate of a width >= 1 within 10 of
    # the origin keep that rounding below 1e-12.
    lows = data.draw(st.lists(st.floats(-10, 10), min_size=d, max_size=d))
    widths = data.draw(st.lists(st.floats(1, 10), min_size=d, max_size=d))
    root = Box.from_bounds(lows, [a + w for a, w in zip(lows, widths)])
    labels = data.draw(st.lists(st.integers(1, 2 ** (6 * d + 1) - 1),
                                min_size=1, max_size=20))
    cells = cell_bounds(root, labels)
    for label, vol in zip(labels, bounds_volume(cells.lo, cells.hi)):
        assert vol == pytest.approx(volume_at_depth(root.volume, depth(label)),
                                    rel=1e-12)


@st.composite
def label_lists(draw):
    """Leaf labels of a random paving, some past 2**63, left as they are
    or broken: a leaf dropped, repeated, or joined by an ancestor or a
    descendant."""
    leaves = {1}
    for _ in range(draw(st.integers(0, 10))):
        v = draw(st.sampled_from(sorted(leaves)))
        leaves = (leaves - {v}) | {2 * v, 2 * v + 1}
    for _ in range(draw(st.sampled_from([0, 64]))):
        v = max(leaves)
        leaves = (leaves - {v}) | {2 * v, 2 * v + 1}
    labels = draw(st.permutations(sorted(leaves)))
    v = draw(st.sampled_from(labels))
    edit = draw(st.sampled_from(["none", "drop", "repeat", "ancestor", "descendant"]))
    if edit == "drop":
        labels.remove(v)
    elif edit == "repeat":
        labels.append(v)
    elif edit == "ancestor" and v > 1:
        labels.append(v >> draw(st.integers(1, v.bit_length() - 1)))
    elif edit == "descendant":
        labels.append(2 * v + draw(st.integers(0, 1)))
    return labels


def paves_by_nodes(labels) -> bool:
    """Whether labels are the leaves of a paving, by its node set: each
    label listed once, no label an ancestor of another, and every node
    with zero or two children."""
    if not labels or min(labels) < 1 or len(set(labels)) < len(labels):
        return False
    nodes = set()
    for v in labels:
        while v >= 1 and v not in nodes:
            nodes.add(v)
            v >>= 1
    return (all((2 * v in nodes) == (2 * v + 1 in nodes) for v in nodes)
            and not any(2 * v in nodes for v in labels))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(label_lists() | st.lists(st.integers(0, 40), max_size=8))
def test_paves_agrees_with_the_node_set(labels):
    assert paves(labels) == paves_by_nodes(labels)
