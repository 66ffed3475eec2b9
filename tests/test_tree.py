import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rphist.errors import NotALeaf, NotBisectable, RootHasNoParent
from rphist.geometry import Box, bounds_volume, split_plane, volume_at_depth
from rphist.tree import RPTree, cell_bounds, children, depth, parent, paves

from conftest import cell_membership, table_leaf_rows, unit_box


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
    t = RPTree(unit_box(2))
    t2 = t.split(1)
    assert t2.nodes == frozenset({1, 2, 3})
    t3 = t2.split(2)
    assert t3.nodes == frozenset({1, 2, 3, 4, 5})
    with pytest.raises(NotALeaf):
        t2.split(4)
    with pytest.raises(NotALeaf):
        t3.split(2)
    # removing a split's two children gives the tree back
    assert RPTree(t.root_box, t2.nodes - {2, 3}) == t
    assert RPTree(t.root_box, t3.nodes - {4, 5}) == t2


def test_leaves():
    t = RPTree(unit_box(2))
    assert t.leaves() == [1]
    assert t.split(1).leaves() == [2, 3]
    assert t.split(1).split(2).leaves() == [3, 4, 5]


def test_split_then_merge_is_identity_over_random_edits():
    rng = np.random.default_rng(4)
    t = RPTree(unit_box(3))
    for _ in range(200):
        leaves = t.leaves()
        v = int(leaves[rng.integers(len(leaves))])
        t2 = t.split(v)
        assert t2.nodes - t.nodes == {2 * v, 2 * v + 1}
        assert RPTree(t.root_box, t2.nodes - {2 * v, 2 * v + 1}) == t
        assert t2.leaves() == sorted(set(t.leaves()) - {v} | {2 * v, 2 * v + 1})
        if rng.random() < 0.7:
            t = t2


def _random_tree(rng, d=2, n_splits=25) -> RPTree:
    t = RPTree(unit_box(d))
    for _ in range(n_splits):
        leaves = t.leaves()
        t = t.split(int(leaves[rng.integers(len(leaves))]))
    return t


def leaf_volumes(t: RPTree) -> np.ndarray:
    cells = cell_bounds(t.root_box, t.leaves())
    return bounds_volume(cells.lo, cells.hi)


def test_leaf_volumes_partition_root():
    rng = np.random.default_rng(5)
    for d in (1, 2, 4):
        t = _random_tree(rng, d=d)
        assert leaf_volumes(t).sum() == pytest.approx(t.root_box.volume, rel=1e-9)


def test_exactly_one_leaf_contains_each_point():
    rng = np.random.default_rng(6)
    t = _random_tree(rng, d=2, n_splits=30)
    leaves = t.leaves()
    cells = cell_bounds(t.root_box, leaves)
    pts = rng.uniform(0, 1, size=(200, 2))
    # include points exactly on split hyperplanes and on the root's faces
    pts = np.vstack([pts, [[0.5, 0.5]], [[0.25, 0.75]], [[0.5, 0.0]], [[1.0, 1.0]],
                     cells.lo, cells.hi])
    inside = cell_membership(t.root_box, cells.lo, cells.hi, pts)
    assert (inside.sum(axis=1) == 1).all()
    got = np.full(len(pts), -1)
    for leaf, idx in table_leaf_rows(t, pts).items():
        assert (got[idx] == -1).all()
        got[idx] = leaves.index(leaf)
    assert got.tolist() == inside.argmax(axis=1).tolist()


def test_paves_a_random_tree_and_not_broken_label_sets():
    rng = np.random.default_rng(7)
    t = _random_tree(rng)
    assert paves(t.leaves())
    assert not paves([2])  # 3 missing
    assert not paves([1, 2, 3])  # 1 is not a leaf


def test_deep_tree_beyond_word_size():
    t = RPTree(unit_box(1))
    label = 1
    for _ in range(80):  # depth 80: labels need more than 64 bits
        t = t.split(label)
        label = 2 * label
    assert depth(label) == 80
    assert label > 2**64
    cells = cell_bounds(t.root_box, [label])
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
