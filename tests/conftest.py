"""Shared fixtures and generators for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rphist.geometry import Box, bounding_box, split_plane
from rphist.pqmc import CellStore, CellTable, PqmcConfig, SEB_PRIORITY, State, run_pqmc
from rphist.srp import inside_mask
from rphist.tree import ROOT, cell_bounds

def unit_box(d: int) -> Box:
    return Box.from_bounds([0.0] * d, [1.0] * d)


def cell_membership(root_box: Box, lo: np.ndarray, hi: np.ndarray,
                    points) -> np.ndarray:
    """``(P, L)`` membership of points in cells with ``(L, d)`` bounds
    under ``root_box``: closed below, open above except on a root face."""
    pts = np.asarray(points, dtype=float)[:, None]
    return ((pts >= lo) & ((pts < hi) | (hi == root_box.highs()))).all(axis=2)


def membership_counts(root_box: Box, labels, points) -> dict[int, int]:
    """The count of each cell of ``labels`` by brute force: the points
    that :func:`cell_membership` puts in its cell, with no routing down
    the tree.  Points outside the closed root box count nowhere."""
    labels = sorted(labels)
    lo, hi = cell_bounds(root_box, labels)
    pts = np.asarray(points, dtype=float).reshape(-1, root_box.dim)
    pts = pts[((pts >= root_box.lows()) & (pts <= root_box.highs())).all(axis=1)]
    counts = cell_membership(root_box, lo, hi, pts).sum(axis=0)
    return dict(zip(labels, counts.tolist()))


def leaves_of(nodes) -> list[int]:
    """The leaves of a prefix-closed label set, in ascending order."""
    return sorted(v for v in nodes if 2 * v not in nodes)


def nodes_of(leaves) -> set[int]:
    """Every node of the paving with these leaves: each leaf and its
    proper prefixes."""
    return {v >> k for v in leaves for k in range(v.bit_length())}


def split_leaf(nodes, v: int) -> frozenset[int]:
    """The label set with leaf ``v`` split into its two children."""
    assert v in nodes and 2 * v not in nodes
    return frozenset(nodes) | {2 * v, 2 * v + 1}


def leaf_counts(s: State) -> dict[int, int]:
    """The count of each leaf of a state, by label."""
    return dict(zip(s.leaves.labels, s.leaves.counts.tolist()))


def node_counts(s: State) -> dict[int, int]:
    """The count of every node of a state: its leaves' counts summed up
    the tree."""
    counts: dict[int, int] = {}
    for v, c in leaf_counts(s).items():
        for k in range(v.bit_length()):
            counts[v >> k] = counts.get(v >> k, 0) + c
    return counts


def leaf_state(root_box: Box, leaves, points, strict: bool = True) -> State:
    """The state with these leaves over the points, through a fresh
    :class:`CellTable`; points outside the root box raise in strict mode
    and are dropped otherwise."""
    pts = np.asarray(points, dtype=float).reshape(-1, root_box.dim)
    table = CellTable(pts if strict else pts[inside_mask(root_box, pts)], root_box)
    return State(table, [table.cell(v) for v in sorted(leaves)])


def root_state(root_box: Box, n: int) -> State:
    """The root-only state of ``n`` points, over a store with no points."""
    return State(CellStore(root_box, n), [ROOT])


@st.composite
def tied_tree_sample(draw):
    """A root box, the leaves of a random tree, and integer-grid rows that
    tie: repeated rows, rows on splitting planes and, under the grid's box
    ``[0, side]^d`` or an unpadded bounding box, on the root faces.  A
    coordinate may be constant, under a padded box too; under the grid's
    box some rows may lie outside."""
    d = draw(st.integers(1, 3))
    side = draw(st.sampled_from([1, 2, 4, 8]))
    rows = draw(arrays(np.int64, (draw(st.integers(0, 40)), d),
                       elements=st.integers(-1, side + 1)))
    pts = np.vstack([rows, np.repeat(rows[:1], draw(st.integers(0, 5)), axis=0)]).astype(float)
    if draw(st.booleans()):
        pts[:, draw(st.integers(0, d - 1))] = side / 2
    if len(pts) and draw(st.booleans()):
        box = bounding_box(pts, draw(st.sampled_from([0.0, 0.25])))
    else:
        box = Box.from_bounds([0.0] * d, [float(side)] * d)
    nodes = frozenset({ROOT})
    for _ in range(draw(st.integers(0, 12))):
        leaves = leaves_of(nodes)
        leaves = [v for v, ok in zip(leaves, split_plane(*cell_bounds(box, leaves))[2]) if ok]
        if not leaves:
            break
        nodes = split_leaf(nodes, draw(st.sampled_from(leaves)))
    return box, leaves_of(nodes), pts


def table_leaf_rows(root_box: Box, leaves, points) -> dict[int, np.ndarray]:
    """The row indices of ``points`` in each of the ``leaves``, read off
    one :class:`CellTable`: the range ``perm[start:start + count]`` of
    each leaf's cell."""
    table = CellTable(points, root_box)
    rows = {}
    for leaf in leaves:
        cell = table.cell(leaf)
        rows[leaf] = table.perm[table.start[cell]:table.start[cell] + table.count[cell]]
    return rows


#: The unit square split into the three-leaf paving {1, 2, 3, 4, 5}.
FIG2_LEAVES = (3, 4, 5)


def fig2_points() -> np.ndarray:
    """Ten points: 2 in the lower-left quarter cell, 3 in the upper-left
    quarter cell, 5 in the right half cell (includes two box corners)."""
    return np.array([
        [0.0, 0.0], [0.3, 0.4],                          # lower-left quarter
        [0.1, 0.6], [0.2, 0.8], [0.4, 0.9],              # upper-left quarter
        [0.6, 0.1], [0.7, 0.3], [0.8, 0.5], [0.9, 0.7], [1.0, 1.0],  # right half
    ])


@pytest.fixture
def fig2_state() -> State:
    return leaf_state(unit_box(2), FIG2_LEAVES, fig2_points())


def random_points(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Clustered data: a mixture of a few Gaussian blobs with very
    unequal weights, which keeps leaf counts generically distinct."""
    k = int(rng.integers(2, 6))
    centers = rng.uniform(-5, 5, size=(k, d))
    scales = rng.uniform(0.05, 1.0, size=k)
    weights = rng.dirichlet(np.ones(k) * 0.5)
    comp = rng.choice(k, size=n, p=weights)
    return centers[comp] + rng.standard_normal((n, d)) * scales[comp, None]


def random_state(rng: np.random.Generator, n_max: int = 200, d_max: int = 3,
                 max_splits: int = 30) -> tuple[State, np.ndarray]:
    """A random state grown by an SEB chain on random clustered data."""
    d = int(rng.integers(1, d_max + 1))
    n = int(rng.integers(2, n_max + 1))
    pts = random_points(rng, n, d)
    box = bounding_box(pts)
    s0 = leaf_state(box, [ROOT], pts)
    splits = int(rng.integers(0, max_splits + 1))
    cfg = PqmcConfig(max_leaves=1 + splits)
    path = run_pqmc(s0, CellTable(pts, s0.root_box), SEB_PRIORITY, cfg)
    return path.final, pts


def seb_instance(seed: int):
    """One (points, box, threshold, sequential path) instance: an SEB
    chain from the root run to a random threshold on random data."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    n = int(rng.integers(64, 4097))
    pts = random_points(rng, n, d)
    threshold = float(rng.integers(max(2, n // 64), max(3, n // 4)))
    box = bounding_box(pts)
    s0 = leaf_state(box, [ROOT], pts)
    path = run_pqmc(s0, CellTable(pts, s0.root_box), SEB_PRIORITY, PqmcConfig(max_psi=threshold))
    return pts, box, threshold, path
