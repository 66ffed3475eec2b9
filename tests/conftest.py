"""Shared fixtures and generators for the test suite."""

import heapq
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rphist.geometry import Box, bounding_box, split_plane
from rphist.pqmc import CellStore, CellTable, PqmcPath, State
from rphist.srp import inside_mask
from rphist.tree import ROOT, cell_bounds

SEB = "seb"
SPC = "spc"


@dataclass(frozen=True)
class Priority:
    """A chain priority over leaves, evaluated from count and volume:
    ``SEB``, the count, or ``SPC``, ``(1 - count/n) * volume``."""

    kind: str

    def value(self, count: int, volume: float, n: int) -> float:
        if self.kind == SEB:
            return float(count)
        return (1.0 - count / n) * volume


SEB_PRIORITY = Priority(SEB)
SPC_PRIORITY = Priority(SPC)


@dataclass(frozen=True)
class ChainConfig:
    """Stopping rules of the reference chain: a threshold ``max_psi``
    (None: no priority stop), a leaf budget ``max_leaves`` (None: no
    budget) and a depth cap."""

    max_psi: float | None = None
    max_leaves: int | None = None
    max_depth: int = 1000


class SplitRecord(NamedTuple):
    """One chain transition: leaf ``label`` split into counts (left, right)."""

    label: int
    left_count: int
    right_count: int


def records(path: PqmcPath) -> tuple[SplitRecord, ...]:
    """A path's splits: each split cell's label and its children's counts."""
    left, right = path.splits.split_counts(path.rows)
    labels = path.splits.labels
    return tuple(map(SplitRecord, [labels[r] for r in path.rows.tolist()],
                     left.tolist(), right.tolist()))


def stop_reason(path: PqmcPath) -> str:
    """Why a chain stopped, checked in the chain's order: no splittable
    leaf left under no threshold, the leaf budget, no splittable leaf
    left above the threshold."""
    if path.top is None:
        return "exhausted"
    if path.max_leaves is not None and path.leaf_count >= path.max_leaves:
        return "max_leaves"
    return "max_psi"


class LeafPool:
    """The reference chain's leaf count and heap of ``(-priority, label,
    cell id)`` keys over the leaves it may still pop, launched from the
    leaves of ``s0``, each found in ``table`` by its label (``initial``,
    the launch state over ``table``): the top is the largest priority,
    ties towards the lowest label.  A leaf that cannot be bisected is
    dropped when it reaches the top.  Under an active threshold, a leaf
    at or below it is not kept."""

    def __init__(self, s0: State, table: CellTable, priority: Priority, cfg: ChainConfig):
        self.table, self.priority, self.cfg = table, priority, cfg
        self.threshold = cfg.max_psi
        self.heap: list[tuple[float, int, int]] = []
        self.leaf_count = s0.leaf_count
        labels, counts, *_ = s0.leaves
        self.initial = table.state(labels)
        for label, count in zip(labels, counts.tolist()):
            cell = table.cell(label)
            if table.count[cell] != count:
                raise ValueError(f"the initial count at leaf {label} does not match the data")
            self.admit(label, cell)

    def admit(self, label: int, cell: int) -> None:
        count = self.table.count[cell]
        if count and label.bit_length() <= self.cfg.max_depth:
            vol = float(self.table.volumes(cell))
            value = self.priority.value(count, vol, self.table.n)
            if self.threshold is None or value > self.threshold:
                heapq.heappush(self.heap, (-value, label, cell))

    def top(self) -> float | None:
        """The largest priority of a splittable leaf, or once none is left
        above the threshold, the threshold (None with no threshold)."""
        while self.heap and not self.table.splittable(self.heap[0][2]):
            heapq.heappop(self.heap)
        return -self.heap[0][0] if self.heap else self.threshold

    def split_top(self) -> tuple[int, bool]:
        """Split the top leaf; return its cell id and whether another
        splittable leaf had the same priority."""
        key, label, cell = heapq.heappop(self.heap)
        tied = self.top() == -key
        kid = self.table.split(cell)
        self.admit(2 * label, kid)
        self.admit(2 * label + 1, kid + 1)
        self.leaf_count += 1
        return cell, tied


def chain(s0: State, table: CellTable, priority: Priority, cfg: ChainConfig) -> PqmcPath:
    """The general priority-queued chain, the reference for the chains a
    run makes (:func:`rphist.pqmc.carve_path`, :func:`rphist.pqmc.run_pqmc`)
    and for the paths read off a root path
    (:func:`rphist.distributed.reconstruct_path`, :func:`truncate_path`).

    From any launch state ``s0`` over the data of ``table``, it splits
    the splittable leaf of largest priority, ties towards the lowest
    label, until no splittable leaf is left above ``cfg.max_psi`` (or at
    all, with no threshold) or the leaf count reaches ``cfg.max_leaves``.
    A ValueError says that ``table`` does not give the counts of ``s0``.
    """
    if table.n != s0.n or table.root_box != s0.root_box:
        raise ValueError(f"the state holds {s0.n} points in {s0.root_box}, "
                         f"the cell table {table.n} in {table.root_box}")
    pool = LeafPool(s0, table, priority, cfg)
    rows = array("q")
    first_tie = None
    budget = cfg.max_leaves or float("inf")
    while (top := pool.top()) != pool.threshold and pool.leaf_count < budget:
        cell, tied = pool.split_top()
        if tied and first_tie is None:
            first_tie = len(rows)
        rows.append(cell)
    return PqmcPath(pool.initial, np.array(rows, dtype=np.intp),
                    pool.threshold, cfg.max_leaves, top,
                    len(rows) if first_tie is None else first_tie)

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
    return table.state(leaves)


def terminal_state(store: CellStore) -> State:
    """The root of ``store`` with the rows of every cell that has
    children there: the terminal state of a build over a fresh table."""
    return State(store, np.flatnonzero(np.frombuffer(store.kid, np.int64)))


def root_state(root_box: Box, n: int) -> State:
    """The root-only state of ``n`` points, over a store with no points."""
    return State(CellStore(root_box, n))


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
    path = chain(s0, CellTable(pts, s0.root_box), SEB_PRIORITY, ChainConfig(max_leaves=1 + splits))
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
    path = chain(s0, CellTable(pts, s0.root_box), SEB_PRIORITY, ChainConfig(max_psi=threshold))
    return pts, box, threshold, path
