"""The two priority-queued splitting chains of a run, over its cell table.

A chain starts from the root of the run's :class:`CellTable` and
repeatedly splits the splittable leaf of largest priority, ties towards
the lowest label.  A run makes two chains:

* the support-carving chain (:func:`carve_path`), whose priority is
  ``(1 - count/n) * volume``: splitting large, nearly empty cells carves
  away the void around the data support.  It stops at a leaf budget or
  when no splittable leaf is left.
* the SEB (statistically equivalent blocks) chain (:func:`run_pqmc`),
  whose priority is the leaf's point count: splitting the fullest cells
  drives all cells towards equal counts.  It stops when no splittable
  leaf is left above a count threshold.

States spread along the carve path (:func:`launch_states`) launch the
tributaries whose states the smoothing stage scores; a run reads every
tributary off one SEB path from the root, the SEB chain's or the
sharded build's (:func:`rphist.distributed.reconstruct_path`).  The
cells a run creates are the rows of a :class:`CellStore`, which the
sharded builder fills too.  Both chains share the run's one
:class:`CellTable`, which checks the points against the root box once
and is a store over one permutation of the points, which partitions
each cell once per run; the sharded build cuts its shards from its
points.  A path is the ids of the cells it split, rows of that store,
and a state is a launch state's leaves with a prefix of those rows
split (:class:`State`), so every label, count, bound and volume is
read from the store.  A path's success and tie flags are read off what
it keeps, so a path cut from a longer one needs no chain of its own.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NotBisectable
from .geometry import Box, bounds_volume, split_plane
from .srp import points_in_box
# cell_bounds is not called here; perfbench/run.py's layer_tracer counts its calls per module
from .tree import ROOT, cell_bounds  # noqa: F401


class Leaves(NamedTuple):
    """A state's leaves in ascending label order, one row each."""

    labels: list[int]
    counts: np.ndarray  # (L,) points per leaf
    lo: np.ndarray  # (L, d) lower bounds
    hi: np.ndarray  # (L, d) upper bounds
    volumes: np.ndarray  # (L,) cell volumes


@dataclass(frozen=True, eq=False)
class State:
    """A chain state: a paving of the root box, each leaf with its count.

    The launch leaves are the cells ``launch`` of ``origin`` (``store``
    unless given), and the state's leaves are those with the cells
    ``rows`` of ``store`` split in turn, each into its two children.  A
    row splits a launch leaf, matched by label, or a child of an earlier
    row.  The labels, counts, bounds and volumes of the leaves are read
    from the stores' rows (:attr:`leaves`).  Two states are equal when
    their root box, point count and leaves with their counts are,
    whatever the stores and ids.
    """

    store: CellStore
    launch: np.ndarray
    rows: np.ndarray = ()
    origin: CellStore | None = None

    def __post_init__(self):
        object.__setattr__(self, "launch", np.asarray(self.launch, dtype=np.intp))
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=np.intp))
        if self.origin is None:
            object.__setattr__(self, "origin", self.store)

    @property
    def root_box(self) -> Box:
        return self.store.root_box

    @property
    def n(self) -> int:
        return self.store.n

    @property
    def leaf_count(self) -> int:
        return len(self.launch) + len(self.rows)

    @cached_property
    def _ids(self) -> tuple[np.ndarray, np.ndarray]:
        """The leaves as ids: the launch leaves no row splits, cells of
        ``origin``, and the children of rows that no later row splits,
        cells of ``store``."""
        store, rows = self.store, self.rows
        kid = np.frombuffer(store.kid, np.int64)[rows]
        if not kid.all():
            raise ValueError("a row of the state is a cell that the store has not split")
        kids = np.concatenate([kid, kid + 1])
        # a row whose parent is no row splits a launch leaf
        first = rows[~np.isin(np.frombuffer(store.parent, np.int64)[rows >> 1], rows)]
        split = {store.labels[i] for i in first.tolist()}
        labels = self.origin.labels
        launch = self.launch[[labels[i] not in split for i in self.launch.tolist()]]
        return launch, kids[~np.isin(kids, rows)]

    @cached_property
    def leaves(self) -> Leaves:
        launch, kids = self._ids
        (labels, *a), (more, *b) = self.origin.gather(launch), self.store.gather(kids)
        labels += more
        order = sorted(range(len(labels)), key=labels.__getitem__)
        counts, bounds, volumes = (np.concatenate([x, y])[order] for x, y in zip(a, b))
        return Leaves([labels[i] for i in order], counts, *np.hsplit(bounds, 2), volumes)

    def relaunched(self) -> "State":
        """The same leaves as the launch leaves of a state with no rows.
        A state whose leaves lie in two stores raises ValueError."""
        if not len(self.rows):
            return self
        launch, kids = self._ids
        if len(launch) and self.origin is not self.store:
            raise ValueError("the state's leaves lie in two cell stores")
        return State(self.store, np.concatenate([launch, kids]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        a, b = self.leaves, other.leaves
        return (self.root_box == other.root_box and self.n == other.n
                and a.labels == b.labels and np.array_equal(a.counts, b.counts))

    def __hash__(self):
        return hash((self.root_box, self.n, tuple(self.leaves.labels)))


@dataclass(eq=False)
class PqmcPath:
    """A chain sample path, stored as its launch state plus its splits,
    as ids of the cells split, rows of a :class:`CellStore`.

    ``initial`` is a :class:`State` with no rows, and ``splits`` is the
    store of the rows: the :class:`CellTable` the chain ran on, or the
    cells of a root build (:attr:`rphist.distributed.BuildResult.cells`).
    Paths cut from one path share its store.

    ``state(t)`` is the state after the first ``t`` splits, the launch
    leaves with a prefix of the rows split; ``states()`` lists them all.
    Consecutive states differ by exactly one split.  The flags derive
    from the ``threshold`` (None with no priority stop) and
    ``max_leaves`` the chain ran under, ``top``, the priority of its
    next pop (the threshold if no splittable leaf is left above it, None
    if none is left and no threshold is active), and ``first_tie``, the
    step of its first tied pop (``len(rows)`` if none).  Two paths are
    equal when their launch state, the labels of their split cells with
    the children's counts, and these fields are.
    """

    initial: State
    splits: CellStore
    rows: np.ndarray
    threshold: float | None
    max_leaves: int | None
    top: float | None
    first_tie: int

    def _split_cells(self) -> tuple[list[int], list[int], list[int]]:
        left, right = self.splits.split_counts(self.rows)
        labels = self.splits.labels
        return [labels[r] for r in self.rows.tolist()], left.tolist(), right.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PqmcPath):
            return NotImplemented
        return (self.initial == other.initial and self._split_cells() == other._split_cells()
                and all(getattr(self, f) == getattr(other, f) for f in
                        ("threshold", "max_leaves", "top", "first_tie")))

    def __len__(self) -> int:
        return len(self.rows) + 1

    @property
    def split_count(self) -> int:
        return len(self.rows)

    def state(self, t: int) -> State:
        if not 0 <= t < len(self):
            raise IndexError(f"state {t} of a path of length {len(self)}")
        return State(self.splits, self.initial.launch, self.rows[:t], self.initial.origin)

    @cached_property
    def final(self) -> State:
        return self.state(len(self) - 1)

    def states(self) -> list[State]:
        return [self.state(t) for t in range(len(self))]

    @property
    def success(self) -> bool:
        """Whether the chain stopped with no splittable leaf above its
        threshold and within its leaf budget."""
        return ((self.threshold is None or self.top is None or self.top <= self.threshold)
                and (self.max_leaves is None or self.leaf_count <= self.max_leaves))

    @property
    def had_ties(self) -> bool:
        """Whether another splittable leaf had the priority of some pop."""
        return self.first_tie < len(self.rows)

    @property
    def leaf_count(self) -> int:
        """Leaves of the final state."""
        return self.initial.leaf_count + len(self.rows)


class CellStore:
    """The cells a run created, by id: label, count, children, parent,
    bounds, volume and split plane.

    The root is id 1 (id 0 is a placeholder) and a split cell's children
    get the next two ids, left first, so an id's parity is its side and
    ``parent[i >> 1]`` is the parent of id ``i``.  ``kid[i]`` is the left
    child's id, 0 until ``i`` is split.  Bounds, volumes (their
    :func:`~rphist.geometry.bounds_volume`) and split planes are found
    when first needed, in one batch over every cell created since the
    last (ids from ``planned`` on), each child's bounds from its
    parent's: so they are bit-identical to those of the cell's label.

    A chain path's splits are rows of a store (:class:`PqmcPath`): row
    ``i`` splits the cell of label ``labels[i]``, :meth:`split_counts`
    gives its children's counts and :meth:`gather` its bounds and
    volume; :meth:`find` gives the id of a label.
    """

    def __init__(self, root_box: Box, n: int):
        self.root_box = root_box
        self.n = n
        self.count = array("q", [0, n])
        self.kid = array("q", [0, 0])
        self.parent = array("q", [0])  # per pair of children: the parent's id
        self.labels = [0, ROOT]
        # bounds (lo | hi), volume, split coordinate, midpoint and bisectability of ids < planned
        self.bounds = np.concatenate([root_box.lows(), root_box.highs()])[None].repeat(2, 0)
        self.volume = array("d", [root_box.volume] * 2)
        axis, mid, ok = split_plane(self.bounds[:, :root_box.dim], self.bounds[:, root_box.dim:])
        self.axis, self.mid = array("q", axis.tolist()), array("d", mid.tolist())
        self.ok = array("b", ok.tolist())
        self.planned = 2

    def find(self, label: int) -> int:
        """Id of cell ``label``, 0 if the store does not hold it."""
        i = ROOT
        for bit in bin(label)[3:]:  # child directions, root first; id 0 has no child
            i = self.kid[i] and self.kid[i] + (bit == "1")
        return i

    def splittable(self, i: int) -> bool:
        if i >= self.planned:
            self._plan()
        return bool(self.ok[i])

    def planes(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split coordinate, midpoint and bisectability of the cells ``ids``."""
        self._plan()
        return (np.frombuffer(self.axis, np.int64)[ids], np.frombuffer(self.mid)[ids],
                np.frombuffer(self.ok, np.int8)[ids] != 0)

    def split_counts(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The children's counts of the split cells ``rows``."""
        count = np.frombuffer(self.count, np.int64)
        kid = np.frombuffer(self.kid, np.int64)[rows]
        return count[kid], count[kid + 1]

    def volumes(self, ids) -> np.ndarray:
        """The volumes of the cells ``ids``."""
        self._plan()
        return np.frombuffer(self.volume)[ids]

    def gather(self, ids: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
        """The labels, counts, ``lo | hi`` bounds and volumes of cells ``ids``."""
        self._plan()
        labels = self.labels
        return ([labels[i] for i in ids.tolist()], np.frombuffer(self.count, np.int64)[ids],
                self.bounds[ids], np.frombuffer(self.volume)[ids])

    def add(self, cells: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Split the cells ``cells``, none split before, into children of
        ``left`` and ``right`` points; return the left children's ids."""
        self._plan()  # a child's bounds come from its parent's plane
        kid = len(self.count) + 2 * np.arange(len(cells))
        np.frombuffer(self.kid, np.int64)[cells] = kid
        self.kid.frombytes(bytes(16 * len(cells)))
        self.count.frombytes(np.stack([left, right], axis=1).astype(np.int64).tobytes())
        self.parent.frombytes(np.asarray(cells, dtype=np.int64).tobytes())
        labels = self.labels
        self.labels += [c for i in cells.tolist() for c in (2 * labels[i], 2 * labels[i] + 1)]
        return kid

    def _plan(self) -> None:
        size = len(self.count)
        if size == self.planned:
            return
        ids = np.arange(self.planned, size)
        par = np.frombuffer(self.parent, np.int64)[ids >> 1]
        rows = self.bounds[par]
        d = rows.shape[1] // 2
        # a left (even) id moves the parent's column d + axis (hi), a right one axis (lo)
        cols = np.frombuffer(self.axis, np.int64)[par] + d * (1 - ids % 2)
        rows[np.arange(len(ids)), cols] = np.frombuffer(self.mid)[par]
        if len(self.bounds) < size:  # a quarter more: chains plan after almost every split
            self.bounds = np.resize(self.bounds, (size + size // 4, 2 * d))
        self.bounds[self.planned:size] = rows
        self.volume.frombytes(bounds_volume(rows[:, :d], rows[:, d:]).tobytes())
        axis, mid, ok = split_plane(rows[:, :d], rows[:, d:])
        self.axis.frombytes(axis.astype(np.int64).tobytes())
        self.mid.frombytes(mid.tobytes())
        self.ok.frombytes(ok.astype(np.int8).tobytes())
        self.planned = size


class CellTable(CellStore):
    """The cells that the chains of one run split, over one point set.

    Each cell is a contiguous range of one permutation of the point
    indices.  The first split of a cell, by whichever chain, partitions
    its range in place, left child first; the children's ranges nest in
    it, so no later split moves a cell.  The cells themselves are a
    :class:`CellStore`, which a split extends by one pair of cells.
    :meth:`drop_permutation` frees the permutation and keeps the store.
    """

    def __init__(self, points, root_box: Box):
        self.points = points_in_box(root_box, points)
        super().__init__(root_box, len(self.points))
        self.perm = np.arange(self.n)
        self.start = array("q", [0, 0])
        self.partitioned = 0

    def cell(self, label: int) -> int:
        """Id of cell ``label``; raises :class:`NotBisectable` if an
        ancestor cannot be split."""
        i = ROOT
        for bit in bin(label)[3:]:  # child directions, root first
            if not self.kid[i] and not self.splittable(i):
                raise NotBisectable(f"cannot bisect along the path to {label}")
            i = self.split(i) + (bit == "1")
        return i

    def drop_permutation(self) -> None:
        """Free the permutation (16 bytes a point): a new split then raises RuntimeError."""
        self.perm = self.start = None

    def split(self, i: int) -> int:
        """Id of the left child of splittable cell ``i``."""
        if self.kid[i]:
            return self.kid[i]
        if self.perm is None:
            raise RuntimeError(f"cell {self.labels[i]}: the table dropped its permutation")
        if i >= self.planned:
            self._plan()
        s, c = self.start[i], self.count[i]
        idx = self.perm[s:s + c]
        right = self.points[idx, self.axis[i]] >= self.mid[i]
        left = idx[~right]
        idx[len(left):] = idx[right]
        idx[:len(left)] = left
        kid = self.kid[i] = len(self.count)
        self.start.extend((s, s + len(left)))
        self.count.extend((len(left), c - len(left)))
        self.kid.extend((0, 0))
        self.parent.append(i)
        label = self.labels[i]
        self.labels += (2 * label, 2 * label + 1)
        self.partitioned += 1
        return kid


def _chain(table: CellTable, priority: Callable[[int, int], float], threshold: float | None,
           max_leaves: int | None, max_depth: int) -> PqmcPath:
    """The chain from the root of ``table`` under ``priority(cell,
    count)`` of a cell id and its count.

    The chain keeps its leaf count and a heap of ``(-priority, label,
    cell id)`` keys over the leaves it may still pop: the top is the
    largest priority, ties towards the lowest label.  A leaf that cannot
    be bisected is dropped when it reaches the top, so the top and the
    tie check after a pop see the splittable leaves alone.  A leaf that
    is empty, at the depth cap, or at or below an active threshold is
    never popped, so it is not kept at all.  The chain stops when no
    splittable leaf is left above the threshold (or at all, with no
    threshold) or the leaf count reaches ``max_leaves``.  Termination is
    guaranteed: the leaf count strictly increases and splittability is
    depth-bounded.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    heap: list[tuple[float, int, int]] = []

    def admit(label: int, cell: int) -> None:
        count = table.count[cell]
        if count and label.bit_length() <= max_depth:
            value = priority(cell, count)
            if threshold is None or value > threshold:
                heapq.heappush(heap, (-value, label, cell))

    def top() -> float | None:
        """The largest priority of a splittable leaf, after dropping the
        leaves that cannot be split; once none is left above the
        threshold, the threshold (None if no threshold is active)."""
        while heap and not table.splittable(heap[0][2]):
            heapq.heappop(heap)
        return -heap[0][0] if heap else threshold

    admit(1, ROOT)
    rows = array("q")
    first_tie = None
    budget = max_leaves or float("inf")
    # the top is the threshold once no splittable leaf is left above it
    while (next_pop := top()) != threshold and len(rows) + 1 < budget:
        key, label, cell = heapq.heappop(heap)
        # another splittable leaf has the same priority; the threshold is
        # below every popped priority
        if first_tie is None and top() == -key:
            first_tie = len(rows)
        kid = table.split(cell)
        admit(2 * label, kid)
        admit(2 * label + 1, kid + 1)
        rows.append(cell)
    return PqmcPath(State(table, [ROOT]), table, np.array(rows, dtype=np.intp),
                    threshold, max_leaves, next_pop,
                    len(rows) if first_tie is None else first_tie)


def run_pqmc(table: CellTable, threshold: float, max_depth: int = 1000) -> PqmcPath:
    """The SEB chain from the root of ``table``, the run's
    :class:`CellTable`, to ``threshold``, with no leaf budget.

    The priority of a leaf is its point count, and the chain stops once
    no splittable leaf holds more than ``threshold`` points.  The path's
    launch leaf and rows are cells of the table.
    """
    if not threshold > 0.0:  # NaN fails too
        raise ValueError("threshold must be > 0")
    return _chain(table, lambda cell, count: float(count), float(threshold), None, max_depth)


def carve_path(table: CellTable, max_leaves: int, max_depth: int = 1000) -> PqmcPath:
    """The support-carving chain from the root of ``table``, the run's
    :class:`CellTable`, with no priority stop.

    The priority of a leaf is ``(1 - count/n) * volume`` (the table's
    volume); it stops at ``max_leaves`` leaves or when none can split.
    """
    if max_leaves < 1:
        raise ValueError("max_leaves must be >= 1")

    def priority(cell: int, count: int) -> float:
        table._plan()  # the children of the last pop
        return (1.0 - count / table.n) * table.volume[cell]

    return _chain(table, priority, None, max_leaves, max_depth)


def launch_states(carve: PqmcPath, c: int) -> list[State]:
    """``c`` states spread evenly along a carve path, always including
    the path's first state, the root state.

    If ``c`` is at least the path length, every state is returned.
    """
    if c < 1:
        raise ValueError("need at least one launch state")
    if c == 1:
        return [carve.state(0)]
    last = len(carve) - 1
    steps = sorted({(i * last) // (c - 1) for i in range(c)})
    return [carve.state(t) for t in steps]

