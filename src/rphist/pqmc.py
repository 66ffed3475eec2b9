"""Priority-queued splitting chains over statistical regular pavings.

A chain starts from a state and repeatedly splits the splittable leaf of
largest priority until it runs out of splittable leaves, reaches a leaf
budget, or the largest priority drops to the stopping threshold.  Two
priorities are provided:

* ``SEB`` (statistically equivalent blocks): the leaf's point count.
  Splitting the fullest cells drives all cells towards equal counts.
* ``SPC`` (support carving): ``(1 - count/n) * volume``.  Splitting
  large, nearly empty cells carves away the void around the data
  support, complementing SEB.

A carving run followed by the SEB paths from states spread along the
carve path ("tributaries") yields the candidate states that the
smoothing stage scores; a run reads every tributary off one SEB path
from the root (:func:`rphist.distributed.reconstruct_path`).  The cells
a run creates are the rows of a :class:`CellStore`, which the sharded
builder fills too.  The chains of a run, the carve and the root SEB
chain, share one :class:`CellTable`, a store over one permutation of
the points, which partitions each cell once per run; a chain itself
keeps only a heap of the priorities of the leaves it may pop, those
above its threshold, and its leaf count.  A path is the ids of the
cells it split, rows of that store, and a state is a launch state's
leaves with a prefix of those rows split (:class:`State`), so every
label, count and bound is read from the store.  A path's stop reason,
success and tie flags are read off what it keeps, so a path cut from a
longer one needs no chain of its own.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NotBisectable
from .geometry import DEFAULT_PAD, Box, bounding_box, split_plane, volume_at_depth
from .srp import points_in_box
# cell_bounds is not called here; perfbench/run.py's layer_tracer counts its calls per module
from .tree import ROOT, cell_bounds  # noqa: F401

SEB = "seb"
SPC = "spc"


@dataclass(frozen=True)
class Priority:
    """A priority function over leaves, evaluated from count and volume."""

    kind: str

    def __post_init__(self):
        if self.kind not in (SEB, SPC):
            raise ValueError(f"unknown priority kind {self.kind!r}")

    def value(self, count: int, volume: float, n: int) -> float:
        if self.kind == SEB:
            return float(count)
        if n == 0:
            return volume
        return (1.0 - count / n) * volume


SEB_PRIORITY = Priority(SEB)
SPC_PRIORITY = Priority(SPC)


@dataclass(frozen=True)
class PqmcConfig:
    """Stopping thresholds of a splitting chain.

    ``max_psi`` stops the chain once the largest splittable priority is
    no bigger than it; ``None`` or ``0.0`` disables that stop (a zero
    threshold can never bind for SEB, and for SPC the zero-threshold
    carve is defined to run until the leaf budget).  ``max_leaves=None``
    removes the leaf budget.
    """

    max_psi: float | None = None
    max_leaves: int | None = None
    max_depth: int = 1000

    def __post_init__(self):
        if self.max_leaves is not None and self.max_leaves < 1:
            raise ValueError("max_leaves must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    @property
    def priority_stop_active(self) -> bool:
        return self.max_psi is not None and self.max_psi > 0.0


class SplitRecord(NamedTuple):
    """One chain transition: leaf ``label`` split into counts (left, right)."""

    label: int
    left_count: int
    right_count: int


class Leaves(NamedTuple):
    """A state's leaves in ascending label order, one row each."""

    labels: list[int]
    counts: np.ndarray  # (L,) points per leaf
    lo: np.ndarray  # (L, d) lower bounds
    hi: np.ndarray  # (L, d) upper bounds


@dataclass(frozen=True, eq=False)
class State:
    """A chain state: a paving of the root box, each leaf with its count.

    The launch leaves are the cells ``launch`` of ``origin`` (``store``
    unless given), and the state's leaves are those with the cells
    ``rows`` of ``store`` split in turn, each into its two children.  A
    row splits a launch leaf, matched by label, or a child of an earlier
    row.  The labels, counts and bounds of the leaves are read from the
    stores' rows (:attr:`leaves`).  Two states are equal when their root
    box, point count and leaves with their counts are, whatever the
    stores and ids.
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
        (la, ca, ba), (lk, ck, bk) = self.origin.gather(launch), self.store.gather(kids)
        labels = la + lk
        order = sorted(range(len(labels)), key=labels.__getitem__)
        lo, hi = np.hsplit(np.concatenate([ba, bk])[order], 2)
        return Leaves([labels[i] for i in order], np.concatenate([ca, ck])[order], lo, hi)

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
    Paths cut from one path share its store.  ``records`` is the same
    splits as :class:`SplitRecord` tuples, built on first use.

    ``state(t)`` is the state after the first ``t`` splits, the launch
    leaves with a prefix of the rows split; ``states()`` lists them all.
    Consecutive states differ by exactly one split.  The flags derive
    from the ``threshold`` (``max_psi`` if the priority stop was active)
    and ``max_leaves`` the chain ran under, ``top``, the priority of its
    next pop (the threshold if no splittable leaf is left above it, None
    if none is left and no threshold is active), and ``first_tie``, the
    step of its first tied pop (``len(rows)`` if none).  Two paths
    are equal when their launch state, records and these fields are.
    """

    initial: State
    splits: CellStore
    rows: np.ndarray
    threshold: float | None
    max_leaves: int | None
    top: float | None
    first_tie: int

    @cached_property
    def records(self) -> tuple[SplitRecord, ...]:
        left, right = self.splits.split_counts(self.rows)
        labels = self.splits.labels
        return tuple(map(SplitRecord, [labels[r] for r in self.rows.tolist()],
                         left.tolist(), right.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PqmcPath):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in
                   ("initial", "records", "threshold", "max_leaves", "top", "first_tie"))

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
    def stop_reason(self) -> str:
        """Why the chain stopped, checked in the chain's order: no
        splittable leaf left under no threshold, the leaf budget, no
        splittable leaf left above the threshold."""
        if self.top is None:
            return "exhausted"
        if self.max_leaves is not None and self.leaf_count >= self.max_leaves:
            return "max_leaves"
        return "max_psi"

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
    bounds and split plane.

    The root is id 1 (id 0 is a placeholder) and a split cell's children
    get the next two ids, left first, so an id's parity is its side and
    ``parent[i >> 1]`` is the parent of id ``i``.  ``kid[i]`` is the left
    child's id, 0 until ``i`` is split.  Bounds and split planes are
    found when first needed, in one :func:`split_plane` batch over every
    cell created since the last (ids from ``planned`` on), each child's
    bounds from its parent's: so they are bit-identical to
    :func:`rphist.tree.cell_bounds` of the cell's label.

    A chain path's splits are rows of a store (:class:`PqmcPath`): row
    ``i`` splits the cell of label ``labels[i]``, :meth:`split_counts`
    gives its children's counts and :meth:`split_bounds` its bounds;
    :meth:`find` gives the id of a label.
    """

    def __init__(self, root_box: Box, n: int):
        self.root_box = root_box
        self.n = n
        self.count = array("q", [0, n])
        self.kid = array("q", [0, 0])
        self.parent = array("q", [0])  # per pair of children: the parent's id
        self.labels = [0, ROOT]
        # bounds (lo | hi), split coordinate, midpoint and bisectability of ids < planned
        self.bounds = np.concatenate([root_box.lows(), root_box.highs()])[None].repeat(2, 0)
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

    def split_bounds(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``(lo, hi)`` bounds of the cells ``rows``, such as a path's
        split cells."""
        self._plan()
        return tuple(np.hsplit(self.bounds[rows], 2))

    def gather(self, ids: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
        """The labels, counts and ``lo | hi`` bounds of the cells ``ids``."""
        self._plan()
        labels = self.labels
        return ([labels[i] for i in ids.tolist()], np.frombuffer(self.count, np.int64)[ids],
                self.bounds[ids])

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
            grown = np.empty((size + size // 4, 2 * d))
            grown[:self.planned] = self.bounds[:self.planned]
            self.bounds = grown
        self.bounds[self.planned:size] = rows
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

    def split(self, i: int) -> int:
        """Id of the left child of splittable cell ``i``."""
        if self.kid[i]:
            return self.kid[i]
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


class _LeafPool:
    """One chain's leaf count and heap of ``(-priority, label, cell id)``
    keys over the leaves it may still pop: the top is the largest
    priority, ties towards the lowest label.  A leaf that cannot be
    bisected is dropped when it reaches the top, so the top and the tie
    check after a pop see the splittable leaves alone.  Under an active
    threshold, a leaf whose priority is at or below it is never popped,
    so it is not kept at all."""

    def __init__(self, s0: State, table: CellTable, priority: Priority, cfg: PqmcConfig):
        self.table, self.priority = table, priority
        self.threshold = cfg.max_psi if cfg.priority_stop_active else None
        self.limit = 1 << cfg.max_depth  # a label below it is above the depth cap
        self.root_volume = table.root_box.volume
        self.heap: list[tuple[float, int, int]] = []
        self.leaf_count = s0.leaf_count
        labels, counts, *_ = s0.leaves
        self.launch = [table.cell(label) for label in labels]
        for label, count, cell in zip(labels, counts.tolist(), self.launch):
            if table.count[cell] != count:
                raise ValueError(f"the initial count at leaf {label} does not match the data")
            self._admit(label, cell)

    def _admit(self, label: int, cell: int) -> None:
        count = self.table.count[cell]
        if count and label < self.limit:
            vol = (0.0 if self.priority.kind == SEB
                   else volume_at_depth(self.root_volume, label.bit_length() - 1))
            value = self.priority.value(count, vol, self.table.n)
            if self.threshold is None or value > self.threshold:
                heapq.heappush(self.heap, (-value, label, cell))

    def top(self) -> float | None:
        """The largest priority of a splittable leaf, after dropping the
        leaves that cannot be split; once none is left above the
        threshold, the threshold (None if no threshold is active)."""
        while self.heap and not self.table.splittable(self.heap[0][2]):
            heapq.heappop(self.heap)
        return -self.heap[0][0] if self.heap else self.threshold

    def split_top(self) -> tuple[int, bool]:
        """Split the top leaf; return its cell id and whether another
        splittable leaf had the same priority."""
        key, label, cell = heapq.heappop(self.heap)
        tied = self.top() == -key  # the threshold is below every popped priority
        kid = self.table.split(cell)
        self._admit(2 * label, kid)
        self._admit(2 * label + 1, kid + 1)
        self.leaf_count += 1
        return cell, tied


def run_pqmc(s0: State, points, priority: Priority, cfg: PqmcConfig) -> PqmcPath:
    """Run one priority-queued splitting chain from ``s0``.

    At every step the splittable leaf with the largest priority is
    split (ties towards the lowest label) until no splittable leaf remains
    above ``cfg.max_psi`` (or at all, with no priority stop) or the leaf
    count reaches ``cfg.max_leaves``.  Termination is guaranteed: the leaf
    count strictly increases and splittability is depth-bounded.
    ``points`` is the data of ``s0``, or a run's shared :class:`CellTable`
    over it; a ValueError says that they do not give the counts of ``s0``.
    The path's launch leaves and rows are cells of the table.
    """
    table = points if isinstance(points, CellTable) else CellTable(points, s0.root_box)
    if table.n != s0.n or table.root_box != s0.root_box:
        raise ValueError(f"the state holds {s0.n} points in {s0.root_box}, "
                         f"the cell table {table.n} in {table.root_box}")
    pool = _LeafPool(s0, table, priority, cfg)
    threshold = pool.threshold
    rows = array("q")
    first_tie = None
    budget = cfg.max_leaves or float("inf")
    # the top is the threshold once no splittable leaf is left above it
    while (top := pool.top()) != threshold and pool.leaf_count < budget:
        cell, tied = pool.split_top()
        if tied and first_tie is None:
            first_tie = len(rows)
        rows.append(cell)
    return PqmcPath(State(table, pool.launch), table, np.array(rows, dtype=np.intp),
                    threshold, cfg.max_leaves, top,
                    len(rows) if first_tie is None else first_tie)


def carve_path(points, cfg: PqmcConfig, root_box: Box | None = None,
               pad: float = DEFAULT_PAD) -> PqmcPath:
    """Support-carving chain from the root state with a zero threshold.

    Runs the SPC priority until the leaf budget ``cfg.max_leaves`` is
    reached or no splittable leaf remains; ``cfg.max_psi`` must be 0 or
    None (the zero-threshold carve never stops on priority).  A
    :class:`CellTable` as ``points`` brings its own root box.
    """
    if cfg.max_psi not in (None, 0, 0.0):
        raise ValueError("the carve chain requires max_psi = 0 (or None)")
    if not isinstance(points, CellTable):
        points = CellTable(points, bounding_box(points, pad) if root_box is None else root_box)
    return run_pqmc(State(points, [ROOT]), points, SPC_PRIORITY, cfg)


def launch_states(carve: PqmcPath, c: int) -> list[State]:
    """``c`` states spread evenly along a carve path, always including
    the path's first state (the root state for a root-started carve).

    If ``c`` is at least the path length, every state is returned.
    """
    if c < 1:
        raise ValueError("need at least one launch state")
    if c == 1:
        return [carve.state(0)]
    last = len(carve) - 1
    steps = sorted({(i * last) // (c - 1) for i in range(c)})
    return [carve.state(t) for t in steps]

