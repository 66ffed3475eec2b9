"""Data-parallel count-threshold splitting over sharded tagged points.

The working representation is the tagged dataset: a list of working
cells, ids in the run's :class:`~rphist.pqmc.CellTable`, and the
table's points, checked against the root box there, spread over
shards that never exchange points, each tagged with the id of the cell
that holds it.  A cell's count lives in the table alone.  One
iteration retires every cell whose count is at or below the threshold
("pruning") and splits the others; one shard-local step per shard then
moves each point to the child on its side of the splitting hyperplane
and counts the points per cell (a ``bincount``; the shards' counts are
added once, and the new children's go to the table).  Counts never
grow down the tree, so a retired cell could not have been split later.
Its points are parked, not copied out: they keep its id, which the
step maps to itself, so a point's new tag is one gather,
``first[t] + side``, and a shard drops its parked points only once its
working points fall below half of its rows.  Each iteration adds the
children of the cells it split to the table in one batch, which plans
each cell's bounds and split plane once, from its parent's; a cell
that a chain split there already keeps its children.

This is the SEB chain, whose priority is a cell's count.  Its terminal
tree only depends on the threshold, not on the order in which cells are
split, so the result coincides with the tree the sequential chain
(:func:`~rphist.pqmc.run_pqmc`) reaches when run to the same
threshold.  The sequential path itself is a sort: a parent's count is
no smaller and its label is smaller than its children's, so a chain
that pops the largest count, ties towards the lowest label, splits the
cells in ascending ``(-count, label)`` order (:func:`reconstruct_path`).
A build splits cells in ascending label order: each iteration splits
cells of one depth, left to right, and an over-threshold cell that
cannot be split is never split.  So its path is a stable sort of the
cells in the order it split them, by count (:attr:`BuildResult.split`).

One path from the root serves every tributary: the cells with count
above a threshold are the same whatever the launch state, and fewer for
a higher threshold.  So a single build at the lowest threshold of a run
is sorted once into the SEB path from the root
(:attr:`BuildResult.path`, equal to the sequential chain's), and the
path that an SEB chain launched from a state would take is the rows of
either that the state has not split (:func:`reconstruct_path`), both
rows of the run's one table.  The chain pops in non-increasing count
order, so the path to a higher threshold or under a leaf budget is a
prefix of the path to a lower one (:func:`truncate_path`).
"""
from __future__ import annotations

from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .pqmc import CellStore, CellTable, PqmcPath, State
# cell_bounds is not called here; perfbench/run.py's layer_tracer counts its calls per module
from .tree import ROOT, cell_bounds  # noqa: F401

SplitCells = dict[int, int]  # label -> id of a working cell to split
STEP_BLOCK = 1 << 18  # rows per block of a shard step, which sizes its temporaries


@dataclass(frozen=True)
class Shard:
    """One shard of points, each tagged with its cell's id in the store:
    ``tag[j]`` is the id of the cell that holds row ``j`` of ``points``."""

    tag: np.ndarray
    points: np.ndarray


@dataclass(frozen=True)
class TaggedDataset:
    """Working cells and the sharded points that lie in them.

    ``cells`` are the ids of the working cells in ``store``, the run's
    table in a build, which holds their counts.  A point whose tag is
    not a working cell is parked: its cell has retired.
    """

    store: CellStore
    cells: np.ndarray
    shards: tuple[Shard, ...]

    @property
    def labels(self) -> list[int]:
        """The working cells' labels, in cell order."""
        labels = self.store.labels
        return [labels[i] for i in self.cells.tolist()]

    @classmethod
    def from_table(cls, table: CellTable, shard_count: int = 1) -> "TaggedDataset":
        """Tag every point of ``table``, the run's checked points and the
        dataset's store, with its root cell and cut them into shards.

        Shards are contiguous row ranges; the assignment never changes
        afterwards.  The table's permutation is freed: the cells the
        dataset adds have no range in it.
        """
        if shard_count < 1:
            raise ValueError("need at least one shard")
        table.drop_permutation()
        shards = tuple(Shard(np.full(len(rows), ROOT), rows)
                       for rows in np.array_split(np.ascontiguousarray(table.points),
                                                  shard_count))
        return cls(table, np.array([ROOT]), shards)


def count_by_cell(ds: TaggedDataset) -> np.ndarray:
    """Exact point count of every working cell, in cell order, as the
    store holds it.

    The build writes each new cell's count once, the shards' counts
    added; addition is associative and commutative, so the counts do
    not depend on the shard count or merge order.
    """
    return np.frombuffer(ds.store.count, np.int64)[ds.cells]


def cells_to_split(ds: TaggedDataset, threshold: float, max_depth: int) -> SplitCells:
    """Working cells whose count strictly exceeds the threshold and that
    can actually be split (depth cap and machine bisectability), as
    ``{label: id}``, in cell order."""
    ok = ds.store.planes(ds.cells)[2] & (count_by_cell(ds) > threshold)
    labels = ds.store.labels
    return {a: i for i in ds.cells[ok].tolist() if (a := labels[i]).bit_length() <= max_depth}


def apply_splits(ds: TaggedDataset, split: SplitCells,
                 pool: Executor | None = None) -> TaggedDataset:
    """Split the chosen working cells, move their points to the child on
    their side, and count the points of the new children.

    ``split`` holds any subset of the cells :func:`cells_to_split`
    returns.  A chosen cell with label ``a`` becomes its left child
    ``2a`` and right child ``2a + 1``, in its place in the cell order;
    the other cells stay as they are.  A point below the plane
    (coordinate < mid) goes left, a point at or above it right.  A cell
    that the store has split already, by a chain on the same table,
    keeps its children; the others' children join the store in one
    batch, and their counts are written there.

    Each shard takes one step, mapped over the shards by ``pool``: a
    point tagged ``t`` is retagged ``first[t] + side``, with one lookup
    over the store's ids, where a chosen cell maps to its left child and
    every other cell, working or retired, to itself.  A cell not split
    compares against ``+inf``, so its side is 0 (points are finite).  A
    shard steps through its rows in blocks of ``STEP_BLOCK``, which
    bounds the per-point temporaries, and a shard whose working points
    fall below half of its rows drops its parked points.
    """
    if not split:
        return ds
    store = ds.store
    ids = len(store.labels)  # every tag is below it
    picked = np.zeros(ids, dtype=bool)
    picked[list(split.values())] = True
    chosen = picked[ds.cells]
    cells = ds.cells[chosen]
    kid = np.frombuffer(store.kid, np.int64)[cells]
    new = kid == 0
    kid[new] = store.add(cells[new])
    out = np.repeat(ds.cells, chosen + 1)
    left = np.flatnonzero(chosen) + np.arange(len(cells))
    out[left], out[left + 1] = kid, kid + 1
    size = len(store.labels)  # with the new children
    # every point gathers from these at random, so each is as narrow as its values allow
    first = np.arange(ids, dtype=np.min_scalar_type(size))
    axis = np.zeros(ids, dtype=np.min_scalar_type(store.root_box.dim))
    mid = np.full(ids, np.inf)
    first[cells] = kid
    axis[cells], mid[cells], _ = store.planes(cells)
    working = np.zeros(size, dtype=bool)
    working[out] = True

    def step(shard: Shard) -> tuple[Shard, np.ndarray]:
        tag = np.empty_like(shard.tag)
        for s in range(0, len(tag), STEP_BLOCK):
            t, points = shard.tag[s:s + STEP_BLOCK], shard.points[s:s + STEP_BLOCK]
            at = np.arange(0, points.size, points.shape[1])  # row starts, then coordinates
            at += axis[t]
            side = points.reshape(-1)[at] >= mid[t]
            np.add(first[t], side, out=tag[s:s + STEP_BLOCK])
        counts = np.bincount(tag, minlength=size)
        if 2 * int(counts[out].sum()) < len(tag):
            work = working[tag]
            return Shard(tag[work], shard.points[work]), counts
        return Shard(tag, shard.points), counts

    steps = list((map if pool is None else pool.map)(step, ds.shards))
    born = np.concatenate([kid[new], kid[new] + 1])
    np.frombuffer(store.count, np.int64)[born] = sum(counts[born] for _, counts in steps)
    return TaggedDataset(store, out, tuple(shard for shard, _ in steps))


def prune(ds: TaggedDataset, keep: np.ndarray) -> TaggedDataset:
    """Retire the working cells where ``keep`` is False, parking their
    points: no point moves or changes its tag.

    The build retires every cell whose count is at or below the
    threshold: the threshold never changes and counts never grow down
    the tree, so it could not have been split later anyway.  The kept
    cells keep their order.
    """
    if keep.all():
        return ds
    return TaggedDataset(ds.store, ds.cells[keep], ds.shards)


@dataclass(frozen=True)
class IterationStats:
    """Per-iteration bookkeeping of one threshold build."""

    split_cells: int
    working_points: int
    passed_points: int
    nonempty_cells: int


@dataclass(frozen=True)
class BuildResult:
    """Outcome of a threshold build: the cells it split plus diagnostics.

    ``cells`` is the run's table, which holds both children of every
    split cell, with their counts.  ``split`` is the ids the build split
    in iteration order, ascending by label: each iteration splits cells
    of one depth, left to right.  ``path`` is the SEB chain's path from
    the root to the threshold, read off them.
    """

    cells: CellTable
    split: np.ndarray
    iterations: int
    threshold: float
    stats: tuple[IterationStats, ...] = field(default=(), repr=False)

    @cached_property
    def path(self) -> PqmcPath:
        """The whole SEB path from the root state: the ids of the split
        cells in the chain's pop order, ascending ``(-count, label)``, a
        stable sort of :attr:`split` by count.  No splittable cell is
        left above the threshold, so the threshold stands for the next
        pop."""
        cells, split = self.cells, self.split
        rows = split[np.argsort(-np.frombuffer(cells.count, np.int64)[split], kind="stable")]
        return PqmcPath(State(cells), rows, self.threshold, None, self.threshold,
                        _first_tie(cells, rows))


def build_threshold_tree(table: CellTable, threshold: float, max_depth: int = 1000,
                         shard_count: int = 1, workers: int = 1) -> BuildResult:
    """Split every cell with count above the threshold, per iteration,
    until none is left.

    The build starts from the root cell of ``table``, the run's checked
    points, and adds its cells to the table: a cell that a chain has
    split already keeps its children, and the table's permutation is
    freed (:meth:`TaggedDataset.from_table`).  Its cells form the unique
    tree in which every leaf has count at or below the threshold; it
    equals the terminal state of the sequential SEB chain
    (:func:`~rphist.pqmc.run_pqmc`) over the same table to the same
    threshold and ``max_depth``, whose path is
    :attr:`BuildResult.path`.  An over-threshold cell that cannot be
    split (depth cap or machine precision) stays a leaf, as in the
    sequential chain.  With several workers and shards, one thread pool
    maps the shards of every step, one map per iteration.
    """
    ds = TaggedDataset.from_table(table, shard_count)
    stats: list[IterationStats] = []
    split_ids = [np.zeros(0, dtype=np.intp)]  # the ids each iteration splits
    passed = 0
    threads = workers > 1 and shard_count > 1
    with (ThreadPoolExecutor(workers) if threads else nullcontext()) as pool:
        counts = count_by_cell(ds)
        while True:
            keep = counts > threshold
            passed += int(counts[~keep].sum())
            ds = prune(ds, keep)
            split = cells_to_split(ds, threshold, max_depth)
            if not split:
                break
            split_ids.append(np.fromiter(split.values(), np.intp, len(split)))
            ds = apply_splits(ds, split, pool)
            counts = count_by_cell(ds)
            stats.append(IterationStats(
                split_cells=len(split),
                working_points=int(counts.sum()),
                passed_points=passed,
                nonempty_cells=int(np.count_nonzero(counts)),
            ))
    return BuildResult(table, np.concatenate(split_ids), len(stats), float(threshold),
                       tuple(stats))


def assemble_srp(result: BuildResult) -> State:
    """The terminal state of a finished build: the root of the run's
    table with the rows :attr:`BuildResult.split`.

    The table holds the root and both children of every split cell,
    each with its count; a side that received no points has count 0.
    """
    return State(result.cells, result.split)


def reconstruct_path(root: PqmcPath, launch: State | None = None) -> PqmcPath:
    """The SEB path from ``launch`` to the threshold of ``root``, read off
    ``root``: the whole SEB path from the root state, a root build's
    :attr:`BuildResult.path` or :func:`~rphist.pqmc.run_pqmc`'s.

    Counts never increase down the tree, so the cells with count above
    the threshold form a subtree from the root that every chain splits,
    whatever its launch state.  The chain from ``launch`` (the root state
    when omitted), a state over the same store, therefore splits the
    rows of ``root`` that ``launch`` has not split, in the order of
    ``root``, ties included, and stops as ``root`` does; a call finds
    its first tied pop over those rows.  The path to a higher threshold
    or under a leaf budget is cut from this one (:func:`truncate_path`).
    A ``root`` with a leaf budget or from another state, or a ``launch``
    over another store, raises ValueError.
    """
    if root.max_leaves is not None or root.initial.leaf_count != 1:
        raise ValueError("need a whole path from the root with no leaf budget")
    launch = root.initial if launch is None else launch
    if launch.store is not root.splits:
        raise ValueError("the launch state and the root path are over different cell stores")
    rows = root.rows[~np.isin(root.rows, launch.rows)]
    return PqmcPath(launch, rows, root.threshold, None, root.top,
                    _first_tie(root.splits, rows))


def _first_tie(cells: CellStore, rows: np.ndarray) -> int:
    """Step of the first tied pop of the whole SEB path through ``rows``
    of ``cells``, or ``len(rows)``.

    The pop at step ``i`` is tied when a later pop of the same count is
    already a leaf then: a leaf of the launch state (its parent is not
    on the path), or a child of a cell split before step ``i``.  Pops of
    equal count are adjacent, so this is a suffix minimum, over each run
    of equal count, of the step from which each cell is a leaf.
    """
    m = len(rows)
    if m < 2:
        return m
    step = np.full(len(cells.labels), -1)  # the root's parent is id 0, never split
    step[rows] = np.arange(m)
    # the step from which the cell is a leaf
    ready = step[np.frombuffer(cells.parent, np.int64)[rows >> 1]] + 1
    count = np.frombuffer(cells.count, np.int64)[rows]
    run = np.concatenate([[0], np.cumsum(count[1:] != count[:-1])])
    # offset each run below the runs after it, so one running minimum
    # from the end restarts at every run
    lift = run * (m + 1)
    least = np.minimum.accumulate((ready + lift)[::-1])[::-1] - lift
    tied = (run[1:] == run[:-1]) & (least[1:] <= np.arange(m - 1))
    return int(np.argmax(tied)) if tied.any() else m


def truncate_path(whole: PqmcPath, threshold: float, max_leaves: int | None) -> PqmcPath:
    """The SEB path to ``threshold`` under the leaf budget ``max_leaves``,
    cut from ``whole``, the SEB path from the same launch state to a
    threshold no higher, under no leaf budget or this one.

    A child's count never exceeds its parent's, so the chain pops in
    non-increasing count order: it takes the pops of ``whole`` with
    count above ``threshold`` (a ``searchsorted``), as many as the budget
    leaves room for.  Its next pop is the first row it does not keep, or
    that of ``whole``, and the threshold if none of those is above it,
    as in the chain; its pops tie as in ``whole``.  A lower threshold or
    another budget than ``whole`` ran under raises ValueError.
    """
    if whole.threshold is not None and threshold < whole.threshold:
        raise ValueError(f"threshold {threshold} is below the path's {whole.threshold}")
    if whole.max_leaves not in (None, max_leaves):
        raise ValueError(f"leaf budget {max_leaves} differs from the path's {whole.max_leaves}")
    left, right = whole.splits.split_counts(whole.rows)
    count = left + right
    keep = int(np.searchsorted(-count, -threshold))
    if max_leaves is not None:
        keep = min(keep, max(0, max_leaves - whole.initial.leaf_count))
    top = whole.top if keep == len(count) else float(count[keep])
    top = top if top is not None and top > threshold else threshold
    return PqmcPath(whole.initial, whole.rows[:keep], threshold, max_leaves,
                    top, min(whole.first_tie, keep))
