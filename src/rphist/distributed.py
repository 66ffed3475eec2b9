"""Data-parallel count-threshold splitting over sharded tagged points.

The working representation is the tagged dataset: a list of working
cells, ids in a :class:`~rphist.pqmc.CellStore`, and the points of the
run's :class:`~rphist.pqmc.CellTable`, checked against the root box
there, spread over shards that never exchange points, each tagged with
a working cell's index.  One iteration retires every cell whose count
is at or below the threshold ("pruning") and splits the others; one
shard-local step per shard then moves each point to the child on its
side of the splitting hyperplane and counts the points per new cell (a
``bincount``; the shards' counts are merged by adding the arrays).
Counts never grow down the tree, so a retired cell could not have been
split later.  Its points are parked, not copied out: its index maps
past the last working cell, so a point's new tag is one gather,
``first[i] + side``, and a shard drops its parked points only once its
working points fall below half of its rows.  Each iteration adds the
children it made, with their counts, to the store in one batch, which
plans each cell's bounds and split plane once, from its parent's.

This is the SEB chain, whose priority is a cell's count.  Its terminal
tree only depends on the threshold, not on the order in which cells are
split, so the result coincides with the tree the sequential chain
(:func:`~rphist.pqmc.run_pqmc`) reaches when run to the same
threshold.  The sequential path itself is a sort: a parent's count is
no smaller and its label is smaller than its children's, so a chain
that pops the largest count, ties towards the lowest label, splits the
cells in ascending ``(-count, label)`` order (:func:`reconstruct_path`).
In a build that is ascending ``(-count, id)``: each iteration splits
cells of one depth, left to right, and an over-threshold cell that
cannot be split is never split, so the ids rise with the labels.

One path from the root serves every tributary: the cells with count
above a threshold are the same whatever the launch state, and fewer for
a higher threshold.  So a single build at the lowest threshold of a run
is sorted once into the SEB path from the root
(:attr:`BuildResult.path`, equal to the sequential chain's), and the
path that an SEB chain launched from a state would take is the rows of
either that the state has not split (:func:`reconstruct_path`).  The
chain pops in non-increasing count order, so the path to a higher
threshold or under a leaf budget is a prefix of the path to a lower one
(:func:`truncate_path`).
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

SplitCells = dict[int, int]  # label -> index of a working cell to split
STEP_BLOCK = 1 << 18  # rows per block of a shard step, which sizes its temporaries


@dataclass(frozen=True)
class Shard:
    """One shard of tagged points and its point count per working cell.

    ``index[j]`` is the tag of row ``j`` of ``points``; the tags are read
    through the dataset's ``remap``.
    """

    index: np.ndarray
    points: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class TaggedDataset:
    """Working cells and the sharded points that lie in them.

    Working cell ``i`` is the cell ``cells[i]`` of ``store``.  A point
    tagged ``t`` lies in working cell ``remap[t]``; ``remap[t] ==
    len(cells)`` parks it: its cell has retired.  ``remap`` is the
    identity right after a split step.
    """

    store: CellStore
    cells: np.ndarray
    shards: tuple[Shard, ...]
    remap: np.ndarray

    @property
    def labels(self) -> list[int]:
        """The working cells' labels, in cell order."""
        labels = self.store.labels
        return [labels[i] for i in self.cells.tolist()]

    @classmethod
    def from_table(cls, table: CellTable, shard_count: int = 1) -> "TaggedDataset":
        """Tag every point of ``table``, the run's checked points, with the
        root cell of a new store and cut them into shards.

        Shards are contiguous row ranges; the assignment never changes
        afterwards.
        """
        if shard_count < 1:
            raise ValueError("need at least one shard")
        shards = tuple(Shard(np.zeros(len(rows), dtype=np.intp), rows, np.array([len(rows)]))
                       for rows in np.array_split(np.ascontiguousarray(table.points),
                                                  shard_count))
        return cls(CellStore(table.root_box, table.n), np.array([ROOT]), shards, np.arange(2))


def count_by_cell(ds: TaggedDataset) -> np.ndarray:
    """Exact point count of every working cell, in cell order: the
    shards' counts merged by addition.

    Addition is associative and commutative, so the counts do not
    depend on the shard count or merge order.
    """
    return np.sum([s.counts for s in ds.shards], axis=0)


def cells_to_split(ds: TaggedDataset, counts: np.ndarray, threshold: float,
                   max_depth: int) -> SplitCells:
    """Working cells whose count strictly exceeds the threshold and that
    can actually be split (depth cap and machine bisectability), as
    ``{label: index}``."""
    ok = ds.store.planes(ds.cells)[2] & (counts > threshold)
    labels = ds.labels
    return {a: i for i in np.flatnonzero(ok).tolist()
            if (a := labels[i]).bit_length() <= max_depth}


def apply_splits(ds: TaggedDataset, split: SplitCells,
                 pool: Executor | None = None) -> TaggedDataset:
    """Split the chosen working cells, move their points to the child on
    their side, and count the points per new cell.

    ``split`` holds any subset of the cells :func:`cells_to_split`
    returns.  A chosen cell with label ``a`` becomes its left child
    ``2a`` and right child ``2a + 1``, in its place in the cell order;
    the other cells stay as they are.  A point below the plane
    (coordinate < mid) goes left, a point at or above it right.  The
    children join the store in one batch, with their counts.

    Each shard takes one step, mapped over the shards by ``pool``: a
    point of cell ``c`` (its tag through ``ds.remap``) is retagged
    ``first[c] + side``, its new cell's index or past the end if
    parked.  A point of a cell not split compares against ``+inf``, so
    its side is 0 (points are finite).  A shard steps through its rows
    in blocks of ``STEP_BLOCK``, which bounds the per-point temporaries.
    A shard whose working points fall below half of its rows drops its
    parked points.
    """
    if not split:
        return ds
    k = len(ds.cells)
    chosen = np.zeros(k + 1, dtype=bool)  # the last entry: parked
    chosen[list(split.values())] = True
    rows = np.flatnonzero(chosen)
    width = chosen + 1
    first = np.cumsum(width) - width  # the parked entry gets the new cell count
    cells = int(first[k])
    axis, mid = np.zeros(k + 1, dtype=np.intp), np.full(k + 1, np.inf)
    axis[rows], mid[rows], _ = ds.store.planes(ds.cells[rows])
    tag_first, tag_axis, tag_mid = first[ds.remap], axis[ds.remap], mid[ds.remap]

    def step(shard: Shard) -> Shard:
        tag = np.empty_like(shard.index)
        for s in range(0, len(tag), STEP_BLOCK):
            i, points = shard.index[s:s + STEP_BLOCK], shard.points[s:s + STEP_BLOCK]
            at = np.arange(0, points.size, points.shape[1])  # row starts, then coordinates
            at += tag_axis[i]
            side = points.reshape(-1)[at] >= tag_mid[i]
            np.add(tag_first[i], side, out=tag[s:s + STEP_BLOCK])
        counts = np.bincount(tag, minlength=cells + 1)
        if 2 * counts[cells] > len(tag):
            work = tag < cells
            return Shard(tag[work], shard.points[work], counts[:cells])
        return Shard(tag, shard.points, counts[:cells])

    shards = tuple((map if pool is None else pool.map)(step, ds.shards))
    out = TaggedDataset(ds.store, np.repeat(ds.cells, width[:k]), shards,
                        np.arange(cells + 1))
    counts = count_by_cell(out)
    left = first[rows]
    kid = ds.store.add(ds.cells[rows], counts[left], counts[left + 1])
    out.cells[left] = kid
    out.cells[left + 1] = kid + 1
    return out


def prune(ds: TaggedDataset, keep: np.ndarray) -> TaggedDataset:
    """Retire the working cells where ``keep`` is False, parking their
    points: no point moves, ``remap`` sends the retired cells past the
    end.

    The build retires every cell whose count is at or below the
    threshold: the threshold never changes and counts never grow down
    the tree, so it could not have been split later anyway.  The kept
    cells keep their order.
    """
    if keep.all():
        return ds
    kept = int(np.count_nonzero(keep))
    move = np.append(np.where(keep, np.cumsum(keep) - 1, kept), kept)
    shards = tuple(Shard(s.index, s.points, s.counts[keep]) for s in ds.shards)
    return TaggedDataset(ds.store, ds.cells[keep], shards, move[ds.remap])


@dataclass(frozen=True)
class IterationStats:
    """Per-iteration bookkeeping of one threshold build."""

    split_cells: int
    working_points: int
    passed_points: int
    nonempty_cells: int


@dataclass(frozen=True)
class BuildResult:
    """Outcome of a threshold build: the cells it created plus diagnostics.

    ``cells`` holds the root and both children of every split cell, with
    their counts; its ids rise with their labels.  ``path`` is the SEB
    chain's path from the root to the threshold, read off the cells.
    """

    cells: CellStore
    iterations: int
    threshold: float
    stats: tuple[IterationStats, ...] = field(default=(), repr=False)

    @cached_property
    def path(self) -> PqmcPath:
        """The whole SEB path from the root state: the ids of the split
        cells in the chain's pop order, ascending ``(-count, label)``, a
        stable sort of the ids, which rise with the labels, by count.  No
        splittable cell is left above the threshold, so the threshold
        stands for the next pop."""
        cells = self.cells
        split = np.flatnonzero(np.frombuffer(cells.kid, np.int64))
        rows = split[np.argsort(-np.frombuffer(cells.count, np.int64)[split], kind="stable")]
        return PqmcPath(State(cells, [ROOT]), cells, rows, self.threshold, None,
                        self.threshold, _first_tie(cells, rows))


def build_threshold_tree(table: CellTable, threshold: float, max_depth: int = 1000,
                         shard_count: int = 1, workers: int = 1) -> BuildResult:
    """Split every cell with count above the threshold, per iteration,
    until none is left.

    The build starts from the root cell of ``table``, the run's checked
    points, in a store of its own.  Its cells form the unique tree in
    which every leaf has count at or below the threshold; it equals the
    terminal state of the sequential SEB chain
    (:func:`~rphist.pqmc.run_pqmc`) over the same table to the same
    threshold and ``max_depth``, whose path is
    :attr:`BuildResult.path`.  An over-threshold cell that cannot be
    split (depth cap or machine precision) stays a leaf, as in the
    sequential chain.  With several
    workers and shards, one thread pool maps the shards of every step,
    one map per iteration.
    """
    ds = TaggedDataset.from_table(table, shard_count)
    stats: list[IterationStats] = []
    passed = 0
    threads = workers > 1 and shard_count > 1
    with (ThreadPoolExecutor(workers) if threads else nullcontext()) as pool:
        counts = count_by_cell(ds)
        while True:
            keep = counts > threshold
            passed += int(counts[~keep].sum())
            ds, counts = prune(ds, keep), counts[keep]
            split = cells_to_split(ds, counts, threshold, max_depth)
            if not split:
                break
            ds = apply_splits(ds, split, pool)
            counts = np.frombuffer(ds.store.count, np.int64)[ds.cells]
            stats.append(IterationStats(
                split_cells=len(split),
                working_points=int(counts.sum()),
                passed_points=passed,
                nonempty_cells=int(np.count_nonzero(counts)),
            ))
    return BuildResult(ds.store, len(stats), float(threshold), tuple(stats))


def assemble_srp(cells: CellStore) -> State:
    """The terminal state of a finished build: the root with every split
    cell of ``cells`` split, in id order, which puts each parent before
    its children.

    The store holds the root and both children of every split cell,
    each with its count; a side that received no points has count 0.
    """
    return State(cells, [ROOT], np.flatnonzero(np.frombuffer(cells.kid, np.int64)))


def reconstruct_path(root: PqmcPath, launch: State | None = None) -> PqmcPath:
    """The SEB path from ``launch`` to the threshold of ``root``, read off
    ``root``: the whole SEB path from the root state, a root build's
    :attr:`BuildResult.path` or :func:`~rphist.pqmc.run_pqmc`'s.

    Counts never increase down the tree, so the cells with count above
    the threshold form a subtree from the root that every chain splits,
    whatever its launch state.  The chain from ``launch`` (the root state
    when omitted) therefore splits the cells of ``root`` that are not
    internal in ``launch``, the proper prefixes of its leaf labels, each
    found in the store by its label, in the order of ``root``, ties
    included, and stops as ``root`` does; a call finds its first tied pop
    over those rows.  The path's launch leaves stay cells of the launch
    state's store (:meth:`~rphist.pqmc.State.relaunched`).  The path to
    a higher threshold or under a leaf budget is cut from this one
    (:func:`truncate_path`).  A ``root`` with a leaf budget or from
    another state, or a ``launch`` of other data, raises ValueError.
    """
    cells = root.splits
    if root.max_leaves is not None or root.initial.leaf_count != 1:
        raise ValueError("need a whole path from the root with no leaf budget")
    launch = root.initial if launch is None else launch.relaunched()
    if launch.root_box != cells.root_box or launch.n != cells.n:
        raise ValueError("launch state and root path hold different data")
    split = [cells.find(v) for v in
             {v >> k for v in launch.leaves.labels for k in range(1, v.bit_length())}]
    rows = root.rows[~np.isin(root.rows, split)]
    return PqmcPath(launch, cells, rows, root.threshold, None, root.top,
                    _first_tie(cells, rows))


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
    return PqmcPath(whole.initial, whole.splits, whole.rows[:keep], threshold, max_leaves,
                    top, min(whole.first_tie, keep))
