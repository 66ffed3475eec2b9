"""Data-parallel count-threshold splitting over sharded tagged points.

The working representation is the tagged dataset: a list of working
cells, each with its label and bounds, and the points, spread over
shards that never exchange points, each tagged with a cell index.  One
iteration retires every cell whose count is at or below the threshold
("pruning") and splits the others; one shard-local step per shard then
moves each point to the child on its side of the splitting hyperplane
and counts the points per new cell (a ``bincount``; the shards' counts
are merged by adding the arrays).  Counts never grow down the tree, so
a retired cell could not have been split later.  Its points are parked,
not copied out: its index maps past the last working cell, so a
point's new tag is one gather, ``first[i] + side``, and a shard drops
its parked points only once its working points fall below half of its
rows.  A child's bounds come from its parent's, so only the root cell
is located from its label, and the counts of every node are known as
the loop goes: the terminal SRP is their table.

This is the SEB chain, whose priority is a cell's count.  Its terminal
tree only depends on the threshold, not on the order in which cells are
split, so the result coincides with the tree the sequential chain
reaches when run to the same threshold.  The sequential path itself is
a sort: a parent's count is no smaller and its label is smaller than
its children's, so a chain that pops the largest count, ties towards
the lowest label, splits the cells in ascending ``(-count, label)``
order (:func:`reconstruct_path`).

One build from the root serves every tributary: the cells with count
above a threshold are the same whatever the launch state, and fewer for
a higher threshold.  So a single build at the lowest threshold of a run
is sorted once into arrays (:attr:`BuildResult.seb_order`), and the
path from each launch state is the rows of that order that the launch
state has not split, instead of a rebuild or a sort per tributary.  The
chain pops in non-increasing count order, so the path to a higher
threshold or under a leaf budget is a prefix of the path to a lower one
(:func:`truncate_path`), whether read off a build or run sequentially.
"""
from __future__ import annotations

from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import Box, split_plane
from .pqmc import PqmcConfig, PqmcPath
from .srp import SRP
from .tree import ROOT, RPTree, cell_bounds

SplitCells = dict[int, int]  # label -> index of a working cell to split


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

    Cell ``i`` has label ``labels[i]`` (a Python int of any size) and
    bounds ``lo[i]``, ``hi[i]``.  A point tagged ``t`` lies in working
    cell ``remap[t]``; ``remap[t] == len(labels)`` parks it: its cell has
    retired.  ``remap`` is the identity right after a split step.
    """

    labels: list[int]
    lo: np.ndarray
    hi: np.ndarray
    shards: tuple[Shard, ...]
    remap: np.ndarray

    @classmethod
    def from_points(cls, points, root_box: Box, shard_count: int = 1) -> "TaggedDataset":
        """Tag every point with the root cell and cut into shards.

        Shards are contiguous row ranges; the assignment never changes
        afterwards.
        """
        points = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=float)))
        if points.size == 0:
            points = points.reshape(0, root_box.dim)
        if shard_count < 1:
            raise ValueError("need at least one shard")
        root = cell_bounds(root_box, [ROOT])
        shards = tuple(Shard(np.zeros(len(rows), dtype=np.intp), rows, np.array([len(rows)]))
                       for rows in np.array_split(points, shard_count))
        return cls([ROOT], root.lo, root.hi, shards, np.arange(2))


def count_by_cell(ds: TaggedDataset) -> np.ndarray:
    """Exact point count of every working cell, in cell order: the
    shards' counts merged by addition.

    Addition is associative and commutative, so the counts do not
    depend on the shard count or merge order.
    """
    return np.sum([s.counts for s in ds.shards], axis=0)


def cells_to_split(ds: TaggedDataset, counts: np.ndarray, threshold: float,
                   cfg: PqmcConfig) -> SplitCells:
    """Working cells whose count strictly exceeds the threshold and that
    can actually be split (depth cap and machine bisectability), as
    ``{label: index}``."""
    ok = split_plane(ds.lo, ds.hi)[2] & (counts > threshold)
    limit = 1 << cfg.max_depth  # a label below it is above the depth cap
    return {a: i for i in np.flatnonzero(ok).tolist() if (a := ds.labels[i]) < limit}


def apply_splits(ds: TaggedDataset, split: SplitCells,
                 pool: Executor | None = None) -> TaggedDataset:
    """Split the chosen working cells, move their points to the child on
    their side, and count the points per new cell.

    ``split`` holds any subset of the cells :func:`cells_to_split`
    returns.  A chosen cell with label ``a`` becomes its left child
    ``2a`` and right child ``2a + 1``, in its place in the cell order;
    the other cells stay as they are.  A point below the plane
    (coordinate < mid) goes left, a point at or above it right.  Each
    child's bounds are its parent's with one end moved to the plane.

    Each shard takes one step, mapped over the shards by ``pool``: a
    point of cell ``c`` (its tag through ``ds.remap``) is retagged
    ``first[c] + side``, its new cell's index or past the end if
    parked.  A point of a cell not split compares against ``+inf``, so
    its side is 0 (points are finite).  A shard whose working points
    fall below half of its rows drops its parked points.
    """
    if not split:
        return ds
    k = len(ds.labels)
    axis, mid, _ = split_plane(ds.lo, ds.hi)
    chosen = np.zeros(k + 1, dtype=bool)  # the last entry: parked
    chosen[list(split.values())] = True
    width = chosen + 1
    first = np.cumsum(width) - width  # the parked entry gets the new cell count
    cells = int(first[k])
    tag_first = first[ds.remap]
    tag_axis = np.append(axis, 0)[ds.remap]
    tag_mid = np.where(chosen, np.append(mid, 0.0), np.inf)[ds.remap]

    def step(shard: Shard) -> Shard:
        i, points = shard.index, shard.points
        at = np.arange(0, points.size, points.shape[1])  # row starts, then coordinates
        at += tag_axis[i]
        side = points.reshape(-1)[at] >= tag_mid[i]
        del at
        tag = tag_first[i]
        tag += side
        counts = np.bincount(tag, minlength=cells + 1)
        if 2 * counts[cells] > len(tag):
            work = tag < cells
            tag, points = tag[work], points[work]
        return Shard(tag, points, counts[:cells])

    rows = np.flatnonzero(chosen)
    lo = np.repeat(ds.lo, width[:k], axis=0)
    hi = np.repeat(ds.hi, width[:k], axis=0)
    hi[first[rows], axis[rows]] = mid[rows]
    lo[first[rows] + 1, axis[rows]] = mid[rows]
    labels = [child for a, two in zip(ds.labels, chosen.tolist())
              for child in ((2 * a, 2 * a + 1) if two else (a,))]
    shards = tuple((map if pool is None else pool.map)(step, ds.shards))
    return TaggedDataset(labels, lo, hi, shards, np.arange(cells + 1))


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
    labels = [a for a, k in zip(ds.labels, keep.tolist()) if k]
    shards = tuple(Shard(s.index, s.points, s.counts[keep]) for s in ds.shards)
    return TaggedDataset(labels, ds.lo[keep], ds.hi[keep], shards, move[ds.remap])


@dataclass(frozen=True)
class IterationStats:
    """Per-iteration bookkeeping of one threshold build."""

    split_cells: int
    working_points: int
    passed_points: int
    nonempty_cells: int


@dataclass(frozen=True, eq=False)
class SebOrder:
    """A root build's internal nodes in ascending ``(-count, label)``
    order, the order the SEB chain pops them in, as a
    :class:`~rphist.pqmc.SplitTable`.

    Row ``r`` splits the cell ``labels[r]``, of count ``count[r]``, into
    children of counts ``left[r]`` and ``right[r]``; ``parent[r]`` is the
    row of its parent, ``len(labels)`` for the root.  ``row`` maps a label
    to its row.  The labels are one Python list, as they can pass 2**63.
    """

    labels: list[int]
    count: np.ndarray
    left: np.ndarray
    right: np.ndarray
    parent: np.ndarray
    row: dict[int, int]

    def split_counts(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The children's counts of the splits at ``rows``."""
        return self.left[rows], self.right[rows]


@dataclass(frozen=True)
class BuildResult:
    """Outcome of a threshold build: the terminal SRP plus diagnostics."""

    final_srp: SRP
    iterations: int
    threshold: float
    stats: tuple[IterationStats, ...] = field(default=(), repr=False)

    @cached_property
    def seb_order(self) -> SebOrder:
        """The final SRP's internal nodes in the SEB chain's pop order."""
        internal = self.final_srp.tree.internal()  # ascending labels: the sort is stable
        counts = self.final_srp.counts
        left = np.array([counts[2 * p] for p in internal], dtype=np.int64)
        right = np.array([counts[2 * p + 1] for p in internal], dtype=np.int64)
        order = np.argsort(-(left + right), kind="stable")
        labels = [internal[i] for i in order.tolist()]
        row = {p: r for r, p in enumerate(labels)}
        parent = np.array([row.get(p >> 1, len(labels)) for p in labels], dtype=np.intp)
        left, right = left[order], right[order]
        return SebOrder(labels, left + right, left, right, parent, row)


def build_threshold_tree(points, root_box: Box, threshold: float, cfg: PqmcConfig,
                         shard_count: int = 1, workers: int = 1) -> BuildResult:
    """Split every cell with count above the threshold, per iteration,
    until none is left.

    The build starts from the root cell.  The returned SRP is the unique
    tree in which every leaf has count at or below the threshold; it
    equals the terminal state of the sequential SEB chain run from the
    root with ``max_psi = threshold`` and no leaf budget, and
    :func:`reconstruct_path` derives from it the path from any launch
    state to any threshold at or above this one.  An over-threshold
    cell that cannot be split (depth cap or machine precision) stays a
    leaf, as in the sequential chain.  With several workers and shards,
    one thread pool maps the shards of every step, one map per
    iteration.
    """
    ds = TaggedDataset.from_points(points, root_box, shard_count)
    node_counts: dict[int, int] = {}
    stats: list[IterationStats] = []
    passed = 0
    threads = workers > 1 and shard_count > 1
    with (ThreadPoolExecutor(workers) if threads else nullcontext()) as pool:
        counts = count_by_cell(ds)
        while True:
            node_counts.update(zip(ds.labels, counts.tolist()))
            keep = counts > threshold
            passed += int(counts[~keep].sum())
            ds, counts = prune(ds, keep), counts[keep]
            split = cells_to_split(ds, counts, threshold, cfg)
            if not split:
                break
            ds = apply_splits(ds, split, pool)
            counts = count_by_cell(ds)
            stats.append(IterationStats(
                split_cells=len(split),
                working_points=int(counts.sum()),
                passed_points=passed,
                nonempty_cells=int(np.count_nonzero(counts)),
            ))
    final = assemble_srp(root_box, node_counts)
    return BuildResult(final, len(stats), float(threshold), tuple(stats))


def assemble_srp(root_box: Box, node_counts: dict[int, int]) -> SRP:
    """SRP from the node-count table of a finished build.

    The table holds the root and both children of every split cell,
    each with its count; a side that received no points has count 0.
    """
    return SRP(RPTree(root_box, frozenset(node_counts)), node_counts, node_counts[ROOT])


def reconstruct_path(base: BuildResult, launch: SRP | None = None) -> PqmcPath:
    """The sequential SEB path from ``launch`` to the threshold of
    ``base``, a root build, read off that build.

    Counts never increase down the tree, so the cells with count above
    the threshold form a subtree from the root that every chain splits,
    whatever its launch state.  The chain from ``launch`` (the root SRP
    when omitted) therefore splits every internal node of ``base`` that
    is not internal in ``launch``.  It splits them in ascending
    ``(-count, label)`` order, which is the order the chain pops them
    in, ties included; the child counts come from ``base``.  The base
    build is sorted once (:attr:`BuildResult.seb_order`), so the path is
    the rows of that order left by a mask of the nodes internal in
    ``launch``, and a call finds its first tied pop over those rows.
    The threshold of ``base`` stands for the priority of the next pop:
    it decides every flag as that priority would, except that the path
    reports ``max_psi`` where the chain reports ``exhausted`` (every
    non-empty leaf left is at the depth cap or cannot be bisected).  The
    path to a higher threshold or under a leaf budget is cut from this
    one (:func:`truncate_path`).

    Raises
    ------
    ValueError
        If ``launch`` holds other data than ``base``.
    """
    src = base.final_srp
    if launch is None:
        launch = SRP(RPTree(src.tree.root_box), {ROOT: src.n}, src.n)
    if launch.tree.root_box != src.tree.root_box or launch.n != src.n:
        raise ValueError("launch state and base build hold different data")
    order = base.seb_order
    nodes = launch.tree.nodes
    keep = np.ones(len(order.labels), dtype=bool)
    keep[[r for v in nodes if 2 * v in nodes and (r := order.row.get(v)) is not None]] = False
    rows = np.flatnonzero(keep)
    return PqmcPath(launch, order, rows, base.threshold, None, base.threshold,
                    _first_tie(order, rows))


def _first_tie(order: SebOrder, rows: np.ndarray) -> int:
    """Step of the first tied pop of the whole SEB path through ``rows``
    of ``order``, or ``len(rows)``.

    The pop at step ``i`` is tied when a later pop of the same count is
    already a leaf then: a leaf of the launch state (its parent is not
    on the path), or a child of a cell split before step ``i``.  Pops of
    equal count are adjacent, so this is a suffix minimum, over each run
    of equal count, of the step from which each cell is a leaf.
    """
    m = len(rows)
    if m < 2:
        return m
    step = np.full(len(order.labels) + 1, -1)
    step[rows] = np.arange(m)
    ready = step[order.parent[rows]] + 1  # the step from which the cell is a leaf
    count = order.count[rows]
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
    that of ``whole``, and its pops tie as in ``whole``.  A lower
    threshold or another budget than ``whole`` ran under raises
    ValueError.
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
    return PqmcPath(whole.initial, whole.splits, whole.rows[:keep], threshold, max_leaves,
                    top, min(whole.first_tie, keep))
