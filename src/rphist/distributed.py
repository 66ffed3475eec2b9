"""Data-parallel count-threshold splitting over sharded tagged points.

The working representation is the tagged dataset: a list of working
cells, each with its label and bounds, and the points, spread over
shards that never exchange points, each tagged with the index of the
working cell it lies in.  One iteration counts points per cell (a
``bincount`` per shard, merged by adding the arrays), retires every
cell whose count is at or below the threshold ("pruning"), and moves
the points of every cell it splits to the child on their side of the
splitting hyperplane (a purely shard-local map).  Counts never grow
down the tree, so a retired cell could not have been split later, and
the working set shrinks without changing the result.  A child's bounds
come from its parent's, so only the root cell is located from its
label, and the counts of every node are known as the loop goes: the
terminal SRP is their table.

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
is sorted once (:attr:`BuildResult.seb_order`), and the path from each
launch state is that order with the launch state's internal nodes
filtered out, instead of a rebuild or a sort per tributary.  The chain
pops in non-increasing count order, so the path to a higher threshold
or under a leaf budget is a prefix of the path to a lower one
(:func:`truncate_path`), whether read off a build or run sequentially.
"""
from __future__ import annotations

from bisect import bisect_left
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import Box, split_plane
from .pqmc import PqmcConfig, PqmcPath, SplitRecord
from .srp import SRP
from .tree import ROOT, RPTree, cell_bounds, depth

SplitCells = dict[int, int]  # label -> index of a working cell to split


@dataclass(frozen=True)
class Shard:
    """One shard of tagged points: each row's working-cell index."""

    index: np.ndarray
    points: np.ndarray


@dataclass(frozen=True)
class TaggedDataset:
    """Working cells and the sharded points that lie in them.

    Cell ``i`` has label ``labels[i]`` (a Python int of any size) and
    bounds ``lo[i]``, ``hi[i]``; a point tagged ``i`` lies in it.
    """

    labels: list[int]
    lo: np.ndarray
    hi: np.ndarray
    shards: tuple[Shard, ...]

    @classmethod
    def from_points(cls, points, root_box: Box, shard_count: int = 1) -> "TaggedDataset":
        """Tag every point with the root cell and cut into shards.

        Shards are contiguous row ranges; the assignment never changes
        afterwards.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.size == 0:
            points = points.reshape(0, root_box.dim)
        if shard_count < 1:
            raise ValueError("need at least one shard")
        root = cell_bounds(root_box, [ROOT])
        shards = tuple(Shard(np.zeros(len(rows), dtype=np.intp), rows)
                       for rows in np.array_split(points, shard_count))
        return cls([ROOT], root.lo, root.hi, shards)


def _map_shards(fn, shards, pool: Executor | None):
    if pool is None:
        return [fn(shard) for shard in shards]
    return list(pool.map(fn, shards))


def count_by_cell(ds: TaggedDataset, pool: Executor | None = None) -> np.ndarray:
    """Exact point count of every working cell, in cell order: one
    ``bincount`` per shard, merged by addition.

    Addition is associative and commutative, so the counts do not
    depend on the shard count or merge order.
    """
    k = len(ds.labels)
    return np.sum(_map_shards(lambda s: np.bincount(s.index, minlength=k),
                              ds.shards, pool), axis=0)


def cells_to_split(ds: TaggedDataset, counts: np.ndarray, threshold: float,
                   cfg: PqmcConfig) -> SplitCells:
    """Working cells whose count strictly exceeds the threshold and that
    can actually be split (depth cap and machine bisectability), as
    ``{label: index}``."""
    ok = split_plane(ds.lo, ds.hi)[2] & (counts > threshold)
    return {ds.labels[i]: i for i in np.flatnonzero(ok).tolist()
            if depth(ds.labels[i]) < cfg.max_depth}


def apply_splits(ds: TaggedDataset, split: SplitCells,
                 pool: Executor | None = None) -> TaggedDataset:
    """Split the chosen working cells and move their points to the
    child on their side.

    ``split`` holds any subset of the cells :func:`cells_to_split`
    returns.  A chosen cell with label ``a`` becomes its left child
    ``2a`` and right child ``2a + 1``, in its place in the cell order;
    the other cells stay as they are.  A point below the plane
    (coordinate < mid) goes left, a point at or above it right.  Each
    child's bounds are its parent's with one end moved to the plane.
    Purely shard-local.
    """
    if not split:
        return ds
    axis, mid, _ = split_plane(ds.lo, ds.hi)
    chosen = np.zeros(len(ds.labels), dtype=bool)
    chosen[list(split.values())] = True
    width = chosen + 1
    first = np.cumsum(width) - width  # new index of the cell or its left child

    def retag(shard: Shard) -> Shard:
        i = shard.index
        side = chosen[i] & (shard.points[np.arange(len(i)), axis[i]] >= mid[i])
        return Shard(first[i] + side, shard.points)

    rows = np.flatnonzero(chosen)
    lo = np.repeat(ds.lo, width, axis=0)
    hi = np.repeat(ds.hi, width, axis=0)
    hi[first[rows], axis[rows]] = mid[rows]
    lo[first[rows] + 1, axis[rows]] = mid[rows]
    labels = [child for a, two in zip(ds.labels, chosen.tolist())
              for child in ((2 * a, 2 * a + 1) if two else (a,))]
    return TaggedDataset(labels, lo, hi, tuple(_map_shards(retag, ds.shards, pool)))


def prune(ds: TaggedDataset, keep: np.ndarray,
          pool: Executor | None = None) -> TaggedDataset:
    """Retire the working cells where ``keep`` is False, with their points.

    The build retires every cell whose count is at or below the
    threshold: the threshold never changes and counts never grow down
    the tree, so it could not have been split later anyway.  The kept
    cells keep their order.
    """
    if keep.all():
        return ds
    index = np.cumsum(keep) - 1

    def drop(shard: Shard) -> Shard:
        mask = keep[shard.index]
        return Shard(index[shard.index[mask]], shard.points[mask])

    labels = [a for a, k in zip(ds.labels, keep.tolist()) if k]
    return TaggedDataset(labels, ds.lo[keep], ds.hi[keep],
                         tuple(_map_shards(drop, ds.shards, pool)))


@dataclass(frozen=True)
class IterationStats:
    """Per-iteration bookkeeping of one threshold build."""

    split_cells: int
    working_points: int
    passed_points: int
    nonempty_cells: int


@dataclass(frozen=True)
class BuildResult:
    """Outcome of a threshold build: the terminal SRP plus diagnostics."""

    final_srp: SRP
    iterations: int
    threshold: float
    stats: tuple[IterationStats, ...] = field(default=(), repr=False)

    @cached_property
    def seb_order(self) -> tuple[SplitRecord, ...]:
        """The final SRP's internal nodes as split records in ascending
        ``(-count, label)`` order, the order the SEB chain pops them in."""
        counts = self.final_srp.counts
        split = sorted(self.final_srp.tree.internal(), key=lambda p: (-counts[p], p))
        return tuple(SplitRecord(p, counts[2 * p], counts[2 * p + 1]) for p in split)


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
    one thread pool maps the shards of every step.
    """
    ds = TaggedDataset.from_points(points, root_box, shard_count)
    node_counts: dict[int, int] = {}
    stats: list[IterationStats] = []
    passed = 0
    threads = workers > 1 and shard_count > 1
    with (ThreadPoolExecutor(workers) if threads else nullcontext()) as pool:
        counts = count_by_cell(ds, pool)
        while True:
            node_counts.update(zip(ds.labels, counts.tolist()))
            keep = counts > threshold
            passed += int(counts[~keep].sum())
            ds, counts = prune(ds, keep, pool), counts[keep]
            split = cells_to_split(ds, counts, threshold, cfg)
            if not split:
                break
            ds = apply_splits(ds, split, pool)
            counts = count_by_cell(ds, pool)
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
    build is sorted once (:attr:`BuildResult.seb_order`), so a call
    drops the nodes internal in ``launch`` from that order and finds
    its first tied pop.  The threshold of ``base`` stands for the
    priority of the next pop: it decides every flag as that priority
    would, except that the path reports ``max_psi`` where the chain
    reports ``exhausted`` (every non-empty leaf left is at the depth
    cap or cannot be bisected).  The path to a higher threshold or
    under a leaf budget is cut from this one (:func:`truncate_path`).

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
    nodes = launch.tree.nodes
    records = tuple(rec for rec in base.seb_order if 2 * rec.label not in nodes)
    return PqmcPath(launch, records, base.threshold, None, base.threshold,
                    _first_tie(launch, records))


def _first_tie(initial: SRP, records) -> int:
    """Step of the first tied pop of a whole SEB path, or ``len(records)``.

    The pop at step ``i`` is tied when a later record of the same count
    is already a leaf then: a leaf of ``initial``, or a child of a cell
    split before step ``i``.  Records of equal count are adjacent.
    """
    step = {rec.label: i for i, rec in enumerate(records)}
    first = len(records)
    count = ready = None  # ready: earliest step a later same-count cell is a leaf
    for i in range(len(records) - 1, -1, -1):
        rec = records[i]
        c = rec.left_count + rec.right_count
        if c != count:
            count, ready = c, len(records)
        elif ready <= i:
            first = i
        v = rec.label
        ready = min(ready, 0 if v in initial.tree.nodes else step[v >> 1] + 1)
    return first


def truncate_path(whole: PqmcPath, threshold: float, max_leaves: int | None) -> PqmcPath:
    """The SEB path to ``threshold`` under the leaf budget ``max_leaves``,
    cut from ``whole``, the SEB path from the same launch state to a
    threshold no higher, under no leaf budget or this one.

    A child's count never exceeds its parent's, so the chain pops in
    non-increasing count order: it takes the pops of ``whole`` with
    count above ``threshold``, as many as the budget leaves room for.
    Its next pop is the first record it does not keep, or that of
    ``whole``, and its pops tie as in ``whole``.  A lower threshold or
    another budget than ``whole`` ran under raises ValueError.
    """
    if whole.threshold is not None and threshold < whole.threshold:
        raise ValueError(f"threshold {threshold} is below the path's {whole.threshold}")
    if whole.max_leaves not in (None, max_leaves):
        raise ValueError(f"leaf budget {max_leaves} differs from the path's {whole.max_leaves}")
    records = whole.records
    keep = bisect_left(records, -threshold, key=lambda r: -(r.left_count + r.right_count))
    if max_leaves is not None:
        keep = min(keep, max(0, max_leaves - whole.initial.leaf_count))
    top = whole.top if keep == len(records) else float(
        records[keep].left_count + records[keep].right_count)
    return PqmcPath(whole.initial, records[:keep], threshold, max_leaves, top,
                    min(whole.first_tie, keep))
