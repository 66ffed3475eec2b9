"""Data-parallel count-threshold splitting over sharded tagged points.

The working representation is the tagged dataset: every point is paired
with the integer label of the cell it currently lies in, and the pairs
are spread over shards that never exchange points.  One iteration
counts points per cell (a per-shard reduce merged by addition), picks
every cell whose count exceeds the threshold, and retags the points of
those cells to the child cell on their side of the splitting hyperplane
(a purely shard-local map).  Cells at or below the threshold are
retired together with their counts ("pruning"): counts never grow down
the tree, so they could not be split later, and the working set shrinks
without changing the result.

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
yields the path from each launch state for each threshold instead of
rebuilding per tributary.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box
from .pqmc import PqmcConfig, PqmcPath, SplitRecord, splittable_leaves
from .srp import SRP
from .tree import ROOT, RPTree, cell_bounds, depth

CountTable = dict[int, int]
SplitPlanes = dict[int, tuple[int, float]]

# labels above this need more than 63 bits in the child generation
_INT64_SAFE_MAX = 2**61


@dataclass(frozen=True)
class Shard:
    """One shard of tagged points: parallel arrays of labels and rows."""

    labels: np.ndarray
    points: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class TaggedDataset:
    """Sharded (cell label, point) pairs: the tree stored implicitly."""

    shards: tuple[Shard, ...]
    root_box: Box

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
        labels = np.full(len(points), ROOT, dtype=np.int64)
        shards = []
        for rows in np.array_split(np.arange(len(points)), shard_count):
            shards.append(Shard(labels[rows].copy(), points[rows].copy()))
        return cls(tuple(shards), root_box)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def total_points(self) -> int:
        return sum(len(s) for s in self.shards)


def _shard_counts(shard: Shard) -> CountTable:
    if len(shard) == 0:
        return {}
    labels, counts = np.unique(shard.labels, return_counts=True)
    return {int(a): int(c) for a, c in zip(labels, counts)}


def count_by_cell(ds: TaggedDataset, workers: int = 1) -> CountTable:
    """Exact per-cell multiplicities: per-shard tables merged by addition.

    Addition is associative and commutative, so the merged table does
    not depend on the shard count or merge order; only non-empty cells
    appear as keys.
    """
    partials = _map_shards(_shard_counts, ds.shards, workers)
    table: CountTable = {}
    for part in partials:
        for label, c in part.items():
            table[label] = table.get(label, 0) + c
    return table


def _map_shards(fn, shards, workers: int):
    if workers > 1 and len(shards) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, shards))
    return [fn(shard) for shard in shards]


def cells_to_split(c: CountTable, root_box: Box, threshold: float,
                   cfg: PqmcConfig) -> SplitPlanes:
    """Cells whose count strictly exceeds the threshold and that can
    actually be split (depth cap and machine bisectability), each with
    its split plane ``(axis, mid)``."""
    labels = [label for label, count in c.items()
              if count > threshold and depth(label) < cfg.max_depth]
    cells = cell_bounds(root_box, labels)
    return {label: (axis, mid) for label, axis, mid, ok in
            zip(labels, cells.axis.tolist(), cells.mid.tolist(),
                cells.splittable.tolist()) if ok}


def apply_splits(ds: TaggedDataset, planes: SplitPlanes,
                 workers: int = 1) -> TaggedDataset:
    """Retag the points of every split cell to the child on their side.

    ``planes`` maps each cell to split to its plane ``(axis, mid)``, as
    :func:`cells_to_split` returns them.  A point below the plane
    (coordinate < mid) goes to the left child ``2a``; a point at or
    above it goes to the right child ``2a + 1``.  Purely shard-local;
    other pairs are unchanged.
    """
    if not planes:
        return ds
    widen = max(planes) > _INT64_SAFE_MAX

    def retag(shard: Shard) -> Shard:
        labels = shard.labels
        if len(labels) == 0:
            return shard
        if widen and labels.dtype != object:
            labels = labels.astype(object)
        uniq, inv = np.unique(labels, return_inverse=True)
        axis_u = np.full(len(uniq), -1, dtype=np.int64)
        mid_u = np.zeros(len(uniq))
        for i, label in enumerate(uniq):
            plane = planes.get(int(label))
            if plane is not None:
                axis_u[i], mid_u[i] = plane
        rows = np.nonzero(axis_u[inv] >= 0)[0]
        if len(rows) == 0:
            return Shard(labels, shard.points)
        ax = axis_u[inv[rows]]
        md = mid_u[inv[rows]]
        side = shard.points[rows, ax] >= md
        new_labels = labels.copy()
        new_labels[rows] = 2 * labels[rows] + side
        return Shard(new_labels, shard.points)

    return TaggedDataset(tuple(_map_shards(retag, ds.shards, workers)), ds.root_box)


def prune(ds: TaggedDataset, c: CountTable, threshold: float,
          passed: CountTable, workers: int = 1) -> tuple[TaggedDataset, CountTable]:
    """Retire every cell whose count is at or below the threshold.

    The retired cells' pairs are deleted from the working dataset and
    their counts move into ``passed``; the threshold never changes and
    counts never grow down the tree, so they could not have been split
    later anyway.  Working plus passed counts always conserve the total.
    """
    done = set()
    new_passed = dict(passed)
    for label, count in c.items():
        if count <= threshold:
            done.add(label)
            new_passed[label] = new_passed.get(label, 0) + count
    if not done:
        return ds, new_passed

    def drop(shard: Shard) -> Shard:
        if len(shard) == 0:
            return shard
        keep = ~np.isin(shard.labels, list(done))
        return Shard(shard.labels[keep], shard.points[keep])

    shards = tuple(_map_shards(drop, ds.shards, workers))
    return TaggedDataset(shards, ds.root_box), new_passed


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
    passed_counts: CountTable
    iterations: int
    threshold: float
    stats: tuple[IterationStats, ...] = field(default=(), repr=False)


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
    leaf, as in the sequential chain.
    """
    ds = TaggedDataset.from_points(points, root_box, shard_count)
    passed: CountTable = {}
    stats: list[IterationStats] = []
    table = count_by_cell(ds, workers)
    while planes := cells_to_split(table, root_box, threshold, cfg):
        ds, passed = prune(ds, table, threshold, passed, workers)
        ds = apply_splits(ds, planes, workers)
        table = count_by_cell(ds, workers)
        stats.append(IterationStats(
            split_cells=len(planes),
            working_points=sum(table.values()),
            passed_points=sum(passed.values()),
            nonempty_cells=len(table),
        ))
    leaf_counts = dict(passed)
    leaf_counts.update(table)
    final = assemble_srp(root_box, leaf_counts)
    return BuildResult(final, passed, len(stats), float(threshold), tuple(stats))


def assemble_srp(root_box: Box, leaf_counts: CountTable) -> SRP:
    """SRP from the non-empty leaf cells of a finished build.

    Ancestors get the sum of their children's counts; a split side that
    received no points is materialized as a count-0 leaf.
    """
    nodes: set[int] = {ROOT}
    counts: CountTable = {}
    for label, c in leaf_counts.items():
        counts[label] = counts.get(label, 0) + c
        node = label
        while node not in nodes:
            nodes.add(node)
            node >>= 1
    for node in list(nodes):
        if node > ROOT:
            sibling = node ^ 1
            nodes.add(sibling)
    for node in sorted(nodes, key=lambda v: -v.bit_length()):
        if 2 * node in nodes:
            counts[node] = counts.get(2 * node, 0) + counts.get(2 * node + 1, 0)
        else:
            counts.setdefault(node, 0)
    n = counts.get(ROOT, 0)
    return SRP(RPTree(root_box, frozenset(nodes)), counts, n)


def reconstruct_path(base: BuildResult, launch: SRP | None = None,
                     threshold: float | None = None) -> PqmcPath:
    """The sequential SEB path from ``launch`` to ``threshold``, read off
    a root build.

    Counts never increase down the tree, so the cells with count above
    ``threshold`` form a subtree from the root that every chain splits,
    whatever its launch state.  The chain from ``launch`` (the root SRP
    when omitted) therefore splits every internal node of ``base`` (a
    root build at a threshold no higher than ``threshold``, its own when
    omitted) that has count above ``threshold`` and is not internal in
    ``launch``.  It splits them in ascending ``(-count, label)`` order,
    which is the order the chain pops them in, ties included; the child
    counts come from ``base``.  ``path.states()`` materializes every
    state.

    Raises
    ------
    ValueError
        If ``threshold`` is below the base build's threshold, or
        ``launch`` holds other data than ``base``.
    """
    src = base.final_srp
    if threshold is None:
        threshold = base.threshold
    if threshold < base.threshold:
        raise ValueError(f"threshold {threshold} is below the base build's "
                         f"{base.threshold}")
    if launch is None:
        launch = SRP(RPTree(src.tree.root_box), {ROOT: src.n}, src.n)
    if launch.tree.root_box != src.tree.root_box or launch.n != src.n:
        raise ValueError("launch state and base build hold different data")
    counts = src.counts
    frozen = set(launch.tree.internal())
    split = sorted((p for p in src.tree.internal()
                    if counts[p] > threshold and p not in frozen),
                   key=lambda p: (-counts[p], p))
    records = tuple(SplitRecord(p, counts[2 * p], counts[2 * p + 1])
                    for p in split)
    return PqmcPath(launch, records, "max_psi", True,
                    _first_tie(launch, records) < len(records))


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


def truncate_path(path: PqmcPath, max_leaves: int | None, threshold: float,
                  cfg: PqmcConfig) -> PqmcPath:
    """Cut a whole SEB path at a leaf budget and re-derive its flags.

    Mirrors the sequential stopping rule: the chain would have halted on
    reaching ``max_leaves`` leaves, successful only if no splittable
    leaf with count above the threshold remains at that point and the
    launch state was within the budget, and tied only if one of the kept
    pops was.
    """
    m0 = path.initial.leaf_count
    if max_leaves is None or m0 + path.split_count <= max_leaves:
        return path
    keep = max(0, max_leaves - m0)
    kept = PqmcPath(path.initial, path.records[:keep], "max_leaves", False,
                    path.had_ties and _first_tie(path.initial, path.records) < keep)
    kept.success = m0 <= max_leaves and all(
        kept.final.counts.get(v, 0) <= threshold
        for v in splittable_leaves(kept.final, cfg))
    return kept
