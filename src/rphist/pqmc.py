"""Priority-queued splitting chains over statistical regular pavings.

A chain starts from an SRP and repeatedly splits the splittable leaf of
largest priority until it runs out of splittable leaves, reaches a leaf
budget, or the largest priority drops to the stopping threshold.  Two
priorities are provided:

* ``SEB`` (statistically equivalent blocks): the leaf's point count.
  Splitting the fullest cells drives all cells towards equal counts.
* ``SPC`` (support carving): ``(1 - count/n) * volume``.  Splitting
  large, nearly empty cells carves away the void around the data
  support, complementing SEB.

A carving run followed by SEB chains launched from states spread along
the carve path ("tributaries") yields the candidate states that the
smoothing stage scores.  A chain keeps each leaf's points and priority;
the bounds and split planes of new leaves are found in one batch when
one of them first reaches the top of the queue.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import DEFAULT_PAD, Box, bounding_box, split_plane, volume_at_depth
from .srp import SRP, assign_leaves, ingest
from .tree import RPTree, cell_bounds, depth

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


@dataclass
class PqmcPath:
    """A chain sample path, stored as the initial SRP plus split records.

    ``states()`` materializes every intermediate SRP; ``state(t)``
    materializes a single one.  The compact form keeps long paths cheap:
    consecutive states differ by exactly one split.
    """

    initial: SRP
    records: tuple[SplitRecord, ...]
    stop_reason: str
    success: bool
    had_ties: bool

    def __len__(self) -> int:
        return len(self.records) + 1

    @property
    def split_count(self) -> int:
        return len(self.records)

    def state(self, t: int) -> SRP:
        if not 0 <= t < len(self):
            raise IndexError(f"state {t} of a path of length {len(self)}")
        nodes = set(self.initial.tree.nodes)
        counts = dict(self.initial.counts)
        for rec in self.records[:t]:
            left, right = 2 * rec.label, 2 * rec.label + 1
            nodes.add(left)
            nodes.add(right)
            counts[left] = rec.left_count
            counts[right] = rec.right_count
        return SRP(RPTree(self.initial.tree.root_box, frozenset(nodes)), counts, self.initial.n)

    @cached_property
    def final(self) -> SRP:
        return self.state(len(self) - 1)

    def states(self) -> list[SRP]:
        return [self.state(t) for t in range(len(self))]


def splittable_leaves(s: SRP, cfg: PqmcConfig) -> set[int]:
    """Leaves that the chain may split: non-empty, within the depth cap,
    and bisectable in machine arithmetic."""
    labels = [v for v in s.nonempty_leaves() if depth(v) < cfg.max_depth]
    splittable = cell_bounds(s.tree.root_box, labels).splittable.tolist()
    return {v for v, ok in zip(labels, splittable) if ok}


class _LeafPool:
    """Working state of one chain run: the point indices of every leaf the
    chain may still split, and a heap of ``(-priority, label)`` keys, so
    the top is the largest priority with ties towards the lowest label.

    A leaf enters the heap with its points and priority alone.  Its bounds
    and split plane are found when a leaf without them first reaches the
    top: one :func:`split_plane` call then covers every leaf admitted
    since the last one, each child's bounds written from its parent's.
    A leaf that cannot be bisected is dropped when it reaches the top, so
    :meth:`max_priority` and the tie check after a pop see the heap of
    the splittable leaves alone.
    """

    def __init__(self, s0: SRP, points: np.ndarray, priority: Priority, cfg: PqmcConfig):
        self.points = points
        self.priority = priority
        self.cfg = cfg
        self.n = s0.n
        self.root_volume = s0.tree.root_box.volume
        # label -> [point indices], extended by [lo | hi, axis, mid, splittable]
        # once planed, for every leaf in the heap
        self.leaves: dict[int, list] = {}
        self.pending: list[tuple] = []  # (leaf, side, parent's lo | hi, axis, mid)
        self.heap: list[tuple[float, int]] = []
        self.leaf_count = s0.leaf_count
        assignment = assign_leaves(s0.tree, points)
        for label, idx in assignment.items():
            if len(idx) != s0.counts.get(label, 0):
                raise ValueError(
                    f"initial SRP count at leaf {label} does not match the data"
                )
        labels = [v for v, idx in assignment.items() if self._admit(v, idx) is not None]
        lo, hi, *plane = cell_bounds(s0.tree.root_box, labels)
        self._set_planes([self.leaves[v] for v in labels], np.hstack([lo, hi]), *plane)

    def _psi(self, count: int, label: int) -> float:
        vol = 0.0
        if self.priority.kind == SPC:  # SEB ignores the volume
            vol = volume_at_depth(self.root_volume, depth(label))
        return self.priority.value(count, vol, self.n)

    def _admit(self, label: int, idx: np.ndarray) -> list | None:
        if len(idx) == 0 or depth(label) >= self.cfg.max_depth:
            return None
        leaf = self.leaves[label] = [idx]
        heapq.heappush(self.heap, (-self._psi(len(idx), label), label))
        return leaf

    @staticmethod
    def _set_planes(leaves, bounds, axis, mid, splittable) -> None:
        for leaf, *plane in zip(leaves, bounds, axis.tolist(), mid.tolist(),
                                splittable.tolist()):
            leaf += plane

    def _plan_pending(self) -> None:
        """Bounds and split planes of every leaf admitted since the last
        call: a left child's upper bound on its parent's split coordinate
        moves to the parent's midpoint, a right child's lower bound."""
        leaves, side, bounds, axis, mid = zip(*self.pending)
        self.pending = []
        bounds = np.array(bounds)
        d = bounds.shape[1] // 2
        # side 0 (left) moves column d + axis (hi), side 1 column axis (lo)
        bounds[np.arange(len(leaves)), np.array(axis) + d * (1 - np.array(side))] = mid
        self._set_planes(leaves, bounds, *split_plane(bounds[:, :d], bounds[:, d:]))

    def _top(self) -> tuple[float, int] | None:
        """The heap's top key once the top leaf is known to be splittable."""
        while self.heap:
            label = self.heap[0][1]
            leaf = self.leaves[label]
            if len(leaf) == 1:
                self._plan_pending()
            if leaf[4]:
                return self.heap[0]
            heapq.heappop(self.heap)
            del self.leaves[label]
        return None

    def max_priority(self) -> float | None:
        top = self._top()
        return None if top is None else -top[0]

    def pop_argmax(self) -> tuple[int, bool]:
        """Pop the lowest-labelled splittable leaf of maximal priority, once
        :meth:`max_priority` has found one.  Returns (label, tied), tied
        when another splittable leaf has the same priority."""
        key, label = heapq.heappop(self.heap)
        top = self._top()
        return label, top is not None and top[0] == key

    def split(self, label: int) -> SplitRecord:
        idx, bounds, axis, mid, _ = self.leaves.pop(label)
        right = self.points[idx, axis] >= mid
        kids = (idx[~right], idx[right])
        for side, kid in enumerate(kids):
            leaf = self._admit(2 * label + side, kid)
            if leaf is not None:
                self.pending.append((leaf, side, bounds, axis, mid))
        self.leaf_count += 1
        return SplitRecord(label, len(kids[0]), len(kids[1]))


def run_pqmc(s0: SRP, points, priority: Priority, cfg: PqmcConfig) -> PqmcPath:
    """Run one priority-queued splitting chain from ``s0``.

    At every step the splittable leaf with the largest priority is
    split (ties towards the lowest label) until no splittable leaf remains,
    the leaf count reaches ``cfg.max_leaves``, or the largest priority
    is at most ``cfg.max_psi``.  Termination is guaranteed: the leaf
    count strictly increases and splittability is depth-bounded.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) != s0.n:
        raise ValueError(f"SRP holds {s0.n} points but {len(points)} were passed")
    pool = _LeafPool(s0, points, priority, cfg)
    records: list[SplitRecord] = []
    had_ties = False
    stop_reason = "exhausted"
    while True:
        if pool.max_priority() is None:
            stop_reason = "exhausted"
            break
        if cfg.max_leaves is not None and pool.leaf_count >= cfg.max_leaves:
            stop_reason = "max_leaves"
            break
        if cfg.priority_stop_active and pool.max_priority() <= cfg.max_psi:
            stop_reason = "max_psi"
            break
        label, tied = pool.pop_argmax()
        had_ties = had_ties or tied
        records.append(pool.split(label))
    priority_ok = (
        not cfg.priority_stop_active
        or pool.max_priority() is None
        or pool.max_priority() <= cfg.max_psi
    )
    leaves_ok = cfg.max_leaves is None or pool.leaf_count <= cfg.max_leaves
    return PqmcPath(
        initial=s0,
        records=tuple(records),
        stop_reason=stop_reason,
        success=priority_ok and leaves_ok,
        had_ties=had_ties,
    )


def carve_path(points, cfg: PqmcConfig, root_box: Box | None = None,
               pad: float = DEFAULT_PAD) -> PqmcPath:
    """Support-carving chain from the root SRP with a zero threshold.

    Runs the SPC priority until the leaf budget ``cfg.max_leaves`` is
    reached or no splittable leaf remains; ``cfg.max_psi`` must be 0 or
    None (the zero-threshold carve never stops on priority).
    """
    if cfg.max_psi not in (None, 0, 0.0):
        raise ValueError("the carve chain requires max_psi = 0 (or None)")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if root_box is None:
        root_box = bounding_box(points, pad)
    s0 = ingest(RPTree(root_box), points, strict=True)
    return run_pqmc(s0, points, SPC_PRIORITY, cfg)


def launch_states(carve: PqmcPath, c: int) -> list[SRP]:
    """``c`` states spread evenly along a carve path, always including
    the path's first state (the root SRP for a root-started carve).

    If ``c`` is at least the path length, every state is returned.
    """
    if c < 1:
        raise ValueError("need at least one launch state")
    total = len(carve)
    if c >= total:
        return carve.states()
    if c == 1:
        return [carve.state(0)]
    last = total - 1
    steps = sorted({(i * last) // (c - 1) for i in range(c)})
    return [carve.state(t) for t in steps]

