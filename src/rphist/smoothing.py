"""Penalized-likelihood scoring and cross-validated smoothing selection.

Candidate SRP states come from chain paths.  For a smoothing parameter
``tau`` the winning state maximizes ``log_likelihood - leaf_count/tau``
(a MAP estimate under a complexity prior).  The parameter itself is
picked by minimizing Stone's leave-one-out cross-validation score, a
nearly unbiased estimate of the expected L2 loss, which for a fixed
partition has the closed form used in :func:`cv_score`.

A split changes the log-likelihood and the two CV leaf sums by amounts
that depend on the split alone.  A path names its splits by ids in a
:class:`~rphist.pqmc.CellStore` (a root build's cells, or the cell
table a sequential chain ran on), which paths cut from one another and
the tributaries of one build share, and the store holds each split
cell's bounds.  So :func:`select` computes those deltas once per row of
those stores that some path takes (:func:`node_table`), and each path's
per-state profile is a gather from that table plus a cumulative sum
(:func:`path_profile`), in either builder mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCandidateSet, InsufficientData, InvalidTau
from .geometry import bounds_volume, split_plane
from .pqmc import CellStore, PqmcPath
from .srp import SRP, log_likelihood
from .tree import cell_bounds

DEFAULT_TAU_MIN = 0.1
DEFAULT_TAU_MAX = 1e5
DEFAULT_TAU_STEPS = 30


def tau_grid(tau_min: float = DEFAULT_TAU_MIN, tau_max: float = DEFAULT_TAU_MAX,
             steps: int = DEFAULT_TAU_STEPS) -> tuple[float, ...]:
    """Geometric grid of ``steps`` smoothing parameters on ``[tau_min,
    tau_max]``; one step gives ``(tau_min,)``.  The default is 30 points
    on [0.1, 1e5]."""
    return tuple(np.geomspace(tau_min, tau_max, steps))


@dataclass(frozen=True)
class SmoothingConfig:
    """The grid of candidate smoothing parameters (strictly increasing)."""

    tau_grid: tuple[float, ...] = ()

    def __post_init__(self):
        grid = tuple(float(t) for t in self.tau_grid) or tau_grid()
        object.__setattr__(self, "tau_grid", grid)
        if any(t <= 0 for t in self.tau_grid):
            raise InvalidTau("all grid values must be positive")
        if any(a >= b for a, b in zip(self.tau_grid, self.tau_grid[1:])):
            raise ValueError("tau grid must be strictly increasing")


@dataclass(frozen=True)
class CurvePoint:
    """The MAP state at one grid ``tau``: its CV score and leaf count."""

    tau: float
    cv_score: float
    leaf_count: int


@dataclass(frozen=True)
class ScoredEstimate:
    """A selected SRP state with its smoothing diagnostics; ``cv_curve``
    has one point per grid ``tau``."""

    srp: SRP
    tau: float
    penalized_score: float
    cv_score: float
    cv_curve: tuple[CurvePoint, ...]


def penalized_score(s: SRP, tau: float) -> float:
    """``log_likelihood(s) - leaf_count/tau``: the log-posterior up to a
    constant, under the complexity prior with parameter ``tau``."""
    if tau <= 0:
        raise InvalidTau(f"tau must be positive, got {tau}")
    return log_likelihood(s) - s.leaf_count / tau


def cv_score(s: SRP) -> float:
    """Stone's leave-one-out cross-validation score, in closed form.

    With the partition held fixed, leaving out a point only decrements
    its leaf count, so the score reduces to a sum over leaves::

        sum c^2 / (n^2 v)  -  2/(n(n-1)) * sum c (c-1) / v

    Lower is better; for the uniform density on the unit box the score
    is -1.
    """
    if s.n < 2:
        raise InsufficientData("leave-one-out needs at least two points")
    a, b = _leaf_cv_terms(s)
    return _cv_from_terms(a, b, s.n)


def _cv_from_terms(a: float, b: float, n: int) -> float:
    return a / (n * n) - 2.0 * b / (n * (n - 1))


def _leaf_cv_terms(s: SRP) -> tuple[float, float]:
    """(sum c^2/v, sum c(c-1)/v) over the leaves of an SRP."""
    labels = s.nonempty_leaves()
    lo, hi, *_ = cell_bounds(s.tree.root_box, labels)
    a = b = 0.0
    for label, vol in zip(labels, bounds_volume(lo, hi).tolist()):
        c = s.counts[label]
        a += c * c / vol
        b += c * (c - 1) / vol
    return a, b


@dataclass(frozen=True)
class NodeTable:
    """Score deltas of every split of a set of paths, one row per split.

    A split of a cell changes the log-likelihood and the two CV leaf
    sums by amounts that depend on the cell and its two child counts
    alone, so one table serves every path that makes the split.  Each
    of ``log_lik``, ``cv_a`` and ``cv_b`` is ``(N, 3)``: the left and
    right child's term and the negated parent term.  ``row`` maps each
    store that the paths take rows of to an array that sends those rows
    to rows of the deltas.  ``launch`` holds the ``(log_lik,
    cv_a, cv_b)`` of each distinct launch state.
    """

    row: dict[CellStore, np.ndarray]
    log_lik: np.ndarray
    cv_a: np.ndarray
    cv_b: np.ndarray
    launch: dict[SRP, tuple[float, float, float]]


def node_table(paths: list[PqmcPath]) -> NodeTable:
    """The :class:`NodeTable` of paths on one root box and sample size,
    over the rows of their stores that some path takes, from the bounds
    the stores hold.

    Every term is formed elementwise with the float operations of a
    record-by-record walk, so profiles gathered from the table are
    bit-identical to that walk.
    """
    n = paths[0].initial.n
    taken: dict[CellStore, np.ndarray] = {}  # rows some path takes, per store
    launch: dict[SRP, tuple[float, float, float]] = {}
    for path in paths:
        if path.splits not in taken:
            taken[path.splits] = np.zeros(len(path.splits.labels), dtype=bool)
        taken[path.splits][path.rows] = True
        s = path.initial
        if s not in launch:
            launch[s] = (log_likelihood(s) if n >= 1 else 0.0, *_leaf_cv_terms(s))
    row: dict[CellStore, np.ndarray] = {}
    parts = []  # per store: the bounds and the children's counts of its rows taken
    size = 0
    for splits, mask in taken.items():
        rows = np.flatnonzero(mask)
        row[splits] = np.cumsum(mask) - 1 + size
        size += len(rows)
        parts.append((*splits.split_bounds(rows), *splits.split_counts(rows)))
    lo, hi, cl, cr = (np.concatenate(part) for part in zip(*parts))
    axis, mid, _ = split_plane(lo, hi)
    rows = np.arange(len(axis))
    width = hi[rows, axis] - lo[rows, axis]
    vol = bounds_volume(lo, hi)
    vol_l = vol / width * (mid - lo[rows, axis])
    vol_r = vol / width * (hi[rows, axis] - mid)
    cl, cr = cl.astype(float), cr.astype(float)
    c = cl + cr

    def ll_term(c, vol):  # c log(c / (n vol)), 0 for an empty cell
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(c > 0, c * np.log(c / (n * vol)), 0.0)

    def deltas(left, right, parent):
        return np.stack([left, right, -parent], axis=1)

    return NodeTable(
        row,
        deltas(ll_term(cl, vol_l), ll_term(cr, vol_r), ll_term(c, vol)),
        deltas(cl * cl / vol_l, cr * cr / vol_r, c * c / vol),
        deltas(cl * (cl - 1) / vol_l, cr * (cr - 1) / vol_r, c * (c - 1) / vol),
        launch,
    )


@dataclass(frozen=True)
class PathProfile:
    """Per-state score ingredients along one path.

    Arrays indexed by the state's position ``t``: leaf count, data
    log-likelihood, and the two leaf sums entering the closed-form CV
    score, gathered from a :class:`NodeTable`.  One profile makes
    scoring a whole tau grid cheap.
    """

    path: PqmcPath
    m: np.ndarray
    log_lik: np.ndarray
    cv_a: np.ndarray
    cv_b: np.ndarray

    def cv(self, t: int) -> float:
        n = self.path.initial.n
        if n < 2:
            return float("nan")
        return _cv_from_terms(float(self.cv_a[t]), float(self.cv_b[t]), n)


def path_profile(path: PqmcPath, table: NodeTable) -> PathProfile:
    """The profile of ``path``, gathered from ``table``, a
    :func:`node_table` over paths that include it.

    State ``t`` adds the left and right child's terms of record ``t``
    and subtracts its parent's, in that order, to state ``t - 1``: one
    cumulative sum over the interleaved sequence
    ``[x0, left_1, right_1, -parent_1, left_2, ...]``, read at every
    third entry, so the sums round exactly as a record-by-record walk.
    """
    ll0, a0, b0 = table.launch[path.initial]
    idx = table.row[path.splits][path.rows]

    def walk(x0, deltas):
        seq = np.empty(3 * len(idx) + 1)
        seq[0] = x0
        seq[1:] = deltas[idx].ravel()
        return np.cumsum(seq)[::3]

    m = path.initial.leaf_count + np.arange(len(path), dtype=float)
    return PathProfile(path, m, walk(ll0, table.log_lik),
                       walk(a0, table.cv_a), walk(b0, table.cv_b))


def _best_state(profiles: list[PathProfile], tau: float):
    """Argmax of the penalized score across all states of all profiles.

    Ties on the score prefer fewer leaves, then the lexicographically
    smallest sorted leaf-label sequence, making the result independent
    of path order.
    """
    if tau <= 0:
        raise InvalidTau(f"tau must be positive, got {tau}")
    best = None  # (score, m, candidates)
    for pi, prof in enumerate(profiles):
        scores = prof.log_lik - prof.m / tau
        top = float(np.max(scores))
        if best is not None and top < best[0]:
            continue
        for t in np.nonzero(scores == top)[0]:
            key = (top, float(prof.m[t]))
            if best is None or key[0] > best[0] or (key[0] == best[0] and key[1] < best[1]):
                best = (key[0], key[1], [(pi, int(t))])
            elif key[0] == best[0] and key[1] == best[1]:
                best[2].append((pi, int(t)))
    if best is None:
        raise EmptyCandidateSet("no candidate states to select from")
    score, _, cands = best
    if len(cands) > 1:
        cands.sort(key=lambda pt: profiles[pt[0]].path.state(pt[1]).tree.leaves())
    pi, t = cands[0]
    return pi, t, score


def select(paths: list[PqmcPath], cfg: SmoothingConfig) -> ScoredEstimate:
    """Two-stage smoothing: MAP per grid ``tau``, then the candidate with
    the smallest cross-validation score (ties go to the smaller tau)."""
    if not paths:
        raise EmptyCandidateSet("no candidate paths")

    def data(p):
        return p.initial.tree.root_box, p.initial.n

    groups: dict[tuple, list[PqmcPath]] = {}
    for p in paths:
        groups.setdefault(data(p), []).append(p)
    tables = {key: node_table(group) for key, group in groups.items()}
    profiles = [path_profile(p, tables[data(p)]) for p in paths]
    best = None  # (cv, tau, pi, t, score)
    curve = []
    for tau in cfg.tau_grid:
        pi, t, score = _best_state(profiles, tau)
        cv = profiles[pi].cv(t)
        curve.append(CurvePoint(float(tau), cv, int(profiles[pi].m[t])))
        if best is None or cv < best[0]:
            best = (cv, tau, pi, t, score)
    cv, tau, pi, t, score = best
    return ScoredEstimate(
        srp=profiles[pi].path.state(t),
        tau=float(tau),
        penalized_score=score,
        cv_score=cv,
        cv_curve=tuple(curve),
    )
