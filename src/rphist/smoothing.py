"""Penalized-likelihood scoring and cross-validated smoothing selection.

Candidate states come from chain paths.  For a smoothing parameter
``tau`` the winning state maximizes ``log_likelihood - leaf_count/tau``,
the log-posterior under a complexity prior.  So it is the MAP state
among the candidate states of the paths, not among every paving that
the run's cells allow: some pruning of those cells can score higher
(by 268 to 5853 nats at the selected ``tau``, measured on 20k-row 2-D,
45k-row 10-D and 1M-row 2-D normal data).  The parameter itself is
picked by minimizing Stone's leave-one-out cross-validation score, a
nearly unbiased estimate of the expected L2 loss, which for a fixed
partition has the closed form used in :func:`cv_score`.

The candidate states are the states of a run's whole chain paths: a
path cut from one holds a prefix of its states, so the pipeline hands
:func:`select` the whole paths alone, and it scores each of their
states once.  The paths take their splits from one
:class:`~rphist.pqmc.CellStore` (the cells of the root build, or the
cell table the carve and the sequential root chain ran on).  A split
changes the log-likelihood and the two CV leaf sums by amounts that
depend on the split alone, and the store holds the counts and volumes
of each split cell and its children.  So :func:`node_table` computes
those deltas once per row of the store that some path takes, with the
per-cell formulas of :func:`~rphist.srp.cell_terms`, and each path's
per-state profile is a gather from that table plus a cumulative sum
(:func:`path_profile`), in either builder mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCandidateSet, InsufficientData, InvalidTau
from .pqmc import PqmcPath, State
from .srp import cell_terms, leaf_terms, log_likelihood
# cell_bounds is not called here; perfbench/run.py's layer_tracer counts its calls per module
from .tree import cell_bounds  # noqa: F401

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
    """A selected chain state with its smoothing diagnostics; ``cv_curve``
    has one point per grid ``tau``."""

    state: State
    tau: float
    penalized_score: float
    cv_score: float
    cv_curve: tuple[CurvePoint, ...]


def penalized_score(s: State, tau: float) -> float:
    """``log_likelihood(s) - leaf_count/tau``: the log-posterior up to a
    constant, under the complexity prior with parameter ``tau``."""
    if tau <= 0:
        raise InvalidTau(f"tau must be positive, got {tau}")
    return log_likelihood(s) - s.leaf_count / tau


def cv_score(s: State) -> float:
    """Stone's leave-one-out cross-validation score, in closed form.

    With the partition held fixed, leaving out a point only decrements
    its leaf count, so the score reduces to a sum over leaves::

        sum c^2 / (n^2 v)  -  2/(n(n-1)) * sum c (c-1) / v

    Lower is better; for the uniform density on the unit box the score
    is -1.
    """
    if s.n < 2:
        raise InsufficientData("leave-one-out needs at least two points")
    _, a, b = leaf_terms(s)
    return _cv_from_terms(float(a), float(b), s.n)


def _cv_from_terms(a, b, n: int):
    """The CV score from the two leaf sums, floats or arrays; NaN below two points."""
    return a / (n * n) - 2.0 * b / (n * (n - 1)) if n >= 2 else float("nan")


@dataclass(frozen=True)
class NodeTable:
    """Score deltas of every split of a set of paths, one row per split.

    A split of a cell changes the log-likelihood and the two CV leaf
    sums by amounts that depend on the cell and its two child counts
    alone, so one table serves every path that makes the split.
    ``deltas`` is ``(3, N, 3)``: per term (log-likelihood, ``cv_a``,
    ``cv_b``) and row, the left and right child's term and the negated
    parent term.  ``row`` sends the ids of the paths' cell store to rows
    of the deltas.  ``launch`` holds the three terms of each distinct
    launch state (:func:`~rphist.srp.leaf_terms`).
    """

    row: np.ndarray
    deltas: np.ndarray
    launch: dict[State, np.ndarray]


def node_table(paths: list[PqmcPath]) -> NodeTable:
    """The :class:`NodeTable` of paths over one cell store, over the rows
    of the store that some path takes, from the counts and volumes the
    store holds for each row and its two children.

    Every term is formed elementwise with the float operations of a
    record-by-record walk, so profiles gathered from the table are
    bit-identical to that walk.  Paths over more than one store raise
    ValueError.
    """
    store = paths[0].splits
    if any(path.splits is not store for path in paths):
        raise ValueError("the paths are not over one cell store")
    taken = np.zeros(len(store.labels), dtype=bool)
    launch: dict[State, np.ndarray] = {}
    for path in paths:
        taken[path.rows] = True
        if path.initial not in launch:
            launch[path.initial] = leaf_terms(path.initial)
    rows = np.flatnonzero(taken)
    kid = np.frombuffer(store.kid, np.int64)[rows]
    vol, vol_l, vol_r = store.volumes(np.stack([rows, kid, kid + 1]))
    cl, cr = (c.astype(float) for c in store.split_counts(rows))
    deltas = np.empty((3, len(rows), 3))
    deltas[:, :, 0] = cell_terms(cl, vol_l, store.n)
    deltas[:, :, 1] = cell_terms(cr, vol_r, store.n)
    deltas[:, :, 2] = -cell_terms(cl + cr, vol, store.n)
    return NodeTable(np.cumsum(taken) - 1, deltas, launch)


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
        return _cv_from_terms(float(self.cv_a[t]), float(self.cv_b[t]), self.path.initial.n)


def path_profile(path: PqmcPath, table: NodeTable) -> PathProfile:
    """The profile of ``path``, gathered from ``table``, a
    :func:`node_table` over paths that include it.

    State ``t`` adds the left and right child's terms of record ``t``
    and subtracts its parent's, in that order, to state ``t - 1``: one
    cumulative sum over the interleaved sequence
    ``[x0, left_1, right_1, -parent_1, left_2, ...]`` per term, read at
    every third entry, so the sums round exactly as a record-by-record
    walk.
    """
    idx = table.row[path.rows]
    seq = np.empty((3, 3 * len(idx) + 1))
    seq[:, 0] = table.launch[path.initial]
    seq[:, 1:] = table.deltas[:, idx].reshape(3, -1)
    log_lik, cv_a, cv_b = np.cumsum(seq, axis=1)[:, ::3]
    m = path.initial.leaf_count + np.arange(len(path), dtype=float)
    return PathProfile(path, m, log_lik, cv_a, cv_b)


def select(paths: list[PqmcPath], cfg: SmoothingConfig) -> ScoredEstimate:
    """Two-stage smoothing over every state of ``paths``, chain paths
    over one cell store: the MAP state among those states per grid
    ``tau``, then the one with the smallest cross-validation score (ties
    go to the smaller tau).

    Each state is scored once (:func:`path_profile`).  The MAP state
    maximizes the penalized score over the states of ``paths`` alone,
    not over every pruning of the store's cells; ties prefer fewer leaves, then the
    lexicographically smallest sorted leaf-label sequence, then the
    earlier path, so the selected state does not depend on path order.
    A state whose scores are not finite (``c^2/v`` overflows in cells of
    tiny volume) is no candidate; with none left, EmptyCandidateSet.
    """
    if not paths:
        raise EmptyCandidateSet("no candidate paths")
    with np.errstate(all="ignore"):  # scores that overflow are no candidates
        table = node_table(paths)
        # each ingredient over every state, in one array; the profiles are not kept
        m, log_lik, cv_a, cv_b = (np.concatenate(part) for part in zip(*(
            (prof.m, prof.log_lik, prof.cv_a, prof.cv_b)
            for prof in (path_profile(p, table) for p in paths))))
        cvs = _cv_from_terms(cv_a, cv_b, paths[0].initial.n)
    starts = np.cumsum([0] + [len(p) for p in paths])  # each path's first state

    def state(i: int) -> State:
        k = int(np.searchsorted(starts, i, side="right")) - 1
        return paths[k].state(i - int(starts[k]))

    finite = np.isfinite(log_lik) & np.isfinite(cvs)
    if not finite.any():
        raise EmptyCandidateSet(f"no finite score in {len(m)} states: cells too small for floats")
    log_lik[~finite] = -np.inf
    scores = np.empty_like(m)
    best = None  # (cv, tau, state, score)
    curve = []
    for tau in cfg.tau_grid:
        np.subtract(log_lik, np.divide(m, tau, out=scores), out=scores)
        top = np.flatnonzero(scores == scores.max())
        top = top[m[top] == m[top].min()].tolist()
        if len(top) > 1:  # a stable sort: equal leaves keep path order
            top.sort(key=lambda i: state(i).leaves.labels)
        i = top[0]
        cv = float(cvs[i])
        curve.append(CurvePoint(float(tau), cv, int(m[i])))
        if best is None or cv < best[0]:
            best = (cv, tau, i, float(scores[i]))
    cv, tau, i, score = best
    return ScoredEstimate(state=state(i), tau=float(tau), penalized_score=score, cv_score=cv,
                          cv_curve=tuple(curve))
