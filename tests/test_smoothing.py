import numpy as np
import pytest

from rphist.errors import EmptyCandidateSet, InsufficientData, InvalidTau
from rphist.geometry import bounding_box, contains
from rphist.pqmc import PqmcConfig, SEB_PRIORITY, run_pqmc
from rphist.smoothing import (
    SmoothingConfig,
    cv_score,
    default_tau_grid,
    map_estimate,
    path_profile,
    penalized_score,
    select,
)
from rphist.srp import ingest, log_likelihood, root_srp
from rphist.tree import RPTree

from conftest import fig2_points, random_points, random_srp, unit_box

FIG2_LOG_LIK = 0.10067756775344439


def brute_force_cv(srp, pts) -> float:
    """Leave-one-out oracle: hold the partition, find each point's leaf
    by box membership, and recompute its left-out density directly."""
    n = srp.n
    leaves = srp.tree.leaves()
    boxes = {v: srp.tree.cell_box(v) for v in leaves}
    vols = {v: boxes[v].volume for v in leaves}
    integral_f_sq = sum(
        (srp.counts.get(v, 0) / (n * vols[v])) ** 2 * vols[v] for v in leaves
    )
    loo_sum = 0.0
    for p in pts:
        leaf = next(v for v in leaves if contains(boxes[v], p))
        loo_sum += (srp.counts[leaf] - 1) / ((n - 1) * vols[leaf])
    return integral_f_sq - 2.0 / n * loo_sum


def test_penalized_score_root_only():
    s = root_srp(unit_box(2), 5)
    for tau in (0.5, 1.0, 100.0):
        assert penalized_score(s, tau) == pytest.approx(-1.0 / tau)


def test_penalized_score_fig2(fig2_srp):
    assert penalized_score(fig2_srp, 1.0) == pytest.approx(FIG2_LOG_LIK - 3.0, abs=1e-12)


def test_penalized_score_approaches_log_likelihood(fig2_srp):
    assert penalized_score(fig2_srp, 1e12) == pytest.approx(
        log_likelihood(fig2_srp), abs=1e-9
    )


def test_penalized_score_invalid_tau(fig2_srp):
    with pytest.raises(InvalidTau):
        penalized_score(fig2_srp, 0.0)


def test_penalized_score_monotone_in_tau(fig2_srp):
    taus = np.geomspace(0.01, 100, 20)
    scores = [penalized_score(fig2_srp, t) for t in taus]
    assert all(a < b for a, b in zip(scores, scores[1:]))


def _grown_path(rng, n=300, maxlvs=20):
    pts = random_points(rng, n, 2)
    s0 = ingest(RPTree(bounding_box(pts)), pts)
    cfg = PqmcConfig(max_leaves=maxlvs)
    return run_pqmc(s0, pts, SEB_PRIORITY, cfg), pts


def test_map_estimate_single_state():
    s = root_srp(unit_box(2), 4)
    from rphist.pqmc import PqmcPath

    path = PqmcPath(s, (), "exhausted", True, False)
    est = map_estimate([path], 1.0)
    assert est.srp == s
    assert est.tau == 1.0


def test_map_estimate_extreme_taus():
    rng = np.random.default_rng(24)
    path, pts = _grown_path(rng)
    tiny = map_estimate([path], 1e-9)
    assert tiny.srp.leaf_count == 1  # the penalty dominates
    huge = map_estimate([path], 1e12)
    best_ll = max(log_likelihood(s) for s in path.states())
    assert log_likelihood(huge.srp) == pytest.approx(best_ll, abs=1e-9)


def test_map_estimate_matches_brute_force_argmax():
    rng = np.random.default_rng(25)
    path, _ = _grown_path(rng, n=200, maxlvs=12)
    for tau in (0.3, 2.0, 50.0):
        est = map_estimate([path], tau)
        direct = max(penalized_score(s, tau) for s in path.states())
        assert est.penalized_score == pytest.approx(direct, abs=1e-9)


def test_map_estimate_invariant_under_path_reordering():
    rng = np.random.default_rng(26)
    paths = [_grown_path(rng, n=150, maxlvs=10)[0] for _ in range(4)]
    a = map_estimate(paths, 5.0)
    b = map_estimate(list(reversed(paths)), 5.0)
    assert a.srp == b.srp


def test_map_estimate_empty():
    with pytest.raises(EmptyCandidateSet):
        map_estimate([], 1.0)


def test_cv_score_root_only_uniform():
    for n in (2, 5, 100):
        assert cv_score(root_srp(unit_box(2), n)) == pytest.approx(-1.0)


def test_cv_score_insufficient_data():
    with pytest.raises(InsufficientData):
        cv_score(root_srp(unit_box(2), 1))


def test_cv_score_fig2_matches_brute_force(fig2_srp):
    got = cv_score(fig2_srp)
    want = brute_force_cv(fig2_srp, fig2_points())
    assert got == pytest.approx(want, abs=1e-12)


def test_cv_score_singleton_leaves_nonnegative():
    # every leaf holds 0 or 1 points: the leave-one-out term vanishes
    pts = np.array([[0.1, 0.1], [0.9, 0.9]])
    tree = RPTree(unit_box(2)).split(1)
    s = ingest(tree, pts)
    assert all(s.counts[v] <= 1 for v in s.tree.leaves())
    expected = sum(
        s.counts[v] / (s.n**2 * s.tree.cell_box(v).volume) for v in s.tree.leaves()
    )
    assert cv_score(s) == pytest.approx(expected)
    assert cv_score(s) >= 0.0


def test_cv_closed_form_equals_brute_force_random():
    rng = np.random.default_rng(27)
    for _ in range(25):
        s, pts = random_srp(rng, n_max=200)
        assert cv_score(s) == pytest.approx(brute_force_cv(s, pts), abs=1e-10)


def test_path_profile_matches_direct_scores():
    rng = np.random.default_rng(28)
    path, pts = _grown_path(rng, n=250, maxlvs=15)
    prof = path_profile(path)
    for t, s in enumerate(path.states()):
        assert prof.m[t] == s.leaf_count
        assert prof.log_lik[t] == pytest.approx(log_likelihood(s), abs=1e-9)
        assert prof.cv(t) == pytest.approx(cv_score(s), abs=1e-9)


def test_select_single_tau():
    rng = np.random.default_rng(29)
    path, _ = _grown_path(rng)
    est = select([path], SmoothingConfig((2.5,)))
    direct = map_estimate([path], 2.5)
    assert est.srp == direct.srp
    assert est.tau == 2.5


def test_select_tie_prefers_smaller_tau():
    rng = np.random.default_rng(30)
    path, _ = _grown_path(rng, n=100, maxlvs=5)
    # two huge taus select the same state; the tie goes to the first
    est = select([path], SmoothingConfig((1e10, 1e11)))
    assert est.tau == 1e10


def test_selected_leaf_count_nondecreasing_in_tau():
    rng = np.random.default_rng(31)
    path, _ = _grown_path(rng, n=500, maxlvs=30)
    counts = [map_estimate([path], t).srp.leaf_count for t in default_tau_grid()]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_select_empty():
    with pytest.raises(EmptyCandidateSet):
        select([], SmoothingConfig())


def test_smoothing_config_validation():
    with pytest.raises(InvalidTau):
        SmoothingConfig((0.0, 1.0))
    with pytest.raises(ValueError):
        SmoothingConfig((2.0, 1.0))
    assert len(SmoothingConfig().tau_grid) == 30
