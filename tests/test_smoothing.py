import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rphist.distributed import build_threshold_tree, reconstruct_path, truncate_path
from rphist.errors import EmptyCandidateSet, InsufficientData, InvalidTau
from rphist.geometry import bounding_box, bounds_volume, contains
from rphist.pqmc import (
    PqmcConfig,
    PqmcPath,
    SEB_PRIORITY,
    carve_path,
    launch_states,
    run_pqmc,
)
from rphist.smoothing import (
    SmoothingConfig,
    _leaf_cv_terms,
    cv_score,
    default_tau_grid,
    node_table,
    path_profile,
    penalized_score,
    select,
)
from rphist.srp import ingest, log_likelihood, root_srp
from rphist.tree import RPTree, cell_bounds

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
    path = PqmcPath(s, (), "exhausted", True, False)
    est = select([path], SmoothingConfig((1.0,)))
    assert est.srp == s
    assert est.tau == 1.0


def test_map_estimate_extreme_taus():
    rng = np.random.default_rng(24)
    path, pts = _grown_path(rng)
    tiny = select([path], SmoothingConfig((1e-9,)))
    assert tiny.srp.leaf_count == 1  # the penalty dominates
    huge = select([path], SmoothingConfig((1e12,)))
    best_ll = max(log_likelihood(s) for s in path.states())
    assert log_likelihood(huge.srp) == pytest.approx(best_ll, abs=1e-9)


def test_map_estimate_matches_brute_force_argmax():
    rng = np.random.default_rng(25)
    path, _ = _grown_path(rng, n=200, maxlvs=12)
    for tau in (0.3, 2.0, 50.0):
        est = select([path], SmoothingConfig((tau,)))
        direct = max(penalized_score(s, tau) for s in path.states())
        assert est.penalized_score == pytest.approx(direct, abs=1e-9)


def test_map_estimate_invariant_under_path_reordering():
    rng = np.random.default_rng(26)
    paths = [_grown_path(rng, n=150, maxlvs=10)[0] for _ in range(4)]
    a = select(paths, SmoothingConfig((5.0,)))
    b = select(list(reversed(paths)), SmoothingConfig((5.0,)))
    assert a.srp == b.srp


def test_map_estimate_empty():
    with pytest.raises(EmptyCandidateSet):
        select([], SmoothingConfig((1.0,)))


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
    prof = path_profile(path, node_table([path]))
    for t, s in enumerate(path.states()):
        assert prof.m[t] == s.leaf_count
        assert prof.log_lik[t] == pytest.approx(log_likelihood(s), abs=1e-9)
        assert prof.cv(t) == pytest.approx(cv_score(s), abs=1e-9)


def _profile_by_walk(path):
    """Reference profile: the record-by-record walk that
    :func:`path_profile` replaces, kept to hold it bit-identical."""
    s0 = path.initial
    n = s0.n
    root_box = s0.tree.root_box
    steps = len(path)
    m = np.empty(steps)
    ll = np.empty(steps)
    a = np.empty(steps)
    b = np.empty(steps)
    m[0] = s0.leaf_count
    ll[0] = log_likelihood(s0) if n >= 1 else 0.0
    a[0], b[0] = _leaf_cv_terms(s0)

    def ll_term(c, vol):
        return c * np.log(c / (n * vol)) if c > 0 else 0.0

    lo, hi, axis, mid, _ = cell_bounds(root_box, [rec.label for rec in path.records])
    rows = np.arange(len(axis))
    width = hi[rows, axis] - lo[rows, axis]
    vol = bounds_volume(lo, hi)
    vol_l = vol / width * (mid - lo[rows, axis])
    vol_r = vol / width * (hi[rows, axis] - mid)
    for t, (rec, v, vl, vr) in enumerate(
            zip(path.records, vol.tolist(), vol_l.tolist(), vol_r.tolist()), start=1):
        cl, cr = rec.left_count, rec.right_count
        c = cl + cr
        m[t] = m[t - 1] + 1
        ll[t] = ll[t - 1] + ll_term(cl, vl) + ll_term(cr, vr) - ll_term(c, v)
        a[t] = a[t - 1] + cl * cl / vl + cr * cr / vr - c * c / v
        b[t] = b[t - 1] + cl * (cl - 1) / vl + cr * (cr - 1) / vr - c * (c - 1) / v
    return m, ll, a, b


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 6),
       st.integers(1, 12), st.one_of(st.none(), st.integers(1, 40)))
def test_path_profile_bit_identical_to_walk(seed, d, side, threshold, max_leaves):
    # integer-grid rows plus copies of one row: tied counts and empty children
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, side, (int(rng.integers(5, 150)), d))
    pts = np.vstack([grid, np.repeat(grid[:1], rng.integers(0, 10), axis=0)])
    pts = pts.astype(float)
    box = bounding_box(pts)
    max_depth = 40
    carve = carve_path(pts, PqmcConfig(max_leaves=int(rng.integers(1, 8)),
                                       max_depth=max_depth), root_box=box)
    base = build_threshold_tree(pts, box, float(threshold), PqmcConfig(max_depth=max_depth))
    paths = []
    for launch in launch_states(carve, 3):
        for psi in (threshold, threshold + 4):
            cfg = PqmcConfig(max_psi=float(psi), max_leaves=max_leaves, max_depth=max_depth)
            whole = reconstruct_path(base, launch, float(psi))
            paths += [whole, truncate_path(whole, max_leaves, float(psi), cfg),
                      run_pqmc(launch, pts, SEB_PRIORITY, cfg)]
    shared = node_table(paths)
    for path in paths:
        want = _profile_by_walk(path)
        for prof in (path_profile(path, node_table([path])),
                     path_profile(path, shared)):
            got = (prof.m, prof.log_lik, prof.cv_a, prof.cv_b)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_select_single_tau():
    rng = np.random.default_rng(29)
    path, _ = _grown_path(rng)
    est = select([path], SmoothingConfig((2.5,)))
    states = path.states()
    scores = [penalized_score(s, 2.5) for s in states]
    assert est.srp == states[int(np.argmax(scores))]
    assert est.penalized_score == pytest.approx(max(scores), abs=1e-9)
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
    counts = [select([path], SmoothingConfig((t,))).srp.leaf_count
              for t in default_tau_grid()]
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
