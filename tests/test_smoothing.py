import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rphist.distributed import build_threshold_tree, reconstruct_path, truncate_path
from rphist.errors import EmptyCandidateSet, InsufficientData, InvalidTau
from rphist.geometry import bounding_box, bounds_volume
from rphist.pqmc import CellTable, State, carve_path, launch_states
from rphist.smoothing import (
    SmoothingConfig,
    cv_score,
    node_table,
    path_profile,
    penalized_score,
    select,
    tau_grid,
)
from rphist.srp import log_likelihood
from rphist.tree import cell_bounds

from conftest import (
    SEB_PRIORITY,
    ChainConfig,
    cell_membership,
    chain,
    fig2_points,
    leaf_counts,
    leaf_state,
    random_points,
    random_state,
    records,
    root_state,
    unit_box,
)

FIG2_LOG_LIK = 0.10067756775344439


def brute_force_cv(s, pts) -> float:
    """Leave-one-out oracle: hold the partition, find each point's leaf
    by cell membership, and recompute its left-out density directly."""
    n = s.n
    counts = leaf_counts(s)
    leaves = sorted(counts)
    lo, hi = cell_bounds(s.root_box, leaves)
    vols = dict(zip(leaves, bounds_volume(lo, hi).tolist()))
    integral_f_sq = sum((counts[v] / (n * vols[v])) ** 2 * vols[v] for v in leaves)
    loo_sum = 0.0
    for row in cell_membership(s.root_box, lo, hi, pts):
        leaf = leaves[int(np.flatnonzero(row)[0])]
        loo_sum += (counts[leaf] - 1) / ((n - 1) * vols[leaf])
    return integral_f_sq - 2.0 / n * loo_sum


def test_penalized_score_root_only():
    s = root_state(unit_box(2), 5)
    for tau in (0.5, 1.0, 100.0):
        assert penalized_score(s, tau) == pytest.approx(-1.0 / tau)


def test_penalized_score_fig2(fig2_state):
    assert penalized_score(fig2_state, 1.0) == pytest.approx(FIG2_LOG_LIK - 3.0, abs=1e-12)


def test_penalized_score_approaches_log_likelihood(fig2_state):
    assert penalized_score(fig2_state, 1e12) == pytest.approx(
        log_likelihood(fig2_state), abs=1e-9
    )


def test_penalized_score_invalid_tau(fig2_state):
    with pytest.raises(InvalidTau):
        penalized_score(fig2_state, 0.0)


def test_penalized_score_monotone_in_tau(fig2_state):
    taus = np.geomspace(0.01, 100, 20)
    scores = [penalized_score(fig2_state, t) for t in taus]
    assert all(a < b for a, b in zip(scores, scores[1:]))


def _grown_path(rng, n=300, maxlvs=20):
    pts = random_points(rng, n, 2)
    s0 = leaf_state(bounding_box(pts), [1], pts)
    cfg = ChainConfig(max_leaves=maxlvs)
    return chain(s0, CellTable(pts, s0.root_box), SEB_PRIORITY, cfg), pts


def test_map_estimate_single_state():
    s = root_state(unit_box(2), 4)
    path = chain(s, CellTable(np.full((4, 2), 0.5), unit_box(2)), SEB_PRIORITY,
                 ChainConfig(max_leaves=1))
    est = select([path], SmoothingConfig((1.0,)))
    assert est.state == s
    assert est.tau == 1.0


def test_map_estimate_extreme_taus():
    rng = np.random.default_rng(24)
    path, pts = _grown_path(rng)
    tiny = select([path], SmoothingConfig((1e-9,)))
    assert tiny.state.leaf_count == 1  # the penalty dominates
    huge = select([path], SmoothingConfig((1e12,)))
    best_ll = max(log_likelihood(s) for s in path.states())
    assert log_likelihood(huge.state) == pytest.approx(best_ll, abs=1e-9)


def test_map_estimate_matches_brute_force_argmax():
    rng = np.random.default_rng(25)
    path, _ = _grown_path(rng, n=200, maxlvs=12)
    for tau in (0.3, 2.0, 50.0):
        est = select([path], SmoothingConfig((tau,)))
        direct = max(penalized_score(s, tau) for s in path.states())
        assert est.penalized_score == pytest.approx(direct, abs=1e-9)


def test_map_estimate_invariant_under_path_reordering():
    # chains from the launch states of one carve, over its cell table
    pts = random_points(np.random.default_rng(26), 150, 2)
    table = CellTable(pts, bounding_box(pts))
    carve = carve_path(table, 8)
    paths = [chain(launch, table, SEB_PRIORITY, ChainConfig(max_leaves=10 + i))
             for i, launch in enumerate(launch_states(carve, 4))]
    a = select(paths, SmoothingConfig((5.0,)))
    b = select(list(reversed(paths)), SmoothingConfig((5.0,)))
    assert a.state == b.state


def test_select_rejects_paths_over_two_stores():
    rng = np.random.default_rng(26)
    paths = [_grown_path(rng, n=150, maxlvs=10)[0] for _ in range(2)]
    with pytest.raises(ValueError, match="one cell store"):
        select(paths, SmoothingConfig((5.0,)))


def test_map_estimate_empty():
    with pytest.raises(EmptyCandidateSet):
        select([], SmoothingConfig((1.0,)))


def test_cv_score_root_only_uniform():
    for n in (2, 5, 100):
        assert cv_score(root_state(unit_box(2), n)) == pytest.approx(-1.0)


def test_cv_score_insufficient_data():
    with pytest.raises(InsufficientData):
        cv_score(root_state(unit_box(2), 1))


def test_cv_score_fig2_matches_brute_force(fig2_state):
    got = cv_score(fig2_state)
    want = brute_force_cv(fig2_state, fig2_points())
    assert got == pytest.approx(want, abs=1e-12)


def test_cv_score_singleton_leaves_nonnegative():
    # every leaf holds 0 or 1 points: the leave-one-out term vanishes
    pts = np.array([[0.1, 0.1], [0.9, 0.9]])
    s = leaf_state(unit_box(2), [2, 3], pts)
    assert all(c <= 1 for c in leaf_counts(s).values())
    lo, hi = cell_bounds(s.root_box, s.leaves.labels)
    expected = sum(
        c / (s.n**2 * vol)
        for c, vol in zip(s.leaves.counts.tolist(), bounds_volume(lo, hi))
    )
    assert cv_score(s) == pytest.approx(expected)
    assert cv_score(s) >= 0.0


def test_cv_closed_form_equals_brute_force_random():
    rng = np.random.default_rng(27)
    for _ in range(25):
        s, pts = random_state(rng, n_max=200)
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
    root_box = s0.root_box
    steps = len(path)
    m = np.empty(steps)
    ll = np.empty(steps)
    a = np.empty(steps)
    b = np.empty(steps)

    def ll_term(c, vol):
        return c * np.log(c / (n * vol)) if c > 0 else 0.0

    m[0] = s0.leaf_count
    ll[0] = a[0] = b[0] = 0.0
    counts = {v: c for v, c in leaf_counts(s0).items() if c > 0}
    labels = sorted(counts)
    lo, hi = cell_bounds(root_box, labels)
    for label, v in zip(labels, bounds_volume(lo, hi).tolist()):
        c = counts[label]
        ll[0] += ll_term(c, v)
        a[0] += c * c / v
        b[0] += c * (c - 1) / v

    split = [rec.label for rec in records(path)]
    vol, vol_l, vol_r = (bounds_volume(*cell_bounds(root_box, labels)) for labels in
                         (split, [2 * v for v in split], [2 * v + 1 for v in split]))
    for t, (rec, v, vl, vr) in enumerate(
            zip(records(path), vol.tolist(), vol_l.tolist(), vol_r.tolist()), start=1):
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
    # the sequential chains run on the carve's cell table, as in the pipeline
    table = CellTable(pts, box)
    carve = carve_path(table, int(rng.integers(1, 8)), max_depth)
    base = build_threshold_tree(table, float(threshold), max_depth=max_depth)
    built, chains = [], []  # paths over the build's cells and over the table
    for launch in launch_states(carve, 3):
        for psi in (threshold, threshold + 4):
            cfg = ChainConfig(max_psi=float(psi), max_leaves=max_leaves, max_depth=max_depth)
            whole = truncate_path(reconstruct_path(base.path, launch), float(psi), None)
            built += [whole, truncate_path(whole, float(psi), max_leaves)]
            chains.append(chain(launch, table, SEB_PRIORITY, cfg))
    for paths in (built, chains):
        shared = node_table(paths)
        for path in paths:
            want = _profile_by_walk(path)
            for prof in (path_profile(path, node_table([path])),
                         path_profile(path, shared)):
                got = (prof.m, prof.log_lik, prof.cv_a, prof.cv_b)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 6),
       st.integers(1, 12), st.one_of(st.none(), st.integers(1, 40)), st.booleans())
def test_select_over_whole_paths_equals_select_over_their_cuts(seed, d, side, threshold,
                                                                max_leaves, sequential):
    # the pipeline's paths, in either mode: a cut is a prefix of its whole
    # path, so the whole paths alone hold every candidate state
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, side, (int(rng.integers(5, 150)), d))
    pts = np.vstack([grid, np.repeat(grid[:1], rng.integers(0, 10), axis=0)])
    pts = pts.astype(float)
    box = bounding_box(pts)
    max_depth = 40
    table = CellTable(pts, box)
    carve = carve_path(table, int(rng.integers(1, 8)), max_depth)
    launches = launch_states(carve, 3)
    low = float(threshold)
    if sequential:
        cfg = ChainConfig(max_psi=low, max_leaves=max_leaves, max_depth=max_depth)
        wholes = [chain(launch, table, SEB_PRIORITY, cfg) for launch in launches]
    else:
        base = build_threshold_tree(table, low, max_depth=max_depth)
        wholes = [truncate_path(reconstruct_path(base.path, launch), low, max_leaves)
                  for launch in launches]
    cuts = [truncate_path(whole, low + extra, max_leaves)
            for extra in (0, 4, 20) for whole in wholes]
    grid_cfg = SmoothingConfig(tau_grid(0.1, 1e5, 12))
    a, b = select(wholes, grid_cfg), select(wholes + cuts, grid_cfg)
    assert (a.state, a.tau, a.penalized_score, a.cv_score, a.cv_curve) == (
        b.state, b.tau, b.penalized_score, b.cv_score, b.cv_curve)


def test_select_single_tau():
    rng = np.random.default_rng(29)
    path, _ = _grown_path(rng)
    est = select([path], SmoothingConfig((2.5,)))
    states = path.states()
    scores = [penalized_score(s, 2.5) for s in states]
    assert est.state == states[int(np.argmax(scores))]
    assert est.penalized_score == pytest.approx(max(scores), abs=1e-9)
    assert est.tau == 2.5


def test_select_breaks_a_tied_score_by_the_leaf_labels():
    # rows symmetric about x = 0.5: the states {3, 4, 5} and {2, 6, 7}
    # have the same leaf count and bit-identical scores at every tau, and
    # the lexicographically smaller sorted labels win, in either path order
    pts = np.array([[0.1, 0.2], [0.9, 0.2], [0.3, 0.7], [0.7, 0.7], [0.2, 0.9], [0.8, 0.9]])
    table = CellTable(pts, unit_box(2))
    launches = [State(table, [table.cell(v) for v in leaves])
                for leaves in ((3, 4, 5), (2, 6, 7))]
    paths = [chain(s, table, SEB_PRIORITY, ChainConfig(max_psi=10.0)) for s in launches]
    assert [p.split_count for p in paths] == [0, 0]
    profiles = [path_profile(p, node_table(paths)) for p in paths]
    assert profiles[0].log_lik.tobytes() == profiles[1].log_lik.tobytes()
    for order in (paths, paths[::-1]):
        est = select(order, SmoothingConfig(tau_grid(0.1, 1e5, 5)))
        assert est.state == launches[1]
        assert est.state.leaves.labels == [2, 6, 7]


def test_select_tie_prefers_smaller_tau():
    rng = np.random.default_rng(30)
    path, _ = _grown_path(rng, n=100, maxlvs=5)
    # two huge taus select the same state; the tie goes to the first
    est = select([path], SmoothingConfig((1e10, 1e11)))
    assert est.tau == 1e10


def test_selected_leaf_count_nondecreasing_in_tau():
    rng = np.random.default_rng(31)
    path, _ = _grown_path(rng, n=500, maxlvs=30)
    counts = [select([path], SmoothingConfig((t,))).state.leaf_count
              for t in tau_grid()]
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
