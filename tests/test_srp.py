import numpy as np
import pytest
from hypothesis import given, settings

from rphist.errors import (
    DimensionMismatch,
    EmptySample,
    NotBisectable,
    PointOutsideRootBox,
)
from rphist.geometry import Box
from rphist.pqmc import ingest
from rphist.srp import SRP, density_at, histogram, log_likelihood, root_srp
from rphist.tree import RPTree
from conftest import (
    cell_membership,
    fig2_points,
    membership_srp,
    random_srp,
    tied_tree_sample,
    unit_box,
)

# independently computed: 2*log(0.8) + 3*log(1.2) + 5*log(1.0)
FIG2_LOG_LIK = 0.10067756775344439


def test_ingest_fig2_counts(fig2_tree):
    s = ingest(fig2_tree, fig2_points())
    assert s.n == 10
    assert {k: s.counts[k] for k in sorted(s.counts)} == {1: 10, 2: 5, 3: 5, 4: 2, 5: 3}
    s.validate()


def test_ingest_empty_points(fig2_tree):
    s = ingest(fig2_tree, [], strict=False)
    assert s.n == 0
    assert all(c == 0 for c in s.counts.values())


def test_ingest_corner_point_increments_one_path(fig2_tree):
    s = ingest(fig2_tree, [[1.0, 1.0]])
    assert s.counts == {1: 1, 2: 0, 3: 1, 4: 0, 5: 0}


def test_ingest_strict_raises_outside(fig2_tree):
    with pytest.raises(PointOutsideRootBox):
        ingest(fig2_tree, [[1.5, 0.5]])
    s = ingest(fig2_tree, [[1.5, 0.5], [0.1, 0.1]], strict=False)
    assert s.n == 1


def test_ingest_dimension_mismatch(fig2_tree):
    with pytest.raises(DimensionMismatch):
        ingest(fig2_tree, [[0.1, 0.2, 0.3]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tied_tree_sample())
def test_ingest_equals_brute_force_membership_on_tied_rows(sample):
    # the cell table's routing against each cell's own half-open bounds
    tree, pts = sample
    expected = membership_srp(tree, pts)
    expected.validate()
    assert ingest(tree, pts, strict=False) == expected
    if expected.n == len(pts):
        assert ingest(tree, pts) == expected
    else:
        with pytest.raises(PointOutsideRootBox):
            ingest(tree, pts)


def test_ingest_rejects_a_split_cell_that_cannot_be_bisected():
    # the split root of a zero-width box: histogram and the chains reject
    # such a tree, and so does ingest, on any points
    box = Box.from_bounds([0.0, 0.0], [0.0, 0.0])
    assert ingest(RPTree(box), [[0.0, 0.0]]).counts == {1: 1}
    tree = RPTree(box).split(1)
    for pts in ([[0.0, 0.0]], []):
        with pytest.raises(NotBisectable):
            ingest(tree, pts, strict=False)
    with pytest.raises(NotBisectable):
        histogram(SRP(tree, {1: 1, 2: 0, 3: 1}, 1))


def test_histogram_fig2_heights(fig2_srp):
    h = histogram(fig2_srp)
    heights = {leaf.label: leaf.height for leaf in h.leaves}
    assert heights == {3: 1.0, 4: 0.8, 5: 1.2}
    assert h.total_mass() == pytest.approx(1.0, abs=1e-15)


def test_histogram_root_only_uniform():
    h = histogram(root_srp(unit_box(2), 7))
    assert h.leaf_count == 1
    assert h.leaves[0].height == 1.0


def test_histogram_raises_where_a_volume_underflows_to_zero():
    # as count / (n * 0.0) raises in Python floats
    tiny = Box.from_bounds([0.0, 0.0], [1e-200, 1e-200])
    with pytest.raises(ZeroDivisionError):
        histogram(root_srp(tiny, 1))


def test_histogram_empty_sample():
    with pytest.raises(EmptySample):
        histogram(root_srp(unit_box(2), 0))


def test_density_at_examples(fig2_srp):
    h = histogram(fig2_srp)
    assert density_at(h, (0.2, 0.7)) == 1.2
    assert density_at(h, (2.0, 0.5)) == 0.0
    # on the x = 0.5 internal hyperplane: right-side leaf wins
    assert density_at(h, (0.5, 0.1)) == 1.0
    with pytest.raises(DimensionMismatch):
        density_at(h, (0.5,))


def test_density_at_equals_membership_at_random_points_and_on_split_planes():
    # each coordinate at random or on a face of some leaf cell, the
    # splitting planes and the root faces included; some points outside
    rng = np.random.default_rng(12)
    for _ in range(20):
        s, _ = random_srp(rng)
        h = histogram(s)
        box = h.root_box
        span = box.highs() - box.lows()
        pts = rng.uniform(box.lows() - span / 8, box.highs() + span / 8, (400, box.dim))
        on_face = rng.random(pts.shape) < 0.5
        for j in range(box.dim):
            faces = np.unique(np.concatenate([h.lo[:, j], h.hi[:, j]]))
            pts[on_face[:, j], j] = rng.choice(faces, on_face[:, j].sum())
        inside = ((pts >= box.lows()) & (pts <= box.highs())).all(axis=1)
        member = cell_membership(box, h.lo, h.hi, pts)
        assert (member[inside].sum(axis=1) == 1).all()
        expected = np.where(inside, h.heights[member.argmax(axis=1)], 0.0)
        got = [density_at(h, p) for p in pts]
        assert all(type(x) is float for x in got)
        assert got == expected.tolist()


def test_log_likelihood_fig2(fig2_srp):
    assert log_likelihood(fig2_srp) == pytest.approx(FIG2_LOG_LIK, abs=1e-12)
    h = histogram(fig2_srp)
    per_point = sum(np.log(density_at(h, p)) for p in fig2_points())
    assert log_likelihood(fig2_srp) == pytest.approx(per_point, abs=1e-9)


def test_log_likelihood_root_only_zero():
    assert log_likelihood(root_srp(unit_box(3), 11)) == 0.0


def test_log_likelihood_empty_leaf_no_nan(fig2_tree):
    pts = [[0.1, 0.1], [0.6, 0.6]]  # leaf 5 stays empty
    s = ingest(fig2_tree, pts)
    assert s.counts[5] == 0
    assert np.isfinite(log_likelihood(s))


def test_log_likelihood_empty_sample():
    with pytest.raises(EmptySample):
        log_likelihood(root_srp(unit_box(1), 0))


def test_count_conservation_random():
    rng = np.random.default_rng(8)
    for _ in range(30):
        s, pts = random_srp(rng)
        leaf_total = sum(s.counts.get(v, 0) for v in s.tree.leaves())
        assert leaf_total == s.n == len(pts)
        s.validate()


def test_log_likelihood_matches_per_point_oracle():
    rng = np.random.default_rng(9)
    for _ in range(10):
        s, pts = random_srp(rng, n_max=400)
        h = histogram(s)
        oracle = sum(np.log(density_at(h, p)) for p in pts)
        assert log_likelihood(s) == pytest.approx(oracle, abs=1e-9)


def test_split_never_decreases_log_likelihood():
    rng = np.random.default_rng(10)
    for _ in range(20):
        s, pts = random_srp(rng, n_max=300, max_splits=10)
        base = log_likelihood(s)
        candidates = [v for v in s.nonempty_leaves()]
        v = int(candidates[rng.integers(len(candidates))])
        refined = ingest(s.tree.split(v), pts)
        refined.validate()  # parent-sum invariant survives the edit
        assert log_likelihood(refined) >= base - 1e-12


def test_srp_equality_ignores_extra_count_keys(fig2_srp):
    extra = dict(fig2_srp.counts)
    extra[999] = 5
    assert SRP(fig2_srp.tree, extra, fig2_srp.n) == fig2_srp


def test_ingest_parallel_shard_independent(fig2_tree):
    # counts merged by addition: ingest of concatenated shards equals
    # the elementwise sum of per-shard ingests
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, size=(101, 2))
    whole = ingest(fig2_tree, pts)
    parts = [ingest(fig2_tree, chunk) for chunk in np.array_split(pts, 4)]
    merged = {
        v: sum(p.counts.get(v, 0) for p in parts) for v in fig2_tree.nodes
    }
    assert merged == {v: whole.counts[v] for v in fig2_tree.nodes}
