import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rphist.errors import (
    DimensionMismatch,
    EmptySample,
    NotBisectable,
    PointOutsideRootBox,
)
from rphist.geometry import Box
from rphist.pqmc import CellTable, State, run_pqmc
from rphist.srp import Histogram, density_at, histogram, log_likelihood
from conftest import (
    FIG2_LEAVES,
    cell_membership,
    fig2_points,
    leaf_counts,
    leaf_state,
    membership_counts,
    node_counts,
    nodes_of,
    random_state,
    root_state,
    tied_tree_sample,
    unit_box,
)

# independently computed: 2*log(0.8) + 3*log(1.2) + 5*log(1.0)
FIG2_LOG_LIK = 0.10067756775344439


def assert_counts_add_up(table: CellTable) -> None:
    """Every split cell of the table holds its children's points."""
    kid = np.frombuffer(table.kid, np.int64)
    count = np.frombuffer(table.count, np.int64)
    split = np.flatnonzero(kid)
    assert (count[split] == count[kid[split]] + count[kid[split] + 1]).all()
    assert count[1] == table.n


def test_ingest_fig2_counts():
    s = leaf_state(unit_box(2), FIG2_LEAVES, fig2_points())
    assert s.n == 10
    assert node_counts(s) == {1: 10, 2: 5, 3: 5, 4: 2, 5: 3}
    assert_counts_add_up(s.store)


def test_ingest_empty_points():
    s = leaf_state(unit_box(2), FIG2_LEAVES, [], strict=False)
    assert s.n == 0
    assert all(c == 0 for c in node_counts(s).values())


def test_ingest_corner_point_increments_one_path():
    s = leaf_state(unit_box(2), FIG2_LEAVES, [[1.0, 1.0]])
    assert node_counts(s) == {1: 1, 2: 0, 3: 1, 4: 0, 5: 0}


def test_ingest_strict_raises_outside():
    with pytest.raises(PointOutsideRootBox):
        CellTable([[1.5, 0.5]], unit_box(2))
    s = leaf_state(unit_box(2), FIG2_LEAVES, [[1.5, 0.5], [0.1, 0.1]], strict=False)
    assert s.n == 1


def test_ingest_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        CellTable([[0.1, 0.2, 0.3]], unit_box(2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tied_tree_sample())
def test_ingest_equals_brute_force_membership_on_tied_rows(sample):
    # the cell table's routing against each cell's own half-open bounds,
    # at every node of the tree
    box, leaves, pts = sample
    expected = membership_counts(box, nodes_of(leaves), pts)
    s = leaf_state(box, leaves, pts, strict=False)
    assert node_counts(s) == expected
    assert {v: s.store.count[s.store.find(v)] for v in expected} == expected
    assert_counts_add_up(s.store)
    if expected[1] == len(pts):
        assert leaf_state(box, leaves, pts) == s
    else:
        with pytest.raises(PointOutsideRootBox):
            CellTable(pts, box)


def test_ingest_rejects_a_split_cell_that_cannot_be_bisected():
    # the split root of a zero-width box: the cell table rejects such a
    # tree on any points, and so does a histogram of its labels
    box = Box.from_bounds([0.0, 0.0], [0.0, 0.0])
    assert leaf_counts(leaf_state(box, [1], [[0.0, 0.0]])) == {1: 1}
    for pts in ([[0.0, 0.0]], []):
        with pytest.raises(NotBisectable):
            leaf_state(box, [2, 3], pts, strict=False)
    with pytest.raises(NotBisectable):
        Histogram.from_counts(box, 1, [2, 3], [0, 1])


def test_histogram_fig2_heights(fig2_state):
    h = histogram(fig2_state)
    heights = {leaf.label: leaf.height for leaf in h.leaves}
    assert heights == {3: 1.0, 4: 0.8, 5: 1.2}
    assert h.total_mass() == pytest.approx(1.0, abs=1e-15)


def test_histogram_root_only_uniform():
    h = histogram(root_state(unit_box(2), 7))
    assert h.leaf_count == 1
    assert h.leaves[0].height == 1.0


def test_histogram_raises_where_a_volume_underflows_to_zero():
    # as count / (n * 0.0) raises in Python floats
    tiny = Box.from_bounds([0.0, 0.0], [1e-200, 1e-200])
    with pytest.raises(ZeroDivisionError):
        histogram(root_state(tiny, 1))


def test_histogram_empty_sample():
    with pytest.raises(EmptySample):
        histogram(root_state(unit_box(2), 0))


def test_density_at_examples(fig2_state):
    h = histogram(fig2_state)
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
        s, _ = random_state(rng)
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


@st.composite
def deep_tied_sample(draw):
    """Rows on a 5-step grid in 1-3 dimensions with one row repeated, in
    the box of the grid, so rows at its last step lie on the root box's
    upper faces, and a threshold.  With step 1 in ``[1, 5]^d`` a cell of
    copies splits until the floats run out, past 63-bit labels from
    ``d = 2``; with an ulp of 1.0 as the step it runs out after a few
    splits."""
    d = draw(st.integers(1, 3))
    grid = draw(arrays(np.int64, (draw(st.integers(1, 60)), d),
                       elements=st.integers(0, 4), fill=st.nothing()))
    pts = np.vstack([grid, np.repeat(grid[:1], draw(st.integers(0, 30)), axis=0)])
    step = draw(st.sampled_from([1.0, 2.0**-52]))
    box = Box.from_bounds([1.0] * d, [1.0 + 4 * step] * d)
    return 1.0 + pts * step, box, float(draw(st.integers(1, 12)))


def test_density_at_equals_membership_on_deep_tied_histograms():
    # at every row, at points whose coordinates lie on leaf faces, and
    # just outside the root box; count the examples with labels past
    # 2**63, rows on an upper root face, and leaves the floats cannot
    # bisect
    seen = {"labels_past_2**63": 0, "rows_on_upper_faces": 0, "unbisectable": 0}

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(deep_tied_sample(), st.data())
    def check(sample, data):
        pts, box, threshold = sample
        path = run_pqmc(CellTable(pts, box), threshold)
        h = histogram(path.final)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        faces = np.vstack([h.lo, h.hi])
        mixed = faces[rng.integers(len(faces), size=(200, box.dim)), np.arange(box.dim)]
        probes = np.vstack([pts, faces, mixed])
        member = cell_membership(box, h.lo, h.hi, probes)
        assert (member.sum(axis=1) == 1).all()
        assert [density_at(h, p) for p in probes] == h.heights[member.argmax(axis=1)].tolist()
        for j in range(box.dim):
            for edge, away in ((box.lows(), -np.inf), (box.highs(), np.inf)):
                p = probes[rng.integers(len(probes))].copy()
                p[j] = np.nextafter(edge[j], away)
                assert density_at(h, p) == 0.0
        if max(h.labels) >= 2**63:
            seen["labels_past_2**63"] += 1
        if (pts == box.highs()).any():
            seen["rows_on_upper_faces"] += 1
        if any(c > threshold for c in h.counts.tolist()):
            seen["unbisectable"] += 1

    check()
    assert min(seen.values()) > 0


def test_log_likelihood_fig2(fig2_state):
    assert log_likelihood(fig2_state) == pytest.approx(FIG2_LOG_LIK, abs=1e-12)
    h = histogram(fig2_state)
    per_point = sum(np.log(density_at(h, p)) for p in fig2_points())
    assert log_likelihood(fig2_state) == pytest.approx(per_point, abs=1e-9)


def test_log_likelihood_root_only_zero():
    assert log_likelihood(root_state(unit_box(3), 11)) == 0.0


def test_log_likelihood_empty_leaf_no_nan():
    pts = [[0.1, 0.1], [0.6, 0.6]]  # leaf 5 stays empty
    s = leaf_state(unit_box(2), FIG2_LEAVES, pts)
    assert leaf_counts(s)[5] == 0
    assert np.isfinite(log_likelihood(s))


def test_log_likelihood_empty_sample():
    with pytest.raises(EmptySample):
        log_likelihood(root_state(unit_box(1), 0))


def test_count_conservation_random():
    rng = np.random.default_rng(8)
    for _ in range(30):
        s, pts = random_state(rng)
        assert sum(leaf_counts(s).values()) == s.n == len(pts)
        assert_counts_add_up(s.store)


def test_log_likelihood_matches_per_point_oracle():
    rng = np.random.default_rng(9)
    for _ in range(10):
        s, pts = random_state(rng, n_max=400)
        h = histogram(s)
        oracle = sum(np.log(density_at(h, p)) for p in pts)
        assert log_likelihood(s) == pytest.approx(oracle, abs=1e-9)


def test_split_never_decreases_log_likelihood():
    rng = np.random.default_rng(10)
    for _ in range(20):
        s, pts = random_state(rng, n_max=300, max_splits=10)
        base = log_likelihood(s)
        candidates = [v for v, c in leaf_counts(s).items() if c > 0]
        v = int(candidates[rng.integers(len(candidates))])
        s.store.cell(2 * v)  # splits leaf v
        refined = State(s.store, s.launch, np.append(s.rows, s.store.find(v)))
        assert_counts_add_up(s.store)  # parent-sum invariant survives the edit
        nodes = nodes_of(refined.leaves.labels)
        assert node_counts(refined) == membership_counts(s.root_box, nodes, pts)
        assert log_likelihood(refined) >= base - 1e-12


def test_srp_equality_ignores_extra_count_keys(fig2_state):
    # cells of the store that are not leaves of the state do not count
    table = fig2_state.store
    table.cell(2**9)  # splits cells under leaf 4
    other = State(table, [table.find(v) for v in FIG2_LEAVES])
    assert other == fig2_state and hash(other) == hash(fig2_state)
    assert State(table, other.launch, [table.find(4)]) != fig2_state


def test_ingest_parallel_shard_independent():
    # counts merged by addition: the counts of concatenated shards equal
    # the elementwise sum of per-shard counts
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, size=(101, 2))
    whole = node_counts(leaf_state(unit_box(2), FIG2_LEAVES, pts))
    parts = [node_counts(leaf_state(unit_box(2), FIG2_LEAVES, chunk))
             for chunk in np.array_split(pts, 4)]
    assert {v: sum(p[v] for p in parts) for v in whole} == whole
