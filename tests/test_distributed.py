import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rphist.distributed import (
    Shard,
    TaggedDataset,
    apply_splits,
    assemble_srp,
    build_threshold_tree,
    cells_to_split,
    count_by_cell,
    prune,
    reconstruct_path,
    truncate_path,
)
from rphist.geometry import Box, bounding_box
from rphist.pqmc import (
    PqmcConfig,
    SEB_PRIORITY,
    SPC_PRIORITY,
    carve_path,
    launch_states,
    run_pqmc,
)
from rphist.srp import ingest
from rphist.tree import RPTree

from conftest import random_points, seb_instance, unit_box

CFG = PqmcConfig()


def fig7_dataset(shard_count=2) -> TaggedDataset:
    """Six points in the three-cell paving {2, 6, 7}: three tagged A=2,
    two tagged B=6, one tagged C=7."""
    labels = np.array([2, 2, 6, 7, 6, 2], dtype=np.int64)
    pts = np.array([
        [0.1, 0.2], [0.3, 0.8], [0.6, 0.1],
        [0.7, 0.9], [0.9, 0.3], [0.2, 0.5],
    ])
    shards = []
    for rows in np.array_split(np.arange(6), shard_count):
        shards.append(Shard(labels[rows], pts[rows]))
    return TaggedDataset(tuple(shards), unit_box(2))


def test_count_by_cell_fig7():
    assert count_by_cell(fig7_dataset()) == {2: 3, 6: 2, 7: 1}


def test_count_by_cell_empty():
    ds = TaggedDataset.from_points(np.empty((0, 2)), unit_box(2))
    assert count_by_cell(ds) == {}


def test_count_by_cell_shard_invariant():
    for s in (1, 3, 6):
        assert count_by_cell(fig7_dataset(s)) == {2: 3, 6: 2, 7: 1}


def test_cells_to_split_threshold_strict():
    table = {1: 10}
    # the unit square's root splits its first coordinate at 0.5
    assert cells_to_split(table, unit_box(2), 5.0, CFG) == {1: (0, 0.5)}
    assert cells_to_split(table, unit_box(2), 10.0, CFG) == {}


def test_cells_to_split_depth_capped():
    table = {4: 10, 5: 10}  # depth 2
    cfg = PqmcConfig(max_depth=2)
    assert cells_to_split(table, unit_box(2), 1.0, cfg) == {}


def test_apply_splits_empty_set_is_identity():
    ds = fig7_dataset()
    assert apply_splits(ds, {}) is ds


def test_apply_splits_retags_only_split_cells():
    ds = fig7_dataset(1)
    out = apply_splits(ds, {2: (1, 0.5)})
    labels = list(out.shards[0].labels)
    # cell 2 is [0, 0.5) x [0, 1], split on y at 0.5: below -> 4, at/above -> 5
    assert labels == [4, 5, 6, 7, 6, 5]


def test_apply_splits_point_on_hyperplane_goes_right():
    pts = np.array([[0.5, 0.25], [0.49, 0.25]])
    ds = TaggedDataset.from_points(pts, unit_box(2))
    out = apply_splits(ds, {1: (0, 0.5)})
    assert list(out.shards[0].labels) == [3, 2]


def test_prune_moves_counts():
    ds = fig7_dataset()
    table = count_by_cell(ds)
    kept, passed = prune(ds, table, 10.0, {})
    assert kept.total_points() == 0
    assert passed == {2: 3, 6: 2, 7: 1}
    same, passed2 = prune(ds, table, 0.5, {})
    assert passed2 == {}
    assert same.total_points() == 6


def test_build_trivial_when_threshold_at_n():
    rng = np.random.default_rng(32)
    pts = rng.uniform(0, 1, size=(20, 2))
    res = build_threshold_tree(pts, unit_box(2), 20.0, CFG)
    assert res.iterations == 0
    assert res.final_srp.leaf_count == 1
    assert res.final_srp.counts[1] == 20


def test_build_fig7_style_matches_sequential():
    pts = fig7_dataset(1).shards[0].points
    res = build_threshold_tree(pts, unit_box(2), 2.0, CFG)
    s0 = ingest(RPTree(unit_box(2)), pts)
    seq = run_pqmc(s0, pts, SEB_PRIORITY, PqmcConfig(max_psi=2.0))
    assert res.final_srp == seq.final
    for v in res.final_srp.tree.leaves():
        assert res.final_srp.counts[v] <= 2 or res.final_srp.counts[v] == 0


def test_build_threshold_equals_sequential_random():
    for seed in range(8):
        pts, box, threshold, seq = seb_instance(seed)
        res = build_threshold_tree(pts, box, threshold, CFG,
                                   shard_count=3)
        assert res.final_srp == seq.final
        path = reconstruct_path(res)
        assert path.had_ties == seq.had_ties
        states = path.states()
        assert len(states) == len(seq)
        for a, b in zip(states, seq.states()):
            assert a == b


def test_build_shard_invariance_small():
    rng = np.random.default_rng(33)
    pts = random_points(rng, 2000, 2)
    box = bounding_box(pts)
    results = [
        build_threshold_tree(pts, box, 50.0, CFG, shard_count=s)
        for s in (1, 2, 4, 8)
    ]
    for r in results[1:]:
        assert r.final_srp == results[0].final_srp
        assert r.passed_counts == results[0].passed_counts
        assert r.iterations == results[0].iterations


def test_build_conservation_every_iteration():
    rng = np.random.default_rng(35)
    pts = random_points(rng, 3000, 3)
    box = bounding_box(pts)
    res = build_threshold_tree(pts, box, 25.0, CFG, shard_count=4)
    assert res.stats, "expected at least one iteration"
    for st in res.stats:
        assert st.working_points + st.passed_points == len(pts)


def test_build_computes_cell_bounds_once_per_iteration(monkeypatch):
    # cells_to_split hands its split planes to apply_splits, so each
    # iteration needs one batch, plus the final one that finds no cell
    import rphist.distributed as distributed

    calls = 0
    real = distributed.cell_bounds

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(distributed, "cell_bounds", counted)
    rng = np.random.default_rng(39)
    pts = random_points(rng, 2000, 2)
    res = build_threshold_tree(pts, bounding_box(pts), 20.0, CFG, shard_count=2)
    assert res.iterations > 3
    assert calls == res.iterations + 1


def test_build_depth_capped_equals_sequential_terminal_state():
    # over-threshold cells at the depth cap stay leaves, as in the chain
    rng = np.random.default_rng(36)
    pts = rng.uniform(0, 1, size=(50, 2))
    cfg = PqmcConfig(max_depth=2)
    res = build_threshold_tree(pts, unit_box(2), 2.0, cfg)
    s0 = ingest(RPTree(unit_box(2)), pts)
    seq = run_pqmc(s0, pts, SEB_PRIORITY, PqmcConfig(max_psi=2.0, max_depth=2))
    assert res.final_srp == seq.final
    assert max(res.final_srp.counts[v] for v in res.final_srp.tree.leaves()) > 2.0


def test_build_on_duplicate_rows_equals_sequential_terminal_state():
    # 200 copies of one row can never be separated: the cell holding them
    # is split until machine precision runs out and then stays a leaf
    rng = np.random.default_rng(37)
    pts = np.vstack([rng.standard_normal((5000, 2)),
                     np.repeat([[0.3, -0.7]], 200, axis=0)])
    box = bounding_box(pts)
    carve = carve_path(pts, PqmcConfig(max_leaves=20),
                       root_box=box)
    base = build_threshold_tree(pts, box, 50.0, CFG, shard_count=2)
    leaves = base.final_srp.tree.leaves()
    assert max(leaves).bit_length() > 100
    assert max(base.final_srp.counts[v] for v in leaves) == 200
    for threshold in (50.0, 500.0):
        for launch in launch_states(carve, 3):
            seq = run_pqmc(launch, pts, SEB_PRIORITY,
                           PqmcConfig(max_psi=threshold))
            path = reconstruct_path(base, launch, threshold)
            assert path.final == seq.final
            assert path.records == seq.records
            assert path.had_ties == seq.had_ties


def test_build_big_labels_escape_hatch():
    # two points closer than 2**-64 apart force splits past 64-bit labels
    pts = np.array([[0.0, 0.0], [2.0**-70, 0.0]])
    box = Box.from_bounds([0.0, -0.5], [1.0, 0.5])
    res = build_threshold_tree(pts, box, 1.0, CFG)
    leaves = res.final_srp.tree.leaves()
    assert max(leaves) > 2**64
    nonempty = [v for v in leaves if res.final_srp.counts[v] == 1]
    assert len(nonempty) == 2
    s0 = ingest(RPTree(box), pts)
    seq = run_pqmc(s0, pts, SEB_PRIORITY,
                   PqmcConfig(max_psi=1.0))
    assert res.final_srp == seq.final


def test_prune_on_object_dtype_labels():
    deep = 2**100 + 5
    labels = np.array([deep, deep, 3], dtype=object)
    pts = np.zeros((3, 2))
    ds = TaggedDataset((Shard(labels, pts),), unit_box(2))
    table = count_by_cell(ds)
    assert table == {deep: 2, 3: 1}
    kept, passed = prune(ds, table, 1.0, {})
    assert passed == {3: 1}
    assert list(kept.shards[0].labels) == [deep, deep]


def test_order_invariance_random_schedulers():
    rng = np.random.default_rng(37)
    pts = random_points(rng, 800, 2)
    box = bounding_box(pts)
    reference = build_threshold_tree(pts, box, 30.0, CFG)
    for trial in range(6):
        order_rng = np.random.default_rng(1000 + trial)
        ds = TaggedDataset.from_points(pts, box, shard_count=2)
        while True:
            table = count_by_cell(ds)
            eligible = cells_to_split(table, box, 30.0, CFG)
            if not eligible:
                break
            pool = sorted(eligible)
            k = int(order_rng.integers(1, len(pool) + 1))
            chosen = {pool[i]: eligible[pool[i]]
                      for i in order_rng.choice(len(pool), size=k, replace=False)}
            ds = apply_splits(ds, chosen)
        final = assemble_srp(box, count_by_cell(ds))
        assert final == reference.final_srp


def test_backtrack_root_only():
    pts = np.array([[0.5, 0.5]])
    res = build_threshold_tree(pts, unit_box(2), 5.0, CFG)
    seq = reconstruct_path(res).states()
    assert len(seq) == 1
    assert seq[0] == res.final_srp


def test_backtrack_merge_order_ascending_parent_priority():
    pts, box, threshold, _ = seb_instance(0)
    res = build_threshold_tree(pts, box, threshold, CFG)
    # merge order is the reversed path: from the final SRP down to the root
    states = reconstruct_path(res).states()[::-1]
    merged_counts = []
    for before, after in zip(states, states[1:]):
        gone = before.tree.nodes - after.tree.nodes
        p = min(gone) // 2
        merged_counts.append(before.counts[p])
    assert merged_counts == sorted(merged_counts)


def test_reconstruct_path_from_launch_state():
    # tributary from a carved state: parallel rebuild equals sequential
    for seed in range(100, 103):
        pts, box, threshold, _ = seb_instance(seed)
        s0 = ingest(RPTree(box), pts)
        carve = run_pqmc(s0, pts, SPC_PRIORITY,
                         PqmcConfig(max_leaves=4))
        launch = carve.final
        seq = run_pqmc(launch, pts, SEB_PRIORITY,
                       PqmcConfig(max_psi=threshold))
        base = build_threshold_tree(pts, box, threshold, CFG,
                                    shard_count=2)
        par = reconstruct_path(base, launch, threshold)
        assert par.final == seq.final
        assert par.records == seq.records
        assert par.initial == seq.initial
        assert par.had_ties == seq.had_ties


def test_reconstruct_never_merges_into_the_launch_state():
    # adversarial layout: the launch state contains a cherry whose parent
    # count (3) is far below every count the tributary splits (>= 12); the
    # path must start from the launch state and never split its nodes again
    rng = np.random.default_rng(5)  # seed picked to keep all counts distinct
    left = rng.uniform([0.0, 0.0], [0.24, 0.49], size=(3, 2))
    right = rng.uniform([0.5, 0.0], [1.0, 1.0], size=(100, 2))
    pts = np.vstack([left, right])
    box = unit_box(2)
    launch_tree = RPTree(box).split(1).split(2)  # cherry at node 2
    launch = ingest(launch_tree, pts)
    assert launch.counts[2] == 3 and launch.counts[3] == 100

    seq = run_pqmc(launch, pts, SEB_PRIORITY,
                   PqmcConfig(max_psi=10.0))
    assert not seq.had_ties, "layout should give distinct counts"
    assert min(cl + cr for cl, cr in
               ((r.left_count, r.right_count) for r in seq.records)) > 3

    base = build_threshold_tree(pts, box, 10.0, CFG, shard_count=2)
    par = reconstruct_path(base, launch, 10.0)
    assert par.records == seq.records
    assert par.final == seq.final


@st.composite
def tied_grid_sample(draw):
    """Integer-grid points in 1-3 dimensions with many repeats of one row,
    carve-path launch states, and a threshold grid from a base threshold."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 60))
    side = draw(st.integers(2, 6))
    grid = draw(arrays(np.int64, (n, d), elements=st.integers(0, side - 1),
                       fill=st.nothing()))
    copies = draw(st.integers(0, 25))
    pts = np.vstack([grid, np.repeat(grid[:1], copies, axis=0)]).astype(float)
    # thresholds below the largest row multiplicity exhaust the depth cap;
    # thresholds up to a quarter of the rows leave several same-count cells
    most_repeated = int(np.unique(pts, axis=0, return_counts=True)[1].max())
    floor = max(1, most_repeated - 2)
    top = max(floor, len(pts) // 4)
    base_threshold = draw(st.integers(floor, top))
    higher = draw(st.lists(st.integers(base_threshold, top), max_size=2))
    thresholds = sorted({base_threshold, *higher})
    carve_leaves = draw(st.integers(1, 8))
    return pts, float(base_threshold), [float(t) for t in thresholds], carve_leaves


def _tied_grid_paths(sample, max_leaves):
    """(reconstructed, sequential) path pairs for every launch state,
    threshold and base-build shard count of a tied-grid sample."""
    pts, base_threshold, thresholds, carve_leaves = sample
    max_depth = 40  # repeated rows hit the cap fast instead of machine precision
    box = bounding_box(pts)
    carve = carve_path(pts, PqmcConfig(max_leaves=carve_leaves, max_depth=max_depth),
                       root_box=box)
    cfg = PqmcConfig(max_depth=max_depth)
    bases = [build_threshold_tree(pts, box, base_threshold, cfg,
                                  shard_count=shards) for shards in (1, 2, 3)]
    for launch in launch_states(carve, 3):
        for threshold in thresholds:
            seb_cfg = PqmcConfig(max_psi=threshold, max_leaves=max_leaves,
                                 max_depth=max_depth)
            seq = run_pqmc(launch, pts, SEB_PRIORITY, seb_cfg)
            for base in bases:
                path = reconstruct_path(base, launch, threshold)
                yield truncate_path(path, max_leaves, threshold, seb_cfg), seq


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tied_grid_sample())
def test_reconstruct_path_equals_sequential_on_tied_data(sample):
    for path, seq in _tied_grid_paths(sample, None):
        assert path.final.tree.nodes == seq.final.tree.nodes
        assert path.final == seq.final
        assert path.records == seq.records
        assert path.had_ties == seq.had_ties
        assert path.success and seq.success


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 6),
       st.one_of(st.none(), st.integers(1, 60)))
def test_tie_flag_equals_sequential_on_tied_data(seed, side, threshold, max_leaves):
    # up to a few hundred rows on a small integer grid, so counts often tie
    # (about one path in five has a tied pop)
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, side, (int(rng.integers(10, 300)), 2)).astype(float)
    sample = (pts, float(threshold), [float(threshold), threshold + 3.0],
              int(rng.integers(1, 8)))
    for path, seq in _tied_grid_paths(sample, max_leaves):
        assert path.records == seq.records
        assert path.had_ties == seq.had_ties
        assert path.success == seq.success


def test_reconstruct_path_rejects_lower_threshold():
    rng = np.random.default_rng(38)
    pts = rng.uniform(0, 1, size=(40, 2))
    launch = ingest(RPTree(unit_box(2)), pts)
    base = build_threshold_tree(pts, unit_box(2), 5.0, CFG)
    with pytest.raises(ValueError):
        reconstruct_path(base, launch, 4.0)
    with pytest.raises(ValueError):
        reconstruct_path(base, ingest(RPTree(unit_box(2)), pts[:-1]), 5.0)
    assert reconstruct_path(base, launch, 5.0).final == base.final_srp


def test_tie_flag_counts_only_cells_already_leaves():
    # four points in the four quarters of the unit square at threshold 1:
    # the root (count 4) has no rival, then halves 2 and 3 (count 2 each)
    # are both leaves, so popping 2 is tied
    pts = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
    base = build_threshold_tree(pts, unit_box(2), 1.0, CFG)
    path = reconstruct_path(base)
    assert [r.label for r in path.records] == [1, 2, 3]
    assert path.had_ties
    seq = run_pqmc(ingest(RPTree(unit_box(2)), pts), pts, SEB_PRIORITY,
                   PqmcConfig(max_psi=1.0))
    assert path.records == seq.records and seq.had_ties
    # cut before the tied pop: the root pop alone had no rival
    assert not truncate_path(path, 2, 1.0, CFG).had_ties
    assert truncate_path(path, 3, 1.0, CFG).had_ties
    # a parent and its only non-empty child share a count but never tie:
    # the child becomes a leaf only when the parent is popped
    lone = np.array([[0.1, 0.1], [0.2, 0.2]])
    path = reconstruct_path(build_threshold_tree(lone, unit_box(2), 1.0, CFG))
    assert [r.left_count + r.right_count for r in path.records] == [2] * 5
    assert not path.had_ties


def test_truncate_path():
    pts, box, threshold, seq = seb_instance(0)
    cut = truncate_path(seq, 3, threshold, CFG)
    assert cut.final.leaf_count == min(3, seq.final.leaf_count)
    if seq.final.leaf_count > 3:
        assert cut.stop_reason == "max_leaves"
        assert not cut.success  # over-threshold splittable leaves remain
    whole = truncate_path(seq, None, threshold, CFG)
    assert whole is seq
    # a launch state already over the budget fails, as in the chain, even
    # with no leaf left over the threshold
    launch = seq.final
    cfg = PqmcConfig(max_psi=threshold, max_leaves=2)
    base = build_threshold_tree(pts, box, threshold, CFG)
    over = truncate_path(reconstruct_path(base, launch, threshold), 2,
                         threshold, cfg)
    chain = run_pqmc(launch, pts, SEB_PRIORITY, cfg)
    assert over.records == chain.records == ()
    assert over.success is chain.success is False
