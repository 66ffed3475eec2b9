from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rphist.distributed as distributed
from rphist.distributed import (
    IterationStats,
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
from rphist.geometry import Box, bounding_box, bounds_volume
from rphist.pqmc import CellStore, CellTable, PqmcPath, carve_path, launch_states, run_pqmc
from rphist.srp import Histogram, histogram, inside_mask
from rphist.tree import cell_bounds

from conftest import (
    SEB_PRIORITY,
    SPC_PRIORITY,
    ChainConfig,
    SplitRecord,
    chain,
    leaf_counts,
    leaf_state,
    membership_counts,
    node_counts,
    nodes_of,
    random_points,
    records,
    seb_instance,
    stop_reason,
    tied_tree_sample,
    unit_box,
)



def fig7_dataset(shard_count=2) -> TaggedDataset:
    """Six points in the three-cell paving {2, 6, 7}: three in A=2, two
    in B=6, one in C=7, tagged with the cells' indices 0, 1 and 2.  The
    store splits the root (ids 2, 3) and then cell 3 (ids 4, 5)."""
    index = np.array([0, 0, 1, 2, 1, 0])
    pts = np.array([
        [0.1, 0.2], [0.3, 0.8], [0.6, 0.1],
        [0.7, 0.9], [0.9, 0.3], [0.2, 0.5],
    ])
    store = CellStore(unit_box(2), 6)
    store.add(np.array([1]), np.array([3]), np.array([3]))
    store.add(np.array([3]), np.array([2]), np.array([1]))
    shards = tuple(Shard(index[rows], pts[rows], np.bincount(index[rows], minlength=3))
                   for rows in np.array_split(np.arange(6), shard_count))
    return TaggedDataset(store, np.array([2, 4, 5]), shards, np.arange(4))


def bounds_of(ds: TaggedDataset) -> np.ndarray:
    """The ``lo | hi`` bounds the store holds for each working cell."""
    return ds.store.gather(ds.cells)[2]


def cell_of_each_point(ds: TaggedDataset) -> list[int | None]:
    """The label of each stored point's working cell, None if parked."""
    labels = ds.labels + [None]
    return [labels[c] for s in ds.shards for c in ds.remap[s.index].tolist()]


def test_count_by_cell_fig7():
    assert count_by_cell(fig7_dataset()).tolist() == [3, 2, 1]


def test_count_by_cell_empty():
    ds = TaggedDataset.from_table(CellTable(np.empty((0, 2)), unit_box(2)))
    assert count_by_cell(ds).tolist() == [0]


def test_count_by_cell_shard_invariant():
    for s in (1, 3, 6):
        assert count_by_cell(fig7_dataset(s)).tolist() == [3, 2, 1]


def test_cells_to_split_threshold_strict():
    ds = TaggedDataset.from_table(CellTable(np.full((10, 2), 0.3), unit_box(2)))
    counts = count_by_cell(ds)
    assert counts.tolist() == [10]
    assert cells_to_split(ds, counts, 5.0, 1000) == {1: 0}
    assert cells_to_split(ds, counts, 10.0, 1000) == {}
    # fig7: A (count 3) alone exceeds 2, and keeps its own index
    ds = fig7_dataset()
    assert cells_to_split(ds, count_by_cell(ds), 2.0, 1000) == {2: 0}
    assert cells_to_split(ds, count_by_cell(ds), 1.0, 1000) == {2: 0, 6: 1}


def test_cells_to_split_depth_capped():
    ds = fig7_dataset()  # A is at depth 1, B and C at depth 2
    counts = count_by_cell(ds)
    assert cells_to_split(ds, counts, 0.0, 2) == {2: 0}
    assert cells_to_split(ds, counts, 0.0, 1) == {}


def test_apply_splits_empty_set_is_identity():
    ds = fig7_dataset()
    assert apply_splits(ds, {}) is ds


def test_apply_splits_retags_only_split_cells():
    ds = fig7_dataset(1)
    out = apply_splits(ds, {2: 0})
    # cell 2 is [0, 0.5) x [0, 1], split on y at 0.5: below -> 4, at/above -> 5
    assert out.labels == [4, 5, 6, 7]
    assert cell_of_each_point(out) == [4, 5, 6, 7, 6, 5]
    assert out.shards[0].index.tolist() == [0, 1, 2, 3, 2, 1]
    # the children's bounds are their parent's, cut at the plane
    assert np.array_equal(bounds_of(out), np.hstack(cell_bounds(unit_box(2), out.labels)))
    # splitting every cell at once, in one or several shards, agrees
    both = {2: 0, 6: 1, 7: 2}
    for shards in (1, 2, 6):
        out = apply_splits(fig7_dataset(shards), both)
        assert out.labels == [4, 5, 12, 13, 14, 15]
        assert cell_of_each_point(out) == [4, 5, 12, 14, 13, 5]
        assert count_by_cell(out).tolist() == [1, 2, 1, 1, 1, 0]


def test_apply_splits_point_on_hyperplane_goes_right():
    pts = np.array([[0.5, 0.25], [0.49, 0.25]])
    ds = TaggedDataset.from_table(CellTable(pts, unit_box(2)))
    out = apply_splits(ds, cells_to_split(ds, count_by_cell(ds), 1.0, 1000))
    assert cell_of_each_point(out) == [3, 2]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(tied_tree_sample(), st.integers(1, 8), st.sampled_from([1, 3]))
def test_build_counts_equal_brute_force_membership_on_tied_rows(sample, threshold, shards):
    # the sharded step's routing against each cell's own half-open bounds
    box, _, pts = sample
    pts = pts[inside_mask(box, pts)]
    res = build_threshold_tree(CellTable(pts, box), float(threshold), max_depth=30,
                               shard_count=shards)
    cells = dict(zip(res.cells.labels[1:], res.cells.count[1:].tolist()))
    assert cells == membership_counts(box, cells, pts)
    final = assemble_srp(res.cells)
    assert node_counts(final) == membership_counts(box, nodes_of(final.leaves.labels), pts)


def test_prune_moves_counts():
    for shards in (1, 2, 6):
        ds = fig7_dataset(shards)
        counts = count_by_cell(ds)
        keep = counts > 1.0
        kept = prune(ds, keep)
        assert kept.labels == [2, 6]
        assert count_by_cell(kept).tolist() == counts[keep].tolist()
        # no point moves: the point of the retired cell 7 is parked
        assert cell_of_each_point(kept) == [2, 2, 6, None, 6, 2]
        assert all(a.points is b.points and a.index is b.index
                   for a, b in zip(kept.shards, ds.shards))
        assert np.array_equal(bounds_of(kept), bounds_of(ds)[keep])
        assert prune(ds, counts > 0.5) is ds
        gone = prune(ds, counts > 10.0)
        assert gone.labels == [] and cell_of_each_point(gone) == [None] * 6
        assert count_by_cell(gone).tolist() == []
        # the next split leaves the parked point parked, unless its shard
        # (of one point, with 6 shards) then holds no working point
        out = apply_splits(kept, {2: 0})
        assert out.labels == [4, 5, 6]
        parked = [] if shards == 6 else [None]
        assert cell_of_each_point(out) == [4, 5, 6, *parked, 6, 5]
        assert count_by_cell(out).tolist() == [1, 2, 2]


def test_apply_splits_compacts_a_shard_below_half():
    # only B (label 6) is kept: two of the six points stay working
    for shards, rows in ((1, [2]), (2, [1, 1]), (6, [0, 0, 1, 0, 1, 0])):
        ds = prune(fig7_dataset(shards), np.array([False, True, False]))
        out = apply_splits(ds, {6: 0})
        assert out.labels == [12, 13]
        assert count_by_cell(out).tolist() == [1, 1]
        # every shard held fewer working points than half its rows
        assert [len(s.points) for s in out.shards] == rows
        assert cell_of_each_point(out) == [12, 13]
        assert np.array_equal(out.remap, np.arange(3))


def test_build_trivial_when_threshold_at_n():
    rng = np.random.default_rng(32)
    pts = rng.uniform(0, 1, size=(20, 2))
    res = build_threshold_tree(CellTable(pts, unit_box(2)), 20.0)
    assert res.iterations == 0
    assert assemble_srp(res.cells).leaf_count == 1
    assert leaf_counts(assemble_srp(res.cells)) == {1: 20}


def test_build_fig7_style_matches_sequential():
    pts = fig7_dataset(1).shards[0].points
    res = build_threshold_tree(CellTable(pts, unit_box(2)), 2.0)
    s0 = leaf_state(unit_box(2), [1], pts)
    seq = chain(s0, CellTable(pts, unit_box(2)), SEB_PRIORITY, ChainConfig(max_psi=2.0))
    assert assemble_srp(res.cells) == seq.final
    assert all(c <= 2 for c in leaf_counts(res.path.final).values())


def test_build_threshold_equals_sequential_random():
    for seed in range(8):
        pts, box, threshold, seq = seb_instance(seed)
        res = build_threshold_tree(CellTable(pts, box), threshold,
                                   shard_count=3)
        assert assemble_srp(res.cells) == seq.final
        path = reconstruct_path(res.path)
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
        build_threshold_tree(CellTable(pts, box), 50.0, shard_count=s)
        for s in (1, 2, 4, 8)
    ]
    for r in results[1:]:
        assert r.path.final == results[0].path.final
        assert r.stats == results[0].stats
        assert r.iterations == results[0].iterations


def test_build_conservation_every_iteration():
    rng = np.random.default_rng(35)
    pts = random_points(rng, 3000, 3)
    box = bounding_box(pts)
    res = build_threshold_tree(CellTable(pts, box), 25.0, shard_count=4)
    assert res.stats, "expected at least one iteration"
    for st in res.stats:
        assert st.working_points + st.passed_points == len(pts)


def test_build_decodes_no_label(monkeypatch):
    # the store plans every cell's bounds from its parent's: no label,
    # not even the root's, is located from its bits
    import rphist.distributed as distributed
    import rphist.pqmc as pqmc

    calls = 0
    real = distributed.cell_bounds

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    for module in (distributed, pqmc):
        monkeypatch.setattr(module, "cell_bounds", counted)
    rng = np.random.default_rng(39)
    pts = random_points(rng, 2000, 2)
    res = build_threshold_tree(CellTable(pts, bounding_box(pts)), 20.0, shard_count=2)
    assert res.iterations > 3
    reconstruct_path(res.path)
    assert calls == 0


def test_build_opens_at_most_one_thread_pool(monkeypatch):
    import rphist.distributed as distributed

    pools = []
    real = distributed.ThreadPoolExecutor

    def counted(*args, **kwargs):
        pools.append(real(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(distributed, "ThreadPoolExecutor", counted)
    rng = np.random.default_rng(41)
    pts = random_points(rng, 2000, 2)
    box = bounding_box(pts)
    serial = build_threshold_tree(CellTable(pts, box), 20.0, shard_count=3)
    assert pools == []
    threaded = build_threshold_tree(CellTable(pts, box), 20.0, shard_count=3, workers=2)
    assert threaded.iterations > 3 and len(pools) == 1
    assert threaded.path.final == serial.path.final
    assert threaded.stats == serial.stats


@pytest.mark.parametrize("block", [1, 7, 64])
def test_shard_step_in_blocks_routes_as_one_block(monkeypatch, block):
    # a shard steps through its rows in blocks: blocks of a few rows, some
    # shorter than a shard and none aligned with it, give every step the
    # tags, points and counts of one block per shard, parking included
    rows = np.round(np.random.default_rng(42).standard_normal((400, 2)), 1)
    pts = np.vstack([rows, np.repeat(rows[:1], 40, axis=0)])
    table = CellTable(pts, bounding_box(pts))
    steps = {}
    real = distributed.apply_splits

    def record(ds, split, pool=None):
        out = real(ds, split, pool)
        steps.setdefault(distributed.STEP_BLOCK, []).append(
            [(s.index.tolist(), s.points.tolist(), s.counts.tolist()) for s in out.shards])
        return out

    monkeypatch.setattr(distributed, "apply_splits", record)
    whole = build_threshold_tree(table, 5.0, max_depth=40, shard_count=3, workers=2)
    monkeypatch.setattr(distributed, "STEP_BLOCK", block)
    blocked = build_threshold_tree(table, 5.0, max_depth=40, shard_count=3, workers=2)
    assert steps[block] == steps[1 << 18] and len(steps[block]) > 3
    assert sum(len(shard[1]) for shard in steps[block][-1]) < len(pts)  # parked rows dropped
    assert blocked.path == whole.path and blocked.stats == whole.stats


def test_build_depth_capped_equals_sequential_terminal_state():
    # over-threshold cells at the depth cap stay leaves, as in the chain
    rng = np.random.default_rng(36)
    pts = rng.uniform(0, 1, size=(50, 2))
    res = build_threshold_tree(CellTable(pts, unit_box(2)), 2.0, max_depth=2)
    s0 = leaf_state(unit_box(2), [1], pts)
    seq = chain(s0, CellTable(pts, unit_box(2)), SEB_PRIORITY,
                ChainConfig(max_psi=2.0, max_depth=2))
    assert assemble_srp(res.cells) == seq.final
    assert max(leaf_counts(res.path.final).values()) > 2.0


def test_build_on_duplicate_rows_equals_sequential_terminal_state():
    # 200 copies of one row can never be separated: the cell holding them
    # is split until machine precision runs out and then stays a leaf
    rng = np.random.default_rng(37)
    pts = np.vstack([rng.standard_normal((5000, 2)),
                     np.repeat([[0.3, -0.7]], 200, axis=0)])
    box = bounding_box(pts)
    carve = carve_path(CellTable(pts, box), 20)
    base = build_threshold_tree(CellTable(pts, box), 50.0, shard_count=2)
    final = leaf_counts(base.path.final)
    assert max(final).bit_length() > 100
    assert max(final.values()) == 200
    for threshold in (50.0, 500.0):
        for launch in launch_states(carve, 3):
            seq = chain(launch, CellTable(pts, launch.root_box), SEB_PRIORITY,
                        ChainConfig(max_psi=threshold))
            path = truncate_path(reconstruct_path(base.path, launch), threshold, None)
            assert path.final == seq.final
            assert records(path) == records(seq)
            assert path.had_ties == seq.had_ties


def test_build_big_labels_escape_hatch():
    # two points closer than 2**-64 apart force splits past 64-bit labels
    pts = np.array([[0.0, 0.0], [2.0**-70, 0.0]])
    box = Box.from_bounds([0.0, -0.5], [1.0, 0.5])
    res = build_threshold_tree(CellTable(pts, box), 1.0)
    final = leaf_counts(res.path.final)
    assert max(final) > 2**64
    nonempty = [v for v, c in final.items() if c == 1]
    assert len(nonempty) == 2
    s0 = leaf_state(box, [1], pts)
    seq = chain(s0, CellTable(pts, s0.root_box), SEB_PRIORITY,
                ChainConfig(max_psi=1.0))
    assert assemble_srp(res.cells) == seq.final


def test_build_labels_past_64_bits_equal_sequential():
    # rows 2**-70 apart split cells far past 64-bit labels, and a row
    # repeated 3 times is split until the floats run out
    rng = np.random.default_rng(40)
    pts = np.vstack([rng.uniform(0, 1, size=(40, 2)),
                     [[0.0, 0.0], [2.0**-70, 0.0], [0.0, 2.0**-68]],
                     np.repeat([[0.3, 0.7]], 3, axis=0)])
    box = Box.from_bounds([0.0, -0.5], [1.0, 1.0])
    seq = chain(leaf_state(box, [1], pts), CellTable(pts, box), SEB_PRIORITY,
                ChainConfig(max_psi=1.0))
    assert max(seq.final.leaves.labels) > 2**64
    for shards in (1, 3):
        res = build_threshold_tree(CellTable(pts, box), 1.0, shard_count=shards)
        assert assemble_srp(res.cells) == seq.final
        assert records(reconstruct_path(res.path)) == records(seq)


def test_order_invariance_random_schedulers():
    rng = np.random.default_rng(37)
    pts = random_points(rng, 800, 2)
    box = bounding_box(pts)
    reference = build_threshold_tree(CellTable(pts, box), 30.0)
    for trial in range(6):
        order_rng = np.random.default_rng(1000 + trial)
        ds = TaggedDataset.from_table(CellTable(pts, box), shard_count=2)
        while True:
            counts = count_by_cell(ds)
            eligible = cells_to_split(ds, counts, 30.0, 1000)
            if not eligible:
                break
            pool = sorted(eligible)
            k = int(order_rng.integers(1, len(pool) + 1))
            chosen = {pool[i]: eligible[pool[i]]
                      for i in order_rng.choice(len(pool), size=k, replace=False)}
            ds = apply_splits(ds, chosen)
        # the random order's store: parents come before children, not
        # every id rises with its label
        assert assemble_srp(ds.store) == assemble_srp(reference.cells)


def test_backtrack_root_only():
    pts = np.array([[0.5, 0.5]])
    res = build_threshold_tree(CellTable(pts, unit_box(2)), 5.0)
    seq = reconstruct_path(res.path).states()
    assert len(seq) == 1
    assert seq[0] == assemble_srp(res.cells)


def test_backtrack_merge_order_ascending_parent_priority():
    pts, box, threshold, _ = seb_instance(0)
    res = build_threshold_tree(CellTable(pts, box), threshold)
    # merge order is the reversed path: from the final state down to the root
    states = reconstruct_path(res.path).states()[::-1]
    merged_counts = []
    for before, after in zip(states, states[1:]):
        gone = set(before.leaves.labels) - set(after.leaves.labels)
        p = min(gone) // 2
        merged_counts.append(leaf_counts(after)[p])
    assert merged_counts == sorted(merged_counts)


def test_reconstruct_path_from_launch_state():
    # tributary from a carved state: parallel rebuild equals sequential
    for seed in range(100, 103):
        pts, box, threshold, _ = seb_instance(seed)
        s0 = leaf_state(box, [1], pts)
        carve = chain(s0, CellTable(pts, s0.root_box), SPC_PRIORITY,
                      ChainConfig(max_leaves=4))
        launch = carve.final
        seq = chain(launch, CellTable(pts, launch.root_box), SEB_PRIORITY,
                    ChainConfig(max_psi=threshold))
        base = build_threshold_tree(CellTable(pts, box), threshold,
                                    shard_count=2)
        par = reconstruct_path(base.path, launch)
        assert par.final == seq.final
        assert records(par) == records(seq)
        assert par.initial == seq.initial
        assert par.had_ties == seq.had_ties
        with pytest.raises(ValueError):  # a path that does not start at the root
            reconstruct_path(par, launch)


def test_reconstruct_never_merges_into_the_launch_state():
    # adversarial layout: the launch state contains a cherry whose parent
    # count (3) is far below every count the tributary splits (>= 12); the
    # path must start from the launch state and never split its nodes again
    rng = np.random.default_rng(5)  # seed picked to keep all counts distinct
    left = rng.uniform([0.0, 0.0], [0.24, 0.49], size=(3, 2))
    right = rng.uniform([0.5, 0.0], [1.0, 1.0], size=(100, 2))
    pts = np.vstack([left, right])
    box = unit_box(2)
    launch = leaf_state(box, [3, 4, 5], pts)  # cherry at node 2
    assert node_counts(launch)[2] == 3 and leaf_counts(launch)[3] == 100

    seq = chain(launch, CellTable(pts, launch.root_box), SEB_PRIORITY,
                ChainConfig(max_psi=10.0))
    assert not seq.had_ties, "layout should give distinct counts"
    assert min(cl + cr for cl, cr in
               ((r.left_count, r.right_count) for r in records(seq))) > 3

    base = build_threshold_tree(CellTable(pts, box), 10.0, shard_count=2)
    par = reconstruct_path(base.path, launch)
    assert records(par) == records(seq)
    assert par.final == seq.final


@st.composite
def tied_grid_sample(draw):
    """Integer-grid points in 1-3 dimensions with many repeats of one row,
    carve-path launch states, and a base threshold with one or two
    thresholds above it."""
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
    # at least one path to a threshold above the base build's, which then
    # stops before the base build's last splits; no path splits at len(pts)
    higher = draw(st.lists(st.integers(base_threshold + 1, len(pts)), min_size=1,
                           max_size=2))
    thresholds = sorted({base_threshold, *higher})
    carve_leaves = draw(st.integers(1, 8))
    return pts, float(base_threshold), [float(t) for t in thresholds], carve_leaves


def _tied_grid_paths(sample, max_leaves):
    """(reconstructed, sequential) path pairs for every launch state,
    threshold and base-build shard count of a tied-grid sample."""
    pts, base_threshold, thresholds, carve_leaves = sample
    max_depth = 40  # repeated rows hit the cap fast instead of machine precision
    box = bounding_box(pts)
    carve = carve_path(CellTable(pts, box), carve_leaves, max_depth)
    table = CellTable(pts, box)
    bases = [build_threshold_tree(table, base_threshold, max_depth, shard_count=shards)
             for shards in (1, 2, 3)]
    for launch in launch_states(carve, 3):
        for threshold in thresholds:
            seb_cfg = ChainConfig(max_psi=threshold, max_leaves=max_leaves,
                                  max_depth=max_depth)
            seq = chain(launch, CellTable(pts, launch.root_box), SEB_PRIORITY, seb_cfg)
            for base in bases:
                yield truncate_path(reconstruct_path(base.path, launch), threshold, max_leaves), seq


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tied_grid_sample())
def test_reconstruct_path_equals_sequential_on_tied_data(sample):
    for path, seq in _tied_grid_paths(sample, None):
        assert path.final.leaves.labels == seq.final.leaves.labels
        assert path.final == seq.final
        assert records(path) == records(seq)
        assert path.had_ties == seq.had_ties
        assert path.success and seq.success


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tied_grid_sample(), st.sampled_from([6, 12, 40]))
def test_root_chain_equals_root_build_and_per_launch_chains(sample, max_depth):
    # the sequential chain from the root, on the carve's shared table, is
    # the build's path; the path that either gives each launch state, cut
    # at every threshold and budget, is the chain run from that state
    pts, low, thresholds, carve_leaves = sample
    box = bounding_box(pts)
    table = CellTable(pts, box)
    carve = carve_path(table, carve_leaves, max_depth)
    roots = [run_pqmc(table, low, max_depth),
             build_threshold_tree(table, low, max_depth=max_depth, shard_count=2).path]
    assert roots[0] == roots[1]
    for launch in launch_states(carve, 3):
        wholes = [reconstruct_path(root, launch) for root in roots]
        for threshold in thresholds:
            for max_leaves in (None, launch.leaf_count + 2):
                seq = chain(launch, table, SEB_PRIORITY, ChainConfig(
                    max_psi=threshold, max_leaves=max_leaves, max_depth=max_depth))
                for whole in wholes:
                    assert truncate_path(whole, threshold, max_leaves) == seq
                if (threshold, max_leaves) == (low, None):
                    assert wholes[0] == seq == wholes[1]


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
        assert records(path) == records(seq)
        assert path.had_ties == seq.had_ties
        assert path.success == seq.success


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tied_grid_sample())
def test_cut_path_equals_sequential_on_tied_data(sample):
    # one chain per launch state to the lowest threshold, cut at every
    # threshold, against a chain per threshold; budgets below, at and
    # above the launch state's leaf count, and none
    pts, low, _, carve_leaves = sample
    max_depth = 40
    carve = carve_path(CellTable(pts, bounding_box(pts)), carve_leaves, max_depth)
    for launch in launch_states(carve, 3):
        m0 = launch.leaf_count
        unbudgeted = chain(launch, CellTable(pts, launch.root_box), SEB_PRIORITY,
                           ChainConfig(max_psi=low, max_depth=max_depth))
        # a path only depends on which of the counts it pops exceed the
        # threshold: the counts themselves stand for every threshold
        thresholds = sorted({low, *(float(r.left_count + r.right_count)
                                    for r in records(unbudgeted))})
        for max_leaves in (None, max(1, m0 - 1), m0, m0 + 1, m0 + 4):
            whole = chain(launch, CellTable(pts, launch.root_box), SEB_PRIORITY, ChainConfig(
                max_psi=low, max_leaves=max_leaves, max_depth=max_depth))
            for threshold in thresholds:
                cfg = ChainConfig(max_psi=threshold, max_leaves=max_leaves,
                                  max_depth=max_depth)
                seq = chain(launch, CellTable(pts, launch.root_box), SEB_PRIORITY, cfg)
                for path in (truncate_path(whole, threshold, max_leaves),
                             truncate_path(unbudgeted, threshold, max_leaves)):
                    assert records(path) == records(seq)
                    assert path.success == seq.success
                    assert path.had_ties == seq.had_ties
                    assert stop_reason(path) == stop_reason(seq)


def test_cut_path_rejects_lower_threshold():
    rng = np.random.default_rng(38)
    pts = rng.uniform(0, 1, size=(40, 2))
    launch = leaf_state(unit_box(2), [1], pts)
    base = build_threshold_tree(CellTable(pts, unit_box(2)), 5.0)
    whole = reconstruct_path(base.path, launch)
    assert whole.final == assemble_srp(base.cells)
    seq = chain(launch, CellTable(pts, launch.root_box), SEB_PRIORITY, ChainConfig(max_psi=5.0))
    for path in (whole, seq, truncate_path(whole, 8.0, None)):
        with pytest.raises(ValueError):
            truncate_path(path, 4.0, None)
    assert truncate_path(whole, 5.0, None) == whole
    with pytest.raises(ValueError):
        reconstruct_path(base.path, leaf_state(unit_box(2), [1], pts[:-1]))


def test_cut_path_rejects_another_budget():
    # a chain stopped on its leaf budget lacks the pops that a larger
    # budget, or none, would take
    rng = np.random.default_rng(38)
    pts = rng.uniform(0, 1, size=(40, 2))
    launch = leaf_state(unit_box(2), [1], pts)
    budgeted = chain(launch, CellTable(pts, launch.root_box), SEB_PRIORITY,
                     ChainConfig(max_psi=2.0, max_leaves=6))
    assert stop_reason(budgeted) == "max_leaves" and not budgeted.success
    for max_leaves in (None, 5, 7):
        with pytest.raises(ValueError):
            truncate_path(budgeted, 2.0, max_leaves)
    assert truncate_path(budgeted, 2.0, 6) == budgeted
    with pytest.raises(ValueError):  # a root path under a budget lacks pops
        reconstruct_path(budgeted)
    # a whole path with no budget can be cut at any
    whole = reconstruct_path(build_threshold_tree(CellTable(pts, unit_box(2)), 2.0).path, launch)
    cut = truncate_path(whole, 2.0, 6)
    assert (records(cut), stop_reason(cut), cut.success, cut.had_ties) == (
        records(budgeted), stop_reason(budgeted), budgeted.success, budgeted.had_ties)


def test_budget_cut_materializes_no_state(monkeypatch):
    # the flags of a cut come from the whole path's records, next pop and
    # first tie; no state of the path is built
    pts, box, threshold, seq = seb_instance(0)
    whole = reconstruct_path(build_threshold_tree(CellTable(pts, box), threshold).path)
    m = len(seq)
    chains = {(t, b): chain(seq.initial, CellTable(pts, seq.initial.root_box), SEB_PRIORITY,
                            ChainConfig(max_psi=t, max_leaves=b))
              for t in (threshold, 2 * threshold) for b in (2, m // 2, m, m + 1)}
    assert {c.success for c in chains.values()} == {True, False}

    def no_state(self, t):
        raise AssertionError("the cut materialized a state")

    monkeypatch.setattr(PqmcPath, "state", no_state)
    for (t, b), ref in chains.items():
        for path in (truncate_path(seq, t, b), truncate_path(whole, t, b)):
            assert records(path) == records(ref)
            assert path.success == ref.success
            assert path.had_ties == ref.had_ties
            assert stop_reason(path) == stop_reason(ref)


def test_tie_flag_counts_only_cells_already_leaves():
    # four points in the four quarters of the unit square at threshold 1:
    # the root (count 4) has no rival, then halves 2 and 3 (count 2 each)
    # are both leaves, so popping 2 is tied
    pts = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
    base = build_threshold_tree(CellTable(pts, unit_box(2)), 1.0)
    path = reconstruct_path(base.path)
    assert [r.label for r in records(path)] == [1, 2, 3]
    assert path.had_ties
    seq = chain(leaf_state(unit_box(2), [1], pts), CellTable(pts, unit_box(2)), SEB_PRIORITY,
                ChainConfig(max_psi=1.0))
    assert records(path) == records(seq) and seq.had_ties
    # cut before the tied pop: the root pop alone had no rival
    assert not truncate_path(path, 1.0, 2).had_ties
    assert truncate_path(path, 1.0, 3).had_ties
    # a parent and its only non-empty child share a count but never tie:
    # the child becomes a leaf only when the parent is popped
    lone = np.array([[0.1, 0.1], [0.2, 0.2]])
    path = reconstruct_path(build_threshold_tree(CellTable(lone, unit_box(2)), 1.0).path)
    assert [r.left_count + r.right_count for r in records(path)] == [2] * 5
    assert not path.had_ties


def test_truncate_path():
    pts, box, threshold, seq = seb_instance(0)
    cut = truncate_path(seq, threshold, 3)
    assert cut.final.leaf_count == min(3, seq.final.leaf_count)
    if seq.final.leaf_count > 3:
        assert stop_reason(cut) == "max_leaves"
        assert not cut.success  # over-threshold splittable leaves remain
    assert truncate_path(seq, threshold, None) == seq
    # a launch state already over the budget fails, as in the chain, even
    # with no leaf left over the threshold
    launch = seq.final
    cfg = ChainConfig(max_psi=threshold, max_leaves=2)
    base = build_threshold_tree(CellTable(pts, box), threshold)
    over = truncate_path(reconstruct_path(base.path, launch), threshold, 2)
    ref = chain(launch, CellTable(pts, launch.root_box), SEB_PRIORITY, cfg)
    assert records(over) == records(ref) == ()
    assert over.success is ref.success is False


def _stats_of(final, threshold: float) -> tuple[IterationStats, ...]:
    """The iteration stats of a root build, read off its terminal state.

    Iteration ``t`` splits the internal nodes at depth ``t - 1``.  Then
    the working cells are the nodes at depth ``t`` and the leaves above
    the threshold that could not be split, and the points passed are
    those of the leaves at or below the threshold up to depth ``t - 1``.
    """
    counts = node_counts(final)
    leaves = final.leaves.labels
    internal = set(counts) - set(leaves)
    stats = []
    for t in range(1, max((v.bit_length() for v in internal), default=0) + 1):
        working = [counts[v] for v in counts if v.bit_length() == t + 1]
        working += [counts[v] for v in leaves
                    if counts[v] > threshold and v.bit_length() <= t]
        stats.append(IterationStats(
            split_cells=sum(1 for v in internal if v.bit_length() == t),
            working_points=sum(working),
            passed_points=sum(counts[v] for v in leaves
                              if counts[v] <= threshold and v.bit_length() <= t),
            nonempty_cells=sum(1 for c in working if c),
        ))
    return tuple(stats)


@st.composite
def tied_rows_sample(draw):
    """Rows on a 4-step grid in 1-3 dimensions with one row repeated, in
    the box of the grid, and a threshold.  With step 1 a cell of copies
    splits past 63-bit labels, to the depth cap or until the floats run
    out; with an ulp of 1.0 as the step it runs out after a few splits."""
    d = draw(st.integers(1, 3))
    grid = draw(arrays(np.int64, (draw(st.integers(1, 80)), d),
                       elements=st.integers(0, 3), fill=st.nothing()))
    pts = np.vstack([grid, np.repeat(grid[:1], draw(st.integers(0, 30)), axis=0)])
    lo, step = draw(st.sampled_from([(0.0, 1.0), (1.0, 2.0**-52)]))
    box = Box.from_bounds([lo] * d, [lo + 4 * step] * d)
    return lo + pts * step, box, float(draw(st.integers(1, 12)))


def test_build_equals_sequential_chain_on_tied_rows():
    # every shard and worker count gives the sequential chain's terminal
    # state and the stats read off it; count the builds that compact a
    # shard, leave a shard with no working point, and split past 2**63
    seen = {"compacted": 0, "shard_without_work": 0, "labels_past_2**63": 0}
    hit: set = set()
    real = distributed.apply_splits

    def spy(ds, split, pool=None):
        out = real(ds, split, pool)
        for before, after in zip(ds.shards, out.shards):
            if len(after.points) < len(before.points):
                hit.add("compacted")
            if len(before.points) and not after.counts.any():
                hit.add("shard_without_work")
        return out

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(tied_rows_sample())
    def check(sample):
        pts, box, threshold = sample
        table = CellTable(pts, box)
        seq = chain(leaf_state(box, [1], pts), table, SEB_PRIORITY,
                    ChainConfig(max_psi=threshold, max_depth=80))
        stats = _stats_of(seq.final, threshold)
        hit.clear()
        with mock.patch.object(distributed, "apply_splits", spy):
            for shards in (1, 2, 5):
                for workers in (1, 2):
                    res = build_threshold_tree(table, threshold, max_depth=80,
                                               shard_count=shards, workers=workers)
                    assert assemble_srp(res.cells) == seq.final
                    assert res.stats == stats
        if max(seq.final.leaves.labels) >= 2**63:
            hit.add("labels_past_2**63")
        for key in hit:
            seen[key] += 1

    check()
    print(seen)
    assert min(seen.values()) > 0


def _seb_records(base, launch):
    """The SEB path from ``launch`` as split records: the base build's
    internal nodes sorted by ``(-count, label)``, without those internal
    in ``launch`` (the record-by-record form that the rows replace)."""
    counts = node_counts(base.path.final)
    split = sorted(set(counts) - set(base.path.final.leaves.labels),
                   key=lambda p: (-counts[p], p))
    nodes = nodes_of(launch.leaves.labels)
    return tuple(SplitRecord(p, counts[2 * p], counts[2 * p + 1]) for p in split
                 if 2 * p not in nodes)


def test_build_store_ids_rise_with_labels_on_tied_rows():
    # the build's store: ids rise with labels, each split cell's bounds
    # are those its label decodes to, bit for bit, and the SEB order is
    # the (-count, label) sort; count the examples with cells stuck at
    # the depth cap, cells the floats cannot bisect, and labels >= 2**63
    seen = {"depth_cap": 0, "unbisectable": 0, "labels_past_2**63": 0}

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(tied_rows_sample(), st.sampled_from([10, 70]))
    def check(sample, max_depth):
        pts, box, threshold = sample
        hit = set()
        for shards in (1, 2, 5):
            res = build_threshold_tree(CellTable(pts, box), threshold, max_depth=max_depth,
                                       shard_count=shards)
            cells = res.cells
            labels = cells.labels
            assert all(a < b for a, b in zip(labels, labels[1:]))
            kid = np.frombuffer(cells.kid, np.int64)
            split = np.flatnonzero(kid)
            ref_lo, ref_hi = cell_bounds(box, [labels[i] for i in split])
            _, _, bounds, vols = cells.gather(split)
            assert np.array_equal(bounds, np.hstack([ref_lo, ref_hi]))
            assert vols.tobytes() == bounds_volume(ref_lo, ref_hi).tobytes()
            order = res.path.rows
            split_records = tuple(SplitRecord(labels[i], cl, cr) for i, cl, cr in zip(
                order.tolist(), *(c.tolist() for c in cells.split_counts(order))))
            assert split_records == _seb_records(res, res.path.initial)
            stuck = (kid == 0) & (np.frombuffer(cells.count, np.int64) > threshold)
            for i in np.flatnonzero(stuck).tolist():
                hit.add("depth_cap" if labels[i].bit_length() > max_depth else "unbisectable")
            if labels[-1] >= 2**63:
                hit.add("labels_past_2**63")
        for key in hit:
            seen[key] += 1

    check()
    print(seen)
    assert min(seen.values()) > 0


def _first_tie_by_loop(initial, records) -> int:
    """Reference for the first tied pop of a whole SEB path: the loop over
    records that the vectorized form replaces."""
    step = {rec.label: i for i, rec in enumerate(records)}
    nodes = nodes_of(initial.leaves.labels)
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
        ready = min(ready, 0 if v in nodes else step[v >> 1] + 1)
    return first


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tied_grid_sample())
def test_row_paths_equal_record_paths_on_tied_data(sample):
    # the rows of a reconstructed path, its cuts and its first tied pop
    # against the records and the loop they replace
    pts, base_threshold, thresholds, carve_leaves = sample
    max_depth = 40
    box = bounding_box(pts)
    carve = carve_path(CellTable(pts, box), carve_leaves, max_depth)
    base = build_threshold_tree(CellTable(pts, box), base_threshold, max_depth=max_depth,
                                shard_count=2)
    for launch in launch_states(carve, 3):
        whole = reconstruct_path(base.path, launch)
        expected = _seb_records(base, launch)
        assert records(whole) == expected
        assert whole.first_tie == _first_tie_by_loop(launch, expected)
        for threshold in thresholds:
            for max_leaves in (None, launch.leaf_count + 2):
                cut = truncate_path(whole, threshold, max_leaves)
                assert records(cut) == expected[:cut.split_count]
                assert all(r.left_count + r.right_count > threshold for r in records(cut))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(tied_tree_sample(), st.integers(1, 6), st.integers(1, 8))
def test_states_equal_membership_counts_on_tied_rows(sample, threshold, carve_leaves):
    # at every step of the carve and of each launch state's whole SEB path,
    # read off the sequential chain and off the build, the state's leaves
    # and counts are those of brute-force membership in the cells that its
    # records split; the two modes' paths are equal though their stores
    # differ, and so are the histograms of their final states.  The
    # sample's own tree, over a table of its own, is a launch state too
    box, leaves, pts = sample
    pts = pts[inside_mask(box, pts)]
    if len(pts) < 2:
        return
    max_depth = 30
    table = CellTable(pts, box)
    carve = carve_path(table, carve_leaves, max_depth)
    roots = [run_pqmc(table, float(threshold), max_depth),
             build_threshold_tree(table, float(threshold), max_depth=max_depth,
                                  shard_count=2).path]
    assert roots[0] == roots[1] and roots[0].splits is not roots[1].splits
    paths = [carve]
    for launch in [*launch_states(carve, 3), leaf_state(box, leaves, pts)]:
        wholes = [reconstruct_path(root, launch) for root in roots]
        assert wholes[0] == wholes[1]
        assert wholes[0].initial == launch
        paths += wholes
    for path in paths:
        labels = set(path.initial.leaves.labels)
        recs = records(path)
        for t, state in enumerate(path.states()):
            expected = membership_counts(box, labels, pts)
            assert state.leaf_count == len(labels)
            assert leaf_counts(state) == expected
            assert state.leaves.labels == sorted(expected)
            if t < path.split_count:
                rec = recs[t]
                labels = labels - {rec.label} | {2 * rec.label, 2 * rec.label + 1}
        final = path.final
        if not box.volume:
            continue  # a constant coordinate under an unpadded box: no histogram
        h = histogram(final)
        ref = Histogram.from_counts(box, final.n, final.leaves.labels, list(expected.values()))
        assert h == ref and h.lo.tobytes() == ref.lo.tobytes()
        assert h.hi.tobytes() == ref.hi.tobytes()
