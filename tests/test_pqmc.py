import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rphist.distributed import build_threshold_tree
from rphist.errors import PointOutsideRootBox
from rphist.geometry import Box, bounding_box, bounds_volume, split_plane
from rphist.pqmc import CellTable, carve_path, launch_states, run_pqmc
from rphist.tree import cell_bounds, depth

from conftest import (
    FIG2_LEAVES,
    SEB_PRIORITY,
    SPC_PRIORITY,
    ChainConfig,
    LeafPool,
    chain,
    fig2_points,
    leaf_counts,
    leaf_state,
    leaves_of,
    membership_counts,
    nodes_of,
    random_points,
    records,
    split_leaf,
    stop_reason,
    unit_box,
)


def splittable_leaves(counts: dict[int, int], root_box, cfg) -> set[int]:
    """Reference: the leaves a chain may split, non-empty, within the depth
    cap and bisectable in machine arithmetic, from each leaf's own bounds."""
    return {v for v, c in counts.items() if c > 0 and depth(v) < cfg.max_depth
            and split_plane(*cell_bounds(root_box, [v]))[2][0]}


def cell_volume(root_box, label: int) -> float:
    """Reference: the volume of cell ``label``, from its own bounds."""
    return float(bounds_volume(*cell_bounds(root_box, [label]))[0])


def naive_path(s0, pts, priority, max_psi, max_leaves, max_depth=1000):
    """Independent step-by-step simulation: recompute the splittable leaves
    and their priorities from scratch at every step, split the largest
    priority, ties towards the lowest label.  Returns the leaf counts of
    the states, the stop reason, the success flag and whether any pop was
    tied.  Under an active threshold, no splittable leaf above it is a
    threshold stop."""
    pts = np.asarray(pts, dtype=float)
    box = s0.root_box
    nodes = nodes_of(s0.leaves.labels)
    states, had_ties = [membership_counts(box, leaves_of(nodes), pts)], False
    while True:
        counts = states[-1]
        cand = {v: priority.value(counts[v], cell_volume(box, v), s0.n)
                for v in splittable_leaves(counts, box, ChainConfig(max_depth=max_depth))}
        best = max(cand.values(), default=None)
        if best is None and not max_psi:
            stop = "exhausted"
            break
        if max_leaves is not None and len(counts) >= max_leaves:
            stop = "max_leaves"
            break
        if max_psi and (best is None or best <= max_psi):
            stop = "max_psi"
            break
        tied = [v for v, psi in cand.items() if psi == best]
        had_ties = had_ties or len(tied) > 1
        nodes = split_leaf(nodes, min(tied))
        states.append(membership_counts(box, leaves_of(nodes), pts))
    success = ((max_leaves is None or len(counts) <= max_leaves)
               and (not max_psi or best is None or best <= max_psi))
    return states, stop, success, had_ties


def run_chain(s0, pts, priority, cfg):
    """The chain of a run that the reference chain stands for, from the
    root: the SEB chain to a threshold with no leaf budget, or the carve
    under a leaf budget with no threshold; None for any other chain."""
    if s0.leaf_count != 1:
        return None
    table = CellTable(pts, s0.root_box)
    if priority == SEB_PRIORITY and cfg.max_psi is not None and cfg.max_leaves is None:
        return run_pqmc(table, cfg.max_psi, cfg.max_depth)
    if priority == SPC_PRIORITY and cfg.max_psi is None and cfg.max_leaves is not None:
        return carve_path(table, cfg.max_leaves, cfg.max_depth)
    return None


def assert_matches_naive(s0, pts, priority, cfg):
    path = chain(s0, CellTable(pts, s0.root_box), priority, cfg)
    states, stop, success, had_ties = naive_path(
        s0, pts, priority, cfg.max_psi, cfg.max_leaves, cfg.max_depth)
    assert [leaf_counts(s) for s in path.states()] == states
    assert [s.leaves.labels for s in path.states()] == [sorted(c) for c in states]
    assert (stop_reason(path), path.success, path.had_ties) == (stop, success, had_ties)
    own = run_chain(s0, pts, priority, cfg)
    assert own is None or own == path
    return path


def chain_leaves(s, cfg) -> set[int]:
    """The leaves a chain from ``s`` may pop: those its heap keeps once the
    leaves that cannot be split are dropped from the top."""
    pool = LeafPool(s, s.store, SEB_PRIORITY, cfg)
    pool.top()
    return {label for _, label, cell in pool.heap if s.store.splittable(cell)}


def test_splittable_leaves_fig2(fig2_state):
    cfg = ChainConfig()
    assert chain_leaves(fig2_state, cfg) == {3, 4, 5}


def test_splittable_excludes_empty_leaf():
    s = leaf_state(unit_box(2), FIG2_LEAVES, [[0.1, 0.1], [0.7, 0.7]])
    assert chain_leaves(s, ChainConfig()) == {3, 4}


def test_splittable_excludes_depth_capped(fig2_state):
    got = chain_leaves(fig2_state, ChainConfig(max_depth=2))
    assert got == {3}  # leaves 4 and 5 already sit at depth 2


def test_run_pqmc_stops_immediately_at_threshold(fig2_state):
    path = chain(fig2_state, CellTable(fig2_points(), unit_box(2)), SEB_PRIORITY,
                 ChainConfig(max_psi=5.0))
    assert len(path) == 1
    assert stop_reason(path) == "max_psi"
    assert path.success


def test_run_pqmc_max_leaves_one():
    rng = np.random.default_rng(12)
    pts = rng.uniform(0, 1, size=(10, 2))
    s0 = leaf_state(unit_box(2), [1], pts)
    path = chain(s0, CellTable(pts, s0.root_box), SEB_PRIORITY, ChainConfig(max_leaves=1))
    assert len(path) == 1
    assert stop_reason(path) == "max_leaves"


def test_run_pqmc_matches_naive_oracle():
    # eight points in one orthant of the unit square
    pts = np.array([
        [0.05, 0.05], [0.1, 0.2], [0.15, 0.3], [0.2, 0.1],
        [0.3, 0.35], [0.35, 0.05], [0.4, 0.3], [0.45, 0.45],
    ])
    s0 = leaf_state(unit_box(2), [1], pts)
    assert_matches_naive(s0, pts, SEB_PRIORITY, ChainConfig(max_psi=2.0))


def test_run_pqmc_oracle_on_random_data():
    rng = np.random.default_rng(13)
    for _ in range(5):
        pts = random_points(rng, int(rng.integers(20, 200)), 2)
        box = bounding_box(pts)
        s0 = leaf_state(box, [1], pts)
        maxlvs = int(rng.integers(2, 20))
        assert_matches_naive(s0, pts, SEB_PRIORITY, ChainConfig(max_leaves=maxlvs))


# 1-D rows one ulp (2**-52) apart at 1.0, each repeated: the cells around
# them run out of floats with counts 3 and 2 while the cells of the pair at
# 0.3 still split.  With the pair at 1.7 too, splittable cells tie; without
# it, a pop ties only with a cell that cannot be split, which is no tie.
ULP_ROWS = [1.0] * 3 + [1.0 + 2.0**-52] * 2 + [0.3] * 2


@pytest.mark.parametrize("rows", [ULP_ROWS, ULP_ROWS + [1.7] * 2])
@pytest.mark.parametrize("priority, cfg", [
    (SEB_PRIORITY, ChainConfig(max_psi=1.0)),
    (SEB_PRIORITY, ChainConfig(max_psi=1.0, max_leaves=58)),
    (SEB_PRIORITY, ChainConfig(max_psi=1.0, max_depth=6)),
    (SPC_PRIORITY, ChainConfig()),
    (SPC_PRIORITY, ChainConfig(max_leaves=70, max_depth=8)),
])
def test_run_pqmc_matches_naive_oracle_when_cells_cannot_split(rows, priority, cfg):
    box = Box.from_bounds([0.0], [2.0])
    pts = np.array(rows)[:, None]
    s0 = leaf_state(box, [1], pts)
    path = assert_matches_naive(s0, pts, priority, cfg)
    if cfg.max_depth > 100 and cfg.max_leaves is None:
        # cells over the threshold are left that cannot be split, and one
        # of them reached the top of the queue before the last pop
        stop = "max_psi" if cfg.max_psi is not None else "exhausted"
        assert stop_reason(path) == stop and path.success
        final = leaf_counts(path.final)
        stuck = [c for v, c in final.items() if not split_plane(*cell_bounds(box, [v]))[2][0]]
        assert max(stuck) == 3
        assert min(r.left_count + r.right_count for r in records(path)) == 2


@st.composite
def shared_table_sample(draw):
    """Rows on a 4-step grid with one row repeated (SEB ties and duplicate
    rows) in the box of the grid; a carve budget and a chain config whose
    leaf budget or depth cap may bind.  The grid step is 1, or one ulp of
    1.0, where a cell one step wide cannot be bisected."""
    d = draw(st.integers(1, 2))
    grid = draw(arrays(np.int64, (draw(st.integers(2, 30)), d),
                       elements=st.integers(0, 3), fill=st.nothing()))
    pts = np.vstack([grid, np.repeat(grid[:1], draw(st.integers(0, 8)), axis=0)])
    lo, step = draw(st.sampled_from([(0.0, 1.0), (1.0, 2.0**-52)]))
    pts = lo + pts * step
    box = Box.from_bounds([lo] * d, [lo + 4 * step] * d)
    cfg = ChainConfig(max_psi=float(draw(st.integers(1, 6))),
                      max_leaves=draw(st.one_of(st.none(), st.integers(1, 30))),
                      max_depth=draw(st.sampled_from([3, 8, 20])))
    return pts, box, draw(st.integers(1, 10)), cfg


def outcome(path):
    return records(path), path.had_ties, stop_reason(path), path.success


def test_shared_table_chains_equal_fresh_tables_and_naive():
    # the carve and the chains from its launch states share one table;
    # a second table is shared by the chains alone, run in reverse order.
    # A chain keeps no leaf at or below its threshold: count the stops at
    # the threshold with a splittable leaf left below it and with none left
    stops = {"below_threshold": 0, "none_left": 0}

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(shared_table_sample())
    def check(sample):
        pts, box, carve_leaves, cfg = sample
        carve_cfg = ChainConfig(max_leaves=carve_leaves, max_depth=cfg.max_depth)
        root_cfg = ChainConfig(max_psi=cfg.max_psi, max_depth=cfg.max_depth)
        table = CellTable(pts, box)
        carve = carve_path(table, carve_leaves, cfg.max_depth)
        launches = launch_states(carve, 3)
        shared = [chain(s0, table, SEB_PRIORITY, cfg) for s0 in launches]
        root = run_pqmc(table, cfg.max_psi, cfg.max_depth)
        backwards = CellTable(pts, box)
        reverse = [chain(s0, backwards, SEB_PRIORITY, cfg) for s0 in launches[::-1]]
        assert [outcome(p) for p in reverse[::-1]] == [outcome(p) for p in shared]
        s0 = leaf_state(box, [1], pts)
        runs = [(carve, s0, SPC_PRIORITY, carve_cfg), (root, s0, SEB_PRIORITY, root_cfg)]
        runs += [(path, s0, SEB_PRIORITY, cfg) for path, s0 in zip(shared, launches)]
        for path, s0, priority, c in runs:
            fresh = chain(s0, CellTable(pts, s0.root_box), priority, c)
            assert path == fresh and outcome(path) == outcome(fresh)
            assert (path.top, path.first_tie) == (fresh.top, fresh.first_tie)
            states, stop, success, had_ties = naive_path(
                s0, pts, priority, c.max_psi, c.max_leaves, c.max_depth)
            assert [leaf_counts(s) for s in path.states()] == states
            assert (stop_reason(path), path.success, path.had_ties) == (stop, success, had_ties)
            # the next pop's priority: the largest over the final splittable
            # leaves, or the threshold if none is above it
            final = leaf_counts(path.final)
            top = max((priority.value(final[v], cell_volume(box, v), len(pts))
                       for v in splittable_leaves(final, box, c)), default=None)
            if c.max_psi is not None and (top is None or top <= c.max_psi):
                top = c.max_psi
            assert path.top == top
        for path in shared:
            if path.top == cfg.max_psi:
                left = splittable_leaves(leaf_counts(path.final), box, cfg)
                stops["below_threshold" if left else "none_left"] += 1
        # every cell that the carve or a chain split was partitioned once
        assert table.partitioned == len({r.label for p in [carve, root, *shared]
                                         for r in records(p)})

    check()
    print(stops)
    assert min(stops.values()) > 0


def test_run_pqmc_rejects_counts_the_data_do_not_give():
    pts = fig2_points()
    other = pts.copy()
    other[5] = [0.4, 0.1]  # a point of the right half moved to the left one
    s = leaf_state(unit_box(2), [2, 3], other)
    assert leaf_counts(s) == {2: 6, 3: 4}
    with pytest.raises(ValueError, match="leaf 2 does not match"):
        chain(s, CellTable(pts, s.root_box), SEB_PRIORITY, ChainConfig())


def test_run_pqmc_rejects_a_table_of_other_data(fig2_state):
    pts = fig2_points()
    other = pts * [1.0, 0.5]  # ten points again, all in the lower half
    for table in (CellTable(other, unit_box(2)),
                  CellTable(pts[:-1], unit_box(2)),
                  CellTable(pts, Box.from_bounds([0.0, 0.0], [1.0, 2.0]))):
        with pytest.raises(ValueError):
            chain(fig2_state, table, SEB_PRIORITY, ChainConfig())
    with pytest.raises(PointOutsideRootBox):
        CellTable(pts + 0.5, unit_box(2))


def test_table_splits_a_cell_created_since_it_last_planned():
    # cell 2 is made by the first split and split before any plan reads it
    pts = fig2_points()
    t, ref = CellTable(pts, unit_box(2)), CellTable(pts, unit_box(2))
    i = t.split(t.split(1))
    assert i == ref.cell(4)
    ids = np.array([i, i + 1])
    (labels, counts, bounds, vols), (ref_labels, ref_counts, ref_bounds, ref_vols) = (
        t.gather(ids), ref.gather(ids))
    assert labels == ref_labels == [4, 5]
    assert counts.tolist() == ref_counts.tolist() == [2, 3]
    assert np.array_equal(bounds, ref_bounds) and np.array_equal(vols, ref_vols)


def test_table_splits_no_new_cell_after_dropping_its_permutation():
    pts = fig2_points()
    t = CellTable(pts, unit_box(2))
    kid = t.cell(4)
    t.drop_permutation()
    assert t.perm is None and t.start is None
    # the cells split before stay, with their counts, bounds and volumes
    assert t.split(1) == t.cell(2) and t.cell(5) == kid + 1
    ref = CellTable(pts, unit_box(2))
    ids = np.array([kid, kid + 1])
    for got, want in zip(t.gather(ids), ref.gather(np.array([ref.cell(4), ref.cell(5)]))):
        assert np.array_equal(got, want)
    with pytest.raises(RuntimeError, match="dropped its permutation"):
        t.split(kid + 1)
    with pytest.raises(RuntimeError, match="dropped its permutation"):
        t.cell(6)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.data())
def test_store_volume_is_each_cells_bounds_product(d, data):
    # root boxes whose sides differ, widths 1-10 with some equal, and rows
    # on a grid of the box with one row repeated: tied counts, rows on the
    # planes and on the faces, and cells of copies split until the floats
    # run out, far past the depth where the halvings' rounding shows
    lows = data.draw(st.lists(st.floats(-10, 10), min_size=d, max_size=d))
    widths = data.draw(st.lists(st.one_of(st.sampled_from([1.0, 3.0, 10.0]), st.floats(1, 10)),
                                min_size=d, max_size=d))
    box = Box.from_bounds(lows, [a + w for a, w in zip(lows, widths)])
    grid = data.draw(arrays(np.int64, (data.draw(st.integers(2, 80)), d),
                            elements=st.integers(0, 4), fill=st.nothing()))
    grid = np.vstack([grid, np.repeat(grid[:1], data.draw(st.integers(0, 20)), axis=0)])
    lo, hi = box.lows(), box.highs()
    pts = np.clip(lo + grid / 4 * (hi - lo), lo, hi)
    threshold = float(data.draw(st.integers(1, 6)))
    table = CellTable(pts, box)
    carve = carve_path(table, data.draw(st.integers(1, 25)))
    run_pqmc(table, threshold)
    build = build_threshold_tree(CellTable(pts, box), threshold, shard_count=2, workers=2)
    for store in (table, build.cells):
        want = bounds_volume(*cell_bounds(box, store.labels[1:]))
        assert store.volumes(np.arange(1, len(store.labels))).tobytes() == want.tobytes()
    # the carve's priorities read those volumes: the reference chain and
    # the naive oracle, from each cell's own bounds, make the same path
    s0 = leaf_state(box, [1], pts)
    assert carve == assert_matches_naive(s0, pts, SPC_PRIORITY,
                                         ChainConfig(max_leaves=carve.max_leaves))


def test_path_leaf_counts_increase_one_per_step():
    rng = np.random.default_rng(14)
    pts = random_points(rng, 300, 2)
    s0 = leaf_state(bounding_box(pts), [1], pts)
    path = chain(s0, CellTable(pts, s0.root_box), SEB_PRIORITY, ChainConfig(max_leaves=25))
    for t, s in enumerate(path.states()):
        assert s.leaf_count == s0.leaf_count + t


def test_stop_disjunction_holds_on_every_run():
    rng = np.random.default_rng(15)
    for _ in range(10):
        pts = random_points(rng, int(rng.integers(10, 400)), int(rng.integers(1, 4)))
        s0 = leaf_state(bounding_box(pts), [1], pts)
        cfg = ChainConfig(
            max_psi=float(rng.integers(0, 20)) or None,
            max_leaves=int(rng.integers(1, 40)),
        )
        path = chain(s0, CellTable(pts, s0.root_box), SEB_PRIORITY, cfg)
        final = leaf_counts(path.final)
        spl = splittable_leaves(final, s0.root_box, cfg)
        priorities = [final[v] for v in spl]
        assert (
            not spl
            or len(final) == cfg.max_leaves
            or (cfg.max_psi is not None and max(priorities) <= cfg.max_psi)
        )
        # explicit success flag mirrors the criterion
        expected_success = (len(final) <= cfg.max_leaves) and (
            cfg.max_psi is None
            or not spl
            or max(priorities) <= cfg.max_psi
        )
        assert path.success == expected_success


def test_run_pqmc_deterministic_reruns():
    rng = np.random.default_rng(16)
    pts = random_points(rng, 500, 2)
    s0 = leaf_state(bounding_box(pts), [1], pts)
    cfg = ChainConfig(max_psi=20.0)
    a = chain(s0, CellTable(pts, s0.root_box), SEB_PRIORITY, cfg)
    b = chain(s0, CellTable(pts, s0.root_box), SEB_PRIORITY, cfg)
    assert records(a) == records(b)


def test_carve_runs_with_no_threshold():
    # the carve takes a leaf budget, no threshold: its path stands under none
    carve = carve_path(CellTable(np.zeros((3, 2)), unit_box(2)), 4)
    assert carve.threshold is None and carve.max_leaves == 4
    with pytest.raises(ValueError):
        carve_path(CellTable(np.zeros((3, 2)), unit_box(2)), 0)


def test_carve_single_split_on_uniform_data():
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 1, size=(64, 2))
    path = carve_path(CellTable(pts, bounding_box(pts)), 2)
    assert len(path) == 2
    assert records(path)[0].label == 1


def test_carve_prefix_property():
    rng = np.random.default_rng(18)
    pts = random_points(rng, 500, 2)
    p20 = carve_path(CellTable(pts, bounding_box(pts)), 20)
    p40 = carve_path(CellTable(pts, bounding_box(pts)), 40)
    assert p40.state(p20.split_count) == p20.final


def test_carve_creates_more_empty_leaves_than_seb():
    # strongly correlated data: carving should slice off empty space
    rng = np.random.default_rng(19)
    x = rng.uniform(0, 1, 400)
    pts = np.column_stack([x, x + rng.normal(0, 0.01, 400)])
    box = bounding_box(pts)
    carve = carve_path(CellTable(pts, box), 20)
    s0 = leaf_state(box, [1], pts)
    seb = chain(s0, CellTable(pts, s0.root_box), SEB_PRIORITY, ChainConfig(max_leaves=20))
    def empty_fraction(s):
        return np.count_nonzero(s.leaves.counts == 0) / s.leaf_count
    assert carve.final.leaf_count == seb.final.leaf_count == 20
    assert empty_fraction(carve.final) > empty_fraction(seb.final)


def test_launch_states_even_spacing():
    rng = np.random.default_rng(20)
    pts = random_points(rng, 2000, 2)
    carve = carve_path(CellTable(pts, bounding_box(pts)), 41)
    assert carve.split_count == 40
    states = launch_states(carve, 5)
    assert [s.leaf_count - 1 for s in states] == [0, 10, 20, 30, 40]
    assert states[0].leaf_count == 1  # the root state is always included


def test_launch_states_degenerate_cases():
    rng = np.random.default_rng(21)
    pts = random_points(rng, 100, 2)
    carve = carve_path(CellTable(pts, bounding_box(pts)), 4)
    assert [s.leaf_count for s in launch_states(carve, 1)] == [1]
    everything = launch_states(carve, 99)
    assert len(everything) == len(carve)


def test_spc_zero_threshold_keeps_splitting():
    # the root's carving priority is exactly 0, so a literal "stop when
    # max priority <= 0" would never leave the root; a carve runs with no
    # priority stop and lets the leaf budget do the stopping
    rng = np.random.default_rng(45)
    pts = rng.uniform(0, 1, size=(50, 2))
    path = carve_path(CellTable(pts, unit_box(2)), 8)
    assert path.final.leaf_count == 8
    assert stop_reason(path) == "max_leaves"


def test_carve_identical_points_stops_by_exhaustion():
    # coincident points can never be separated; the chain must stop on
    # machine-precision exhaustion instead of hitting the leaf budget
    pts = np.tile([[0.25, 0.25]], (5, 1))
    path = carve_path(CellTable(pts, unit_box(2)), 10_000, 80)
    assert stop_reason(path) == "exhausted"
    assert path.final.leaf_count < 10_000


def test_priority_value_ranges():
    rng = np.random.default_rng(44)
    for _ in range(20):
        pts = random_points(rng, int(rng.integers(5, 300)), 2)
        box = bounding_box(pts)
        table = CellTable(pts, box)
        leaves = {1}
        for _ in range(int(rng.integers(0, 8))):
            full = [v for v in sorted(leaves) if table.count[table.find(v)] > 0]
            v = int(full[rng.integers(len(full))])
            table.cell(2 * v)
            leaves = leaves - {v} | {2 * v, 2 * v + 1}
        root_vol = box.volume
        for v in leaves:
            c = table.count[table.find(v)]
            vol = float(table.volumes(table.find(v)))
            assert 0 <= SEB_PRIORITY.value(c, vol, table.n) <= table.n
            assert 0 <= SPC_PRIORITY.value(c, vol, table.n) <= root_vol + 1e-12


def test_config_validation():
    # the SEB chain needs a threshold above 0, the carve a leaf budget
    table = CellTable(fig2_points(), unit_box(2))
    for threshold in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="threshold"):
            run_pqmc(table, threshold)
    with pytest.raises(ValueError):
        carve_path(table, 0)
    with pytest.raises(ValueError):
        run_pqmc(table, 1.0, max_depth=0)
    with pytest.raises(ValueError):
        carve_path(table, 1, max_depth=0)
    assert table.partitioned == 0
