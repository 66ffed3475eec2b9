"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite is also part of the default ``pytest`` run.
"""

import json
import os
import time

import numpy as np
import pytest

from rphist.distributed import (
    TaggedDataset,
    apply_splits,
    assemble_srp,
    build_threshold_tree,
    cells_to_split,
    reconstruct_path,
)
from rphist.evaluate import GaussianReference, l1_error
from rphist.geometry import bounding_box
from rphist.pipeline import RunConfig, run_pipeline
from rphist.pqmc import CellTable
from rphist.smoothing import cv_score
from rphist.srp import histogram

from conftest import (
    FIG2_LEAVES,
    fig2_points,
    leaf_state,
    random_points,
    random_state,
    seb_instance,
    terminal_state,
    unit_box,
)
from test_smoothing import brute_force_cv


def report(num: int, detail: str) -> None:
    print(f"PASS  criterion {num}: {detail}")


def test_criterion_1_fig2_golden():
    t0 = time.perf_counter()
    h = histogram(leaf_state(unit_box(2), FIG2_LEAVES, fig2_points()))
    heights = {leaf.label: leaf.height for leaf in h.leaves}
    assert heights == {4: 0.8, 5: 1.2, 3: 1.0}, "heights must match exactly"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"densities exactly (0.8, 1.2, 1.0) in {elapsed:.3f}s")


def test_criterion_2_normalization_and_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    datasets = 0
    iterations_checked = 0
    while datasets < 200:
        d = int(rng.integers(1, 6))
        n = int(np.exp(rng.uniform(np.log(10), np.log(10_000))))
        pts = random_points(rng, n, d)
        box = bounding_box(pts)
        threshold = float(rng.integers(1, max(2, n // 4)))
        shards = int(rng.integers(1, 5))
        res = build_threshold_tree(CellTable(pts, box), threshold,
                                   shard_count=shards)
        final = assemble_srp(res)
        assert final.leaves.counts.sum() == n
        h = histogram(final)
        assert h.total_mass() == pytest.approx(1.0, abs=1e-9)
        for st in res.stats:
            assert st.working_points + st.passed_points == n
            iterations_checked += 1
        datasets += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(2, f"{datasets} datasets, mass=1 +/- 1e-9, counts conserved, "
              f"prune conservation on {iterations_checked} iterations, "
              f"{elapsed:.1f}s")


def test_criterion_3_sequential_parallel_equivalence():
    t0 = time.perf_counter()
    instances = 0
    mismatches = 0
    tied = 0
    for seed in range(50):
        pts, box, threshold, seq = seb_instance(seed)
        tied += seq.had_ties
        res = build_threshold_tree(CellTable(pts, box), threshold,
                                   shard_count=int(1 + instances % 4))
        if assemble_srp(res) != seq.final:
            mismatches += 1
        path = reconstruct_path(res.path)
        if path.had_ties != seq.had_ties:
            mismatches += 1
        path, states = path.states(), seq.states()
        if len(path) != len(states) or any(a != b for a, b in zip(path, states)):
            mismatches += 1
        instances += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    report(3, f"{instances} instances ({tied} with tied pops), trees, paths "
              f"and tie flags identical, {elapsed:.1f}s")


def test_criterion_4_order_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    for instance in range(30):
        n = int(rng.integers(64, 513))
        d = int(rng.integers(1, 4))
        pts = random_points(rng, n, d)
        box = bounding_box(pts)
        threshold = float(rng.integers(2, max(3, n // 8)))
        reference = build_threshold_tree(CellTable(pts, box), threshold)
        for order in range(10):
            order_rng = np.random.default_rng(instance * 100 + order)
            ds = TaggedDataset.from_table(CellTable(pts, box), shard_count=2)
            while True:
                eligible = cells_to_split(ds, threshold, 1000)
                if not eligible:
                    break
                pool = sorted(eligible)
                k = int(order_rng.integers(1, len(pool) + 1))
                pick = order_rng.choice(len(pool), size=k, replace=False)
                ds = apply_splits(ds, {pool[i]: eligible[pool[i]] for i in pick})
            assert terminal_state(ds.store) == assemble_srp(reference)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(4, f"30 instances x 10 random split orders, identical terminal "
              f"trees, {elapsed:.1f}s")


def test_criterion_5_cv_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(100):
        s, pts = random_state(rng, n_max=200, d_max=4)
        assert cv_score(s) == pytest.approx(brute_force_cv(s, pts), abs=1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, f"100 states, closed form within 1e-10 of brute force, {elapsed:.1f}s")


def test_criterion_6_shard_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((1_000_000, 2))
    box = bounding_box(pts)
    table = CellTable(pts, box)
    times = {}
    results = {}
    for shards, workers in ((1, 1), (2, 2), (4, 4), (8, 4)):
        t1 = time.perf_counter()
        results[shards] = build_threshold_tree(table, 500.0, shard_count=shards,
                                               workers=workers)
        times[shards] = time.perf_counter() - t1
    base = results[1]
    for shards in (2, 4, 8):
        r = results[shards]
        assert r.path.final == base.path.final
        assert r.stats == base.stats
        assert r.iterations == base.iterations
    ratio = times[4] / times[1]
    cores = os.cpu_count() or 1
    if cores >= 4:
        assert ratio <= 1.0, f"4-shard run slower than 1-shard: {ratio:.2f}x"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(6, f"identical BuildResult for S in (1,2,4,8) at n=1e6; 4-shard "
              f"wall-clock {ratio:.2f}x of 1-shard on {cores} core(s) "
              f"(gate applies on >=4 cores), {elapsed:.1f}s")


def test_criterion_7_desk_scale_reproduction(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    pts = rng.standard_normal((100_000, 2))
    out = tmp_path / "gauss2d.json"
    cfg = RunConfig(
        dim=2, shards=4, workers=2, carve_leaves=100, tributaries=5,
        maxpts=(50, 500, 1500), out=str(out),
    )
    hist, estimate = run_pipeline(cfg, points=pts)
    manifest = json.loads((tmp_path / "gauss2d.json.manifest.json").read_text())
    by_maxpts = {}
    for cand in manifest["candidates"]:
        by_maxpts.setdefault(cand["maxpts"], []).append(cand["final_leaves"])
    for leaves in by_maxpts[50]:
        assert 700 <= leaves <= 3000, f"maxpts=50 candidate at {leaves} leaves"
    for leaves in by_maxpts[1500]:
        assert 50 <= leaves <= 300, f"maxpts=1500 candidate at {leaves} leaves"
    low = min(min(v) for v in by_maxpts.values())
    high = max(max(v) for v in by_maxpts.values())
    if low != high:
        assert low < hist.leaf_count < high, "selected estimate at an extreme"
    reference = GaussianReference(2)
    rep = l1_error(hist, reference, mc_per_leaf=256, seed=3)
    assert rep.l1_estimate <= 0.15
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(7, f"L1={rep.l1_estimate:.3f} +/- {rep.l1_std_error:.3f} <= 0.15; "
              f"maxpts=50 candidates {sorted(by_maxpts[50])}, maxpts=1500 "
              f"candidates {sorted(by_maxpts[1500])}; selected "
              f"{hist.leaf_count} leaves strictly inside ({low}, {high}); "
              f"{elapsed:.1f}s")


def test_criterion_8_ten_dimensional_run(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    pts = rng.standard_normal((1_000_000, 10))
    out = tmp_path / "gauss10d.json"
    cfg = RunConfig(
        dim=10, shards=4, workers=2, carve_leaves=100, tributaries=3,
        maxpts=(2000,), out=str(out),
    )
    hist, estimate = run_pipeline(cfg, points=pts)
    assert hist.n == 1_000_000
    assert hist.total_mass() == pytest.approx(1.0, abs=1e-9)
    assert sum(leaf.count for leaf in hist.leaves) == 1_000_000
    # prune-phase conservation at the same scale
    box = bounding_box(pts)
    res = build_threshold_tree(CellTable(pts, box), 2000.0,
                               shard_count=4, workers=2)
    assert res.stats
    for st in res.stats:
        assert st.working_points + st.passed_points == 1_000_000
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200.0
    report(8, f"10-D n=1e6 pipeline done: {hist.leaf_count} leaves, mass=1 "
              f"+/- 1e-9, counts conserved through {len(res.stats)} pruned "
              f"iterations, {elapsed:.1f}s")
