"""
Threshold splitting on sharded tagged points
============================================

The sequential chain must split the single highest-priority cell before
it knows the next one, but the tree reached once every cell is at or
below a fixed threshold does not depend on the split order.  So the
builder tags each point with the id of its current cell in the run's
cell table, splits every over-threshold cell at once with a
shard-local map, counts the new cells with a per-shard bincount, and
retires settled cells early.  Sorting the
resulting tree's internal nodes by (-count, label) recovers the exact
sequential path, ties included, without touching the data again: a
parent always has at least its children's count and a smaller label,
so the chain pops cells in exactly that order.  The builder adds its
cells to the run's one cell table, so a cell that a chain split there
keeps its id and its children.
"""

import time

import numpy as np

from rphist import bounding_box, build_threshold_tree, run_pqmc
from rphist.pqmc import CellTable

rng = np.random.default_rng(3)
points = rng.standard_normal((200_000, 2))
# Every builder takes the points as a cell table, which checks them
# against the root box once and holds every cell the builders split.
table = CellTable(points, bounding_box(points))

# The same terminal tree regardless of how the work is sharded; the
# second build finds every cell it splits in the table already.
for shards in (1, 4):
    t0 = time.perf_counter()
    result = build_threshold_tree(table, 500.0, shard_count=shards, workers=shards)
    print(f"shards={shards}: {result.path.final.leaf_count} leaves, "
          f"{result.iterations} iterations, {time.perf_counter() - t0:.2f}s")

# Per-iteration bookkeeping: pruning conserves the total count, and the
# table holds a count for every working cell, empty children included.
for i, st in enumerate(result.stats):
    print(f"  iter {i}: split {st.split_cells:4d} cells, "
          f"{st.working_points:6d} working + {st.passed_points:6d} passed, "
          f"{st.nonempty_cells} non-empty cells")

# On a smaller burst of rounded (so often tied) points, check the
# headline equivalence directly: the builder's tree is the sequential
# chain's tree, and the build's sorted path is the sequential path,
# split for split, with the same next pop and first tied pop.  The build
# runs on the table the chain split and adds no cell to it.
small = np.round(points[:3000], 1)
small_table = CellTable(small, bounding_box(small))
seq = run_pqmc(small_table, 30.0)
cells = len(small_table.labels)
par = build_threshold_tree(small_table, 30.0, shard_count=4)
print(f"sequential chain: {seq.split_count} splits, priority ties: {seq.had_ties}")
assert par.path.final == seq.final, "terminal trees differ"
assert par.path == seq, "paths differ"
assert len(small_table.labels) == cells, "the build added cells the chain had split"
print("terminal trees, paths and tie flags equal; the build reused the chain's cells")
