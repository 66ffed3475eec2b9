"""
Threshold splitting on sharded tagged points
============================================

The sequential chain must split the single highest-priority cell before
it knows the next one, but the tree reached once every cell is at or
below a fixed threshold does not depend on the split order.  So the
builder tags each point with its current cell, counts cells with a
per-shard reduce, splits every over-threshold cell at once with a
shard-local map, and retires settled cells early.  Coarsening the result
again (merge the cherry with the least parent count, repeatedly) and
reversing the merges recovers the exact sequential path without
touching the data again.
"""

import time

import numpy as np

from rphist import (
    PqmcConfig,
    RPTree,
    SEB_PRIORITY,
    bounding_box,
    build_threshold_tree,
    ingest,
    reconstruct_path,
    run_pqmc,
)

rng = np.random.default_rng(3)
points = rng.standard_normal((200_000, 2))
box = bounding_box(points)
cfg = PqmcConfig(tie_break="lowest_label")

# The same terminal tree regardless of how the work is sharded.
for shards in (1, 4):
    t0 = time.perf_counter()
    result = build_threshold_tree(points, box, 500.0, cfg,
                                  shard_count=shards, workers=shards)
    print(f"shards={shards}: {result.final_srp.leaf_count} leaves, "
          f"{result.iterations} iterations, {time.perf_counter() - t0:.2f}s")

# Per-iteration bookkeeping: pruning conserves the total count, and the
# merged table holds one key per non-empty cell.
for i, st in enumerate(result.stats):
    print(f"  iter {i}: split {st.split_cells:4d} cells, "
          f"{st.working_points:6d} working + {st.passed_points:6d} passed, "
          f"{st.nonempty_cells} non-empty cells")

# On a smaller burst, check the headline equivalence directly: the
# builder's tree is the sequential chain's tree, and the reconstructed
# path reproduces the sequential path state for state.
# Exact path equality needs all step priorities distinct (under ties
# any tie-break realization is a valid path), so verify that first.
small = points[:3000]
small_box = bounding_box(small)
seq = run_pqmc(ingest(RPTree(small_box), small), small, SEB_PRIORITY,
               PqmcConfig(max_psi=150.0, tie_break="lowest_label"))
print("sequential chain saw priority ties:", seq.had_ties)
par = build_threshold_tree(small, small_box, 150.0, cfg, shard_count=4)
print("terminal trees equal:", par.final_srp == seq.final)
path = reconstruct_path(par).states()
print("paths equal state for state:",
      all(a == b for a, b in zip(path, seq.states()))
      and len(path) == len(seq))
