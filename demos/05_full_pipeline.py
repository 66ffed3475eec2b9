"""
The full pipeline: carve, explore, smooth, evaluate
===================================================

Carve 100 leaves of empty space away, launch SEB tributaries from five
states spread along the carve path for each stopping threshold in
{50, 500, 1500}, score every state of every tributary with the
penalized likelihood over a geometric tau grid, keep the tau whose
winner minimizes the leave-one-out cross-validation score, and measure
the Monte-Carlo L1 error of the selected histogram against the true
density.
"""

import json

import numpy as np

from rphist import GaussianReference, RunConfig, l1_error, run_pipeline

rng = np.random.default_rng(42)
points = rng.standard_normal((100_000, 2))

cfg = RunConfig(
    dim=2,
    shards=4,
    workers=2,
    carve_leaves=100,
    tributaries=5,
    maxpts=(50, 500, 1500),
    out="/tmp/rphist_demo_gauss.json",
)
hist, estimate = run_pipeline(cfg, points=points)

print(f"selected: {hist.leaf_count} leaves at tau={estimate.tau:.4g} "
      f"(cv score {estimate.cv_score:.5f})")
print(f"total mass: {hist.total_mass():.12f}")

manifest = json.load(open("/tmp/rphist_demo_gauss.json.manifest.json"))
print("candidate sizes by threshold:")
for cand in manifest["candidates"]:
    if cand["tributary"] == 0:
        print(f"  maxpts={cand['maxpts']:5d}: {cand['final_leaves']} leaves "
              f"(root tributary)")

report = l1_error(hist, GaussianReference(2), mc_per_leaf=256, seed=1)
print(f"L1 error vs truth: {report.l1_estimate:.4f} "
      f"+/- {report.l1_std_error:.4f} "
      f"(mass outside root box {report.outside_mass:.2g})")

# The same run is available from the command line:
#   rphist build --input points.csv --dim 2 --shards 4 --carve-leaves 100 \
#       --tributaries 5 --maxpts 50,500,1500 --out hist.json
#   rphist eval --hist hist.json --reference gaussian --mc 256 --seed 1
#   rphist plot --hist hist.json --out rects.csv
