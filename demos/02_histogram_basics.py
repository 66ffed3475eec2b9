"""
From counts to a histogram density
==================================

A statistical regular paving caches a point count at every cell.  A
state names the leaves of a paving among the cells of a cell table,
which counts the points into each cell it splits.  The histogram puts
the density count/(n * volume) on each leaf cell; it is the maximum
likelihood piecewise-constant density for that partition and integrates
to one by construction.
"""

import numpy as np

from rphist import (
    Box,
    State,
    density_at,
    histogram,
    log_likelihood,
    save_histogram,
)
from rphist.pqmc import CellTable
from rphist.smoothing import cv_score, penalized_score

# Ten points on the unit square: 2 in the lower-left quarter, 3 in the
# upper-left quarter, 5 in the right half.
points = np.array([
    [0.0, 0.0], [0.3, 0.4],
    [0.1, 0.6], [0.2, 0.8], [0.4, 0.9],
    [0.6, 0.1], [0.7, 0.3], [0.8, 0.5], [0.9, 0.7], [1.0, 1.0],
])
table = CellTable(points, Box.from_bounds([0, 0], [1, 1]))
state = State(table, [table.cell(v) for v in (3, 4, 5)])
print("per-cell counts:", dict(zip(table.labels[1:], table.count[1:].tolist())))

h = histogram(state)
for leaf in h.leaves:
    print(f"  leaf {leaf.label}: count {leaf.count}, volume {leaf.volume}, "
          f"height {leaf.height}")
print("total mass:", h.total_mass())

# The histogram is a function: evaluate it anywhere.
print("density at (0.2, 0.7):", density_at(h, (0.2, 0.7)))
print("density outside the box:", density_at(h, (3.0, 3.0)))

# Scores used later for smoothing: the data log-likelihood, the
# penalized version, and the leave-one-out cross-validation score.
print("log-likelihood:", log_likelihood(state))
print("penalized (tau=1):", penalized_score(state, 1.0))
print("cross-validation score:", cv_score(state))

# Histograms serialize to versioned JSON with decimal-string labels.
save_histogram(h, "/tmp/rphist_demo_fig.json")
print("wrote /tmp/rphist_demo_fig.json")
