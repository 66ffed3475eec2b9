"""
Boxes, bisection and integer-labelled paving trees
==================================================

The building block of everything here: a box is split at the midpoint
of its first widest coordinate, a point on the splitting plane belongs
to the right child, and the resulting binary tree is addressed with
plain integers (root 1, children 2n and 2n+1).  The cells a run splits
are the rows of a cell store, each with its count and bounds, and a
state names its leaves among them; the bounds of any batch of labels can
also be derived from the root box alone.
"""

import numpy as np

from rphist import Box, State, bounding_box, children, depth, parent
from rphist.geometry import bounds_volume, split_plane
from rphist.pqmc import CellTable
from rphist.tree import cell_bounds

# A unit square and its split plane: the split runs down the first coordinate.
square = Box.from_bounds([0.0, 0.0], [1.0, 1.0])
(axis,), (mid,), (ok,) = split_plane(square.lows()[None], square.highs()[None])
print(f"split coordinate {axis} at {mid} (splittable: {ok})")

# Its two children, as rows of bounds: label 2 is the left half, 3 the right.
halves = cell_bounds(square, [2, 3])
for label, lo, hi in zip((2, 3), halves.lo.tolist(), halves.hi.tolist()):
    print(f"cell {label}: lo={lo} hi={hi}")

# A point exactly on the splitting plane belongs to the right child.
# A cell table holds the points and splits a cell on demand.
table = CellTable([[0.5, 0.3]], square)
halves = State(table, [table.cell(2), table.cell(3)])
print("the point (0.5, 0.3) on the plane lands in cell",
      next(v for v, c in zip(halves.leaves.labels, halves.leaves.counts) if c))

# Integer labels encode the root-to-node path in binary.
print("children of 1:", children(1), " children of 5:", children(5))
print("parent of 5:", parent(5), " depth of 5:", depth(5))

# A state is a paving: its launch leaves, cells of the table, with more
# cells split in turn.  Its leaves' labels, counts and bounds are read from
# the table's rows, each planned once from its parent's.
table.cell(4)  # splits cell 2
state = State(table, halves.launch, [table.find(2)])
leaves = state.leaves
volumes = bounds_volume(leaves.lo, leaves.hi)
print("leaves:", leaves.labels)
for leaf, vol in zip(leaves.labels, volumes):
    print(f"  leaf {leaf}: volume {vol:.4g}")

# The leaf cells always partition the root box exactly.
print("sum of leaf volumes:", volumes.sum())

# Labels are unbounded Python ints, so depth is not capped by a machine
# word; here is the cell at depth 80 down the leftmost spine, its bounds
# derived from its label and the root box alone.
label = 1 << 80
cell = cell_bounds(Box.from_bounds([0.0], [1.0]), [label])
print("deep label bits:", label.bit_length(), " volume:", bounds_volume(cell.lo, cell.hi)[0])

# The root box of a real run comes from the data, slightly padded so
# every point is strictly interior.
rng = np.random.default_rng(0)
pts = rng.standard_normal((1000, 2))
print("root box:", bounding_box(pts))
