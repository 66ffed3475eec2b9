"""
Boxes, bisection and integer-labelled paving trees
==================================================

The building block of everything here: a box is split at the midpoint
of its first widest coordinate, a point on the splitting plane belongs
to the right child, and the resulting binary tree is addressed with
plain integers (root 1, children 2n and 2n+1).  Cells are never stored:
the bounds of any batch of labels are recomputed from the root box.
"""

import numpy as np

from rphist import Box, RPTree, bounding_box, children, depth, ingest, parent
from rphist.geometry import bounds_volume, split_plane
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
tree = RPTree(square).split(1)
counts = ingest(tree, [[0.5, 0.3]]).counts
print("the point (0.5, 0.3) on the plane lands in cell",
      next(v for v in tree.leaves() if counts[v]))

# Integer labels encode the root-to-node path in binary.
print("children of 1:", children(1), " children of 5:", children(5))
print("parent of 5:", parent(5), " depth of 5:", depth(5))

# A paving is a prefix-closed label set; cell bounds are recomputed from
# the labels, all leaves in one call.
tree = tree.split(2)
cells = cell_bounds(tree.root_box, tree.leaves())
volumes = bounds_volume(cells.lo, cells.hi)
print("leaves:", tree.leaves())
for leaf, vol in zip(tree.leaves(), volumes):
    print(f"  leaf {leaf}: volume {vol:.4g}")

# The leaf cells always partition the root box exactly.
print("sum of leaf volumes:", volumes.sum())

# Labels are unbounded Python ints, so depth is not capped by a machine
# word; here is the cell at depth 80 down the leftmost spine.
deep = RPTree(Box.from_bounds([0.0], [1.0]))
label = 1
for _ in range(80):
    deep = deep.split(label)
    label *= 2
cell = cell_bounds(deep.root_box, [label])
print("deep label bits:", label.bit_length(), " volume:", bounds_volume(cell.lo, cell.hi)[0])

# The root box of a real run comes from the data, slightly padded so
# every point is strictly interior.
rng = np.random.default_rng(0)
pts = rng.standard_normal((1000, 2))
print("root box:", bounding_box(pts))
