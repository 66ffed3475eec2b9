"""
Two complementary splitting chains
==================================

The SEB chain splits the fullest cell (priority = count) and drives all
cells towards equal occupancy, but it leaves big empty boxes untouched.
The support-carving chain splits large sparse cells (priority =
(1 - count/n) * volume) and trims the void around the data instead.
Run on strongly correlated data, carving produces far more empty leaves
at the same partition size, which is exactly what makes it a good
warm-up stage before SEB refinement.
"""

import numpy as np

from rphist import bounding_box, carve_path, run_pqmc
from rphist.pqmc import CellTable

rng = np.random.default_rng(7)
x = rng.uniform(0, 1, 2000)
points = np.column_stack([x, x + rng.normal(0, 0.01, x.size)])
box = bounding_box(points)
table = CellTable(points, box)
# The SEB chain runs to a count threshold; its state after t splits has
# t + 1 leaves.  The carve runs to a leaf budget.  Both share the table.
seb = run_pqmc(table, 30.0)

for leaves in (20, 40):
    seb_state = seb.state(leaves - 1)
    carve = carve_path(table, leaves)

    def empty_fraction(state):
        return (state.leaves.counts == 0).sum() / state.leaf_count

    print(f"{leaves} leaves: empty-leaf fraction "
          f"SEB={empty_fraction(seb_state):.2f} "
          f"carve={empty_fraction(carve.final):.2f}")

# Optional picture: leaf rectangles of both partitions at 40 leaves.
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    from matplotlib.patches import Rectangle

    fig, axes = plt.subplots(1, 2, figsize=(10, 5), sharex=True, sharey=True)
    for ax, state, title in ((axes[0], seb_state, "SEB, 40 leaves"),
                             (axes[1], carve.final, "carving, 40 leaves")):
        cells = state.leaves
        for (x0, y0), (x1, y1) in zip(cells.lo.tolist(), cells.hi.tolist()):
            ax.add_patch(Rectangle((x0, y0), x1 - x0, y1 - y0,
                                   fill=False, linewidth=0.7))
        ax.plot(points[:, 0], points[:, 1], ".", markersize=1)
        ax.set_title(title)
    fig.savefig("/tmp/rphist_demo_partitions.png", dpi=120)
    print("wrote /tmp/rphist_demo_partitions.png")
except ImportError:
    print("matplotlib not installed; skipping the figure")
