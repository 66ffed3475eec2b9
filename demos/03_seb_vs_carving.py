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

from rphist import PqmcConfig, SEB_PRIORITY, State, bounding_box, carve_path, run_pqmc
from rphist.pqmc import CellTable

rng = np.random.default_rng(7)
x = rng.uniform(0, 1, 2000)
points = np.column_stack([x, x + rng.normal(0, 0.01, x.size)])
box = bounding_box(points)
table = CellTable(points, box)
s0 = State(table, [1])

for leaves in (20, 40):
    seb = run_pqmc(s0, table, SEB_PRIORITY, PqmcConfig(max_leaves=leaves))
    carve = carve_path(table, PqmcConfig(max_leaves=leaves))

    def empty_fraction(state):
        return (state.leaves.counts == 0).sum() / state.leaf_count

    print(f"{leaves} leaves: empty-leaf fraction "
          f"SEB={empty_fraction(seb.final):.2f} "
          f"carve={empty_fraction(carve.final):.2f}")

# Optional picture: leaf rectangles of both partitions at 40 leaves.
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    from matplotlib.patches import Rectangle

    fig, axes = plt.subplots(1, 2, figsize=(10, 5), sharex=True, sharey=True)
    for ax, path, title in ((axes[0], seb, "SEB, 40 leaves"),
                            (axes[1], carve, "carving, 40 leaves")):
        cells = path.final.leaves
        for (x0, y0), (x1, y1) in zip(cells.lo.tolist(), cells.hi.tolist()):
            ax.add_patch(Rectangle((x0, y0), x1 - x0, y1 - y0,
                                   fill=False, linewidth=0.7))
        ax.plot(points[:, 0], points[:, 1], ".", markersize=1)
        ax.set_title(title)
    fig.savefig("/tmp/rphist_demo_partitions.png", dpi=120)
    print("wrote /tmp/rphist_demo_partitions.png")
except ImportError:
    print("matplotlib not installed; skipping the figure")
