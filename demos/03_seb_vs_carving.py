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

from rphist import PqmcConfig, RPTree, SEB_PRIORITY, bounding_box, carve_path, ingest, run_pqmc
from rphist.tree import cell_bounds

rng = np.random.default_rng(7)
x = rng.uniform(0, 1, 2000)
points = np.column_stack([x, x + rng.normal(0, 0.01, x.size)])
box = bounding_box(points)
s0 = ingest(RPTree(box), points)

for leaves in (20, 40):
    seb = run_pqmc(s0, points, SEB_PRIORITY, PqmcConfig(max_leaves=leaves))
    carve = carve_path(points, PqmcConfig(max_psi=0.0, max_leaves=leaves),
                       root_box=box)

    def empty_fraction(srp):
        return sum(1 for v in srp.tree.leaves() if srp.counts[v] == 0) / srp.leaf_count

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
        srp = path.final
        cells = cell_bounds(srp.tree.root_box, srp.tree.leaves())
        for (x0, y0), (x1, y1) in zip(cells.lo.tolist(), cells.hi.tolist()):
            ax.add_patch(Rectangle((x0, y0), x1 - x0, y1 - y0,
                                   fill=False, linewidth=0.7))
        ax.plot(points[:, 0], points[:, 1], ".", markersize=1)
        ax.set_title(title)
    fig.savefig("/tmp/rphist_demo_partitions.png", dpi=120)
    print("wrote /tmp/rphist_demo_partitions.png")
except ImportError:
    print("matplotlib not installed; skipping the figure")
