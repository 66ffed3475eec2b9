"""Adaptive multivariate histograms on regular paving trees.

Build optimally smoothed histogram density estimates by priority-queued
bisection of a root box, either sequentially or through a sharded
threshold-splitting builder whose internal nodes, sorted, are exactly
the sequential refinement path.
"""

from . import errors
from .distributed import (
    BuildResult,
    CountTable,
    TaggedDataset,
    apply_splits,
    assemble_srp,
    build_threshold_tree,
    cells_to_split,
    count_by_cell,
    prune,
    reconstruct_path,
    truncate_path,
)
from .evaluate import EvalReport, GaussianReference, UniformReference, l1_error, make_reference
from .geometry import Box, Interval, bisect, bounding_box, contains, widest_coordinate
from .io import export_plot_data, ingest_csv, load_histogram, load_tree, save_histogram, save_tree
from .pipeline import RunConfig, run_pipeline
from .pqmc import (
    PqmcConfig,
    PqmcPath,
    Priority,
    SEB_PRIORITY,
    SPC_PRIORITY,
    carve_path,
    launch_states,
    run_pqmc,
    splittable_leaves,
)
from .smoothing import (
    ScoredEstimate,
    SmoothingConfig,
    cv_score,
    default_tau_grid,
    penalized_score,
    select,
)
from .srp import SRP, Histogram, density_at, histogram, ingest, log_likelihood, root_srp
from .tree import RPTree, cell_box, children, depth, parent

__version__ = "0.1.0"
