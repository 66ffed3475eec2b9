"""Adaptive multivariate histograms on regular paving trees.

Build optimally smoothed histogram density estimates by priority-queued
bisection of a root box, either sequentially or through a sharded
threshold-splitting builder whose internal nodes, sorted, are exactly
the sequential refinement path.
"""

from . import errors
from .distributed import BuildResult, build_threshold_tree, reconstruct_path
from .evaluate import EvalReport, GaussianReference, UniformReference, l1_error, make_reference
from .geometry import Box, bounding_box
from .io import export_plot_data, ingest_csv, load_histogram, save_histogram
from .pipeline import RunConfig, run_pipeline
from .pqmc import (
    PqmcConfig,
    PqmcPath,
    Priority,
    SEB_PRIORITY,
    SPC_PRIORITY,
    State,
    carve_path,
    launch_states,
    run_pqmc,
)
from .smoothing import (
    ScoredEstimate,
    SmoothingConfig,
    cv_score,
    penalized_score,
    select,
    tau_grid,
)
from .srp import Histogram, density_at, histogram, log_likelihood
from .tree import children, depth, parent

__version__ = "0.1.0"
