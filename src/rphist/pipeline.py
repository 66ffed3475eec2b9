"""End-to-end estimation pipeline: ingest, carve, explore, smooth, export.

The pipeline bounds the data with a padded box, carves away empty space
with a short support-carving chain, and spreads launch states along the
carve path.  One SEB path from the root, to the lowest threshold of the
grid and with no leaf budget, holds every tributary: the whole path from
each launch state is read off it and cut to the leaf budget, and the
path to every higher threshold is a prefix cut from that, so the
smoothing stage scores the states of the whole paths alone.  By default
the root path comes from one sharded threshold build, sorted once;
sequential mode runs the plain sequential chain from the root instead,
over the cell table of the carve, so that each cell is partitioned once
per run.  Both modes give the same histogram, ties included, and no
step of either draws a random number.  The selected histogram is
written as versioned JSON next to a manifest with the configuration,
per-candidate diagnostics, each whole path's tie flag, the threshold
build's iteration stats (the whole paths' split counts and the
partitioned cells in sequential mode) and stage timings.  A selected
tau at either end of the tau grid is logged as a warning; each stage's
time is logged at INFO.
"""

from __future__ import annotations

import json
import logging
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .distributed import build_threshold_tree, reconstruct_path, truncate_path
from .errors import InsufficientData, NotBisectable
from .geometry import DEFAULT_PAD, bounding_box, require_volume
from .io import ingest_csv, save_histogram
from .pqmc import (
    CellTable,
    PqmcConfig,
    SEB_PRIORITY,
    carve_path,
    launch_states,
    run_pqmc,
)
from .smoothing import (
    DEFAULT_TAU_MAX,
    DEFAULT_TAU_MIN,
    DEFAULT_TAU_STEPS,
    ScoredEstimate,
    SmoothingConfig,
    select,
    tau_grid,
)
from .srp import Histogram, histogram

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run needs.

    ``maxpts`` is the grid of SEB stopping thresholds (one tributary
    system per entry); ``carve_leaves`` defaults to a tenth of
    ``maxlvs``.  ``strict`` makes malformed CSV rows fatal instead of
    skipped-with-report.
    """

    input_path: str | None = None
    dim: int = 2
    shards: int = 1
    workers: int = 1
    pad: float = DEFAULT_PAD
    carve_leaves: int | None = None
    tributaries: int = 5
    maxpts: tuple[int, ...] = (50, 500, 1500)
    maxlvs: int | None = None
    tau_min: float = DEFAULT_TAU_MIN
    tau_max: float = DEFAULT_TAU_MAX
    tau_steps: int = DEFAULT_TAU_STEPS
    out: str | None = None
    strict: bool = False
    sequential: bool = False
    max_depth: int = 1000

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.shards < 1 or self.workers < 1 or self.tributaries < 1:
            raise ValueError("shards, workers and tributaries must be >= 1")
        if not self.maxpts:
            raise ValueError("maxpts grid must be nonempty")
        if any(p < 1 for p in self.maxpts):
            raise ValueError("maxpts entries must be >= 1")
        if self.carve_leaves is not None and self.carve_leaves < 1:
            raise ValueError("carve_leaves must be >= 1")
        if self.maxlvs is not None:
            if self.maxlvs < 1:
                raise ValueError("maxlvs must be >= 1")
            if self.effective_carve_leaves > self.maxlvs:
                raise ValueError("carve_leaves cannot exceed maxlvs")
        if not 0 <= self.pad < math.inf:
            raise ValueError("pad must be finite and >= 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.tau_steps < 1 or not 0 < self.tau_min <= self.tau_max < math.inf:
            raise ValueError("invalid tau grid")
        SmoothingConfig(self.tau_grid())  # raises unless strictly increasing

    @property
    def effective_carve_leaves(self) -> int:
        if self.carve_leaves is not None:
            return self.carve_leaves
        if self.maxlvs is not None:
            return max(1, self.maxlvs // 10)
        return 100

    def tau_grid(self) -> tuple[float, ...]:
        return tau_grid(self.tau_min, self.tau_max, self.tau_steps)


def run_pipeline(cfg: RunConfig, points=None) -> tuple[Histogram, ScoredEstimate]:
    """Run the full pipeline and return the selected histogram.

    Points come from ``cfg.input_path`` unless passed directly.  The
    same points and config give byte-identical histogram JSON in either
    mode; the manifest also records wall-clock timings and is therefore
    not.  The root box bounds every point.  Fewer than two points raise
    :class:`~rphist.errors.InsufficientData`, and a root box whose volume
    is zero or not finite :class:`~rphist.errors.NotBisectable`, before
    anything is built or written.
    """
    timings: dict[str, float] = {}
    skipped_rows = 0
    with _stage(timings, "ingest"):
        if points is None:
            if cfg.input_path is None:
                raise ValueError("need either points or cfg.input_path")
            points, skipped_rows = ingest_csv(cfg.input_path, cfg.dim, strict=cfg.strict)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != cfg.dim:
            raise ValueError(f"points have dim {points.shape[1]}, config says {cfg.dim}")
        root_box = bounding_box(points, cfg.pad)
        if len(points) < 2:
            raise InsufficientData(f"need at least 2 points, got {len(points)}")
        try:
            require_volume(root_box)
        except NotBisectable as exc:
            raise NotBisectable(f"{exc} (pad > 0 widens a constant coordinate)") from None

    with _stage(timings, "carve"):
        carve_cfg = PqmcConfig(
            max_psi=0.0,
            max_leaves=cfg.effective_carve_leaves,
            max_depth=cfg.max_depth,
        )
        table = CellTable(points, root_box)
        carve = carve_path(table, carve_cfg)
        launches = launch_states(carve, cfg.tributaries)

    # One SEB path from the root to the lowest threshold, with no leaf
    # budget; each launch state's whole path is read off it, to the budget.
    low = float(min(cfg.maxpts))
    with _stage(timings, "tributary_build"):
        if cfg.sequential:
            root = run_pqmc(carve.initial, table, SEB_PRIORITY,
                            PqmcConfig(max_psi=low, max_depth=cfg.max_depth))
            build = {"threshold": low, "partitioned_cells": table.partitioned}
            logger.info("1 sequential SEB chain to threshold %g: %d splits, "
                        "%d cells partitioned", low, root.split_count, table.partitioned)
        else:
            del table, carve  # the carve path holds the table; the build tags its own points
            base = build_threshold_tree(
                points, root_box, low, PqmcConfig(max_depth=cfg.max_depth),
                shard_count=cfg.shards, workers=cfg.workers,
            )
            root = base.path
            logger.info("1 threshold build to threshold %g (%d iterations) "
                        "for %d launch states", low, base.iterations, len(launches))
            build = {"threshold": base.threshold,
                     "iterations": base.iterations,
                     "split_cells": [st.split_cells for st in base.stats],
                     "working_points": [st.working_points for st in base.stats],
                     "passed_points": [st.passed_points for st in base.stats]}
        wholes = [truncate_path(reconstruct_path(root, s), low, cfg.maxlvs)
                  for s in launches]
        if cfg.sequential:
            build["splits"] = [w.split_count for w in wholes]
        build["had_ties"] = [w.had_ties for w in wholes]

    # each cut is a prefix of its whole path: it gives the manifest its
    # candidate row, and the whole paths hold every candidate state
    with _stage(timings, "tributary_paths"):
        candidates = []
        for maxpts in cfg.maxpts:
            for i, (state, whole) in enumerate(zip(launches, wholes)):
                path = truncate_path(whole, float(maxpts), cfg.maxlvs)
                candidates.append({
                    "maxpts": int(maxpts),
                    "tributary": i,
                    "launch_leaves": state.leaf_count,
                    "final_leaves": path.leaf_count,
                    "success": path.success,
                })
        logger.info("%d tributary paths cut from %d whole paths",
                    len(candidates), len(wholes))

    with _stage(timings, "smoothing"):
        estimate = select(wholes, SmoothingConfig(cfg.tau_grid()))
        hist = histogram(estimate.state)
    grid_ends = (estimate.cv_curve[0].tau, estimate.cv_curve[-1].tau)
    tau_at_grid_edge = estimate.tau in grid_ends
    if tau_at_grid_edge:
        logger.warning("selected tau %g is at the %s end of the tau grid "
                       "[%g, %g]; the CV optimum may lie outside it",
                       estimate.tau, "lower" if estimate.tau == grid_ends[0]
                       else "upper", *grid_ends)

    if cfg.out is not None:
        with _stage(timings, "export"):
            save_histogram(hist, cfg.out)
        _write_manifest(cfg, hist, estimate, tau_at_grid_edge, candidates,
                        build, timings, skipped_rows)
    return hist, estimate


@contextmanager
def _stage(timings: dict[str, float], name: str):
    """Time the block as stage ``name`` and log the time at INFO."""
    t0 = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - t0
    logger.info("stage %s: %.3f s", name, timings[name])


def _write_manifest(cfg: RunConfig, hist: Histogram, estimate: ScoredEstimate,
                    tau_at_grid_edge: bool, candidates, build: dict,
                    timings, skipped_rows) -> None:
    config = asdict(cfg)
    del config["out"]
    config["carve_leaves"] = cfg.effective_carve_leaves
    manifest = {
        "config": config,
        "n": hist.n,
        "skipped_rows": skipped_rows,
        "root_box": asdict(hist.root_box),
        "candidates": candidates,
        "build": build,
        "selected": {
            "tau": estimate.tau,
            "leaf_count": estimate.state.leaf_count,
            "penalized_score": estimate.penalized_score,
            "cv_score": estimate.cv_score,
            "cv_curve": [{"tau": pt.tau, "cv_score": pt.cv_score,
                          "leaf_count": pt.leaf_count} for pt in estimate.cv_curve],
            "tau_at_grid_edge": tau_at_grid_edge,
        },
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
    }
    path = Path(cfg.out).with_suffix(Path(cfg.out).suffix + ".manifest.json")
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
