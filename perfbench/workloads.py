"""Benchmark workloads: seeded point sets and the build flags for each.

Run as a script, this is the benchmark's set-up step: it imports
``rphist``, draws the workload's points from the seed and writes them
to a CSV, which is the only input the program sees::

    python3 perfbench/workloads.py normal2d 3 points.csv [--rows N]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Settings shared by every workload; everything else is a CLI default.
COMMON_BUILD_FLAGS = (
    "--carve-leaves", "100", "--tributaries", "5",
    "--maxpts", "50,500,1500", "--seed", "7",
)
EVAL_MC_PER_LEAF = 256
EVAL_SEED = 1

# Two corner rows pin the root box to [-BOX_HALF_WIDTH, BOX_HALF_WIDTH]^d.
# Without them the box follows each seed's extreme draws, and the
# midpoint grid, the tree size and the run time jump from seed to seed
# (7.8k to 11.9k leaves at 100k x 10-D; 5.1k to 5.2k with the pin at 50k).
BOX_HALF_WIDTH = 6.0

# messy2d: real data is rounded and repeats rows.
ROUNDING_DECIMALS = 2
DUPLICATED_POINTS = 10
DUPLICATE_COPIES = 200


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    dim: int
    build_flags: tuple[str, ...]
    messy: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # Sharded count/split/prune/retag loop on two real threads; SEB
        # ties make the two builder modes disagree on some seeds.
        Workload("normal2d", 20_000, 2, ("--shards", "2", "--workers", "2")),
        # ~2.6k leaves and 10 coordinates per cell_bounds walk: much of the
        # build is smoothing, srp and export, and eval is load + l1_error.
        Workload("normal10d", 45_000, 10, ("--shards", "1")),
        # Rounded data with duplicate rows: heavy SEB ties, deep labels in
        # the sequential chain, DepthExhausted in the sharded builder.  Not
        # in BENCHMARK.json: half its operations fail by design, and its
        # selected leaf count jumps from seed to seed (about 1.8k to 2.5k).
        Workload("messy2d", 100_000, 2, ("--shards", "1"), messy=True),
    )
}


def make_points(w: Workload, seed: int, rows: int | None = None) -> np.ndarray:
    """Standard-normal draws from ``seed``; the same seed gives the same points.

    ``rows`` overrides the workload's size (used for smoke tests).  For a
    messy workload the draws are rounded, and ``DUPLICATED_POINTS`` more
    rounded draws are each repeated ``DUPLICATE_COPIES`` times and shuffled in.
    The two box corners come last.
    """
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((rows or w.rows, w.dim))
    if w.messy:
        points = np.round(points, ROUNDING_DECIMALS)
        dups = np.round(rng.standard_normal((DUPLICATED_POINTS, w.dim)),
                        ROUNDING_DECIMALS)
        points = np.concatenate([points, np.repeat(dups, DUPLICATE_COPIES, axis=0)])
        rng.shuffle(points)
    corners = np.array([[-BOX_HALF_WIDTH] * w.dim, [BOX_HALF_WIDTH] * w.dim])
    return np.concatenate([points, corners])


def write_csv(points: np.ndarray, path) -> None:
    """Write points so that parsing the text gives back the same doubles."""
    np.savetxt(path, points, fmt="%.17g", delimiter=",")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("out", type=Path)
    parser.add_argument("--rows", type=int, default=None)
    args = parser.parse_args(argv)
    import rphist  # noqa: F401  (part of the timed set-up, as a user pays it)
    write_csv(make_points(WORKLOADS[args.workload], args.seed, args.rows), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
