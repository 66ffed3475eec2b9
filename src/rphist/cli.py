"""Command line interface: ``build``, ``eval`` and ``plot`` subcommands."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields

from .errors import RphistError
from .evaluate import l1_error, make_reference
from .io import export_plot_data, load_histogram
from .pipeline import RunConfig, run_pipeline


def thresholds(text: str) -> tuple[int, ...]:
    """The ``--maxpts`` grid: comma-separated integers."""
    return tuple(int(p) for p in text.split(",") if p.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rphist",
        description="Adaptive multivariate histograms on regular paving trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="estimate a density from CSV points")
    b.add_argument("--input", dest="input_path", required=True, help="CSV file of points")
    b.add_argument("--dim", type=int, required=True, help="point dimension")
    b.add_argument("--shards", type=int, default=RunConfig.shards)
    b.add_argument("--workers", type=int, default=RunConfig.workers,
                   help="worker threads for the sharded builder")
    b.add_argument("--carve-leaves", type=int, default=None,
                   help="leaf budget of the carving chain (default maxlvs/10)")
    b.add_argument("--tributaries", type=int, default=RunConfig.tributaries)
    b.add_argument("--maxpts", type=thresholds, default=RunConfig.maxpts,
                   help="comma-separated SEB stopping thresholds")
    b.add_argument("--maxlvs", type=int, default=None,
                   help="leaf budget per tributary (default unlimited)")
    b.add_argument("--tau-min", type=float, default=RunConfig.tau_min)
    b.add_argument("--tau-max", type=float, default=RunConfig.tau_max)
    b.add_argument("--tau-steps", type=int, default=RunConfig.tau_steps)
    b.add_argument("--seed", type=int, default=0,
                   help="ignored: the build draws no random numbers")
    b.add_argument("--out", required=True, help="histogram JSON output path")
    b.add_argument("--pad", type=float, default=RunConfig.pad,
                   help="relative root-box padding per side")
    b.add_argument("--max-depth", type=int, default=RunConfig.max_depth)
    b.add_argument("--sequential", action="store_true",
                   help="use the sequential chain instead of the sharded builder")
    b.add_argument("--strict", action="store_true",
                   help="fail on malformed CSV rows instead of skipping them")
    b.add_argument("--verbose", action="store_true",
                   help="log each stage's time and the chain or build it ran")
    b.set_defaults(error=b.error)  # a usage error names its subcommand

    e = sub.add_parser("eval", help="L1 error of a histogram vs a reference")
    e.add_argument("--hist", required=True, help="histogram JSON file")
    e.add_argument("--reference", required=True, choices=["gaussian", "uniform"],
                   help="gaussian: standard normal; uniform: over the root box")
    e.add_argument("--mc", type=int, default=256, help="Monte Carlo draws per leaf")
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(error=e.error)

    p = sub.add_parser("plot", help="export leaf rectangles (2-D) or a leaf table")
    p.add_argument("--hist", required=True, help="histogram JSON file")
    p.add_argument("--out", required=True, help="CSV output path")
    return parser


def _cmd_build(args, cfg: RunConfig) -> int:
    if args.verbose:
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("rphist").setLevel(logging.INFO)
    hist, estimate = run_pipeline(cfg)
    print(f"n={hist.n} leaves={hist.leaf_count} tau={estimate.tau:.6g} "
          f"cv={estimate.cv_score:.6g} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    hist = load_histogram(args.hist)
    reference = make_reference(args.reference, hist.root_box.dim, hist.root_box)
    report = l1_error(hist, reference, mc_per_leaf=args.mc, seed=args.seed)
    print(f"l1={report.l1_estimate:.6f} +/- {report.l1_std_error:.6f} "
          f"(outside_mass={report.outside_mass:.6f}, "
          f"mc_per_leaf={report.samples_per_leaf})")
    return 0


def _cmd_plot(args) -> int:
    hist = load_histogram(args.hist)
    mode = export_plot_data(hist, args.out)
    if mode == "table":
        print(f"dimension {hist.root_box.dim} != 2: wrote a leaf table instead "
              f"of rectangles -> {args.out}")
    else:
        print(f"wrote {hist.leaf_count} rectangles -> {args.out}")
    return 0


def main(argv=None) -> int:
    """Run one subcommand; a file that cannot be read or a malformed input
    is reported in one line on stderr, with exit code 1."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "build":
            try:  # an invalid value is a usage error, found before anything is read
                cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
            except ValueError as exc:
                args.error(str(exc))
            return _cmd_build(args, cfg)
        if args.command == "eval":
            if args.mc < 2:
                args.error("argument --mc: need at least two draws per leaf")
            if args.seed < 0:
                args.error("argument --seed: must be >= 0")
            return _cmd_eval(args)
        return _cmd_plot(args)
    except (OSError, RphistError) as exc:
        print(f"rphist: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
