"""End-to-end and per-layer benchmark of ``rphist build`` and ``rphist eval``.

A run sets up its workload's CSV from ``--seed``, then repeats
iterations while the next one is expected to end within ``--seconds``
(at least one).  An iteration builds a histogram from the CSV in the
default (sharded) mode and with ``--sequential``, then evaluates every
histogram that was built against the standard normal.  Builds and evals
are the operations; one that raises, exits non-zero, writes no output,
fails an output check or changes its output sha256 for the same seed
counts as failed, and the run goes on.

``--trace 0`` reports the end-to-end metrics.  Each build runs in its
own forked child, so its peak resident memory is its own.  ``--trace 1``
reports the per-layer metrics: each iteration runs the same builds and
evals in this process once untraced and once with spans around rphist's
public functions (see ``spans.py``).

    python3 perfbench/run.py --workload normal2d --seed 3 --seconds 20 --trace 0

The last line of standard output is one JSON object; the lines before it
are a readable report.  Full results, hashes and the trace are written
under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer
from workloads import (
    COMMON_BUILD_FLAGS,
    EVAL_MC_PER_LEAF,
    EVAL_SEED,
    WORKLOADS,
    Workload,
    make_points,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODES = ("default", "sequential")
SETUP_REPEATS = 3
MASS_TOLERANCE = 1e-9
EVAL_MIN_S = 0.25  # cheap evals repeat, so that eval_s is a median of many
# Printed and saved, but not in BENCHMARK.json: 0 or undefined on some
# workloads, or (l1 in 10-D) varying widely from seed to seed.
REPORT_ONLY = ("l1", "l1_seq", "modes_agree", "failed_frac")


def _import_program():
    """Import rphist from this checkout's ``src``, or exit non-zero."""
    if not (SRC / "rphist" / "__init__.py").is_file():
        sys.exit(f"no rphist sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rphist
    if Path(rphist.__file__).resolve().parent != SRC / "rphist":
        sys.exit(f"imported rphist from {rphist.__file__}, not from {SRC}")
    from rphist import cli, distributed, evaluate, io as rio, pipeline, pqmc, smoothing, srp
    return cli, distributed, evaluate, rio, pipeline, pqmc, smoothing, srp


cli, distributed, evaluate, rio, pipeline, pqmc, smoothing, srp = _import_program()


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def program_digest() -> str:
    """sha256 over rphist's sources: output hashes are compared per program."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rphist").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class ShaRegistry:
    """Output sha256 per (program, workload, size, seed, mode), kept across
    runs in this checkout: the same seed must always give the same bytes."""

    def __init__(self, path: Path, prefix: str):
        self.path = path
        self.prefix = prefix
        self.seen = json.loads(path.read_text()) if path.exists() else {}

    def agrees(self, key: str, sha: str) -> bool:
        return self.seen.setdefault(f"{self.prefix}:{key}", sha) == sha

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
        tmp.replace(self.path)


@dataclass
class Build:
    seconds: float
    ok: bool
    error: str = ""
    peak_rss_mb: float | None = None


def build_argv(w: Workload, csv: Path, out: Path, mode: str) -> list[str]:
    argv = ["build", "--input", str(csv), "--dim", str(w.dim),
            *w.build_flags, *COMMON_BUILD_FLAGS, "--out", str(out)]
    if mode == "sequential":
        argv.append("--sequential")
    return argv


def build_in_child(argv: list[str], out: Path) -> Build:
    """``rphist build`` through ``cli.main`` in a forked child of this
    process.  The child starts with rphist imported, as set-up left it, so
    the time is that of the build alone; wait4 gives the child's own peak
    RSS, so an earlier build cannot mask it.  Its traceback goes to a file
    next to ``out``."""
    err_path = out.with_name(out.name + ".stderr")
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = perf_counter()
    pid = os.fork()
    if pid == 0:  # the child: build, then leave without the parent's exit hooks
        code = 1
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.dup2(os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 2)
            code = cli.main(argv)
        except BaseException:
            traceback.print_exc()
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted: stop the build before leaving
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    seconds = perf_counter() - t0
    ok = os.waitstatus_to_exitcode(status) == 0
    lines = err_path.read_text(errors="replace").strip().splitlines()
    return Build(seconds, ok, lines[-1] if lines else "", usage.ru_maxrss / 1024.0)


def build_in_process(argv: list[str], out: Path) -> Build:
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    except Exception as exc:  # a failed build is counted, and the run goes on
        return Build(perf_counter() - t0, False, f"{type(exc).__name__}: {exc}")
    return Build(perf_counter() - t0, True)


def eval_histogram(path: Path):
    """What ``rphist eval --reference gaussian`` does: load, then L1 by MC."""
    t0 = perf_counter()
    hist = rio.load_histogram(path)
    reference = evaluate.make_reference("gaussian", hist.root_box.dim, hist.root_box)
    report = evaluate.l1_error(hist, reference, mc_per_leaf=EVAL_MC_PER_LEAF,
                               seed=EVAL_SEED)
    return perf_counter() - t0, hist, report.l1_estimate


def output_problems(hist, n: int, l1: float) -> list[str]:
    problems = []
    if hist.n != n:
        problems.append(f"n={hist.n}, expected {n}")
    if sum(leaf.count for leaf in hist.leaves) != hist.n:
        problems.append("leaf counts do not sum to n")
    if abs(hist.total_mass() - 1.0) > MASS_TOLERANCE:
        problems.append(f"total mass {hist.total_mass()!r}")
    if not (math.isfinite(l1) and l1 >= 0.0):  # an MC estimate may exceed 2
        problems.append(f"L1 estimate {l1!r}")
    return problems


@dataclass
class Iteration:
    builds: dict = field(default_factory=dict)  # mode -> Build
    sha: dict = field(default_factory=dict)  # mode -> sha256 of the JSON
    l1: dict = field(default_factory=dict)  # mode -> L1 error
    leaves: dict = field(default_factory=dict)  # mode -> leaf count
    eval_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    seconds: float = 0.0


def run_iteration(w: Workload, csv: Path, n: int, build, registry: ShaRegistry,
                  key: str, out_dir: Path, eval_min_s: float = 0.0) -> Iteration:
    """Build in both modes, then evaluate each histogram built.  An eval is
    one operation; it is repeated, as timing samples, until ``eval_min_s``
    seconds are spent on it."""
    t0 = perf_counter()
    it = Iteration()
    outputs = {}
    for mode in MODES:
        out = out_dir / f"{w.name}-{mode}.json"
        out.unlink(missing_ok=True)
        b = it.builds[mode] = build(build_argv(w, csv, out, mode), out)
        it.attempted += 1
        if not (b.ok and out.is_file()):
            it.failed += 1
            continue
        outputs[mode] = out
        it.sha[mode] = hashlib.sha256(out.read_bytes()).hexdigest()
        if not registry.agrees(f"{key}:{mode}", it.sha[mode]):
            it.failed += 1
            it.problems.append(f"{mode}: sha256 differs from an earlier run")
    for mode in MODES:
        it.attempted += 1
        if mode not in outputs:  # its histogram was never built
            it.failed += 1
            continue
        problems = []
        spent = 0.0
        while not problems and (spent == 0.0 or spent < eval_min_s):
            try:
                seconds, hist, l1 = eval_histogram(outputs[mode])
            except Exception as exc:  # counted as a failed eval
                problems.append(f"eval raised {type(exc).__name__}: {exc}")
                break
            spent += seconds
            it.eval_s.append(seconds)
            it.leaves[mode] = hist.leaf_count
            problems = output_problems(hist, n, l1)
            if it.l1.setdefault(mode, l1) != l1:
                problems.append(f"L1 {l1!r} differs from {it.l1[mode]!r} on repeat")
        if problems:
            it.failed += 1
            it.problems.extend(f"{mode}: {p}" for p in problems)
    it.seconds = perf_counter() - t0
    return it


def repeat_for(seconds: float, step) -> list:
    """Run ``step`` at least once, and again while another run is expected
    to end within ``seconds`` of the first start."""
    results = []
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        results.append(step())
        if perf_counter() + (perf_counter() - t0) > deadline:
            return results


def setup(w: Workload, seed: int, rows: int | None, csv: Path) -> float:
    """Write the workload CSV in a fresh interpreter (import rphist, draw,
    write); return the wall time."""
    argv = [sys.executable, str(Path(__file__).with_name("workloads.py")),
            w.name, str(seed), str(csv)]
    if rows is not None:
        argv += ["--rows", str(rows)]
    t0 = perf_counter()
    subprocess.run(argv, check=True, env=program_env(), stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def median_or_none(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(setup_s: list[float], its: list[Iteration]) -> dict:
    def build_times(mode):
        return [it.builds[mode].seconds for it in its]

    def l1_of(mode):
        return median_or_none([it.l1[mode] for it in its if mode in it.l1])

    attempted = sum(it.attempted for it in its)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "build_s": (statistics.median(build_times("default")), "s"),
        "build_seq_s": (statistics.median(build_times("sequential")), "s"),
        "eval_s": (median_or_none([s for it in its for s in it.eval_s]), "s"),
        "build_peak_rss_mb": (max(b.peak_rss_mb for it in its for b in it.builds.values()),
                              "MB"),
        "l1": (l1_of("default"), "1"),
        "l1_seq": (l1_of("sequential"), "1"),
        "modes_agree": (int(all(len(it.sha) == 2 and len(set(it.sha.values())) == 1
                                for it in its)), "1"),
        "failed_frac": (sum(it.failed for it in its) / attempted, "1"),
    }


def layer_tracer(counts: Counter, split_union: set) -> Tracer:
    """Spans around the names the pipeline, the sharded builder, smoothing
    and this benchmark look up, plus call counts of ``cell_bounds``."""
    def add(name, value):
        counts[name] += value

    hooks = {
        "ingest_csv": lambda a, k, r: add("io.ingest_csv_rows", len(r[0])),
        "save_histogram": lambda a, k, r: add("io.histogram_bytes",
                                              Path(a[1]).stat().st_size),
        "run_pqmc": lambda a, k, r: (add("pqmc.run_pqmc_splits", r.split_count),
                                     add("pqmc.tied_paths", int(r.had_ties))),
        "cells_to_split": lambda a, k, r: (add("distributed.split_cells", len(r)),
                                           split_union.update(r)),
        "path_profile": lambda a, k, r: add("smoothing.states_scored", len(r.m)),
        "histogram": lambda a, k, r: add("srp.leaves", r.leaf_count),
        "l1_error": lambda a, k, r: add("evaluate.mc_draws",
                                        a[0].leaf_count * r.samples_per_leaf),
    }
    tracer = Tracer()
    tracer.span(cli, "run_pipeline", "pipeline.run_pipeline")
    layers = {m.__name__: m.__name__.rsplit(".", 1)[1]
              for m in (rio, pqmc, distributed, smoothing, srp)}
    for attr, value in sorted(vars(pipeline).items()):
        if inspect.isfunction(value) and value.__module__ in layers:
            tracer.span(pipeline, attr, f"{layers[value.__module__]}.{attr}",
                        hooks.get(attr))
    for attr in ("count_by_cell", "cells_to_split", "apply_splits", "prune",
                 "assemble_srp"):
        tracer.span(distributed, attr, f"distributed.{attr}", hooks.get(attr))
    tracer.span(smoothing, "path_profile", "smoothing.path_profile",
                hooks["path_profile"])
    tracer.span(rio, "load_histogram", "io.load_histogram")
    tracer.span(evaluate, "l1_error", "evaluate.l1_error", hooks["l1_error"])
    for module in (distributed, pqmc, smoothing, srp):
        tracer.count(module, "cell_bounds", "tree.cell_bounds")
    return tracer


SPAN_TOTALS = (
    "io.ingest_csv", "io.save_histogram", "io.load_histogram",
    "pqmc.carve_path", "pqmc.run_pqmc",
    "distributed.build_threshold_tree", "distributed.count_by_cell",
    "distributed.cells_to_split", "distributed.apply_splits", "distributed.prune",
    "distributed.assemble_srp", "distributed.reconstruct_path",
    "distributed.truncate_path",
    "smoothing.select", "smoothing.path_profile",
    "srp.histogram",
    "evaluate.l1_error",
)
COUNTS = (
    "io.ingest_csv_rows", "io.histogram_bytes", "pqmc.run_pqmc_splits",
    "pqmc.tied_paths", "distributed.split_cells", "smoothing.states_scored",
    "srp.leaves", "evaluate.mc_draws",
)


@dataclass
class TracedIteration:
    metrics: dict  # name -> (value, unit)
    iteration: Iteration
    tracer: Tracer


def traced_iteration(w, csv, n, registry, key, out_dir) -> TracedIteration:
    """The in-process iteration twice, untraced and then traced, with one
    eval per histogram so that counts repeat exactly."""
    untraced = run_iteration(w, csv, n, build_in_process, registry, key, out_dir)
    counts: Counter = Counter()
    split_union: set = set()
    tracer = layer_tracer(counts, split_union)
    with tracer.installed():
        traced = run_iteration(w, csv, n, build_in_process, registry, key, out_dir)
    m = {f"{name}_s": (tracer.total_s(name), "s") for name in SPAN_TOTALS}
    m.update({name: (counts[name], "count") for name in COUNTS})
    m["io.histogram_bytes"] = (counts["io.histogram_bytes"], "B")
    m["distributed.iterations"] = (tracer.calls["distributed.apply_splits"], "count")
    m["distributed.failed_builds"] = (tracer.failures("distributed.build_threshold_tree"),
                                      "count")
    split_cells = counts["distributed.split_cells"]
    m["distributed.unique_split_ratio"] = (
        len(split_union) / split_cells if split_cells else None, "1")
    m["tree.cell_bounds_calls"] = (tracer.calls["tree.cell_bounds"], "count")
    m["tree.cell_bounds_s"] = (tracer.busy["tree.cell_bounds"], "s")
    m["pipeline.self_s"] = (tracer.self_times().get("pipeline.run_pipeline", 0.0), "s")
    m["trace.untraced_s"] = (untraced.seconds, "s")
    m["trace.overhead_s"] = (traced.seconds - untraced.seconds, "s")
    merged = Iteration(attempted=untraced.attempted + traced.attempted,
                       failed=untraced.failed + traced.failed,
                       problems=untraced.problems + traced.problems,
                       builds=traced.builds, sha=traced.sha, leaves=traced.leaves)
    return TracedIteration(m, merged, tracer)


def per_layer_metrics(runs: list[TracedIteration]) -> tuple[dict, list[str]]:
    """Medians over iterations; counts must repeat exactly."""
    out, problems = {}, []
    for name, (value, unit) in runs[0].metrics.items():
        values = [r.metrics[name][0] for r in runs]
        if unit == "s":
            out[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between iterations: {values}")
            out[name] = (value, unit)
    return out, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rphist benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=None,
                        help="override the workload size (smoke tests)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a build in progress is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    csv = OUT / f"{w.name}.csv"
    n = len(make_points(w, args.seed, args.rows))
    key = f"{w.name}:{n}:{args.seed}"
    registry = ShaRegistry(OUT / "sha256.json", program_digest())

    setup_s = [setup(w, args.seed, args.rows, csv)
               for _ in range(1 if args.trace else SETUP_REPEATS)]
    if args.trace:
        runs = repeat_for(args.seconds,
                          lambda: traced_iteration(w, csv, n, registry, key, OUT))
        metrics, problems = per_layer_metrics(runs)
        its = [r.iteration for r in runs]
        runs[-1].tracer.dump(OUT / f"trace-{w.name}-seed{args.seed}.json")
        report_only = {}
    else:
        its = repeat_for(args.seconds,
                         lambda: run_iteration(w, csv, n, build_in_child,
                                               registry, key, OUT, EVAL_MIN_S))
        problems = []
        metrics = end_to_end_metrics(setup_s, its)
        report_only = {k: metrics.pop(k) for k in REPORT_ONLY}
    registry.save()
    problems += [p for it in its for p in it.problems]
    attempted = sum(it.attempted for it in its)
    failed = sum(it.failed for it in its)
    errors = sorted({f"{mode}: {b.error}" for it in its
                     for mode, b in it.builds.items() if not b.ok})
    info = {
        "workload": w.name, "seed": args.seed, "points": n, "dim": w.dim,
        "build_flags": [*w.build_flags, *COMMON_BUILD_FLAGS],
        "iterations": len(its),
        "sha256": {mode: sorted({it.sha[mode] for it in its if mode in it.sha})
                   for mode in MODES},
        "leaves": {mode: sorted({it.leaves[mode] for it in its if mode in it.leaves})
                   for mode in MODES},
        "build_seconds": {mode: [it.builds[mode].seconds for it in its] for mode in MODES},
        "eval_samples": sum(len(it.eval_s) for it in its),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "build_errors": errors, "problems": problems,
    }
    for k, v in info.items():
        print(f"# {k}: {v}")
    for name, (value, unit) in {**metrics, **report_only}.items():
        print(f"{name:36s} {value!r:>24} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**info, **result, "report_only": report_only}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
