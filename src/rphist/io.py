"""File formats: CSV point ingestion, histogram JSON, plot CSV.

Histogram JSON is versioned and fully deterministic (sorted keys,
leaves in ascending label order, labels as decimal strings so arbitrary
depths survive), which makes repeated pipeline runs byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, EmptyInput, NotBisectable, ParseError
from .geometry import Box
from .srp import Histogram
from .tree import RPTree

HISTOGRAM_FORMAT = "rphist-histogram"
HISTOGRAM_VERSION = 1


def ingest_csv(path, d: int, strict: bool = True) -> tuple[np.ndarray, int]:
    """Read points from a CSV of ``d`` comma-separated finite decimals.

    Blank lines and ``#`` comments are ignored; a non-numeric first row
    is treated as a header, and a leading UTF-8 byte-order mark is
    dropped.  Malformed rows raise :class:`ParseError` with their line
    number in strict mode and are skipped otherwise.  Returns
    ``(points, skipped_rows)``.

    The leading blank, comment and header lines are skipped line by
    line; the open file, from its first data row on, goes to one
    ``np.loadtxt`` pass, which is kept only if every data row holds
    ``d`` finite values.  Otherwise the per-row parser reads the file
    again to name or skip the bad rows; it gives the same result as the
    fast pass on every file the fast pass accepts.  The fast pass skips
    empty lines but takes a comment or whitespace-only line after the
    first data row for a malformed row, so such a file is read by the
    per-row parser, with the same result.
    """
    if d < 1:
        raise DimensionMismatch("dimension must be >= 1")
    with open(path, "r", encoding="utf-8-sig") as fh:
        while True:
            start = fh.tell()
            raw = fh.readline()
            line = raw.strip()
            if not raw or (line and not line.startswith("#")
                           and _any_number(f.strip() for f in line.split(","))):
                break
        if raw:  # loadtxt warns on empty input
            fh.seek(start)
            try:
                points = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
            except ValueError:
                points = None
            if (points is not None and len(points) and points.shape[1] == d
                    and np.isfinite(points).all()):
                return points, 0
    return _ingest_rows(path, d, strict)


def _ingest_rows(path, d: int, strict: bool) -> tuple[np.ndarray, int]:
    """Row-by-row parse of :func:`ingest_csv`, which names bad lines."""
    rows: list[list[float]] = []
    skipped = 0
    first_bad = ""  # the line and reason of the first skipped row
    saw_data = False
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(",")]
            try:
                values = [float(f) for f in fields]
                if len(values) != d:
                    raise ValueError(f"expected {d} fields, got {len(values)}")
                if not all(np.isfinite(values)):
                    raise ValueError("non-finite value")
            except ValueError as exc:
                if not saw_data and not _any_number(fields):
                    continue  # header row
                if strict:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
                skipped += 1
                first_bad = first_bad or f"line {lineno}: {exc}"
                continue
            saw_data = True
            rows.append(values)
    if not rows:
        why = f"; all {skipped} rows were skipped, the first at {first_bad}" if skipped else ""
        raise EmptyInput(f"no data rows in {path}{why}")
    return np.array(rows, dtype=float), skipped


def _any_number(fields) -> bool:
    for f in fields:
        try:
            float(f)
            return True
        except ValueError:
            pass
    return False


def histogram_to_json(h: Histogram) -> dict:
    leaves = [
        {
            "label": str(leaf.label),
            "count": leaf.count,
            "volume": leaf.volume,
            "height": leaf.height,
        }
        for leaf in sorted(h.leaves, key=lambda leaf: leaf.label)
    ]
    return {
        "format": HISTOGRAM_FORMAT,
        "version": HISTOGRAM_VERSION,
        "root_box": {"lo": list(h.root_box.lo), "hi": list(h.root_box.hi)},
        "n": h.n,
        "leaves": leaves,
    }


def save_histogram(h: Histogram, path) -> None:
    Path(path).write_text(
        json.dumps(histogram_to_json(h), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def load_histogram(path) -> Histogram:
    """Load a histogram, revalidating the labels against the root box.

    The root box must be finite, the leaf labels must form a paving
    (prefix consistent, zero or two children everywhere), each listed
    once, and the counts must be non-negative integers summing to ``n``;
    boxes are rebuilt from the labels rather than trusted from the file.
    Other files raise :class:`ParseError`, except that ``n = 0`` raises
    :class:`EmptySample` and corners of unequal length DimensionMismatch.
    """
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if obj.get("format") != HISTOGRAM_FORMAT:
            raise ParseError(f"{path}: not a {HISTOGRAM_FORMAT} file")
        if obj.get("version") != HISTOGRAM_VERSION:
            raise ParseError(f"{path}: unsupported version {obj.get('version')}")
        root_box = Box.from_bounds(obj["root_box"]["lo"], obj["root_box"]["hi"])
        if not np.isfinite([*root_box.lo, *root_box.hi]).all():
            raise ParseError(f"{path}: the root box is not finite")
        labels = [int(rec["label"]) for rec in obj["leaves"]]
        if len(set(labels)) < len(labels):
            raise ParseError(f"{path}: a leaf label is listed more than once")
        RPTree.from_leaves(root_box, labels)  # raises unless the labels form a paving
        n = obj["n"]
        counts = [rec["count"] for rec in obj["leaves"]]
        if not all(type(c) is int and c >= 0 for c in (n, *counts)):
            raise ParseError(f"{path}: n and the counts must be non-negative integers")
        if sum(counts) != n:
            raise ParseError(f"{path}: leaf counts do not sum to n")
        return Histogram.from_counts(root_box, n, labels, counts)
    except ParseError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, NotBisectable) as exc:
        raise ParseError(f"{path}: malformed histogram: {exc!r}") from exc


def export_plot_data(h: Histogram, path) -> str:
    """CSV for plotting: leaf rectangles for 2-D, a leaf table otherwise.

    Returns the mode written (``"rectangles"`` or ``"table"``) so
    callers can tell users which layout they got.
    """
    out = Path(path)
    rows = []
    order = sorted(range(h.leaf_count), key=lambda i: h.leaves[i].label)
    if h.root_box.dim == 2:
        rows.append("x0,y0,x1,y1,height")
        lo, hi = h.lo.tolist(), h.hi.tolist()
        for i in order:
            (x0, y0), (x1, y1) = lo[i], hi[i]
            rows.append(f"{x0!r},{y0!r},{x1!r},{y1!r},{h.leaves[i].height!r}")
        mode = "rectangles"
    else:
        rows.append("label,count,volume,height")
        for leaf in (h.leaves[i] for i in order):
            rows.append(f"{leaf.label},{leaf.count},{leaf.volume!r},{leaf.height!r}")
        mode = "table"
    out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return mode
