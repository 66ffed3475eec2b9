"""File formats: CSV point ingestion, histogram JSON, plot CSV.

Histogram JSON is versioned and fully deterministic (sorted keys,
leaves in ascending label order, labels as decimal strings so arbitrary
depths survive), which makes repeated pipeline runs byte-identical.
"""

from __future__ import annotations

import json
import re
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, EmptyInput, NotBisectable, ParseError
from .geometry import Box, require_volume
from .srp import Histogram
from .tree import paves

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


#: One leaf record of the histogram JSON, as ``json.dumps(..., sort_keys=True,
#: indent=2)`` writes it, from ``(count, height, label, volume)``.
_LEAF_RECORD = ('    {\n      "count": %d,\n      "height": %s,\n      "label": "%d",\n'
                '      "volume": %s\n    }')
_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
_LABEL = re.compile("[1-9][0-9]*")


def _json_floats(values: np.ndarray) -> list[str]:
    """The JSON text of each float, as ``json`` writes it."""
    text = list(map(repr, values.tolist()))
    if not np.isfinite(values).all():
        text = [_JSON_NON_FINITE.get(t, t) for t in text]
    return text


def save_histogram(h: Histogram, path) -> None:
    """Write ``h`` as the JSON ``json.dumps(..., sort_keys=True, indent=2)``
    gives, leaves in ascending label order, with each leaf record
    formatted from the columns by one template."""
    doc = json.dumps({
        "format": HISTOGRAM_FORMAT,
        "version": HISTOGRAM_VERSION,
        "root_box": {"lo": list(h.root_box.lo), "hi": list(h.root_box.hi)},
        "n": h.n,
        "leaves": [],
    }, sort_keys=True, indent=2)
    rows = sorted(zip(h.counts.tolist(), _json_floats(h.heights), h.labels,
                      _json_floats(h.volumes)), key=itemgetter(2))
    if rows:
        leaves = ",\n".join([_LEAF_RECORD % row for row in rows])
        doc = doc.replace('"leaves": []', f'"leaves": [\n{leaves}\n  ]', 1)
    Path(path).write_text(doc + "\n", encoding="utf-8")


def load_histogram(path) -> Histogram:
    """Load a histogram, revalidating the labels against the root box.

    The root box must have a positive, finite volume
    (:func:`~rphist.geometry.require_volume`); each leaf label must be a string of
    ASCII digits with no leading zero, as :func:`save_histogram` writes
    it; the labels must form a paving (:func:`~rphist.tree.paves`), each
    listed once; and the counts must be non-negative integers summing to
    ``n``.  Boxes are rebuilt from the labels rather than trusted from
    the file.  Other files raise :class:`ParseError`, except that
    ``n = 0`` raises :class:`EmptySample` and corners of unequal length
    DimensionMismatch.
    """
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if obj.get("format") != HISTOGRAM_FORMAT:
            raise ParseError(f"{path}: not a {HISTOGRAM_FORMAT} file")
        if obj.get("version") != HISTOGRAM_VERSION:
            raise ParseError(f"{path}: unsupported version {obj.get('version')}")
        root_box = Box.from_bounds(obj["root_box"]["lo"], obj["root_box"]["hi"])
        require_volume(root_box)  # NotBisectable, a ParseError below
        texts = [rec["label"] for rec in obj["leaves"]]
        if not all(type(t) is str and _LABEL.fullmatch(t) for t in texts):
            raise ParseError(f"{path}: a leaf label is not a string of decimal digits "
                             "with no leading zero")
        labels = list(map(int, texts))
        if len(set(labels)) < len(labels):
            raise ParseError(f"{path}: a leaf label is listed more than once")
        if not paves(labels):
            raise ParseError(f"{path}: the leaf labels do not form a paving")
        n = obj["n"]
        counts = [rec["count"] for rec in obj["leaves"]]
        if not (type(n) is int and n >= 0 and set(map(type, counts)) <= {int}
                and min(counts) >= 0):
            raise ParseError(f"{path}: n and the counts must be non-negative integers")
        if sum(counts) != n:
            raise ParseError(f"{path}: leaf counts do not sum to n")
        return Histogram.from_counts(root_box, n, labels, counts)
    except ParseError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError,
            NotBisectable) as exc:
        raise ParseError(f"{path}: malformed histogram: {exc!r}") from exc


def export_plot_data(h: Histogram, path) -> str:
    """CSV for plotting: leaf rectangles for 2-D, a leaf table otherwise.

    Returns the mode written (``"rectangles"`` or ``"table"``) so
    callers can tell users which layout they got.
    """
    out = Path(path)
    rows = []
    order = sorted(range(h.leaf_count), key=h.labels.__getitem__)
    heights = h.heights.tolist()
    if h.root_box.dim == 2:
        rows.append("x0,y0,x1,y1,height")
        lo, hi = h.lo.tolist(), h.hi.tolist()
        for i in order:
            (x0, y0), (x1, y1) = lo[i], hi[i]
            rows.append(f"{x0!r},{y0!r},{x1!r},{y1!r},{heights[i]!r}")
        mode = "rectangles"
    else:
        rows.append("label,count,volume,height")
        counts, volumes = h.counts.tolist(), h.volumes.tolist()
        for i in order:
            rows.append(f"{h.labels[i]},{counts[i]},{volumes[i]!r},{heights[i]!r}")
        mode = "table"
    out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return mode
