import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rphist
import rphist.cli
import rphist.tree
from rphist.cli import main as cli_main
from rphist.errors import (
    DimensionMismatch,
    EmptyInput,
    EmptySample,
    InsufficientData,
    ParseError,
)
from rphist.evaluate import (
    EvalReport,
    GaussianReference,
    UniformReference,
    l1_error,
    make_reference,
    normal_cdf,
    sum_rows,
)
from rphist.geometry import Box, bounding_box
from rphist.io import (
    export_plot_data,
    ingest_csv,
    load_histogram,
    save_histogram,
)
from rphist.pipeline import RunConfig, run_pipeline
from rphist.pqmc import CellTable, carve_path, launch_states, run_pqmc
from rphist.smoothing import tau_grid
from rphist.srp import Histogram, histogram

from conftest import (
    SEB_PRIORITY,
    ChainConfig,
    chain,
    fig2_points,
    leaf_state,
    random_points,
    records,
    root_state,
    unit_box,
)


# ---------------------------------------------------------------- CSV ingest

def test_ingest_csv_basic(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("0.1,0.2\n0.3,0.4\n")
    pts, skipped = ingest_csv(f, 2)
    assert pts.shape == (2, 2)
    assert skipped == 0


def test_ingest_csv_header_and_comments(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("# generated\nx,y\n0.1,0.2\n\n0.3,0.4\n")
    pts, skipped = ingest_csv(f, 2)
    assert pts.shape == (2, 2)
    assert skipped == 0


def test_ingest_csv_strict_parse_error(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("0.1,0.2\n0.1,abc\n")
    with pytest.raises(ParseError, match=":2:"):
        ingest_csv(f, 2)


def test_ingest_csv_drop_mode_counts(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("0.1,0.2\n0.1,abc\n0.5\nnan,0.2\n0.3,0.4\n")
    pts, skipped = ingest_csv(f, 2, strict=False)
    assert pts.shape == (2, 2)
    assert skipped == 3


def test_ingest_csv_empty(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("# nothing here\n")
    with pytest.raises(EmptyInput):
        ingest_csv(f, 2)


def test_ingest_csv_says_why_every_row_was_skipped(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("x,y\n0.1,0.2\n0.3,0.4\n0.5,0.6\n")
    with pytest.raises(EmptyInput, match="all 3 rows were skipped, the first at "
                       "line 2: expected 3 fields, got 2"):
        ingest_csv(f, 3, strict=False)


@pytest.mark.parametrize("strict", [True, False])
def test_ingest_csv_byte_order_mark_keeps_first_row(tmp_path, strict):
    # spreadsheet exports start with a UTF-8 BOM; it is not part of row 1
    f = tmp_path / "pts.csv"
    f.write_bytes("\ufeff0.1,0.2\n0.3,0.4\n".encode("utf-8"))
    pts, skipped = ingest_csv(f, 2, strict=strict)
    assert pts.tolist() == [[0.1, 0.2], [0.3, 0.4]]
    assert skipped == 0
    # the same on the per-row path, which a bad row sends the file to
    f.write_bytes("\ufeff0.1,0.2\n0.5\n0.3,0.4\n".encode("utf-8"))
    if strict:
        with pytest.raises(ParseError, match=":2:"):
            ingest_csv(f, 2, strict=strict)
    else:
        pts, skipped = ingest_csv(f, 2, strict=strict)
        assert pts.tolist() == [[0.1, 0.2], [0.3, 0.4]]
        assert skipped == 1


def test_ingest_csv_clean_file_is_one_pass(tmp_path, monkeypatch):
    f = tmp_path / "pts.csv"
    f.write_text("# generated\nx,y\n\n 0.1 , 0.2 \r\n-3e-320,1.7976931348623157e308\n")

    def per_row(*args):
        raise AssertionError("the per-row parser ran on a clean file")

    monkeypatch.setattr(rphist.io, "_ingest_rows", per_row)
    pts, skipped = ingest_csv(f, 2)
    assert pts.tolist() == [[0.1, 0.2], [-3e-320, 1.7976931348623157e308]]
    assert skipped == 0


def _reference_ingest(path, d, strict):
    """The row-by-row parser that ``ingest_csv`` used alone before it got
    its ``np.loadtxt`` pass; it reads a BOM as part of the first row."""
    rows = []
    skipped = 0
    first_bad = ""
    saw_data = False
    with open(path, "r", encoding="utf-8") as fh:
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
                if not saw_data and not any(_parses(f) for f in fields):
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


def _parses(field):
    try:
        float(field)
        return True
    except ValueError:
        return False


def _outcome(parse, path, d, strict):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. loadtxt's "no data" warning
        try:
            pts, skipped = parse(path, d, strict)
        except (ParseError, EmptyInput) as exc:
            return type(exc).__name__, str(exc)
    return pts.shape, pts.dtype, pts.tobytes(), skipped


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.17g}"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.3e}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["0", "-0", "+.5", "5.", "1E+05", "4.9e-324", "1e-400"]),
)
_ODD = st.sampled_from(["nan", "inf", "-Infinity", "1e400", "1_000", "\u0661\u0662",
                        "0x10", "1d5", "", "abc", "x", "1 2", "2#x", "2 # note",
                        '"1"'])
_PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _csv_texts(draw, d):
    messy = draw(st.booleans())

    def field():
        value = draw(st.one_of(_NUMBERS, _ODD) if messy and draw(st.booleans())
                     else _NUMBERS)
        return draw(_PAD) + value + draw(_PAD)

    def data_row():
        width = d
        if messy and draw(st.integers(0, 5)) == 0:
            width = draw(st.sampled_from([max(1, d - 1), d + 1]))
        row = ",".join(field() for _ in range(width))
        return row + ("," if messy and draw(st.integers(0, 9)) == 0 else "")

    header = st.lists(st.text("xyzabc _", max_size=4), min_size=1,
                      max_size=d + 1).map(",".join)
    other = st.one_of(st.just(""), _PAD, st.text("ab #", max_size=6).map("#".__add__))
    lines = draw(st.lists(st.one_of(header, other), max_size=3))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(other))
        elif kind == 1 and messy:
            lines.append(draw(header))
        else:
            lines.append(data_row())
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    text += draw(st.sampled_from(["", "\n"]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.data())
def test_ingest_csv_agrees_with_per_row_rule(tmp_path_factory, d, data):
    text = data.draw(_csv_texts(d))
    f = tmp_path_factory.mktemp("csv") / "pts.csv"
    # the one intended difference: a leading BOM no longer belongs to row 1
    f.write_bytes(text.removeprefix("\ufeff").encode("utf-8"))
    expected = [_outcome(_reference_ingest, f, d, strict) for strict in (True, False)]
    f.write_bytes(text.encode("utf-8"))
    got = [_outcome(ingest_csv, f, d, strict) for strict in (True, False)]
    assert got == expected


# ----------------------------------------------------- histogram JSON format

def test_histogram_json_roundtrip(tmp_path, fig2_state):
    h = histogram(fig2_state)
    out = tmp_path / "h.json"
    save_histogram(h, out)
    obj = json.loads(out.read_text())
    assert obj["format"] == "rphist-histogram"
    assert [leaf["label"] for leaf in obj["leaves"]] == ["3", "4", "5"]
    back = load_histogram(out)
    assert back.n == h.n
    assert back.root_box == h.root_box
    assert [lf.height for lf in back.leaves] == [lf.height for lf in h.leaves]


def test_histogram_json_rejects_wrong_format_or_version(tmp_path, fig2_state):
    out = tmp_path / "h.json"
    save_histogram(histogram(fig2_state), out)
    obj = json.loads(out.read_text())
    stale = dict(obj, version=99)
    out.write_text(json.dumps(stale))
    with pytest.raises(ParseError):
        load_histogram(out)
    alien = dict(obj, format="something-else")
    out.write_text(json.dumps(alien))
    with pytest.raises(ParseError):
        load_histogram(out)


def test_histogram_json_rejects_broken_paving(tmp_path, fig2_state):
    out = tmp_path / "h.json"
    save_histogram(histogram(fig2_state), out)
    obj = json.loads(out.read_text())
    obj["leaves"] = obj["leaves"][1:]  # drop a leaf: labels no longer pave
    out.write_text(json.dumps(obj))
    with pytest.raises(ValueError):
        load_histogram(out)


def test_histogram_json_rejects_repeated_label(tmp_path):
    # leaves 2 (count 1), 2 (count 1) and 3 (count 2) sum to n = 4 and
    # their labels form a paving once deduplicated, but cell 2 would be
    # counted twice
    out = tmp_path / "h.json"
    save_histogram(Histogram.from_counts(unit_box(2), 4, [2, 3], [2, 2]), out)
    obj = json.loads(out.read_text())
    first, second = obj["leaves"]
    obj["leaves"] = [dict(first, count=1), dict(first, count=1), second]
    out.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match="listed more than once"):
        load_histogram(out)


def one_count_more(obj):
    obj["leaves"][0]["count"] += 1


def no_points(obj):
    obj["n"] = 0
    for leaf in obj["leaves"]:
        leaf["count"] = 0


@pytest.mark.parametrize("edit,error", [
    (one_count_more, ParseError),
    (no_points, EmptySample),
    (lambda obj: obj["root_box"].update(lo=[0.0, 2.0]), ValueError),
    (lambda obj: obj["root_box"].update(lo=[0.0, float("nan")]), ValueError),
    (lambda obj: obj["root_box"].update(lo=[0.0]), DimensionMismatch),
])
def test_histogram_json_rejects_bad_counts_or_root_box(tmp_path, fig2_state, edit, error):
    out = tmp_path / "h.json"
    save_histogram(histogram(fig2_state), out)
    obj = json.loads(out.read_text())
    edit(obj)
    out.write_text(json.dumps(obj))
    with pytest.raises(error):
        load_histogram(out)


def negative_count(obj):
    first, second = obj["leaves"][:2]  # the counts still sum to n
    second["count"] += first["count"] + 1
    first["count"] = -1
    return obj


def fractional_count(obj):
    obj["leaves"][0]["count"] += 0.5  # int() would truncate it back
    return obj


def no_leaves(obj):
    del obj["leaves"]
    return obj


def leaf_label(label):
    def edit(obj):
        obj["leaves"][0]["label"] = label
        return obj
    return edit


def root_box(**bounds):
    def edit(obj):
        obj["root_box"].update(bounds)
        return obj
    return edit


@pytest.mark.parametrize("edit", [
    negative_count, fractional_count, no_leaves, lambda obj: [obj],
    leaf_label("0"), leaf_label("x"),
    root_box(lo=[0.0, 2.0]), root_box(hi=[1.0, float("inf")]),
], ids=["negative-count", "fractional-count", "no-leaves", "json-array",
        "label-0", "label-x", "inverted-root-box", "infinite-root-box"])
def test_load_histogram_raises_parse_error_on_a_malformed_file(tmp_path, fig2_state, edit):
    out = tmp_path / "h.json"
    save_histogram(histogram(fig2_state), out)
    out.write_text(json.dumps(edit(json.loads(out.read_text()))))
    with pytest.raises(ParseError):
        load_histogram(out)


@pytest.mark.parametrize("lo, hi", [([-1e200, -1e200], [1e200, 1e200]), ([0.0, 0.0], [0.0, 1.0]),
                                    ([-1e308, 0.0], [1e308, 1.0])],
                         ids=["volume-overflows", "zero-width", "width-overflows"])
def test_load_histogram_rejects_a_root_box_volume_that_is_not_positive_finite(
        tmp_path, capsys, lo, hi):
    # the build's rule for a root box: a file whose cells' volumes would be
    # inf (heights 0, a NaN total mass) or 0 does not load, and eval exits 1
    pts = np.random.default_rng(5).standard_normal((2000, 2))
    hist, _ = run_pipeline(RunConfig(dim=2, maxpts=(50, 500), out=str(tmp_path / "h.json")),
                           points=pts)
    out = tmp_path / "h.json"
    assert load_histogram(out).total_mass() == pytest.approx(1.0)
    obj = json.loads(out.read_text())
    obj["root_box"] = {"lo": lo, "hi": hi}
    out.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match="not a positive finite one"):
        load_histogram(out)
    capsys.readouterr()
    assert cli_main(["eval", "--hist", str(out), "--reference", "gaussian"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rphist: error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("labels, bad", [
    ([2, 3], 2.9), ([2, 3], 2), ([1], True), ([2, 3], " 2 "), ([2, 3], "\uff12"),
    ([2, 3], "\u0662"), ([2, 3], "02"), ([2, 3], "+2"), ([2, 3], "2\n"), ([1], ""),
    ([1], None), ([1], "0"),
], ids=["float", "int", "true", "spaces", "full-width", "arabic-indic", "leading-zero",
        "plus", "newline", "empty", "null", "zero"])
def test_load_histogram_accepts_only_labels_as_written(tmp_path, labels, bad):
    # int() reads every one of these but the last three as a label of the
    # paving (2, or the root for true), so only the text rule rejects them
    out = tmp_path / "h.json"
    save_histogram(Histogram.from_counts(unit_box(2), 4, labels, [4 // len(labels)] * len(labels)),
                   out)
    load_histogram(out)
    obj = json.loads(out.read_text())
    obj["leaves"][0]["label"] = bad
    out.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match="leaf label is not a string of decimal digits"):
        load_histogram(out)


def _histogram_dict(h: Histogram) -> dict:
    """The histogram JSON as a dict, from the leaf objects."""
    return {
        "format": "rphist-histogram",
        "version": 1,
        "root_box": {"lo": list(h.root_box.lo), "hi": list(h.root_box.hi)},
        "n": h.n,
        "leaves": [{"label": str(leaf.label), "count": leaf.count,
                    "volume": leaf.volume, "height": leaf.height}
                   for leaf in sorted(h.leaves, key=lambda leaf: leaf.label)],
    }


@st.composite
def _histograms(draw):
    """Histograms in 1, 2, 3 or 10 dimensions on a random paving, leaves in any
    order, with zero counts, labels past 2**63 down a chain of cells at
    the origin, and under a root box of volume 1e-300 subnormal volumes and
    heights that overflow to inf."""
    d = draw(st.sampled_from([1, 2, 3, 10]))
    box = draw(st.sampled_from(["unit", "wide", "tiny"]))
    lo, hi = {"unit": (0.0, 1.0), "wide": (-6.0, 6.0), "tiny": (0.0, 10.0 ** (-300 / d))}[box]
    leaves = {1}
    for _ in range(draw(st.integers(0, 12))):
        v = draw(st.sampled_from(sorted(leaves)))
        leaves = (leaves - {v}) | {2 * v, 2 * v + 1}
    for _ in range(draw(st.sampled_from([0, 70])) if lo == 0.0 else 0):
        v = next(v for v in leaves if v & (v - 1) == 0)  # the cell at the origin
        leaves = (leaves - {v}) | {2 * v, 2 * v + 1}
    labels = draw(st.permutations(sorted(leaves)))
    counts = draw(st.lists(st.integers(0, 5), min_size=len(labels), max_size=len(labels)))
    counts[0] += 1
    return Histogram.from_counts(Box.from_bounds([lo] * d, [hi] * d), sum(counts), labels,
                                 counts)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_histograms())
def test_save_histogram_writes_what_json_dumps_writes(tmp_path_factory, h):
    out = tmp_path_factory.mktemp("h") / "h.json"
    save_histogram(h, out)
    assert out.read_text() == json.dumps(_histogram_dict(h), sort_keys=True, indent=2) + "\n"
    order = np.argsort(np.array(h.labels, dtype=object), kind="stable")
    back = load_histogram(out)
    assert back == Histogram.from_counts(h.root_box, h.n, sorted(h.labels), h.counts[order])
    save_histogram(back, out)
    assert out.read_text() == json.dumps(_histogram_dict(h), sort_keys=True, indent=2) + "\n"


def test_save_histogram_covers_the_histograms_of_its_test():
    # the strategy reaches the cases it names
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_histograms())
    def collect(h):
        seen.update({f"d={h.root_box.dim}"} if h.root_box.dim in (1, 10) else set())
        seen.update({"zero count"} if (h.counts == 0).any() else set())
        seen.update({"label >= 2**63"} if max(h.labels) >= 2**63 else set())
        seen.update({"subnormal volume"} if (h.volumes < np.finfo(float).tiny).any() else set())
        seen.update({"infinite height"} if np.isinf(h.heights).any() else set())
        seen.update({"unsorted"} if list(h.labels) != sorted(h.labels) else set())

    collect()
    assert seen == {"d=1", "d=10", "zero count", "label >= 2**63", "subnormal volume",
                    "infinite height", "unsorted"}


@pytest.mark.parametrize("d", [2, 10])
def test_state_histogram_takes_the_store_volumes_bit_for_bit(tmp_path, monkeypatch, d):
    # a state's histogram reads each leaf's volume from the store, which
    # planned it once from the cell's bounds; the file loaded back derives
    # the same bits from the labels
    import rphist.srp

    def no_volume(*args):
        raise AssertionError("the histogram recomputed a volume")

    pts = np.random.default_rng(9).standard_normal((3000, d)) * np.arange(1, d + 1)
    table = CellTable(pts, bounding_box(pts))
    for s in (carve_path(table, 40).final, run_pqmc(table, 20.0).final):
        with monkeypatch.context() as m:
            m.setattr(rphist.srp, "bounds_volume", no_volume)
            h = histogram(s)
        assert h.volumes.tobytes() == s.leaves.volumes.tobytes()
        out = tmp_path / "h.json"
        save_histogram(h, out)
        back = load_histogram(out)
        assert back.volumes.tobytes() == h.volumes.tobytes()
        assert back == h


def test_save_histogram_writes_non_finite_floats_as_json_does(tmp_path):
    h = histogram(root_state(unit_box(1), 3))
    odd = replace(h, labels=(2, 3), counts=np.array([1, 2]), lo=np.zeros((2, 1)),
                  hi=np.ones((2, 1)), volumes=np.array([math.inf, 5e-324]),
                  heights=np.array([math.nan, -math.inf]))
    out = tmp_path / "h.json"
    save_histogram(odd, out)
    assert out.read_text() == json.dumps(_histogram_dict(odd), sort_keys=True, indent=2) + "\n"
    assert "NaN" in out.read_text() and "-Infinity" in out.read_text()


# ------------------------------------------------------------ plot export

def test_export_plot_rectangles(tmp_path, fig2_state):
    h = histogram(fig2_state)
    out = tmp_path / "plot.csv"
    assert export_plot_data(h, out) == "rectangles"
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x0,y0,x1,y1,height"
    heights = sorted(float(line.split(",")[-1]) for line in lines[1:])
    assert heights == [0.8, 1.0, 1.2]


def test_export_plot_root_only(tmp_path):
    out = tmp_path / "plot.csv"
    export_plot_data(histogram(root_state(unit_box(2), 3)), out)
    assert len(out.read_text().strip().splitlines()) == 2


def test_export_plot_table_fallback(tmp_path):
    h = histogram(root_state(unit_box(3), 3))
    out = tmp_path / "plot.csv"
    assert export_plot_data(h, out) == "table"
    assert out.read_text().startswith("label,count,volume,height")


# ------------------------------------------------------------- evaluation

def test_l1_exact_reference_is_zero():
    h = histogram(root_state(unit_box(2), 10))
    ref = UniformReference(unit_box(2))
    rep = l1_error(h, ref, mc_per_leaf=64, seed=0)
    assert rep.l1_estimate == 0.0
    assert rep.l1_std_error == 0.0
    assert rep.outside_mass == 0.0


def test_l1_disjoint_mass_total_variation():
    # histogram uniform on [0,1], reference uniform on [0,0.5]:
    # the integrand is constant on each half, so the estimate is exact
    pts = np.array([[0.2], [0.7]])
    h = histogram(leaf_state(Box.from_bounds([0.0], [1.0]), [2, 3], pts))
    ref = UniformReference(Box.from_bounds([0.0], [0.5]))
    rep = l1_error(h, ref, mc_per_leaf=32, seed=0)
    assert rep.l1_estimate == pytest.approx(1.0, abs=1e-12)


def test_l1_gaussian_sane():
    rng = np.random.default_rng(40)
    pts = rng.standard_normal((5000, 2))
    path = run_pqmc(CellTable(pts, bounding_box(pts)), 100.0)
    rep = l1_error(histogram(path.final), GaussianReference(2), 128, seed=1)
    assert 0.0 < rep.l1_estimate < 0.6
    assert rep.l1_std_error < 0.05
    assert 0.0 <= rep.outside_mass < 0.05


@pytest.mark.parametrize("d, n, max_psi, reference, mc, seed, expected", [
    (2, 2000, 40.0, GaussianReference(2), 64, 3,
     EvalReport(0.284079518557413, 0.00401611212906433, 64, 0.0018538849755072029)),
    (10, 3000, 20.0, GaussianReference(10), 32, 4,
     EvalReport(1.5690084826858477, 0.13964303738684572, 32, 0.0056486154510446696)),
    (2, 2000, 40.0, UniformReference(Box.from_bounds([-1.0, -2.0], [0.5, 6.0])), 64, 5,
     EvalReport(1.2146998783478982, 0.008545384419875767, 64, 0.3612306776702121)),
], ids=["gaussian2d", "gaussian10d", "uniform2d"])
def test_l1_error_pinned_for_every_chunk_size(monkeypatch, d, n, max_psi, reference,
                                              mc, seed, expected):
    # the reports were computed with one rng.uniform(lo, hi) draw per leaf
    # and coordinate.  78 leaves in 2-D; 222 in 10-D, not a multiple of the
    # default chunk (64).  The uniform reference sticks out of the root box.
    pts = np.random.default_rng(d).standard_normal((n, d))
    h = histogram(run_pqmc(CellTable(pts, bounding_box(pts)), max_psi).final)
    for chunk in (1, 64, 10_000):
        monkeypatch.setattr("rphist.evaluate.MC_CHUNK_LEAVES", chunk)
        assert l1_error(h, reference, mc, seed) == expected


def _l1_error_by_rows(h, reference, pdf, mc_per_leaf, seed, chunk):
    """The point-major chunk loop of ``l1_error``: one ``(leaves, mc, d)``
    block per chunk, scaled in place, and the density ``pdf`` of its rows."""
    heights = np.array([leaf.height for leaf in h.leaves])
    volumes = np.array([leaf.volume for leaf in h.leaves])
    widths = h.hi - h.lo
    means, stds = np.empty_like(heights), np.empty_like(heights)
    rng = np.random.default_rng(seed)
    d = h.root_box.dim
    for start in range(0, h.leaf_count, chunk):
        stop = min(start + chunk, h.leaf_count)
        draws = rng.random((stop - start, mc_per_leaf, d))
        draws *= widths[start:stop, None]
        draws += h.lo[start:stop, None]
        dev = np.abs(heights[start:stop, None]
                     - pdf(draws.reshape(-1, d)).reshape(stop - start, mc_per_leaf))
        means[start:stop] = dev.mean(axis=1)
        stds[start:stop] = dev.std(axis=1, ddof=1)
    se = volumes * stds / math.sqrt(mc_per_leaf)
    outside = 1.0 - reference.box_prob(h.root_box)
    return EvalReport(float(np.cumsum(np.append(outside, volumes * means))[-1]),
                      math.sqrt(np.cumsum(np.append(0.0, se * se))[-1]), mc_per_leaf,
                      outside)


@pytest.mark.parametrize("d", [1, 3, 7, 8, 9, 16, 17, 27, 130, 300])
def test_l1_error_equals_the_point_major_loop(monkeypatch, d):
    # every branch of np.add.reduce's order over the coordinates: below 8
    # terms, 8 to 128 with no tail or with one or three terms after the
    # last block of 8, and halves above 128, twice over at 300; against
    # both references' densities row by row.  Points of norm about 1 keep
    # the Gaussian density normal in every dimension.
    pts = np.random.default_rng(d).standard_normal((300, d)) / math.sqrt(d)
    h = histogram(run_pqmc(CellTable(pts, bounding_box(pts)), 30.0).final)
    assert h.leaf_count > 8
    box = Box.from_bounds([-1.0] * d, [0.5] * d)
    references = [
        (GaussianReference(d), lambda x: ((2.0 * math.pi) ** (-d / 2.0)
                                          * np.exp(-0.5 * np.sum(x * x, axis=1)))),
        (UniformReference(box), lambda x: np.where(
            ((x >= box.lows()) & (x <= box.highs())).all(axis=1), 1.0 / box.volume, 0.0)),
    ]
    # in many dimensions a leaf's height dwarfs the Gaussian density, so
    # the densities are compared on their own too
    x = np.random.default_rng(d).uniform(h.root_box.lows(), h.root_box.highs(), (4000, d))
    for reference, pdf in references:
        assert np.array_equal(reference.pdf_columns(x.T.copy()), pdf(x))
        for chunk in (1, 64, 10_000):
            monkeypatch.setattr("rphist.evaluate.MC_CHUNK_LEAVES", chunk)
            assert l1_error(h, reference, 16, seed=d) == _l1_error_by_rows(
                h, reference, pdf, 16, d, chunk)


@pytest.mark.parametrize("m", [*range(1, 40), 64, 127, 128, 129, 130, 136, 200, 257, 300, 1000])
def test_sum_rows_adds_as_np_sum_does(m):
    rng = np.random.default_rng(m)
    x = rng.random((m, 500)) * 10.0 ** rng.integers(-8, 8, (m, 500))
    # np.sum of a C-order (N, m) array, the points of l1_error's old loop
    assert np.array_equal(sum_rows(x.copy()), np.sum(np.ascontiguousarray(x.T), axis=1))


@pytest.mark.parametrize("bound", [1e308, math.inf])
def test_l1_error_rejects_non_finite_cell_width(bound):
    # hi - lo overflows (or is inf - -inf): no uniform draw in the cell
    with np.errstate(over="ignore", invalid="ignore"):
        h = histogram(root_state(Box.from_bounds([-bound], [bound]), 3))
        with pytest.raises(OverflowError):
            l1_error(h, GaussianReference(1))


def test_make_reference_unknown():
    from rphist.errors import UnknownReference

    with pytest.raises(UnknownReference):
        make_reference("cauchy", 2)


@pytest.mark.parametrize("x, phi", [
    (0.0, 0.5),
    (1.96, 0.9750021048517795),
    (-1.96, 0.024997895148220435),
    (-6.0, 9.86587645037698e-10),
])
def test_normal_cdf_known_values(x, phi):
    assert normal_cdf(x) == pytest.approx(phi, rel=1e-14, abs=0.0)


def test_import_does_not_load_scipy():
    # importing scipy used to double the start-up time of every run
    src = str(Path(rphist.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rphist; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------- pipeline

def fig2_csv(tmp_path):
    f = tmp_path / "fig2.csv"
    rows = "\n".join(f"{x},{y}" for x, y in fig2_points())
    f.write_text(rows + "\n")
    return f


def test_pipeline_reproduces_fig2(tmp_path):
    # corner points pin the root box to the unit square at pad=0; a huge
    # single tau makes the deepest (maximum likelihood) candidate win,
    # and the three-leaf budget stops the chain at the target paving
    cfg = RunConfig(
        input_path=str(fig2_csv(tmp_path)),
        dim=2, pad=0.0, carve_leaves=1, tributaries=1,
        maxpts=(4,), maxlvs=3, tau_min=1e9, tau_max=1e9, tau_steps=1,
        sequential=True, out=str(tmp_path / "h.json"),
    )
    for mode_cfg in (cfg, replace(cfg, sequential=False)):
        hist, est = run_pipeline(mode_cfg)
        heights = {leaf.label: leaf.height for leaf in hist.leaves}
        assert heights == {3: 1.0, 4: 0.8, 5: 1.2}


def test_pipeline_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(41)
    pts = random_points(rng, 800, 2)
    csv = tmp_path / "pts.csv"
    csv.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pts) + "\n")
    outs = []
    for name in ("a.json", "b.json"):
        cfg = RunConfig(
            input_path=str(csv), dim=2, tributaries=3, maxpts=(20, 60),
            carve_leaves=8, out=str(tmp_path / name),
        )
        run_pipeline(cfg)
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_pipeline_sequential_parallel_agree(tmp_path):
    from conftest import seb_instance

    pts, box, threshold, _ = seb_instance(0)
    results = []
    for sequential in (False, True):
        cfg = RunConfig(
            dim=pts.shape[1], tributaries=1, carve_leaves=1,
            maxpts=(int(threshold),), sequential=sequential, shards=3,
            out=str(tmp_path / f"{'seq' if sequential else 'par'}.json"),
        )
        hist, est = run_pipeline(cfg, points=pts)
        results.append((tmp_path / cfg.out).read_bytes())
    assert results[0] == results[1]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from([None, 6, 20]),
       st.integers(2, 12))
def test_pipeline_modes_agree_on_tied_grid_data(tmp_path_factory, seed, shards,
                                                maxlvs, side):
    # integer-grid rows, many of them repeated: SEB counts tie on most pops
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, side, (int(rng.integers(20, 300)), 2)).astype(float)
    pts = np.vstack([pts, np.repeat(pts[:1], int(rng.integers(0, 40)), axis=0)])
    out = tmp_path_factory.mktemp("modes")
    outputs, manifests = [], []
    for sequential in (False, True):
        cfg = RunConfig(dim=2, carve_leaves=min(5, maxlvs or 5), tributaries=3,
                        maxpts=(3, 10, 40), maxlvs=maxlvs, max_depth=30,
                        shards=shards, sequential=sequential, tau_steps=5,
                        out=str(out / f"{sequential}.json"))
        run_pipeline(cfg, points=pts)
        outputs.append((out / f"{sequential}.json").read_bytes())
        manifests.append(json.loads((out / f"{sequential}.json.manifest.json").read_text()))
    assert outputs[0] == outputs[1]
    default, seq = manifests
    assert default["candidates"] == seq["candidates"]
    assert default["build"]["had_ties"] == seq["build"]["had_ties"]


def tied_rows(seed: int) -> np.ndarray:
    """Integer-grid rows, one repeated many times: SEB counts tie, and the
    repeated row splits until the depth cap."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 6, (300, 2)).astype(float)
    return np.vstack([pts, np.repeat(pts[:1], 60, axis=0)])


@pytest.mark.parametrize("data", ["tied", "normal"])
@pytest.mark.parametrize("sequential", [False, True])
def test_pipeline_derives_no_bounds_from_labels(monkeypatch, data, sequential):
    # the selected histogram is gathered from the rows of the store, which
    # planned every cell's bounds from its parent's: no module calls
    # cell_bounds during a build, and the columns are those that
    # cell_bounds gives the selected labels, bit for bit
    calls = []
    real = rphist.tree.cell_bounds

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    patched = [m for name, m in sorted(sys.modules.items())
               if name.startswith("rphist") and getattr(m, "cell_bounds", None) is real]
    assert {m.__name__ for m in patched} >= {"rphist.tree", "rphist.srp", "rphist.pqmc"}
    for module in patched:
        monkeypatch.setattr(module, "cell_bounds", counted)
    pts = tied_rows(7) if data == "tied" else np.random.default_rng(5).standard_normal((4000, 2))
    cfg = RunConfig(dim=2, shards=2, maxpts=(5, 20, 80) if data == "tied" else (50, 500),
                    carve_leaves=20, max_depth=30, sequential=sequential)
    hist, estimate = run_pipeline(cfg, points=pts)
    assert calls == []
    assert hist.leaf_count == estimate.state.leaf_count > 20
    ref = Histogram.from_counts(hist.root_box, hist.n, hist.labels, hist.counts.tolist())
    assert hist.labels == ref.labels == tuple(sorted(hist.labels))
    for column in ("counts", "lo", "hi", "volumes", "heights"):
        got, want = getattr(hist, column), getattr(ref, column)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), column


@pytest.mark.parametrize("sequential", [False, True])
def test_huge_max_depth_builds_no_integer_of_that_many_bits(tmp_path, sequential):
    # the depth cap is compared with each label's bit length: a cap of
    # 10**9 gives the bytes of the default cap, with no 10**9-bit integer
    # (125 MB) made for the comparison
    pts = np.random.default_rng(8).standard_normal((400, 2))
    cfg = RunConfig(dim=2, shards=2, carve_leaves=8, tributaries=3, maxpts=(10, 40),
                    tau_steps=4, sequential=sequential)
    run_pipeline(replace(cfg, out=str(tmp_path / "capped.json")), points=pts)
    tracemalloc.start()
    try:
        run_pipeline(replace(cfg, max_depth=10**9, out=str(tmp_path / "deep.json")), points=pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "deep.json").read_bytes() == (tmp_path / "capped.json").read_bytes()
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("sequential", [False, True])
def test_pipeline_checks_points_against_the_root_box_once(monkeypatch, sequential):
    # the root box is the points' padded bounding box: only the cell
    # table checks that they lie in it
    calls = []
    inside_mask = rphist.srp.inside_mask

    def counted(box, points):
        calls.append(len(points))
        return inside_mask(box, points)

    monkeypatch.setattr(rphist.srp, "inside_mask", counted)
    pts = random_points(np.random.default_rng(3), 200, 2)
    run_pipeline(RunConfig(dim=2, tributaries=2, maxpts=(20,), carve_leaves=5,
                           sequential=sequential), points=pts)
    assert calls == [200]


def test_pipeline_strict_rejects_bad_rows(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("0.1,0.2\noops,0.4\n0.5,0.6\n")
    cfg = RunConfig(input_path=str(f), dim=2, strict=True, maxpts=(5,))
    with pytest.raises(ParseError):
        run_pipeline(cfg)


def _reject_constant(name):
    raise ValueError(f"manifest holds {name}")


@pytest.mark.parametrize("sequential", [False, True])
def test_pipeline_needs_two_points(tmp_path, sequential):
    # one point has no cross-validation score (it would be written as NaN)
    out = tmp_path / "h.json"
    cfg = RunConfig(dim=2, maxpts=(5,), sequential=sequential, out=str(out))
    with pytest.raises(InsufficientData):
        run_pipeline(cfg, points=[[0.3, 0.4]])
    assert list(tmp_path.iterdir()) == []
    hist, _ = run_pipeline(cfg, points=[[0.3, 0.4], [0.5, 0.1]])
    assert hist.n == 2
    manifest = (tmp_path / "h.json.manifest.json").read_text()
    json.loads(manifest, parse_constant=_reject_constant)


def test_pipeline_manifest(tmp_path):
    rng = np.random.default_rng(42)
    pts = random_points(rng, 500, 2)
    out = tmp_path / "h.json"
    cfg = RunConfig(dim=2, tributaries=2, maxpts=(30,), carve_leaves=5,
                    out=str(out))
    hist, est = run_pipeline(cfg, points=pts)
    man = json.loads((tmp_path / "h.json.manifest.json").read_text())
    assert man["n"] == 500
    assert len(man["candidates"]) == 2
    assert man["selected"]["leaf_count"] == hist.leaf_count
    curve = man["selected"]["cv_curve"]
    assert [pt["tau"] for pt in curve] == pytest.approx(list(cfg.tau_grid()))
    chosen = [pt for pt in curve if pt["tau"] == est.tau]
    assert len(chosen) == 1
    assert chosen[0]["cv_score"] == man["selected"]["cv_score"] == min(
        pt["cv_score"] for pt in curve)
    assert chosen[0]["leaf_count"] == hist.leaf_count
    assert all(pt["leaf_count"] >= 1 for pt in curve)
    assert man["selected"]["tau_at_grid_edge"] is False  # tau 0.259 on this data
    assert set(man["timings_s"]) >= {"ingest", "carve", "tributary_build",
                                     "tributary_paths", "smoothing"}
    build = man["build"]
    assert build["threshold"] == 30.0
    assert build["iterations"] == len(build["split_cells"]) > 0
    for key in ("working_points", "passed_points"):
        assert len(build[key]) == build["iterations"]
    assert all(w + p == 500 for w, p in zip(build["working_points"],
                                            build["passed_points"]))
    assert hist.total_mass() == pytest.approx(1.0, abs=1e-9)
    back = load_histogram(out)
    assert back.leaf_count == hist.leaf_count
    seq_out = tmp_path / "seq.json"
    run_pipeline(replace(cfg, sequential=True, out=str(seq_out), tau_steps=2),
                 points=pts)
    seq_man = json.loads((tmp_path / "seq.json.manifest.json").read_text())
    # one chain per launch state, to the lowest threshold; each cell that
    # the carve or a chain splits is partitioned once
    carve = carve_path(CellTable(pts, bounding_box(pts, cfg.pad)), 5)
    whole = [chain(state, CellTable(pts, state.root_box), SEB_PRIORITY,
                   ChainConfig(max_psi=30.0, max_depth=cfg.max_depth))
             for state in launch_states(carve, 2)]
    split = {r.label for p in [carve, *whole] for r in records(p)}
    assert seq_man["build"] == {"threshold": 30.0,
                                "splits": [p.split_count for p in whole],
                                "partitioned_cells": len(split),
                                "had_ties": [p.had_ties for p in whole]}
    assert set(seq_man["timings_s"]) >= {"tributary_build", "tributary_paths"}
    assert len(seq_man["selected"]["cv_curve"]) == 2
    assert seq_man["selected"]["tau_at_grid_edge"] is True


def test_pipeline_default_mode_output_pinned(tmp_path):
    # the constant is the sequential chain's output on this data, with
    # ties popped towards the lowest label; the default mode sorts one
    # root build into every tributary's path and must give the same bytes
    pts = np.random.default_rng(2024).standard_normal((3000, 2))
    out = tmp_path / "h.json"
    cfg = RunConfig(dim=2, carve_leaves=20, tributaries=3, maxpts=(20, 100, 300),
                    shards=2, out=str(out))
    run_pipeline(cfg, points=pts)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4aa6a6102de32b52eb06f52628557ae15cac2fc521d820b3e87a4cd4ba6348e7")


def test_pipeline_warns_when_tau_at_grid_edge(caplog):
    pts = random_points(np.random.default_rng(42), 500, 2)
    cfg = RunConfig(dim=2, tributaries=2, maxpts=(30,), carve_leaves=5)
    with caplog.at_level(logging.WARNING, logger="rphist.pipeline"):
        _, est = run_pipeline(cfg, points=pts)
    assert cfg.tau_min < est.tau < cfg.tau_max  # 0.259, as in the manifest test
    assert caplog.records == []
    edge_cfg = replace(cfg, tau_steps=2)  # both grid points are ends
    with caplog.at_level(logging.WARNING, logger="rphist.pipeline"):
        _, est = run_pipeline(edge_cfg, points=pts)
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    end = "lower" if est.tau == edge_cfg.tau_min else "upper"
    assert f"selected tau {est.tau:g} is at the {end} end" in record.getMessage()
    assert est.tau == edge_cfg.tau_max  # checked on this data: the upper end


def test_pipeline_sequential_mode_output_pinned(tmp_path):
    # integer-grid points with duplicate rows: about two thirds of the
    # chain's pops are tied.  The leaf budget stops chains among tied
    # leaves, so the output depends on the pick order.  The constant was
    # computed with per-priority lists of tied leaves, each popped
    # lowest label first.
    pts = np.random.default_rng(2025).integers(0, 30, (3000, 2)).astype(float)
    out = tmp_path / "h.json"
    cfg = RunConfig(dim=2, carve_leaves=20, tributaries=3, maxpts=(8, 30, 100),
                    maxlvs=500, max_depth=24, sequential=True, out=str(out))
    run_pipeline(cfg, points=pts)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0158a094157268b608f866e2285ca9eef4bc6b766484245b535d7ccc7636182b")


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(maxpts=())
    with pytest.raises(ValueError):
        RunConfig(tributaries=0)
    with pytest.raises(ValueError):
        RunConfig(maxlvs=10, carve_leaves=20)
    with pytest.raises(ValueError):
        RunConfig(tau_min=-1.0)


def test_runconfig_rejects_a_degenerate_tau_grid():
    # 30 equal taus: caught when the config is made, before any work
    with pytest.raises(ValueError, match="strictly increasing"):
        RunConfig(tau_min=1.0, tau_max=1.0)
    assert RunConfig(tau_min=1.0, tau_max=1.0, tau_steps=1).tau_grid() == (1.0,)
    assert RunConfig().tau_grid() == tau_grid() == tuple(np.geomspace(0.1, 1e5, 30))


# -------------------------------------------------------------------- CLI

def test_cli_build_eval_plot(tmp_path, capsys):
    rng = np.random.default_rng(43)
    pts = rng.standard_normal((2000, 2))
    csv = tmp_path / "pts.csv"
    csv.write_text("x,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pts) + "\n")
    out = tmp_path / "hist.json"
    rc = cli_main([
        "build", "--input", str(csv), "--dim", "2", "--shards", "2",
        "--carve-leaves", "10", "--tributaries", "2", "--maxpts", "50,200",
        "--tau-min", "0.1", "--tau-max", "1e5", "--tau-steps", "10",
        "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()
    assert (tmp_path / "hist.json.manifest.json").exists()
    assert "leaves=" in capsys.readouterr().out

    rc = cli_main(["eval", "--hist", str(out), "--reference", "gaussian",
                   "--mc", "32", "--seed", "1"])
    assert rc == 0
    assert "l1=" in capsys.readouterr().out

    plot = tmp_path / "plot.csv"
    rc = cli_main(["plot", "--hist", str(out), "--out", str(plot)])
    assert rc == 0
    assert plot.read_text().startswith("x0,y0,x1,y1,height")
    assert "rectangles" in capsys.readouterr().out


def test_cli_build_rejects_a_degenerate_tau_grid(tmp_path):
    csv = tmp_path / "pts.csv"
    csv.write_text("\n".join(f"{x},{y}" for x, y in fig2_points()) + "\n")
    out = tmp_path / "hist.json"
    src = str(Path(rphist.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "rphist.cli", "build", "--input", str(csv), "--dim", "2",
         "--tau-min", "1", "--tau-max", "1", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode != 0
    assert "strictly increasing" in proc.stderr
    assert list(tmp_path.iterdir()) == [csv]


def test_cli_build_defaults_are_the_runconfig_defaults(monkeypatch):
    seen = []

    def fake_run_pipeline(cfg):
        seen.append(cfg)
        raise SystemExit(0)

    monkeypatch.setattr(rphist.cli, "run_pipeline", fake_run_pipeline)
    with pytest.raises(SystemExit):
        cli_main(["build", "--input", "p.csv", "--dim", "2", "--out", "o.json"])
    assert seen == [RunConfig(input_path="p.csv", dim=2, out="o.json")]


def test_cli_build_rejects_a_malformed_maxpts(tmp_path, capsys):
    # a usage error (exit code 2) before anything is read or written
    for maxpts in ("50,x", "1.5", "50;500"):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["build", "--input", str(tmp_path / "none.csv"), "--dim", "2",
                      "--maxpts", maxpts, "--out", str(tmp_path / "h.json")])
        assert exit_info.value.code == 2
        assert f"invalid thresholds value: '{maxpts}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["build", "--shards", "0"], "shards, workers and tributaries must be >= 1"),
    (["build", "--tau-min", "0"], "invalid tau grid"),
    (["build", "--maxpts", "0"], "maxpts entries must be >= 1"),
    (["build", "--carve-leaves", "0"], "carve_leaves must be >= 1"),
    (["eval", "--reference", "gaussian", "--mc", "1"], "need at least two draws per leaf"),
    (["build", "--pad", "-1"], "pad must be finite and >= 0"),
    (["build", "--pad", "nan"], "pad must be finite and >= 0"),
    (["build", "--pad", "inf"], "pad must be finite and >= 0"),
    (["build", "--tau-min", "nan"], "invalid tau grid"),
    (["build", "--tau-max", "inf"], "invalid tau grid"),
    (["build", "--max-depth", "0"], "max_depth must be >= 1"),
    (["eval", "--reference", "gaussian", "--seed", "-1"], "argument --seed: must be >= 0"),
])
def test_cli_rejects_an_invalid_value_as_a_usage_error(tmp_path, capsys, argv, message):
    # exit code 2 and the subcommand's usage and message, no traceback,
    # before anything is read or written; a build in either mode
    if argv[0] == "build":
        paths = ["--input", str(tmp_path / "none.csv"), "--dim", "2", "--out",
                 str(tmp_path / "h.json")]
        runs = [paths, paths + ["--sequential"]]
    else:
        runs = [["--hist", str(tmp_path / "none.json")]]
    for paths in runs:
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv + paths)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: rphist {argv[0]} [-h] ")
        assert f"rphist {argv[0]}: error: " in err and message in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["build", "--input", "missing.csv", "--dim", "2", "--out", "h.json"],
    ["build", "--input", "two.csv", "--dim", "3", "--out", "h.json"],
    ["eval", "--hist", "missing.json", "--reference", "gaussian"],
    ["eval", "--hist", "bad.json", "--reference", "gaussian"],
    ["plot", "--hist", "missing.json", "--out", "p.csv"],
    ["plot", "--hist", "bad.json", "--out", "p.csv"],
    ["build", "--input", "const.csv", "--dim", "2", "--pad", "0", "--out", "h.json"],
    ["build", "--input", "const.csv", "--dim", "2", "--pad", "1e308", "--out", "h.json"],
    ["build", "--input", "wide.csv", "--dim", "10", "--out", "h.json"],
])
def test_cli_reports_an_input_error_in_one_line(tmp_path, argv):
    # a missing file, a CSV with too few columns for --dim, a histogram
    # that is not one, a root box of zero volume, an infinite one or one
    # whose volume overflows: exit code 1 and one line on stderr, nothing
    # written; a build in either mode
    (tmp_path / "two.csv").write_text("1,2\n3,4\n")
    (tmp_path / "const.csv").write_text("1,5\n2,5\n3,5\n")
    (tmp_path / "wide.csv").write_text(",".join(["1e35"] * 10) + "\n"
                                       + ",".join(["-1e35"] * 10) + "\n")
    (tmp_path / "bad.json").write_text('{"format": "rphist-histogram", "version": 1}\n')
    src = str(Path(rphist.__file__).resolve().parents[1])
    for mode in ([], ["--sequential"]) if argv[0] == "build" else ([],):
        proc = subprocess.run([sys.executable, "-m", "rphist.cli", *argv, *mode],
                              cwd=tmp_path, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert proc.stderr.startswith("rphist: error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "const.csv",
                                                              "two.csv", "wide.csv"]


@pytest.mark.parametrize("scale", [1e-152, 1e-156, 1e-162])
def test_cli_build_fails_in_one_line_when_no_state_has_a_finite_score(tmp_path, scale):
    # 5000 standard-normal rows scaled down until c^2/v overflows in every
    # candidate state, the root state's too, though the root box's volume
    # is positive: both modes exit 1 with the same typed one-line error
    # and write nothing, where they wrote NaN scores (1e-152) or raised
    # from an empty argmax (1e-156); at 1e-162 some cell volumes are 0
    pts = np.random.default_rng(1).standard_normal((5000, 2)) * scale
    np.savetxt(tmp_path / "tiny.csv", pts, fmt="%.17g", delimiter=",")
    src = str(Path(rphist.__file__).resolve().parents[1])
    errors = set()
    for mode in ([], ["--sequential"]):
        proc = subprocess.run([sys.executable, "-m", "rphist.cli", "build", "--input", "tiny.csv",
                               "--dim", "2", "--out", "h.json", *mode],
                              cwd=tmp_path, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("rphist: error: ") and proc.stderr.count("\n") == 1
        assert "finite" in proc.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["tiny.csv"]
        errors.add(proc.stderr)
    assert len(errors) == 1


def test_pipeline_selects_among_the_states_with_finite_scores(tmp_path):
    # at scale 1e-151 only 7 of the 629 candidate states have a finite CV
    # score: the others are no candidates, so no NaN reaches the manifest,
    # and both modes write the same bytes
    pts = np.random.default_rng(1).standard_normal((5000, 2)) * 1e-151

    def reject(name):
        raise ValueError(f"{name} in the manifest")

    written = []
    for sequential in (False, True):
        out = tmp_path / f"h-{sequential}.json"
        _, est = run_pipeline(RunConfig(dim=2, out=str(out), sequential=sequential), pts)
        selected = json.loads(Path(f"{out}.manifest.json").read_text(),
                              parse_constant=reject)["selected"]
        assert math.isfinite(selected["cv_score"]) and math.isfinite(selected["penalized_score"])
        assert all(math.isfinite(pt["cv_score"]) for pt in selected["cv_curve"])
        assert selected["leaf_count"] == est.state.leaf_count
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_cli_build_seed_is_ignored(tmp_path):
    pts = np.random.default_rng(46).integers(0, 8, (400, 2))
    csv = tmp_path / "pts.csv"
    csv.write_text("\n".join(f"{a},{b}" for a, b in pts) + "\n")
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}.json"
        assert cli_main(["build", "--input", str(csv), "--dim", "2",
                         "--maxpts", "5,20", "--carve-leaves", "4",
                         "--max-depth", "30", "--seed", seed,
                         "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
        config = json.loads(Path(f"{out}.manifest.json").read_text())["config"]
        assert "seed" not in config and "tie_break" not in config
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("sequential", [False, True])
def test_cli_build_verbose_logs_each_stage(tmp_path, caplog, sequential):
    pts = random_points(np.random.default_rng(47), 300, 2)
    csv = tmp_path / "pts.csv"
    csv.write_text("\n".join(f"{a!r},{b!r}" for a, b in pts.tolist()) + "\n")
    argv = ["build", "--input", str(csv), "--dim", "2", "--maxpts", "10,40",
            "--carve-leaves", "4", "--tributaries", "2", "--out", str(tmp_path / "h.json"),
            *(["--sequential"] if sequential else [])]
    rphist_logger = logging.getLogger("rphist")
    level = rphist_logger.level
    try:
        assert cli_main(argv) == 0
        assert [r for r in caplog.records if r.levelno == logging.INFO] == []
        assert cli_main([*argv, "--verbose"]) == 0
    finally:
        rphist_logger.setLevel(level)
    info = [r.getMessage() for r in caplog.records
            if r.levelno == logging.INFO and r.name == "rphist.pipeline"]
    for stage in ("ingest", "carve", "tributary_build", "tributary_paths",
                  "smoothing", "export"):
        assert sum(m.startswith(f"stage {stage}: ") for m in info) == 1
    source = ("1 sequential SEB chain to threshold 10: " if sequential
              else "1 threshold build to threshold 10 ")
    assert sum(m.startswith(source) for m in info) == 1
    assert "4 tributary paths cut from 2 whole paths" in info


def test_pipeline_one_dimensional(tmp_path):
    rng = np.random.default_rng(44)
    pts = rng.standard_normal((5000, 1))
    out = tmp_path / "h1.json"
    cfg = RunConfig(dim=1, tributaries=2, maxpts=(100,), carve_leaves=5,
                    out=str(out))
    hist, est = run_pipeline(cfg, points=pts)
    assert hist.root_box.dim == 1
    assert hist.total_mass() == pytest.approx(1.0, abs=1e-9)
    assert export_plot_data(hist, tmp_path / "t.csv") == "table"


def test_cli_eval_uniform_reference(tmp_path, capsys):
    h = histogram(root_state(unit_box(2), 9))
    hist_path = tmp_path / "u.json"
    save_histogram(h, hist_path)
    rc = cli_main(["eval", "--hist", str(hist_path), "--reference", "uniform",
                   "--mc", "16", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    # the histogram IS the uniform density on its own root box
    assert "l1=0.000000" in out


def test_cli_plot_table_notice(tmp_path, capsys):
    h = histogram(root_state(unit_box(3), 5))
    hist_path = tmp_path / "h3.json"
    save_histogram(h, hist_path)
    rc = cli_main(["plot", "--hist", str(hist_path), "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    assert "leaf table" in capsys.readouterr().out
