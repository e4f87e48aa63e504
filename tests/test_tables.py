import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from chiralcav import ValidationError, solver
from chiralcav.cli import main
from chiralcav.tables import DataTable, fmt, parse_csv, read_table, render_csv, render_json, write_table
from helpers import render_csv_by_row, render_json_by_row


@pytest.fixture
def table():
    return DataTable(
        name="demo",
        columns=("delta_over_gamma", "R"),
        rows=np.array([[0.0, 0.25], [0.5, 1 / 3], [1.0, 0.81]]),
        meta={"n_atoms": "2", "g": "20"},
        features=(("dip", 0.0, 0.25, 0.0989),),
    )


def test_fmt_significant_digits():
    assert fmt(1 / 3) == "0.333333333333"
    assert fmt(0.25) == "0.25"
    assert fmt(1 / 3, digits=4) == "0.3333"


def test_csv_round_trip(table):
    parsed = parse_csv(render_csv(table), name="demo")
    assert parsed.columns == table.columns
    assert parsed.meta == table.meta
    assert np.allclose(parsed.rows, table.rows, rtol=1e-11)
    assert parsed.features == (("dip", 0.0, 0.25, 0.0989),)


def test_csv_layout(table):
    text = render_csv(table)
    lines = text.splitlines()
    assert lines[0] == "# n_atoms = 2"
    assert lines[2] == "delta_over_gamma,R"
    assert lines[3] == "0,0.25"
    assert lines[-1].startswith("# feature,dip,")


def test_json_round_trip(table, tmp_path):
    payload = json.loads(render_json(table))
    assert payload["columns"] == ["delta_over_gamma", "R"]
    path = tmp_path / "demo.json"
    write_table(table, path, "json")
    loaded = read_table(path)
    assert np.allclose(loaded.rows, table.rows, rtol=1e-11)
    assert loaded.features[0][0] == "dip"


def test_file_round_trip(table, tmp_path):
    path = tmp_path / "demo.csv"
    write_table(table, path, "csv")
    loaded = read_table(path)
    assert loaded.columns == table.columns
    assert np.allclose(loaded.rows, table.rows, rtol=1e-11)


def test_unknown_format_rejected(table, tmp_path):
    with pytest.raises(ValueError):
        write_table(table, tmp_path / "demo.xml", "xml")


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_zero_row_table_round_trip(fmt_name, tmp_path):
    table = DataTable(name="e", columns=("a", "b", "c"), rows=np.zeros((0, 3)))
    path = tmp_path / f"e.{fmt_name}"
    write_table(table, path, fmt_name)
    loaded = read_table(path)
    assert loaded.rows.shape == (0, 3)
    render = {"csv": render_csv, "json": render_json}[fmt_name]
    assert render(loaded) == render(table)
    assert render_csv(parse_csv(render_csv(table))) == "a,b,c\n"


@pytest.mark.parametrize(
    "change",
    [
        dict(columns=("a,b",), rows=np.zeros((2, 1))),
        dict(features=(("d,ip", 0.0, 0.25, 0.1),)),
        dict(meta={"n_atoms": "2\n3"}),
        dict(meta={"a = b": "v"}),
        dict(meta={"feature,dip,0,0.25": "0.1"}),
        dict(columns=("a\rb",), rows=np.zeros((2, 1))),
        dict(meta={"n\u2028atoms": "2"}),
    ],
    ids=[
        "column-comma",
        "kind-comma",
        "meta-value-break",
        "meta-key-equals",
        "meta-key-feature",
        "column-break",
        "meta-key-break",
    ],
)
def test_csv_text_that_would_not_read_back_is_refused(table, change, tmp_path):
    # each of these renders text that parse_csv splits or reads as another line kind
    bad = replace(table, **change)
    with pytest.raises(ValidationError, match="'demo'"):
        write_table(bad, tmp_path / "demo.csv")
    assert list(tmp_path.iterdir()) == []
    assert json.loads(render_json(bad))["name"] == "demo"  # JSON escapes every character


def test_parse_requires_header():
    with pytest.raises(ValueError):
        parse_csv("# only = meta\n")


def _nan_with_payload(payload, sign=0):
    return np.array([(sign << 63) | (0x7FF << 52) | payload], dtype=np.uint64).view(float)[0]


_GRID = np.linspace(0.0, 2.0, 9)
_SPECIAL = [
    np.nan,
    -np.nan,
    _nan_with_payload(1),
    _nan_with_payload(0x8000000000001, sign=1),
    np.inf,
    -np.inf,
    5e-324,
    -5e-324,
    1e-310,
    2.2250738585072014e-308,
    np.finfo(float).max,
    -0.0,
    0.0,
]

#: rows of every kind the renderers must give the per-row text for
ROWS = {
    "repeated": np.column_stack(
        [np.repeat(_GRID, 5), np.tile(_GRID[:5], 9), np.round(np.sin(np.arange(45.0)), 2)]
    ),
    "signed-zeros": np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, -0.0], [0.0, 0.0]]),
    "specials": np.column_stack([_SPECIAL, _SPECIAL[::-1]]),
    "one-by-three": np.array([[0.5, -0.0, 1 / 3]]),
    "zero-by-three": np.zeros((0, 3)),
    "three-by-zero": np.zeros((3, 0)),
    "1-d": np.array([1 / 3, 1 / 3, -0.0, 2e-320]),
    "1-d-empty": np.array([]),
    "column-slice": np.arange(24.0).reshape(4, 6)[:, ::2] / 7.0,
}


#: the JSON rows are spliced in at the tail of the dumped payload; a name
#: and a meta value that hold that tail's text must not move them
_SPLICE_TAIL = '"rows":null}'


@pytest.mark.parametrize(
    "rows, label",
    [(rows, "oracle") for rows in ROWS.values()] + [(ROWS["repeated"], _SPLICE_TAIL)],
    ids=[*ROWS, "rows-tail-in-name-and-meta"],
)
def test_rendering_matches_the_per_row_renderer_at_every_digits(rows, label):
    table = DataTable(
        name=label,
        columns=tuple(f"c{j}" for j in range(np.atleast_2d(rows).shape[1])),
        rows=rows,
        meta={"kind": label, "tail": f"x {_SPLICE_TAIL}"},
        features=(("dip", -0.0, np.nan, 1 / 3), ("peak", 0.1, 5e-324, np.inf)),
    )
    for digits in range(1, 18):
        assert render_csv(table, digits) == render_csv_by_row(table, digits), digits
        assert render_json(table, digits) == render_json_by_row(table, digits), digits


#: sha256 of ``repro fig2`` output before distinct values were formatted once
FIG2_SHA256 = {
    "csv": "99a4e58e91d9fdb910b0f71b688f7ba96861c7ad1ec6ce98fc6fcb49a557edf5",
    "json": "9fbe708b01b8a6ea7cde71abdcb61ea5cf94c83cdc8562006a5cde18b3f7acc0",
}


@pytest.mark.parametrize("fmt_name", sorted(FIG2_SHA256))
def test_fig2_map_bytes_are_pinned(fmt_name, tmp_path, capsys):
    assert main(["repro", "fig2", "--format", fmt_name, "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    data = (tmp_path / f"fig2_map.{fmt_name}").read_bytes()
    assert hashlib.sha256(data).hexdigest() == FIG2_SHA256[fmt_name]


#: sha256 of the ``repro fig3`` files, each name and its bytes in name order,
#: since the xi = 0 cascade sums in closed form: of its 12-digit values, two of
#: fig3_N1_C4's 4001 (delta = +-2.556) moved in the last digit; fig3_N2_C4_gL08,
#: the gamma_L = 0.8 curve, keeps its bytes
FIG3_SHA256 = {
    "csv": "d0accdcd822cb3ca13b33341a097ecc10a781460c63f8376a2064f764a91ba40",
    "json": "c9fba6b5396a32a9060029292697dff5722fcd2765f57176ccc252ee7d70c735",
}


@pytest.mark.parametrize("fmt_name", sorted(FIG3_SHA256))
def test_fig3_spectra_bytes_are_pinned(fmt_name, tmp_path, capsys):
    assert main(["repro", "fig3", "--format", fmt_name, "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == FIG3_SHA256[fmt_name]


#: sha256 of the ``repro fig3_2`` files, each name and its bytes in name order, while
#: gamma_L = 1 off xi = 0 still took a site update of its own: six xi, N = 2
FIG3_2_SHA256 = {
    "csv": "ea22d9302cf5a5df7e611c64a454726f930f2f2773233c0e4f80d537a4d617be",
    "json": "d4b672ffa5c875d73976fde323e59e3a50c2cda6f29e22781d2d5a181955398b",
}


@pytest.mark.parametrize("fmt_name", sorted(FIG3_2_SHA256))
def test_fig3_2_spectra_bytes_are_pinned(fmt_name, tmp_path, capsys):
    assert main(["repro", "fig3_2", "--format", fmt_name, "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == FIG3_2_SHA256[fmt_name]


#: sha256 of the ``repro fig4`` CSV files, each name and its bytes in name order, before
#: the xi = 0 cascade formed its site invariants once per call: N = 3..6 at gamma_L = 1
FIG4_CSV_SHA256 = "cd885a707209d220ca1cd4f5324a57b6d85663c7bcd42a0c37b2faaf00674cc1"


def test_fig4_spectra_bytes_are_pinned(tmp_path, capsys):
    assert main(["repro", "fig4", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == FIG4_CSV_SHA256


#: sha256 of ``carve`` CSV output before a protocol folded all of its steps
#: together; both plans cross fold boundaries (2 + 2 + 2 and 4 + 2 steps).
#: The M = 12 run at xi = 0.3 is gamma_L = 1 off xi = 0, pinned while that
#: regime still took a site update of its own
CARVE_SHA256 = {
    "--m 12": "71eb64f3565de17b047e84936183e47567f126aaf180ba56aa6aed1d0a53e3bb",
    "--m 11 --gamma-l 0.95 --xi 0.3 --reps 2": "6722d4add072e0383ce9cfcedd1e696e0e504e690babf3bfdd653309dd9d31b7",
    "--m 12 --xi 0.3": "7f6f8eb400a0573f52f23ad92ff320867c449bf2aa28298f282cb780af278187",
}


@pytest.mark.parametrize("args", sorted(CARVE_SHA256))
def test_carve_bytes_are_pinned(args, tmp_path, capsys):
    path = tmp_path / "carve.csv"
    assert main(["carve", *args.split(), "--output", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CARVE_SHA256[args]


#: sha256 of CLI map and spectrum output before the JSON rows were spliced
#: into the dumped payload; the N = 3 spectrum's 5 features precede its rows.
#: The N = 3 spectrum is re-pinned since the xi = 0 cascade sums in closed form:
#: its two dips' half-prominence widths, 12-digit unequal, traded values
CLI_SHA256 = {
    "map --n 3": "f2eee5e3297493c8f5383493a55f1eb50dfcd50ef35807e4a00ad74f269a3179",
    "map --n 3 --format json": "67f4bf5776add08ffead9f3a88a4f6d1336439ab426e70085c6693de57e3d01e",
    "spectrum --n 3 --format json": "ce8a6ac857e45763fbbbb5d4e98c3c366f2af00f1c54024ab148072738fbbfcd",
}


@pytest.mark.parametrize("args", sorted(CLI_SHA256))
def test_map_and_spectrum_bytes_are_pinned(args, tmp_path, capsys):
    path = tmp_path / "out"
    assert main([*args.split(), "--output", str(path)]) == 0
    capsys.readouterr()
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == CLI_SHA256[args]
    if args.startswith("spectrum"):
        assert len(json.loads(data)["features"]) == 5


#: sha256 of a spectrum at gamma_L = 1 off xi = 0, while that regime still took a
#: site update of its own: its sweep and its 9 features' refinement walk the chain
CASCADE_SPECTRUM_SHA256 = {
    "spectrum --n 6 --xi 0.7 --format json": "8037d73d6edef7ea6c5a2b2a243fa47d31e4f5f8daf24d7f06f2ab01d936e753",
}


@pytest.mark.parametrize("args", sorted(CASCADE_SPECTRUM_SHA256))
def test_cascade_spectrum_bytes_are_pinned(args, tmp_path, capsys):
    path = tmp_path / "out"
    assert main([*args.split(), "--output", str(path)]) == 0
    capsys.readouterr()
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == CASCADE_SPECTRUM_SHA256[args]
    assert len(json.loads(data)["features"]) == 9


def fold_points(fold):
    """``solver._fold`` one point at a time, each a batch of one of the batch's ndim
    (a split batch keeps its rows); scalar operands stay scalars."""

    def folded(params, delta, pos, gl, xi, jet=False, prefix=None, split=False):
        operands = (delta, gl, xi, prefix)
        shape = np.broadcast_shapes(*(np.shape(v) for v in operands if v is not None))
        results = None
        for index in np.ndindex(shape[split:]):
            at = (slice(None),) * split + tuple(slice(i, i + 1) for i in index)
            point = [v if np.ndim(v) == 0 else np.broadcast_to(v, shape)[at] for v in operands]
            delta_k, gl_k, xi_k, prefix_k = point
            values = fold(params, delta_k, pos, gl_k, xi_k, jet, prefix_k, split)
            if results is None:
                results = [np.empty(np.shape(v)[:split] + shape[split:], np.result_type(v)) for v in values]
            for result, value in zip(results, values):
                result[(slice(None),) * split + index] = np.reshape(value, np.shape(value)[:split])
        return results

    return folded


#: the benchmark's median carve classes (M = 5, 6) and its largest map (N = 6) at
#: 17 digits, where a last-bit flip that 12 digits round away shows in the bytes;
#: the M = 6 carve and N = 6 spectrum off xi = 0 put gamma_L = 1 on the walk
FULL_PRECISION = (
    "carve --m 6 --reps 2 --precision 17",
    "carve --m 5 --gamma-l 0.95 --xi 0.3 --reps 3 --precision 17",
    "map --n 6 --precision 17",
    "carve --m 6 --xi 0.3 --reps 2 --precision 17",
    "spectrum --n 6 --xi 0.7 --precision 17",
)


@pytest.mark.parametrize("args", FULL_PRECISION)
def test_full_precision_bytes_of_batches_and_points_agree(args, tmp_path, capsys, monkeypatch):
    # the fold's bits must not depend on the batch around a point: compared in one
    # process, so the check holds on any CPU and numpy that the 12-digit pins pass on
    batch, points = tmp_path / "batch.csv", tmp_path / "points.csv"
    assert main([*args.split(), "--output", str(batch)]) == 0
    monkeypatch.setattr(solver, "_fold", fold_points(solver._fold))
    assert main([*args.split(), "--output", str(points)]) == 0
    capsys.readouterr()
    assert batch.read_bytes() == points.read_bytes()
