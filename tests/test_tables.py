import hashlib
import json

import numpy as np
import pytest

from chiralcav import solver
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
#: before gamma_R became 1 - gamma_L: fig3_N2_C4_gL08 is the gamma_L = 0.8 curve
FIG3_SHA256 = {
    "csv": "80097bdd512ad938f0f1be1e73f224c3742e59c479c0fb9c33980c682b5cef8d",
    "json": "dd21bc523a5deb17d152861c5d74b024b5cabdaee5140996ad10e4eb9e696579",
}


@pytest.mark.parametrize("fmt_name", sorted(FIG3_SHA256))
def test_fig3_spectra_bytes_are_pinned(fmt_name, tmp_path, capsys):
    assert main(["repro", "fig3", "--format", fmt_name, "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == FIG3_SHA256[fmt_name]


#: sha256 of ``carve`` CSV output before a protocol folded all of its steps
#: together; both plans cross fold boundaries (2 + 2 + 2 and 4 + 2 steps)
CARVE_SHA256 = {
    "--m 12": "71eb64f3565de17b047e84936183e47567f126aaf180ba56aa6aed1d0a53e3bb",
    "--m 11 --gamma-l 0.95 --xi 0.3 --reps 2": "6722d4add072e0383ce9cfcedd1e696e0e504e690babf3bfdd653309dd9d31b7",
}


@pytest.mark.parametrize("args", sorted(CARVE_SHA256))
def test_carve_bytes_are_pinned(args, tmp_path, capsys):
    path = tmp_path / "carve.csv"
    assert main(["carve", *args.split(), "--output", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CARVE_SHA256[args]


#: sha256 of CLI map and spectrum output before the JSON rows were spliced
#: into the dumped payload; the N = 3 spectrum's 5 features precede its rows
CLI_SHA256 = {
    "map --n 3": "f2eee5e3297493c8f5383493a55f1eb50dfcd50ef35807e4a00ad74f269a3179",
    "map --n 3 --format json": "67f4bf5776add08ffead9f3a88a4f6d1336439ab426e70085c6693de57e3d01e",
    "spectrum --n 3 --format json": "dbf5ca9d24c735920f0b2d9cead9c63e815c8fddb6573dfeac06e62f5bbc2e0b",
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


def fold_points(fold):
    """``solver._fold`` one point at a time, each a batch of one of the batch's ndim
    (a split batch keeps its rows); scalar operands stay scalars."""

    def folded(params, delta, delta_c, pos, gl, xi, jet=False, prefix=None, split=False):
        operands = (delta, delta_c, gl, xi, prefix)
        shape = np.broadcast_shapes(*(np.shape(v) for v in operands if v is not None))
        results = None
        for index in np.ndindex(shape[split:]):
            at = (slice(None),) * split + tuple(slice(i, i + 1) for i in index)
            point = [v if np.ndim(v) == 0 else np.broadcast_to(v, shape)[at] for v in operands]
            values = fold(params, *point[:2], pos, *point[2:4], jet, point[4], split)
            if results is None:
                results = [np.empty(np.shape(v)[:split] + shape[split:], np.result_type(v)) for v in values]
            for result, value in zip(results, values):
                result[(slice(None),) * split + index] = np.reshape(value, np.shape(value)[:split])
        return results

    return folded


#: the benchmark's median carve classes (M = 5, 6) and its largest map (N = 6) at
#: 17 digits, where a last-bit flip that 12 digits round away shows in the bytes
FULL_PRECISION = (
    "carve --m 6 --reps 2 --precision 17",
    "carve --m 5 --gamma-l 0.95 --xi 0.3 --reps 3 --precision 17",
    "map --n 6 --precision 17",
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
