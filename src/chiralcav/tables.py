"""Deterministic tabular output: CSV/JSON writers and the round-trip reader.

CSV conventions: '.' decimal point, ',' separator, '#'-prefixed metadata
header lines, values formatted to a fixed number of significant digits
(12 by default) so repeated runs are byte-identical.  Spectral features
are appended as '# feature,kind,delta,value,width' comment rows so plain
numeric parsers skip them while the reader recovers them.

Both renderers take the row texts from one path: each distinct value
of a table is formatted once and its text is gathered back to its cells
(a (xi, gamma_L, R) map repeats each grid value many times), and each
row is its column texts joined by ','.  For JSON a value's text is the
token ``json.dumps`` writes for the float read back from its %g text;
the rows are spliced, each in brackets, into ``json.dumps`` of the rest
of the payload at its last key, "rows".  The bytes are those of
formatting every value on its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .params import _number, _real, require_count, require_params

DEFAULT_DIGITS = 12


@dataclass(frozen=True)
class DataTable:
    """One named table: column labels, float rows and flat metadata."""

    name: str
    columns: tuple[str, ...]
    rows: np.ndarray  # shape (n_rows, n_columns)
    meta: dict[str, str] = field(default_factory=dict)
    features: tuple[tuple[str, float, float, float], ...] = ()


def fmt(value: float, digits: int = DEFAULT_DIGITS) -> str:
    """Format one float with a fixed significant-digit budget (an integer >= 1)."""
    if not _number(value):
        raise ValidationError(f"value must be a real number, got {value!r}")
    return format(float(value), f".{require_count('digits', digits, 1)}g")


def _rows(table: DataTable) -> np.ndarray:
    """``table.rows`` as a 2-D float array; ValidationError unless each row has
    one cell per column, so that the rendered text reads back, and each cell is
    a real number (a complex cell would lose its imaginary part)."""
    if not _real(table.rows):  # text, complex or ragged rows
        raise ValidationError(f"table {table.name!r}: rows are not real numbers")
    rows = np.atleast_2d(np.asarray(table.rows, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != len(table.columns):
        raise ValidationError(f"table {table.name!r}: rows of shape {rows.shape} under {len(table.columns)} columns")
    return rows


def _csv_labels(table: DataTable) -> None:
    """ValidationError naming the table unless its labels read back from its CSV
    text: a column name or feature kind holding ',', a meta key holding '=' or
    starting with 'feature,', or any of them or a meta value holding a line
    break would each split or move a line."""
    keys = [str(key) for key in table.meta]
    cells = [str(c) for c in table.columns] + [str(f[0]) for f in table.features]
    bad = [t for t in (*cells, *keys, *map(str, table.meta.values())) if "".join(t.splitlines()) != t]
    bad += [t for t in cells if "," in t] + [k for k in keys if "=" in k or k.lstrip().startswith("feature,")]
    if bad:
        raise ValidationError(f"table {table.name!r}: {bad[0]!r} would not read back from CSV")


def _row_texts(rows: np.ndarray, token) -> list[str]:
    """The text of each row of ``rows``: ``token(value)`` of its cells, joined by ','.

    Each distinct value of the table is formatted once and its text is
    gathered back to every cell that holds it, one column at a time, so
    no per-row tuples are built.  Values are told apart by their 64-bit
    pattern, so 0.0 and -0.0, and NaNs with different payloads, each
    keep the text that formatting them one by one gives.  The table is
    flattened column by column, so that a map's grid columns reach the
    sort in sorted runs.
    """
    distinct, inverse = np.unique(rows.T.view(np.uint64), return_inverse=True)
    texts = np.array([token(v) for v in distinct.view(float).tolist()], dtype=object)
    columns = [texts[cells].tolist() for cells in inverse.reshape(rows.shape[::-1])]
    return list(map(",".join, zip(*columns))) if columns else [""] * len(rows)  # no columns: empty lines


def render_csv(table: DataTable, digits: int = DEFAULT_DIGITS) -> str:
    rows = _rows(require_params(table, DataTable, "table"))
    _csv_labels(table)
    number = f"%.{require_count('digits', digits, 1)}g"  # fmt's format, checked once
    lines = [f"# {key} = {val}" for key, val in table.meta.items()]
    lines.append(",".join(table.columns))
    lines.extend(_row_texts(rows, number.__mod__))
    lines.extend(
        f"# feature,{kind},{number % delta},{number % value},{number % width}"
        for kind, delta, value, width in table.features
    )
    return "\n".join(lines) + "\n"


def render_json(table: DataTable, digits: int = DEFAULT_DIGITS) -> str:
    rows = _rows(require_params(table, DataTable, "table"))
    number = f"%.{require_count('digits', digits, 1)}g"  # fmt's format, checked once

    def token(value: float) -> str:
        """The JSON token of ``value`` read back from its text, as json.dumps writes it."""
        read = float(number % value)
        return repr(read) if math.isfinite(read) else json.dumps(read)

    payload = {
        "name": table.name,
        "meta": dict(table.meta),
        "columns": list(table.columns),
        "rows": None,
        "features": [
            {
                "kind": kind,
                "delta": float(number % delta),
                "value": float(number % value),
                "width": float(number % width),
            }
            for kind, delta, value, width in table.features
        ],
    }
    # sort_keys puts "rows" last: its null is the tail, and the row texts go there
    head = json.dumps(payload, indent=None, sort_keys=True, separators=(",", ":"))
    texts = _row_texts(rows, token)
    body = "[[" + "],[".join(texts) + "]]" if texts else "[]"
    return head[: -len("null}")] + body + "}\n"


#: output format name -> renderer; the name is also the file suffix
RENDERERS = {"csv": render_csv, "json": render_json}


def write_table(table: DataTable, path, fmt_name: str = "csv", digits: int = DEFAULT_DIGITS) -> None:
    if not isinstance(fmt_name, str) or fmt_name not in RENDERERS:  # a list is unhashable
        raise ValidationError(f"unknown output format: {fmt_name!r}")
    text = RENDERERS[fmt_name](table, digits)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _array(rows: list, columns) -> np.ndarray:
    """Parsed rows as a float array; no rows give shape (0, len(columns)), not (0,)."""
    return np.asarray(rows, dtype=float) if rows else np.zeros((0, len(columns)))


def _floats(values, width: int, where: str) -> list[float]:
    """``values`` as ``width`` floats; ValidationError naming ``where`` otherwise."""
    try:
        return [float(v) for _, v in zip(range(width), values, strict=True)]
    except (TypeError, ValueError, OverflowError):  # a JSON integer can overflow a float
        raise ValidationError(f"{where}: {values!r} is not {width} numbers") from None


def _read_text(path) -> str:
    """The text of the UTF-8 file at ``path``; ValidationError naming a file that is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text (byte {exc.start})") from None


def parse_csv(text: str, name: str = "") -> DataTable:
    """Invert :func:`render_csv` (to the emitted precision); ValidationError
    names the line of a row or feature row that does not parse."""
    meta: dict[str, str] = {}
    features: list[tuple[str, float, float, float]] = []
    columns: tuple[str, ...] | None = None
    rows: list[list[float]] = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("feature,"):
                _, kind, *values = body.split(",")
                features.append((kind, *_floats(values, 3, f"feature line {number}")))
            elif "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = val.strip()
            continue
        if columns is None:
            columns = tuple(line.split(","))
        else:
            rows.append(_floats(line.split(","), len(columns), f"line {number}"))
    if columns is None:
        raise ValidationError("CSV text contains no header row")
    return DataTable(
        name=name,
        columns=columns,
        rows=_array(rows, columns),
        meta=meta,
        features=tuple(features),
    )


def _json_numbers(values, width: int, where: str) -> list[float]:
    """``values`` as ``width`` floats; ValidationError naming ``where`` unless
    it is a JSON list of numbers (not strings, which ``float`` would read)."""
    if not (isinstance(values, list) and all(map(_number, values))):
        raise ValidationError(f"{where}: {values!r} is not {width} numbers")
    return _floats(values, width, where)


def _json_table(payload, name: str) -> DataTable:
    """The table of a parsed JSON ``payload``; ValidationError naming ``name``
    and the key, row or feature that does not fit."""
    if not (isinstance(payload, dict) and "columns" in payload and "rows" in payload):
        raise ValidationError(f"{name} is not a JSON table: an object with 'columns' and 'rows'")
    for key, kind in (("columns", list), ("rows", list), ("meta", dict), ("features", list)):
        if not isinstance(payload.setdefault(key, kind()), kind):
            raise ValidationError(f"{name} key {key!r}: {payload[key]!r} is not a JSON {kind.__name__}")
    columns = tuple(payload["columns"])
    if not all(isinstance(c, str) for c in columns):
        raise ValidationError(f"{name} key 'columns': {payload['columns']!r} is not a list of strings")
    rows = [_json_numbers(row, len(columns), f"{name} row {k}") for k, row in enumerate(payload["rows"])]
    features = []
    for k, f in enumerate(payload["features"]):
        if not (isinstance(f, dict) and isinstance(f.get("kind"), str)):
            raise ValidationError(f"{name} feature {k}: {f!r} has no kind")
        values = [f.get(key) for key in ("delta", "value", "width")]
        features.append((f["kind"], *_json_numbers(values, 3, f"{name} feature {k}")))
    return DataTable(
        name=payload.get("name", name),
        columns=columns,
        rows=_array(rows, columns),
        meta={k: str(v) for k, v in payload["meta"].items()},
        features=tuple(features),
    )


def read_table(path) -> DataTable:
    """Read a table that :func:`write_table` wrote; ValidationError names the
    file, and the line, row, feature or key, of one that does not parse."""
    text = _read_text(path)
    name = str(path).rsplit("/", 1)[-1]
    if not name.endswith(".json"):
        return parse_csv(text, name=name.removesuffix(".csv"))
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:  # it names the line and column
        raise ValidationError(f"{name} is not a JSON table: {exc}") from None
    return _json_table(payload, name)
