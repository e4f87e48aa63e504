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
from .params import require_count, require_params

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
    return format(float(value), f".{require_count('digits', digits, 1)}g")


def _row_texts(rows, token) -> list[str]:
    """The text of each row of ``rows``: ``token(value)`` of its cells, joined by ','.

    Each distinct value of the table is formatted once and its text is
    gathered back to every cell that holds it, one column at a time, so
    no per-row tuples are built.  Values are told apart by their 64-bit
    pattern, so 0.0 and -0.0, and NaNs with different payloads, each
    keep the text that formatting them one by one gives.  The table is
    flattened column by column, so that a map's grid columns reach the
    sort in sorted runs.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    distinct, inverse = np.unique(rows.T.view(np.uint64), return_inverse=True)
    texts = np.array([token(v) for v in distinct.view(float).tolist()], dtype=object)
    columns = [texts[cells].tolist() for cells in inverse.reshape(rows.shape[::-1])]
    return list(map(",".join, zip(*columns))) if columns else [""] * len(rows)  # no columns: empty lines


def render_csv(table: DataTable, digits: int = DEFAULT_DIGITS) -> str:
    require_params(table, DataTable, "table")
    number = f"%.{require_count('digits', digits, 1)}g"  # fmt's format, checked once
    lines = [f"# {key} = {val}" for key, val in table.meta.items()]
    lines.append(",".join(table.columns))
    lines.extend(_row_texts(table.rows, number.__mod__))
    lines.extend(
        f"# feature,{kind},{number % delta},{number % value},{number % width}"
        for kind, delta, value, width in table.features
    )
    return "\n".join(lines) + "\n"


def render_json(table: DataTable, digits: int = DEFAULT_DIGITS) -> str:
    require_params(table, DataTable, "table")
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
    rows = _row_texts(table.rows, token)
    body = "[[" + "],[".join(rows) + "]]" if rows else "[]"
    return head[: -len("null}")] + body + "}\n"


#: output format name -> renderer; the name is also the file suffix
RENDERERS = {"csv": render_csv, "json": render_json}


def write_table(table: DataTable, path, fmt_name: str = "csv", digits: int = DEFAULT_DIGITS) -> None:
    if fmt_name not in RENDERERS:
        raise ValidationError(f"unknown output format: {fmt_name!r}")
    text = RENDERERS[fmt_name](table, digits)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _array(rows: list, columns) -> np.ndarray:
    """Parsed rows as a float array; no rows give shape (0, len(columns)), not (0,)."""
    return np.asarray(rows, dtype=float) if rows else np.zeros((0, len(columns)))


def parse_csv(text: str, name: str = "") -> DataTable:
    """Invert :func:`render_csv` (to the emitted precision)."""
    meta: dict[str, str] = {}
    features: list[tuple[str, float, float, float]] = []
    columns: tuple[str, ...] | None = None
    rows: list[list[float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("feature,"):
                _, kind, d, v, w = body.split(",")
                features.append((kind, float(d), float(v), float(w)))
            elif "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = val.strip()
            continue
        if columns is None:
            columns = tuple(line.split(","))
        else:
            rows.append([float(tok) for tok in line.split(",")])
    if columns is None:
        raise ValidationError("CSV text contains no header row")
    return DataTable(
        name=name,
        columns=columns,
        rows=_array(rows, columns),
        meta=meta,
        features=tuple(features),
    )


def read_table(path) -> DataTable:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    name = str(path).rsplit("/", 1)[-1]
    if name.endswith(".json"):
        payload = json.loads(text)
        return DataTable(
            name=payload.get("name", name),
            columns=tuple(payload["columns"]),
            rows=_array(payload["rows"], payload["columns"]),
            meta={k: str(v) for k, v in payload.get("meta", {}).items()},
            features=tuple(
                (f["kind"], f["delta"], f["value"], f["width"])
                for f in payload.get("features", [])
            ),
        )
    return parse_csv(text, name=name.removesuffix(".csv"))
