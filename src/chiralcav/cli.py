"""Command-line front end.

Subcommands: ``validate``, ``spectrum``, ``map``, ``carve``, ``repro``.
Exit codes: 0 ok, 2 usage/validation error or an unreadable/unwritable
path, 3 protocol extinguished, 4 solver failure.  Options may also be
supplied through a flat ``key = value`` config file (``--config``);
explicit command-line flags override file values, and unknown config
keys are rejected.  All options are checked before any work starts.
The output directory for ``repro`` defaults to the ``CHIRALCAV_OUTDIR``
environment variable when set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import carving, spectrum, tables
from .errors import (
    DipNotFoundError,
    ProtocolExtinguishedError,
    SolverError,
    ValidationError,
)
from .params import SystemParams, require_valid, validate
from .tables import DataTable

OUTDIR_ENV = "CHIRALCAV_OUTDIR"

_SYSTEM_OPTIONS = {
    "n_atoms": ("--n", int, 2, "number of cavity-coupled atoms"),
    "gamma_l": ("--gamma-l", float, 1.0, "left-propagating decay rate in [0, 1]; gamma_R = 1 - gamma_L"),
    "xi": ("--xi", float, 0.0, "interatomic phase k_s d in radians"),
    "g": ("--g", float, 20.0, "atom-photon coupling (units of gamma)"),
    "kappa_wg": ("--kappa-wg", float, 100.0, "cavity decay to the waveguide"),
    "kappa_sc": ("--kappa-sc", float, 300.0, "cavity scattering loss"),
    "gamma_mhz": ("--gamma-mhz", float, None, "optional display scale for gamma"),
}

_OUTPUT_OPTIONS = {
    "output": ("--output", str, None, "output file (default: stdout)"),
    "format": ("--format", str, "csv", "output format: csv or json"),
    "precision": ("--precision", int, tables.DEFAULT_DIGITS, "significant digits"),
}

_COMMAND_OPTIONS: dict[str, dict[str, tuple[str, type, object, str]]] = {
    "validate": dict(_SYSTEM_OPTIONS),
    "spectrum": {
        **_SYSTEM_OPTIONS,
        **_OUTPUT_OPTIONS,
        "delta_min": ("--delta-min", float, -3.0, "lower edge of the detuning grid"),
        "delta_max": ("--delta-max", float, 3.0, "upper edge of the detuning grid"),
        "points": ("--points", int, spectrum.DIP_POINTS, "number of grid points"),
        "prominence": ("--prominence", float, spectrum.PROMINENCE_MIN, "feature prominence threshold"),
    },
    "map": {
        **_SYSTEM_OPTIONS,
        **_OUTPUT_OPTIONS,
        "xi_min": ("--xi-min", float, 0.0, "lower edge of the xi grid"),
        "xi_max": ("--xi-max", float, 2.0 * math.pi, "upper edge of the xi grid"),
        "xi_points": ("--xi-points", int, 161, "xi grid size"),
        "gamma_l_min": ("--gamma-l-min", float, 0.0, "lower edge of the gamma_L grid"),
        "gamma_l_max": ("--gamma-l-max", float, 1.0, "upper edge of the gamma_L grid"),
        "gamma_l_points": ("--gamma-l-points", int, 41, "gamma_L grid size"),
    },
    "carve": {
        **{k: v for k, v in _SYSTEM_OPTIONS.items() if k != "n_atoms"},
        **_OUTPUT_OPTIONS,
        "m": ("--m", int, 2, "total number of register atoms"),
        "reps": ("--reps", int, 1, "measurement repetitions per plan step"),
        "dip_sign": ("--dip-sign", int, +1, "sign of the dip detunings used (+1 or -1)"),
    },
    "repro": {
        "outdir": ("--outdir", str, None, "output directory (default: $CHIRALCAV_OUTDIR or .)"),
        "format": ("--format", str, "csv", "output format: csv or json"),
        "precision": ("--precision", int, tables.DEFAULT_DIGITS, "significant digits"),
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiralcav",
        description="Reflectivity spectra and state carving for a chirally coupled atom-cavity system",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _COMMAND_OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", type=str, default=None, help="flat key = value config file")
        if command == "repro":
            p.add_argument("figure", type=str, help="dataset id: fig2, fig3, fig3_2 or fig4")
        for dest, (flag, typ, _default, help_text) in options.items():
            p.add_argument(flag, dest=dest, type=typ, default=argparse.SUPPRESS, help=help_text)
    return parser


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in tables._read_text(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"malformed config line: {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _merge_options(args: argparse.Namespace, command: str) -> dict:
    """defaults < config file < explicit flags, checked before any work."""
    options = _COMMAND_OPTIONS[command]
    merged = {dest: default for dest, (_f, _t, default, _h) in options.items()}
    if getattr(args, "config", None):
        for key, text in _load_config(args.config).items():
            if key not in options:
                raise ValidationError(f"unknown config key: {key!r}")
            typ = options[key][1]
            try:
                merged[key] = typ(text)
            except ValueError:
                msg = f"config value {key} = {text!r} does not parse as {typ.__name__}"
                raise ValidationError(msg) from None
    for dest in options:
        if hasattr(args, dest):
            merged[dest] = getattr(args, dest)
    if "format" in merged and merged["format"] not in tables.RENDERERS:
        raise ValidationError(f"unknown output format: {merged['format']!r}")
    for key in ("precision", "xi_points", "gamma_l_points"):
        if key in merged and merged[key] < 1:
            raise ValidationError(f"{key} must be >= 1")
    for key in ("delta_min", "delta_max", "xi_min", "xi_max", "gamma_l_min", "gamma_l_max"):
        if key in merged and not math.isfinite(merged[key]):
            raise ValidationError(f"{key} must be finite")
    if "prominence" in merged and not merged["prominence"] >= 0:  # NaN fails too
        raise ValidationError("prominence must be >= 0")
    # paths: the output file's directory must exist; repro creates its
    # outdir, so the nearest existing ancestor must be a directory
    if merged.get("output"):
        parent = Path(merged["output"]).parent
        if not parent.is_dir():
            raise ValidationError(f"not a directory: {str(parent)!r}")
    if "outdir" in merged:
        outdir = merged["outdir"] = Path(merged["outdir"] or os.environ.get(OUTDIR_ENV) or ".")
        existing = next(p for p in (outdir, *outdir.parents) if p.exists())
        if not existing.is_dir():
            raise ValidationError(f"not a directory: {str(existing)!r}")
    return merged


def _system_params(opt: dict, n_atoms: int) -> SystemParams:
    """SystemParams from merged options, not yet validated."""
    return SystemParams(
        n_atoms=n_atoms,
        gamma_L=opt["gamma_l"],
        g=opt["g"],
        kappa_wg=opt["kappa_wg"],
        kappa_sc=opt["kappa_sc"],
        xi=opt["xi"],
        gamma_mhz=opt["gamma_mhz"],
    )


def _emit(table: DataTable, opt: dict) -> None:
    if opt["output"]:
        tables.write_table(table, opt["output"], opt["format"], opt["precision"])
    else:
        sys.stdout.write(tables.RENDERERS[opt["format"]](table, opt["precision"]))


def _cmd_validate(args: argparse.Namespace) -> int:
    opt = _merge_options(args, "validate")
    violations = validate(_system_params(opt, opt["n_atoms"])).violations
    for violation in violations:
        print(f"violation: {violation}")
    if violations:
        return 2
    print("ok")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    opt = _merge_options(args, "spectrum")
    params = require_valid(_system_params(opt, opt["n_atoms"]))
    spec = spectrum.sweep_delta(params, opt["delta_min"], opt["delta_max"], opt["points"])
    features = spectrum.find_features(spec, opt["prominence"])
    _emit(spectrum.spectrum_table(spec, "spectrum", "spectrum", features), opt)
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    opt = _merge_options(args, "map")
    params = require_valid(_system_params(opt, opt["n_atoms"]))
    xi_grid = np.linspace(opt["xi_min"], opt["xi_max"], opt["xi_points"])
    gl_grid = np.linspace(opt["gamma_l_min"], opt["gamma_l_max"], opt["gamma_l_points"])
    map2d = spectrum.sweep_2d(params, xi_grid, gl_grid)
    _emit(spectrum.map_table(map2d, params, "map", "map"), opt)
    return 0


def _cmd_carve(args: argparse.Namespace) -> int:
    opt = _merge_options(args, "carve")
    template = require_valid(_system_params(opt, opt["m"]))
    result = carving.run_protocol(
        opt["m"], template, repetitions_per_step=opt["reps"], dip_sign=opt["dip_sign"]
    )
    rows = np.array(
        [
            [rec.step, rec.delta, rec.herald_probability, rec.cumulative_probability, rec.fidelity]
            for rec in result.trace
        ]
    )
    meta = spectrum.table_meta(template, "carve", f"M{opt['m']}")
    meta.update(
        {
            "m": str(opt["m"]),
            "repetitions_per_step": str(opt["reps"]),
            "target": result.plan.target,
            "plan_deltas": " ".join(tables.fmt(d) for d in result.plan.steps),
            "cumulative_herald_probability": tables.fmt(result.cumulative_herald_probability),
            "final_fidelity": tables.fmt(result.fidelity_vs_step[-1]),
        }
    )
    table = DataTable(
        name=f"carve_M{opt['m']}",
        columns=("step", "delta", "herald_prob", "cumulative_prob", "fidelity"),
        rows=rows,
        meta=meta,
    )
    _emit(table, opt)
    return 0


def _cmd_repro(args: argparse.Namespace) -> int:
    opt = _merge_options(args, "repro")
    data = spectrum.figure_data(args.figure)
    opt["outdir"].mkdir(parents=True, exist_ok=True)
    for table in data:
        path = opt["outdir"] / f"{table.name}.{opt['format']}"
        tables.write_table(table, path, opt["format"], opt["precision"])
        print(path)
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "spectrum": _cmd_spectrum,
    "map": _cmd_map,
    "carve": _cmd_carve,
    "repro": _cmd_repro,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProtocolExtinguishedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SolverError, DipNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
