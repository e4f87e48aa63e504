"""One op = one CLI subcommand done through the library.

validate -> compute -> ``DataTable`` -> ``tables.render_csv`` in memory,
the same steps ``chiralcav spectrum``, ``map`` and ``carve`` take.  Every
call goes through a module attribute (``spectrum.sweep_delta``, not the
package re-export) so that a traced run, which replaces those
attributes, sees it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from chiralcav import ValidationError, carving, params, spectrum, tables

import workloads


@dataclass
class Outcome:
    """Everything an op produced, kept for the output checks."""

    params: object  # SystemParams of the op (the template for carve)
    csv: str
    spectrum: object = None  # Spectrum, for spectra
    features: tuple = ()
    map2d: object = None  # Map2D, for maps
    result: object = None  # ProtocolResult, for carve


def system_params(n: int, gamma_L: float, g: float, xi: float):
    return params.SystemParams(
        n_atoms=n,
        gamma_L=gamma_L,
        g=g,
        kappa_wg=workloads.KAPPA_WG,
        kappa_sc=workloads.KAPPA_SC,
        xi=xi,
    )


def _validated(p):
    report = params.validate(p)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))
    return p


def map_grids() -> tuple[np.ndarray, np.ndarray]:
    return (
        np.linspace(0.0, 2.0 * math.pi, workloads.MAP_XI_POINTS),
        np.linspace(0.0, 1.0, workloads.MAP_GAMMA_L_POINTS),
    )


def carve_template(op: dict):
    gamma_L, g, xi = workloads.CARVE_TEMPLATES[op["template"]]
    return system_params(op["m"], gamma_L, g, xi)


def _spectra(op: dict) -> Outcome:
    p = _validated(system_params(op["n"], op["gamma_L"], op["g"], op["xi"]))
    spec = spectrum.sweep_delta(p, *workloads.SPECTRUM_GRID)
    features = spectrum.find_features(spec)
    table = tables.DataTable(
        name="spectrum",
        columns=("delta_over_gamma", "R"),
        rows=np.column_stack([spec.deltas, spec.values]),
        meta=spectrum.table_meta(p, "spectrum", "spectrum", delta_c="locked"),
        features=tuple((f.kind, f.delta, f.value, f.width) for f in features),
    )
    return Outcome(params=p, csv=tables.render_csv(table), spectrum=spec, features=features)


def _maps(op: dict) -> Outcome:
    p = _validated(system_params(op["n"], 1.0, op["g"], 0.0))
    xi_grid, gl_grid = map_grids()
    map2d = spectrum.sweep_2d(p, xi_grid, gl_grid)
    rows = np.column_stack(
        [
            np.repeat(map2d.xi_grid, map2d.gamma_L_grid.size),
            np.tile(map2d.gamma_L_grid, map2d.xi_grid.size),
            map2d.values.ravel(),
        ]
    )
    table = tables.DataTable(
        name="map",
        columns=("xi", "gamma_L", "R"),
        rows=rows,
        meta=spectrum.table_meta(p, "map", "map", delta="0"),
    )
    return Outcome(params=p, csv=tables.render_csv(table), map2d=map2d)


def _carve(op: dict) -> Outcome:
    m, reps = op["m"], op["reps"]
    template = _validated(carve_template(op))
    plan = carving.plan_protocol(m, template)
    result = carving.run_protocol(m, template, reps, plan=plan)
    rows = np.array(
        [
            [rec.step, rec.delta, rec.herald_probability, rec.cumulative_probability, rec.fidelity]
            for rec in result.trace
        ]
    )
    meta = spectrum.table_meta(template, "carve", f"M{m}")
    meta.update(
        {
            "m": str(m),
            "repetitions_per_step": str(reps),
            "target": result.plan.target,
            "plan_deltas": " ".join(tables.fmt(d) for d in result.plan.steps),
            "cumulative_herald_probability": tables.fmt(result.cumulative_herald_probability),
            "final_fidelity": tables.fmt(result.fidelity_vs_step[-1]),
        }
    )
    table = tables.DataTable(
        name=f"carve_M{m}",
        columns=("step", "delta", "herald_prob", "cumulative_prob", "fidelity"),
        rows=rows,
        meta=meta,
    )
    return Outcome(params=template, csv=tables.render_csv(table), result=result)


_RUN = {"spectra": _spectra, "maps": _maps, "carve": _carve}


def run(op: dict) -> Outcome:
    return _RUN[op["workload"]](op)
