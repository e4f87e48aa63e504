"""Reflectivity sweeps, dip/peak localization and figure datasets.

Sweep engines evaluate R = |r|^2 on detuning grids or on the
on-resonance (xi, gamma_L) plane through the general-N solver.  Grid
extrema are refined on the continuous curve by golden-section search and
characterized by their full width at half prominence, which stays well
defined for dips sitting on a curved background.  All extrema of a
spectrum are refined together, one batch solve per search step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import find_peaks

from .errors import DipNotFoundError, ValidationError
from .params import SystemParams, cooperativity
# ``reflectivity`` is unused here but stays a module attribute: the benchmark
# tracer wraps spectrum.reflectivity, and its self-test removes and restores it
from .solver import reflectivity, reflectivity_batch  # noqa: F401
from .tables import DataTable, fmt

#: default detuning grid for dip work: dips at high C are narrow, so the
#: grid only brackets candidates and golden-section refinement finishes
DIP_SPAN = 3.0
DIP_POINTS = 4001

#: default minimum prominence in R separating real interference dips
#: from floating-point ripple
PROMINENCE_MIN = 1e-3

#: |delta| tolerance of the golden-section refinement, units of gamma
REFINE_TOL = 1e-6


@dataclass(frozen=True)
class Feature:
    """One spectral extremum: location, depth/height and width."""

    kind: str  # "dip" or "peak"
    delta: float
    value: float
    width: float  # full width at half prominence
    prominence: float


@dataclass(frozen=True)
class Spectrum:
    """Sampled reflectivity curve R(delta) plus detected features."""

    params: SystemParams
    deltas: np.ndarray
    values: np.ndarray
    features: tuple[Feature, ...] = ()

    def __post_init__(self) -> None:
        if np.any(np.diff(self.deltas) <= 0):
            raise ValueError("delta grid must be strictly increasing")


@dataclass(frozen=True)
class Map2D:
    """On-resonance reflectivity over the (xi, gamma_L) plane."""

    xi_grid: np.ndarray
    gamma_L_grid: np.ndarray
    values: np.ndarray  # shape (len(xi_grid), len(gamma_L_grid))

    def rows(self) -> np.ndarray:
        """Table rows (xi, gamma_L, R), xi-major."""
        xi, gamma_L = np.meshgrid(self.xi_grid, self.gamma_L_grid, indexing="ij")
        return np.column_stack([xi.ravel(), gamma_L.ravel(), self.values.ravel()])


def golden_section_minimize(f, lo, hi, tol: float = REFINE_TOL):
    """Locate the minima of unimodal functions on brackets [lo, hi] to within tol.

    ``lo`` and ``hi`` are floats or broadcastable arrays of brackets.
    Every step makes one call ``f(points)`` with one trial point per
    bracket, shaped like the brackets, and a bracket stops shrinking
    once it is narrower than ``tol``.  Scalar brackets return a float.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    shrink = hi - lo > tol
    while np.any(shrink):
        left = fc < fd  # the minimum lies in [lo, d]
        lo = np.where(shrink & ~left, c, lo)
        hi = np.where(shrink & left, d, hi)
        # the kept interior point is reused, the other one is new
        c, d = np.where(left, hi - invphi * (hi - lo), d), np.where(left, c, lo + invphi * (hi - lo))
        new = f(np.where(left, c, d))
        fc, fd = np.where(left, new, fd), np.where(left, fc, new)
        shrink = hi - lo > tol
    mid = 0.5 * (lo + hi)
    return float(mid) if mid.ndim == 0 else mid


def sweep_delta(
    params: SystemParams, delta_min: float, delta_max: float, n_points: int
) -> Spectrum:
    """Reflectivity on a uniform detuning grid (delta_c locked to delta)."""
    if n_points < 2:
        raise ValidationError("n_points must be >= 2")
    if not delta_max > delta_min:
        raise ValidationError("delta_max must exceed delta_min")
    deltas = np.linspace(delta_min, delta_max, n_points)
    values = reflectivity_batch(params, deltas)
    return Spectrum(params=params, deltas=deltas, values=values)


def sweep_2d(params_template: SystemParams, xi_grid, gamma_L_grid) -> Map2D:
    """On-resonance reflectivity at every (xi, gamma_L) grid point."""
    xi_grid = np.asarray(xi_grid, dtype=float)
    gamma_L_grid = np.asarray(gamma_L_grid, dtype=float)
    if xi_grid.size == 0 or gamma_L_grid.size == 0:
        raise ValidationError("grids must be nonempty")
    values = reflectivity_batch(
        params_template,
        delta=0.0,
        gamma_L=gamma_L_grid[None, :],
        xi=xi_grid[:, None],
    )
    return Map2D(xi_grid=xi_grid, gamma_L_grid=gamma_L_grid, values=values)


def _extrema(spec: Spectrum, signs, prominence_min: float):
    """Dips (sign +1) and peaks (sign -1) of the sampled curve, in the
    order of ``signs``, with their extrema refined together on the
    continuous curve: (index, sign, prominence, delta) arrays."""
    found = [(s, *find_peaks(-s * spec.values, prominence=prominence_min)) for s in signs]
    index = np.concatenate([peaks for _, peaks, _ in found])
    sign = np.concatenate([np.full(peaks.size, s) for s, peaks, _ in found])
    prominence = np.concatenate([props["prominences"] for _, _, props in found])
    lo, hi = spec.deltas[index - 1], spec.deltas[index + 1]
    delta = golden_section_minimize(lambda d: sign * reflectivity_batch(spec.params, d), lo, hi)
    return index, sign, prominence, delta


def _widths(spec: Spectrum, index, level, sign) -> np.ndarray:
    """Full widths between the crossings of ``level`` around each grid ``index``.

    The sampled curve is walked outward to the first point past the
    level, or to the grid edge.  All crossings are then bisected
    together on the continuous curve, one batch per step, until each
    bracket reaches float resolution.
    """
    n = spec.deltas.size
    right, left = np.empty_like(index), np.empty_like(index)
    for k, (i, lvl, s) in enumerate(zip(index, level, sign)):
        past = np.r_[-1, np.flatnonzero(s * (spec.values - lvl) >= 0), n]
        right[k] = past[np.searchsorted(past, i, side="right")]
        left[k] = past[np.searchsorted(past, i) - 1]
    inside = np.concatenate([right - 1, left + 1])
    level = np.tile(level, 2)
    below = spec.values[inside] < level
    lo = spec.deltas[inside]
    hi = spec.deltas[np.concatenate([np.minimum(right, n - 1), np.maximum(left, 0)])]
    mid = 0.5 * (lo + hi)
    done = (mid == lo) | (mid == hi)  # also a bracket that ends at the grid edge
    while not np.all(done):
        inner = (reflectivity_batch(spec.params, mid) < level) == below
        lo = np.where(inner & ~done, mid, lo)
        hi = np.where(~inner & ~done, mid, hi)
        mid = 0.5 * (lo + hi)
        done = (mid == lo) | (mid == hi)
    upper, lower = np.split(mid, 2)
    return upper - lower


def find_features(spec: Spectrum, prominence_min: float = PROMINENCE_MIN) -> tuple[Feature, ...]:
    """Locate and refine all dips and peaks above ``prominence_min``.

    Grid candidates come from topographic prominence on the sampled
    curve; all of them are then refined together by golden-section
    search on the continuous R(delta) and given their full widths at
    half prominence.  Assumes the grid is dense enough that adjacent
    features are separated by at least three grid points.
    """
    if spec.deltas.size == 0:
        raise ValidationError("empty spectrum")
    index, sign, prominence, delta = _extrema(spec, (1.0, -1.0), prominence_min)
    value = reflectivity_batch(spec.params, delta)
    width = _widths(spec, index, value + sign * prominence / 2.0, sign)
    features = [
        Feature("dip" if s > 0 else "peak", *row)
        for s, *row in zip(sign, delta.tolist(), value.tolist(), width.tolist(), prominence.tolist())
    ]
    return tuple(sorted(features, key=lambda feat: feat.delta))


def with_features(spec: Spectrum, prominence_min: float = PROMINENCE_MIN) -> Spectrum:
    """Copy of ``spec`` with its feature list populated."""
    return replace(spec, features=find_features(spec, prominence_min))


def dip_detunings(
    params: SystemParams,
    n_coupled: int,
    span: float = DIP_SPAN,
    n_points: int = DIP_POINTS,
    prominence_min: float = PROMINENCE_MIN,
) -> list[float]:
    """Refined dip locations of the ``n_coupled``-atom system.

    The n_coupled-atom spectrum carries n_coupled - 1 dips in the
    directional regime; for even counts this includes the on-resonance
    dip at delta = 0.
    """
    if n_coupled < 2:
        raise ValidationError("n_coupled must be >= 2")
    sub = replace(params, n_atoms=int(n_coupled))
    spec = sweep_delta(sub, -span, span, n_points)
    _, _, _, delta = _extrema(spec, (1.0,), prominence_min)
    if not delta.size:
        raise DipNotFoundError(
            f"no dip above prominence {prominence_min} for n_coupled={n_coupled}"
        )
    return sorted(delta.tolist())


# ---------------------------------------------------------------------------
# figure-reproduction datasets


def table_meta(params: SystemParams, dataset: str, curve: str, **extra) -> dict[str, str]:
    meta = {
        "dataset": dataset,
        "curve": curve,
        "n_atoms": str(params.n_atoms),
        "gamma_L": fmt(params.gamma_L),
        "gamma_R": fmt(params.gamma_R),
        "g": fmt(params.g),
        "kappa_wg": fmt(params.kappa_wg),
        "kappa_sc": fmt(params.kappa_sc),
        "xi": fmt(params.xi),
        "cooperativity": fmt(cooperativity(params)) if params.kappa > 0 else "nan",
    }
    if params.gamma_mhz is not None:
        meta["gamma_mhz"] = fmt(params.gamma_mhz)
    meta.update({k: str(v) for k, v in extra.items()})
    return meta


def _spectrum_table(name: str, dataset: str, params: SystemParams, **extra) -> DataTable:
    spec = sweep_delta(params, -DIP_SPAN, DIP_SPAN, DIP_POINTS)
    rows = np.column_stack([spec.deltas, spec.values])
    return DataTable(
        name=name,
        columns=("delta_over_gamma", "R"),
        rows=rows,
        meta=table_meta(params, dataset, name, delta_c="locked", **extra),
    )


#: baseline system of the 2D map dataset: (kappa_wg, kappa_sc, g) = (100, 300, 20)
FIG2_PARAMS = SystemParams(
    n_atoms=2, gamma_L=1.0, g=20.0, kappa_wg=100.0, kappa_sc=300.0, xi=0.0
)
FIG2_XI_GRID = np.linspace(0.0, 2.0 * math.pi, 161)
FIG2_GAMMA_L_GRID = np.linspace(0.0, 1.0, 41)

_FIG3_CURVES = (
    ("fig3_N2_C25", dict(n_atoms=2, g=50.0, gamma_L=1.0)),
    ("fig3_N2_C4", dict(n_atoms=2, g=20.0, gamma_L=1.0)),
    ("fig3_N2_C1", dict(n_atoms=2, g=10.0, gamma_L=1.0)),
    ("fig3_N1_C4", dict(n_atoms=1, g=20.0, gamma_L=1.0)),
    ("fig3_N0", dict(n_atoms=0, g=0.0, gamma_L=1.0)),
    ("fig3_N2_C4_gL08", dict(n_atoms=2, g=20.0, gamma_L=0.8)),
)

_FIG3_2_XIS = (
    ("pi8", math.pi / 8),
    ("pi4", math.pi / 4),
    ("3pi8", 3 * math.pi / 8),
    ("5pi8", 5 * math.pi / 8),
    ("3pi4", 3 * math.pi / 4),
    ("7pi8", 7 * math.pi / 8),
)


def _fig2_tables() -> list[DataTable]:
    map2d = sweep_2d(FIG2_PARAMS, FIG2_XI_GRID, FIG2_GAMMA_L_GRID)
    table = DataTable(
        name="fig2_map",
        columns=("xi", "gamma_L", "R"),
        rows=map2d.rows(),
        meta=table_meta(FIG2_PARAMS, "fig2", "fig2_map", delta="0", sweep="xi,gamma_L"),
    )
    return [table]


def _fig3_tables() -> list[DataTable]:
    tables = []
    for name, overrides in _FIG3_CURVES:
        params = SystemParams(
            kappa_wg=100.0, kappa_sc=300.0, xi=0.0, **overrides
        )
        tables.append(_spectrum_table(name, "fig3", params))
    return tables


def _fig3_2_tables() -> list[DataTable]:
    tables = []
    for label, xi in _FIG3_2_XIS:
        params = replace(FIG2_PARAMS, gamma_L=1.0, gamma_R=None, xi=xi)
        tables.append(
            _spectrum_table(
                f"fig3_2_xi_{label}",
                "fig3_2",
                params,
                xi_selection="representative",
            )
        )
    return tables


def _fig4_tables() -> list[DataTable]:
    tables = []
    for n in (3, 4, 5, 6):
        params = replace(FIG2_PARAMS, n_atoms=n)
        tables.append(_spectrum_table(f"fig4_N{n}", "fig4", params))
    return tables


_FIGURES = {
    "fig2": _fig2_tables,
    "fig3": _fig3_tables,
    "fig3_2": _fig3_2_tables,
    "fig4": _fig4_tables,
}


def figure_data(which: str) -> list[DataTable]:
    """CSV-ready tables for one of the named reference datasets."""
    try:
        builder = _FIGURES[which]
    except KeyError:
        raise ValueError(
            f"unknown figure id {which!r}; expected one of {sorted(_FIGURES)}"
        ) from None
    return builder()
