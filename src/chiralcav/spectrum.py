"""Reflectivity sweeps, dip/peak localization and figure datasets.

Sweep engines evaluate R = |r|^2 on detuning grids or on the
on-resonance (xi, gamma_L) plane through the general-N solver.  Grid
extrema are refined on the continuous curve by safeguarded Newton on
R' = 0 and characterized by their full width at half prominence, which
stays well defined for dips sitting on a curved background.  All extrema,
then all width edges, of a spectrum are refined together, one fold of r,
dr/d(delta) and d2r/d(delta)^2 per Newton step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DipNotFoundError, ValidationError
from .params import (
    SystemParams, _real, cooperativity, require_count, require_params, require_real, require_valid,
)
# ``reflectivity`` is unused here but stays a module attribute: the benchmark
# tracer wraps spectrum.reflectivity, and its self-test removes and restores it
from .solver import _reflection, reflectivity, reflectivity_batch  # noqa: F401
from .tables import DataTable, fmt

#: default detuning grid for dip work: dips at high C are narrow, so the
#: grid only brackets candidates and Newton refinement finishes
DIP_SPAN = 3.0
DIP_POINTS = 4001

#: minimum prominence in R separating real interference dips from
#: floating-point ripple
PROMINENCE_MIN = 1e-3

#: |delta| tolerance of the extremum refinement, units of gamma: a Newton
#: step of at most REFINE_TOL/2 ends it
REFINE_TOL = 1e-6

#: |delta| tolerance of the half-prominence edges, units of gamma
EDGE_TOL = 1e-12


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
    """Sampled reflectivity curve R(delta); :func:`find_features` gives its features.

    ``values`` may hold NaN or inf, so that any table reads back as a
    Spectrum; :func:`find_features` refuses such a curve.
    """

    params: SystemParams
    deltas: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        require_params(self.params)
        deltas = require_real("deltas", self.deltas)
        if not _real(self.values):  # values may be non-finite, the grid may not
            raise ValidationError("values must hold real numbers")
        values = np.asarray(self.values, dtype=float)
        if deltas.ndim != 1 or values.shape != deltas.shape:
            raise ValidationError("deltas and values must be 1-D arrays of equal length")
        if np.any(np.diff(deltas) <= 0):
            raise ValidationError("delta grid must be strictly increasing")
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "values", values)


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


def sweep_delta(params: SystemParams, delta_min: float, delta_max: float, n_points: int) -> Spectrum:
    """Reflectivity on a uniform detuning grid (delta_c locked to delta)."""
    n_points = require_count("n_points", n_points, 2)
    bounds = require_real("delta_min and delta_max", (delta_min, delta_max))
    if bounds.shape != (2,):
        raise ValidationError("delta_min and delta_max must be real numbers")
    delta_min, delta_max = bounds.tolist()
    if not delta_max > delta_min:
        raise ValidationError("delta_max must exceed delta_min")
    deltas = np.linspace(delta_min, delta_max, n_points)
    values = reflectivity_batch(params, deltas)
    return Spectrum(params=params, deltas=deltas, values=values)


def sweep_2d(params_template: SystemParams, xi_grid, gamma_L_grid) -> Map2D:
    """On-resonance reflectivity at every (xi, gamma_L) grid point."""
    xi_grid, gamma_L_grid = require_real("xi_grid", xi_grid), require_real("gamma_L_grid", gamma_L_grid)
    if xi_grid.ndim != 1 or gamma_L_grid.ndim != 1 or xi_grid.size == 0 or gamma_L_grid.size == 0:
        raise ValidationError("grids must be nonempty 1-D arrays")
    grids = dict(gamma_L=gamma_L_grid[None, :], xi=xi_grid[:, None])
    values = reflectivity_batch(params_template, 0.0, **grids)
    return Map2D(xi_grid=xi_grid, gamma_L_grid=gamma_L_grid, values=values)


def _peaks(x, prominence_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Local maxima of ``x`` with topographic prominence >= ``prominence_min``:
    (indices, prominences), as ``scipy.signal.find_peaks(x, prominence=...)``.

    A maximum is a strict rise into a run of equal samples and a strict
    fall out of it, reported at the run's middle sample (rounded down);
    the first and last samples never qualify.  Each side of a maximum
    reaches to the first strictly higher sample or the array end, and
    the prominence is its height above the higher of the two side minima.
    """
    x = np.asarray(x, dtype=float)
    step = np.flatnonzero(x[1:] != x[:-1])  # x[step] != x[step + 1]
    first, last = step[:-1] + 1, step[1:]  # every run but the first and the last
    top = (x[first - 1] < x[first]) & (x[last + 1] < x[last])
    peaks = (first[top] + last[top]) // 2
    prominence = np.empty(peaks.size)
    for k, i in enumerate(peaks):
        higher = np.flatnonzero(x > x[i])
        j = np.searchsorted(higher, i)
        lo = higher[j - 1] + 1 if j else 0
        hi = higher[j] if j < higher.size else x.size
        prominence[k] = x[i] - max(x[lo : i + 1].min(), x[i:hi].min())
    keep = prominence >= prominence_min
    return peaks[keep], prominence[keep]


def _newton(params, x, lo, hi, sign, level, order: int, tol: float, prefix=None):
    """Roots of f = sign (d^order R/d(delta)^order - level) between ``lo`` (f < 0)
    and ``hi``, refined together from ``x``, one fold of the live points per step
    (of each point's ``prefix`` of the chain, if given).

    Each step moves the bracket end on the side of f's sign to the point
    and takes the Newton step, or bisects where that step leaves the
    bracket.  A point stops once its Newton step is within ``tol`` or no
    float lies inside its bracket.  Returns the last points and R there.
    """
    x, lo, hi = (np.array(v, dtype=float) for v in (x, lo, hi))
    R, live = np.empty_like(x), np.arange(x.size)
    while live.size:
        xl, l, h, s = x[live], lo[live], hi[live], sign[live]
        cut = None if prefix is None else prefix[live]
        r, r1, r2 = _reflection(params, xl, derivatives=True, prefix=cut)
        R[live] = np.square(np.abs(r))
        jet = (R[live], 2 * np.real(np.conj(r) * r1), 2 * (np.abs(r1) ** 2 + np.real(np.conj(r) * r2)))
        f, slope = s * (jet[order] - level[live]), s * jet[order + 1]
        l, h = np.where(f < 0, xl, l), np.where(f < 0, h, xl)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = xl - f / slope
        step = np.where((newton - l) * (newton - h) < 0, newton, 0.5 * (l + h))  # NaN bisects
        done = (np.abs(newton - xl) <= tol) | (step == l) | (step == h)
        x[live], lo[live], hi[live] = np.where(done, xl, step), l, h
        live = live[~done]
    return x, R


def _extrema(params, deltas, values, signs, prefix=None):
    """Dips (sign +1) and peaks (sign -1) of each sampled curve ``values[j]`` (of the
    ``prefix[j]``-site chain, if given), in the order of (j, ``signs``), refined together
    on the continuous curves: (curve, index, sign, prominence, delta, value) arrays."""
    found = [(j, s, *_peaks(-s * row, PROMINENCE_MIN)) for j, row in enumerate(values) for s in signs]
    curve, sign, index, prominence = (
        np.concatenate([np.broadcast_to(f[i], f[2].shape) for f in found]) for i in range(4)
    )
    # Newton starts at the vertex of the parabola through the three samples
    x0, x1, x2 = (deltas[index + j] for j in (-1, 0, 1))
    f0, f1, f2 = (values[curve, index + j] for j in (-1, 0, 1))
    a, b = (x1 - x0) * (f1 - f2), (x1 - x2) * (f1 - f0)
    with np.errstate(divide="ignore", invalid="ignore"):  # a plateau has a = b = 0
        start = np.where(a != b, x1 - 0.5 * ((x1 - x0) * a - (x1 - x2) * b) / (a - b), x1)
    cut = None if prefix is None else prefix[curve]
    delta, value = _newton(params, start, x0, x2, sign, np.zeros(index.size), 1, REFINE_TOL / 2, cut)
    return curve, index, sign, prominence, delta, value


def _widths(spec: Spectrum, index, delta, value, half, sign) -> np.ndarray:
    """Full widths between the crossings of the level ``value + sign half`` around
    each extremum at grid ``index``, refined to ``delta`` and ``value``.

    The sampled curve is walked outward to the first point past the
    level, or to the grid edge.  All crossings are then refined together
    on the continuous curve from the linear interpolation of the samples.
    An edge whose inner sample is not inside the level (a feature narrower
    than the grid) is bracketed from the refined extremum, where f = -half.
    """
    n = spec.deltas.size
    level = value + sign * half
    right, left = np.empty_like(index), np.empty_like(index)
    for k, (i, lvl, s) in enumerate(zip(index, level, sign)):
        past = np.r_[-1, np.flatnonzero(s * (spec.values - lvl) >= 0), n]
        right[k] = past[np.searchsorted(past, i, side="right")]
        left[k] = past[np.searchsorted(past, i) - 1]
    inside = np.concatenate([right - 1, left + 1])
    outside = np.concatenate([np.minimum(right, n - 1), np.maximum(left, 0)])
    level, sign, delta, half = (np.tile(v, 2) for v in (level, sign, delta, half))
    lo, hi = spec.deltas[inside], spec.deltas[outside]
    f_lo, f_hi = sign * (spec.values[inside] - level), sign * (spec.values[outside] - level)
    narrow = ~(f_lo < 0)
    lo, f_lo = np.where(narrow, delta, lo), np.where(narrow, -half, f_lo)
    with np.errstate(invalid="ignore"):  # a bracket cut by the grid edge has lo = hi
        start = np.where(lo == hi, lo, lo + (hi - lo) * f_lo / (f_lo - f_hi))
    upper, lower = np.split(_newton(spec.params, start, lo, hi, sign, level, 0, EDGE_TOL)[0], 2)
    return upper - lower


def find_features(spec: Spectrum) -> tuple[Feature, ...]:
    """Locate and refine all dips and peaks above ``PROMINENCE_MIN``.

    Grid candidates come from topographic prominence on the sampled
    curve; all of them are then refined together by safeguarded Newton
    on the continuous R(delta) and given their full widths at half
    prominence.  Assumes the grid is dense enough that adjacent features
    are separated by at least three grid points.  A non-finite value
    raises ValidationError naming its index: a NaN or inf sample would hide,
    move or invent features.
    """
    if require_params(spec, Spectrum, "spec").deltas.size == 0:
        raise ValidationError("empty spectrum")
    require_valid(spec.params)
    if (bad := np.flatnonzero(~np.isfinite(spec.values))).size:
        raise ValidationError(f"spectrum value {spec.values[bad[0]]} at index {bad[0]} is not finite")
    found = _extrema(spec.params, spec.deltas, spec.values[None], (1.0, -1.0))
    _, index, sign, prominence, delta, value = found
    width = _widths(spec, index, delta, value, prominence / 2.0, sign)
    features = [
        Feature("dip" if s > 0 else "peak", *row)
        for s, *row in zip(sign, delta.tolist(), value.tolist(), width.tolist(), prominence.tolist())
    ]
    return tuple(sorted(features, key=lambda feat: feat.delta))


def _dips(params: SystemParams, counts) -> list:
    """(ascending dip deltas, R there) of the ``n``-atom prefix of the chain
    for each ``n`` in ``counts``: one fold sweeps every prefix on ``DIP_POINTS``
    over +-DIP_SPAN, and one Newton batch per step refines all their dips."""
    if not counts:
        return []
    chain, counts = replace(params, n_atoms=max(counts)), np.asarray(counts)
    deltas = np.linspace(-DIP_SPAN, DIP_SPAN, DIP_POINTS)
    values = np.square(np.abs(_reflection(chain, deltas, prefix=counts[:, None])))
    curve, *_, delta, value = _extrema(chain, deltas, values, (1.0,), counts)
    order = np.lexsort((delta, curve))  # by count, then ascending delta, ties in found order
    dips = np.split(order, np.searchsorted(curve[order], np.arange(1, counts.size)))
    if missing := [n for n, mine in zip(counts.tolist(), dips) if not mine.size]:
        raise DipNotFoundError(f"no dip above prominence {PROMINENCE_MIN} for n_coupled={missing[0]}")
    return [(delta[mine].tolist(), value[mine]) for mine in dips]


def dip_detunings(params: SystemParams, n_coupled: int) -> list:
    """Refined dip locations of the ``n_coupled``-atom system, ascending.

    The dips above ``PROMINENCE_MIN`` on ``DIP_POINTS`` over +-DIP_SPAN: a dip
    outside that window, or below that prominence on its grid, is not
    returned.  In the directional regime the spectrum has n_coupled - 1 dips,
    for even counts the on-resonance dip at delta = 0 among them.  For
    (kappa_wg, kappa_sc, g) = (100, 300, 20) this returns all 16 at
    n_coupled = 17, but 16 of 18 at 19 and 18 of 20 at 21.
    """
    n_coupled = require_count("n_coupled", n_coupled, 2)
    chain = require_valid(replace(require_params(params), n_atoms=n_coupled))
    [(delta, _)] = _dips(chain, [n_coupled])
    return delta


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
    meta.update({k: str(v) for k, v in extra.items()})
    return meta


def spectrum_table(spec: Spectrum, name: str, dataset: str, features=(), **extra) -> DataTable:
    """Table of one sampled spectrum: (delta, R) rows plus feature rows."""
    return DataTable(
        name=name,
        columns=("delta_over_gamma", "R"),
        rows=np.column_stack([spec.deltas, spec.values]),
        meta=table_meta(spec.params, dataset, name, delta_c="locked", **extra),
        features=tuple((f.kind, f.delta, f.value, f.width) for f in features),
    )


def map_table(map2d: Map2D, params: SystemParams, name: str, dataset: str, **extra) -> DataTable:
    """Table of one on-resonance map: (xi, gamma_L, R) rows, xi-major."""
    return DataTable(
        name=name,
        columns=("xi", "gamma_L", "R"),
        rows=map2d.rows(),
        meta=table_meta(params, dataset, name, delta="0", **extra),
    )


#: baseline system of the 2D map dataset: (kappa_wg, kappa_sc, g) = (100, 300, 20)
FIG2_PARAMS = SystemParams(
    n_atoms=2, gamma_L=1.0, g=20.0, kappa_wg=100.0, kappa_sc=300.0, xi=0.0
)
FIG2_XI_GRID = np.linspace(0.0, 2.0 * math.pi, 161)
FIG2_GAMMA_L_GRID = np.linspace(0.0, 1.0, 41)

_REPRESENTATIVE = {"xi_selection": "representative"}

#: dataset id -> (curve name, system, extra meta) per table; fig2 is the
#: one (xi, gamma_L) map, every other curve is a detuning spectrum
_FIGURES = {
    "fig2": [("fig2_map", FIG2_PARAMS, {"sweep": "xi,gamma_L"})],
    "fig3": [
        ("fig3_N2_C25", replace(FIG2_PARAMS, g=50.0), {}),
        ("fig3_N2_C4", FIG2_PARAMS, {}),
        ("fig3_N2_C1", replace(FIG2_PARAMS, g=10.0), {}),
        ("fig3_N1_C4", replace(FIG2_PARAMS, n_atoms=1), {}),
        ("fig3_N0", replace(FIG2_PARAMS, n_atoms=0, g=0.0), {}),
        ("fig3_N2_C4_gL08", replace(FIG2_PARAMS, gamma_L=0.8), {}),
    ],
    "fig3_2": [
        (f"fig3_2_xi_{label}", replace(FIG2_PARAMS, xi=k * math.pi / 8), _REPRESENTATIVE)
        for k, label in ((1, "pi8"), (2, "pi4"), (3, "3pi8"), (5, "5pi8"), (6, "3pi4"), (7, "7pi8"))
    ],
    "fig4": [(f"fig4_N{n}", replace(FIG2_PARAMS, n_atoms=n), {}) for n in (3, 4, 5, 6)],
}


def figure_data(which: str) -> list[DataTable]:
    """CSV-ready tables for one of the named reference datasets."""
    names = sorted(_FIGURES)
    if which not in names:  # a list compares by ==, so an unhashable id is unknown, not a TypeError
        raise ValidationError(f"unknown figure id {which!r}; expected one of {names}")
    tables = []
    for name, params, extra in _FIGURES[which]:
        if which == "fig2":
            map2d = sweep_2d(params, FIG2_XI_GRID, FIG2_GAMMA_L_GRID)
            tables.append(map_table(map2d, params, name, which, **extra))
        else:
            spec = sweep_delta(params, -DIP_SPAN, DIP_SPAN, DIP_POINTS)
            tables.append(spectrum_table(spec, name, which, **extra))
    return tables
