"""Shared helpers: parameter shorthands and independent measurement oracles.

The refinement, width and carving oracles here deliberately avoid the
package's feature-detection and measurement code paths so tests compare
two independent routes to the same number.
"""

import json
import math
from fractions import Fraction

import numpy as np

from chiralcav import (
    DriveParams,
    SystemParams,
    build_linear_system,
    reflectivity,
    reflectivity_batch,
    solver,
)
from chiralcav.spectrum import REFINE_TOL
from chiralcav.tables import fmt


#: (gamma_L, g, xi) of the benchmark's carving templates, kappa_wg = 100, kappa_sc = 300
BENCH_TEMPLATES = [(1.0, 20.0, 0.0), (1.0, 30.0, 0.0), (0.95, 20.0, 0.3)]


def make_system(n=2, gamma_L=1.0, g=20.0, kappa_wg=100.0, kappa_sc=300.0, xi=0.0, **kw):
    return SystemParams(
        n_atoms=n,
        gamma_L=gamma_L,
        g=g,
        kappa_wg=kappa_wg,
        kappa_sc=kappa_sc,
        xi=xi,
        **kw,
    )


def r_at(params, delta):
    return reflectivity(params, DriveParams(delta=delta))


def dense_jet(params, delta):
    """(r, dr/d(delta), d2r/d(delta)^2) at one point from the dense system, delta_c = delta.

    There M' = i I, so M v' = -i v and M v'' = -2 i v': two more solves
    with the same matrix.  At a dark point each takes the oracle's
    minimum-norm rule, since v and its derivatives carry no dark mode.
    """
    system = build_linear_system(params, DriveParams(delta=delta))
    v = solver._solve(system.matrix, system.rhs)
    v1 = solver._solve(system.matrix, -1j * v)
    v2 = solver._solve(system.matrix, -2j * v1)
    root = math.sqrt(params.kappa_wg)
    return root * v[0] - 1.0, root * v1[0], root * v2[0]


def single_atom_r(delta, g, kappa_wg, kappa_sc):
    """Hand-solved 2x2 steady state for one atom (independent oracle)."""
    d_at = 1j * delta - 0.5
    rhs = (kappa_wg + kappa_sc) / 2.0 - 1j * delta - g**2 / d_at
    return kappa_wg / rhs - 1.0


def exact_reflection(params, delta=0.0):
    """r (a_in = 1, delta_c = delta) of the float ``params`` at xi in {0, pi}, exactly,
    as a pair (Re r, Im r) of Fractions.

    There every phase is +-1, so every entry of the steady-state matrix
    M = A + iB is a complex rational, and so is r = -kappa_wg [M^-1]_00 - 1.
    Gauss-Jordan elimination of the real system [[A, -B], [B, A]] x = e_0 in
    ``fractions.Fraction`` gives it with no rounding.
    """
    sign = {0.0: 1, math.pi: -1}[params.xi]  # e^{i xi} on the lattice
    n, g = params.n_atoms + 1, Fraction(params.g)
    gl, gr = Fraction(params.gamma_L), Fraction(params.gamma_R)  # the solver's float rates
    re = [[Fraction(0)] * n for _ in range(n)]
    im = [[Fraction(0)] * n for _ in range(n)]
    re[0][0], im[0][0] = -Fraction(params.kappa) / 2, Fraction(delta)
    for mu in range(1, n):
        re[mu][mu], im[mu][mu] = Fraction(-1, 2), Fraction(delta)
        im[0][mu] = im[mu][0] = -g * sign ** (mu - 1)
        for nu in range(1, n):  # the cascaded atom block, gamma_L towards larger sites
            if nu != mu:
                re[mu][nu] = -(gl if nu > mu else gr) * sign ** abs(nu - mu)
    rows = [[*a, *(-x for x in b), Fraction(0)] for a, b in zip(re, im)]
    rows += [[*b, *a, Fraction(0)] for a, b in zip(re, im)]
    rows[0][-1] = Fraction(1)
    for col in range(2 * n):
        pivot = next(i for i in range(col, 2 * n) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                scale = row[col] / rows[col][col]
                rows[i] = [x - scale * y for x, y in zip(row, rows[col])]
    kappa_wg = Fraction(params.kappa_wg)
    return -kappa_wg * rows[0][-1] / rows[0][0] - 1, -kappa_wg * rows[n][-1] / rows[n][n]


def cascade_reflection(params, delta, n=None):
    """(r, dr/d(delta), d2r/d(delta)^2) (a_in = 1, delta_c = delta) of the cascaded chain
    gamma_L = 1 at xi = 0 of ``n`` atoms (default: ``params.n_atoms``), in closed form.

    Every site has the same coefficients: with w = i delta - 1/2 and
    G = (w + 1)/w the fold's recurrence q' = G q + g/w, o' = o + (q + g) i g/w
    from q = o = 0 sums to O_n = i g^2 (G^n - 1), so
    r_n = -1 - kappa_wg / (i delta - kappa/2 + g^2 (G^n - 1)).  |G| = 1: each
    cascaded atom is an all-pass element.  The jet follows from
    dG/d(delta) = -i/w^2 and d2G/d(delta)^2 = -2/w^3.  ``n`` may be an array
    of counts that broadcasts with ``delta``.
    """
    n = np.asarray(params.n_atoms if n is None else n)
    w = 1j * np.asarray(delta, dtype=float) - 0.5
    G = (w + 1.0) / w
    dG, d2G = -1j / w**2, -2.0 / w**3
    g2 = params.g**2
    den = 1j * np.asarray(delta, dtype=float) - params.kappa / 2.0 + g2 * (G**n - 1.0)
    den1 = 1j + g2 * n * G ** (n - 1) * dG
    den2 = g2 * (n * (n - 1) * G ** (n - 2) * dG**2 + n * G ** (n - 1) * d2G)
    r = -1.0 - params.kappa_wg / den
    return r, params.kappa_wg * den1 / den**2, params.kappa_wg * (den2 - 2.0 * den1**2 / den) / den**2


def half_level_width(params, span, n_points=6001, baseline=None):
    """Full width of the reflection structure at half level above baseline.

    Outermost crossings of (max + baseline)/2, located by bisection on
    the continuous curve, both edges together with one two-point batch per
    step; implemented with plain gridding independent of the package's
    feature machinery.
    """
    deltas = np.linspace(-span, span, n_points)
    values = reflectivity_batch(params, deltas)
    if baseline is None:
        baseline = abs(params.kappa_wg / (params.kappa / 2.0) - 1.0) ** 2
    level = 0.5 * (values.max() + baseline)
    above = values >= level
    i_lo = int(np.argmax(above))
    i_hi = len(above) - 1 - int(np.argmax(above[::-1]))
    assert 0 < i_lo and i_hi < len(deltas) - 1, "window does not bracket the structure"

    # lo stays below the level, hi at or above it: (upper edge, lower edge)
    lo, hi = deltas[[i_hi + 1, i_lo - 1]], deltas[[i_hi, i_lo]]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = reflectivity_batch(params, mid) >= level
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    upper, lower = 0.5 * (lo + hi)
    return upper - lower


def peaks_of_row(x, prominence_min):
    """(indices, prominences) of the local maxima of the 1-D ``x`` with topographic
    prominence >= ``prominence_min``, one maximum at a time (per-row oracle for
    ``spectrum._peaks``).

    A maximum is a strict rise into a run of equal samples and a strict
    fall out of it, reported at the run's middle sample (rounded down).
    Each side of a maximum reaches to the first strictly higher sample or
    the array end, found by a scan of the whole array.
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


def golden_section_minimize(f, lo, hi, tol: float = REFINE_TOL):
    """Locate the minima of unimodal functions on brackets [lo, hi] to within tol.

    ``lo`` and ``hi`` are floats or broadcastable arrays of brackets.
    Every step makes one call ``f(points)`` with one trial point per
    bracket, shaped like the brackets.  A bracket stops once it is
    narrower than ``tol`` or a trial point is not strictly inside it, so
    each step shrinks every live bracket and the search always ends,
    also where float spacing exceeds ``tol``.  Scalar brackets return a float.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    shrink = (hi - lo > tol) & (lo < c) & (d < hi)
    while np.any(shrink):
        left = fc < fd  # the minimum lies in [lo, d]
        lo = np.where(shrink & ~left, c, lo)
        hi = np.where(shrink & left, d, hi)
        # the kept interior point is reused, the other one is new
        c, d = np.where(left, hi - invphi * (hi - lo), d), np.where(left, c, lo + invphi * (hi - lo))
        new = f(np.where(left, c, d))
        fc, fd = np.where(left, new, fd), np.where(left, fc, new)
        shrink &= (hi - lo > tol) & (lo < c) & (d < hi)
    mid = 0.5 * (lo + hi)
    return float(mid) if mid.ndim == 0 else mid


def golden_section_scalar(f, lo, hi, tol):
    """One bracket at a time: the scalar golden-section loop."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def width_scalar(params, deltas, values, index, level, sign):
    """Full width at ``level`` around grid ``index``, one point at a time.

    Walks the samples outward to the first one past the level (or the
    grid edge) and bisects the scalar R until the bracket reaches float
    resolution.
    """

    def edge(step):
        j = index
        while 0 <= j + step < len(deltas):
            j += step
            if sign * (values[j] - level) >= 0:
                lo, hi, below = deltas[j - step], deltas[j], values[j - step] < level
                while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                    if (r_at(params, mid) < level) == below:
                        lo = mid
                    else:
                        hi = mid
                return mid
        return deltas[j]

    return edge(+1) - edge(-1)


def brute_force_carve(amplitudes, r_by_count):
    """Amplitude bookkeeping for one measurement on an M-qubit register.

    ``amplitudes`` maps bit tuples to complex amplitudes; every component
    is multiplied by the reflection amplitude of its coupled count
    (valid at xi = n pi where geometry reduces to the count).  Returns
    (post_amplitudes, herald_probability).
    """
    post = {s: c * r_by_count[sum(s)] for s, c in amplitudes.items()}
    herald = sum(abs(c) ** 2 for c in post.values())
    scale = herald**0.5
    return {s: c / scale for s, c in post.items()}, herald


def render_csv_by_row(table, digits=12):
    """The CSV text of ``table`` with one %-format per row: every value is
    formatted, repeated or not (oracle for ``tables.render_csv``)."""
    lines = [f"# {key} = {val}" for key, val in table.meta.items()]
    lines.append(",".join(table.columns))
    rows = np.atleast_2d(np.asarray(table.rows, dtype=float))
    line = ",".join([f"%.{digits}g"] * rows.shape[1])
    lines.extend(line % tuple(row) for row in rows.tolist())
    for kind, delta, value, width in table.features:
        lines.append(f"# feature,{kind},{fmt(delta, digits)},{fmt(value, digits)},{fmt(width, digits)}")
    return "\n".join(lines) + "\n"


def render_json_by_row(table, digits=12):
    """The JSON text of ``table`` with every value formatted one by one
    (oracle for ``tables.render_json``)."""
    number = f"%.{digits}g"
    payload = {
        "name": table.name,
        "meta": dict(table.meta),
        "columns": list(table.columns),
        "rows": [[float(number % v) for v in row] for row in np.atleast_2d(table.rows)],
        "features": [
            {
                "kind": kind,
                "delta": float(fmt(delta, digits)),
                "value": float(fmt(value, digits)),
                "width": float(fmt(width, digits)),
            }
            for kind, delta, value, width in table.features
        ],
    }
    return json.dumps(payload, indent=None, sort_keys=True, separators=(",", ":")) + "\n"
