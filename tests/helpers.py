"""Shared helpers: parameter shorthands and independent measurement oracles.

The width and carving oracles here deliberately avoid the package's
feature-detection and measurement code paths so tests compare two
independent routes to the same number.
"""

import math

import numpy as np

from chiralcav import DriveParams, SystemParams, reflectivity, reflectivity_batch


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


def single_atom_r(delta, g, kappa_wg, kappa_sc):
    """Hand-solved 2x2 steady state for one atom (independent oracle)."""
    d_at = 1j * delta - 0.5
    rhs = (kappa_wg + kappa_sc) / 2.0 - 1j * delta - g**2 / d_at
    return kappa_wg / rhs - 1.0


def half_level_width(params, span, n_points=6001, baseline=None):
    """Full width of the reflection structure at half level above baseline.

    Outermost crossings of (max + baseline)/2, located by bisection on
    the continuous curve; implemented with plain gridding independent of
    the package's feature machinery.
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

    def edge(inside, outside):
        lo, hi = deltas[outside], deltas[inside]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if r_at(params, mid) >= level:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    return edge(i_hi, i_hi + 1) - edge(i_lo, i_lo - 1)


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
