"""Closed-form reflection amplitudes.

Exact expressions for the empty cavity and for two atoms with chiral
coupling, plus the three on-resonance reference amplitudes used as
regression anchors throughout the test suite.  These are formula-only
(no linear solve), so they can serve as an independent oracle for the
general solver.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .errors import PoleError, ValidationError
from .params import SystemParams, _number, require_params, require_valid


def _require_passive(kappa_wg, kappa_sc) -> None:
    """ValidationError unless both cavity rates are real numbers >= 0: a negative
    rate is gain.  Zero rates are legal, so that the closed forms reach their poles."""
    if not all(_number(v) and v >= 0 for v in (kappa_wg, kappa_sc)):  # NaN fails too
        raise ValidationError("kappa_wg and kappa_sc must be real numbers >= 0")


def r_no_atoms(delta: float, kappa_wg: float, kappa_sc: float) -> complex:
    """Empty-cavity reflection amplitude r = kappa_wg / (kappa/2 - i delta) - 1,
    for kappa_wg, kappa_sc >= 0."""
    if not all(_number(v) and math.isfinite(v) for v in (delta, kappa_wg, kappa_sc)):
        raise ValidationError("delta, kappa_wg and kappa_sc must be finite real numbers")
    _require_passive(kappa_wg, kappa_sc)
    kappa = kappa_wg + kappa_sc
    denom = kappa / 2.0 - 1j * delta
    if denom == 0:
        raise PoleError("kappa/2 - i*delta = 0 (undriven lossless cavity)")
    return kappa_wg / denom - 1.0


def r_two_atoms(delta: float, params: SystemParams) -> complex:
    """Two-atom chiral reflection amplitude in closed form, for
    ``params.n_atoms`` = 2 and parameters that pass :func:`require_valid`,
    except that kappa_wg = 0 is taken too, so that the closed form reaches
    its poles.

    Solves  kappa_wg / (r + 1) = (kappa/2 - i delta)
              - g^2 [2 (i delta - 1/2) + (e^{2 i xi} gamma_L + gamma_R)]
                / [(i delta - 1/2)^2 - e^{2 i xi} gamma_L gamma_R]
    for r.  Depends on xi only through e^{2 i xi}, hence is pi-periodic
    in the interatomic phase.  Exact poles are reported, never
    regularized; in particular the subradiant point
    (delta = 0, xi = 0, gamma_L = 1/2) is a genuine 0/0 of this
    expression and raises PoleError.  At xi = pi it does not raise: the
    rounded phase e^{2 i pi} = 1 - 2.4e-16j leaves the bracket at
    6e-17j, and the 0/0 cancels to the limit.
    """
    if not (_number(delta) and math.isfinite(delta)):
        raise ValidationError("delta must be a finite real number")
    if require_params(params).n_atoms != 2:
        raise ValidationError(f"r_two_atoms takes n_atoms = 2, not {params.n_atoms!r}")
    require_valid(replace(params, kappa_wg=1.0) if params.kappa_wg == 0 else params)
    d_at = 1j * delta - 0.5
    e2 = cmath.exp(2j * params.xi)
    bracket = d_at * d_at - e2 * params.gamma_L * params.gamma_R
    if bracket == 0:
        raise PoleError(
            "(i*delta - 1/2)^2 - e^{2i xi} gamma_L gamma_R = 0 "
            f"at delta={delta}, xi={params.xi}, gamma_L={params.gamma_L}"
        )
    rhs = (params.kappa / 2.0 - 1j * delta) - params.g**2 * (
        2.0 * d_at + e2 * params.gamma_L + params.gamma_R
    ) / bracket
    if rhs == 0:
        raise PoleError(
            f"kappa_wg/(r+1) expression vanishes at delta={delta}, "
            f"xi={params.xi}, gamma_L={params.gamma_L}"
        )
    return params.kappa_wg / rhs - 1.0


@dataclass(frozen=True)
class ReferenceReflectivities:
    """On-resonance reference amplitudes for two atoms at cooperativity C."""

    r_ind: complex  # independent atoms: 2 kappa_wg (1+2C)^-1 / kappa - 1
    r_d: complex  # directional coupling at xi = pi/2: 2 kappa_wg (1+4C)^-1 / kappa - 1
    r_rec: complex  # reciprocal coupling at xi = pi/2: 2 kappa_wg (1+C)^-1 / kappa - 1


def reference_values(C: float, kappa_wg: float, kappa: float) -> ReferenceReflectivities:
    """The three on-resonance reference amplitudes at cooperativity C >= 0."""
    if not all(_number(v) and math.isfinite(v) for v in (C, kappa_wg, kappa)):
        raise ValidationError("C, kappa_wg and kappa must be finite real numbers")
    if C < 0:
        raise ValidationError("cooperativity must be >= 0")
    if not kappa > 0:
        raise ValidationError("kappa must be > 0")
    base = 2.0 * kappa_wg / kappa
    return ReferenceReflectivities(
        r_ind=base / (1.0 + 2.0 * C) - 1.0,
        r_d=base / (1.0 + 4.0 * C) - 1.0,
        r_rec=base / (1.0 + C) - 1.0,
    )
