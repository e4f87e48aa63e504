"""Physical parameter sets for the atom-cavity system.

All rates are expressed in units of the total single-atom decay rate
gamma, so gamma = gamma_L + gamma_R = 1 internally.  The optional
``gamma_mhz`` field is a display scale only and never enters any
calculation.  Atoms sit on an equidistant lattice x_mu = (mu - 1) d with
the dimensionless phase ``xi`` accumulated per lattice spacing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import ValidationError

#: tolerance on gamma_L + gamma_R = 1
_GAMMA_SUM_TOL = 1e-9

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SystemParams:
    """Rates and geometry of the atom-cavity system, in units of gamma.

    ``gamma_R`` may be omitted, in which case it is derived as
    1 - gamma_L.  ``xi`` is stored reduced modulo 2*pi; every observable
    of the model is additionally invariant under xi -> xi + pi.
    """

    n_atoms: int
    gamma_L: float
    g: float
    kappa_wg: float
    kappa_sc: float
    xi: float
    gamma_R: float | None = None
    gamma_mhz: float | None = None

    def __post_init__(self) -> None:
        if self.gamma_R is None:
            object.__setattr__(self, "gamma_R", 1.0 - self.gamma_L)
        object.__setattr__(self, "xi", float(self.xi) % TWO_PI)

    @property
    def kappa(self) -> float:
        """Total cavity decay kappa_wg + kappa_sc."""
        return self.kappa_wg + self.kappa_sc


@dataclass(frozen=True)
class DriveParams:
    """Probe detuning delta, cavity detuning delta_c and input amplitude.

    By default the cavity detuning is locked to the probe detuning
    (delta_c = delta).  Passing an explicit ``delta_c`` different from
    ``delta`` is rejected unless ``unlock_delta_c=True``.
    """

    delta: float = 0.0
    delta_c: float | None = None
    a_in: complex = 1.0 + 0.0j
    unlock_delta_c: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.delta_c is None:
            object.__setattr__(self, "delta_c", float(self.delta))
        elif self.delta_c != self.delta and not self.unlock_delta_c:
            raise ValidationError(
                "delta_c is locked to delta; pass unlock_delta_c=True to decouple"
            )
        if self.a_in == 0:
            raise ValidationError("a_in must be nonzero")
        for name in ("delta", "delta_c", "a_in"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: ok or a list of violated invariants."""

    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate(params: SystemParams) -> ValidationReport:
    """Check every SystemParams invariant and report violations."""
    violations: list[str] = []
    if int(params.n_atoms) != params.n_atoms or params.n_atoms < 0:
        violations.append("n_atoms must be a nonnegative integer")
    if params.gamma_L < 0 or params.gamma_R < 0:
        violations.append("gamma_L and gamma_R must be >= 0")
    if abs(params.gamma_L + params.gamma_R - 1.0) > _GAMMA_SUM_TOL:
        violations.append("gamma_L+gamma_R != 1")
    if not params.kappa_wg > 0:
        violations.append("kappa_wg must be > 0")
    if params.kappa_sc < 0:
        violations.append("kappa_sc must be >= 0")
    if params.g < 0:
        violations.append("g must be >= 0")
    for name in ("gamma_L", "gamma_R", "g", "kappa_wg", "kappa_sc", "xi"):
        if not math.isfinite(getattr(params, name)):
            violations.append(f"{name} must be finite")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def require_valid(params: SystemParams) -> SystemParams:
    """Raise ValidationError unless ``params`` passes :func:`validate`."""
    report = validate(params)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))
    return params


def cooperativity(params: SystemParams) -> float:
    """Single-atom cooperativity C = 4 g^2 / (kappa * gamma), gamma = 1."""
    kappa = params.kappa
    if kappa <= 0:
        raise ValueError("cooperativity requires kappa = kappa_wg + kappa_sc > 0")
    return 4.0 * params.g**2 / kappa
