"""Physical parameter sets for the atom-cavity system.

All rates are expressed in units of the total single-atom decay rate
gamma = gamma_L + gamma_R = 1, so chirality has one degree of freedom:
``gamma_L`` is the input and gamma_R = 1 - gamma_L is derived, and no
physical scale of gamma is stored.  Atoms sit on an equidistant lattice
x_mu = (mu - 1) d with the dimensionless phase ``xi`` accumulated per
lattice spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SystemParams:
    """Rates and geometry of the atom-cavity system, in units of gamma.

    ``gamma_R`` is the read-only 1 - gamma_L.  ``xi`` is stored reduced
    modulo 2*pi; every observable of the model is additionally invariant
    under xi -> xi + pi.  ``xi`` and ``gamma_L`` must be real numbers here
    (else ValidationError); :func:`validate` reports any other non-real field.
    """

    n_atoms: int
    gamma_L: float
    g: float
    kappa_wg: float
    kappa_sc: float
    xi: float

    def __post_init__(self) -> None:
        for name in ("xi", "gamma_L"):
            if not _number(getattr(self, name)):
                raise ValidationError(f"{name} must be a real number")
        object.__setattr__(self, "xi", float(self.xi) % TWO_PI)

    @property
    def gamma_R(self) -> float:
        """Right-propagating decay rate, 1 - gamma_L."""
        return 1.0 - self.gamma_L

    @property
    def kappa(self) -> float:
        """Total cavity decay kappa_wg + kappa_sc."""
        return self.kappa_wg + self.kappa_sc


@dataclass(frozen=True)
class DriveParams:
    """Probe detuning delta; the cavity is locked to the probe (delta_c = delta).

    The model is linear in the drive, so it is driven with a_in = 1.
    """

    delta: float = 0.0

    def __post_init__(self) -> None:
        if not (_number(self.delta) and math.isfinite(self.delta)):
            raise ValidationError("delta must be finite and real")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: the violated invariants; ``ok`` when there are none."""

    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        """True when no invariant is violated."""
        return not self.violations

    ok = property(__bool__)


def _integral(value) -> bool:
    """True for an integral number: an int or an integral float such as 3.0."""
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def require_count(name: str, value, minimum: int) -> int:
    """``value`` as an int; ValidationError unless it is integral and >= ``minimum``."""
    if not _integral(value):
        raise ValidationError(f"{name} must be an integer")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}")
    return int(value)


def _real(value, kinds: str = "biuf") -> bool:
    """True for a scalar or array of the numpy dtype ``kinds`` (bool, int or
    float by default); False for None, strings and ragged nestings."""
    try:
        return np.asarray(value).dtype.kind in kinds
    except (TypeError, ValueError):  # a ragged nesting
        return False


def _number(value) -> bool:
    """True for one real number, a numpy scalar or a 0-d array included."""
    return isinstance(value, (int, float)) or (_real(value) and np.ndim(value) == 0)  # floats skip numpy


def require_real(name: str, value) -> np.ndarray:
    """``value`` as a float array; ValidationError unless it holds finite real numbers."""
    if not _real(value):
        raise ValidationError(f"{name} must hold real numbers")
    array = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} must be finite")
    return array


#: the SystemParams fields that must be finite real numbers (gamma_L has
#: its own rule, which rejects a non-finite value too)
_FIELDS = ("g", "kappa_wg", "kappa_sc", "xi")


def validate(params: SystemParams) -> ValidationReport:
    """Check every SystemParams invariant and report violations; the rules
    that compare numbers apply once every field is a real number."""
    try:
        require_params(params)
    except ValidationError as exc:
        return ValidationReport((str(exc),))
    violations: list[str] = []
    if not _integral(params.n_atoms) or params.n_atoms < 0:
        violations.append("n_atoms must be a nonnegative integer")
    unreal = [f"{name} must be a real number" for name in _FIELDS if not _number(getattr(params, name))]
    if unreal:  # the rules below compare numbers
        return ValidationReport((*violations, *unreal))
    if not 0.0 <= params.gamma_L <= 1.0:
        violations.append("gamma_L must lie in [0, 1]")
    if not params.kappa_wg > 0:
        violations.append("kappa_wg must be > 0")
    if params.kappa_sc < 0:
        violations.append("kappa_sc must be >= 0")
    if params.g < 0:
        violations.append("g must be >= 0")
    for name in _FIELDS:
        if not math.isfinite(getattr(params, name)):
            violations.append(f"{name} must be finite")
    # 4 g^2 / kappa is checked only once g and kappa pass their own rules
    own_rules = params.g >= 0 and params.kappa_wg > 0 and params.kappa_sc >= 0
    cavity = (params.g, params.kappa_wg, params.kappa_sc)
    if own_rules and all(map(math.isfinite, cavity)) and not math.isfinite(cooperativity(params)):
        violations.append("4 g^2 / kappa must be finite")
    return ValidationReport(tuple(violations))


def require_params(value, kind: type = SystemParams, name: str = "params"):
    """``value``; ValidationError unless it is a ``kind`` (before any field is read)."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}")
    return value


def require_valid(params: SystemParams) -> SystemParams:
    """Raise ValidationError unless ``params`` passes :func:`validate`."""
    report = validate(params)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))
    return params


def cooperativity(params: SystemParams) -> float:
    """Single-atom cooperativity C = 4 g^2 / (kappa * gamma), gamma = 1;
    inf where g^2 overflows."""
    kappa = require_params(params).kappa
    if kappa <= 0:
        raise ValidationError("cooperativity requires kappa = kappa_wg + kappa_sc > 0")
    try:
        return 4.0 * params.g**2 / kappa
    except OverflowError:
        return math.inf
