"""Heralded state carving on a register of coupled/uncoupled atoms.

Each register atom sits on a lattice site and is either coupled to the
cavity (|1>) or invisible to it (|0>).  A reflected-photon detection at
probe detuning delta multiplies every basis component by the complex
reflection amplitude of the subsystem formed by its coupled atoms at
their original sites; renormalizing yields the carved state and the
pre-normalization norm squared is the heralding probability.  All 2^M
components come from one fold that doubles the batch at every site: an
uncoupled atom keeps its site but loses every coupling, which makes it
exactly the removed atom.  A protocol folds all of its planned detunings
in one kernel call, which the kernel's points-per-fold rule splits into
folds of at most 2^13 rows, and planning folds the longest odd chain
once.  At xi = 0 every phase in the fold is 1, so a component's amplitude
depends only on how many atoms it couples: a protocol there folds the
plan once over the coupled counts 0 .. M and gives each component its
count's amplitude.

The planners prepare the equal-weight single-coupled-manifold target
(|10...0> + |01...0> + ... + |00...1>)/sqrt(M): an on-resonance
measurement removes even coupled counts (which reflect like the empty
cavity in the directional regime), and one extra measurement per odd
coupled count n >= 3, placed in a spectral dip of the n-atom system,
removes the higher odd manifolds while single-coupled components keep
reflecting strongly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolExtinguishedError, ValidationError
from .params import (
    DriveParams, SystemParams, _number, _real, require_count, require_params, require_real, require_valid,
)
from .solver import _popcounts, _reflection
from .spectrum import _dips

#: dense 2^M state vectors only; the protocol targets small registers
MAX_QUBITS = 12

#: heralding probability below which a measurement counts as extinguished
EXTINCTION_THRESHOLD = 1e-12


def _register_size(m) -> int:
    """``m`` as an int; ValidationError unless it is integral and in [1, MAX_QUBITS]."""
    m = require_count("register size", m, 1)
    if m > MAX_QUBITS:
        raise ValidationError(f"register size must be <= {MAX_QUBITS}")
    return m


def _require_bits(bits, m: int | None = None) -> str:
    """``bits`` if it is a nonempty string of 0s and 1s (of length ``m`` if given)."""
    if not isinstance(bits, str) or not bits or set(bits) - {"0", "1"}:
        raise ValidationError(f"bits must be a string of 0s and 1s, got {bits!r}")
    if m is not None and len(bits) != m:
        raise ValidationError(f"bits must have length {m}, got {bits!r}")
    return bits


@dataclass(frozen=True)
class QubitRegister:
    """Dense state vector over {0,1}^M basis strings.

    Index convention: atom 0 is the most significant bit, so basis index
    i encodes the occupation string format(i, "0Mb").  Bit value 1 marks
    the cavity-coupled internal state.
    """

    m: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _register_size(self.m))
        if not _real(self.amplitudes, "biufc"):  # None, strings or a ragged nesting
            raise ValidationError("amplitudes must hold numbers")
        amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if amplitudes.shape != (2**self.m,):
            raise ValidationError("amplitude vector must have length 2**m")
        if not np.all(np.isfinite(amplitudes)):
            raise ValidationError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amplitudes)

    @classmethod
    def ground(cls, m: int) -> "QubitRegister":
        """All-uncoupled register |0...0>."""
        amps = np.zeros(2 ** _register_size(m), dtype=complex)
        amps[0] = 1.0
        return cls(m=m, amplitudes=amps)

    @classmethod
    def from_bits(cls, bits: str) -> "QubitRegister":
        """Computational basis state from a string like "011"."""
        m = _register_size(len(_require_bits(bits)))
        amps = np.zeros(2**m, dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(m=m, amplitudes=amps)

    @classmethod
    def w_state(cls, m: int) -> "QubitRegister":
        """Equal superposition of all single-coupled basis states."""
        m = _register_size(m)
        amps = np.zeros(2**m, dtype=complex)
        for site in range(m):
            amps[1 << (m - 1 - site)] = 1.0 / math.sqrt(m)
        return cls(m=m, amplitudes=amps)

    def amplitude(self, bits: str) -> complex:
        return complex(self.amplitudes[int(_require_bits(bits, self.m), 2)])

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "QubitRegister":
        norm = self.norm
        if norm == 0.0:
            raise ValidationError("cannot normalize a zero register")
        return QubitRegister(m=self.m, amplitudes=self.amplitudes / norm)


@dataclass(frozen=True)
class MeasurementOutcome:
    """Carved state, heralding probability and the amplitudes applied."""

    post_state: QubitRegister
    herald_probability: float
    per_component_r: np.ndarray  # amplitude applied to each basis index, shape (2**m,)


@dataclass(frozen=True)
class ProtocolPlan:
    """Ordered probe detunings of a Bell/W carving sequence."""

    steps: tuple[float, ...]
    m: int

    @property
    def target(self) -> str:
        """"bell" for M = 2, "w" otherwise."""
        return "bell" if self.m == 2 else "w"


@dataclass(frozen=True)
class StepRecord:
    """One heralded measurement in a protocol trace."""

    step: int
    delta: float
    herald_probability: float
    cumulative_probability: float
    fidelity: float


@dataclass(frozen=True)
class ProtocolResult:
    plan: ProtocolPlan
    final_state: QubitRegister
    cumulative_herald_probability: float
    fidelity_vs_step: tuple[float, ...]
    trace: tuple[StepRecord, ...]


def global_rotation(state: QubitRegister, theta: float, phi: float = 0.0) -> QubitRegister:
    """Apply the same single-qubit rotation to every register atom.

    Convention: theta = pi/2, phi = 0 maps |0> to (|0> - |1>)/sqrt(2);
    the inverse rotation is (theta -> -theta) at the same phi.
    """
    require_params(state, QubitRegister, "state")
    if not (_number(theta) and _number(phi) and math.isfinite(theta) and math.isfinite(phi)):
        raise ValidationError("rotation angles must be finite real numbers")
    cos, sin = math.cos(theta / 2.0), math.sin(theta / 2.0)
    gate = np.array(
        [
            [cos, np.exp(-1j * phi) * sin],
            [-np.exp(1j * phi) * sin, cos],
        ],
        dtype=complex,
    )
    psi = state.amplitudes
    for _ in range(state.m):  # rotate the top bit and move it to the bottom: M steps restore the order
        psi = (gate @ psi.reshape(2, -1)).T.reshape(-1)
    return QubitRegister(m=state.m, amplitudes=psi)


def component_reflection(bits: str, params_template: SystemParams, delta: float) -> complex:
    """Reflection amplitude of the subsystem coupled in component ``bits``.

    ``bits`` is a string of 0s and 1s; anything else raises
    ValidationError.  Uncoupled atoms are removed entirely; the coupled
    ones keep their lattice positions.  A component with no coupled atom
    reflects like the bare cavity.  This removal route is independent of
    the doubled batch that :func:`carving_measurement` solves.
    """
    sites = [i for i, b in enumerate(_require_bits(bits)) if b == "1"]
    drive = DriveParams(delta=delta)
    require_valid(params_template)
    return complex(_reflection(params_template, drive.delta, positions=np.array(sites, dtype=float)))


def carving_measurement(
    state: QubitRegister, params_template: SystemParams, delta: float
) -> MeasurementOutcome:
    """Heralded single-photon reflection measurement at probe detuning delta.

    Each component amplitude picks up its subsystem's complex reflection
    amplitude (relative phases between surviving components are
    physical); the heralding probability is the survived norm squared.
    """
    require_params(state, QubitRegister, "state")
    require_valid(params_template)
    drive = DriveParams(delta=delta)
    r = _reflection(params_template, drive.delta, positions=np.arange(state.m), subsets=True)
    amps, herald = _carve(state.amplitudes, r, delta)
    return MeasurementOutcome(
        post_state=QubitRegister(m=state.m, amplitudes=amps), herald_probability=herald, per_component_r=r
    )


def _carve(amps: np.ndarray, r: np.ndarray, delta: float) -> tuple[np.ndarray, float]:
    """(renormalized ``amps`` r, heralding probability); raises
    ProtocolExtinguishedError below ``EXTINCTION_THRESHOLD``."""
    amps = amps * r
    herald = float(np.sum(np.abs(amps) ** 2))
    if herald < EXTINCTION_THRESHOLD:
        raise ProtocolExtinguishedError(
            f"heralding probability {herald:.3e} below {EXTINCTION_THRESHOLD} "
            f"at delta={delta}"
        )
    return amps / math.sqrt(herald), herald


def fidelity(state: QubitRegister, target: QubitRegister) -> float:
    """Global-phase-invariant overlap |<target|state>|^2."""
    require_params(state, QubitRegister, "state")
    require_params(target, QubitRegister, "target")
    if state.m != target.m:
        raise ValidationError("register sizes differ")
    return float(abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2)


def plan_protocol(
    m: int, params_template: SystemParams, dip_sign: int = +1
) -> ProtocolPlan:
    """Measurement detunings carving |0>^M (after a pi/2 rotation) to W_M.

    Step 1 probes on resonance, where even coupled counts share the
    empty-cavity baseline in the directional regime.  Each remaining odd
    count n >= 3 gets one step at the deepest spectral dip of the n-atom
    system, on the side selected by ``dip_sign``.  Total steps: M/2 for
    even M, (M+1)/2 for odd M.
    """
    m = _register_size(require_count("m", m, 2))
    if dip_sign not in (1, -1):
        raise ValidationError("dip_sign must be +1 or -1")
    require_valid(params_template)
    steps = [0.0]
    for dips, depths in _dips(params_template, list(range(3, m + 1, 2))):
        side = [k for k, d in enumerate(dips) if d * dip_sign > 0] or range(len(dips))
        steps.append(dips[min(side, key=lambda k: depths[k])])
    return ProtocolPlan(steps=tuple(steps), m=m)


def run_protocol(
    m: int,
    params_template: SystemParams,
    repetitions_per_step: int = 1,
    dip_sign: int = +1,
    plan: ProtocolPlan | None = None,
) -> ProtocolResult:
    """Rotate |0>^M by pi/2 and execute the carving plan.

    Every planned detuning is probed ``repetitions_per_step`` times;
    fidelity against the W_M target is recorded after every individual
    measurement and heralding probabilities multiply across them.  The
    component amplitudes depend only on (template, delta, M), so the plan's
    detunings are folded together, once each, and reused for their
    repetitions.  At xi = 0 every fold phase is 1, so a component's amplitude
    depends only on its coupled count: one prefix fold over the counts 0 .. M
    gives every step, and each component takes its count's row, bit for bit
    the subset batch.  Otherwise one subset batch over the plan gives every step;
    the kernel folds it in slices of at most ``solver.FOLD_POINTS`` rows, one
    fold per protocol up to M = 10.
    """
    m = _register_size(require_count("m", m, 1))  # before the 2^m popcounts
    repetitions_per_step = require_count("repetitions_per_step", repetitions_per_step, 1)
    require_valid(params_template)
    if plan is None:
        plan = plan_protocol(m, params_template, dip_sign=dip_sign)
    elif require_params(plan, ProtocolPlan, "plan").m != m:
        raise ValidationError(f"plan was made for {plan.m} atoms, not {m}")
    steps = require_real("plan deltas", plan.steps)
    if steps.ndim != 1 or not steps.size:  # an empty trace would have no final fidelity
        raise ValidationError("plan steps must be a non-empty 1-D sequence")
    if params_template.xi == 0:  # every fold phase is 1: a component reflects as its coupled count
        r = _reflection(params_template, steps, positions=np.arange(m), prefix=np.arange(m + 1)[:, None])
        columns = r.T[:, _popcounts(m)]
    else:
        columns = _reflection(params_template, steps, positions=np.arange(m), subsets=True).T.copy()
    target = QubitRegister.w_state(m).amplitudes
    amps = global_rotation(QubitRegister.ground(m), math.pi / 2.0).amplitudes
    cumulative = 1.0
    trace: list[StepRecord] = []
    for delta, r in zip(plan.steps, columns):
        for _ in range(repetitions_per_step):
            amps, herald = _carve(amps, r, delta)
            cumulative *= herald
            trace.append(
                StepRecord(
                    step=len(trace) + 1,
                    delta=delta,
                    herald_probability=herald,
                    cumulative_probability=cumulative,
                    fidelity=float(abs(np.vdot(target, amps)) ** 2),
                )
            )
    return ProtocolResult(
        plan=plan,
        final_state=QubitRegister(m=m, amplitudes=amps),
        cumulative_herald_probability=cumulative,
        fidelity_vs_step=tuple(rec.fidelity for rec in trace),
        trace=tuple(trace),
    )
