"""Heralded state carving on a register of coupled/uncoupled atoms.

Each register atom sits on a lattice site and is either coupled to the
cavity (|1>) or invisible to it (|0>).  A reflected-photon detection at
probe detuning delta multiplies every basis component by the complex
reflection amplitude of the subsystem formed by its coupled atoms at
their original sites; renormalizing yields the carved state and the
pre-normalization norm squared is the heralding probability.  All 2^M
components are solved as one masked batch: an uncoupled atom keeps its
site but loses every coupling, which makes it exactly the removed atom.

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
from dataclasses import dataclass, replace

import numpy as np

from .errors import ProtocolExtinguishedError, ValidationError
from .params import DriveParams, SystemParams, require_valid
from .solver import _reflection, reflection_amplitude, reflectivity_batch
from .spectrum import dip_detunings

#: dense 2^M state vectors only; the protocol targets small registers
MAX_QUBITS = 12

#: heralding probability below which a measurement counts as extinguished
EXTINCTION_THRESHOLD = 1e-12


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
        if not 1 <= self.m <= MAX_QUBITS:
            raise ValidationError(f"register size must be in [1, {MAX_QUBITS}]")
        amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if amplitudes.shape != (2**self.m,):
            raise ValidationError("amplitude vector must have length 2**m")
        if not np.all(np.isfinite(amplitudes)):
            raise ValidationError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amplitudes)

    @classmethod
    def ground(cls, m: int) -> "QubitRegister":
        """All-uncoupled register |0...0>."""
        amps = np.zeros(2**m, dtype=complex)
        amps[0] = 1.0
        return cls(m=m, amplitudes=amps)

    @classmethod
    def from_bits(cls, bits: str) -> "QubitRegister":
        """Computational basis state from a string like "011"."""
        m = len(bits)
        amps = np.zeros(2**m, dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(m=m, amplitudes=amps)

    @classmethod
    def w_state(cls, m: int) -> "QubitRegister":
        """Equal superposition of all single-coupled basis states."""
        amps = np.zeros(2**m, dtype=complex)
        for site in range(m):
            amps[1 << (m - 1 - site)] = 1.0 / math.sqrt(m)
        return cls(m=m, amplitudes=amps)

    def amplitude(self, bits: str) -> complex:
        return complex(self.amplitudes[int(bits, 2)])

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
    target: str  # "bell" for M=2, "w" otherwise
    m: int


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
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValidationError("rotation angles must be finite")
    cos, sin = math.cos(theta / 2.0), math.sin(theta / 2.0)
    gate = np.array(
        [
            [cos, np.exp(-1j * phi) * sin],
            [-np.exp(1j * phi) * sin, cos],
        ],
        dtype=complex,
    )
    psi = state.amplitudes.reshape((2,) * state.m)
    for axis in range(state.m):
        psi = np.tensordot(gate, psi, axes=([1], [axis]))
        psi = np.moveaxis(psi, 0, axis)
    return QubitRegister(m=state.m, amplitudes=psi.reshape(-1))


def component_reflection(
    bits: str | tuple[int, ...], params_template: SystemParams, delta: float
) -> complex:
    """Reflection amplitude of the subsystem coupled in component ``bits``.

    Uncoupled atoms are removed entirely; the coupled ones keep their
    lattice positions.  A component with no coupled atom reflects like
    the bare cavity.  This removal route is independent of the masked
    batch that :func:`carving_measurement` solves.
    """
    if isinstance(bits, str):
        sites = tuple(i for i, b in enumerate(bits) if b == "1")
    else:
        sites = tuple(bits)
    return reflection_amplitude(
        params_template, DriveParams(delta=delta), positions=np.array(sites, dtype=float)
    )


def carving_measurement(
    state: QubitRegister, params_template: SystemParams, delta: float
) -> MeasurementOutcome:
    """Heralded single-photon reflection measurement at probe detuning delta.

    Each component amplitude picks up its subsystem's complex reflection
    amplitude (relative phases between surviving components are
    physical); the heralding probability is the survived norm squared.
    """
    require_valid(params_template)
    drive = DriveParams(delta=delta)
    m = state.m
    shifts = np.arange(m - 1, -1, -1)
    coupled = ((np.arange(2**m)[:, None] >> shifts) & 1).astype(bool)
    r = _reflection(params_template, drive.delta, positions=np.arange(m), coupled=coupled)
    return _herald(state, r, delta)


def _herald(state: QubitRegister, r: np.ndarray, delta: float) -> MeasurementOutcome:
    """Apply the component amplitudes ``r`` and renormalize on a herald."""
    amps = state.amplitudes * r
    herald = float(np.sum(np.abs(amps) ** 2))
    if herald < EXTINCTION_THRESHOLD:
        raise ProtocolExtinguishedError(
            f"heralding probability {herald:.3e} below {EXTINCTION_THRESHOLD} "
            f"at delta={delta}"
        )
    post = QubitRegister(m=state.m, amplitudes=amps / math.sqrt(herald))
    return MeasurementOutcome(
        post_state=post, herald_probability=herald, per_component_r=r
    )


def fidelity(state: QubitRegister, target: QubitRegister) -> float:
    """Global-phase-invariant overlap |<target|state>|^2."""
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
    if m < 2:
        raise ValidationError("protocol requires at least 2 atoms")
    if m > MAX_QUBITS:
        raise ValidationError(f"register size must be <= {MAX_QUBITS}")
    if dip_sign not in (1, -1):
        raise ValidationError("dip_sign must be +1 or -1")
    require_valid(params_template)
    steps = [0.0]
    for n in range(3, m + 1, 2):
        sub = replace(params_template, n_atoms=n)
        all_dips = dip_detunings(params_template, n)
        candidates = [d for d in all_dips if d * dip_sign > 0] or all_dips
        values = reflectivity_batch(sub, np.array(candidates))
        steps.append(candidates[int(np.argmin(values))])
    expected = m // 2 if m % 2 == 0 else (m + 1) // 2
    assert len(steps) == expected
    return ProtocolPlan(steps=tuple(steps), target="bell" if m == 2 else "w", m=m)


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
    component amplitudes depend only on (template, delta, M), so each
    planned detuning is solved once and reused for its repetitions.
    """
    if repetitions_per_step < 1:
        raise ValidationError("repetitions_per_step must be >= 1")
    require_valid(params_template)
    if plan is None:
        plan = plan_protocol(m, params_template, dip_sign=dip_sign)
    elif plan.m != m:
        raise ValidationError(f"plan was made for {plan.m} atoms, not {m}")
    target = QubitRegister.w_state(m)
    state = global_rotation(QubitRegister.ground(m), math.pi / 2.0)
    cumulative = 1.0
    trace: list[StepRecord] = []
    for delta in plan.steps:
        outcome = carving_measurement(state, params_template, delta)
        for rep in range(repetitions_per_step):
            if rep:
                outcome = _herald(state, outcome.per_component_r, delta)
            state = outcome.post_state
            cumulative *= outcome.herald_probability
            trace.append(
                StepRecord(
                    step=len(trace) + 1,
                    delta=delta,
                    herald_probability=outcome.herald_probability,
                    cumulative_probability=cumulative,
                    fidelity=fidelity(state, target),
                )
            )
    return ProtocolResult(
        plan=plan,
        final_state=state,
        cumulative_herald_probability=cumulative,
        fidelity_vs_step=tuple(rec.fidelity for rec in trace),
        trace=tuple(trace),
    )
