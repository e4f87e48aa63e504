"""Output checks, run on every op outside the timed region.

Each check returns a list of problems, each ``"<check>: <detail>"``; an
op passes when the list is empty.  The oracles are independent of the
batched solve that produced the outputs: the closed form ``r_two_atoms``
for N = 2 away from its exact poles, else the RK4 relaxation
``relax_time_domain``, and for carving a replay that applies
``component_reflection`` to every basis component.
"""

from __future__ import annotations

import math
import random

import numpy as np
from chiralcav import (
    DriveParams,
    PoleError,
    component_reflection,
    r_two_atoms,
    relax_time_domain,
)
from chiralcav.spectrum import REFINE_TOL

import pipeline

#: passivity slack on R <= 1
R_MAX = 1.0 + 1e-12
#: agreement with the oracle, in R
ORACLE_TOL = 1e-8
#: agreement of the carving replay, in fidelity
REPLAY_TOL = 1e-10
#: relative agreement of heralding probabilities and their products
PROB_RTOL = 1e-9
NORM_TOL = 1e-12
#: relative agreement of a rendered CSV value with the array it came from
CSV_RTOL = 1e-11
SAMPLES = 8
#: (xi index, gamma_L index) of the map grid points on the dark-mode path
MAP_DARK_POINTS = ((0, 20), (80, 20), (160, 20))
#: detuning step used to confirm that a planned detuning is a local dip
PLAN_PROBE = 1e-3


def oracle_R(params, delta: float) -> float:
    """Reflectivity from a route independent of the batched solve."""
    if params.n_atoms == 2:
        try:
            return abs(r_two_atoms(float(delta), params)) ** 2
        except PoleError:
            pass
    return relax_time_domain(params, DriveParams(delta=float(delta))).R


def _range(values: np.ndarray) -> list[str]:
    if not np.all(np.isfinite(values)):
        return [f"range: {int(np.sum(~np.isfinite(values)))} non-finite R values"]
    lo, hi = float(values.min()), float(values.max())
    if lo < 0.0 or hi > R_MAX:
        return [f"range: R spans [{lo}, {hi}], outside [0, 1]"]
    return []


def _oracle(points) -> list[str]:
    """``points`` is an iterable of (label, params, delta, R)."""
    problems = []
    for label, p, delta, value in points:
        expected = oracle_R(p, delta)
        if not abs(value - expected) <= ORACLE_TOL:
            problems.append(f"oracle: R={value} at {label} but oracle gives {expected}")
    return problems


def _csv_rows(text: str) -> tuple[list[str], list[str]]:
    lines = text.splitlines()
    data = [line for line in lines if line and not line.startswith("#")]
    features = [line for line in lines if line.startswith("# feature,")]
    return data[1:], features


def _csv(text: str, rows: dict[int, tuple], n_rows: int, n_features: int = 0) -> list[str]:
    data, features = _csv_rows(text)
    problems = []
    if len(data) != n_rows:
        problems.append(f"csv: {len(data)} data rows, expected {n_rows}")
    if len(features) != n_features:
        problems.append(f"csv: {len(features)} feature rows, expected {n_features}")
    for k, expected in rows.items():
        if k >= len(data):
            continue
        got = [float(tok) for tok in data[k].split(",")]
        if len(got) != len(expected) or any(
            not abs(a - b) <= CSV_RTOL * abs(b) for a, b in zip(got, expected)
        ):
            problems.append(f"csv: row {k} reads {got} for {list(expected)}")
    return problems


def _features(spec, features) -> list[str]:
    """Refined dips lie at or below, peaks at or above, the grid samples
    around them, and each refined value is R at its refined detuning.

    The slack is the refinement tolerance times the local grid slope: the
    refined detuning is within REFINE_TOL of the true extremum, so a grid
    sample closer to it than that may read lower by up to this much."""
    deltas, values = spec.deltas, spec.values
    problems = []
    for feat in features:
        if feat.kind not in ("dip", "peak"):
            problems.append(f"feature-kind: {feat.kind!r}")
            continue
        if not deltas[0] < feat.delta < deltas[-1]:
            problems.append(f"feature-extremum: {feat.kind} at {feat.delta} is off the grid")
            continue
        j = int(np.searchsorted(deltas, feat.delta))
        lo, hi = max(j - 2, 0), min(j + 2, deltas.size)
        slope = float(np.max(np.abs(np.diff(values[lo:hi])) / np.diff(deltas[lo:hi])))
        slack = 1e-12 + slope * REFINE_TOL
        nb = values[j - 1 : j + 1]
        if feat.kind == "dip" and not feat.value <= nb.min() + slack:
            problems.append(f"feature-extremum: dip {feat.value} above its grid neighbours {nb.tolist()}")
        if feat.kind == "peak" and not feat.value >= nb.max() - slack:
            problems.append(f"feature-extremum: peak {feat.value} below its grid neighbours {nb.tolist()}")
        expected = oracle_R(spec.params, feat.delta)
        if not abs(feat.value - expected) <= ORACLE_TOL:
            problems.append(f"feature-value: {feat.kind} value {feat.value}, oracle {expected}")
    return problems


class Checker:
    """Checks the outputs of one run; memoizes carving replays, which
    recur because identical plans recur."""

    def __init__(self, seed: int):
        self.seed = seed
        self._amplitudes: dict[tuple, np.ndarray] = {}
        self._plans: dict[tuple, list[str]] = {}

    def _rng(self, op: dict) -> random.Random:
        return random.Random(f"chiralcav-bench/check/{self.seed}/{op['id']}")

    def check(self, op: dict, out) -> list[str]:
        return getattr(self, "_" + op["workload"])(op, out)

    def _spectra(self, op: dict, out) -> list[str]:
        spec = out.spectrum
        problems = _range(spec.values)
        if problems:
            return problems
        picks = sorted(self._rng(op).sample(range(spec.deltas.size), SAMPLES))
        problems += _oracle(
            ((f"delta={spec.deltas[i]}", spec.params, spec.deltas[i], spec.values[i]) for i in picks),
        )
        problems += _features(spec, out.features)
        rows = {i: (spec.deltas[i], spec.values[i]) for i in picks}
        return problems + _csv(out.csv, rows, spec.deltas.size, len(out.features))

    def _maps(self, op: dict, out) -> list[str]:
        m2 = out.map2d
        problems = _range(m2.values)
        if problems:
            return problems
        n_xi, n_gl = m2.values.shape
        rng = self._rng(op)
        picks = list(MAP_DARK_POINTS) + [
            (rng.randrange(n_xi), rng.randrange(n_gl)) for _ in range(SAMPLES - len(MAP_DARK_POINTS))
        ]
        points = []
        for i, j in picks:
            p = pipeline.system_params(out.params.n_atoms, float(m2.gamma_L_grid[j]), out.params.g, float(m2.xi_grid[i]))
            points.append((f"xi={m2.xi_grid[i]}, gamma_L={m2.gamma_L_grid[j]}", p, 0.0, m2.values[i, j]))
        problems += _oracle(points)
        rows = {i * n_gl + j: (m2.xi_grid[i], m2.gamma_L_grid[j], m2.values[i, j]) for i, j in picks}
        return problems + _csv(out.csv, rows, n_xi * n_gl)

    def _component_amplitudes(self, op: dict, template, delta: float) -> np.ndarray:
        key = (op["template"], op["m"], float(delta))
        if key not in self._amplitudes:
            m = op["m"]
            self._amplitudes[key] = np.array(
                [component_reflection(format(i, f"0{m}b"), template, delta) for i in range(2**m)]
            )
        return self._amplitudes[key]

    def _plan(self, op: dict, template, steps) -> list[str]:
        """Step 0 probes resonance; every later step sits in a dip of the
        n-atom spectrum, n = 3, 5, ..."""
        key = (op["template"], op["m"], tuple(steps))
        if key not in self._plans:
            m = op["m"]
            problems = []
            if len(steps) != (m + 1) // 2 or steps[0] != 0.0:
                problems.append(f"plan: steps {list(steps)} for M={m}")
            for k, delta in enumerate(steps[1:], start=1):
                sub = pipeline.system_params(2 * k + 1, template.gamma_L, template.g, template.xi)
                here = oracle_R(sub, delta)
                around = [oracle_R(sub, delta + s) for s in (-PLAN_PROBE, PLAN_PROBE)]
                if not here <= min(around):
                    problems.append(f"plan: step {k} at {delta} is no dip of N={2 * k + 1}")
            self._plans[key] = problems
        return self._plans[key]

    def _carve(self, op: dict, out) -> list[str]:
        result, template = out.result, out.params
        m, reps = op["m"], op["reps"]
        steps = result.plan.steps
        problems = list(self._plan(op, template, steps))
        heralds = [rec.herald_probability for rec in result.trace]
        if len(heralds) != len(steps) * reps:
            problems.append(f"herald: {len(heralds)} measurements for {len(steps)} steps x {reps}")
        if not all(0.0 < h <= 1.0 for h in heralds):
            problems.append(f"herald: probabilities {heralds} outside (0, 1]")
        product = 1.0
        for rec in result.trace:
            product *= rec.herald_probability
            if not math.isclose(rec.cumulative_probability, product, rel_tol=PROB_RTOL):
                problems.append(f"cumulative: step {rec.step} reads {rec.cumulative_probability}, product {product}")
                break
        if not math.isclose(result.cumulative_herald_probability, product, rel_tol=PROB_RTOL):
            problems.append(f"cumulative: total {result.cumulative_herald_probability}, product {product}")
        norm = float(np.linalg.norm(result.final_state.amplitudes))
        if not abs(norm - 1.0) <= NORM_TOL:
            problems.append(f"norm: final state has norm {norm}")

        # independent replay: |0..0> after a pi/2 rotation of every atom has
        # amplitude (-1)^popcount(i) / 2^(m/2); each measurement multiplies
        # component i by its reflection amplitude and renormalizes
        amps = np.array([(-1.0) ** bin(i).count("1") for i in range(2**m)], dtype=complex)
        amps /= math.sqrt(2**m)
        w_index = [1 << site for site in range(m)]
        replay = []
        for delta in steps:
            r = self._component_amplitudes(op, template, delta)
            for _ in range(reps):
                amps = amps * r
                herald = float(np.vdot(amps, amps).real)
                amps /= math.sqrt(herald)
                replay.append((herald, abs(amps[w_index].sum()) ** 2 / m))
        for rec, (herald, _fidelity) in zip(result.trace, replay):
            if not math.isclose(rec.herald_probability, herald, rel_tol=PROB_RTOL):
                problems.append(f"replay: step {rec.step} herald {rec.herald_probability}, replay {herald}")
                break
        final = result.fidelity_vs_step[-1]
        if not abs(final - replay[-1][1]) <= REPLAY_TOL:
            problems.append(f"replay: final fidelity {final}, replay {replay[-1][1]}")
        last = result.trace[-1]
        rows = {len(result.trace) - 1: (last.step, last.delta, last.herald_probability, last.cumulative_probability, last.fidelity)}
        return problems + _csv(out.csv, rows, len(result.trace))
