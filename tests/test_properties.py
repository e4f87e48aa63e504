"""Property tests of the steady-state kernel over generated parameters.

They sit next to the seeded tests in ``test_solver.py`` and
``test_carving.py`` and do not replace them.  The settings are
derandomized, so every run draws the same examples.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralcav import (
    QubitRegister,
    carving_measurement,
    component_reflection,
    global_rotation,
    reflectivity_batch,
    solver,
)
from helpers import make_system

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

unit = st.floats(0.0, 1.0)
phase = st.floats(0.0, 2.0 * math.pi)
detuning = st.floats(-5.0, 5.0)


@st.composite
def systems(draw, n_max=6):
    return make_system(
        n=draw(st.integers(0, n_max)),
        gamma_L=draw(unit),
        g=draw(st.floats(0.0, 50.0)),
        kappa_wg=draw(st.floats(10.0, 300.0)),
        kappa_sc=draw(st.floats(0.0, 400.0)),
        xi=draw(phase),
    )


@DERANDOMIZED
@given(systems(), st.lists(detuning, min_size=1, max_size=8))
def test_passivity(params, deltas):
    R = reflectivity_batch(params, np.array(deltas))
    assert np.all((R >= 0.0) & (R <= 1.0 + 1e-12))


@DERANDOMIZED
@given(systems(), detuning)
def test_pi_periodicity_in_xi(params, delta):
    R = reflectivity_batch(params, delta, xi=np.array([params.xi, params.xi + math.pi]))
    assert abs(R[0] - R[1]) <= 1e-9


@DERANDOMIZED
@given(systems(), detuning, detuning, st.integers(0, 2**6 - 1))
def test_detunings_enter_only_the_diagonal(params, delta, delta_c, mask_bits):
    n = params.n_atoms
    coupled = np.array([[(mask_bits >> k) & 1 for k in range(n)]], dtype=bool)
    base, _ = solver._assemble(params, 0.0, 0.0, coupled=coupled)
    shifted, _ = solver._assemble(params, delta, delta_c, coupled=coupled)
    expected = np.diag(np.array([1j * delta_c] + [1j * delta] * n))
    assert np.array_equal(shifted - base, expected[None])


@DERANDOMIZED
@given(systems(), st.lists(detuning, min_size=1, max_size=8))
def test_detuning_batch_equals_point_calls(params, deltas):
    deltas = np.array(deltas)
    matrix, rhs = solver._assemble(params, deltas)
    r = solver._reflection(params, deltas)
    for i, delta in enumerate(deltas):
        point_matrix, point_rhs = solver._assemble(params, delta)
        assert np.array_equal(matrix[i], point_matrix)
        assert np.array_equal(rhs[i], point_rhs)
        assert r[i] == solver._reflection(params, delta)


@DERANDOMIZED
@given(st.integers(1, 5), unit, phase, st.floats(-3.0, 3.0))
def test_masked_batch_matches_removal_route(m, gamma_L, xi, delta):
    params = make_system(n=m, gamma_L=gamma_L, xi=xi)
    state = global_rotation(QubitRegister.ground(m), math.pi / 2)
    r = carving_measurement(state, params, delta).per_component_r
    expected = [component_reflection(format(i, f"0{m}b"), params, delta) for i in range(2**m)]
    assert np.max(np.abs(r - np.array(expected))) <= 1e-12
