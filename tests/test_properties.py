"""Property tests of the steady-state kernel over generated parameters.

They sit next to the seeded tests in ``test_solver.py`` and
``test_carving.py`` and do not replace them.  The settings are
derandomized, so every run draws the same examples.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chiralcav import (
    DriveParams,
    PoleError,
    QubitRegister,
    build_linear_system,
    carving_measurement,
    component_reflection,
    global_rotation,
    r_two_atoms,
    reflectivity,
    reflectivity_batch,
    relax_time_domain,
    solve_steady_state,
    solver,
)
from helpers import dense_jet, make_system

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def bits(value):
    """The uint64 view of a complex value, signed zeros included."""
    return np.atleast_1d(value).view(np.uint64).tolist()


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
# lossless: the dense solve gave R - 1 = 1.65e-12 here (1-norm condition 2.4e4)
@example(make_system(gamma_L=1.0, g=33.0, kappa_wg=82.0, kappa_sc=0.0), [0.0])
def test_passivity(params, deltas):
    R = reflectivity_batch(params, np.array(deltas))
    assert np.all((R >= 0.0) & (R <= 1.0 + 1e-12))


@DERANDOMIZED
@given(systems(), detuning)
def test_pi_periodicity_in_xi(params, delta):
    R = reflectivity_batch(params, delta, xi=np.array([params.xi, params.xi + math.pi]))
    assert abs(R[0] - R[1]) <= 1e-9


@DERANDOMIZED
@given(systems(), detuning, st.integers(0, 2**6 - 1))
def test_detunings_enter_only_the_diagonal(params, delta, mask_bits):
    # the dense oracle of a carving mask: the coupled atoms on their sites
    sites = [k for k in range(params.n_atoms) if (mask_bits >> k) & 1]
    sub = replace(params, n_atoms=len(sites))
    base, _ = solver._assemble(sub, 0.0, positions=sites)
    shifted, _ = solver._assemble(sub, delta, positions=sites)
    expected = np.diag(np.full(len(sites) + 1, 1j * delta))
    assert np.array_equal(shifted - base, expected)


@st.composite
def folded_systems(draw):
    """A system on distinct shuffled sites and a carving mask."""
    params = draw(systems(n_max=8))
    n = params.n_atoms
    sites = draw(st.lists(st.integers(0, 16), min_size=n, max_size=n, unique=True))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return params, np.array(sites, dtype=float), np.array(mask, dtype=bool)


@settings(DERANDOMIZED, max_examples=200)
@given(folded_systems(), detuning)
def test_fold_matches_dense_oracle(system, delta):
    # the mask's row of the subset batch against the dense solve of the coupled atoms alone
    params, sites, mask = system
    subsets = solver._reflection(params, delta, positions=sites, subsets=True)
    r = subsets[sum(int(b) << k for k, b in enumerate(mask[np.argsort(sites)][::-1]))]
    drive = DriveParams(delta=delta)
    sub = replace(params, n_atoms=int(mask.sum()))
    dense = build_linear_system(sub, drive, positions=sites[mask])
    assert abs(r - solve_steady_state(dense, sub).r) <= 1e-10


@settings(DERANDOMIZED, max_examples=200)
@given(folded_systems(), detuning)
def test_uncoupled_atoms_are_one_atom_with_coupling_g_sqrt_n(system, delta):
    # with no atom-atom block each atom adds i g^2 / w to the cavity self-energy,
    # whatever its site or xi: the N-atom matrix with that block zeroed is one atom at g sqrt(N)
    params, sites, _ = system
    matrix, rhs = solver._assemble(params, delta, positions=sites)
    matrix[1:, 1:] = np.diag(np.diag(matrix)[1:])
    dense = math.sqrt(params.kappa_wg) * solver._solve(matrix, rhs)[0] - 1.0
    one = replace(params, n_atoms=1, g=params.g * math.sqrt(params.n_atoms))
    assert abs(solver._reflection(one, delta) - dense) <= 1e-12


@settings(DERANDOMIZED, max_examples=200)
@given(systems(n_max=8), detuning)
# gamma_L = 1 at every point, off xi = 0 so that the fold walks its sites; xi = 0.7 keeps the phases off 1
@example(make_system(n=8, gamma_L=1.0, xi=0.7), 0.3)
def test_jet_matches_dense_oracle(params, delta):
    # dr/d(delta) and d2r/d(delta)^2 against two more dense solves
    r, r1, r2 = solver._reflection(params, delta, derivatives=True)
    _, e1, e2 = dense_jet(params, delta)
    assert bits(r) == bits(solver._reflection(params, delta))
    assert abs(r1 - e1) <= 1e-9 * (1.0 + abs(e1))
    assert abs(r2 - e2) <= 1e-6 * (1.0 + abs(e2))


@DERANDOMIZED
@given(systems(), st.lists(detuning, min_size=1, max_size=8))
def test_detuning_batch_equals_point_calls(params, deltas):
    deltas = np.array(deltas)
    r = solver._reflection(params, deltas)
    for i, delta in enumerate(deltas):
        assert bits(r[i]) == bits(solver._reflection(params, delta))


@DERANDOMIZED
@given(st.integers(1, 5), unit, phase, st.floats(-3.0, 3.0))
def test_masked_batch_matches_removal_route(m, gamma_L, xi, delta):
    params = make_system(n=m, gamma_L=gamma_L, xi=xi)
    state = global_rotation(QubitRegister.ground(m), math.pi / 2)
    r = carving_measurement(state, params, delta).per_component_r
    expected = [component_reflection(format(i, f"0{m}b"), params, delta) for i in range(2**m)]
    assert np.max(np.abs(r - np.array(expected))) <= 1e-12


@DERANDOMIZED
@given(systems(), st.sampled_from([0.0, math.pi]), detuning)
def test_chirality_mirror_at_xi_n_pi(params, xi, delta):
    gamma_L = np.array([params.gamma_L, 1.0 - params.gamma_L])
    R = reflectivity_batch(params, delta, gamma_L=gamma_L, xi=xi)
    assert abs(R[0] - R[1]) <= 1e-12


@DERANDOMIZED
@given(systems(), detuning)
@example(make_system(gamma_L=0.0, g=33.0, kappa_wg=82.0, kappa_sc=0.0), 0.0)
def test_fully_directional_chain_ignores_xi(params, delta):
    # gamma_L = 0 at any xi against gamma_L = 1 at xi = 0
    R = reflectivity_batch(params, delta, gamma_L=np.array([0.0, 1.0]), xi=np.array([params.xi, 0.0]))
    assert abs(R[0] - R[1]) <= 1e-12


@DERANDOMIZED
@given(systems(n_max=0), unit, detuning)
def test_two_atoms_match_closed_form(params, gamma_L, delta):
    params = make_system(
        gamma_L=gamma_L, g=params.g, kappa_wg=params.kappa_wg, kappa_sc=params.kappa_sc, xi=params.xi
    )
    try:
        closed = abs(r_two_atoms(delta, params)) ** 2
    except PoleError:
        assume(False)
    solved = reflectivity(params, DriveParams(delta=delta))
    assert solved == pytest.approx(closed, rel=1e-10, abs=1e-13)


@DERANDOMIZED
@given(
    st.integers(1, 6),
    unit,
    st.floats(2.0, 40.0),
    st.floats(20.0, 200.0),
    st.floats(0.0, 400.0),
    phase,
    st.floats(-3.0, 3.0),
)
def test_relaxation_matches_linear_solve(n, gamma_L, g, kappa_wg, kappa_sc, xi, delta):
    params = make_system(n=n, gamma_L=gamma_L, g=g, kappa_wg=kappa_wg, kappa_sc=kappa_sc, xi=xi)
    drive = DriveParams(delta=delta)
    assert abs(reflectivity(params, drive) - relax_time_domain(params, drive).R) < 1e-6


@DERANDOMIZED
@given(systems(), st.lists(unit, min_size=1, max_size=3), st.lists(detuning, min_size=1, max_size=4))
# gamma_L = 1/2, xi = 0 is dark at delta = 0, and |D| <= 1/COND_MAX within 1e-13 of it:
# six distinct batch points, with distinct r, share one dark-point fold
@example(make_system(n=4, gamma_L=0.5, xi=0.0), [0.5, 0.3, 0.5], [0.0, 1e-13, -2e-13])
def test_subset_batch_over_a_2d_grid_equals_point_calls(params, gamma_L, deltas):
    gamma_L, deltas = np.array(gamma_L), np.array(deltas)
    r = solver._reflection(params, deltas, gamma_L=gamma_L[:, None], subsets=True)
    assert r.shape == (2**params.n_atoms, gamma_L.size, deltas.size)
    for i, j in np.ndindex(r.shape[1:]):
        row = solver._reflection(params, deltas[j], gamma_L=gamma_L[i], subsets=True)
        assert bits(r[:, i, j].copy()) == bits(row)
