import math

import numpy as np
import pytest

from chiralcav import (
    DriveParams,
    LinearSystem,
    SolverError,
    ValidationError,
    build_linear_system,
    r_no_atoms,
    r_two_atoms,
    reflection_amplitude,
    reflectivity,
    reflectivity_batch,
    relax_time_domain,
    solve_steady_state,
)
from helpers import make_system, single_atom_r


def steady(params, delta=0.0, **kw):
    drive = DriveParams(delta=delta)
    return solve_steady_state(build_linear_system(params, drive, **kw), params, drive)


class TestSystemStructure:
    def test_two_atom_block_at_xi_pi_fully_directional(self):
        params = make_system(gamma_L=1.0, xi=math.pi)
        sys = build_linear_system(params, DriveParams(delta=0.3))
        assert sys.matrix[1, 2] == pytest.approx(1.0, abs=1e-14)  # -gamma_L e^{i pi}
        assert sys.matrix[2, 1] == 0.0  # gamma_R = 0

    def test_no_atom_system_is_cavity_only(self):
        params = make_system(n=0, g=0.0)
        sys = build_linear_system(params, DriveParams(delta=0.4))
        assert sys.matrix.shape == (1, 1)
        assert sys.matrix[0, 0] == pytest.approx(0.4j - 200.0, abs=1e-12)
        assert sys.rhs[0] == pytest.approx(-10.0, abs=1e-14)

    def test_fully_left_directional_is_upper_triangular(self):
        params = make_system(n=3, gamma_L=1.0, xi=0.7)
        sys = build_linear_system(params, DriveParams())
        atom_block = sys.matrix[1:, 1:]
        assert np.all(np.tril(atom_block, k=-1) == 0)
        upper = np.triu_indices(3, k=1)
        assert np.all(atom_block[upper] != 0)

    def test_diagonals_and_cascaded_phases(self):
        delta = 0.37
        params = make_system(n=4, gamma_L=0.65, xi=1.1)
        sys = build_linear_system(params, DriveParams(delta=delta))
        for mu in range(1, 5):
            assert sys.matrix[mu, mu] == pytest.approx(1j * delta - 0.5, abs=1e-14)
        assert sys.matrix[0, 0] == pytest.approx(1j * delta - 200.0, abs=1e-12)
        for mu in range(1, 5):
            for nu in range(1, 5):
                if nu > mu:
                    expected = -0.65 * np.exp(1j * 1.1 * (nu - mu))
                elif nu < mu:
                    expected = -0.35 * np.exp(1j * 1.1 * (mu - nu))
                else:
                    continue
                assert sys.matrix[mu, nu] == pytest.approx(expected, abs=1e-12)

    def test_cavity_coupling_phases_conjugate(self):
        params = make_system(n=3, xi=0.9)
        sys = build_linear_system(params, DriveParams())
        for mu in range(1, 4):
            pos = mu - 1
            assert sys.matrix[0, mu] == pytest.approx(
                -1j * 20.0 * np.exp(-1j * 0.9 * pos), abs=1e-12
            )
            assert sys.matrix[mu, 0] == pytest.approx(
                -1j * 20.0 * np.exp(+1j * 0.9 * pos), abs=1e-12
            )

    def test_rhs_drives_cavity_only(self):
        sys = build_linear_system(make_system(n=5), DriveParams())
        assert np.all(sys.rhs[1:] == 0)
        assert sys.rhs[0] == -10.0


class TestSolveSteadyState:
    def test_no_atom_baseline(self):
        state = steady(make_system(n=0, g=0.0))
        assert state.r == pytest.approx(-0.5, abs=1e-15)
        assert state.R == pytest.approx(0.25, abs=1e-15)

    def test_two_atoms_interfere_away_at_xi_pi(self):
        state = steady(make_system(gamma_L=1.0, xi=math.pi))
        assert state.R == pytest.approx(0.25, abs=1e-12)

    def test_directional_enhancement_at_half_pi(self):
        state = steady(make_system(xi=math.pi / 2))
        assert state.R == pytest.approx((33 / 34) ** 2, abs=1e-12)

    def test_steady_state_invariants(self):
        params = make_system(n=3, xi=0.4)
        drive = DriveParams(delta=0.2)
        state = solve_steady_state(build_linear_system(params, drive), params, drive)
        assert state.r == np.sqrt(100.0) * state.a / drive.a_in - 1.0
        assert state.R == abs(state.r) ** 2
        assert state.sigma.shape == (3,)

    def test_deterministic_bit_identical(self):
        params = make_system(n=5, gamma_L=0.77, g=33.3, xi=1.234)
        first = steady(params, delta=0.456)
        second = steady(params, delta=0.456)
        assert first.r == second.r

    def test_reciprocal_reference(self):
        assert reflectivity(
            make_system(gamma_L=0.5, xi=math.pi / 2), DriveParams()
        ) == pytest.approx(0.81, abs=1e-12)

    def test_reflection_independent_of_input_amplitude(self):
        params = make_system(n=3, xi=0.3)
        r_unit = steady(params, delta=0.5).r
        drive = DriveParams(delta=0.5, a_in=2.5 - 0.4j)
        scaled = solve_steady_state(build_linear_system(params, drive), params, drive)
        assert scaled.r == pytest.approx(r_unit, abs=1e-13)

    def test_unlocked_cavity_detuning_changes_the_answer(self):
        # the cavity is broad (kappa = 400), so push delta_c on that scale
        params = make_system()
        locked = reflectivity(params, DriveParams(delta=0.5))
        unlocked = reflectivity(
            params, DriveParams(delta=0.5, delta_c=200.0, unlock_delta_c=True)
        )
        assert abs(locked - unlocked) > 1e-3

    def test_single_atom_against_hand_solved_oracle(self):
        oracle = single_atom_r(0.0, 20.0, 100.0, 300.0)
        assert abs(oracle) ** 2 == pytest.approx(0.81, abs=1e-14)
        state = steady(make_system(n=1))
        assert state.r == pytest.approx(oracle, abs=1e-13)

    def test_independent_atoms_reference(self):
        value = reflectivity(make_system(), DriveParams(), independent_atoms=True)
        assert value == pytest.approx((17 / 18) ** 2, abs=1e-12)

    def test_dark_mode_degeneracy_resolved_to_relaxed_limit(self):
        # undamped, undriven subradiant mode: exact singular matrix whose
        # physical (relax-from-vacuum) steady state is the min-norm one
        params = make_system(gamma_L=0.5, xi=0.0)
        state = steady(params)
        assert state.R == pytest.approx(0.81, abs=1e-12)
        ode = relax_time_domain(params, DriveParams())
        assert state.R == pytest.approx(ode.R, abs=1e-8)

    def test_inconsistent_singular_system_raises(self):
        params = make_system(n=0, g=0.0)
        system = LinearSystem(
            matrix=np.zeros((1, 1), dtype=complex),
            rhs=np.array([1.0 + 0j]),
        )
        with pytest.raises(SolverError, match="inconsistent"):
            solve_steady_state(system, params, DriveParams())

    def test_driven_null_mode_raises(self):
        params = make_system(n=1)
        system = LinearSystem(
            matrix=np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex),
            rhs=np.array([1.0 + 0j, 1.0 + 0j]),
        )
        with pytest.raises(SolverError, match="null mode"):
            solve_steady_state(system, params, DriveParams())


class TestValidation:
    # gamma_L = 1.5 derives gamma_R = -0.5: a gain medium, not a passive atom
    GAIN = dict(gamma_L=1.5)

    @pytest.mark.parametrize("kw", [GAIN, dict(kappa_wg=-1.0), dict(g=math.inf)])
    def test_scalar_entry_points_reject_invalid_params(self, kw):
        params = make_system(**kw)
        for call in (
            lambda: reflectivity(params, DriveParams()),
            lambda: reflection_amplitude(params, DriveParams()),
            lambda: build_linear_system(params, DriveParams()),
            lambda: reflectivity_batch(params, np.linspace(-1, 1, 5)),
        ):
            with pytest.raises(ValidationError):
                call()

    def test_solve_steady_state_rejects_invalid_params(self, base_params):
        system = build_linear_system(base_params, DriveParams())
        with pytest.raises(ValidationError):
            solve_steady_state(system, make_system(**self.GAIN), DriveParams())

    @pytest.mark.parametrize("gamma_L", [math.nan, 1.5, -0.1])
    def test_batch_gamma_L_outside_unit_interval(self, base_params, gamma_L):
        with pytest.raises(ValidationError, match="gamma_L"):
            reflectivity_batch(base_params, 0.0, gamma_L=np.array([0.2, gamma_L]))

    @pytest.mark.parametrize("name", ["xi", "delta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_batch_non_finite_axis(self, base_params, name, bad):
        kw = {"delta": np.zeros(3), name: np.array([0.0, bad, 1.0])}
        with pytest.raises(ValidationError, match=name):
            reflectivity_batch(base_params, **kw)

    def test_batch_of_one_matches_point_inside_batch(self, rng):
        params = make_system(n=4, gamma_L=0.7, xi=1.3)
        deltas = rng.uniform(-3, 3, 17)
        grid = reflectivity_batch(params, deltas)
        for k, delta in enumerate(deltas):
            assert reflectivity_batch(params, delta) == grid[k]

    def test_scalar_reflectivity_is_the_batch_value(self, rng):
        for _ in range(40):
            params = make_system(
                n=int(rng.integers(0, 7)), gamma_L=rng.uniform(0, 1), xi=rng.uniform(0, 2 * math.pi)
            )
            delta = rng.uniform(-3, 3)
            assert reflectivity(params, DriveParams(delta=delta)) == reflectivity_batch(params, delta)


class TestSymmetries:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_pi_periodicity_in_xi(self, n, rng):
        for _ in range(8):
            xi = rng.uniform(0, 2 * math.pi)
            gl = rng.uniform(0, 1)
            delta = rng.uniform(-5, 5)
            r1 = reflectivity(make_system(n=n, gamma_L=gl, xi=xi), DriveParams(delta=delta))
            r2 = reflectivity(
                make_system(n=n, gamma_L=gl, xi=xi + math.pi), DriveParams(delta=delta)
            )
            assert r1 == pytest.approx(r2, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("xi", [0.0, math.pi])
    def test_chirality_mirror_at_integer_pi(self, n, xi, rng):
        for _ in range(8):
            gl = rng.uniform(0, 1)
            delta = rng.uniform(-5, 5)
            r1 = reflectivity(make_system(n=n, gamma_L=gl, xi=xi), DriveParams(delta=delta))
            r2 = reflectivity(
                make_system(n=n, gamma_L=1 - gl, xi=xi), DriveParams(delta=delta)
            )
            assert r1 == pytest.approx(r2, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_fully_right_directional_xi_invariance(self, n, rng):
        for _ in range(8):
            xi = rng.uniform(0, 2 * math.pi)
            delta = rng.uniform(-3, 3)
            left = reflectivity(make_system(n=n, gamma_L=0.0, xi=xi), DriveParams(delta=delta))
            right = reflectivity(make_system(n=n, gamma_L=1.0, xi=0.0), DriveParams(delta=delta))
            assert left == pytest.approx(right, abs=1e-12)

    def test_passivity_random_parameters(self, rng):
        for _ in range(200):
            params = make_system(
                n=int(rng.integers(0, 7)),
                gamma_L=rng.uniform(0, 1),
                g=rng.uniform(0, 50),
                kappa_wg=rng.uniform(10, 300),
                kappa_sc=rng.uniform(0, 400),
                xi=rng.uniform(0, 2 * math.pi),
            )
            value = reflectivity(params, DriveParams(delta=rng.uniform(-10, 10)))
            assert -1e-12 <= value <= 1 + 1e-12

    def test_two_atom_solver_matches_closed_form_on_grid(self):
        params = make_system(gamma_L=0.8, xi=0.9)
        for delta in np.linspace(-3, 3, 61):
            solved = reflectivity(params, DriveParams(delta=delta))
            closed = abs(r_two_atoms(delta, params)) ** 2
            assert solved == pytest.approx(closed, rel=1e-10, abs=1e-13)


class TestRelaxation:
    def test_matches_linear_solve_on_map_point(self):
        params = make_system(xi=math.pi / 2)
        ode = relax_time_domain(params, DriveParams())
        assert abs(ode.R - (33 / 34) ** 2) < 1e-6

    def test_uncoupled_cavity_matches_closed_form(self):
        params = make_system(g=0.0)
        ode = relax_time_domain(params, DriveParams(delta=0.7))
        assert ode.r == pytest.approx(r_no_atoms(0.7, 100.0, 300.0), abs=1e-7)

    def test_zero_waveguide_coupling_reflects_everything(self):
        # nothing drives the system, so the mirror returns the full probe
        params = make_system(kappa_wg=0.0, kappa_sc=0.0)
        ode = relax_time_domain(params, DriveParams())
        assert ode.r == -1.0
        assert ode.R == 1.0

    def test_nonconvergence_reports_residual(self):
        params = make_system(g=50.0)  # narrow dip, slow relaxation
        with pytest.raises(SolverError, match="residual"):
            relax_time_domain(params, DriveParams(), t_max=1.0)

    def test_agreement_on_random_sample(self, rng):
        for _ in range(30):
            params = make_system(
                n=int(rng.integers(1, 7)),
                gamma_L=rng.uniform(0, 1),
                g=rng.uniform(2, 40),
                kappa_wg=rng.uniform(20, 200),
                kappa_sc=rng.uniform(0, 400),
                xi=rng.uniform(0, 2 * math.pi),
            )
            drive = DriveParams(delta=rng.uniform(-3, 3))
            linear = reflectivity(params, drive)
            ode = relax_time_domain(params, drive).R
            assert abs(linear - ode) < 1e-6
