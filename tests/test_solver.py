import math
from fractions import Fraction

import numpy as np
import pytest

from chiralcav import (
    DriveParams,
    LinearSystem,
    PoleError,
    QubitRegister,
    SolverError,
    ValidationError,
    build_linear_system,
    carving_measurement,
    component_reflection,
    global_rotation,
    plan_protocol,
    r_no_atoms,
    r_two_atoms,
    reflection_amplitude,
    reflectivity,
    reflectivity_batch,
    relax_time_domain,
    solve_steady_state,
    solver,
    sweep_2d,
)
from helpers import cascade_reflection, dense_jet, exact_reflection, make_system, single_atom_r


def steady(params, delta=0.0, **kw):
    drive = DriveParams(delta=delta)
    return solve_steady_state(build_linear_system(params, drive, **kw), params)


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
        state = solve_steady_state(build_linear_system(params, drive), params)
        assert state.r == np.sqrt(100.0) * state.a - 1.0
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
        system = build_linear_system(params, DriveParams(delta=0.5))
        scaled = solve_steady_state(LinearSystem(system.matrix, (2.5 - 0.4j) * system.rhs), params)
        assert scaled.r == pytest.approx(r_unit, abs=1e-13)

    def test_single_atom_against_hand_solved_oracle(self):
        oracle = single_atom_r(0.0, 20.0, 100.0, 300.0)
        assert abs(oracle) ** 2 == pytest.approx(0.81, abs=1e-14)
        state = steady(make_system(n=1))
        assert state.r == pytest.approx(oracle, abs=1e-13)

    def test_independent_atoms_reference(self):
        # two cavity-coupled but mutually uncoupled atoms: one atom with coupling g sqrt(2)
        value = reflectivity(make_system(n=1, g=20.0 * math.sqrt(2.0)), DriveParams())
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
            solve_steady_state(system, params)

    def test_drive_amplitude_is_read_from_the_system(self, base_params):
        # the system is driven with a_in = 2; r is that of the unit drive
        system = build_linear_system(base_params, DriveParams())
        state = solve_steady_state(LinearSystem(system.matrix, 2.0 * system.rhs), base_params)
        assert state.r == pytest.approx(-0.5, abs=1e-12)
        assert state.r == pytest.approx(reflection_amplitude(base_params, DriveParams()), abs=1e-12)

    def test_undriven_system_raises(self, base_params):
        system = build_linear_system(base_params, DriveParams())
        undriven = LinearSystem(system.matrix, np.zeros_like(system.rhs))
        with pytest.raises(SolverError, match="not driven"):
            solve_steady_state(undriven, base_params)

    def test_driven_null_mode_raises(self):
        params = make_system(n=1)
        system = LinearSystem(
            matrix=np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex),
            rhs=np.array([1.0 + 0j, 1.0 + 0j]),
        )
        with pytest.raises(SolverError, match="null mode"):
            solve_steady_state(system, params)


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
            lambda: relax_time_domain(params, DriveParams()),
        ):
            with pytest.raises(ValidationError):
                call()

    def test_relaxation_of_closed_cavity_still_validates(self):
        # kappa_wg = 0 is the one limit the oracle admits beyond require_valid
        with pytest.raises(ValidationError, match=r"gamma_L must lie in \[0, 1\]"):
            relax_time_domain(make_system(kappa_wg=0.0, kappa_sc=0.0, **self.GAIN), DriveParams())

    def test_solve_steady_state_rejects_invalid_params(self, base_params):
        system = build_linear_system(base_params, DriveParams())
        with pytest.raises(ValidationError):
            solve_steady_state(system, make_system(**self.GAIN))

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

    @staticmethod
    def draws(rng):
        for _ in range(200):
            params = make_system(
                n=int(rng.integers(0, 7)),
                gamma_L=rng.uniform(0, 1),
                g=rng.uniform(0, 50),
                xi=rng.uniform(0, 2 * math.pi),
            )
            yield params, rng.uniform(-3, 3)

    def test_R_is_the_square_of_r_on_each_route(self, rng):
        # one R formula on every route: bit for bit, not to a tolerance
        for params, delta in self.draws(rng):
            state = steady(params, delta)
            assert state.R == np.square(np.abs(state.r))
            drive = DriveParams(delta=delta)
            r = reflection_amplitude(params, drive)
            assert reflectivity(params, drive) == np.square(np.abs(r))

    def test_steady_state_R_is_the_reflectivity(self, rng):
        # the same 200 draws: the dense oracle and the fold are two algorithms
        for params, delta in self.draws(rng):
            fold = reflectivity(params, DriveParams(delta=delta))
            assert abs(steady(params, delta).R - fold) <= 1e-12


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

    @pytest.mark.parametrize("a_in", [1e-12, 1e-9, 1e-6, 1.0, 1e6, 2 - 0.4j])
    def test_independent_of_drive_amplitude(self, a_in):
        # the unit drive relaxed, scaled by a_in, is the dense steady state driven at a_in
        params = make_system(xi=0.3)
        unit = relax_time_domain(params, DriveParams())
        system = build_linear_system(params, DriveParams())
        dense = solve_steady_state(LinearSystem(system.matrix, a_in * system.rhs), params)
        assert abs(dense.R - unit.R) < 1e-10
        assert abs(dense.a / a_in - unit.a) < 1e-10 * abs(unit.a)

    def test_nonconvergence_reports_residual(self, monkeypatch):
        params = make_system(g=50.0)  # narrow dip, slow relaxation
        monkeypatch.setattr(solver, "RELAX_T_MAX", 1.0)
        with pytest.raises(SolverError, match="residual"):
            relax_time_domain(params, DriveParams())

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


class TestDegeneracyTest:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_one_norm_flags_the_same_points_as_two_norm(self, n, dark_point_calls):
        """The 1-norm condition number of the dense systems flags exactly the
        three dark points (gamma_L = 1/2, xi = 0, pi, 2 pi) of the 161 x 41
        map grid, as the 2-norm does, and the fold sends exactly these points
        to one call of the dark-point rule; the oracle's rank rule finds a
        null space at each of them."""
        xi_grid, gamma_L_grid = np.linspace(0, 2 * math.pi, 161), np.linspace(0, 1, 41)
        reflectivity_batch(make_system(n=n), 0.0, gamma_L=gamma_L_grid[None, :], xi=xi_grid[:, None])
        assert dark_point_calls == [[20, 80 * 41 + 20, 160 * 41 + 20]]
        matrix = np.array(
            [
                [solver._assemble(make_system(n=n, gamma_L=gl, xi=xi), 0.0)[0] for gl in gamma_L_grid]
                for xi in xi_grid
            ]
        )
        flagged = [np.linalg.cond(matrix, p) > 1e12 for p in (1, None)]
        assert np.array_equal(flagged[0], flagged[1])
        assert sorted(zip(*np.nonzero(flagged[0]))) == [(0, 20), (80, 20), (160, 20)]
        for i in (0, 80, 160):
            s = np.linalg.svd(matrix[i, 20], compute_uv=False)
            assert s[-1] <= s.size * np.finfo(float).eps * s[0]


def bits(value):
    """The uint64 view of a complex or float value, signed zeros included."""
    return np.atleast_1d(value).view(np.uint64).tolist()


class TestDarkModeStack:
    """One batch mixing healthy, dark and failing points through the fold's
    dark-point rule, and the dense oracle's rule on synthetic systems."""

    # (gamma_L, xi) at delta = 0; 1/2 + 1e-7 leaves a driven mode of width ~1e-14
    POINTS = {
        "healthy": (0.8, 0.3),
        "dark": (0.5, 0.0),
        "dark-pi": (0.5, math.pi),
        "driven": (0.5 + 1e-7, 0.0),
    }
    SYSTEMS = {
        "inconsistent": LinearSystem(np.zeros((3, 3), dtype=complex), np.ones(3, dtype=complex)),
        "driven": LinearSystem(
            np.array([[0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=complex), np.ones(3, dtype=complex)
        ),
        # consistent and undriven, but the right null vector e_2 is not a left one
        "not-left-null": LinearSystem(
            np.array([[1, 0, 0], [0, 0, 0], [0, 1, 0]], dtype=complex), np.eye(3, dtype=complex)[0]
        ),
    }

    def fold(self, *names):
        gamma_L, xi = np.array([self.POINTS[name] for name in names]).T
        return solver._reflection(make_system(), 0.0, gamma_L=gamma_L, xi=xi)

    def test_errors_name_the_first_failing_flat_index(self):
        with pytest.raises(SolverError, match=r"driven null mode \(flat index 2\)"):
            self.fold("healthy", "dark", "driven", "driven")

    def test_oracle_rejects_inconsistent_and_driven_null_modes(self, base_params):
        for name, fault in (
            ("inconsistent", "inconsistent"),
            ("driven", "driven null mode"),
            ("not-left-null", "driven null mode"),
        ):
            with pytest.raises(SolverError, match=fault):
                solve_steady_state(self.SYSTEMS[name], base_params)

    def test_dark_points_in_a_stack_equal_batches_of_one(self):
        r = self.fold("healthy", "dark", "healthy", "dark-pi")
        for i, name in ((1, "dark"), (3, "dark-pi")):
            assert bits(r[i]) == bits(self.fold(name)[0])
        assert bits(r[0]) == bits(r[2]) == bits(self.fold("healthy")[0])


def assert_routes_agree(params):
    """Fold, dense oracle, scalar and batch calls, carving and RK4 at delta = 0."""
    r = reflection_amplitude(params, DriveParams())
    assert abs(steady(params).r - r) <= 1e-14
    R = reflectivity(params, DriveParams())
    assert bits(R) == bits(reflectivity_batch(params, 0.0)) == bits(np.square(np.abs(r)))

    n = params.n_atoms
    register = global_rotation(QubitRegister.ground(n), math.pi / 2)
    carved = carving_measurement(register, params, 0.0).per_component_r
    removed = [component_reflection(format(i, f"0{n}b"), params, 0.0) for i in range(2**n)]
    assert np.max(np.abs(carved - removed)) <= 1e-12
    assert relax_time_domain(params, DriveParams()).r == pytest.approx(r, abs=1e-8)
    return r


class TestDarkPoints:
    """The subradiant points gamma_L = 1/2, xi = n pi, delta = 0 on every route.

    There the fold divides by D = 0 (xi = 0; 2 pi is stored as 0) or by a
    rounding-level D (xi = pi, where e^{i pi} rounds off -1), and the
    dark-point rule resolves r as the mean of the fold on a circle; the
    dense oracle's matrix is singular and takes its minimum-norm rule.  The
    atoms are decoupled from the cavity (g = 0) or not (g = 20).
    """

    @pytest.mark.parametrize("g", [0.0, 20.0])
    @pytest.mark.parametrize("xi", [0.0, math.pi, 2 * math.pi])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_routes_agree(self, n, xi, g):
        params = make_system(n=n, gamma_L=0.5, g=g, xi=xi)
        r = assert_routes_agree(params)
        if n == 2 and g > 0:
            if params.xi == 0.0:  # 2 pi is stored as 0
                with pytest.raises(PoleError):
                    r_two_atoms(0.0, params)
            else:  # e^{2 i pi} rounds off 1, and the 0/0 cancels to the limit
                assert r_two_atoms(0.0, params) == pytest.approx(r, abs=1e-12)

    @pytest.mark.parametrize("g", [0.0, 20.0])
    @pytest.mark.parametrize("xi", [0.0, math.pi, 2 * math.pi])
    def test_residue_stays_ten_times_below_the_bound(self, xi, g, monkeypatch):
        monkeypatch.setattr(solver, "_RESIDUE_TOL", solver._RESIDUE_TOL / 10)
        for n in range(2, 9):
            params = make_system(n=n, gamma_L=0.5, g=g, xi=xi)
            assert abs(reflection_amplitude(params, DriveParams()) - steady(params).r) <= 1e-14

    @pytest.mark.parametrize("n", [2, 4])
    def test_driven_near_dark_point_raises(self, n):
        # the dark-limit mean is -0.9 here, but r = -0.5: the residue tells them apart
        gamma_L = np.array([0.8, 0.5 + 1e-7])
        with pytest.raises(SolverError, match=r"driven null mode \(flat index 1\)"):
            reflectivity_batch(make_system(n=n), 0.0, gamma_L=gamma_L, xi=0.0)

    @pytest.mark.parametrize("n", [2, 4])
    def test_sliced_batch_names_the_whole_batch_index(self, n):
        # 20001 points fold in slices of the kernel's rule; the error names the index in the whole batch
        gamma_L = np.where(np.arange(20001) == 15000, 0.5 + 1e-7, 0.8)
        with pytest.raises(SolverError, match=r"driven null mode \(flat index 15000\)"):
            reflectivity_batch(make_system(n=n), 0.0, gamma_L=gamma_L, xi=0.0)


class TestExceptionalPoints:
    """The fully directional chains gamma_L = 0 and 1: the atom block is
    triangular with one repeated diagonal entry, a defective (Jordan) matrix."""

    @pytest.mark.parametrize("gamma_L", [0.0, 1.0])
    @pytest.mark.parametrize("g", [0.0, 20.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_routes_agree(self, n, g, gamma_L):
        assert_routes_agree(make_system(n=n, gamma_L=gamma_L, g=g, xi=0.7))


class TestNearDarkPoints:
    """gamma_L = 1/2 + 1e-5, xi = 0, delta = 0: valid, nonsingular systems
    whose subradiant pair mode is damped at the 1e-10 level.

    Their condition number exceeds 1e12, but every singular value lies
    above rounding, so the dense oracle solves them by LU; the fold's
    smallest Fabry-Perot denominator is about 4e-10, so the fold answers
    them without the dark-point rule.
    """

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_fold_returns_a_passive_reflectivity(self, n):
        params = make_system(n=n, gamma_L=0.5 + 1e-5, xi=0.0)
        R = reflectivity(params, DriveParams())
        assert 0.0 <= R <= 1.0
        assert reflectivity_batch(params, 0.0) == R
        if n == 2:
            r = reflection_amplitude(params, DriveParams())
            assert abs(r - r_two_atoms(0.0, params)) <= 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dense_oracle_agrees_with_the_fold(self, n, dark_point_calls):
        params = make_system(n=n, gamma_L=0.5 + 1e-5, xi=0.0)
        assert abs(steady(params).r - reflection_amplitude(params, DriveParams())) <= 1e-6
        assert dark_point_calls == []


class TestExactOracle:
    """r at gamma_L = 1/2 + dg, xi = 0, delta = 0 (g = 20, kappa = (100, 300))
    against the exact rational value of ``helpers.exact_reflection``: today's
    errors, pinned where the routes lose digits near the dark point (ROADMAP item 3)."""

    @pytest.mark.parametrize("xi", [0.0, math.pi])
    def test_oracle_is_the_dense_solve_away_from_dark_points(self, xi, rng):
        for n in range(5):
            params = make_system(n=n, gamma_L=rng.uniform(0, 1), g=rng.uniform(0, 40), xi=xi)
            delta = rng.uniform(-3, 3)
            assert abs(steady(params, delta).r - complex(*exact_reflection(params, delta))) <= 1e-12

    @pytest.mark.parametrize("dg", [1e-3, 1e-5, 1e-7, 1e-8])
    def test_odd_chain_under_the_dense_lu(self, dg):
        params = make_system(n=3, gamma_L=0.5 + dg)
        re, im = exact_reflection(params)
        assert re * re + im * im == Fraction(81, 100)  # at every dg
        assert abs(steady(params).r - complex(re, im)) <= 1e-15  # measured <= 1.1e-16

    @pytest.mark.parametrize(
        "n, dg, tol",
        [
            (3, 1e-3, 1e-13),  # measured 1.6e-15
            (3, 1e-5, 1e-13),  # measured 6.1e-14
            (2, 1e-3, 1e-11),  # measured 2.1e-12: the junction forms dg^2 from two numbers near 1/4
            pytest.param(
                3, 1e-7, 1e-13,
                marks=pytest.mark.xfail(
                    strict=True, raises=SolverError,
                    reason="the fold reports a driven null mode on a nonsingular system (ROADMAP item 3)",
                ),
            ),
        ],
    )
    def test_fold_against_the_exact_value(self, n, dg, tol):
        params = make_system(n=n, gamma_L=0.5 + dg)
        assert abs(reflection_amplitude(params, DriveParams()) - complex(*exact_reflection(params))) <= tol


class TestJet:
    """The fold's derivative jet: d/d(delta) and d^2/d(delta)^2 along delta_c = delta."""

    @pytest.mark.parametrize("g", [0.0, 20.0])
    @pytest.mark.parametrize("xi", [0.0, math.pi, 2 * math.pi])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_dark_points_match_dense_oracle(self, n, xi, g, dark_point_calls):
        # the dark-point rule's Cauchy means against two more minimum-norm solves
        params = make_system(n=n, gamma_L=0.5, g=g, xi=xi)
        r, r1, r2 = solver._reflection(params, 0.0, derivatives=True)
        assert dark_point_calls == [[0]]
        e0, e1, e2 = dense_jet(params, 0.0)
        assert bits(r) == bits(solver._reflection(params, 0.0))
        assert abs(r - e0) <= 1e-14
        assert abs(r1 - e1) <= 1e-12
        assert abs(r2 - e2) <= 1e-8

    @pytest.mark.parametrize("xi", [0.0, math.pi])
    def test_prefix_read_out_has_the_bits_of_each_chain(self, xi, dark_point_calls):
        # every prefix of the dark chain gamma_L = 1/2 from one jet fold; n >= 2 are dark
        params = make_system(n=8, gamma_L=0.5, xi=xi)
        r, r1, r2 = solver._reflection(params, 0.0, prefix=np.arange(1, 9), derivatives=True)
        assert dark_point_calls == [list(range(1, 8))]
        for n in range(1, 9):
            chain = solver._reflection(make_system(n=n, gamma_L=0.5, xi=xi), 0.0, derivatives=True)
            assert bits(np.array([r[n - 1], r1[n - 1], r2[n - 1]])) == bits(np.array(chain))

    def test_order_zero_has_the_bits_of_the_plain_fold(self):
        params = make_system(n=5, gamma_L=0.8, xi=0.9)
        sweep = dict(delta=np.linspace(-3.0, 3.0, 4001))
        dark_map = dict(  # holds the dark points gamma_L = 1/2, xi = 0, pi, 2 pi
            delta=0.0,
            gamma_L=np.linspace(0.0, 1.0, 41)[None, :],
            xi=np.linspace(0.0, 2 * math.pi, 161)[:, None],
        )
        for batch in (sweep, dark_map):
            plain = solver._reflection(params, **batch)
            r, r1, r2 = solver._reflection(params, **batch, derivatives=True)
            assert r.shape == r1.shape == r2.shape == plain.shape
            assert np.array_equal(r.view(np.uint64), plain.view(np.uint64))
            assert np.all(np.isfinite(r1) & np.isfinite(r2))

    @pytest.mark.parametrize("xi", [0.0, 0.3])
    @pytest.mark.parametrize("derivatives", [False, True])
    def test_empty_prefix_is_the_bare_cavity(self, xi, derivatives):
        # each point reads the plain fold of its own first prefix sites: count 0 closes no
        # site (the bare cavity), count 6 closes at the last site
        params = make_system(n=6, gamma_L=0.7, xi=xi)
        deltas = np.linspace(-2.0, 2.0, 41)
        prefix = np.arange(41) % 7
        cut = np.array(solver._reflection(params, deltas, prefix=prefix, derivatives=derivatives))
        for count in range(7):
            plain = solver._reflection(params, deltas, positions=np.arange(count), derivatives=derivatives)
            at = prefix == count
            assert bits(cut[..., at].copy()) == bits(np.array(plain)[..., at].copy())


class TestCascade:
    """gamma_R = 0 at every point of a fold that is not split and not all at xi = 0
    walks the one site update, where rho = s = 0 and every D = 1 are exact zeros and
    ones: its bits against the gamma_L = 1 row of a batch mixing gamma_L = 1 and 0.9.
    The xi = 0 cascade sums in closed form (``TestClosedFormCascade``)."""

    # (0.0, 0.3): a per-point xi, the deltas once at each, so that the batch walks its sites
    # with the xi = 0 points in it
    @pytest.mark.parametrize("xi", [0.3, math.pi, pytest.param((0.0, 0.3), id="0.0,0.3")])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11])
    def test_cascade_has_the_bits_of_the_general_update(self, n, xi, dark_point_calls):
        params = make_system(n=n, gamma_L=1.0, xi=np.ravel(xi)[0])
        deltas = np.append(np.linspace(-3.0, 3.0, 40), 0.0)  # delta = 0 at xi = 0 holds exact zeros
        axes = {"xi": np.repeat(xi, deltas.size)} if np.ndim(xi) else {}
        deltas = np.tile(deltas, np.size(xi))
        cuts = np.arange(n + 1)[:, None, None]  # 0..n
        for kw in ({}, {"prefix": cuts}, {"derivatives": True}, {"prefix": cuts, "derivatives": True}):
            cascade = np.array(solver._reflection(params, deltas, gamma_L=np.array([[1.0]]), **axes, **kw))
            mixed = np.array(solver._reflection(params, deltas, gamma_L=np.array([[1.0], [0.9]]), **axes, **kw))
            assert bits(cascade) == bits(mixed[..., :1, :].copy())
        assert dark_point_calls == []  # |w D| = |w| >= 1/2 at gamma_L = 1, and no point here is dark


class TestClosedFormCascade:
    """The cascade gamma_L = 1 at xi = 0 against ``helpers.cascade_reflection``, a closed
    form for any n: plain, prefix and jet folds on random systems (ROADMAP item 13)."""

    @staticmethod
    def assert_close(folded, exact):
        # within 1e-11 of each order's scale (measured: 5e-13 over 60 systems, n <= 61, g <= 60)
        for got, want in zip(folded, exact):
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-11 * max(1.0, np.max(np.abs(want)))

    def test_folds_match_the_closed_form(self, rng):
        for _ in range(20):
            n, g, (kappa_wg, kappa_sc) = rng.integers(0, 62), rng.uniform(0.0, 60.0), rng.uniform(10.0, 300.0, 2)
            params = make_system(n=int(n), g=g, kappa_wg=kappa_wg, kappa_sc=kappa_sc)
            deltas, counts = rng.uniform(-4.0, 4.0, 101), np.arange(n + 1)[:, None]
            chain, prefixes = cascade_reflection(params, deltas), cascade_reflection(params, deltas, counts)
            self.assert_close([solver._reflection(params, deltas)], chain[:1])
            self.assert_close([solver._reflection(params, deltas, prefix=counts)], prefixes[:1])
            self.assert_close(solver._reflection(params, deltas, derivatives=True), chain)
            self.assert_close(solver._reflection(params, deltas, prefix=counts, derivatives=True), prefixes)

    # the kernel's closed form against the general update that a batch mixing gamma_L = 1
    # and 0.9 takes, site by site; a subset fold only up to 11 sites (2^n rows)
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11, 61])
    def test_closed_form_is_the_general_update(self, n, dark_point_calls):
        params = make_system(n=n)
        deltas = np.append(np.linspace(-3.0, 3.0, 40), 0.0)
        cuts = np.arange(n + 1)[:, None, None]  # 0..n
        folds = [{}, {"prefix": cuts}, {"derivatives": True}, {"prefix": cuts, "derivatives": True}]
        if n <= 11:
            folds.append({"positions": np.arange(n), "subsets": True})
        for kw in folds:
            closed = solver._reflection(params, deltas, gamma_L=np.array([[1.0]]), **kw)
            mixed = solver._reflection(params, deltas, gamma_L=np.array([[1.0], [0.9]]), **kw)
            for got, want in zip(*(v if isinstance(v, tuple) else (v,) for v in (closed, mixed))):
                want = want[..., :1, :]  # within 1e-12 of each order's scale (measured: 3.7e-14 at n = 61)
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        assert dark_point_calls == []  # every D of a cascade is 1: no point is dark

    @pytest.mark.parametrize("derivatives", [False, True])
    def test_count_zero_is_the_bare_cavity(self, derivatives):
        # count 0 closes on O = 0 and its jet 0: the bits of the walk's empty chain
        params = make_system(n=5)
        deltas, prefix = np.linspace(-2.0, 2.0, 41), np.arange(41) % 6
        walk = np.array(solver._reflection(params, deltas, gamma_L=np.array([[1.0], [0.9]]), prefix=prefix,
                                           derivatives=derivatives))[..., 0, :]
        at = prefix == 0
        for kw in ({"prefix": prefix}, {"positions": np.arange(0)}):
            closed = np.array(solver._reflection(params, deltas, derivatives=derivatives, **kw))
            assert bits(closed[..., at].copy()) == bits(walk[..., at].copy())
        row = solver._reflection(params, deltas, positions=np.arange(5), subsets=True)[0]  # no atom coupled
        assert bits(row[at].copy()) == bits(walk.reshape(-1, 41)[0, at].copy())

    @pytest.mark.parametrize(
        "axes",
        [{"xi": np.array([[0.0], [0.3]])}, {"gamma_L": np.array([[1.0], [0.9]])}],
        ids=["xi-0-and-0.3", "gamma-l-1-and-0.9"],
    )
    def test_only_a_whole_xi_0_cascade_takes_the_closed_form(self, axes, complex_blocks):
        # the closed form allocates no block; a batch that mixes in another xi or rate walks its
        # sites in one, and its other row has the bits of that row alone
        blocks = complex_blocks
        params, deltas = make_system(n=5), np.linspace(-3.0, 3.0, 41)
        for kw in ({}, {"derivatives": True}):
            blocks.clear()
            solver._reflection(params, deltas, **kw)
            assert blocks == []
            mixed = np.array(solver._reflection(params, deltas, **axes, **kw))
            assert blocks == [(15, 2, 41)]
            alone = np.array(solver._reflection(params, deltas, **{k: v[1:] for k, v in axes.items()}, **kw))
            assert bits(mixed[..., 1:, :].copy()) == bits(alone)


def read_only(value):
    frozen = np.array(value)
    frozen.flags.writeable = False
    return frozen


class TestCallerArrays:
    """The fold writes only into its own block: caller arrays may be read-only,
    and no two results share memory."""

    # the grid holds the dark points gamma_L = 1/2, xi = 0 and pi, delta = 0
    AXES = (
        np.linspace(-1.0, 1.0, 5)[:, None, None],
        np.array([0.5, 0.8, 1.0])[None, :, None],
        np.array([0.0, math.pi])[None, None, :],
    )

    def test_read_only_batch_axes(self):
        params = make_system(n=3)
        expected = reflectivity_batch(params, *self.AXES)
        frozen = [read_only(axis) for axis in self.AXES]
        first, second = (reflectivity_batch(params, *frozen) for _ in range(2))
        assert bits(first) == bits(second) == bits(expected)
        assert not np.shares_memory(first, second)

    def test_read_only_map_grids(self):
        params = make_system(n=3)
        xi, gamma_L = np.linspace(0.0, 2 * math.pi, 9), np.linspace(0.0, 1.0, 5)
        expected = sweep_2d(params, xi, gamma_L).values
        first, second = (sweep_2d(params, read_only(xi), read_only(gamma_L)).values for _ in range(2))
        assert bits(first) == bits(second) == bits(expected)
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("derivatives", [False, True])
    def test_read_only_prefix(self, derivatives):
        params = make_system(n=6, gamma_L=0.5)  # each prefix n >= 2 is dark at delta = 0
        delta, counts = np.linspace(-1.0, 1.0, 5), np.arange(1, 7)[:, None]

        def fold(delta, counts):
            out = solver._reflection(params, delta, prefix=counts, derivatives=derivatives)
            return out if derivatives else (out,)

        expected = fold(delta, counts)
        first, second = (fold(read_only(delta), read_only(counts)) for _ in range(2))
        assert bits(np.stack(first)) == bits(np.stack(second)) == bits(np.stack(expected))
        assert not any(np.shares_memory(a, b) for a in first for b in second)

    def test_read_only_subset_detunings(self):
        params = make_system(n=4, gamma_L=0.5)
        delta = np.array([-0.3, 0.0, 0.3])
        expected = solver._reflection(params, delta, positions=np.arange(4), subsets=True)
        first, second = (
            solver._reflection(params, read_only(delta), positions=read_only(np.arange(4)), subsets=True)
            for _ in range(2)
        )
        assert bits(first) == bits(second) == bits(expected)
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize(
        "call, shape",
        [
            (lambda params: reflectivity_batch(params, np.zeros(0)), (0,)),
            (lambda params: reflectivity_batch(params, 0.0, gamma_L=np.zeros((3, 0))), (3, 0)),
            (lambda params: solver._reflection(params, np.zeros(0), positions=np.arange(3), subsets=True), (8, 0)),
        ],
        ids=["sweep", "gamma-l-grid", "subsets"],
    )
    def test_empty_batches_keep_their_shapes(self, call, shape, fold_shapes):
        # an empty batch is one slice of the kernel's points-per-fold rule, folded once
        assert call(make_system(n=3)).shape == shape
        assert len(fold_shapes) == 1


class TestBlock:
    """The fold keeps each order-0 line once in one block: the state (rho, s, q, o),
    the sum ugl + gr and the running minimum of |w D| are updated in place."""

    # In place, numpy may take another inner loop than for a fresh output.  A sum, a
    # difference or a minimum is exact whichever loop runs, and this checks that on the
    # numpy at hand.  The excluded case is an in-place multiply: its last bit on size-1
    # arrays depends on the CPU, so no product or quotient in the fold writes into one of
    # its operands.
    @pytest.mark.parametrize("shape", [(1,), (1, 1), (7, 1), (5, 4001)])
    def test_in_place_sums_and_minima_have_the_bits_of_fresh_ones(self, shape, rng):
        def draw():
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        for _ in range(300 if np.prod(shape) < 100 else 3):
            x, y = draw(), draw()
            for ufunc, a, b in (
                (np.add, x, y),
                (np.subtract, x, y),
                (np.add, x, y.real[..., :1]),  # ugl + gr: a real, broadcast operand
                (np.minimum, np.abs(x), np.abs(y)),
            ):
                fresh, line = ufunc(a, b), a.copy()
                ufunc(line, b, out=line)
                assert bits(line) == bits(fresh)
        wd_min, mag = np.array([np.inf, np.nan, 0.5, np.nan]), np.array([0.7, 0.2, np.nan, np.inf])
        fresh = np.minimum(wd_min, mag)
        np.minimum(wd_min, mag, out=wd_min)
        assert bits(wd_min) == bits(fresh)

    # (1.0, 0.3): gamma_L = 1 off xi = 0, on the walk; the xi = 0 cascade sums in closed
    # form, with no block
    SYSTEMS = [(1.0, 0.3), (0.95, 0.3), (0.5, 0.0), (0.5, math.pi), (0.8, 1.1)]

    @pytest.mark.parametrize("gamma_L, xi", SYSTEMS)
    def test_no_line_is_read_before_it_is_written(self, gamma_L, xi, monkeypatch):
        # a NaN-filled block turns any read of an unwritten line into a NaN, which the
        # dark-point rule then meets as a driven null mode or a changed mean
        params = make_system(n=5, gamma_L=gamma_L, xi=xi)
        deltas = np.linspace(-1.0, 1.0, 9)  # delta = 0 is the dark point at gamma_L = 1/2
        calls = [
            lambda: solver._reflection(params, deltas),
            lambda: solver._reflection(params, 0.0),
            lambda: solver._reflection(params, deltas, prefix=np.arange(6)[:, None]),
            lambda: solver._reflection(params, deltas[:6], prefix=np.arange(6), derivatives=True),
            lambda: solver._reflection(params, deltas[3:6], positions=np.arange(5), subsets=True),
        ]
        expected = [bits(np.array(call())) for call in calls]
        filled, empty = [], np.empty  # the shapes of the NaN-filled arrays

        def nan_empty(shape, dtype=float, *args, **kw):
            block = empty(shape, dtype, *args, **kw)
            if np.issubdtype(block.dtype, np.inexact):  # a NaN fill of an int array warns
                filled.append(block.shape)
                block.fill(np.nan)
            return block

        monkeypatch.setattr(np, "empty", nan_empty)
        for call, before in zip(calls, expected):
            count = len(filled)
            assert bits(np.array(call())) == before
            assert len(filled) > count  # the fold's block came from the patched np.empty

    def test_block_holds_each_line_once(self, complex_blocks):
        # 4 state lines, 10 site lines and the real lines (wd_min, |w D|) two to a complex
        # line; a prefix fold's end state has the prefix's shape and sits outside the block.
        # A batch past the kernel's rule is folded in slices, each block within FOLD_POINTS
        blocks = complex_blocks
        params, deltas = make_system(n=5, gamma_L=0.95, xi=0.3), np.linspace(-1.0, 1.0, 9)
        sweep = np.linspace(-3.0, 3.0, 20001)
        # the map grid's three dark points take one more fold, the dark-point rule's
        grid = dict(gamma_L=np.linspace(0.0, 1.0, 101)[None, :], xi=np.linspace(0.0, 2 * math.pi, 401)[:, None])
        for call, folds in (
            (lambda: solver._reflection(params, deltas), 1),
            # a Newton step
            (lambda: solver._reflection(params, deltas, prefix=np.arange(9) % 6, derivatives=True), 1),
            (lambda: solver._reflection(params, sweep), 3),
            (lambda: solver._reflection(params, 0.0, **grid), 5 + 1),
            (lambda: solver._reflection(params, sweep, prefix=np.arange(20001) % 6, derivatives=True), 3),
        ):
            blocks.clear()
            call()
            assert [shape[0] for shape in blocks] == [15] * folds
            assert all(math.prod(shape[1:]) <= solver.FOLD_POINTS for shape in blocks)
        blocks.clear()
        plan_protocol(12, make_system(n=12, xi=0.3))  # one sweep over the chains 3, 5, .., 11, then Newton steps
        assert blocks and {shape[0] for shape in blocks} == {15}
        blocks.clear()
        plan_protocol(12, make_system(n=12))  # the xi = 0 cascade sums in closed form: no block
        assert blocks == []

    # dark (gamma_L, xi) = (1/2, 0) at delta = 0 in a later slice, flat index 15000 of a mixed batch
    DARK = dict(
        delta=np.linspace(-1.0, 1.0, 20001) * (np.arange(20001) != 15000),
        gamma_L=np.where(np.arange(20001) == 15000, 0.5, 0.8),
        xi=np.where(np.arange(20001) == 15000, 0.0, 0.7),
    )
    # the map grid's axes, dark at gamma_L = 1/2 and xi = 0, pi and 2 pi
    GAMMA_L, XI = np.linspace(0.0, 1.0, 401), np.linspace(0.0, 2 * math.pi, 401)
    # batches past the kernel's rule, each folded in slices: (params, batch keywords, holds dark points)
    SLICED = {
        "sweep": (make_system(n=5, gamma_L=0.8, xi=0.9), dict(delta=np.linspace(-3.0, 3.0, 20001)), False),
        "cascade-prefix-jet": (
            make_system(n=6),
            dict(delta=np.linspace(-3.0, 3.0, 20001), prefix=np.arange(7)[:, None], derivatives=True),
            False,
        ),
        "per-point-prefix-jet": (
            make_system(n=5, gamma_L=0.8, xi=0.9),
            dict(delta=np.linspace(-3.0, 3.0, 20001), prefix=np.arange(20001) % 6, derivatives=True),
            False,
        ),
        # a prefix of fewer dimensions than the batch
        "scalar-prefix": (
            make_system(n=5, gamma_L=0.8, xi=0.9), dict(delta=np.linspace(-3.0, 3.0, 20001), prefix=3), False
        ),
        # slices of 81 rows or columns: xi = pi and 2 pi, or gamma_L = 1/2, lie in later slices
        "grid-401x101": (make_system(n=3), dict(delta=0.0, gamma_L=GAMMA_L[None, ::4], xi=XI[:, None]), True),
        "grid-101x401": (make_system(n=3), dict(delta=0.0, gamma_L=GAMMA_L[None, :], xi=XI[::4, None]), True),
        # 8192 points and a last slice of one, the dark point delta = 0
        "last-slice-of-one": (make_system(n=4, gamma_L=0.5), dict(delta=np.linspace(-3.0, 0.0, 8193)), True),
        "dark-in-a-later-slice": (make_system(n=4), DARK, True),
        "dark-jet-in-a-later-slice": (make_system(n=4), dict(DARK, derivatives=True), True),
        # 2^12 rows per detuning: folds of 2 + 2 + 2 + 1 detunings, the dark delta = 0 in the second
        "subsets": (
            make_system(n=12, gamma_L=0.5),
            dict(delta=np.linspace(-0.3, 0.3, 7), positions=np.arange(12), subsets=True),
            True,
        ),
    }

    @staticmethod
    def whole_fold(params, delta, gamma_L=None, xi=None, prefix=None, derivatives=False, positions=None, subsets=0):
        """``solver._fold`` on the whole batch, on operands of the batch's ndim as ``_reflection`` pads them."""
        pos = np.sort(np.arange(params.n_atoms) if positions is None else positions).astype(float)
        axes = [delta, params.gamma_L if gamma_L is None else gamma_L, params.xi if xi is None else xi]
        ndim = max(subsets + len(np.broadcast_shapes(*map(np.shape, (*axes, prefix)))), 1)
        d, gl, x = (np.asarray(v, dtype=float)[(None,) * (ndim - np.ndim(v))] for v in axes)
        return solver._fold(params, d, pos, gl, x, derivatives, prefix, subsets)

    @pytest.mark.parametrize("name", list(SLICED))
    def test_slices_have_the_bits_of_the_whole_batch(self, name):
        # away from flagged points the sliced result is the whole batch's fold bit for bit; a
        # flagged point (the dark-point rule's) is its batch of one, or its column of subsets
        params, kw, dark = self.SLICED[name]
        r, d_min, *jet = self.whole_fold(params, **kw)
        assert r.size > solver.FOLD_POINTS  # past the rule: sliced
        whole = np.array([r, *jet])
        sliced = np.array(solver._reflection(params, **kw)).reshape(whole.shape)
        flagged = ~np.isfinite(r) | (d_min <= 1.0 / solver.COND_MAX)
        assert bits(sliced[:, ~flagged].copy()) == bits(whole[:, ~flagged].copy())
        assert flagged.any() == dark
        if kw.get("subsets"):
            for col in np.unique(np.nonzero(flagged)[1]):
                one = solver._reflection(params, kw["delta"][col : col + 1], positions=kw["positions"], subsets=True)
                assert bits(sliced[0, :, col].copy()) == bits(one[:, 0].copy())
            return
        operands = {k: np.broadcast_to(kw[k], r.shape).reshape(-1) for k in ("delta", "gamma_L", "xi") if k in kw}
        for index in np.flatnonzero(flagged):
            one = solver._reflection(
                params, **{k: v[index] for k, v in operands.items()}, derivatives=kw.get("derivatives", False)
            )
            assert bits(sliced.reshape(len(whole), -1)[:, index].copy()) == bits(np.array(one))
