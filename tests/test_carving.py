import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from chiralcav import (
    DriveParams,
    ProtocolExtinguishedError,
    QubitRegister,
    ValidationError,
    build_linear_system,
    carving_measurement,
    component_reflection,
    fidelity,
    global_rotation,
    plan_protocol,
    r_no_atoms,
    reflection_amplitude,
    relax_time_domain,
    run_protocol,
    solve_steady_state,
    solver,
    spectrum,
)
from helpers import brute_force_carve, make_system, single_atom_r

# exact component amplitudes at delta = 0 for the C = 4, kappa_wg/kappa = 1/4
# system in the directional regime (xi = 0): counts 0 and 2 share the bare
# cavity, a single coupled atom reflects with r = 2(1/4)/(1+4) - 1 = -0.9
R0 = -0.5
R1 = -0.9


def template(m=2, **kw):
    return make_system(n=m, **kw)


#: (gamma_L, g, xi) of the benchmark's carving templates, kappa_wg = 100, kappa_sc = 300
BENCH_TEMPLATES = [(1.0, 20.0, 0.0), (1.0, 30.0, 0.0), (0.95, 20.0, 0.3)]


class TestQubitRegister:
    def test_ground_state(self):
        reg = QubitRegister.ground(3)
        assert reg.amplitude("000") == 1.0
        assert reg.norm == pytest.approx(1.0)

    def test_w_state_amplitudes(self):
        reg = QubitRegister.w_state(3)
        for bits in ("100", "010", "001"):
            assert reg.amplitude(bits) == pytest.approx(1 / math.sqrt(3), abs=1e-15)
        assert reg.amplitude("000") == 0.0

    def test_size_bounds(self):
        with pytest.raises(ValidationError):
            QubitRegister.ground(0)
        with pytest.raises(ValidationError):
            QubitRegister.ground(13)

    def test_amplitude_length_checked(self):
        with pytest.raises(ValidationError):
            QubitRegister(m=2, amplitudes=np.ones(3, dtype=complex))

    def test_normalized(self):
        reg = QubitRegister(m=1, amplitudes=[3.0, 4.0j]).normalized()
        assert np.allclose(reg.amplitudes, [0.6, 0.8j], rtol=0, atol=1e-15)
        assert reg.m == 1


class TestGlobalRotation:
    def test_half_pi_on_two_qubit_ground(self):
        state = global_rotation(QubitRegister.ground(2), math.pi / 2)
        assert state.amplitude("00") == pytest.approx(+0.5, abs=1e-15)
        assert state.amplitude("01") == pytest.approx(-0.5, abs=1e-15)
        assert state.amplitude("10") == pytest.approx(-0.5, abs=1e-15)
        assert state.amplitude("11") == pytest.approx(+0.5, abs=1e-15)

    def test_zero_angle_is_identity(self):
        reg = QubitRegister.w_state(4)
        rotated = global_rotation(reg, 0.0)
        assert np.allclose(rotated.amplitudes, reg.amplitudes, atol=1e-15)

    def test_inverse_returns_ground(self):
        state = global_rotation(QubitRegister.ground(2), math.pi / 2)
        back = global_rotation(state, -math.pi / 2)
        assert abs(back.amplitude("00")) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_on_random_states(self, rng):
        for m in (1, 3, 5):
            amps = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
            amps /= np.linalg.norm(amps)
            reg = QubitRegister(m=m, amplitudes=amps)
            rotated = global_rotation(reg, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            assert rotated.norm == pytest.approx(1.0, abs=1e-12)

    def test_matches_the_kronecker_product_of_gates(self, rng):
        # an independent route: the M-fold tensor power of the gate on the flat state
        theta, phi = 0.7, 0.3
        cos, sin = math.cos(theta / 2), math.sin(theta / 2)
        gate = np.array([[cos, np.exp(-1j * phi) * sin], [-np.exp(1j * phi) * sin, cos]])
        for m in range(1, 7):
            amps = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
            rotated = global_rotation(QubitRegister(m=m, amplitudes=amps), theta, phi)
            expected = reduce(np.kron, [gate] * m) @ amps
            assert np.allclose(rotated.amplitudes, expected, rtol=0, atol=1e-13)


class TestComponentReflection:
    def test_all_uncoupled_is_bare_cavity(self):
        r = component_reflection("00", template(), 0.0)
        assert r == pytest.approx(R0, abs=1e-13)

    def test_adjacent_pair_at_xi_pi_interferes_away(self):
        r = component_reflection("11", template(xi=math.pi), 0.0)
        assert r == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("bits", ["01", "10"])
    def test_single_coupled_atom(self, bits):
        r = component_reflection(bits, template(), 0.0)
        assert r == pytest.approx(single_atom_r(0.0, 20.0, 100.0, 300.0), abs=1e-12)
        assert abs(r) ** 2 == pytest.approx(0.81, abs=1e-12)

    def test_translation_invariance(self):
        # same offsets, shifted along the lattice: identical amplitude
        r_a = component_reflection("1100", template(4, xi=0.8), 0.2)
        r_b = component_reflection("0011", template(4, xi=0.8), 0.2)
        assert r_a == pytest.approx(r_b, abs=1e-13)

    @pytest.mark.parametrize("xi", [0.0, math.pi])
    def test_permutation_symmetry_at_integer_pi(self, xi):
        # at xi = n pi the amplitude depends only on the coupled count
        import itertools

        params = template(4, xi=xi)
        for count in (1, 2, 3):
            values = []
            for sites in itertools.combinations(range(4), count):
                bits = "".join("1" if i in sites else "0" for i in range(4))
                values.append(component_reflection(bits, params, 0.15))
            for value in values[1:]:
                assert value == pytest.approx(values[0], abs=1e-12)

    def test_invalid_template_rejected(self):
        with pytest.raises(ValidationError):
            component_reflection("01", make_system(gamma_L=1.5), 0.0)


class TestCarvingMeasurement:
    def test_bell_step_against_brute_force(self):
        state = global_rotation(QubitRegister.ground(2), math.pi / 2)
        outcome = carving_measurement(state, template(), 0.0)

        amplitudes = {
            (0, 0): 0.5,
            (0, 1): -0.5,
            (1, 0): -0.5,
            (1, 1): 0.5,
        }
        expected, herald = brute_force_carve(amplitudes, {0: R0, 1: R1, 2: R0})
        assert outcome.herald_probability == pytest.approx(herald, abs=1e-10)
        assert outcome.herald_probability == pytest.approx(0.53, abs=1e-10)
        for bits, amp in expected.items():
            label = "".join(map(str, bits))
            assert outcome.post_state.amplitude(label) == pytest.approx(amp, abs=1e-10)

        bell = QubitRegister(
            m=2,
            amplitudes=np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
        )
        fid = fidelity(outcome.post_state, bell)
        assert fid == pytest.approx(81 / 106, abs=1e-10)

    def test_uniform_amplitudes_leave_state_unchanged(self):
        # support restricted to one coupled count: common attenuation only
        state = QubitRegister(
            m=2, amplitudes=np.array([0, 1, 1j, 0], dtype=complex) / math.sqrt(2)
        )
        outcome = carving_measurement(state, template(), 0.0)
        assert outcome.herald_probability == pytest.approx(0.81, abs=1e-12)
        assert fidelity(outcome.post_state, state) == pytest.approx(1.0, abs=1e-12)

    def test_per_component_r_shared_by_translated_subsets(self):
        state = global_rotation(QubitRegister.ground(3), math.pi / 2)
        outcome = carving_measurement(state, template(3, xi=0.8), 0.2)
        r = outcome.per_component_r
        assert r.shape == (8,)
        # translated subsets share one amplitude; the spaced pair does not
        for group in (("100", "010", "001"), ("110", "011")):
            for bits in group[1:]:
                assert r[int(bits, 2)] == pytest.approx(r[int(group[0], 2)], abs=1e-13)
        assert abs(r[0b101] - r[0b110]) > 1e-3

    def test_masked_batch_matches_removal_route(self, rng):
        for m in range(1, 7):
            for _ in range(3):
                params = template(
                    m,
                    gamma_L=rng.uniform(0, 1),
                    g=rng.uniform(0, 50),
                    kappa_wg=rng.uniform(10, 300),
                    kappa_sc=rng.uniform(0, 400),
                    xi=rng.uniform(0, 2 * math.pi),
                )
                delta = rng.uniform(-3, 3)
                amps = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
                state = QubitRegister(m=m, amplitudes=amps / np.linalg.norm(amps))
                outcome = carving_measurement(state, params, delta)
                expected = np.array(
                    [component_reflection(format(i, f"0{m}b"), params, delta) for i in range(2**m)]
                )
                assert np.max(np.abs(outcome.per_component_r - expected)) <= 1e-13
                carved = state.amplitudes * expected
                assert np.allclose(
                    outcome.post_state.amplitudes, carved / np.linalg.norm(carved), atol=1e-13
                )

    @pytest.mark.parametrize("gamma_L, g, xi", BENCH_TEMPLATES)
    def test_doubled_batch_matches_removal_route_up_to_twelve(self, gamma_L, g, xi, rng):
        # every component up to M = 8, then 300 sampled components of M = 12
        delta = rng.uniform(-3, 3)
        for m in (*range(1, 9), 12):
            params = template(m, gamma_L=gamma_L, g=g, xi=xi)
            state = global_rotation(QubitRegister.ground(m), math.pi / 2)
            r = carving_measurement(state, params, delta).per_component_r
            rows = range(2**m) if m <= 8 else rng.choice(2**m, size=300, replace=False)
            expected = [component_reflection(format(i, f"0{m}b"), params, delta) for i in rows]
            assert np.max(np.abs(r[list(rows)] - expected)) <= 1e-13

    def test_dark_component_takes_degenerate_path(self, dark_point_calls):
        # gamma_L = 1/2, xi = 0, delta = 0: an adjacent coupled pair carries
        # an undriven, undamped subradiant mode and the fold meets D = 0
        params = template(3, gamma_L=0.5, xi=0.0)
        state = global_rotation(QubitRegister.ground(3), math.pi / 2)
        r = carving_measurement(state, params, 0.0).per_component_r
        # one call of the dark-point rule for the batch, holding both adjacent pairs
        assert len(dark_point_calls) == 1
        assert {0b110, 0b011} <= set(dark_point_calls[0])
        ode = relax_time_domain(params, DriveParams(), positions=[0, 1]).r
        for bits in ("110", "011"):
            assert r[int(bits, 2)] == pytest.approx(ode, abs=1e-8)

    def test_dark_register_of_twelve_matches_dense_oracle(self, dark_point_calls, monkeypatch):
        # nearly every component holds an adjacent coupled pair; the residue
        # of each stays ten times below the bound
        monkeypatch.setattr(solver, "_RESIDUE_TOL", solver._RESIDUE_TOL / 10)
        params = template(12, gamma_L=0.5, xi=0.0)
        state = global_rotation(QubitRegister.ground(12), math.pi / 2)
        r = carving_measurement(state, params, 0.0).per_component_r
        (flagged,) = dark_point_calls
        assert len(flagged) == 4083
        for i in flagged:
            sites = [k for k in range(12) if (i >> (11 - k)) & 1]
            sub = replace(params, n_atoms=len(sites))
            system = build_linear_system(sub, DriveParams(), positions=sites)
            assert abs(solve_steady_state(system, sub).r - r[i]) <= 1e-14

    def test_dark_register_of_twelve_takes_two_folds(self, fold_shapes, dark_point_calls):
        # the doubled fold, then one contour fold of the one batch point for all 4083 flagged rows
        state = global_rotation(QubitRegister.ground(12), math.pi / 2)
        carving_measurement(state, template(12, gamma_L=0.5, xi=0.0), 0.0)
        assert fold_shapes == [(1,), (1, 1, solver._K)]
        assert len(dark_point_calls[0]) == 4083

    def test_batch_of_one_bit_identical_inside_batch(self):
        # with every atom coupled the masked matrix is the full system itself
        params = template(4, gamma_L=0.8, xi=0.9)
        state = global_rotation(QubitRegister.ground(4), math.pi / 2)
        r = carving_measurement(state, params, 0.37).per_component_r
        assert r[0b1111] == reflection_amplitude(params, DriveParams(delta=0.37))

    def test_extinguished_when_every_component_absorbed(self):
        # kappa_wg = kappa_sc and g = 0 puts every component exactly at
        # the impedance-matched zero of the bare cavity
        state = global_rotation(QubitRegister.ground(2), math.pi / 2)
        params = template(g=0.0, kappa_wg=200.0, kappa_sc=200.0)
        assert abs(r_no_atoms(0.0, 200.0, 200.0)) == 0.0
        with pytest.raises(ProtocolExtinguishedError):
            carving_measurement(state, params, 0.0)


class TestFidelity:
    def test_identical_states(self):
        reg = QubitRegister.w_state(3)
        assert fidelity(reg, reg) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_states(self):
        a = QubitRegister.from_bits("01")
        b = QubitRegister.from_bits("10")
        assert fidelity(a, b) == 0.0

    def test_global_phase_invariant(self):
        reg = QubitRegister.w_state(2)
        shifted = QubitRegister(m=2, amplitudes=np.exp(0.7j) * reg.amplitudes)
        assert fidelity(shifted, reg) == pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            fidelity(QubitRegister.ground(2), QubitRegister.ground(3))


class TestPlanProtocol:
    @pytest.mark.parametrize("gamma_L, g, xi", [*BENCH_TEMPLATES, (0.8, 20.0, 0.9)])
    def test_plan_equals_steps_from_per_count_dip_searches(self, gamma_L, g, xi):
        # the one prefix fold against one dip search per odd count, bit for bit;
        # make_system's default is the first benchmark template
        dips = {}
        for m in range(2, 13):
            params = template(m, gamma_L=gamma_L, g=g, xi=xi)
            for n in range(3, m + 1, 2):
                dips.setdefault(n, spectrum._dips(params, [n])[0])
            for sign in (1, -1):
                steps = [0.0]
                for n in range(3, m + 1, 2):
                    deltas, depths = dips[n]
                    side = [k for k, d in enumerate(deltas) if d * sign > 0] or range(len(deltas))
                    steps.append(deltas[min(side, key=lambda k: depths[k])])
                plan = np.array(plan_protocol(m, params, dip_sign=sign).steps)
                assert plan.view(np.uint64).tolist() == np.array(steps).view(np.uint64).tolist()

    def test_bell_plan_single_resonant_step(self, base_params):
        plan = plan_protocol(2, base_params)
        assert plan.steps == (0.0,)
        assert plan.target == "bell"

    def test_three_atom_plan(self):
        plan = plan_protocol(3, template(3))
        assert len(plan.steps) == 2
        assert plan.steps[0] == 0.0
        assert plan.steps[1] == pytest.approx(+0.2886064, abs=1e-4)
        assert plan.target == "w"

    def test_dip_sign_selects_branch(self):
        plan = plan_protocol(3, template(3), dip_sign=-1)
        assert plan.steps[1] == pytest.approx(-0.2886064, abs=1e-4)

    @pytest.mark.parametrize("m,count", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 3)])
    def test_step_count_formula(self, m, count):
        plan = plan_protocol(m, template(m))
        assert len(plan.steps) == count

    def test_minimum_register(self, base_params):
        with pytest.raises(ValidationError):
            plan_protocol(1, base_params)

    def test_maximum_register(self, base_params):
        with pytest.raises(ValidationError, match=r"^register size must be <= 12$"):
            plan_protocol(13, base_params)


class TestRunProtocol:
    def test_bell_single_shot(self):
        result = run_protocol(2, template())
        assert result.cumulative_herald_probability == pytest.approx(0.53, abs=1e-10)
        assert result.fidelity_vs_step[-1] == pytest.approx(81 / 106, abs=1e-10)

    def test_bell_two_repetitions(self):
        result = run_protocol(2, template(), repetitions_per_step=2)
        assert result.fidelity_vs_step[-1] == pytest.approx(0.9130253270, abs=1e-9)
        assert result.cumulative_herald_probability == pytest.approx(0.3593, abs=1e-10)

    def test_bell_fidelity_strictly_increasing_to_unity(self):
        result = run_protocol(2, template(), repetitions_per_step=10)
        fids = result.fidelity_vs_step
        assert all(b > a for a, b in zip(fids, fids[1:]))
        assert any(f > 0.99 for f in fids)
        # closed-form check: fid_k = 1 / (1 + (5/9)^(2k))
        for k, fid in enumerate(fids, start=1):
            assert fid == pytest.approx(1.0 / (1.0 + (5 / 9) ** (2 * k)), abs=1e-10)

    def test_heralds_multiply_and_decrease(self):
        result = run_protocol(2, template(), repetitions_per_step=5)
        cumulative = [rec.cumulative_probability for rec in result.trace]
        heralds = [rec.herald_probability for rec in result.trace]
        assert all(0 < p <= 1 for p in heralds)
        product = 1.0
        for herald, cum in zip(heralds, cumulative):
            product *= herald
            assert cum == pytest.approx(product, rel=1e-12)
        assert all(b < a for a, b in zip(cumulative, cumulative[1:]))

    def test_w_state_three_atoms(self):
        result = run_protocol(3, template(3), repetitions_per_step=6)
        state = result.final_state
        support = sum(
            abs(state.amplitude(bits)) ** 2 for bits in ("100", "010", "001")
        )
        assert support > 0.99
        mags = [abs(state.amplitude(bits)) for bits in ("100", "010", "001")]
        assert max(mags) - min(mags) < 1e-9
        assert result.fidelity_vs_step[-1] == pytest.approx(support, abs=1e-12)

    def test_trace_rows_follow_plan(self):
        result = run_protocol(3, template(3), repetitions_per_step=2)
        assert [rec.step for rec in result.trace] == [1, 2, 3, 4]
        assert result.trace[0].delta == 0.0
        assert result.trace[2].delta == pytest.approx(0.2886064, abs=1e-4)

    def test_invalid_repetitions(self, base_params):
        with pytest.raises(ValidationError):
            run_protocol(2, base_params, repetitions_per_step=0)

    @pytest.mark.parametrize("m", [2, 5])
    def test_plan_for_another_register_size_rejected(self, m):
        plan = plan_protocol(3, template(3))
        with pytest.raises(ValidationError, match="plan was made for 3 atoms"):
            run_protocol(m, template(m), plan=plan)

    def test_plan_for_the_same_register_size_accepted(self):
        plan = plan_protocol(3, template(3))
        assert run_protocol(3, template(3), plan=plan).plan is plan

    def test_either_dip_branch_works_equally(self, capsys):
        """Exploratory: the W protocol may probe the positive or the
        negative three-atom dip; compare both choices."""
        results = {
            sign: run_protocol(3, template(3), repetitions_per_step=4, dip_sign=sign)
            for sign in (+1, -1)
        }
        fid_plus = results[+1].fidelity_vs_step[-1]
        fid_minus = results[-1].fidelity_vs_step[-1]
        print(
            f"dip-branch report: fidelity {fid_plus:.10f} (+) vs {fid_minus:.10f} (-), "
            f"herald {results[+1].cumulative_herald_probability:.6e} (+) vs "
            f"{results[-1].cumulative_herald_probability:.6e} (-)"
        )
        # the spectrum is delta-symmetric at xi = n pi, so one suffices
        assert fid_plus == pytest.approx(fid_minus, abs=1e-12)
        assert results[+1].cumulative_herald_probability == pytest.approx(
            results[-1].cumulative_herald_probability, abs=1e-12
        )


class TestRegisterInputs:
    def test_list_amplitudes_stored_as_complex_array(self):
        reg = QubitRegister(m=2, amplitudes=[1, 0, 0, 0])
        assert reg.amplitudes.dtype == complex
        assert reg.amplitude("00") == 1.0


class TestOneSolvePerPlannedDetuning:
    def test_one_kernel_call_per_protocol(self, monkeypatch):
        from chiralcav import carving

        calls = []
        kernel = carving._reflection

        def counting(*args, **kw):
            calls.append(list(args[1]))
            return kernel(*args, **kw)

        plan = plan_protocol(5, template(5))
        monkeypatch.setattr(carving, "_reflection", counting)
        run_protocol(5, template(5), repetitions_per_step=3, plan=plan)
        assert calls == [list(plan.steps)]

    @pytest.mark.parametrize("m, folds", [(5, [(1, 3)]), (11, [(1, 4), (1, 2)]), (12, [(1, 2)] * 3)])
    def test_row_budget_bounds_each_subset_fold(self, m, folds, fold_shapes):
        from chiralcav import carving

        plan = plan_protocol(m, template(m))
        fold_shapes.clear()
        run_protocol(m, template(m), plan=plan)
        assert fold_shapes == folds
        assert all(shape[1] <= max(carving.ROWS >> m, 1) for shape in fold_shapes)

    @pytest.mark.parametrize("m", [2, 12])
    def test_dark_subset_fold_columns_equal_measurements(self, m, dark_point_calls):
        # flagged rows of a (2^M, steps) batch go through the dark-point rule
        params = template(m, gamma_L=0.5, xi=0.0)
        deltas = [0.0, 0.37]
        r = solver._reflection(params, np.array(deltas), positions=np.arange(m), subsets=True)
        assert r.shape == (2**m, 2) and len(dark_point_calls) == 1
        state = global_rotation(QubitRegister.ground(m), math.pi / 2)
        for k, delta in enumerate(deltas):
            column = carving_measurement(state, params, delta).per_component_r
            assert r[:, k].tobytes() == column.tobytes()

    @pytest.mark.parametrize("m,reps", [(2, 4), (3, 3), (5, 2), (6, 3), (10, 1), (11, 1), (12, 1)])
    def test_trace_equals_a_loop_of_measurements(self, m, reps):
        params = template(m, gamma_L=0.8, xi=0.4)
        result = run_protocol(m, params, repetitions_per_step=reps)
        target = QubitRegister.w_state(m)
        state = global_rotation(QubitRegister.ground(m), math.pi / 2)
        cumulative = 1.0
        expected = []
        for delta in result.plan.steps:
            for _ in range(reps):
                outcome = carving_measurement(state, params, delta)
                state = outcome.post_state
                cumulative *= outcome.herald_probability
                expected.append(
                    (delta, outcome.herald_probability, cumulative, fidelity(state, target))
                )
        got = [
            (rec.delta, rec.herald_probability, rec.cumulative_probability, rec.fidelity)
            for rec in result.trace
        ]
        assert got == expected
        assert [rec.step for rec in result.trace] == list(range(1, len(expected) + 1))
        assert result.fidelity_vs_step == tuple(row[3] for row in expected)
        assert np.array_equal(result.final_state.amplitudes, state.amplitudes)

    def test_invalid_template_rejected_before_any_measurement(self, monkeypatch):
        from chiralcav import carving

        def no_measurement(*_args, **_kw):
            raise AssertionError("measurement started")

        plan = plan_protocol(3, template(3))
        monkeypatch.setattr(carving, "_reflection", no_measurement)
        with pytest.raises(ValidationError):
            run_protocol(3, make_system(n=3, gamma_L=1.5), plan=plan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "0.1", None])
    def test_invalid_plan_step_rejected_before_any_measurement(self, bad, monkeypatch):
        from chiralcav import carving

        def no_measurement(*_args, **_kw):
            raise AssertionError("measurement started")

        plan = carving.ProtocolPlan(steps=(0.0, bad), m=3)
        monkeypatch.setattr(carving, "_reflection", no_measurement)
        with pytest.raises(ValidationError, match="delta"):
            run_protocol(3, template(3), plan=plan)
