import dataclasses
import inspect
import math

import numpy as np
import pytest

from chiralcav import (
    ChiralCavError,
    DriveParams,
    ProtocolPlan,
    QubitRegister,
    Spectrum,
    ValidationError,
    build_linear_system,
    carving_measurement,
    component_reflection,
    cooperativity,
    dip_detunings,
    fidelity,
    figure_data,
    find_features,
    global_rotation,
    plan_protocol,
    r_no_atoms,
    r_two_atoms,
    reference_values,
    reflection_amplitude,
    reflectivity,
    reflectivity_batch,
    relax_time_domain,
    run_protocol,
    solve_steady_state,
    sweep_2d,
    sweep_delta,
    validate,
)
from chiralcav.params import require_valid
from chiralcav.tables import DataTable, fmt, parse_csv, render_csv, render_json, write_table
from helpers import make_system

TABLE = DataTable(name="demo", columns=("x",), rows=np.zeros((1, 1)))
SPECTRUM = sweep_delta(make_system(), -3.0, 3.0, 401)


@pytest.mark.parametrize(
    "call",
    [
        lambda tmp: Spectrum(make_system(), np.array([0.0, 0.0]), np.zeros(2)),
        lambda tmp: cooperativity(make_system(kappa_wg=0.0, kappa_sc=0.0)),
        lambda tmp: reference_values(C=-1.0, kappa_wg=100.0, kappa=400.0),
        lambda tmp: write_table(TABLE, tmp / "demo.xml", "xml"),
        lambda tmp: parse_csv("# only = meta\n"),
        lambda tmp: QubitRegister(m=2, amplitudes=[1, 0, 0]),
        lambda tmp: QubitRegister(m=2, amplitudes=[1, 0, np.nan, 0]),
        lambda tmp: QubitRegister(m=1, amplitudes=[1, np.inf]),
        lambda tmp: QubitRegister(m=2, amplitudes=np.zeros(4)).normalized(),
        lambda tmp: global_rotation(QubitRegister.ground(2), np.nan),
        lambda tmp: global_rotation(QubitRegister.ground(2), 1.0, phi=np.inf),
        lambda tmp: reflectivity_batch(make_system(), np.zeros(3), positions=[0, np.inf]),
        lambda tmp: build_linear_system(make_system(), DriveParams(), positions=[0, np.nan]),
        lambda tmp: reflection_amplitude(make_system(), DriveParams(), positions=[[0, 1]]),
        lambda tmp: reflectivity(make_system(), DriveParams(), positions=[0, np.nan]),
        lambda tmp: relax_time_domain(make_system(), DriveParams(), positions=[0, np.inf]),
        lambda tmp: reflectivity(make_system(), DriveParams(), positions=["a", "b"]),
        lambda tmp: require_valid(make_system(g=1e155)),
        lambda tmp: reflectivity_batch(make_system(g=1e155), 0.0),
        lambda tmp: require_valid(make_system(n=math.nan)),
        lambda tmp: plan_protocol(2.5, make_system()),
        lambda tmp: run_protocol(2.5, make_system()),
        lambda tmp: run_protocol(2, make_system(), repetitions_per_step=1.5),
        lambda tmp: run_protocol(3, make_system(n=3), plan="x"),
        lambda tmp: run_protocol(3, make_system(n=3), plan=ProtocolPlan(steps=(), m=3)),
        lambda tmp: sweep_delta(make_system(), -1.0, 1.0, 10.5),
        lambda tmp: dip_detunings(make_system(), 2.5),
        lambda tmp: Spectrum(make_system(), np.array([0.0, 1.0]), np.zeros(3)),
        lambda tmp: Spectrum(make_system(), np.linspace(0.0, 1.0, 3), np.zeros((3, 1))),
        lambda tmp: Spectrum(make_system(), np.array([[0.0, 1.0, 2.0]]), np.zeros((1, 3))),
        lambda tmp: reflectivity(make_system(n=3), DriveParams(), positions=[0, 0, 1]),
        lambda tmp: reflectivity_batch(make_system(n=3), 0.0, positions=[0, 0, 1]),
        lambda tmp: build_linear_system(make_system(n=3), DriveParams(), positions=[0, 0, 1]),
        lambda tmp: relax_time_domain(make_system(n=3), DriveParams(), positions=[0, 0, 1]),
        lambda tmp: component_reflection((1, 0, 1), make_system(n=3), 0.0),
        lambda tmp: QubitRegister.from_bits("012"),
        lambda tmp: QubitRegister.from_bits("1_0"),
        lambda tmp: QubitRegister.from_bits(""),
        lambda tmp: QubitRegister.from_bits("1" * 64),
        lambda tmp: QubitRegister.ground(64),
        lambda tmp: QubitRegister.w_state(64),
        lambda tmp: QubitRegister.w_state(3).amplitude("1"),
        lambda tmp: QubitRegister.w_state(3).amplitude("1111"),
        lambda tmp: QubitRegister.w_state(3).amplitude(" 10"),
        lambda tmp: component_reflection("1x1", make_system(n=3), 0.0),
        lambda tmp: component_reflection((1, 0), make_system(), 0.0),
        lambda tmp: component_reflection(b"10", make_system(), 0.0),
        lambda tmp: find_features(SPECTRUM, math.nan),
        lambda tmp: find_features(SPECTRUM, -1e-3),
        lambda tmp: fmt(1.5, 0),
        lambda tmp: fmt(1.5, -1),
        lambda tmp: fmt(1.5, 2.5),
        lambda tmp: render_csv(TABLE, 0),
        lambda tmp: render_json(TABLE, 0),
        lambda tmp: render_json(TABLE, -1),
        lambda tmp: write_table(TABLE, tmp / "demo.csv", "csv", 0),
        lambda tmp: write_table(TABLE, tmp / "demo.json", "json", -1),
        # a complex grid must not lose its imaginary part (a ComplexWarning is an error here)
        lambda tmp: reflectivity_batch(make_system(), None),
        lambda tmp: reflectivity_batch(make_system(), 0.1j),
        lambda tmp: reflectivity_batch(make_system(), [0.1, 0.2j]),
        lambda tmp: reflectivity_batch(make_system(), 0.0, xi=0.1j),
        lambda tmp: reflectivity_batch(make_system(), 0.0, gamma_L=0.5 + 0j),
        lambda tmp: reflectivity_batch(make_system(), "a"),
        lambda tmp: reflectivity_batch(make_system(), ["0.1"]),
        lambda tmp: reflectivity_batch(make_system(), 0.0, xi=[None]),
        lambda tmp: reflectivity_batch(make_system(), [[0.1], [0.2, 0.3]]),
        lambda tmp: reflectivity_batch(make_system(), np.zeros(3), gamma_L=np.full(2, 0.5)),
        lambda tmp: reflectivity_batch(make_system(), np.zeros(3), xi=np.zeros((2, 2))),
        lambda tmp: reflectivity_batch(make_system(), 0.0, positions=[0.0, 1j]),
        lambda tmp: sweep_2d(make_system(), [0.1j], [0.5]),
        lambda tmp: sweep_2d(make_system(), [0.1], ["a"]),
        lambda tmp: sweep_2d(make_system(), None, [0.5]),
        lambda tmp: sweep_2d(make_system(), 0.1, [0.5]),
        lambda tmp: make_system(xi=None),
        lambda tmp: make_system(xi="a"),
        lambda tmp: make_system(xi=0.1j),
        lambda tmp: make_system(gamma_L="a"),
        lambda tmp: DriveParams(delta=0.1j),
        lambda tmp: DriveParams(delta="a"),
        lambda tmp: DriveParams(delta=None),
        lambda tmp: DriveParams(delta=0.1, delta_c=0.1j, unlock_delta_c=True),
        lambda tmp: sweep_delta(make_system(), 1j, 2.0, 10),
        lambda tmp: sweep_delta(make_system(), "0", 2.0, 10),
        lambda tmp: sweep_delta(make_system(), [0.0], [2.0], 10),
        lambda tmp: global_rotation(QubitRegister.ground(2), "a"),
        lambda tmp: global_rotation(QubitRegister.ground(2), 1.0, phi=None),
        lambda tmp: find_features(SPECTRUM, "a"),
        lambda tmp: find_features(SPECTRUM, None),
        lambda tmp: relax_time_domain(make_system(), DriveParams(), t_max="x"),
        lambda tmp: relax_time_domain(make_system(), DriveParams(), t_max=math.nan),
        lambda tmp: relax_time_domain(make_system(), DriveParams(), t_max=math.inf),
        lambda tmp: reference_values(math.nan, 100.0, 400.0),
        lambda tmp: reference_values("a", 100.0, 400.0),
        lambda tmp: reference_values(4.0, 100.0, 0.0),
        lambda tmp: Spectrum(make_system(), np.array([0.0, math.nan]), np.array([0.0, 1.0])),
        lambda tmp: Spectrum(make_system(), "ab", np.array([0.0, 1.0])),
        lambda tmp: Spectrum(make_system(), np.array([0.0, 1.0]), ["a", "b"]),
        lambda tmp: r_no_atoms(math.nan, 100.0, 300.0),
        lambda tmp: r_no_atoms(math.inf, 100.0, 300.0),
        lambda tmp: r_no_atoms("a", 100.0, 300.0),
        lambda tmp: r_no_atoms(0.0, math.nan, 300.0),
        lambda tmp: r_no_atoms(0.0, 100.0, "a"),
        lambda tmp: r_two_atoms(math.nan, make_system()),
        lambda tmp: r_two_atoms(math.inf, make_system()),
        lambda tmp: r_two_atoms("a", make_system()),
        lambda tmp: r_two_atoms(None, make_system()),
        # a non-SystemParams argument is refused before any of its fields is read
        lambda tmp: require_valid("x"),
        lambda tmp: reflectivity_batch("x", 0.0),
        lambda tmp: reflectivity("x", DriveParams()),
        lambda tmp: reflection_amplitude(None, DriveParams()),
        lambda tmp: build_linear_system("x", DriveParams()),
        lambda tmp: solve_steady_state(build_linear_system(make_system(), DriveParams()), "x"),
        lambda tmp: relax_time_domain("x", DriveParams()),
        lambda tmp: sweep_delta("x", -1.0, 1.0, 10),
        lambda tmp: sweep_2d("x", [0.0], [0.5]),
        lambda tmp: find_features(Spectrum("x", np.array([0.0, 1.0]), np.zeros(2))),
        lambda tmp: dip_detunings("x", 3),
        lambda tmp: plan_protocol(3, "x"),
        lambda tmp: run_protocol(3, "x"),
        lambda tmp: carving_measurement(QubitRegister.ground(2), "x", 0.0),
        lambda tmp: component_reflection("10", "x", 0.0),
        lambda tmp: cooperativity("x"),
        lambda tmp: r_two_atoms(0.0, "x"),
        lambda tmp: QubitRegister(m=2, amplitudes="abcd"),
        lambda tmp: QubitRegister(m=2, amplitudes=[[1, 0], [0]]),
        # a value argument of the wrong type is refused before any of its fields is read
        lambda tmp: reflectivity(make_system(), "x"),
        lambda tmp: reflection_amplitude(make_system(), "x"),
        lambda tmp: build_linear_system(make_system(), "x"),
        lambda tmp: relax_time_domain(make_system(), "x"),
        lambda tmp: carving_measurement("x", make_system(), 0.0),
        lambda tmp: fidelity("x", QubitRegister.ground(2)),
        lambda tmp: fidelity(QubitRegister.ground(2), "x"),
        lambda tmp: global_rotation("x", 1.0),
        lambda tmp: find_features("x"),
        lambda tmp: solve_steady_state("x", make_system()),
        lambda tmp: render_csv("x"),
        lambda tmp: render_json("x"),
        lambda tmp: write_table("x", tmp / "demo.csv"),
        lambda tmp: figure_data([]),
        lambda tmp: Spectrum("x", np.array([0.0, 1.0]), np.zeros(2)),
    ],
    ids=[
        "spectrum-grid",
        "cooperativity",
        "reference-values",
        "write-format",
        "parse-header",
        "register-list-length",
        "register-nan",
        "register-inf",
        "register-zero-norm",
        "rotation-nan-theta",
        "rotation-inf-phi",
        "batch-positions-inf",
        "build-positions-nan",
        "amplitude-positions-2d",
        "reflectivity-positions-nan",
        "relax-positions-inf",
        "positions-not-numbers",
        "cooperativity-overflow-valid",
        "cooperativity-overflow-batch",
        "n-atoms-nan",
        "plan-m-float",
        "run-m-float",
        "run-repetitions-float",
        "run-plan-string",
        "run-plan-empty",
        "sweep-points-float",
        "dip-count-float",
        "spectrum-length",
        "spectrum-values-2d",
        "spectrum-deltas-2d",
        "reflectivity-positions-repeated",
        "batch-positions-repeated",
        "build-positions-repeated",
        "relax-positions-repeated",
        "component-sites-repeated",
        "from-bits-digit-2",
        "from-bits-underscore",
        "from-bits-empty",
        "from-bits-64",
        "ground-64",
        "w-state-64",
        "amplitude-bits-short",
        "amplitude-bits-long",
        "amplitude-bits-space",
        "component-bits-letter",
        "component-bits-tuple",
        "component-bits-bytes",
        "features-prominence-nan",
        "features-prominence-negative",
        "fmt-digits-0",
        "fmt-digits-negative",
        "fmt-digits-float",
        "csv-digits-0",
        "json-digits-0",
        "json-digits-negative",
        "write-csv-digits-0",
        "write-json-digits-negative",
        "batch-delta-none",
        "batch-delta-complex",
        "batch-delta-complex-entry",
        "batch-xi-complex",
        "batch-gamma-l-complex",
        "batch-delta-string",
        "batch-delta-numeric-string",
        "batch-xi-none-entry",
        "batch-delta-ragged",
        "batch-gamma-l-shape",
        "batch-xi-shape",
        "batch-positions-complex",
        "map-xi-complex",
        "map-gamma-l-string",
        "map-xi-none",
        "map-xi-scalar",
        "system-xi-none",
        "system-xi-string",
        "system-xi-complex",
        "system-gamma-l-string",
        "drive-delta-complex",
        "drive-delta-string",
        "drive-delta-none",
        "drive-delta-c-complex",
        "sweep-delta-min-complex",
        "sweep-delta-min-string",
        "sweep-delta-bounds-arrays",
        "rotation-theta-string",
        "rotation-phi-none",
        "features-prominence-string",
        "features-prominence-none",
        "relax-t-max-string",
        "relax-t-max-nan",
        "relax-t-max-inf",
        "reference-values-nan",
        "reference-values-string",
        "reference-values-kappa-zero",
        "spectrum-deltas-nan",
        "spectrum-deltas-string",
        "spectrum-values-string",
        "r-no-atoms-delta-nan",
        "r-no-atoms-delta-inf",
        "r-no-atoms-delta-string",
        "r-no-atoms-kappa-wg-nan",
        "r-no-atoms-kappa-sc-string",
        "r-two-atoms-delta-nan",
        "r-two-atoms-delta-inf",
        "r-two-atoms-delta-string",
        "r-two-atoms-delta-none",
        "require-valid-not-params",
        "batch-not-params",
        "reflectivity-not-params",
        "amplitude-params-none",
        "build-not-params",
        "solve-not-params",
        "relax-not-params",
        "sweep-not-params",
        "map-not-params",
        "features-not-params",
        "dip-not-params",
        "plan-not-params",
        "run-not-params",
        "carve-not-params",
        "component-not-params",
        "cooperativity-not-params",
        "r-two-atoms-not-params",
        "register-amplitudes-string",
        "register-amplitudes-ragged",
        "reflectivity-drive-string",
        "amplitude-drive-string",
        "build-drive-string",
        "relax-drive-string",
        "carve-state-string",
        "fidelity-state-string",
        "fidelity-target-string",
        "rotation-state-string",
        "features-spectrum-string",
        "solve-system-string",
        "csv-table-string",
        "json-table-string",
        "write-table-string",
        "figure-id-list",
        "spectrum-not-params",
    ],
)
def test_invalid_input_raises_package_error(call, tmp_path):
    with pytest.raises(ChiralCavError) as info:
        call(tmp_path)
    assert isinstance(info.value, ValidationError)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "func, name",
    [
        (relax_time_domain, "dt"),
        (relax_time_domain, "tol"),
        (dip_detunings, "span"),
        (dip_detunings, "prominence_min"),
        (dip_detunings, "n_points"),
        (build_linear_system, "independent_atoms"),
        (reflection_amplitude, "independent_atoms"),
        (reflectivity, "independent_atoms"),
        (reflectivity_batch, "independent_atoms"),
        (relax_time_domain, "independent_atoms"),
    ],
)
def test_no_tuning_knob(func, name):
    # the step, tolerances and dip window are module rules, not arguments; mutually
    # uncoupled atoms are one atom with coupling g sqrt(N), not an option
    assert name not in inspect.signature(func).parameters


@pytest.mark.parametrize(
    "cls, name", [(DriveParams, "a_in"), (ProtocolPlan, "target"), (Spectrum, "features")]
)
def test_no_field_the_library_determines(cls, name):
    # the unit drive, the register size and find_features fix these values
    assert name not in [field.name for field in dataclasses.fields(cls)]


def test_cooperativity_overflow_is_inf_and_reported():
    params = make_system(g=1e155)
    assert cooperativity(params) == math.inf
    assert validate(params).violations == ("4 g^2 / kappa must be finite",)
    assert cooperativity(make_system(g=20.0)) == 4.0 * 20.0**2 / 400.0


@pytest.mark.parametrize(
    "overrides, violations",
    [
        ({"g": math.inf}, ("g must be finite",)),
        ({"g": -1e155}, ("g must be >= 0",)),
        ({"g": 1e155, "kappa_wg": 0.0}, ("kappa_wg must be > 0",)),
    ],
)
def test_cooperativity_rule_only_after_the_rates_pass(overrides, violations):
    assert validate(make_system(**overrides)).violations == violations


@pytest.mark.parametrize(
    "name, value",
    [(name, value) for name in ("gamma_L", "g", "kappa_wg", "kappa_sc") for value in ("a", None, 0.1j, [1.0])],
)
def test_validate_reports_a_non_real_field(name, value):
    message = f"{name} must be a real number"
    if name == "gamma_L":  # SystemParams rejects it itself, before validate
        with pytest.raises(ValidationError, match=message):
            make_system(gamma_L=value)
    else:
        assert validate(make_system(**{name: value})).violations == (message,)


@pytest.mark.parametrize(
    "value", ["x", None, DriveParams(), {"g": 20.0}], ids=["string", "none", "drive", "dict"]
)
def test_validate_reports_a_non_params_argument(value):
    assert validate(value).violations == ("params must be a SystemParams",)


@pytest.mark.parametrize("value", ["x", 0.1j, [1.0], math.nan, math.inf, -3.0, 0.0])
def test_validate_reports_a_bad_gamma_mhz(value):
    params = make_system(gamma_mhz=value)
    assert validate(params).violations == ("gamma_mhz must be a finite positive number",)


def test_real_inputs_keep_their_values():
    params = make_system(n=3, gamma_L=np.float64(0.8), g=20, xi=np.array(0.5))
    assert validate(params).ok
    assert (params.gamma_L, params.gamma_R, params.g) == (0.8, 1.0 - 0.8, 20)
    drive = DriveParams(delta=np.array(0.25))
    assert drive.delta == drive.delta_c == 0.25
    R = reflectivity_batch(params, np.array([-1.0, 0.0, 1.0]), gamma_L=np.array([[0.0], [1.0]]))
    same = reflectivity_batch(params, [-1, 0, 1], gamma_L=[[False], [True]])
    assert R.view(np.uint64).tolist() == same.view(np.uint64).tolist()


def test_integral_float_counts_behave_like_ints():
    params = make_system()
    spec = sweep_delta(params, -1.0, 1.0, 11.0)
    assert np.array_equal(spec.values, sweep_delta(params, -1.0, 1.0, 11).values)
    assert dip_detunings(make_system(n=3), 3.0) == dip_detunings(make_system(n=3), 3)
    assert plan_protocol(3.0, params) == plan_protocol(3, params)
    result = run_protocol(3.0, params, repetitions_per_step=2.0)
    assert result.trace == run_protocol(3, params, repetitions_per_step=2).trace
    register = QubitRegister(m=2.0, amplitudes=np.ones(4))
    assert register.m == 2 and isinstance(register.m, int)
    assert global_rotation(register, 1.0).m == 2
