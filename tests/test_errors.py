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
    SteadyState,
    SystemParams,
    ValidationError,
    ValidationReport,
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
from chiralcav.tables import DataTable, fmt, parse_csv, read_table, render_csv, render_json, write_table
from helpers import make_system

TABLE = DataTable(name="demo", columns=("x",), rows=np.zeros((1, 1)))
WIDE = DataTable("x", ("a", "b"), np.array([[1.0, 2.0, 3.0]]))
JSON_FEATURE = (
    '{"columns": ["a"], "rows": [[1.0]], "features": [{"kind": "dip", "delta": 0.5, "value": 0.1, "width": 0.2}]}'
)


def read_back(tmp, name, text):
    """read_table of ``text`` (str or bytes) in the file ``name``, which is removed
    again: the table's test checks that no file is left behind."""
    path = tmp / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    try:
        return read_table(path)
    finally:
        path.unlink()


@pytest.mark.parametrize(
    "call",
    [
        lambda tmp: Spectrum(make_system(), np.array([0.0, 0.0]), np.zeros(2)),
        lambda tmp: cooperativity(make_system(kappa_wg=0.0, kappa_sc=0.0)),
        lambda tmp: reference_values(C=-1.0, kappa_wg=100.0, kappa=400.0),
        lambda tmp: write_table(TABLE, tmp / "demo.xml", "xml"),
        lambda tmp: parse_csv("# only = meta\n"),
        lambda tmp: parse_csv("a,b\n1,x\n"),
        lambda tmp: parse_csv("a\n1\n# feature,dip,0.5,0.1\n"),
        lambda tmp: parse_csv("a,b\n1,2\n3,4,5\n"),
        lambda tmp: parse_csv("a,b\n1\n"),
        lambda tmp: read_back(tmp, "demo.json", '{"name": "demo", "rows": [[1.0]]}'),
        lambda tmp: read_back(tmp, "demo.json", "a,b\n1,2\n"),
        lambda tmp: read_back(tmp, "demo.json", "[1, 2]"),
        lambda tmp: read_back(tmp, "demo.json", '{"columns": ["a", "b"], "rows": [[1.0, 2.0], [3.0]]}'),
        lambda tmp: read_back(tmp, "demo.csv", b"# note = \xb5m\na\n1\n"),
        lambda tmp: QubitRegister(m=2, amplitudes=[1, 0, 0]),
        lambda tmp: QubitRegister(m=2, amplitudes=[1, 0, np.nan, 0]),
        lambda tmp: QubitRegister(m=1, amplitudes=[1, np.inf]),
        lambda tmp: QubitRegister(m=2, amplitudes=np.zeros(4)).normalized(),
        lambda tmp: global_rotation(QubitRegister.ground(2), np.nan),
        lambda tmp: global_rotation(QubitRegister.ground(2), 1.0, phi=np.inf),
        lambda tmp: build_linear_system(make_system(), DriveParams(), positions=[0, np.nan]),
        lambda tmp: build_linear_system(make_system(), DriveParams(), positions=[[0, 1]]),
        lambda tmp: relax_time_domain(make_system(), DriveParams(), positions=[0, np.inf]),
        lambda tmp: build_linear_system(make_system(), DriveParams(), positions=[0, np.inf]),
        lambda tmp: relax_time_domain(make_system(), DriveParams(), positions=[0, np.nan]),
        lambda tmp: relax_time_domain(make_system(), DriveParams(), positions=[[0, 1]]),
        lambda tmp: build_linear_system(make_system(), DriveParams(), positions=["a", "b"]),
        lambda tmp: require_valid(make_system(g=1e155)),
        lambda tmp: reflectivity_batch(make_system(g=1e155), 0.0),
        lambda tmp: require_valid(make_system(n=math.nan)),
        lambda tmp: plan_protocol(2.5, make_system()),
        lambda tmp: run_protocol(2.5, make_system()),
        lambda tmp: run_protocol(2, make_system(), repetitions_per_step=1.5),
        lambda tmp: run_protocol(3, make_system(n=3), plan="x"),
        lambda tmp: run_protocol(3, make_system(n=3), plan=ProtocolPlan(steps=(), m=3)),
        lambda tmp: run_protocol(3, make_system(n=3), plan=ProtocolPlan(steps=None, m=3)),
        lambda tmp: run_protocol(3, make_system(n=3), plan=ProtocolPlan(steps=5, m=3)),
        lambda tmp: run_protocol(3, make_system(n=3), plan=ProtocolPlan(steps=iter((0.0,)), m=3)),
        lambda tmp: sweep_delta(make_system(), -1.0, 1.0, 10.5),
        lambda tmp: dip_detunings(make_system(), 2.5),
        lambda tmp: Spectrum(make_system(), np.array([0.0, 1.0]), np.zeros(3)),
        lambda tmp: Spectrum(make_system(), np.linspace(0.0, 1.0, 3), np.zeros((3, 1))),
        lambda tmp: Spectrum(make_system(), np.array([[0.0, 1.0, 2.0]]), np.zeros((1, 3))),
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
        lambda tmp: fmt(1.5, 0),
        lambda tmp: fmt(1.5, -1),
        lambda tmp: fmt(1.5, 2.5),
        lambda tmp: render_csv(TABLE, 0),
        lambda tmp: render_json(TABLE, 0),
        lambda tmp: render_json(TABLE, -1),
        lambda tmp: write_table(TABLE, tmp / "demo.csv", "csv", 0),
        lambda tmp: write_table(TABLE, tmp / "demo.json", "json", -1),
        lambda tmp: write_table(TABLE, tmp / "demo.csv", ["csv"]),
        lambda tmp: fmt("a"),
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
        lambda tmp: build_linear_system(make_system(), DriveParams(), positions=[0.0, 1j]),
        lambda tmp: relax_time_domain(make_system(), DriveParams(), positions=[0.0, 1j]),
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
        lambda tmp: sweep_delta(make_system(), 1j, 2.0, 10),
        lambda tmp: sweep_delta(make_system(), "0", 2.0, 10),
        lambda tmp: sweep_delta(make_system(), [0.0], [2.0], 10),
        lambda tmp: global_rotation(QubitRegister.ground(2), "a"),
        lambda tmp: global_rotation(QubitRegister.ground(2), 1.0, phi=None),
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
        # a JSON table holds a list of column names, rows and features of numbers, and a meta object
        lambda tmp: read_back(tmp, "demo.json", '{"columns": ["a", "b"], "rows": ["12"]}'),
        lambda tmp: read_back(tmp, "demo.json", '{"columns": "ab", "rows": [[1.0, 2.0]]}'),
        lambda tmp: read_back(tmp, "demo.json", JSON_FEATURE.replace('"delta": 0.5', '"delta": "x"')),
        lambda tmp: read_back(tmp, "demo.json", '{"columns": ["a"], "rows": [[1.0]], "meta": ["a"]}'),
        # the closed forms hold for two atoms in a passive cavity: a negative rate is gain
        lambda tmp: r_two_atoms(0.0, make_system(n=3)),
        lambda tmp: r_two_atoms(0.0, make_system(kappa_sc=-50.0)),
        lambda tmp: r_no_atoms(0.0, -100.0, 50.0),
        lambda tmp: r_no_atoms(0.0, 100.0, -50.0),
        # a row width other than the column count would not read back: nothing is written
        lambda tmp: render_csv(WIDE),
        lambda tmp: render_json(WIDE),
        lambda tmp: write_table(WIDE, tmp / "wide.csv"),
        lambda tmp: write_table(DataTable("y", ("a", "b"), np.zeros((2, 1))), tmp / "narrow.json", "json"),
    ],
    ids=[
        "spectrum-grid",
        "cooperativity",
        "reference-values",
        "write-format",
        "parse-header",
        "csv-cell-not-a-number",
        "csv-feature-3-fields",
        "csv-ragged",
        "csv-row-short",
        "json-no-columns",
        "json-not-json",
        "json-not-an-object",
        "json-ragged",
        "table-not-utf8",
        "register-list-length",
        "register-nan",
        "register-inf",
        "register-zero-norm",
        "rotation-nan-theta",
        "rotation-inf-phi",
        "build-positions-nan",
        "build-positions-2d",
        "relax-positions-inf",
        "build-positions-inf",
        "relax-positions-nan",
        "relax-positions-2d",
        "positions-not-numbers",
        "cooperativity-overflow-valid",
        "cooperativity-overflow-batch",
        "n-atoms-nan",
        "plan-m-float",
        "run-m-float",
        "run-repetitions-float",
        "run-plan-string",
        "run-plan-empty",
        "run-plan-steps-none",
        "run-plan-steps-scalar",
        "run-plan-steps-iterator",
        "sweep-points-float",
        "dip-count-float",
        "spectrum-length",
        "spectrum-values-2d",
        "spectrum-deltas-2d",
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
        "fmt-digits-0",
        "fmt-digits-negative",
        "fmt-digits-float",
        "csv-digits-0",
        "json-digits-0",
        "json-digits-negative",
        "write-csv-digits-0",
        "write-json-digits-negative",
        "write-format-list",
        "fmt-value-string",
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
        "build-positions-complex",
        "relax-positions-complex",
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
        "sweep-delta-min-complex",
        "sweep-delta-min-string",
        "sweep-delta-bounds-arrays",
        "rotation-theta-string",
        "rotation-phi-none",
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
        "json-row-string",
        "json-columns-string",
        "json-feature-delta-string",
        "json-meta-list",
        "r-two-atoms-three-atoms",
        "r-two-atoms-kappa-sc-negative",
        "r-no-atoms-kappa-wg-negative",
        "r-no-atoms-kappa-sc-negative",
        "csv-rows-wider-than-columns",
        "json-rows-wider-than-columns",
        "write-rows-wider-than-columns",
        "write-json-rows-narrower-than-columns",
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
        (find_features, "prominence_min"),
        (relax_time_domain, "t_max"),
        (reflectivity, "positions"),
        (reflection_amplitude, "positions"),
        (reflectivity_batch, "positions"),
        (build_linear_system, "independent_atoms"),
        (reflection_amplitude, "independent_atoms"),
        (reflectivity, "independent_atoms"),
        (reflectivity_batch, "independent_atoms"),
        (relax_time_domain, "independent_atoms"),
    ],
)
def test_no_tuning_knob(func, name):
    # the step, tolerances, horizon, prominence and dip window are module rules, not
    # arguments; mutually uncoupled atoms are one atom with coupling g sqrt(N), not an
    # option; the fold entry points take the whole system (only the dense oracles and
    # component_reflection place atoms)
    assert name not in inspect.signature(func).parameters


def test_relax_positions_is_keyword_only():
    # a stale positional t_max raises instead of being read as positions
    with pytest.raises(TypeError):
        relax_time_domain(make_system(), DriveParams(), 1e8)


@pytest.mark.parametrize(
    "cls, name",
    [
        (DriveParams, "a_in"),
        (DriveParams, "delta_c"),
        (DriveParams, "unlock_delta_c"),
        (ProtocolPlan, "target"),
        (Spectrum, "features"),
        (ValidationReport, "ok"),
        (SteadyState, "R"),
        (SystemParams, "gamma_mhz"),
    ],
)
def test_no_field_the_library_determines(cls, name):
    # the unit drive, the cavity lock, the register size, find_features, the
    # violations and r fix these values; gamma = 1 is the one unit of rates
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


def test_real_inputs_keep_their_values():
    params = make_system(n=3, gamma_L=np.float64(0.8), g=20, xi=np.array(0.5))
    assert validate(params).ok
    assert (params.gamma_L, params.gamma_R, params.g) == (0.8, 1.0 - 0.8, 20)
    drive = DriveParams(delta=np.array(0.25))
    assert drive.delta == 0.25
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
