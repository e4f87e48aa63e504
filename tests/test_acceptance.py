"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest -s tests/test_acceptance.py -v`` to see
them live).  Expected values are either exact formula results or were
frozen from the independent oracles exercised here (closed forms,
hand bookkeeping, golden-section refinement, time-domain relaxation).
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import find_peaks

from chiralcav import (
    DriveParams,
    QubitRegister,
    carving_measurement,
    figure_data,
    find_features,
    fidelity,
    global_rotation,
    plan_protocol,
    r_two_atoms,
    reference_values,
    reflectivity,
    relax_time_domain,
    run_protocol,
    sweep_delta,
)
from chiralcav.tables import render_csv
from helpers import brute_force_carve, golden_section_minimize, half_level_width, make_system, single_atom_r


def R_at(params, delta=0.0):
    return reflectivity(params, DriveParams(delta=delta))


def test_criterion_1_no_atom_baseline():
    """R(0) = 0.25 exactly for the empty cavity and its interference twins."""
    assert R_at(make_system(n=0, g=0.0)) == pytest.approx(0.25, abs=1e-12)
    for n_pi in (0.0, math.pi):
        assert R_at(make_system(gamma_L=1.0, xi=n_pi)) == pytest.approx(0.25, abs=1e-12)
    for xi in (0.3, 1.1, 2.0, 4.4, 5.9):
        assert R_at(make_system(gamma_L=0.0, xi=xi)) == pytest.approx(0.25, abs=1e-12)
    print("ACCEPTANCE 1 PASS: no-atom baseline R = 0.25 within 1e-12")


def test_criterion_2_reference_reflectivities():
    """r_ind, r_d, r_rec from formulas, closed form and solver agree to 1e-10."""
    refs = reference_values(C=4.0, kappa_wg=100.0, kappa=400.0)
    assert abs(refs.r_ind) ** 2 == pytest.approx((17 / 18) ** 2, abs=1e-14)
    assert abs(refs.r_rec) ** 2 == pytest.approx(0.81, abs=1e-14)
    # magnitudes at the quoted two-figure precision
    assert abs(refs.r_ind) ** 2 == pytest.approx(0.89, abs=5e-3)
    assert abs(refs.r_d) ** 2 == pytest.approx(0.94, abs=5e-3)
    assert abs(refs.r_rec) ** 2 == pytest.approx(0.81, abs=5e-3)

    d_params = make_system(gamma_L=1.0, xi=math.pi / 2)
    rec_params = make_system(gamma_L=0.5, xi=math.pi / 2)
    # two mutually uncoupled atoms are one atom with coupling g sqrt(2): each adds
    # i g^2 / w to the cavity self-energy, whatever its site or xi
    ind_params = make_system(n=1, g=math.sqrt(2.0) * 20.0)
    closed = {
        "ind": single_atom_r(0.0, ind_params.g, 100.0, 300.0),
        "d": r_two_atoms(0.0, d_params),
        "rec": r_two_atoms(0.0, rec_params),
    }
    solved = {
        "ind": R_at(ind_params),
        "d": R_at(d_params),
        "rec": R_at(rec_params),
    }
    for key, ref in (("ind", refs.r_ind), ("d", refs.r_d), ("rec", refs.r_rec)):
        assert closed[key] == pytest.approx(ref, abs=1e-10)
        assert solved[key] == pytest.approx(abs(ref) ** 2, abs=1e-10)
    print("ACCEPTANCE 2 PASS: reference reflectivities matched to 1e-10 by both routes")


def test_criterion_3_oracle_equivalence():
    """Closed form vs solver (1e-10) and linear solve vs relaxation (1e-6)."""
    rng = np.random.default_rng(42)
    worst_closed = 0.0
    for _ in range(120):
        params = make_system(
            gamma_L=rng.uniform(0, 1),
            g=rng.uniform(2, 40),
            kappa_wg=rng.uniform(20, 200),
            kappa_sc=rng.uniform(0, 400),
            xi=rng.uniform(0, 2 * math.pi),
        )
        delta = rng.uniform(-3, 3)
        diff = abs(abs(r_two_atoms(delta, params)) ** 2 - R_at(params, delta))
        worst_closed = max(worst_closed, diff)
    assert worst_closed < 1e-10

    worst_ode = 0.0
    for n in range(1, 7):
        for _ in range(20):
            params = make_system(
                n=n,
                gamma_L=rng.uniform(0, 1),
                g=rng.uniform(2, 40),
                kappa_wg=rng.uniform(20, 200),
                kappa_sc=rng.uniform(0, 400),
                xi=rng.uniform(0, 2 * math.pi),
            )
            drive = DriveParams(delta=rng.uniform(-3, 3))
            diff = abs(reflectivity(params, drive) - relax_time_domain(params, drive).R)
            worst_ode = max(worst_ode, diff)
    assert worst_ode < 1e-6
    print(
        f"ACCEPTANCE 3 PASS: oracle equivalence (closed-form dev {worst_closed:.1e}, "
        f"relaxation dev {worst_ode:.1e} over 240 random points)"
    )


def test_criterion_4_dip_census():
    """N-1 dips for N = 3..6; even/odd on-resonance parity; N=3 dip at 0.3."""
    for n in (3, 4, 5, 6):
        spec = sweep_delta(make_system(n=n), -3, 3, 4001)
        features = find_features(spec)
        dips = [f for f in features if f.kind == "dip"]
        assert len(dips) == n - 1, f"N={n}"
        on_resonance = [f for f in features if abs(f.delta) < 1e-5]
        assert len(on_resonance) == 1
        if n % 2 == 0:
            assert on_resonance[0].kind == "dip"
            assert on_resonance[0].value == pytest.approx(0.25, abs=1e-9)
        else:
            assert on_resonance[0].kind == "peak"

    spec3 = sweep_delta(make_system(n=3), -3, 3, 4001)
    dips3 = [f for f in find_features(spec3) if f.kind == "dip"]
    params3 = make_system(n=3)
    for feat in dips3:
        assert abs(abs(feat.delta) - 0.3) <= 0.05
        # independent golden-section refinement over a plain bracket
        side = 1.0 if feat.delta > 0 else -1.0
        lo, hi = sorted((side * 0.2, side * 0.4))
        refined = golden_section_minimize(lambda d: R_at(params3, d), lo, hi, tol=1e-9)
        assert feat.delta == pytest.approx(refined, abs=1e-5)
        assert abs(feat.delta) == pytest.approx(0.2886064, abs=1e-3)  # regression pin
    print("ACCEPTANCE 4 PASS: dip census, parity and N=3 dip locations confirmed")


def test_criterion_5_spectral_widths():
    """Dip narrowing with C, dip vanishing at gamma_L = 1/2, profile widths."""
    widths = {}
    for g, label in ((10.0, 1), (20.0, 4), (50.0, 25)):
        spec = sweep_delta(make_system(g=g), -3, 3, 4001)
        dips = [f for f in find_features(spec) if f.kind == "dip"]
        assert len(dips) == 1
        widths[label] = dips[0].width
    assert widths[1] > widths[4] > widths[25] > 0

    reciprocal = sweep_delta(make_system(gamma_L=0.5), -3, 3, 4000)
    assert [f for f in find_features(reciprocal) if f.kind == "dip"] == []

    for g, span in ((10.0, 15.0), (20.0, 25.0), (50.0, 120.0)):
        two_atom_max = max(
            f.value
            for f in find_features(sweep_delta(make_system(g=g), -3, 3, 4001))
            if f.kind == "peak"
        )
        single_max = R_at(make_system(n=1, g=g))
        assert abs(two_atom_max - single_max) < 1e-3
        ratio = half_level_width(make_system(g=g), span) / half_level_width(
            make_system(n=1, g=g), span
        )
        assert 1.7 <= ratio <= 2.3
    print("ACCEPTANCE 5 PASS: width hierarchy, dip vanishing and 2x broadening")


def test_criterion_6_symmetry_suite():
    """Randomized xi-periodicity, chirality mirror and gamma_L = 0 invariance."""
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        for _ in range(10):
            xi, gl = rng.uniform(0, 2 * math.pi), rng.uniform(0, 1)
            delta = rng.uniform(-5, 5)
            assert R_at(make_system(n=n, gamma_L=gl, xi=xi), delta) == pytest.approx(
                R_at(make_system(n=n, gamma_L=gl, xi=xi + math.pi), delta), abs=1e-12
            )
    for xi in (0.0, math.pi):
        for _ in range(10):
            gl, delta = rng.uniform(0, 1), rng.uniform(-5, 5)
            assert R_at(make_system(gamma_L=gl, xi=xi), delta) == pytest.approx(
                R_at(make_system(gamma_L=1 - gl, xi=xi), delta), abs=1e-12
            )
    for n in (2, 3, 4):
        for _ in range(10):
            xi, delta = rng.uniform(0, 2 * math.pi), rng.uniform(-3, 3)
            assert R_at(make_system(n=n, gamma_L=0.0, xi=xi), delta) == pytest.approx(
                R_at(make_system(n=n, gamma_L=1.0, xi=0.0), delta), abs=1e-12
            )
    print("ACCEPTANCE 6 PASS: symmetry suite holds to 1e-12")


def test_criterion_7_bell_carving():
    """M=2: exact rotation output, oracle-matched herald/fidelity, monotony."""
    rotated = global_rotation(QubitRegister.ground(2), math.pi / 2)
    assert rotated.amplitude("00") == pytest.approx(+0.5, abs=1e-15)
    assert rotated.amplitude("01") == pytest.approx(-0.5, abs=1e-15)
    assert rotated.amplitude("10") == pytest.approx(-0.5, abs=1e-15)
    assert rotated.amplitude("11") == pytest.approx(+0.5, abs=1e-15)

    template = make_system()
    outcome = carving_measurement(rotated, template, 0.0)
    amplitudes = {(0, 0): 0.5, (0, 1): -0.5, (1, 0): -0.5, (1, 1): 0.5}
    oracle_state, oracle_herald = brute_force_carve(amplitudes, {0: -0.5, 1: -0.9, 2: -0.5})
    assert outcome.herald_probability == pytest.approx(oracle_herald, abs=1e-10)
    assert outcome.herald_probability == pytest.approx(0.53, abs=1e-10)
    bell = QubitRegister(m=2, amplitudes=np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2))
    oracle_fidelity = abs(oracle_state[(0, 1)] + oracle_state[(1, 0)]) ** 2 / 2.0
    assert fidelity(outcome.post_state, bell) == pytest.approx(oracle_fidelity, abs=1e-10)
    assert fidelity(outcome.post_state, bell) == pytest.approx(81 / 106, abs=1e-10)

    result = run_protocol(2, template, repetitions_per_step=10)
    fids = result.fidelity_vs_step
    assert all(b > a for a, b in zip(fids, fids[1:]))
    crossing = next(k for k, f in enumerate(fids, start=1) if f > 0.99)
    assert crossing <= 10
    print(
        f"ACCEPTANCE 7 PASS: Bell carving (herald 0.53, fidelity {81 / 106:.6f}, "
        f"> 0.99 after {crossing} repetitions)"
    )


def test_criterion_8_w_state_carving():
    """M=3: two-step plan and a clean single-coupled manifold."""
    template = make_system(n=3)
    plan = plan_protocol(3, template)
    assert len(plan.steps) == 2
    assert plan.steps[0] == 0.0
    assert abs(abs(plan.steps[1]) - 0.2886064) < 1e-3

    result = run_protocol(3, template, repetitions_per_step=6, plan=plan)
    state = result.final_state
    single = [state.amplitude(b) for b in ("100", "010", "001")]
    support = sum(abs(a) ** 2 for a in single)
    assert support >= 0.99
    mags = [abs(a) for a in single]
    assert max(mags) - min(mags) < 1e-9
    assert fidelity(state, QubitRegister.w_state(3)) >= 0.99
    print(
        f"ACCEPTANCE 8 PASS: W-state carving (support {support:.4f} on the "
        f"single-coupled manifold, plan {tuple(round(float(s), 4) for s in plan.steps)})"
    )


def test_criterion_9_figure_reproduction():
    """Byte-identical datasets that re-parse into criteria 1, 2 and 4."""
    from chiralcav.tables import parse_csv

    for which in ("fig2", "fig3", "fig4"):
        first = [render_csv(t) for t in figure_data(which)]
        second = [render_csv(t) for t in figure_data(which)]
        assert first == second, f"{which} not deterministic"

    # criterion 2 values from the re-parsed map
    map_table = parse_csv(render_csv(figure_data("fig2")[0]))
    xi, gl, values = map_table.rows[:, 0], map_table.rows[:, 1], map_table.rows[:, 2]
    refs = reference_values(4.0, 100.0, 400.0)
    at = lambda x, y: values[(np.abs(xi - x) < 1e-9) & (np.abs(gl - y) < 1e-9)][0]
    assert at(math.pi / 2, 1.0) == pytest.approx(abs(refs.r_d) ** 2, abs=1e-10)
    assert at(math.pi / 2, 0.5) == pytest.approx(abs(refs.r_rec) ** 2, abs=1e-10)
    # criterion 1 along the xi = pi row (the exactly subradiant cell relaxes
    # to the reciprocal value instead of the baseline)
    row = (np.abs(xi - math.pi) < 1e-9) & (np.abs(gl - 0.5) > 1e-9)
    assert np.allclose(values[row], 0.25, atol=1e-10)

    fig3 = {t.name: parse_csv(render_csv(t)) for t in figure_data("fig3")}
    for name in ("fig3_N0", "fig3_N2_C4"):
        rows = fig3[name].rows
        center = rows[np.argmin(np.abs(rows[:, 0]))]
        assert center[1] == pytest.approx(0.25, abs=1e-10)

    # criterion 4 census re-run on the re-parsed fig4 curves
    for table, n in zip(figure_data("fig4"), (3, 4, 5, 6)):
        parsed = parse_csv(render_csv(table))
        dips, _ = find_peaks(-parsed.rows[:, 1], prominence=1e-3)
        assert len(dips) == n - 1
        if n == 3:
            locations = sorted(parsed.rows[dips, 0])
            assert locations == pytest.approx([-0.2886, +0.2886], abs=0.05)
    print("ACCEPTANCE 9 PASS: figure datasets deterministic and re-parse consistently")


def test_readme_quick_start_runs_as_written(capsys):
    """The README's library quick start runs unedited and prints what its comments say."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) == pytest.approx(0.25, abs=1e-12)  # the bare-cavity value on resonance
    assert [line.split()[0] for line in lines[1:-1]] == ["peak", "dip", "peak"]
    final_fidelity, herald = map(float, lines[-1].split())
    assert final_fidelity > 0.99 and 0.0 < herald < 1.0
