import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import find_peaks

from chiralcav import (
    DipNotFoundError,
    DriveParams,
    Spectrum,
    ValidationError,
    dip_detunings,
    figure_data,
    find_features,
    plan_protocol,
    r_no_atoms,
    reference_values,
    reflectivity,
    reflectivity_batch,
    solver,
    spectrum,
    sweep_2d,
    sweep_delta,
)
from chiralcav.tables import render_csv
from helpers import golden_section_minimize, golden_section_scalar, half_level_width, make_system, width_scalar

SRC = Path(__file__).resolve().parents[1] / "src"


def dips_of(spec):
    return [f for f in find_features(spec) if f.kind == "dip"]


class TestGridErrors:
    """Bad grids raise ValidationError, which the CLI maps to exit code 2."""

    def test_sweeps_and_refinement(self, base_params):
        spec = sweep_delta(base_params, -1, 1, 5)
        object.__setattr__(spec, "deltas", np.array([]))
        for call in (
            lambda: sweep_delta(base_params, -1.0, 1.0, 1),
            lambda: sweep_delta(base_params, 3.0, -3.0, 11),
            lambda: sweep_delta(base_params, 0.0, math.inf, 5),
            lambda: sweep_delta(base_params, -math.inf, 0.0, 5),
            lambda: sweep_delta(base_params, math.nan, 1.0, 5),
            lambda: sweep_2d(base_params, [], [0.5]),
            lambda: find_features(spec),
            lambda: dip_detunings(base_params, 1),
        ):
            with pytest.raises(ValidationError):
                call()


class TestSweepDelta:
    def test_grid_and_bounds(self, base_params):
        spec = sweep_delta(base_params, -3.0, 3.0, 301)
        assert spec.deltas.shape == (301,)
        assert np.all(np.diff(spec.deltas) > 0)
        assert np.all(spec.values >= -1e-12)
        assert np.all(spec.values <= 1 + 1e-12)

    def test_requires_two_points(self, base_params):
        with pytest.raises(ValueError):
            sweep_delta(base_params, -1.0, 1.0, 1)
        with pytest.raises(ValueError):
            sweep_delta(base_params, 1.0, -1.0, 10)

    def test_on_resonance_baseline_in_directional_regime(self, base_params):
        spec = sweep_delta(base_params, -3.0, 3.0, 4001)
        assert spec.values[2000] == pytest.approx(0.25, abs=1e-12)

    def test_higher_cooperativity_approaches_unity(self):
        max_c25 = sweep_delta(make_system(g=50.0), -3, 3, 2001).values.max()
        max_c4 = sweep_delta(make_system(g=20.0), -3, 3, 2001).values.max()
        assert max_c4 < max_c25 < 1.0

    def test_uncoupled_atoms_reduce_to_empty_cavity(self):
        spec = sweep_delta(make_system(g=0.0), -3, 3, 101)
        empty = [abs(r_no_atoms(d, 100.0, 300.0)) ** 2 for d in spec.deltas]
        assert np.allclose(spec.values, empty, atol=1e-13)

    def test_matches_single_point_solver(self, base_params):
        spec = sweep_delta(base_params, -2.0, 2.0, 41)
        for delta, value in zip(spec.deltas[::8], spec.values[::8]):
            assert value == pytest.approx(
                reflectivity(base_params, DriveParams(delta=delta)), abs=1e-13
            )


class TestFindFeatures:
    def test_three_atom_dip_pair(self):
        spec = sweep_delta(make_system(n=3), -3, 3, 4001)
        dips = dips_of(spec)
        assert len(dips) == 2
        for feat in dips:
            assert abs(abs(feat.delta) - 0.3) < 0.05
            assert abs(feat.delta) == pytest.approx(0.2886064, abs=1e-3)
            assert feat.width > 0
            assert feat.value == pytest.approx(0.25, abs=1e-3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dip_census_n_minus_one(self, n):
        spec = sweep_delta(make_system(n=n), -3, 3, 4001)
        assert len(dips_of(spec)) == n - 1

    def test_flat_no_atom_spectrum_has_no_features(self):
        spec = sweep_delta(make_system(n=0, g=0.0), -3, 3, 2001)
        assert find_features(spec) == ()

    def test_empty_spectrum_rejected(self, base_params):
        spec = sweep_delta(base_params, -1, 1, 5)
        object.__setattr__(spec, "deltas", np.array([]))
        with pytest.raises(ValueError):
            find_features(spec)

    @pytest.mark.parametrize("index, value", [(100, np.nan), (200, np.nan), (150, np.inf)])
    def test_non_finite_sample_rejected_by_index(self, monkeypatch, index, value):
        # refined as given, the NaN at 100 hid every feature, the NaN at 200 lost the dip at
        # delta = 0, and the inf at 150 surfaced as a driven null mode of the solver
        spec = sweep_delta(make_system(n=2), -3, 3, 401)
        assert [f.kind for f in find_features(spec)] == ["peak", "dip", "peak"]
        values = spec.values.copy()
        values[index] = value
        bad = Spectrum(spec.params, spec.deltas, values)  # a Spectrum holds it, a table reads it back
        folds = []
        monkeypatch.setattr(solver, "_fold", lambda *args, **kw: folds.append(args))
        with pytest.raises(ValidationError, match=f"at index {index} is not finite"):
            find_features(bad)
        assert folds == []

    def test_refined_dip_is_local_minimum(self, base_params):
        spec = sweep_delta(base_params, -3, 3, 4001)
        (dip,) = dips_of(spec)
        for off in (-1e-4, 1e-4):
            assert reflectivity(
                base_params, DriveParams(delta=dip.delta + off)
            ) >= dip.value

    def test_features_narrower_than_the_grid_have_their_fine_grid_widths(self):
        # the dip and the peak are narrower than the 1.5e-3 spacing: the grid sample at
        # each index lies outside the half-prominence level, and both widths came out < 0
        params = make_system(n=8, gamma_L=0.5344, xi=0.294, g=20.8)
        features = find_features(sweep_delta(params, -3, 3, 4001))
        assert len(features) == 14
        assert all(feat.width > 0 for feat in features)
        for kind, delta, width in (("dip", -0.08474, 5.032e-4), ("peak", -0.07326, 2.904e-4)):
            (feat,) = [f for f in features if f.kind == kind and abs(f.delta - delta) < 1e-5]
            sign = 1.0 if kind == "dip" else -1.0
            fine = feat.delta + np.arange(-40_000, 40_001) * 1e-8
            inside = sign * (reflectivity_batch(params, fine) - feat.value - sign * feat.prominence / 2.0) < 0
            edges = np.flatnonzero(np.diff(inside))  # the one run of the feature
            assert edges.size == 2
            assert feat.width == pytest.approx(fine[edges[1]] - fine[edges[0]], rel=1e-4)
            assert feat.width == pytest.approx(width, rel=1e-3)

    @pytest.mark.xfail(strict=True, reason="sub-grid Fano pairs sit at grid samples (ROADMAP item 5)")
    def test_sub_grid_dips_refined_to_the_fine_grid_minima(self):
        # spectra op 639 of the benchmark (seed 9101): each dip lies within a grid step of
        # a peak, and the two dips are reported at the samples 0.0105 and 0.021 with widths ~3
        params = make_system(n=4, gamma_L=0.5015139174496184, xi=3.1010199416258284, g=18.333330873236232)
        dips = [f for f in find_features(sweep_delta(params, -3, 3, 4001)) if f.kind == "dip"]
        for delta, value in ((0.011962, 0.7742), (0.020209, 0.38186)):
            assert any(abs(f.delta - delta) < 1e-5 and abs(f.value - value) < 1e-4 for f in dips)

    def test_features_sorted_and_attached(self, base_params):
        features = find_features(sweep_delta(base_params, -3, 3, 4001))
        locations = [f.delta for f in features]
        assert locations == sorted(locations)
        assert any(f.kind == "dip" for f in features)


class TestBatchedRefinement:
    """All extrema of a spectrum are refined together, one batch per step."""

    def test_array_brackets_match_scalar_brackets(self):
        params = make_system(n=3, gamma_L=0.9, xi=0.4)

        def f(d):
            return reflectivity_batch(params, d)

        lo = np.array([-0.45, 0.2, -0.1, 0.26, -2.5])
        hi = np.array([-0.2, 0.4, 0.1, 0.3, -0.5])
        batched = golden_section_minimize(f, lo, hi)
        assert batched.shape == lo.shape
        for k in range(lo.size):
            reference = golden_section_scalar(f, lo[k], hi[k], 1e-6)
            assert batched[k] == golden_section_minimize(f, lo[k], hi[k]) == reference

    def test_bracket_at_float_resolution_ends(self):
        # at 1e10 the float spacing (1.9e-6) exceeds the 1e-6 tolerance
        found = golden_section_minimize(lambda x: (x - 1e10) ** 2, 1e10 - 1, 1e10 + 1)
        assert abs(found - 1e10) <= 2 * np.spacing(1e10)

    def test_bracket_at_float_resolution_leaves_others_alone(self):
        def f(x):
            return (x - np.where(x > 1e5, 1e10, 0.3)) ** 2

        found = golden_section_minimize(f, np.array([1e10 - 1, 0.0]), np.array([1e10 + 1, 1.0]))
        assert abs(found[0] - 1e10) <= 2 * np.spacing(1e10)
        assert found[1] == golden_section_minimize(lambda x: (x - 0.3) ** 2, 0.0, 1.0)

    def test_scalar_bracket_returns_float(self):
        found = golden_section_minimize(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
        assert type(found) is float
        assert found == pytest.approx(0.3, abs=1e-6)

    @pytest.mark.parametrize("n, gamma_L, xi", [(2, 1.0, 0.0), (3, 1.0, 0.0), (6, 1.0, 0.0), (4, 0.8, 0.7)])
    def test_feature_values_are_batch_values(self, n, gamma_L, xi):
        params = make_system(n=n, gamma_L=gamma_L, xi=xi)
        features = find_features(sweep_delta(params, -3, 3, 4001))
        assert features
        for feat in features:
            assert feat.value == reflectivity_batch(params, feat.delta)

    @pytest.mark.parametrize("n, gamma_L, xi", [(3, 1.0, 0.0), (6, 1.0, 0.0), (4, 0.8, 0.7)])
    def test_widths_match_scalar_walk_and_bisection(self, n, gamma_L, xi):
        params = make_system(n=n, gamma_L=gamma_L, xi=xi)
        spec = sweep_delta(params, -3, 3, 4001)
        features = find_features(spec)
        for kind, sign in (("dip", 1.0), ("peak", -1.0)):
            index, _ = find_peaks(-sign * spec.values, prominence=1e-3)
            same_kind = [feat for feat in features if feat.kind == kind]
            assert len(same_kind) == len(index)
            for i, feat in zip(index, same_kind):
                level = feat.value + sign * feat.prominence / 2.0
                width = width_scalar(params, spec.deltas, spec.values, i, level, sign)
                assert abs(feat.width - width) <= 1e-9 * width

    @pytest.mark.parametrize(
        "n, gamma_L, xi, g",
        [(2, 1.0, 0.0, 20.0), (3, 1.0, 0.0, 20.0), (6, 1.0, 0.0, 20.0), (4, 0.8, 0.7, 20.0), (5, 1.0, 0.0, 50.0)],
    )
    def test_extrema_within_tolerance_of_golden_section(self, n, gamma_L, xi, g):
        # the search the refinement replaced, on the same grid brackets
        params = make_system(n=n, gamma_L=gamma_L, xi=xi, g=g)
        spec = sweep_delta(params, -3, 3, 4001)
        features = find_features(spec)
        for kind, sign in (("dip", 1.0), ("peak", -1.0)):
            index, _ = find_peaks(-sign * spec.values, prominence=1e-3)
            refined = np.array([feat.delta for feat in features if feat.kind == kind])
            lo, hi = spec.deltas[index - 1], spec.deltas[index + 1]
            found = golden_section_minimize(lambda d: sign * reflectivity_batch(params, d), lo, hi)
            assert refined.shape == found.shape
            assert np.all(np.abs(refined - found) <= spectrum.REFINE_TOL)

    @pytest.mark.parametrize("n, n_features", [(2, 3), (6, 11)])
    def test_one_batch_call_per_search_step(self, n, n_features, fold_shapes):
        spec = sweep_delta(make_system(n=n), -3, 3, 4001)
        fold_shapes.clear()
        assert len(find_features(spec)) == n_features
        assert 0 < len(fold_shapes) <= 10

    def test_plan_of_twelve_takes_one_sweep_and_at_most_five_folds(self, fold_shapes):
        plan = plan_protocol(12, make_system(n=12))
        assert len(plan.steps) == 6
        assert len(fold_shapes) <= 5
        assert sum(math.prod(shape) == 4001 for shape in fold_shapes) == 1  # one sweep for n = 3..11


class TestPeaks:
    """The numpy prominence routine returns what scipy's find_peaks returns."""

    @staticmethod
    def assert_matches_scipy(x, prominence_min):
        expected, props = find_peaks(x, prominence=prominence_min)
        index, prominence = spectrum._peaks(x, prominence_min)
        assert index.dtype == expected.dtype
        assert np.array_equal(index, expected)
        assert np.array_equal(prominence, props["prominences"])

    @pytest.mark.parametrize("prominence_min", [0.0, 1e-3, 0.05])
    def test_random_spectra(self, rng, prominence_min):
        for _ in range(25):
            params = make_system(
                n=int(rng.integers(0, 9)),
                gamma_L=float(rng.uniform(0.5, 1.0)),
                g=float(rng.uniform(1.0, 60.0)),
                xi=float(rng.uniform(0.0, math.pi)),
            )
            values = sweep_delta(params, -3, 3, 4001).values
            for sign in (1.0, -1.0):
                self.assert_matches_scipy(-sign * values, prominence_min)

    def test_seeded_noise_and_quantised_plateaus(self, rng):
        for _ in range(100):
            size = int(rng.integers(0, 60))
            self.assert_matches_scipy(rng.normal(size=size), float(rng.choice([0.0, 0.5, 1.0])))
            self.assert_matches_scipy(np.round(2 * rng.normal(size=size)) / 2, 0.0)
            self.assert_matches_scipy(rng.integers(0, 3, size=size % 12).astype(float), 0.0)

    @pytest.mark.parametrize(
        "x, index",
        [
            ([0, 1, 1, 1, 1, 0], [2]),  # flat top: middle sample, rounded down
            ([0, 1, 1, 1, 0], [2]),
            ([0, 2, 2, 1, 3, 3], [1]),  # the plateau that touches the end is no peak
            ([3, 3, 1, 2, 0], [3]),  # nor one at the start
            ([0, 1, 1, 2, 0], [3]),  # a shoulder is no peak
            ([1, 0, 2, 0, 1, 0, 3, 0.5, 0], [2, 4, 6]),
        ],
    )
    def test_plateaus_and_edges(self, x, index):
        x = np.asarray(x, dtype=float)
        self.assert_matches_scipy(x, 0.0)
        assert spectrum._peaks(x, 0.0)[0].tolist() == index

    @pytest.mark.parametrize("x", [[], [1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    def test_short_arrays(self, x):
        self.assert_matches_scipy(np.asarray(x, dtype=float), 0.0)

    def test_prominence_reaches_to_the_higher_side_minimum(self):
        x = np.array([0.0, 3.0, 1.0, 2.0, 0.5, 4.0, -1.0])
        index, prominence = spectrum._peaks(x, 0.0)
        assert index.tolist() == [1, 3, 5]
        # 3 is bounded on the right by 4 (minimum 0.5) and reaches 0 on the left
        assert prominence.tolist() == [2.5, 1.0, 4.0]
        assert spectrum._peaks(x, 2.5)[0].tolist() == [1, 5]

    def test_import_loads_no_scipy(self):
        code = "import sys, chiralcav; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestDipWidths:
    @staticmethod
    def central_dip_width(g):
        spec = sweep_delta(make_system(g=g), -3, 3, 4001)
        dips = dips_of(spec)
        assert len(dips) == 1
        return dips[0].width

    def test_width_shrinks_with_cooperativity(self):
        widths = [self.central_dip_width(g) for g in (10.0, 20.0, 50.0)]
        assert widths[0] > widths[1] > widths[2] > 0
        # regression pins from golden-section refinement
        assert widths[0] == pytest.approx(0.2358, abs=2e-3)
        assert widths[1] == pytest.approx(0.0990, abs=1e-3)
        assert widths[2] == pytest.approx(0.0192, abs=5e-4)

    def test_width_shrinks_toward_reciprocal_coupling(self):
        def width_at(gamma_L):
            spec = sweep_delta(make_system(gamma_L=gamma_L), -3, 3, 4001)
            dips = dips_of(spec)
            assert len(dips) == 1
            return dips[0].width

        left = [width_at(gl) for gl in (1.0, 0.8, 0.65)]
        right = [width_at(gl) for gl in (0.0, 0.2, 0.35)]
        assert left[0] > left[1] > left[2] > 0
        assert right[0] > right[1] > right[2] > 0
        # mirror pairs gamma_L <-> 1 - gamma_L carry identical widths
        for a, b in zip(left, right):
            assert a == pytest.approx(b, rel=1e-6)

    def test_dip_vanishes_at_reciprocal_coupling(self):
        spec = sweep_delta(make_system(gamma_L=0.5), -3, 3, 4000)
        assert dips_of(spec) == []

    def test_near_resonance_max_matches_single_atom(self):
        for g in (10.0, 20.0, 50.0):
            two = sweep_delta(make_system(g=g), -3, 3, 4001)
            peaks = [f for f in find_features(two) if f.kind == "peak"]
            best = max(f.value for f in peaks)
            single = reflectivity(make_system(n=1, g=g), DriveParams())
            assert abs(best - single) < 1e-3

    def test_two_atom_profile_roughly_twice_single_atom(self):
        for g, span in ((10.0, 15.0), (20.0, 25.0), (50.0, 120.0)):
            ratio = half_level_width(make_system(g=g), span) / half_level_width(
                make_system(n=1, g=g), span
            )
            assert 1.7 <= ratio <= 2.3


class TestParity:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_even_atom_number_on_resonance_baseline(self, n):
        value = reflectivity(make_system(n=n), DriveParams())
        assert value == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_atom_number_on_resonance_peak(self, n):
        spec = sweep_delta(make_system(n=n), -3, 3, 4001)
        assert reflectivity(make_system(n=n), DriveParams()) > 0.9 * spec.values.max()


@pytest.fixture(scope="module")
def fig2_map():
    return sweep_2d(
        make_system(),
        np.linspace(0, 2 * math.pi, 161),
        np.linspace(0, 1, 41),
    )


class TestSweep2D:
    def test_global_maximum_at_directional_half_pi(self, fig2_map):
        r_d = reference_values(4.0, 100.0, 400.0).r_d
        i, j = np.unravel_index(fig2_map.values.argmax(), fig2_map.values.shape)
        assert fig2_map.gamma_L_grid[j] == 1.0
        assert fig2_map.xi_grid[i] == pytest.approx(math.pi / 2, abs=1e-12)
        assert fig2_map.values.max() == pytest.approx(abs(r_d) ** 2, abs=1e-10)
        # the mirror maximum at 3 pi / 2
        assert fig2_map.values[120, 40] == pytest.approx(abs(r_d) ** 2, abs=1e-10)

    def test_xi_pi_row_is_baseline(self, fig2_map):
        row = fig2_map.values[80]
        mask = fig2_map.gamma_L_grid != 0.5
        assert np.allclose(row[mask], 0.25, atol=1e-10)
        # the exactly subradiant point relaxes to the reciprocal value instead
        assert row[~mask] == pytest.approx(0.81, abs=1e-10)

    def test_fully_right_directional_column_constant(self, fig2_map):
        column = fig2_map.values[:, 0]
        assert np.allclose(column, fig2_map.values[0, 40], atol=1e-12)

    def test_rows_pi_periodic(self, fig2_map):
        assert np.allclose(fig2_map.values[:80], fig2_map.values[80:160], atol=1e-12)

    def test_values_in_unit_interval(self, fig2_map):
        assert fig2_map.values.min() >= -1e-12
        assert fig2_map.values.max() <= 1 + 1e-12

    def test_single_cell_grid(self, base_params):
        single = sweep_2d(base_params, [math.pi / 2], [1.0])
        assert single.values.shape == (1, 1)
        assert single.values[0, 0] == pytest.approx((33 / 34) ** 2, abs=1e-12)

    def test_empty_grid_rejected(self, base_params):
        with pytest.raises(ValueError):
            sweep_2d(base_params, [], [0.5])

    def test_rows_are_xi_major(self):
        map2d = sweep_2d(make_system(), [0.0, 0.5, 1.0], [0.25, 0.75])
        rows = map2d.rows()
        assert rows.shape == (6, 3)
        for k, (i, j) in enumerate(np.ndindex(3, 2)):
            assert tuple(rows[k]) == (map2d.xi_grid[i], map2d.gamma_L_grid[j], map2d.values[i, j])


class TestDipDetunings:
    def test_two_coupled_atoms_resonant_dip(self, base_params):
        assert dip_detunings(base_params, 2) == pytest.approx([0.0], abs=1e-5)

    def test_three_coupled_atoms(self, base_params):
        dips = dip_detunings(base_params, 3)
        assert len(dips) == 2
        assert dips[0] == pytest.approx(-0.2886064, abs=1e-4)
        assert dips[1] == pytest.approx(+0.2886064, abs=1e-4)

    def test_four_coupled_atoms_include_resonance(self, base_params):
        dips = dip_detunings(base_params, 4)
        assert len(dips) == 3
        assert min(abs(d) for d in dips) < 1e-5

    def test_requires_at_least_two(self, base_params):
        with pytest.raises(ValueError):
            dip_detunings(base_params, 1)

    def test_no_dip_reported(self):
        with pytest.raises(DipNotFoundError):
            dip_detunings(make_system(gamma_L=0.5), 2)

    @pytest.mark.xfail(strict=True, reason="outer dips below PROMINENCE_MIN on the +-3 grid (ROADMAP item 2)")
    def test_nineteen_coupled_atoms_have_eighteen_dips(self, base_params):
        # the outermost dips at +-2.993 show a grid prominence of 6.7e-4; a +-3.5 grid finds all 18
        assert len(dip_detunings(base_params, 19)) == 18


class TestFigureData:
    def test_table_counts(self):
        assert len(figure_data("fig2")) == 1
        assert len(figure_data("fig3")) == 6
        assert len(figure_data("fig3_2")) == 6
        assert len(figure_data("fig4")) == 4

    def test_unknown_figure_id(self):
        with pytest.raises(ValueError):
            figure_data("fig9")

    def test_fig3_curve_parameters(self):
        tables = {t.name: t for t in figure_data("fig3")}
        assert tables["fig3_N2_C25"].meta["g"] == "50"
        assert tables["fig3_N2_C25"].meta["cooperativity"] == "25"
        assert tables["fig3_N1_C4"].meta["n_atoms"] == "1"
        assert tables["fig3_N0"].meta["g"] == "0"
        assert tables["fig3_N2_C4_gL08"].meta["gamma_L"] == "0.8"
        for table in tables.values():
            assert table.columns == ("delta_over_gamma", "R")
            assert table.meta["kappa_wg"] == "100"
            assert table.meta["kappa_sc"] == "300"

    def test_fig3_2_representative_xis_labeled(self):
        tables = figure_data("fig3_2")
        xis = [float(t.meta["xi"]) for t in tables]
        assert xis == pytest.approx(
            [math.pi / 8, math.pi / 4, 3 * math.pi / 8, 5 * math.pi / 8, 3 * math.pi / 4, 7 * math.pi / 8]
        )
        assert all(t.meta["xi_selection"] == "representative" for t in tables)

    def test_fig4_census_from_tables(self):
        from scipy.signal import find_peaks

        for table, n in zip(figure_data("fig4"), (3, 4, 5, 6)):
            values = table.rows[:, 1]
            dips, _ = find_peaks(-values, prominence=1e-3)
            assert len(dips) == n - 1

    def test_rendering_deterministic(self):
        text1 = render_csv(figure_data("fig2")[0])
        text2 = render_csv(figure_data("fig2")[0])
        assert text1 == text2


class TestMirrorSymmetryExploration:
    def test_report_which_transformation_holds(self, rng, capsys):
        """Exploratory: compare two candidate mirror relations for the
        asymmetric profiles and report the outcome (no hard assertion on
        the underdetermined one)."""
        dev_conj = 0.0  # R(delta; xi)  vs  R(-delta; pi - xi), same gamma_L
        dev_swap = 0.0  # R(delta; xi)  vs  R(delta; pi - xi), gamma_L <-> gamma_R
        for _ in range(25):
            xi = rng.uniform(0, math.pi)
            gl = rng.uniform(0, 1)
            delta = rng.uniform(-3, 3)
            base = reflectivity(make_system(gamma_L=gl, xi=xi), DriveParams(delta=delta))
            mirrored = reflectivity(
                make_system(gamma_L=gl, xi=math.pi - xi), DriveParams(delta=-delta)
            )
            swapped = reflectivity(
                make_system(gamma_L=1 - gl, xi=math.pi - xi), DriveParams(delta=delta)
            )
            dev_conj = max(dev_conj, abs(base - mirrored))
            dev_swap = max(dev_swap, abs(base - swapped))
        print(
            f"mirror-symmetry report: R(d;xi,gL)=R(-d;pi-xi,gL) deviates by {dev_conj:.2e}; "
            f"R(d;xi,gL)=R(d;pi-xi,1-gL) deviates by {dev_swap:.2e}"
        )
        # the delta-reflected relation is the one realized numerically
        assert dev_conj < 1e-10 or dev_conj < dev_swap
