import numpy as np
import pytest

from chiralcav.cli import main
from chiralcav.tables import parse_csv, read_table


def run_cli(args, capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout)."""
    try:
        code = main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr().out
    return code, out


BASE = ["--gamma-l", "1.0", "--xi", "0", "--g", "20", "--kappa-wg", "100", "--kappa-sc", "300"]


class TestSpectrumCommand:
    def test_baseline_at_resonance(self, capsys):
        code, out = run_cli(
            ["spectrum", "--n", "2", *BASE, "--points", "801"], capsys
        )
        assert code == 0
        table = parse_csv(out)
        assert table.columns == ("delta_over_gamma", "R")
        row = table.rows[np.argmin(np.abs(table.rows[:, 0]))]
        assert row[1] == pytest.approx(0.25, abs=1e-11)
        assert any(kind == "dip" for kind, *_ in table.features)

    def test_no_atom_flat_curve(self, capsys):
        code, out = run_cli(
            ["spectrum", "--n", "0", "--g", "0", *BASE[:-4], "--points", "101"], capsys
        )
        assert code == 0
        table = parse_csv(out)
        assert table.features == ()
        assert np.all(np.abs(table.rows[:, 1] - 0.25) < 1e-3)

    def test_malformed_flag_usage_error(self, capsys):
        code, _ = run_cli(["spectrum", "--n", "two"], capsys)
        assert code == 2

    def test_validation_error_exit_code(self, capsys):
        code, _ = run_cli(
            ["spectrum", "--n", "2", "--gamma-l", "1.5"], capsys
        )
        assert code == 2

    def test_output_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "spec.csv"
        code, _ = run_cli(
            ["spectrum", "--n", "2", *BASE, "--points", "501", "--output", str(path)],
            capsys,
        )
        assert code == 0
        table = read_table(path)
        assert table.rows.shape == (501, 2)
        assert table.meta["n_atoms"] == "2"
        # re-parses into the sweep that produced it, at the stated precision
        from chiralcav import sweep_delta
        from helpers import make_system

        spec = sweep_delta(make_system(), -3.0, 3.0, 501)
        assert np.allclose(table.rows[:, 0], spec.deltas, rtol=1e-11, atol=1e-11)
        assert np.allclose(table.rows[:, 1], spec.values, rtol=1e-11, atol=1e-11)

    def test_json_output(self, capsys):
        import json

        code, out = run_cli(
            ["spectrum", "--n", "1", *BASE, "--points", "51", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["delta_over_gamma", "R"]
        assert len(payload["rows"]) == 51

    def test_large_detuning_feature_search_ends(self, capsys):
        args = ["spectrum", "--n", "1", "--g", "1e10", "--delta-min=-1.2e10", "--delta-max=-0.8e10"]
        code, out = run_cli([*args, "--points", "401"], capsys)
        assert code == 0
        (feature,) = parse_csv(out).features
        assert feature[0] == "dip"
        assert feature[1] == pytest.approx(-1e10, rel=1e-12)


class TestGridErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--points", "1"],
            ["spectrum", "--delta-min", "3", "--delta-max", "-3"],
            ["map", "--xi-points", "0"],
            ["map", "--xi-points", "-1"],
            ["map", "--gamma-l-points", "-1"],
            ["spectrum", "--delta-max", "inf"],
            ["spectrum", "--delta-min=-inf"],
            ["spectrum", "--delta-min", "nan"],
            ["map", "--xi-max", "inf"],
            ["map", "--xi-min", "nan"],
            ["map", "--gamma-l-min=-inf"],
        ],
    )
    def test_bad_grid_exits_2(self, args, capsys):
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestMapCommand:
    def test_fig2_maximum(self, capsys):
        code, out = run_cli(
            ["map", "--n", "2", *BASE, "--xi-points", "81", "--gamma-l-points", "21"],
            capsys,
        )
        assert code == 0
        table = parse_csv(out)
        best = table.rows[np.argmax(table.rows[:, 2])]
        assert best[0] == pytest.approx(np.pi / 2, abs=1e-11)
        assert best[1] == 1.0
        assert best[2] == pytest.approx((33 / 34) ** 2, abs=1e-10)

    def test_single_cell(self, capsys):
        code, out = run_cli(
            [
                "map", "--n", "2", *BASE,
                "--xi-min", "1.5707963267948966", "--xi-max", "1.5707963267948966",
                "--xi-points", "1", "--gamma-l-min", "1", "--gamma-l-max", "1",
                "--gamma-l-points", "1",
            ],
            capsys,
        )
        assert code == 0
        table = parse_csv(out)
        assert table.rows.shape == (1, 3)

    def test_gamma_grid_outside_unit_interval(self, capsys):
        code, _ = run_cli(
            ["map", "--n", "2", *BASE, "--gamma-l-max", "1.5"], capsys
        )
        assert code == 2


class TestCarveCommand:
    def test_bell_trace(self, capsys):
        code, out = run_cli(["carve", "--m", "2", "--reps", "1", *BASE], capsys)
        assert code == 0
        table = parse_csv(out)
        assert table.columns == ("step", "delta", "herald_prob", "cumulative_prob", "fidelity")
        assert table.rows[0, 2] == pytest.approx(0.53, abs=1e-10)
        assert table.meta["target"] == "bell"

    def test_three_atom_two_step_trace(self, capsys):
        code, out = run_cli(["carve", "--m", "3", "--reps", "1", *BASE], capsys)
        assert code == 0
        table = parse_csv(out)
        assert table.rows.shape[0] == 2
        assert table.rows[1, 1] == pytest.approx(0.2886, abs=1e-3)

    def test_register_too_small(self, capsys):
        code, _ = run_cli(["carve", "--m", "1", *BASE], capsys)
        assert code == 2

    def test_extinguished_exit_code(self, capsys):
        code, _ = run_cli(
            ["carve", "--m", "2", "--g", "0", "--kappa-wg", "200", "--kappa-sc", "200"],
            capsys,
        )
        assert code == 3

    @pytest.mark.parametrize("sign", ["0", "7"])
    def test_dip_sign_must_be_plus_or_minus_one(self, sign, capsys, monkeypatch):
        from chiralcav import carving

        def no_spectrum(*_args, **_kw):
            raise AssertionError("dip search started")

        monkeypatch.setattr(carving, "_dips", no_spectrum)
        code, _ = run_cli(["carve", "--m", "3", "--dip-sign", sign, *BASE], capsys)
        assert code == 2

    def test_repetitions_checked_before_planning(self, capsys, monkeypatch):
        from chiralcav import carving

        def no_plan(*_args, **_kw):
            raise AssertionError("planning started")

        monkeypatch.setattr(carving, "plan_protocol", no_plan)
        code, _ = run_cli(["carve", "--m", "3", "--reps", "0", *BASE], capsys)
        assert code == 2

    def test_missing_dip_exit_code(self, capsys):
        # reciprocal coupling removes the three-atom dips the planner needs
        code, _ = run_cli(["carve", "--m", "3", "--gamma-l", "0.5"], capsys)
        assert code == 4


class TestReproCommand:
    def test_fig4_writes_four_deterministic_files(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for outdir in (out_a, out_b):
            code, _ = run_cli(["repro", "fig4", "--outdir", str(outdir)], capsys)
            assert code == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == ["fig4_N3.csv", "fig4_N4.csv", "fig4_N5.csv", "fig4_N6.csv"]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_fig2_single_map_file(self, tmp_path, capsys):
        code, _ = run_cli(["repro", "fig2", "--outdir", str(tmp_path)], capsys)
        assert code == 0
        table = read_table(tmp_path / "fig2_map.csv")
        assert table.columns == ("xi", "gamma_L", "R")
        assert table.rows.shape == (161 * 41, 3)

    def test_unknown_figure(self, capsys):
        code, _ = run_cli(["repro", "fig9"], capsys)
        assert code == 2

    def test_outdir_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CHIRALCAV_OUTDIR", str(tmp_path / "env"))
        code, _ = run_cli(["repro", "fig3_2"], capsys)
        assert code == 0
        assert len(list((tmp_path / "env").glob("fig3_2_*.csv"))) == 6


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "n_atoms = 2\ngamma_l = 1.0\nxi = 0\ng = 20\n"
            "kappa_wg = 100\nkappa_sc = 300  # comment\npoints = 301\n"
        )
        code, out = run_cli(["spectrum", "--config", str(config)], capsys)
        assert code == 0
        assert parse_csv(out).rows.shape == (301, 2)

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("points = 301\n")
        code, out = run_cli(
            ["spectrum", "--config", str(config), "--points", "101", "--n", "1", *BASE],
            capsys,
        )
        assert code == 0
        assert parse_csv(out).rows.shape == (101, 2)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("warp_factor = 9\n")
        code, _ = run_cli(["spectrum", "--config", str(config)], capsys)
        assert code == 2


class TestValidateCommand:
    def test_ok(self, capsys):
        code, out = run_cli(["validate", "--n", "2", *BASE], capsys)
        assert code == 0
        assert "ok" in out

    def test_violations_printed(self, capsys):
        code, out = run_cli(["validate", "--gamma-l", "1.5"], capsys)
        assert code == 2
        assert "gamma_L must lie in [0, 1]" in out


def assert_single_error_line(args, capsys):
    """Exit 2 with exactly one ``error:`` line on stderr (no traceback)."""
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


class TestOptionsCheckedBeforeWork:
    @pytest.fixture
    def no_work(self, monkeypatch):
        from chiralcav import carving, spectrum

        def no_work(*_args, **_kw):
            raise AssertionError("work started")

        for name in ("figure_data", "sweep_delta", "sweep_2d"):
            monkeypatch.setattr(spectrum, name, no_work)
        monkeypatch.setattr(carving, "run_protocol", no_work)

    def test_unknown_format_creates_nothing(self, tmp_path, capsys, no_work):
        outdir = tmp_path / "fresh"
        assert_single_error_line(
            ["repro", "fig3", "--format", "xml", "--outdir", str(outdir)], capsys
        )
        assert list(tmp_path.iterdir()) == []

    def test_unknown_format_in_config_creates_nothing(self, tmp_path, capsys, no_work):
        config = tmp_path / "run.cfg"
        config.write_text("format = xml\n")
        outdir = tmp_path / "fresh"
        assert_single_error_line(
            ["repro", "fig3", "--config", str(config), "--outdir", str(outdir)], capsys
        )
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("command", ["spectrum", "map", "carve"])
    def test_unknown_format_in_config(self, command, tmp_path, capsys, no_work):
        config = tmp_path / "run.cfg"
        config.write_text("format = xml\n")
        assert_single_error_line([command, "--config", str(config)], capsys)

    @pytest.mark.parametrize("precision", ["0", "-1"])
    def test_precision_below_one(self, precision, capsys, no_work):
        assert_single_error_line(["spectrum", "--precision", precision], capsys)

    @pytest.mark.parametrize("key, flag", [("prominence", "--prominence"), ("gamma_mhz", "--gamma-mhz")])
    def test_threshold_and_unit_are_not_options(self, key, flag, tmp_path, capsys, no_work):
        # the feature threshold is the module rule PROMINENCE_MIN, and gamma = 1 the one unit
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = 1\n")
        assert main(["spectrum", "--config", str(config)]) == 2
        assert "unknown config key" in capsys.readouterr().err
        assert run_cli(["spectrum", flag, "1"], capsys)[0] == 2

    def test_gamma_r_is_not_an_option(self, tmp_path, capsys, no_work):
        # gamma_R = 1 - gamma_L is derived, never given
        config = tmp_path / "run.cfg"
        config.write_text("gamma_r = 0.5\n")
        assert main(["spectrum", "--config", str(config)]) == 2
        assert "unknown config key" in capsys.readouterr().err
        assert run_cli(["spectrum", "--gamma-r", "0.5"], capsys)[0] == 2

    @pytest.mark.parametrize("line", ["n_atoms = abc", "points = 1.5", "g = twenty"])
    def test_config_value_that_does_not_parse(self, line, tmp_path, capsys, no_work):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        assert_single_error_line(["spectrum", "--config", str(config)], capsys)

    def test_config_that_is_not_utf8(self, tmp_path, capsys, no_work):
        # a Latin-1 comment: the byte 0xb5 does not start a UTF-8 sequence
        config = tmp_path / "run.cfg"
        config.write_bytes("n_atoms = 3  # 5 \u00b5m apart\n".encode("latin-1"))
        assert main(["spectrum", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(config) in err

    @pytest.mark.parametrize("command", ["spectrum", "map", "carve"])
    def test_output_in_missing_directory(self, command, tmp_path, capsys, no_work):
        path = tmp_path / "missing" / "x.csv"
        assert_single_error_line([command, "--output", str(path)], capsys)
        assert list(tmp_path.iterdir()) == []

    def test_output_below_a_file(self, tmp_path, capsys, no_work):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert_single_error_line(["spectrum", "--output", str(taken / "x.csv")], capsys)
        assert taken.read_text() == ""

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_outdir_is_or_is_below_a_file(self, below, tmp_path, capsys, no_work):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert_single_error_line(["repro", "fig4", "--outdir", str(taken / below)], capsys)
        assert list(tmp_path.iterdir()) == [taken]
        assert taken.read_text() == ""

    def test_outdir_from_environment_is_a_file(self, tmp_path, capsys, monkeypatch, no_work):
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setenv("CHIRALCAV_OUTDIR", str(taken))
        assert_single_error_line(["repro", "fig4"], capsys)
        assert taken.read_text() == ""

    @pytest.mark.parametrize("command", ["spectrum", "map", "carve"])
    def test_overflowing_cooperativity(self, command, capsys, no_work):
        assert_single_error_line([command, "--g", "1e155"], capsys)

    def test_unknown_figure_creates_nothing(self, tmp_path, capsys):
        assert_single_error_line(["repro", "fig9", "--outdir", str(tmp_path / "fresh")], capsys)
        assert list(tmp_path.iterdir()) == []


class TestPathErrors:
    def test_config_is_a_directory(self, tmp_path, capsys):
        assert_single_error_line(["spectrum", "--config", str(tmp_path)], capsys)

    def test_missing_config(self, tmp_path, capsys):
        assert_single_error_line(["validate", "--config", str(tmp_path / "none.cfg")], capsys)

    def test_output_in_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        assert_single_error_line(["spectrum", "--points", "101", "--output", str(path)], capsys)
        assert list(tmp_path.iterdir()) == []

    def test_outdir_is_a_file(self, tmp_path, capsys):
        outdir = tmp_path / "taken"
        outdir.write_text("")
        assert_single_error_line(["repro", "fig4", "--outdir", str(outdir)], capsys)
        assert outdir.read_text() == ""


class TestOutputIsTheLibraryTable:
    def test_spectrum_stdout(self, capsys):
        from chiralcav.spectrum import find_features, spectrum_table, sweep_delta
        from chiralcav.tables import render_csv
        from helpers import make_system

        code, out = run_cli(["spectrum", "--n", "3", *BASE, "--points", "801"], capsys)
        assert code == 0
        spec = sweep_delta(make_system(n=3), -3.0, 3.0, 801)
        assert out == render_csv(spectrum_table(spec, "spectrum", "spectrum", find_features(spec)))

    def test_map_stdout(self, capsys):
        from chiralcav.spectrum import map_table, sweep_2d
        from chiralcav.tables import render_csv
        from helpers import make_system

        code, out = run_cli(
            ["map", "--n", "2", *BASE, "--xi-points", "21", "--gamma-l-points", "11"], capsys
        )
        assert code == 0
        params = make_system()
        map2d = sweep_2d(params, np.linspace(0.0, 2 * np.pi, 21), np.linspace(0.0, 1.0, 11))
        assert out == render_csv(map_table(map2d, params, "map", "map"))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repro_suffix_is_the_format_name(self, fmt, tmp_path, capsys):
        code, out = run_cli(["repro", "fig4", "--format", fmt, "--outdir", str(tmp_path)], capsys)
        assert code == 0
        paths = sorted(tmp_path.iterdir())
        assert [p.name for p in paths] == [f"fig4_N{n}.{fmt}" for n in (3, 4, 5, 6)]
        assert out.split() == [str(p) for p in paths]
