import math
from dataclasses import replace

import pytest

from chiralcav import DriveParams, ValidationError, cooperativity, validate
from chiralcav.spectrum import FIG2_PARAMS
from helpers import make_system


class TestValidate:
    def test_fig2_parameters_ok(self, base_params):
        assert validate(base_params).ok

    def test_gamma_sum_violation(self):
        # gamma_R = 1 - gamma_L, so gamma_L outside [0, 1] makes one rate a gain
        for gamma_L in (1.5, -0.1, math.nan, math.inf):
            report = validate(make_system(gamma_L=gamma_L))
            assert report.violations == ("gamma_L must lie in [0, 1]",)

    def test_no_atom_baseline_is_legal(self):
        assert validate(make_system(n=0, g=0.0)).ok

    def test_negative_rates_flagged(self):
        report = validate(make_system(g=-1.0, kappa_sc=-2.0))
        assert not report.ok
        assert len(report.violations) == 2

    def test_kappa_wg_must_be_positive(self):
        assert not validate(make_system(kappa_wg=0.0)).ok

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=2, g=20.0, gamma_L=0.5, xi=math.pi),  # map point
            dict(n=2, g=20.0, kappa_wg=100.0, kappa_sc=300.0),  # C=4 map
            dict(n=2, g=50.0, kappa_wg=100.0, kappa_sc=300.0),  # C=25 curve
            dict(n=1, g=20.0, kappa_wg=100.0, kappa_sc=300.0),  # single atom
            dict(n=0, g=0.0, kappa_wg=100.0, kappa_sc=300.0),  # no atoms
            dict(n=2, g=20.0, gamma_L=0.8, kappa_wg=100.0, kappa_sc=300.0),
            dict(n=6, g=20.0, kappa_wg=100.0, kappa_sc=300.0),  # multi-dip curves
        ],
    )
    def test_every_figure_parameter_set_validates(self, kw):
        assert validate(make_system(**kw)).ok


class TestSystemParams:
    def test_gamma_r_derived(self):
        assert make_system(gamma_L=0.8).gamma_R == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("gamma_L", [0, 0.5, 0.8, 1])
    def test_replace_gamma_L_rederives_gamma_R(self, gamma_L):
        params = replace(FIG2_PARAMS, gamma_L=gamma_L)
        assert validate(params).ok
        assert params.gamma_R == 1.0 - gamma_L

    def test_gamma_R_is_not_an_input(self):
        with pytest.raises(TypeError):
            make_system(gamma_R=0.0)

    def test_xi_reduced_mod_two_pi(self):
        params = make_system(xi=5.0 * math.pi)
        assert 0.0 <= params.xi < 2.0 * math.pi
        assert params.xi == pytest.approx(math.pi, abs=1e-12)

    def test_kappa_total(self, base_params):
        assert base_params.kappa == 400.0

    def test_gamma_mhz_display_only(self):
        params = make_system(gamma_mhz=2 * math.pi * 6.0)
        assert validate(params).ok
        assert cooperativity(params) == cooperativity(make_system())


class TestDriveParams:
    @pytest.mark.parametrize("kw", [dict(delta=math.nan), dict(delta=math.inf), dict(delta=-math.inf)])
    def test_non_finite_drive_rejected(self, kw):
        with pytest.raises(ValidationError, match="must be finite"):
            DriveParams(**kw)


class TestCooperativity:
    def test_fig2_value(self, base_params):
        assert cooperativity(base_params) == pytest.approx(4.0, abs=1e-14)

    def test_strong_coupling_value(self):
        assert cooperativity(make_system(g=50.0)) == pytest.approx(25.0, abs=1e-13)

    def test_uncoupled_limit(self):
        assert cooperativity(make_system(g=0.0)) == 0.0

    def test_zero_kappa_is_domain_error(self):
        with pytest.raises(ValueError):
            cooperativity(make_system(kappa_wg=0.0, kappa_sc=0.0))

    def test_quadratic_in_g(self, rng):
        for _ in range(20):
            g = rng.uniform(1.0, 50.0)
            s = rng.uniform(0.1, 5.0)
            c1 = cooperativity(make_system(g=g))
            c2 = cooperativity(make_system(g=s * g))
            assert c2 == pytest.approx(s**2 * c1, rel=1e-12)
