"""Tests for config parsing and the command-line interface."""

import argparse
import csv
import dataclasses
import json
import os
import sys
import warnings

import numpy as np
import pytest

import hypoco.basis
import hypoco.models
from hypoco.basis import BasisSet, clear_basis_cache
from hypoco.cli import CSV_COLUMNS, build_parser, main
from hypoco.config import RunConfig, parse_config, parse_config_text, parse_range
from hypoco.container import load_container
from hypoco.errors import ConfigError
from hypoco.operators import assemble_model

from conftest import COS_Q
from criteria import adl_envelope_fit

BASE_CFG = f"""
# 1d langevin at moderate truncation, kept small for test speed
model = langevin
d = 1
beta = 1.0
mass = 1.0
gamma = 1.0
potential = {COS_Q}
n_q = 8
n_p = 8
seed = 0
"""

# n = 4 keeps a full report, ladder included, well under a second
SMALL_CFGS = {
    "langevin": BASE_CFG.replace("n_q = 8\nn_p = 8", "n_q = 4\nn_p = 4"),
    "adaptive_langevin": (
        "model = adaptive_langevin\nd = 1\nbeta = 1.0\nmass = 1.0\n"
        f"gamma = 1.0\nepsilon = 1.0\npotential = {COS_Q}\n"
        "n_q = 4\nn_p = 4\nn_xi = 4\nconv_tol = 0.5\n"),
}

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.fixture()
def constructed(monkeypatch):
    """The spec of every BasisSet constructed while the fixture is active."""
    built = []
    init = BasisSet.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(BasisSet, "__init__", counting)
    return built


@pytest.fixture()
def small_cfgs(tmp_path):
    paths = {}
    for model, text in SMALL_CFGS.items():
        paths[model] = tmp_path / f"{model}.cfg"
        paths[model].write_text(text)
    return {model: str(path) for model, path in paths.items()}


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG)
    return str(path)


# ---------------------------------------------------------------------------
# range and config parsing
# ---------------------------------------------------------------------------


def test_parse_range_forms():
    grid = parse_range("0.01:100:log15")
    assert grid.shape == (15,)
    assert abs(grid[0] - 0.01) < 1e-15 and abs(grid[-1] - 100.0) < 1e-12
    # geometric spacing: constant ratio
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0])
    lin = parse_range("1:5:lin5")
    assert np.allclose(lin, [1, 2, 3, 4, 5])
    assert np.allclose(parse_range(" 2.5 "), [2.5])


@pytest.mark.parametrize("bad", ["1:2", "1:2:foo3", "0:2:log3", "1:2:log0",
                                 "1:2:lin", "a:b:lin3"])
def test_parse_range_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_range(bad)


def test_parse_config_minimal_and_defaults():
    config = parse_config_text(BASE_CFG)
    assert config.model == "langevin"
    assert config.n_q == 8 and config.n_p == 8
    assert np.allclose(config.gammas, [1.0])
    assert config.epsilons is None
    assert config.potential().degrees == (1,)
    # unset keys keep their defaults
    assert config.tol_identity == 1e-10 and config.conv_tol == 0.01


def test_parse_config_accumulates_every_problem():
    text = """
    bogus_key = 3
    c2 = 1.5
    gamma = -1
    d = 0
    not a pair
    """
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    problems = err.value.problems
    assert len(problems) == 5, problems
    joined = "\n".join(problems)
    assert "unknown key 'bogus_key'" in joined
    assert "c2 must be in [0, 1]" in joined
    assert "gamma must be positive" in joined
    assert "d must be a positive integer" in joined
    assert "is not a key=value pair" in joined


def test_parse_config_epsilon_cross_field_rules():
    with pytest.raises(ConfigError, match="epsilon is required"):
        parse_config_text("model = adaptive_langevin\n")
    with pytest.raises(ConfigError, match="epsilon is not accepted"):
        parse_config_text("model = langevin\nepsilon = 1.0\n")
    config = parse_config_text("model = adaptive_langevin\nepsilon = 0.5\n")
    assert np.allclose(config.epsilons, [0.5])


def test_parse_config_collects_potential_problems():
    with pytest.raises(ConfigError) as err:
        parse_config_text("potential = 1:0.5,0;oops\n")
    assert any("potential" in p or "mode" in p for p in err.value.problems)


def test_parse_config_rejects_an_empty_out_path():
    with pytest.raises(ConfigError, match="out must be a path, got ''"):
        parse_config_text("out =\n")


def test_parse_config_strict_integers():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config_text("n_q = 6.0\n")


def test_shipped_example_config_parses():
    config = parse_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "configs", "langevin_1d.cfg"))
    assert config.model == "langevin"
    assert not config.potential().is_zero


# ---------------------------------------------------------------------------
# CLI exit codes and outputs
# ---------------------------------------------------------------------------


def test_cli_requires_config(capsys):
    assert main(["verify"]) == 2
    assert "--config is required" in capsys.readouterr().err


def test_cli_missing_config_file(capsys):
    assert main(["verify", "--config", "/no/such/file.cfg"]) == 2


@pytest.mark.parametrize("argv", [["verify", "--config", "{dir}"],
                                  ["assemble", "--config", "{cfg}", "--out", "{dir}"],
                                  ["bound", "--config", "{cfg}", "--json", "{dir}"],
                                  ["report", "--config", "{cfg}", "--csv", "{dir}"]],
                         ids=["config", "out", "json", "csv"])
def test_cli_path_that_is_a_directory_is_one_error_line(argv, small_cfgs, tmp_path, capsys):
    # an unusable path is bad input like a missing one: exit 2, not a traceback
    argv = [a.format(dir=tmp_path, cfg=small_cfgs["langevin"]) for a in argv]
    code, err = _main_without_warnings(argv, capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("ConfigError: [Errno 21] Is a directory")


def test_cli_bad_config_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("model = langevin\ngamma = -3\n")
    assert main(["verify", "--config", str(path)]) == 2
    assert "gamma must be positive" in capsys.readouterr().err


def test_cli_non_finite_value_is_a_config_error(cfg_path, tmp_path, capsys):
    # inf is > 0, and used to reach the solvers as a traceback or exit 3
    assert main(["bound", "--config", cfg_path, "--gamma", "inf"]) == 2
    assert "--gamma: gamma must be positive and finite, got 'inf'" in capsys.readouterr().err
    path = tmp_path / "inf.cfg"
    path.write_text("model = langevin\nmass = inf\n")
    assert main(["bound", "--config", str(path)]) == 2
    assert "line 2: mass must be positive and finite, got 'inf'" in capsys.readouterr().err


def _main_without_warnings(argv, capsys):
    """Exit code and stderr lines of ``main(argv)``, asserting no warning was raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("gamma", ["1:inf:log3", "1:1e400:log3", "1:inf:lin3",
                                   "inf:1:log3", "1:inf:log1", "-1e308:1e308:lin3"])
def test_cli_non_finite_range_is_one_error_line(cfg_path, capsys, gamma):
    # no grid is built from a non-finite endpoint, so numpy has nothing to warn about
    code, err = _main_without_warnings(["bound", "--config", cfg_path, f"--gamma={gamma}"],
                                       capsys)
    assert code == 2
    assert err == [f"ConfigError: --gamma: gamma = {gamma!r} is malformed"]


def test_cli_underflowing_density_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "underflow.cfg"
    path.write_text("model = langevin\npotential = 1:400,0\nn_q = 8\nn_p = 8\n")
    code, err = _main_without_warnings(["bound", "--config", str(path)], capsys)
    assert code == 3
    assert len(err) == 1 and err[0].startswith("NumericalFailure: quadrature failure")


@pytest.mark.parametrize("text, variance", [
    ("beta = 1e300\nmass = 1e-30\n", "mass/beta = 0.0"),
    ("beta = 1e-309\n", "mass/beta = inf"),
])
def test_cli_unusable_gaussian_variance_is_one_error_line(tmp_path, capsys, text, variance):
    # every value is positive and finite; the Hermite basis cannot take the ratio
    path = tmp_path / "variance.cfg"
    path.write_text("model = langevin\nn_q = 4\nn_p = 4\n" + text)
    code, err = _main_without_warnings(["verify", "--config", str(path)], capsys)
    assert code == 2
    assert err == [f"ConfigError: Gaussian variance {variance} must be positive and finite"]


def test_cli_small_mass_bound_exits_zero(tmp_path, capsys):
    # lambda_min(M) = 1/m; two quadratures of it used to disagree by 3.5e-10
    # at m = 1e-6, above an absolute 1e-10, and exit 1
    path = tmp_path / "light.cfg"
    path.write_text(SMALL_CFGS["langevin"].replace("mass = 1.0", "mass = 1e-6"))
    assert main(["bound", "--config", str(path)]) == 0
    assert main(["constants", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["lambda_min_M"] == 1e6


def test_cli_tiny_mass_bound_exits_zero(tmp_path, capsys):
    # L11 ~ 1/m: its symmetry was judged against an absolute 1e-10 and exited 1
    path = tmp_path / "light.cfg"
    path.write_text(SMALL_CFGS["langevin"].replace("mass = 1.0", "mass = 1e-9"))
    code, err = _main_without_warnings(["bound", "--config", str(path)], capsys)
    assert (code, err) == (0, [])


def test_cli_non_finite_x_is_one_numerical_failure(tmp_path, capsys):
    # at beta = 1e-8, m = 1e-300, X = (1 - Pi0) A^2 Pi0 (A_+0* A_+0)^-1 comes out
    # non-finite; its SVD used to end in a ValueError traceback (exit 1)
    path = tmp_path / "cold_light.cfg"
    path.write_text(f"model = langevin\nbeta = 1e-8\nmass = 1e-300\npotential = {COS_Q}\n"
                    "n_q = 4\nn_p = 4\n")
    code, err = _main_without_warnings(["bound", "--config", str(path)], capsys)
    assert code == 3
    assert err == ["NumericalFailure: X^2: X = (1 - Pi0) A^2 Pi0 (A_+0* A_+0)^-1 is not finite"]


def test_cli_poincare_constant_at_rounding_level_is_one_numerical_failure(tmp_path, capsys):
    # W is positive semidefinite and the border removes its kernel sqrt(rho), so the
    # -4.65e-14 that cutoff 128 gives at beta = 20 is rounding: exit 3, not 1
    path = tmp_path / "wells.cfg"
    path.write_text("model = langevin\nbeta = 20\npotential = 1:0.5,0;3:0.4,0.2;7:0.3,0\n"
                    "n_q = 64\nn_p = 4\n")
    code, err = _main_without_warnings(["constants", "--config", str(path)], capsys)
    assert code == 3
    assert len(err) == 1 and err[0].startswith("NumericalFailure: Poincare constant K_nu2 = -")


def test_cli_huge_beta_constants(tmp_path, capsys):
    # beta^2 overflowed a Python float; beta/mass = inf is refused as input
    path = tmp_path / "hot.cfg"
    path.write_text("model = langevin\nbeta = 1e300\nn_q = 4\nn_p = 4\n")
    code, err = _main_without_warnings(["constants", "--config", str(path)], capsys)
    assert (code, err) == (0, [])
    # A ~ 1e-150 against S ~ 1: L is singular to working precision, with no overflow warning
    code, err = _main_without_warnings(["bound", "--config", str(path)], capsys)
    assert code == 3 and err == ["NumericalFailure: exact_resolvent_norm: L numerically "
                                 "singular, sigma_min/sigma_max = 0.000e+00"]
    path.write_text(path.read_text() + "mass = 1e-30\n")
    code, err = _main_without_warnings(["constants", "--config", str(path)], capsys)
    assert code == 2
    assert err == ["ConfigError: K_kappa2 = inf must be finite, with beta = 1e+300 and "
                   "mass = 1e-30"]


_COUPLING = ("overflow the thermostat coupling (p_i^2 - m/beta)/m^2, with p_i^2 up to "
             "(2 n_p + 1) m/beta")


@pytest.mark.parametrize("command, text, code, line", [
    # w = (p^2 - m/beta)/m/m overflows; numpy warned, and verify exited 1
    ("verify", "beta = 1e-300\nmass = 1e-300\n", 2,
     f"ConfigError: mass = 1e-300 and beta = 1e-300 {_COUPLING}"),
    # the moment p^2 = (2k + 1) m/beta overflows before w is formed
    ("verify", "beta = 1e-8\nmass = 1e300\n", 2,
     f"ConfigError: mass = 1e+300 and beta = 1e-08 {_COUPLING}"),
    # the A*A identity's scale m^2 beta^2 eps^2 underflows to 0: a ZeroDivisionError
    ("bound", "beta = 1e-300\ngamma = 1e200\n", 3,
     "NumericalFailure: thermostat scale (m beta eps)^2 = 0.0 leaves the float range"),
], ids=["coupling", "momentum_moment", "astar_a_scale"])
def test_cli_thermostat_out_of_float_range_is_one_error_line(tmp_path, capsys, command, text,
                                                              code, line):
    path = tmp_path / "thermostat.cfg"
    path.write_text(SMALL_CFGS["adaptive_langevin"].replace("beta = 1.0\nmass = 1.0\n", "")
                    .replace("gamma = 1.0\n", "") + text)
    assert _main_without_warnings([command, "--config", str(path)], capsys) == (code, [line])


@pytest.mark.parametrize("mass", ["3", "7"])
def test_cli_large_friction_verify_passes(tmp_path, capsys, mass):
    # s = gamma/m ~ 1e6 carries its own rounding: gamma*(1/m) and gamma/m differ by
    # 4.7e-10 at mass 3, which an absolute 1e-10 used to fail with every residual 0
    path = tmp_path / "heavy.cfg"
    path.write_text(f"model = langevin\npotential = {COS_Q}\nmass = {mass}\n"
                    "n_q = 4\nn_p = 4\n")
    code = main(["verify", "--config", str(path), "--gamma", "1e7"])
    assert code == 0 and "passed: True" in capsys.readouterr().out


def test_cli_huge_friction_bound_is_one_numerical_failure(capsys):
    # sqrt(|L|_1 |L|_inf) multiplied the two norms first, which overflowed at
    # gamma = 1e200 and raised under the suite's error::RuntimeWarning
    cfg = os.path.join(CONFIGS, "langevin_1d.cfg")
    assert main(["bound", "--config", cfg, "--gamma", "1e200"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "NumericalFailure: exact_resolvent_norm: (L^T L)^-1 x is not finite, "
        "L numerically singular"]


@pytest.mark.parametrize("n_q", [4, 8])
def test_cli_small_friction_rhmc_is_no_invariant_violation(n_q, tmp_path, capsys):
    # at (8, 64), a rung of both configs, route one's rounding (~1/gamma) makes S0
    # visibly asymmetric; that is no broken identity (exit 1).  The oracle's accuracy
    # gap there sits near RITZ_RTOL, so exit 0 and 3 both stand
    path = tmp_path / "rhmc.cfg"
    path.write_text(f"model = boltzmann_rhmc\npotential = {COS_Q}\ngamma = 1e-4\n"
                    f"n_q = {n_q}\nn_p = 64\n")
    code, err = _main_without_warnings(["bound", "--config", str(path)], capsys)
    assert code in (0, 3)
    assert not any("symmetry" in line for line in err)


def test_cli_huge_beta_lemmas(tmp_path, capsys):
    # 16 / beta**2 in the Villani lemma overflowed a Python float at beta = 1e300
    path = tmp_path / "hot.cfg"
    path.write_text("model = langevin\nbeta = 1e300\nn_q = 4\nn_p = 4\n")
    code, err = _main_without_warnings(["lemmas", "--config", str(path), "--suite", "2"],
                                       capsys)
    assert (code, err) == (0, [])


def test_cli_huge_beta_lemmas_on_a_potential_is_a_quadrature_failure(tmp_path, capsys):
    # the lemma grid's density underflowed to 0 at 127 of 128 points and the
    # Villani ratio read 3.7e+250, an exit 1
    path = tmp_path / "hot.cfg"
    path.write_text(f"model = langevin\npotential = {COS_Q}\nbeta = 1e300\nn_q = 4\nn_p = 4\n")
    code, err = _main_without_warnings(["lemmas", "--config", str(path), "--suite", "2"],
                                       capsys)
    assert (code, err) == (3, ["NumericalFailure: quadrature failure: the density "
                               "exp(-beta (V - min V)) is 0 or NaN at 127 of 128 grid points"])


def test_cli_tiny_beta_closed_forms_do_not_raise(tmp_path, capsys):
    # beta * beta underflows to 0 at beta = 1e-300, and the closed forms divided by it
    path = tmp_path / "cold.cfg"
    path.write_text(f"model = langevin\npotential = {COS_Q}\nbeta = 1e-300\nn_q = 4\nn_p = 4\n")
    code, err = _main_without_warnings(["constants", "--config", str(path)], capsys)
    assert (code, err) == (0, [])
    code, err = _main_without_warnings(["lemmas", "--config", str(path), "--suite", "2"],
                                       capsys)
    assert (code, err) == (0, [])
    code, err = _main_without_warnings(["bound", "--config", str(path)], capsys)
    assert code == 3 and len(err) == 1
    assert err[0].startswith("NumericalFailure: dissipation failure on H2: Gershgorin bound "
                             "of sym L++ reaches -1.000e+00, not below -64 dim_+ eps |L++|")


def test_cli_adl_huge_friction_bound_is_one_numerical_failure(capsys):
    # |X21|^2 overflowed a Python float's ** in the theorem bound at gamma = 1e200
    cfg = os.path.join(CONFIGS, "adl_1d.cfg")
    code, err = _main_without_warnings(["bound", "--config", cfg, "--gamma", "1e200"], capsys)
    assert (code, err) == (3, ["NumericalFailure: exact_resolvent_norm: (L^T L)^-1 x is not "
                               "finite, L numerically singular"])


@pytest.mark.parametrize("mass", ["1e100", "1e300"])
def test_cli_huge_mass_bound_is_a_dissipation_failure(tmp_path, capsys, mass):
    # gamma/m sits far below the rounding of a transport of size 1/sqrt(m), and
    # the Schur complement's definiteness check failed on that rounding (exit 1)
    path = tmp_path / "heavy.cfg"
    path.write_text(f"model = langevin\nmass = {mass}\npotential = {COS_Q}\nn_q = 4\nn_p = 4\n")
    code, err = _main_without_warnings(["bound", "--config", str(path)], capsys)
    assert code == 3 and len(err) == 1
    assert err[0].startswith(f"NumericalFailure: dissipation failure on H2: Gershgorin bound "
                             f"of sym L++ reaches -1.000e-{mass[2:]}, not below")


def test_cli_overflowing_friction_over_mass_is_a_config_error(tmp_path, capsys):
    # S = gamma L_FD reaches gamma n_p / m = 4e500, which overflowed in the multiply
    path = tmp_path / "light.cfg"
    path.write_text(SMALL_CFGS["langevin"].replace("mass = 1.0", "mass = 1e-300")
                    .replace("gamma = 1.0", "gamma = 1e200"))
    code, err = _main_without_warnings(["verify", "--config", str(path)], capsys)
    assert (code, err) == (2, ["ConfigError: friction gamma = 1e+200 over mass = 1e-300 "
                               "overflows S = gamma L_FD, which reaches gamma d n_p / m"])


@pytest.mark.parametrize("mass, rank", [("1e300", 40), ("1e-300", 36)])
def test_cli_extreme_thermostat_mass_is_assembled_and_ill_conditioned(tmp_path, capsys,
                                                                     mass, rank):
    # the thermostat coupling divided by m**2, which overflowed a Python float at
    # m = 1e300 and underflowed to a division by zero at m = 1e-300
    path = tmp_path / "thermostat.cfg"
    path.write_text(SMALL_CFGS["adaptive_langevin"].replace("mass = 1.0", f"mass = {mass}"))
    code, err = _main_without_warnings(["verify", "--config", str(path)], capsys)
    assert (code, err) == (0, [])
    code, err = _main_without_warnings(["bound", "--config", str(path)], capsys)
    assert code == 3 and len(err) == 1
    assert err[0].startswith(f"NumericalFailure: macroscopic coercivity failure: rank(A10) = "
                             f"{rank} < dim H0 = 44, smallest |R_ii|/|R_00| = ")
    assert err[0].endswith("A10 is ill-conditioned")


@pytest.mark.parametrize("epsilon, rank", [("1e200", 84), ("1e-200", 78)])
def test_cli_extreme_thermostat_coupling_is_a_conditioning_failure(capsys, epsilon, rank):
    # A10 has full rank in exact arithmetic, and so has A_+0 with its rows scaled to
    # unit size; its rank test sees coupling scales eps apart, not a flat direction
    cfg = os.path.join(CONFIGS, "adl_1d.cfg")
    argv = ["bound", "--config", cfg, "--epsilon-range", epsilon]
    code, err = _main_without_warnings(argv, capsys)
    assert code == 3 and len(err) == 1
    assert err[0].startswith(f"NumericalFailure: macroscopic coercivity failure: rank(A10) = "
                             f"{rank} < dim H0 = 90, smallest |R_ii|/|R_00| = ")


@pytest.mark.parametrize("model", ["langevin", "boltzmann_rhmc", "adaptive_langevin"])
def test_cli_vanishing_friction_bound_is_a_dissipation_failure(capsys, model):
    # Langevin and RHMC overflowed in the route check, the thermostat's LU pivoted
    cfg = os.path.join(CONFIGS, "adl_1d.cfg" if model == "adaptive_langevin"
                       else "langevin_1d.cfg")
    argv = ["bound", "--config", cfg, "--model", model, "--gamma", "1e-300"]
    code, err = _main_without_warnings(argv, capsys)
    assert code == 3 and len(err) == 1
    assert err[0].startswith("NumericalFailure: dissipation failure on H2: Gershgorin bound "
                             "of sym L++ reaches -1.000e-300, not below")


def test_cli_adl_small_friction_exact_norm_is_checked_by_one_matvec(capsys):
    # at gamma = 1e-5 the Lanczos sigma_min is 3.4e-6 off a dense SVD, and
    # |L z|/|z| at its own vector sees it
    cfg = os.path.join(CONFIGS, "adl_1d.cfg")
    code, err = _main_without_warnings(["bound", "--config", cfg, "--gamma", "1e-5"], capsys)
    assert code == 3 and len(err) == 1
    assert err[0].startswith("NumericalFailure: exact_resolvent_norm: sigma_min ")
    assert "inaccurate: |L z|/|z| = " in err[0]


def test_cli_rhmc_large_friction_bound_exits_zero(cfg_path, tmp_path, capsys):
    # the rounding of |S21| grows like gamma and used to fail an absolute 1e-10 at
    # gamma = 2e5; S = -gamma on H1 makes S21 vanish exactly
    out = tmp_path / "bound.json"
    argv = ["bound", "--config", cfg_path, "--model", "boltzmann_rhmc", "--gamma", "2e5",
            "--json", str(out)]
    code, err = _main_without_warnings(argv, capsys)
    assert (code, err) == (0, [])
    payload = json.loads(out.read_text())
    assert payload["converged"] is True and payload["margin"] >= 1.0


def test_cli_unknown_model_override(cfg_path, capsys):
    assert main(["verify", "--config", cfg_path, "--model", "bogus"]) == 2
    assert ("--model: model must be one of langevin, boltzmann_rhmc, adaptive_langevin, "
            "got 'bogus'") in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value, message", [
    ("assemble", "--model", "", "model must be one of langevin, boltzmann_rhmc, "
                                "adaptive_langevin, got ''"),
    ("assemble", "--gamma", "", "ConfigError"),
    ("assemble", "--epsilon-range", "", "ConfigError"),
    ("assemble", "--max-dim", "0", "--max-dim must be >= 1, got 0"),
    ("constants", "--max-dim", "0", "--max-dim must be >= 1, got 0"),
    ("constants", "--max-dim", "-5", "--max-dim must be >= 1, got -5"),
    ("lemmas", "--suite", "0", "--suite must be >= 1, got 0"),
    ("lemmas", "--suite", "-4", "--suite must be >= 1, got -4"),
    ("sweep", "--jobs", "0", "--jobs must be >= 1, got 0"),
    ("sweep", "--jobs", "-2", "--jobs must be >= 1, got -2"),
    ("lemmas", "--seed", "-1", "--seed: seed must be a nonnegative integer, got '-1'"),
    ("report", "--seed", "-3", "--seed: seed must be a nonnegative integer, got '-3'")])
def test_cli_empty_or_nonpositive_override_is_a_config_error(cfg_path, capsys, command,
                                                             flag, value, message):
    # an empty or nonpositive value is rejected, never dropped in favour of the config
    assert main([command, "--config", cfg_path, flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and message in err


@pytest.mark.parametrize("command, flag", [
    ("assemble", "--out"), ("verify", "--json"), ("report", "--json"),
    ("report", "--csv"), ("sweep", "--json"), ("sweep", "--csv")])
def test_cli_empty_output_path_is_a_config_error(cfg_path, tmp_path, monkeypatch,
                                                 capsys, command, flag):
    # an empty path is rejected before any work, never dropped or left to open()
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main([command, "--config", cfg_path, flag, ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ConfigError: {flag} needs a path, got ''\n"
    assert captured.out == "" and not list(work.iterdir())


def test_cli_max_dim_guard(cfg_path, capsys):
    try:
        assert main(["assemble", "--config", cfg_path, "--max-dim", "10"]) == 3
        assert "problem too large" in capsys.readouterr().err
    finally:
        os.environ.pop("HYPOCO_MAX_DIM", None)


@pytest.mark.parametrize("value", ["0", "-5"])
def test_cli_max_dim_from_the_environment_below_one_is_a_config_error(cfg_path, capsys,
                                                                       monkeypatch, value):
    # the same refusal, and exit code, as --max-dim 0
    monkeypatch.setenv("HYPOCO_MAX_DIM", value)
    assert main(["bound", "--config", cfg_path]) == 2
    assert capsys.readouterr().err == f"ConfigError: HYPOCO_MAX_DIM must be >= 1, got {value}\n"


def test_cli_max_dim_guard_holds_on_a_warm_cache(cfg_path, capsys):
    assert main(["report", "--config", cfg_path]) == 0
    assert main(["report", "--config", cfg_path, "--max-dim", "100"]) == 3
    assert "problem too large" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    *((command, "--out") for command in
      ("verify", "bound", "constants", "lemmas", "sweep", "report")),
    ("assemble", "--json"),
    *((command, "--seed") for command in
      ("assemble", "verify", "bound", "constants", "sweep")),
    *((command, flag) for command in ("constants", "lemmas")
      for flag in ("--model", "--gamma", "--epsilon-range")),
    ("lemmas", "--max-dim")])
def test_cli_rejects_flags_a_subcommand_does_not_read(cfg_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", cfg_path, flag, "x"])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err


def _effect(added, model="langevin", base=("--config", "{cfg}")):
    return model, list(base), list(added)


_POINT_COMMANDS = ("assemble", "verify", "bound", "sweep", "report")

#: every (subcommand, option) the parser registers -> (config, argv of a base
#: run, argv the option adds to it); the two runs must differ in exit code,
#: stdout, stderr, the files written, the worker pools started or the models
#: assembled (verify's output does not depend on epsilon)
FLAG_EFFECTS = {
    **{(command, "--config"): _effect(["--config", "{cfg}"], base=())
       for command in ("assemble", "verify", "bound", "constants", "lemmas",
                       "sweep", "report")},
    **{(command, "--model"): _effect(["--model", "boltzmann_rhmc"])
       for command in _POINT_COMMANDS},
    **{(command, "--gamma"): _effect(["--gamma", "2"])
       for command in _POINT_COMMANDS},
    **{(command, "--epsilon-range"): _effect(["--epsilon-range", "2"], "adaptive_langevin")
       for command in _POINT_COMMANDS},
    **{(command, "--max-dim"): _effect(["--max-dim", "10"])
       for command in (*_POINT_COMMANDS, "constants")},
    ("assemble", "--out"): _effect(["--out", "{dir}/ops.hypo"]),
    **{(command, "--json"): _effect(["--json", "{dir}/out.json"])
       for command in ("verify", "bound", "constants", "lemmas", "sweep", "report")},
    **{(command, "--csv"): _effect(["--csv", "{dir}/out.csv"])
       for command in ("sweep", "report")},
    **{(command, "--seed"): _effect(["--seed", "9"]) for command in ("lemmas", "report")},
    ("lemmas", "--suite"): _effect(["--suite", "3"]),
    # one point runs in-process whatever --jobs says, so the base has two
    ("sweep", "--jobs"): _effect(["--jobs", "2"],
                                 base=("--config", "{cfg}", "--gamma", "1:2:log2")),
}


def test_every_registered_flag_has_an_effect_test():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    registered = {(command, option)
                  for command, parser in subparsers.choices.items()
                  for action in parser._actions
                  if not isinstance(action, argparse._HelpAction)
                  for option in action.option_strings}
    assert registered == set(FLAG_EFFECTS)


@pytest.mark.parametrize("command, flag", sorted(FLAG_EFFECTS))
def test_cli_flag_has_an_effect(small_cfgs, tmp_path, capsys, monkeypatch, command, flag):
    pools, assembled = [], []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return map(func, items)

    def recording(basis, model):
        assembled.append(model)
        return assemble_model(basis, model)

    monkeypatch.setattr("hypoco.cli.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("hypoco.cli.assemble_model", recording)
    monkeypatch.setattr("hypoco.models.assemble_model", recording)
    model, base, added = FLAG_EFFECTS[command, flag]
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def observe(argv):
        argv = [arg.format(cfg=small_cfgs[model], dir=out_dir) for arg in argv]
        code = main([command, *argv])
        captured = capsys.readouterr()
        files = {}
        for path in sorted(out_dir.iterdir()):
            files[path.name] = path.read_bytes()
            path.unlink()
        observed = code, captured.out, captured.err, files, list(pools), list(assembled)
        pools.clear()
        assembled.clear()
        return observed

    assert observe(base) != observe(base + added)


def test_cli_max_dim_leaves_environment_unchanged(cfg_path):
    before = dict(os.environ)
    assert main(["verify", "--config", cfg_path, "--max-dim", "100000"]) == 0
    assert dict(os.environ) == before


def test_cli_rank_tol_reaches_decomposition(tmp_path, capsys):
    path = tmp_path / "rank.cfg"
    path.write_text(BASE_CFG + "rank_tol = 1.0\n")
    assert main(["bound", "--config", str(path)]) == 1
    assert "macroscopic coercivity failure" in capsys.readouterr().err


def test_cli_verify_passes(cfg_path, tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", cfg_path, "--json", str(out)]) == 0
    assert "pass" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["model"] == "langevin"
    assert payload["s_analytic"] == 1.0
    assert all(v < 1e-10 for v in payload["residuals"].values())


def test_cli_assemble_summary_and_container(cfg_path, tmp_path, capsys):
    container = tmp_path / "ops.hypo"
    cfg = tmp_path / "with_out.cfg"
    cfg.write_text(BASE_CFG + f"out = {container}\n")
    assert main(["assemble", "--config", str(cfg)]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[0])
    assert summary["dim"] == summary["dim0"] + summary["dim_plus"]
    assert summary["s_analytic"] == 1.0
    arrays, meta = load_container(str(container))
    assert set(arrays) == {"A", "S", "L", "pi0", "reversal"}
    assert meta["model"] == "langevin" and meta["dim"] == summary["dim"]
    assert arrays["L"].shape == (summary["dim"], summary["dim"])


def test_cli_constants_stdout_json(cfg_path, capsys):
    assert main(["constants", "--config", cfg_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"K_nu2", "K_kappa2", "lambda_min_M", "c1", "c2",
                            "c3", "K_hessian"}
    assert payload["K_kappa2"] == 1.0


def test_cli_constants_pinned_c2(cfg_path, tmp_path, capsys):
    cfg = tmp_path / "pinned.cfg"
    cfg.write_text(BASE_CFG + "c2 = 0.5\n")
    assert main(["constants", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c2"] == 0.5


def test_cli_bound_report_and_exit_zero(cfg_path, tmp_path):
    out = tmp_path / "bound.json"
    assert main(["bound", "--config", cfg_path, "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["bound"] >= payload["exact"] > 0
    assert payload["converged"] is True


def test_cli_lemmas_suite(cfg_path, tmp_path):
    out = tmp_path / "lemmas.json"
    assert main(["lemmas", "--config", cfg_path, "--suite", "5",
                 "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == 5
    assert payload["villani_max_ratio"] <= 1.0
    assert payload["controlH2_max_ratio"] <= 1.0
    assert payload["bochner_max_residual"] < 1e-8


def test_cli_sweep_csv_shape_and_exit(cfg_path, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg_path, "--gamma", "0.5:2:log3",
                 "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "langevin"
    assert first[2] == ""  # no thermostat parameter for this model
    assert first[-1] == "true"
    margins = [float(line.split(",")[-2]) for line in lines[1:]]
    assert all(m >= 1.0 for m in margins)


def test_cli_sweep_parallel_is_byte_identical(cfg_path, tmp_path):
    def run(jobs):
        paths = [tmp_path / f"jobs{jobs}.{ext}" for ext in ("csv", "jsonl")]
        assert main(["sweep", "--config", cfg_path, "--gamma", "0.5:2:log3",
                     "--csv", str(paths[0]), "--json", str(paths[1]),
                     "--jobs", str(jobs)]) == 0
        return [path.read_bytes() for path in paths]

    assert run(1) == run(3)


def test_cli_sweep_starts_no_more_workers_than_points(small_cfgs, monkeypatch):
    # the pool forks all max_workers processes at its first submit
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return map(func, items)

    monkeypatch.setattr("hypoco.cli.ProcessPoolExecutor", RecordingPool)
    cfg = small_cfgs["langevin"]
    main(["sweep", "--config", cfg, "--gamma", "0.5:2:log3", "--jobs", "8"])
    assert started == [3]
    main(["sweep", "--config", cfg, "--jobs", "8"])  # one point: no pool
    assert started == [3]


@pytest.mark.parametrize("model, argv, key", [
    ("langevin", ["--gamma", "0.5:2:log2"], "bound_corollary"),
    ("adaptive_langevin", ["--epsilon-range", "0.5:2:log2"], "envelope"),
], ids=["langevin", "adaptive_langevin"])
def test_cli_sweep_json_documents_feed_the_plots(small_cfgs, tmp_path, model, argv, key):
    # one document per point, in sweep order, from the same reports as the CSV
    csv_path, json_path = tmp_path / "sweep.csv", tmp_path / "sweep.jsonl"
    code = main(["sweep", "--config", small_cfgs[model], *argv,
                 "--csv", str(csv_path), "--json", str(json_path)])
    assert code in (0, 3)
    documents = [json.loads(line) for line in json_path.read_text().splitlines()]
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(documents) == len(rows) == 2
    for document, row in zip(documents, rows):
        assert document["gamma"] == float(row["gamma"])
        assert document["bound"]["bound"] == float(row["bound"])
        assert document["bound"]["exact"] == float(row["exact"])
        assert np.isfinite(document["details"][key])
    if key == "envelope":
        c_fit, factor = adl_envelope_fit([(d["gamma"], d["epsilon"], d["bound"]["exact"])
                                          for d in documents])
        assert np.isfinite(c_fit) and c_fit > 0 and factor >= 1.0


def test_cli_report_reruns_byte_identical(cfg_path, tmp_path):
    first = tmp_path / "report1.json"
    second = tmp_path / "report2.json"
    csv_first = tmp_path / "report1.csv"
    csv_second = tmp_path / "report2.csv"
    assert main(["report", "--config", cfg_path, "--json", str(first),
                 "--csv", str(csv_first)]) == 0
    assert main(["report", "--config", cfg_path, "--json", str(second),
                 "--csv", str(csv_second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert csv_first.read_bytes() == csv_second.read_bytes()
    document = json.loads(first.read_text())
    assert document["assumptions"]["passed"] is True
    assert document["bound"]["bound"] >= document["bound"]["exact"]
    assert document["config"]["model"] == "langevin"


def test_cli_report_builds_each_basis_once(tmp_path, monkeypatch):
    # the assumptions block comes from the bound's own base evaluation:
    # one basis for the base cutoff and one per doubling, nothing else
    built = []
    original = hypoco.basis.build_basis

    def counting(*args, **kwargs):
        built.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hypoco") and getattr(module, "build_basis", None) is original:
            monkeypatch.setattr(module, "build_basis", counting)
    cfg = os.path.join(CONFIGS, "langevin_1d.cfg")
    out = tmp_path / "report.json"
    assert main(["report", "--config", cfg, "--json", str(out)]) == 0
    assert [(spec.n_q, spec.n_p) for spec in built] == [(8, 8), (16, 8), (8, 16)]
    assert json.loads(out.read_text())["assumptions"]["passed"] is True


def test_cli_sweep_builds_each_distinct_basis_once(constructed, tmp_path):
    # three friction points share the base basis and its two doublings
    cfg = os.path.join(CONFIGS, "langevin_1d.cfg")
    main(["sweep", "--config", cfg, "--gamma", "0.5:2:log3",
          "--csv", str(tmp_path / "sweep.csv")])
    assert sorted((spec.n_q, spec.n_p) for spec in constructed) == [(8, 8), (8, 16), (16, 8)]


@pytest.mark.parametrize("name", ["langevin_1d", "adl_1d"])
def test_cli_outputs_identical_with_cold_and_warm_basis_cache(name, constructed, tmp_path):
    cfg = os.path.join(CONFIGS, f"{name}.cfg")

    def run(tag):
        paths = [tmp_path / f"{tag}.{ext}" for ext in ("json", "csv", "sweep.csv")]
        codes = (main(["report", "--config", cfg, "--json", str(paths[0]),
                       "--csv", str(paths[1])]),
                 main(["sweep", "--config", cfg, "--csv", str(paths[2])]))
        return codes, [path.read_bytes() for path in paths]

    cold = run("cold")
    n_cold = len(constructed)
    warm = run("warm")
    assert n_cold == 3 and len(constructed) == n_cold  # the warm run built nothing
    clear_basis_cache()
    assert run("cleared") == cold == warm


def test_cli_adaptive_model_epsilon_column(small_cfgs, tmp_path):
    csv_path = tmp_path / "adl.csv"
    code = main(["sweep", "--config", small_cfgs["adaptive_langevin"],
                 "--csv", str(csv_path)])
    assert code in (0, 3)  # margin rule does not apply to this model
    lines = csv_path.read_text().splitlines()
    row = lines[1].split(",")
    assert row[0] == "adaptive_langevin"
    assert row[2] == "1.0"


@pytest.fixture()
def forced_points(monkeypatch):
    """Pins (margin, converged) per friction value on real bound reports.

    ``forced[gamma] = (margin, converged)``; a margin of None keeps the real one.
    """
    forced = {}
    real = hypoco.models.model_bound_report

    def forcing(model, *args, **kwargs):
        report = real(model, *args, **kwargs)
        if model.gamma not in forced:
            return report
        margin, converged = forced[model.gamma]
        exact = report.exact if margin is None else report.bound / margin
        return dataclasses.replace(report, exact=exact, converged=converged,
                                   converged_q=converged, converged_p=converged)

    monkeypatch.setattr("hypoco.models.model_bound_report", forcing)
    return forced


_FALSIFIED = "margin 0.500000 < 1 on a converged point (gamma={}, epsilon=None)\n"
_SWEEP = ("sweep", "--gamma", "0.5:2:log2")


@pytest.mark.parametrize("model, argv, forced, code, err", [
    # a falsified point is reported even when another point is unconverged
    ("langevin", _SWEEP, {0.5: (0.5, True), 2.0: (None, False)}, 1, _FALSIFIED.format(0.5)),
    ("langevin", _SWEEP, {0.5: (None, True), 2.0: (None, False)}, 3,
     "1 of 2 points not converged under cutoff doubling\n"),
    ("langevin", ("bound",), {1.0: (0.5, True)}, 1, _FALSIFIED.format(1.0)),
    ("langevin", ("report",), {1.0: (0.5, True)}, 1, _FALSIFIED.format(1.0)),
    # the thermostat's margin is not judged
    *(("adaptive_langevin", (command,), {1.0: (0.5, True)}, 0, "")
      for command in ("bound", "sweep", "report"))],
    ids=["sweep-falsified-and-unconverged", "sweep-unconverged", "bound-falsified",
         "report-falsified", "thermostat-bound", "thermostat-sweep", "thermostat-report"])
def test_cli_verdict(small_cfgs, forced_points, capsys, model, argv, forced, code, err):
    forced_points.update(forced)
    assert main([argv[0], "--config", small_cfgs[model], *argv[1:]]) == code
    assert capsys.readouterr().err == err


def test_cli_gamma_override_rejects_nonpositive(cfg_path, capsys):
    assert main(["bound", "--config", cfg_path, "--gamma", "-2"]) == 2
    assert "positive" in capsys.readouterr().err


def test_runconfig_potential_roundtrip():
    config = RunConfig(potential_text=COS_Q)
    pot = config.potential()
    assert pot.degrees == (1,)
    grid = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    vals = pot.value_grid(grid.reshape(1, -1))
    assert np.allclose(vals, np.cos(grid), atol=1e-12)
