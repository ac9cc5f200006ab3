"""Tests for the dynamics-specific resolvent bounds and rate machinery."""

import math
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hypoco.models
from hypoco.basis import BasisSpec, Potential, build_basis
from hypoco.constants import case_constants, constants_summary, poincare_constant
from hypoco.errors import ConfigError, InvariantViolation, NumericalFailure
from hypoco.models import (
    adl_AstarA_residual,
    adl_a_squared,
    adl_bound,
    adl_envelope,
    corollary_bound,
    langevin_bound_formula,
    langevin_bound_general,
    model_bound_report,
    norm_X_hamiltonian_squared,
    rhmc_bound,
    rhmc_bound_formula,
)
from hypoco.operators import (ModelOperators, ModelSpec, assemble_model,
                              verify_structural_assumptions)
from hypoco.schur import build_decomposition, intermediate_norms

from conftest import COS_Q
from criteria import (adl_envelope_fit, alpha_T, check_static_inequality, fit_loglog_slope,
                      static_poincare_constants)


# ---------------------------------------------------------------------------
# the X norm and its proposition bound
# ---------------------------------------------------------------------------


def test_x_norm_flat_potential_is_two():
    # For V = 0 the commutator norm hits the proposition limit exactly.
    spec = BasisSpec(d=1, n_q=8, n_p=8, beta=1.0, mass=1.0)
    basis = build_basis(spec, potential=None)
    ops = assemble_model(basis, ModelSpec(model="langevin", gamma=1.0,
                                          beta=1.0, mass=1.0, d=1))
    x2 = norm_X_hamiltonian_squared(ops)
    # equality case of the convex bound X^2 <= 2(C + C'/K^2) with C=1, C'=0
    assert abs(x2 - 2.0) < 1e-10, x2


def test_x_norm_solves_only_the_rows_reached_from_degree_zero():
    # the full dense H+ x H0 block of A^2 gives the same norm
    pot = Potential.from_string("1 0:0.5,0;0 1:0.3,0.1;1 1:0.2,0", d=2)
    basis = build_basis(BasisSpec(d=2, n_q=3, n_p=3), potential=pot)
    ops = assemble_model(basis, ModelSpec(model="langevin", gamma=1.0, d=2))
    a2 = (ops.A @ ops.A).toarray()[np.ix_(ops.idx_plus, ops.idx0)]
    dense = np.linalg.norm(np.linalg.solve(ops.apl0_gram, a2.T).T, 2) ** 2
    assert abs(norm_X_hamiltonian_squared(ops) - dense) <= 1e-13 * dense


def test_x_norm_proposition_violation(langevin_ops):
    # declaring the cosine potential convex understates the limit:
    # X^2(cos q) > 2 = 2(C + C'/K^2) for the convex case
    k2 = poincare_constant("nu", potential=langevin_ops.basis.potential,
                           beta=1.0, d=1, n_q=32).constant
    c, cprime = case_constants("convex", beta=1.0, d=1, params={})
    assert norm_X_hamiltonian_squared(langevin_ops) > 2.0 * (c + cprime / k2) + 1e-8


def test_x_norm_within_general_case_limit(langevin_ops):
    pot = langevin_ops.basis.potential
    k2 = poincare_constant("nu", potential=pot, beta=1.0, d=1, n_q=32).constant
    c, cprime = case_constants("general", beta=1.0, d=1, params={"c1": 1.0, "c3": 1.0})
    assert norm_X_hamiltonian_squared(langevin_ops) <= 2.0 * (c + cprime / k2) + 1e-8


def test_x_norm_dimension_two_close_to_one_dimensional(langevin_ops):
    # the separable two-dimensional problem reproduces the one-dimensional
    # norm; cutoffs are small here, so allow a generous tolerance
    x1 = norm_X_hamiltonian_squared(langevin_ops)
    spec2 = BasisSpec(d=2, n_q=4, n_p=4, beta=1.0, mass=1.0)
    pot2 = Potential.from_string("1 0:0.5,0;0 1:0.5,0", d=2)
    basis2 = build_basis(spec2, potential=pot2)
    ops2 = assemble_model(basis2, ModelSpec(model="langevin", gamma=1.0,
                                            beta=1.0, mass=1.0, d=2))
    x2 = norm_X_hamiltonian_squared(ops2)
    assert abs(x2 - x1) < 0.15 * x1, (x1, x2)


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def test_bound_formula_unit_substitutions():
    # unit parameters with X = 0 collapse both closed forms to 5
    assert abs(corollary_bound(1.0, 1.0, 1.0, 1.0, 0.0) - 5.0) < 1e-15
    assert abs(rhmc_bound_formula(1.0, 1.0, 1.0, 1.0, 0.0) - 5.0) < 1e-15
    # general form with quadratic kinetic energy (unit mass: |Pi1 LFD Pi1| =
    # lambda_min = 1, K_kappa^2 = beta) matches the corollary
    assert abs(langevin_bound_formula(2.0, 1.0, 1.0, 1.0, 1.5, 1.0, 0.3)
               - corollary_bound(2.0, 1.0, 1.0, 1.5, 0.3)) < 1e-14
    # no gamma^2 X_S^2 term to overflow a Python float at gamma = 1e200
    assert langevin_bound_formula(1e200, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5) == 2e200


def test_langevin_general_matches_corollary(langevin_ops):
    # quadratic kinetic energy: the fluctuation-dissipation block acts as
    # -1/m on H1 and the cross term X_S vanishes, so the general bound
    # collapses to the closed-form corollary
    dec = build_decomposition(langevin_ops)
    pot = langevin_ops.basis.potential
    constants = constants_summary(pot, 1.0, 1.0, 1, n_q=32)
    bound, norms = langevin_bound_general(dec, constants)
    assert abs(norms["norm_pi1_lfd_pi1"] - 1.0) < 1e-12
    assert norms["norm_S21"] == norms["norm_XS"] == 0.0
    assert abs(bound - norms["bound_corollary"]) < 1e-10 * bound


@pytest.mark.parametrize("which", ["langevin", "boltzmann_rhmc"])
def test_s21_check_rejects_s_with_two_values_on_h1(which, langevin_ops, rhmc_ops):
    # S21 = 0 is checked, not computed: S must take one value on Q1's rows
    ops = langevin_ops if which == "langevin" else rhmc_ops
    dec = build_decomposition(ops)
    row = ops.idx_plus[dec.h1_rows[np.argmax(np.abs(dec.Q1[:, 0]))]]
    bad_s = ops.S.copy()
    bad_s[row] *= 2.0
    dec = build_decomposition(replace(ops, S=bad_s))
    constants = constants_summary(ops.basis.potential, 1.0, 1.0, 1, n_q=32)
    bound_fn = langevin_bound_general if which == "langevin" else rhmc_bound
    with pytest.raises(InvariantViolation,
                       match="^S21 need not vanish: S takes 2 values on H1$"):
        bound_fn(dec, constants)


def test_langevin_general_rejects_other_models(rhmc_ops):
    dec = build_decomposition(rhmc_ops)
    with pytest.raises(ConfigError, match="langevin"):
        langevin_bound_general(dec, {})


def test_rhmc_bound_structural_facts(rhmc_ops):
    dec = build_decomposition(rhmc_ops)
    pot = rhmc_ops.basis.potential
    constants = constants_summary(pot, 1.0, 1.0, 1, n_q=32)
    bound, norms = rhmc_bound(dec, constants)
    assert abs(norms["norm_S11"] - 1.0) < 1e-10
    assert norms["norm_S21"] == 0.0
    expected = rhmc_bound_formula(1.0, 1.0, constants["lambda_min_M"],
                                  constants["K_nu2"], norms["X2"])
    assert bound == expected


def test_rhmc_bound_rejects_other_models(langevin_ops):
    dec = build_decomposition(langevin_ops)
    with pytest.raises(ConfigError, match="boltzmann_rhmc"):
        rhmc_bound(dec, {})


def test_rhmc_bound_checks_collision_value_on_h1_exactly(rhmc_ops):
    # S one value on H1 passes _model_norms; that value must be -gamma itself
    s = np.where(rhmc_ops.basis.p_degree == 1, 2.0 * rhmc_ops.S, rhmc_ops.S)
    ops = ModelOperators(model=rhmc_ops.model, basis=rhmc_ops.basis, A=rhmc_ops.A, S=s,
                         pi0=rhmc_ops.pi0, reversal=rhmc_ops.reversal)
    with pytest.raises(InvariantViolation,
                       match=r"collision S on H1 is -2\.0, not -gamma = -1\.0"):
        rhmc_bound(build_decomposition(ops), {})


# ---------------------------------------------------------------------------
# thermostated model
# ---------------------------------------------------------------------------


def test_adl_astara_identity(adl_ops):
    residual = adl_AstarA_residual(adl_ops)
    assert residual < 1e-10, residual


def test_adl_astara_rejects_other_models(langevin_ops):
    with pytest.raises(ConfigError, match="adaptive_langevin"):
        adl_AstarA_residual(langevin_ops)


def test_adl_a_squared_branches():
    # unit parameters sit exactly at the branch point min(2, 1) = 1
    assert adl_a_squared(1.0, 1, 1.0, 1.0) == 1.0
    # small epsilon: the thermostat branch 2d/(m^2 eps^2) stops binding
    assert adl_a_squared(1.0, 1, 0.1, 1.0) == 1.0
    # large epsilon: the thermostat branch binds
    assert abs(adl_a_squared(1.0, 1, 10.0, 1.0) - 0.02) < 1e-15
    # beta rescales the whole gap
    assert abs(adl_a_squared(2.0, 1, 1.0, 1.0) - 0.5) < 1e-15


@pytest.mark.parametrize("mass, epsilon", [(1e200, 1.0), (1.0, 1e200), (1e-200, 1.0)])
def test_adl_a_squared_out_of_float_range_is_a_numerical_failure(mass, epsilon):
    # m**2 or eps**2 past the float range raised OverflowError, and (m eps)^2 = 0
    # a ZeroDivisionError
    with pytest.raises(NumericalFailure, match=r"thermostat scale \(m eps\)\^2 = "):
        adl_a_squared(1.0, 1, epsilon, 1.0, mass)


def test_adl_envelope_values():
    assert adl_envelope(1.0, 1.0) == 1.0
    assert adl_envelope(4.0, 1.0) == 4.0
    assert adl_envelope(0.25, 1.0) == 4.0
    assert adl_envelope(0.25, 0.25) == 64.0
    assert adl_envelope(4.0, 4.0) == 64.0


def test_adl_envelope_fit_recovers_exact_prefactor():
    gammas = [0.25, 1.0, 4.0]
    epsilons = [0.5, 1.0, 2.0]
    points = [(g, e, 3.7 * adl_envelope(g, e))
              for g in gammas for e in epsilons]
    c_fit, factor = adl_envelope_fit(points)
    assert abs(c_fit - 3.7) < 1e-12
    assert abs(factor - 1.0) < 1e-12
    with pytest.raises(ConfigError):
        adl_envelope_fit([])


def test_adl_bound_end_to_end(adl_ops):
    dec = build_decomposition(adl_ops)
    pot = adl_ops.basis.potential
    constants = constants_summary(pot, 1.0, 1.0, 1, n_q=32)
    bound, details = adl_bound(dec, constants)
    assert details["AstarA_residual"] < 1e-10
    assert details["envelope"] == 1.0
    assert bound > 0
    # the saddle-point bound built from the numerical blocks dominates the
    # truth for this configuration
    from hypoco.schur import exact_resolvent_norm
    assert bound >= exact_resolvent_norm(adl_ops.L)


#: its Galerkin gap at n_q = 8 sits 4e-5 below the continuum floor
SKEW_POTENTIAL = "1:0.5,0.3;3:0.7,0"


def test_adl_gap_floor_is_taken_at_the_operators_cutoff():
    spec = BasisSpec(d=1, n_q=8, n_p=6, n_xi=6)
    model = ModelSpec(model="adaptive_langevin", gamma=1.0, epsilon=1.0)
    report = model_bound_report(model, spec, Potential.from_string(SKEW_POTENTIAL, d=1),
                                check_convergence=False)
    assert report.a**2 < report.details["a2_analytic"] - 1e-8


def test_adl_gap_below_the_cutoff_floor_fails(monkeypatch):
    pot = Potential.from_string(SKEW_POTENTIAL, d=1)
    basis = build_basis(BasisSpec(d=1, n_q=8, n_p=6, n_xi=6), potential=pot)
    dec = build_decomposition(assemble_model(
        basis, ModelSpec(model="adaptive_langevin", gamma=1.0, epsilon=1.0)))
    k2 = poincare_constant("nu", potential=pot, n_q=8).constant
    floor = adl_a_squared(1.0, 1, 1.0, k2, 1.0)
    norms = intermediate_norms(dec)
    monkeypatch.setattr(hypoco.models, "intermediate_norms",
                        lambda dec: {**norms, "a": math.sqrt(floor - 1e-7)})
    with pytest.raises(InvariantViolation, match="numerical gap"):
        adl_bound(dec, {"K_nu2": k2})


def test_adl_gap_floor_is_judged_relative_to_its_size():
    # at m = 1e-9 the floor K_nu^2/m is ~1.2e9: a gap equal to it up to rounding
    # missed an absolute 1e-8 and exited 1
    spec = BasisSpec(d=1, n_q=4, n_p=4, n_xi=4, mass=1e-9)
    model = ModelSpec(model="adaptive_langevin", gamma=1.0, epsilon=1.0, mass=1e-9)
    report = model_bound_report(model, spec, Potential.from_string(COS_Q, d=1),
                                check_convergence=False)
    assert report.a**2 == pytest.approx(report.details["a2_analytic"], rel=1e-6)
    assert report.margin > 1.0


# ---------------------------------------------------------------------------
# static inequality and semigroup rate
# ---------------------------------------------------------------------------


def test_static_poincare_constants_definition(langevin_ops):
    dec = build_decomposition(langevin_ops)
    c1, c2 = static_poincare_constants(dec)
    x2 = norm_X_hamiltonian_squared(langevin_ops)
    assert abs(c1 - (1.0 + np.sqrt(x2))) < 1e-12
    # C2 = |(1 - S_++)^{1/2} A_{+0} (A*A)^{-1}| with the square root taken densely
    vals, vecs = np.linalg.eigh(np.eye(len(langevin_ops.idx_plus))
                                - np.diag(langevin_ops.Spp))
    apl0 = langevin_ops.apl0.toarray()
    pseudo = np.linalg.solve(apl0.T @ apl0, apl0.T).T
    assert c2 == pytest.approx(np.linalg.norm((vecs * np.sqrt(vals)) @ vecs.T @ pseudo, 2),
                               rel=1e-12)


def test_static_poincare_constants_reject_indefinite_one_minus_s(langevin_ops):
    # S > 0 also fails the decomposition's dissipation check, so the healthy
    # decomposition is handed the faulty operators
    s = langevin_ops.S.copy()
    s[langevin_ops.idx_plus[-1]] = 2.0
    fake = replace(langevin_ops, S=s)
    with pytest.raises(NumericalFailure, match="1 - S is not positive definite on H"):
        static_poincare_constants(replace(build_decomposition(langevin_ops), ops=fake))


def test_static_inequality_holds_on_random_suite(langevin_ops):
    dec = build_decomposition(langevin_ops)
    c1, c2 = static_poincare_constants(dec)
    worst = check_static_inequality(langevin_ops, c1, c2,
                                    n_samples=50, seed=3)
    assert worst <= 1.0


def test_static_inequality_detects_false_constants(langevin_ops):
    with pytest.raises(InvariantViolation, match="static inequality"):
        check_static_inequality(langevin_ops, 1e-6, 1e-6, n_samples=5)


@pytest.mark.parametrize("c1, c2", [(1.0, float("nan")), (float("nan"), 1.0),
                                    (float("inf"), 1.0), (1.0, 0.0), (-1.0, 1.0)])
def test_static_inequality_refuses_constants_that_are_not_positive_and_finite(
        langevin_ops, c1, c2):
    # max(worst, nan) keeps worst: a NaN constant used to return 0.0, a pass
    with pytest.raises(ConfigError, match="must be positive and finite"):
        check_static_inequality(langevin_ops, c1, c2, n_samples=5)


def test_alpha_t_frozen_value_and_shape():
    assert abs(alpha_T(1.0, 1.0, 1.0, 1.0, 1.0) - 2.0 / 3.0) < 1e-15
    # contraction factor lies in (0, 1) and improves with longer periods
    vals = [alpha_T(1.0, 1.0, t, 1.0, 1.0) for t in (0.5, 1.0, 2.0, 8.0)]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_alpha_t_friction_asymptotics():
    # -log alpha ~ gamma s T / C1^2 for small gamma and ~ T / (gamma C2^2)
    # for large gamma
    s, t, c1t, c2t = 1.3, 0.7, 1.1, 0.9
    small, large = 1e-3, 1e3
    lo = -math.log(alpha_T(small, s, t, c1t, c2t))
    hi = -math.log(alpha_T(large, s, t, c1t, c2t))
    assert abs(lo / (small * s * t / c1t**2) - 1.0) < 0.01
    assert abs(hi / (t / (large * c2t**2)) - 1.0) < 0.01


def test_alpha_t_rejects_nonpositive_inputs():
    with pytest.raises(ConfigError, match="invalid rate inputs"):
        alpha_T(-1.0, 1.0, 1.0, 1.0, 1.0)
    try:
        alpha_T(0.0, -2.0, 1.0, 1.0, 1.0)
    except ConfigError as exc:
        assert len(exc.problems) == 2, exc.problems
    else:
        raise AssertionError("expected ConfigError for two bad inputs")


def test_fit_loglog_slope_recovers_power():
    x = np.geomspace(0.01, 100.0, 13)
    assert abs(fit_loglog_slope(x, 3.0 * x**2) - 2.0) < 1e-12
    assert abs(fit_loglog_slope(x, 0.5 / x) + 1.0) < 1e-12


# ---------------------------------------------------------------------------
# report orchestration
# ---------------------------------------------------------------------------


def test_model_bound_report_fields_and_margin():
    spec = BasisSpec(d=1, n_q=6, n_p=6, beta=1.0, mass=1.0)
    model = ModelSpec(model="langevin", gamma=1.0, beta=1.0, mass=1.0, d=1)
    pot = Potential.from_string(COS_Q, d=1)
    report = model_bound_report(model, spec, pot, check_convergence=False)
    assert report.model == "langevin"
    assert report.bound >= report.exact > 0
    assert report.margin >= 1.0
    assert report.n_xi == 0
    assert abs(report.a**2 - report.details["constants"]["K_nu2"]) < 1e-8
    payload = report.to_json_dict()
    assert payload["bound"] == report.bound
    assert isinstance(payload["converged"], bool)


def test_model_bound_report_convergence_flags():
    # with a tight relative tolerance at a coarse truncation the doubling
    # test must report non-convergence rather than a silent pass
    spec = BasisSpec(d=1, n_q=2, n_p=2, beta=1.0, mass=1.0)
    model = ModelSpec(model="langevin", gamma=1.0, beta=1.0, mass=1.0, d=1)
    pot = Potential.from_string(COS_Q, d=1)
    report = model_bound_report(model, spec, pot, rel_tol=1e-12)
    assert not report.converged


@pytest.mark.parametrize("moved", ["n_q", "n_p"])
@pytest.mark.parametrize("field", ["bound", "exact"])
def test_model_bound_report_ladder_reads_both_cutoffs_and_values(monkeypatch, moved,
                                                                 field):
    # each doubled cutoff reproduces the base point, except one value at one cutoff:
    # the report must come back unconverged, on that coordinate only
    spec, model = BasisSpec(d=1, n_q=4, n_p=4), ModelSpec(model="langevin", gamma=1.0)
    pot = Potential.from_string(COS_Q, d=1)
    constants = constants_summary(pot, 1.0, 1.0, 1, n_q=32)
    rep, bound, details, exact = hypoco.models._evaluate(model, spec, pot, constants,
                                                         1e-10, 1e-12)
    doubled = {"bound": bound, "exact": exact}
    doubled[field] *= 1.1

    def evaluate(_model, s, *args):
        if getattr(s, moved) == 2 * getattr(spec, moved):
            return rep, doubled["bound"], details, doubled["exact"]
        return rep, bound, details, exact

    monkeypatch.setattr(hypoco.models, "_evaluate", evaluate)
    report = model_bound_report(model, spec, pot, constants=constants)
    assert (report.converged_q, report.converged_p) == (moved != "n_q", moved != "n_p")
    assert report.converged is False


@pytest.mark.parametrize("which", ["langevin", "boltzmann_rhmc"])
def test_model_bound_report_x21_matches_intermediate_norms(which, langevin_ops,
                                                           rhmc_ops):
    # one X21 = L21 A10 (A*A)^{-1}; A10 is not symmetric, so L21 A10^{-1}
    # would be a different number under the same key
    ops = {"langevin": langevin_ops, "boltzmann_rhmc": rhmc_ops}[which]
    dec = build_decomposition(ops)
    assert np.max(np.abs(dec.A10 - dec.A10.T)) > 1.0
    report = model_bound_report(ops.model, ops.basis.spec, ops.basis.potential,
                                check_convergence=False)
    expected = intermediate_norms(dec)["norm_L21A10inv"]
    assert report.norm_L21A10inv == pytest.approx(expected, rel=1e-12)


def test_model_bound_report_d2_matches_d1_tensorization():
    # the separable potential at d=2 (dim 8,280) gives the d=1 bound and exact
    # norm: the Langevin generator is a Kronecker sum of two d=1 copies
    reports = {}
    for d, text in ((1, COS_Q), (2, "1 0:0.5,0;0 1:0.5,0")):
        reports[d] = model_bound_report(
            ModelSpec(model="langevin", gamma=1.0, d=d), BasisSpec(d=d, n_q=6, n_p=6),
            Potential.from_string(text, d=d), check_convergence=False)
    assert reports[2].assumptions.passed
    assert reports[2].margin >= 1.0
    assert reports[2].bound == pytest.approx(reports[1].bound, rel=1e-8)
    assert reports[2].exact == pytest.approx(reports[1].exact, rel=1e-8)


@pytest.mark.parametrize("which", ["langevin", "boltzmann_rhmc", "adaptive_langevin"])
def test_model_bound_report_non_separable_d2(which):
    # modes (1, 1) and (1, -1) couple the two coordinates: verify, both Schur
    # routes and the thermostat's gap floor must hold off the tensor products too
    thermostat = which == "adaptive_langevin"
    report = model_bound_report(
        ModelSpec(model=which, gamma=1.0, d=2, epsilon=1.0 if thermostat else None),
        BasisSpec(d=2, n_q=3, n_p=3, n_xi=2 if thermostat else 0),
        Potential.from_string("1 1:0.2,0;1 -1:0.2,0", d=2), check_convergence=False)
    assert report.assumptions.passed
    if not thermostat:
        assert report.margin >= 1.0


_MODEL_SPECS = {
    "langevin": (ModelSpec(model="langevin", gamma=1.0), BasisSpec(d=1, n_q=4, n_p=4)),
    "boltzmann_rhmc": (ModelSpec(model="boltzmann_rhmc", gamma=1.0),
                       BasisSpec(d=1, n_q=4, n_p=4)),
    "adaptive_langevin": (ModelSpec(model="adaptive_langevin", gamma=1.0, epsilon=1.0),
                          BasisSpec(d=1, n_q=4, n_p=4, n_xi=4)),
}


@pytest.mark.parametrize("which", sorted(_MODEL_SPECS))
@pytest.mark.parametrize("part, key, sign", [("A", "A_antisymmetry", 1.0)])
def test_broken_symmetry_fails_the_run(which, part, key, sign, cos_potential, monkeypatch):
    # a symmetric bump in A must fail verify, and a report must refuse to
    # build a bound on top of it (S is a diagonal, symmetric by construction)
    model, spec = _MODEL_SPECS[which]

    def broken(basis, model_spec):
        ops = assemble_model(basis, model_spec)
        i, j = ops.idx_plus[:2]
        bump = sp.csr_matrix(([1e-6, sign * 1e-6], ([i, j], [j, i])), shape=ops.L.shape)
        return replace(ops, **{part: getattr(ops, part) + bump})

    report = verify_structural_assumptions(broken(build_basis(spec, cos_potential), model))
    assert report.residuals[key] == pytest.approx(2e-6)
    assert report.residuals[key] > report.tol
    assert report.passed is False
    monkeypatch.setattr(hypoco.models, "assemble_model", broken)
    with pytest.raises(InvariantViolation, match="structural assumptions failed"):
        model_bound_report(model, spec, cos_potential, constants={},
                           check_convergence=False)


@pytest.mark.parametrize("which", sorted(_MODEL_SPECS))
def test_each_block_is_sliced_once_per_evaluation(which, cos_potential, monkeypatch):
    # only the first evaluation reads A_{+0}, and slices it: it is kept per transport,
    # and so is the dense copy of its H1 rows the route certificate reads.  The second
    # slices no H+ x H+ block: L11 and X21 read L on the H1 columns only, and the
    # dissipation proof adds S to sums of A kept per transport
    calls, shapes = {"apl0": 0}, []
    block = ModelOperators.apl0.func

    def counting(self):
        calls["apl0"] += 1
        return block(self)

    counted = cached_property(counting)
    counted.__set_name__(ModelOperators, "apl0")
    monkeypatch.setattr(ModelOperators, "apl0", counted)
    for cls in (sp.csr_matrix, sp.csc_matrix):
        def recording(self, key, getitem=cls.__getitem__):
            out = getitem(self, key)
            shapes.append(getattr(out, "shape", None))
            return out
        monkeypatch.setattr(cls, "__getitem__", recording)
    model, spec = _MODEL_SPECS[which]
    p_degree = build_basis(spec, cos_potential).p_degree
    n_plus, n0 = int(np.sum(p_degree > 0)), int(np.sum(p_degree == 0))
    model_bound_report(model, spec, cos_potential, check_convergence=False)
    cold = len(shapes)
    model_bound_report(replace(model, gamma=2.0), spec, cos_potential, check_convergence=False)
    assert calls == {"apl0": 1}
    assert (n_plus, n0) in shapes[:cold]
    assert (n_plus, n0) not in shapes[cold:] and (n_plus, n_plus) not in shapes[cold:]


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------


@given(gamma=st.floats(0.05, 20.0), beta=st.floats(0.2, 5.0),
       x2=st.floats(0.0, 10.0))
@settings(max_examples=50, deadline=None)
def test_corollary_bound_positive_and_monotone_in_x(gamma, beta, x2):
    base = corollary_bound(gamma, beta, 1.0, 1.0, x2)
    assert base > 0
    assert corollary_bound(gamma, beta, 1.0, 1.0, x2 + 1.0) > base


@given(gamma=st.floats(0.01, 100.0), epsilon=st.floats(0.05, 20.0))
@settings(max_examples=100, deadline=None)
def test_adl_envelope_at_least_one(gamma, epsilon):
    # max(x, 1/x, ...) >= 1 always, and the envelope is symmetric under
    # (gamma eps^2) -> 1/(gamma eps^2) with gamma -> 1/gamma
    env = adl_envelope(gamma, epsilon)
    assert env >= 1.0
    swapped = adl_envelope(1.0 / gamma, epsilon)
    assert math.isclose(env, adl_envelope(gamma, epsilon))
    assert swapped >= 1.0


@st.composite
def band_limited_potential(draw):
    """'1:a,b;2:c,d;...' with degree <= 3 and coefficients in [-1/2, 1/2]."""
    degree = draw(st.integers(0, 3))
    coef = st.floats(-0.5, 0.5)
    return ";".join(f"{k}:{draw(coef)!r},{draw(coef)!r}"
                    for k in range(1, degree + 1)) or "0"


@given(potential=band_limited_potential(), beta=st.floats(0.5, 2.0),
       mass=st.floats(0.5, 2.0), log_gamma=st.floats(-2.0, 2.0),
       model=st.sampled_from(["langevin", "boltzmann_rhmc"]))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_model_bound_report_sound_on_random_potentials(potential, beta, mass,
                                                       log_gamma, model):
    # soundness beyond the hand-picked potentials: margin >= 1 wherever the
    # cutoff doubling says the point is resolved
    spec = BasisSpec(d=1, n_q=8, n_p=8, beta=beta, mass=mass)
    report = model_bound_report(
        ModelSpec(model=model, gamma=10.0**log_gamma, beta=beta, mass=mass, d=1),
        spec, Potential.from_string(potential, d=1))
    assert report.exact > 0
    if report.converged:
        assert report.margin >= 1.0
