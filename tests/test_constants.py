import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoco.basis import BasisSpec, Potential, build_basis
from hypoco.constants import (case_constants, check_bochner, check_controlH2,
                              check_villani_lemma, constants_summary,
                              estimate_growth_constants, estimate_hessian_K,
                              growth_case_iii_cprime, poincare_constant)
from hypoco.errors import ConfigError, InvariantViolation, NumericalFailure

from conftest import COS_COS2, COS_Q


# ---------------------------------------------------------------------------
# Poincare constants
# ---------------------------------------------------------------------------


def test_poincare_flat_torus_is_one():
    res = poincare_constant("nu", potential=None, beta=1.0, d=1, n_q=16)
    assert abs(res.constant - 1.0) < 1e-12


def test_poincare_cos_reference_value():
    pot = Potential.from_string(COS_Q, d=1)
    res = poincare_constant("nu", potential=pot, beta=1.0, d=1, n_q=32)
    assert abs(res.constant - 1.1654965304645213) < 1e-9
    refined = poincare_constant("nu", potential=pot, beta=1.0, d=1, n_q=64)
    assert abs(refined.constant - res.constant) < 1e-6


def test_poincare_separable_2d_matches_1d():
    pot1 = Potential.from_string(COS_Q, d=1)
    pot2 = Potential.from_string("1 0:0.5,0;0 1:0.5,0", d=2)
    k1 = poincare_constant("nu", potential=pot1, beta=1.0, d=1, n_q=12).constant
    k2 = poincare_constant("nu", potential=pot2, beta=1.0, d=2, n_q=12).constant
    assert abs(k1 - k2) < 1e-9 * k1


@pytest.mark.parametrize("text", ["1 0:0.5,0;0 1:0.5,0", "1 1:0.2,0.1;1 0:0.5,0", "0"])
def test_poincare_sparse_matches_dense_eigh(text):
    # the shift-invert solve against a dense eigh of W restricted by T
    pot = Potential.from_string(text, d=2)
    basis = build_basis(BasisSpec(d=2, n_q=12, n_p=0), potential=pot)
    w = sum(basis.witten_deriv(i).T @ basis.witten_deriv(i) for i in range(2))
    t = basis.T.toarray()
    wr = t.T @ w.toarray() @ t
    dense = float(np.linalg.eigvalsh(wr)[0])
    res = poincare_constant("nu", potential=pot, beta=1.0, d=2, n_q=12)
    assert abs(res.constant - dense) < 1e-10 * dense
    assert res.eigenvector.shape == (basis.spec.n_pos - 1,)
    vec = res.eigenvector
    assert np.linalg.norm(wr @ vec - res.constant * vec) < 1e-8


def test_poincare_position_checks(monkeypatch):
    with pytest.raises(ConfigError, match="potential dimension"):
        poincare_constant("nu", potential=Potential.from_string(COS_Q, d=1), d=2, n_q=4)
    with pytest.raises(ConfigError, match="torus length"):
        poincare_constant("nu", potential=Potential.from_string(COS_Q, d=1), d=1,
                          n_q=4, torus_length=1.0)
    with pytest.raises(ConfigError, match="n_q >= 1"):
        poincare_constant("nu", potential=None, d=1, n_q=0)
    monkeypatch.setenv("HYPOCO_MAX_DIM", "80")
    with pytest.raises(NumericalFailure, match="problem too large"):
        poincare_constant("nu", potential=None, d=2, n_q=4)


def test_poincare_unknown_measure():
    for measure in ("speed", "kappa", "momentum"):
        with pytest.raises(ConfigError, match="unknown measure"):
            poincare_constant(measure)


# ---------------------------------------------------------------------------
# growth constants
# ---------------------------------------------------------------------------


def test_growth_constants_flat():
    g = estimate_growth_constants(None, beta=1.0, d=1)
    assert g.c1 == pytest.approx(1e-6)
    assert g.c2 == 0.0
    assert g.c3 == pytest.approx(1e-6)


def test_growth_constants_cos():
    pot = Potential.from_string(COS_Q, d=1)
    g = estimate_growth_constants(pot, beta=1.0, d=1)
    assert abs(g.c1 - 1.0) < 1e-12
    assert g.c2 == 0.0
    assert abs(g.c3 - 1.0) < 1e-12
    assert abs(g.cprime_case_iii - 34.0) < 1e-10


def test_growth_constants_pinned_c2():
    # pinning c2 restricts the scan; for cos q the c1 maximizer has
    # vanishing gradient, so c1 stays 1 for every admissible c2
    pot = Potential.from_string(COS_Q, d=1)
    g = estimate_growth_constants(pot, beta=1.0, d=1, c2=0.3)
    assert g.c2 == 0.3
    assert abs(g.c1 - 1.0) < 1e-12
    with pytest.raises(ConfigError, match="c2 must be in"):
        estimate_growth_constants(pot, beta=1.0, d=1, c2=1.5)


def test_growth_constants_separable_2d():
    pot = Potential.from_string("1 0:0.5,0;0 1:0.5,0", d=2)
    g = estimate_growth_constants(pot, beta=1.0, d=2, n_grid=96)
    assert abs(g.c1 - 1.0) < 1e-12
    assert abs(g.c3 - 1.0) < 1e-12


def test_growth_constants_grid_stability():
    # the argmax moves by O(h) between grids, the value by O(h^2)
    pot = Potential.from_string(COS_COS2, d=1)
    g1 = estimate_growth_constants(pot, beta=1.0, d=1, n_grid=256)
    g2 = estimate_growth_constants(pot, beta=1.0, d=1, n_grid=512)
    assert abs(g1.c1 - g2.c1) < 1e-3
    assert abs(g1.c3 - g2.c3) < 1e-3


def test_growth_case_iii_frozen():
    # c1 = c3 = beta = d = 1: C' = 2(sqrt(1) + 2 max(8, 1)) = 34
    assert growth_case_iii_cprime(1.0, 1.0, 1.0, 1) == pytest.approx(34.0)


def test_growth_case_iii_takes_a_beta_whose_square_overflows():
    # 8 c3 / beta^2 reads 0 once beta^2 is past the float range; no OverflowError
    assert growth_case_iii_cprime(1.0, 1.0, 1e300, 1) == 2.0 * (1.0 + 2.0 * 1e-150)


def test_closed_forms_take_a_beta_whose_square_underflows():
    # beta * beta reads 0 at beta = 1e-300: dividing by it raised ZeroDivisionError
    assert growth_case_iii_cprime(1.0, 1.0, 1e-300, 1) == np.inf
    phi = np.random.default_rng(0).standard_normal(9)
    assert check_villani_lemma(phi, Potential.from_string(COS_Q, d=1), 1e-300, 1, 1.0) == 0.0


def test_constants_summary_refuses_non_finite_momentum_constants():
    assert constants_summary(None, 1e300, 1.0, 1, n_q=4)["K_kappa2"] == 1e300
    with pytest.raises(ConfigError) as err:
        constants_summary(None, 1e300, 1e-30, 1, n_q=4)
    assert err.value.problems == ["K_kappa2 = inf must be finite, with beta = 1e+300 and "
                                  "mass = 1e-30"]
    with pytest.raises(ConfigError, match="^lambda_min_M = inf must be finite"):
        constants_summary(None, 1e-10, 1e-310, 1, n_q=4)


def test_hessian_K():
    pot = Potential.from_string(COS_Q, d=1)
    assert abs(estimate_hessian_K(pot, d=1) - 1.0) < 1e-12
    assert estimate_hessian_K(None, d=1) == 0.0


# ---------------------------------------------------------------------------
# proposition cases
# ---------------------------------------------------------------------------


def test_case_constants_convex():
    assert case_constants("convex", beta=1.0, d=1, params={}) == (1.0, 0.0)


def test_case_constants_hessian():
    c, cp = case_constants("hessian_lower_bound", beta=1.0, d=1,
                           params={"K": 1.0})
    assert (c, cp) == (1.0, 1.0)


def test_case_constants_general_frozen():
    c, cp = case_constants("general", beta=1.0, d=1,
                           params={"c1": 1.0, "c3": 1.0})
    assert c == 2.0
    assert abs(cp - 34.0) < 1e-10


def test_case_constants_lsi_frozen():
    c, cp = case_constants("lsi", beta=1.0, d=1,
                           params={"c3": 1.0, "C_lsi": 1.0,
                                   "exp_moments": math.e})
    assert c == 2.0
    assert abs(cp - 3.0) < 1e-12


def test_case_constants_missing_params():
    with pytest.raises(ConfigError, match="case parameters incomplete"):
        case_constants("general", beta=1.0, d=1, params={"c1": 1.0})
    with pytest.raises(ConfigError, match="unknown case"):
        case_constants("bogus", beta=1.0, d=1, params={})


# ---------------------------------------------------------------------------
# kinetic-energy spectral data
# ---------------------------------------------------------------------------


def test_lambda_min_quadratic():
    # the kinetic energy |p|^2/(2m) has Hessian Id/m at every mass and dimension
    for mass, d in ((1.0, 1), (2.0, 1), (1.5, 2), (1e-6, 1)):
        assert constants_summary(None, 2.0, mass, d, n_q=4)["lambda_min_M"] == 1.0 / mass


# ---------------------------------------------------------------------------
# lemma suite
# ---------------------------------------------------------------------------


def test_villani_lemma_suite():
    pot = Potential.from_string(COS_Q, d=1)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        phi = rng.standard_normal(2 * 8 + 1)
        worst = max(worst, check_villani_lemma(phi, pot, beta=1.0, d=1, c1=1.0))
    assert worst <= 1.0


def test_villani_lemma_rejects_wrong_c1():
    # shrinking c1 far below its true value must eventually break the bound
    pot = Potential.from_string(COS_Q, d=1)
    phi = np.zeros(17)
    phi[0] = 1.0  # constant function: lhs = |grad V|^2 mean, rhs = 4 d c1/beta
    with pytest.raises(InvariantViolation, match="lemma violation"):
        check_villani_lemma(phi, pot, beta=1.0, d=1, c1=1e-6)


def test_bochner_flat_cos_exact():
    u = np.zeros(17)
    u[1] = 1.0  # sqrt(2) cos q
    residual = check_bochner(u, None, beta=1.0, d=1)
    assert residual < 1e-14


def test_bochner_random_suite():
    pot = Potential.from_string(COS_Q, d=1)
    rng = np.random.default_rng(21)
    for _ in range(50):
        u = rng.standard_normal(13)
        assert check_bochner(u, pot, beta=1.0, d=1) < 1e-8


def test_controlh2_flat_convex_ratio_one():
    # with V = 0 the Hessian norm equals the Witten Laplacian norm exactly
    u = np.zeros(17)
    u[1] = 0.7
    u[4] = -0.2
    ratio = check_controlH2(u, None, beta=1.0, case="convex")
    assert abs(ratio - 1.0) < 1e-12


def test_controlh2_hessian_case_suite():
    pot = Potential.from_string(COS_Q, d=1)
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = rng.standard_normal(13)
        ratio = check_controlH2(u, pot, beta=1.0, case="hessian_lower_bound",
                                params={"K": 1.0})
        assert ratio <= 1.0


def test_controlh2_general_case_suite():
    pot = Potential.from_string(COS_COS2, d=1)
    growth = estimate_growth_constants(pot, beta=1.0, d=1)
    rng = np.random.default_rng(9)
    for _ in range(50):
        u = rng.standard_normal(13)
        ratio = check_controlH2(u, pot, beta=1.0, case="general",
                                params={"c1": growth.c1, "c3": growth.c3})
        assert ratio <= 1.0


def test_controlh2_misdeclared_case():
    # For V = 2 cos 2q and u = sin q the Bochner cross term
    # int (u')^2 V'' dnu is strictly negative (u'^2 = cos^2 q overlaps
    # cos 2q), so sum ||d2 u||^2 exceeds ||grad*grad u||^2 and the
    # convex declaration (C=1, C'=0) must be rejected.
    pot = Potential.from_string("2:1,0", d=1)
    u = np.zeros(21)
    u[2] = 1.0  # sqrt(2) sin q
    with pytest.raises(InvariantViolation, match="constant-case misdeclared"):
        check_controlH2(u, pot, beta=0.25, case="convex")


# ---------------------------------------------------------------------------
# summary dictionary
# ---------------------------------------------------------------------------


def test_constants_summary_keys_and_values():
    pot = Potential.from_string(COS_Q, d=1)
    summary = constants_summary(pot, 1.0, 1.0, 1, n_q=32)
    assert set(summary) == {"K_nu2", "K_kappa2", "lambda_min_M", "c1", "c2",
                            "c3", "K_hessian"}
    assert abs(summary["K_nu2"] - 1.1654965304645213) < 1e-9
    assert summary["K_kappa2"] == pytest.approx(1.0)
    assert summary["lambda_min_M"] == pytest.approx(1.0)
    assert summary["c1"] == pytest.approx(1.0)
    assert summary["c2"] == 0.0
    assert summary["c3"] == pytest.approx(1.0)
    assert summary["K_hessian"] == pytest.approx(1.0)


@settings(max_examples=15, deadline=None)
@given(beta=st.floats(0.5, 3.0), mass=st.floats(0.5, 3.0))
def test_kappa_poincare_scaling_property(beta, mass):
    k2 = constants_summary(None, beta, mass, 1, n_q=4)["K_kappa2"]
    assert abs(k2 - beta / mass) < 1e-12


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_bochner_holds_for_random_functions(seed, beta):
    pot = Potential.from_string(COS_Q, d=1)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(9)
    assert check_bochner(u, pot, beta=beta, d=1) < 1e-8
