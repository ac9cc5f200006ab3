import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoco.basis import BasisSet, BasisSpec, Potential, build_basis
from hypoco.errors import ConfigError
from hypoco.operators import (MODELS, ModelSpec, assemble_boltzmann_collision,
                              assemble_fd, assemble_hamiltonian, assemble_model,
                              assemble_nosehoover, assemble_pi0,
                              assemble_reversal, diagonal, verify_structural_assumptions,
                              _hamiltonian_span, _nosehoover_span)

from conftest import COS_Q
from quadrature import expand_function


# ---------------------------------------------------------------------------
# model specs
# ---------------------------------------------------------------------------


def test_model_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(model="unknown", gamma=1.0)
    with pytest.raises(ConfigError):
        ModelSpec(model="langevin", gamma=-1.0)
    with pytest.raises(ConfigError):
        ModelSpec(model="adaptive_langevin", gamma=1.0)  # needs epsilon
    with pytest.raises(ConfigError):
        ModelSpec(model="langevin", gamma=1.0, epsilon=0.5)  # must not have it


@pytest.mark.parametrize("field", ["gamma", "beta", "mass", "epsilon"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_model_spec_refuses_non_finite_parameters(field, value):
    # as BasisSpec does: bad input is a ConfigError, not a failed structural check later
    fields = {"model": "adaptive_langevin", "gamma": 1.0, "epsilon": 1.0, field: value}
    with pytest.raises(ConfigError, match=f"{field} must be positive and finite|positive and "
                                          f"finite {field}"):
        ModelSpec(**fields)


def test_s_analytic_values():
    assert ModelSpec(model="langevin", gamma=3.0, mass=2.0).s_analytic == 1.5
    assert ModelSpec(model="boltzmann_rhmc", gamma=3.0, mass=2.0).s_analytic == 3.0
    adl = ModelSpec(model="adaptive_langevin", gamma=3.0, mass=2.0, epsilon=1.0)
    assert adl.s_analytic == 1.5


def test_model_basis_mismatch(cos_basis, adl_basis):
    with pytest.raises(ConfigError, match="model/basis mismatch"):
        assemble_model(cos_basis, ModelSpec(model="adaptive_langevin",
                                            gamma=1.0, epsilon=1.0))
    with pytest.raises(ConfigError, match="model/basis mismatch"):
        assemble_model(adl_basis, ModelSpec(model="langevin", gamma=1.0))
    with pytest.raises(ConfigError, match="model/basis mismatch"):
        assemble_model(cos_basis, ModelSpec(model="langevin", gamma=1.0,
                                            beta=2.0))


# ---------------------------------------------------------------------------
# transport operator against exact function-level applications
# ---------------------------------------------------------------------------


def _apply_and_expand(basis, operator, fn_in, fn_out, atol):
    """Expand fn_in, apply the operator, compare with the expansion of fn_out."""
    c_in, res_in = expand_function(basis, fn_in)
    c_out, res_out = expand_function(basis, fn_out)
    assert res_in < atol and res_out < atol, "oracle functions must be resolved"
    gap = np.max(np.abs(operator @ c_in - c_out))
    assert gap < atol, f"operator application disagrees with calculus: {gap:.3e}"


def test_hamiltonian_flat_torus_exact():
    # V = 0: expansions of trig x Hermite polynomials are exact, so the
    # assembled transport must reproduce (p/m) d_q f to machine precision.
    basis = build_basis(BasisSpec(d=1, n_q=4, n_p=4, mass=2.0))
    a = assemble_hamiltonian(basis)
    _apply_and_expand(
        basis, a,
        lambda q, p, xi: np.cos(q[:, 0]) * p[:, 0],
        lambda q, p, xi: -np.sin(q[:, 0]) * p[:, 0] ** 2 / 2.0,
        atol=1e-10)


def test_hamiltonian_with_cos_potential():
    # V = cos q: A f = (p/m) d_q f - V'(q) d_p f, spectrally resolved
    pot = Potential.from_string(COS_Q, d=1)
    basis = build_basis(BasisSpec(d=1, n_q=12, n_p=8), potential=pot)
    a = assemble_hamiltonian(basis)
    _apply_and_expand(
        basis, a,
        lambda q, p, xi: np.cos(q[:, 0]) * p[:, 0],
        lambda q, p, xi: (-np.sin(q[:, 0]) * p[:, 0] ** 2
                          + np.sin(q[:, 0]) * np.cos(q[:, 0])),
        atol=1e-7)


def test_hamiltonian_ladder_coefficient():
    # the k-mode, degree-n ladder entry is omega_k sqrt((n+1)/(m beta))
    beta, mass = 2.0, 1.5
    basis = build_basis(BasisSpec(d=1, n_q=3, n_p=3, beta=beta, mass=mass))
    a = assemble_hamiltonian(basis)
    c_in, _ = expand_function(basis, lambda q, p, xi: math.sqrt(2.0) * np.cos(q[:, 0]))
    out = a @ c_in
    # A cos-mode = -sqrt(2) sin(q) p/m, whose h_1 coefficient is
    # sigma/m = 1/sqrt(m beta)
    c_ref, _ = expand_function(
        basis, lambda q, p, xi: -math.sqrt(2.0) * np.sin(q[:, 0]) * p[:, 0] / mass)
    assert np.max(np.abs(out - c_ref)) < 1e-12
    assert abs(np.linalg.norm(out) - 1.0 / math.sqrt(mass * beta)) < 1e-12


@pytest.fixture(scope="module")
def graded_bases(cos_basis):
    """One d = 1 basis and one d = 2 basis with xi."""
    pot = Potential.from_string("1 0:0.5,0;0 1:0.3,0.1;1 1:0.2,0", d=2)
    return cos_basis, build_basis(BasisSpec(d=2, n_q=2, n_p=3, n_xi=2),
                                  potential=pot)


def _kron_reference(basis, herm, xi=None):
    """basis.to_h of the Kronecker product with ``herm`` on every momentum."""
    return basis.to_h(basis.span_kron(herm_mats={i: herm for i in range(basis.spec.d)},
                                      xi_mat=xi))


def test_fd_is_number_operator(graded_bases):
    for basis in graded_bases:
        spec = basis.spec
        number = np.diag(np.arange(spec.n_p + 1, dtype=float))
        reference = -sum(basis.to_h(basis.span_kron(herm_mats={i: number}))
                         for i in range(spec.d)) / spec.mass
        assert abs(sp.diags(assemble_fd(basis)) - reference).max() <= 1e-14


def test_collision_operator(graded_bases):
    gamma = 0.7
    for basis in graded_bases:
        e00 = np.zeros((basis.spec.n_p + 1,) * 2)
        e00[0, 0] = 1.0
        pi0 = _kron_reference(basis, e00)
        reference = gamma * (pi0 - sp.identity(basis.spec.dimension))
        assert abs(sp.diags(assemble_boltzmann_collision(basis, gamma))
                   - reference).max() <= 1e-14
        assert abs(sp.diags(assemble_pi0(basis)) - pi0).max() <= 1e-14


def test_reversal_parities(graded_bases):
    for basis in graded_bases:
        spec = basis.spec
        sign = np.diag((-1.0) ** np.arange(spec.n_p + 1))
        xi_sign = np.diag((-1.0) ** np.arange(spec.n_xi + 1)) if spec.n_xi else None
        reference = _kron_reference(basis, sign, xi_sign)
        assert abs(sp.diags(assemble_reversal(basis)) - reference).max() <= 1e-14


def test_diagonal_operators_store_only_their_nonzero_diagonal():
    # the Kronecker assembly left 6,378 and 8,322 entries of mean-zero-map
    # rounding in these 2,024 x 2,024 diagonals
    pot = Potential.from_string("1 0:0.5,0;0 1:0.3,0.1;1 1:0.2,0", d=2)
    basis = build_basis(BasisSpec(d=2, n_q=4, n_p=4), potential=pot)
    ops = assemble_model(basis, ModelSpec(model="langevin", gamma=1.0, d=2))
    pi0 = (basis.p_degree == 0).astype(float)
    parity = (-1.0) ** (basis.p_degree + basis.xi_degree)
    lfd = -basis.p_degree / basis.spec.mass
    for vec, diag in ((ops.pi0, pi0), (ops.reversal, parity), (ops.S, lfd)):
        assert np.array_equal(vec, diag)
        mat = diagonal(vec)
        assert mat.nnz == np.count_nonzero(diag)
        assert (mat != sp.diags(diag)).nnz == 0


def test_collision_stores_nothing_on_ker_s(rhmc_ops):
    assert np.count_nonzero(rhmc_ops.S[rhmc_ops.idx0]) == 0
    assert rhmc_ops.L[rhmc_ops.idx0][:, rhmc_ops.idx0].nnz == 0


@pytest.mark.parametrize("d, potential", [(1, COS_Q), (2, "1 0:0.5,0;0 1:0.5,0")],
                         ids=["d1", "d2"])
def test_thermostat_coupling_stores_nothing_on_ker_s(d, potential):
    # |p|^2/m^2 - d/(m beta) vanishes on Hermite degree 0 exactly, not up to
    # rounding, at a mass and temperature other than 1
    spec = BasisSpec(d=d, n_q=4 // d, n_p=4, beta=0.6, mass=1.7, n_xi=4)
    basis = build_basis(spec, potential=Potential.from_string(potential, d=d))
    ops = assemble_model(basis, ModelSpec(model="adaptive_langevin", gamma=1.0, beta=0.6,
                                          mass=1.7, d=d, epsilon=0.3))
    assert ops.L[ops.idx0][:, ops.idx0].nnz == 0
    assert verify_structural_assumptions(ops).residuals["pi0_A_pi0"] == 0.0


@pytest.mark.parametrize("eps", [0.25, 1.0, 4.0])
def test_thermostat_transport_is_the_restricted_span_sum(adl_basis, eps):
    ops = assemble_model(adl_basis, ModelSpec(model="adaptive_langevin", gamma=1.0,
                                              epsilon=eps))
    reference = adl_basis.to_h(_hamiltonian_span(adl_basis)
                               + _nosehoover_span(adl_basis) / eps)
    assert abs(ops.A - reference).max() <= 1e-15 * abs(reference).max()


def test_nosehoover_frozen_column():
    # L_NH applied to the first xi mode g_1 equals (sqrt(2)/(m sqrt(beta))) h_2 g_0
    beta, mass = 1.0, 1.0
    basis = build_basis(BasisSpec(d=1, n_q=2, n_p=4, beta=beta, mass=mass,
                                  n_xi=4))
    nh = assemble_nosehoover(basis)
    col = np.asarray(nh[:, basis.spec.n_pos - 1].todense()).ravel()
    nonzero = np.nonzero(np.abs(col) > 1e-14)[0]
    assert nonzero.size == 1
    idx = nonzero[0]
    assert basis.p_degree[idx] == 2 and basis.xi_degree[idx] == 0
    assert abs(col[idx] - math.sqrt(2.0) / (mass * math.sqrt(beta))) < 1e-13


def test_nosehoover_general_mass_column():
    beta, mass = 2.0, 1.5
    basis = build_basis(BasisSpec(d=1, n_q=2, n_p=4, beta=beta, mass=mass,
                                  n_xi=4))
    nh = assemble_nosehoover(basis)
    col = np.asarray(nh[:, basis.spec.n_pos - 1].todense()).ravel()
    idx = np.argmax(np.abs(col))
    assert abs(col[idx] - math.sqrt(2.0) / (mass * math.sqrt(beta))) < 1e-13


def test_nosehoover_needs_xi(cos_basis):
    with pytest.raises(ConfigError, match="model/basis mismatch"):
        assemble_nosehoover(cos_basis)


def test_nosehoover_antisymmetric(adl_basis):
    nh = assemble_nosehoover(adl_basis)
    assert abs(nh + nh.T).max() < 1e-12


# ---------------------------------------------------------------------------
# structural assumption suite
# ---------------------------------------------------------------------------


def test_structural_assumptions_langevin(langevin_ops):
    report = verify_structural_assumptions(langevin_ops)
    assert report.passed, report.table()
    assert max(report.residuals.values()) < 1e-10
    assert abs(report.s_numeric - 1.0) < 1e-12


def test_structural_assumptions_rhmc(rhmc_ops):
    report = verify_structural_assumptions(rhmc_ops)
    assert report.passed, report.table()
    assert abs(report.s_numeric - rhmc_ops.model.gamma) < 1e-12


def test_structural_assumptions_adl(adl_ops):
    report = verify_structural_assumptions(adl_ops)
    assert report.passed, report.table()
    # the reversal commutes with pi0 but is not the identity on ker S:
    # the xi-parity flip survives, with residual exactly 2
    assert report.residuals["R_pi0_commutator"] < 1e-12
    assert abs(report.residuals["R_pi0_identity"] - 2.0) < 1e-12


def _product_residuals(ops):
    """verify's residuals as the sparse operator products they stand for."""
    a = ops.A
    s, p, r = (sp.diags(v, format="csr") for v in (ops.S, ops.pi0, ops.reversal))
    eye = sp.identity(ops.dim, format="csr")

    def max_abs(m):
        m = sp.csr_matrix(m)
        return 0.0 if m.nnz == 0 else float(np.max(np.abs(m.data)))

    return {
        "pi0_A_pi0": max_abs(p @ a @ p), "S_pi0": max_abs(s @ p), "pi0_S": max_abs(p @ s),
        "R_squared": max_abs(r @ r - eye), "R_S_R_minus_S": max_abs(r @ s @ r - s),
        "R_A_R_plus_A": max_abs(r @ a @ r + a), "A_antisymmetry": max_abs(a + a.T),
        "S_symmetry": max_abs(s - s.T), "pi0_projector": max_abs(p @ p - p),
        "R_pi0_commutator": max_abs(r @ p - p @ r), "R_pi0_identity": max_abs(r @ p - p),
    }


@pytest.mark.parametrize("which", ["langevin_ops", "rhmc_ops", "adl_ops"])
@pytest.mark.parametrize("inject", [False, True], ids=["assembled", "injected"])
def test_verify_residuals_equal_the_operator_products_bitwise(which, inject, request):
    ops = request.getfixturevalue(which)
    if inject:
        # an H0 x H0 entry and an R-even one between two degree-1 states
        i0, j0 = ops.idx0[:2]
        i, j = np.flatnonzero((ops.basis.p_degree == 1) & (ops.reversal == -1.0))[:2]
        bump = sp.csr_matrix(([0.3, 0.7], ([i0, i], [j0, j])), shape=ops.A.shape)
        ops = replace(ops, A=ops.A + bump)
    report = verify_structural_assumptions(ops)
    expected = _product_residuals(ops)
    assert report.residuals == expected
    if inject:
        assert expected["pi0_A_pi0"] > 0 and expected["R_A_R_plus_A"] > 0


def test_friction_free_operators_are_shared_per_basis(cos_basis):
    one, two = (assemble_model(cos_basis, ModelSpec(model="langevin", gamma=g))
                for g in (1.0, 2.0))
    for shared, other in ((one.A.data, two.A.data), (one.pi0, two.pi0),
                          (one.reversal, two.reversal)):
        assert np.shares_memory(other, shared)
        assert not shared.flags.writeable
    assert np.array_equal(two.S, 2.0 * one.S)


@pytest.mark.parametrize("model", [
    ModelSpec(model="adaptive_langevin", gamma=1.0, epsilon=eps) for eps in (0.5, 2.0)]
    + [ModelSpec(model="boltzmann_rhmc", gamma=3.0)])
def test_shared_operators_give_the_fresh_generator_bitwise(model, cos_basis, adl_basis):
    basis = adl_basis if model.model == "adaptive_langevin" else cos_basis
    assemble_model(basis, replace(model, gamma=0.5))  # warm the basis's operators
    fresh = BasisSet(basis.spec, basis.potential)
    assert (assemble_model(basis, model).L != assemble_model(fresh, model).L).nnz == 0


def test_generator_is_sum(langevin_ops):
    gap = abs(langevin_ops.L
              - (langevin_ops.A + sp.diags(langevin_ops.S))).max()
    assert gap == 0.0


def test_apl0_stays_sparse_at_d2():
    # separable cos at d = 2, n = 6: A_{+0} is the sparse slice of A, and
    # the sparse mean-zero map keeps L itself sparse
    pot = Potential.from_string("1 0:0.5,0;0 1:0.5,0", d=2)
    basis = build_basis(BasisSpec(d=2, n_q=6, n_p=6), potential=pot)
    ops = assemble_model(basis, ModelSpec(model="langevin", gamma=1.0, d=2))
    apl0 = ops.apl0
    assert sp.issparse(apl0)
    assert np.array_equal(apl0.toarray(), ops.A[:, ops.idx0].toarray()[ops.idx_plus])
    assert apl0.nnz <= 0.05 * len(ops.idx_plus) * len(ops.idx0)
    assert ops.L.nnz <= 100_000


def test_kernel_indices(langevin_ops):
    assert len(langevin_ops.idx0) + len(langevin_ops.idx_plus) == langevin_ops.dim
    assert np.all(langevin_ops.basis.p_degree[langevin_ops.idx0] == 0)


def test_symmetry_residual_reporting(langevin_ops):
    residuals = verify_structural_assumptions(langevin_ops).residuals
    assert residuals["A_antisymmetry"] < 1e-12
    assert residuals["S_symmetry"] < 1e-12


@settings(max_examples=10, deadline=None)
@given(model=st.sampled_from(MODELS), gamma=st.floats(0.1, 10.0),
       beta=st.floats(0.5, 2.0), mass=st.floats(0.5, 2.0))
def test_assumptions_hold_for_random_parameters(model, gamma, beta, mass):
    has_xi = model == "adaptive_langevin"
    spec = BasisSpec(d=1, n_q=2, n_p=3, beta=beta, mass=mass,
                     n_xi=3 if has_xi else 0)
    basis = build_basis(spec, potential=Potential.from_string(COS_Q, d=1))
    mspec = ModelSpec(model=model, gamma=gamma, beta=beta, mass=mass,
                      epsilon=0.8 if has_xi else None)
    ops = assemble_model(basis, mspec)
    report = verify_structural_assumptions(ops)
    assert report.passed, report.table()
