import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoco.basis import (BASIS_CACHE_SIZE, TWO_PI, BasisSpec, Potential, build_basis,
                          fourier_deriv_1d, fourier_mult, fourier_value_table,
                          gauss_hermite_rule, mean_zero_map, position_axis,
                          sqrt_rho_coeffs)
from hypoco.errors import ConfigError, NumericalFailure

from conftest import COS_Q
from quadrature import Quadrature, expand_function, hermite_value_table


# ---------------------------------------------------------------------------
# specs and parsing
# ---------------------------------------------------------------------------


def test_spec_dimensions():
    spec = BasisSpec(d=1, n_q=2, n_p=3)
    assert spec.n_pos == 5
    assert spec.n_herm == 4
    assert spec.dim_span == 20
    assert spec.dimension == 19

    spec2 = BasisSpec(d=2, n_q=2, n_p=3)
    assert spec2.n_pos == 25
    assert spec2.n_herm == 16
    assert spec2.dim_span == 400

    spec3 = BasisSpec(d=1, n_q=1, n_p=1, has_xi=True, n_xi=2)
    assert spec3.n_xi_tot == 3
    assert spec3.dim_span == 3 * 2 * 3


def test_spec_validation_collects_all_problems():
    with pytest.raises(ConfigError) as err:
        BasisSpec(d=0, n_q=-1, n_p=2, beta=-1.0)
    message = str(err.value)
    assert "d must be" in message
    assert "n_q" in message
    assert "beta" in message


def test_potential_from_string_cos():
    pot = Potential.from_string(COS_Q, d=1)
    axis = np.linspace(0.0, TWO_PI, 17, endpoint=False)
    values = pot.value_grid((axis,))
    assert np.allclose(values, np.cos(axis), atol=1e-14)
    grads = pot.grad_grid((axis,))
    assert np.allclose(grads[0], -np.sin(axis), atol=1e-14)
    hess = pot.hessian_grid((axis,))
    assert np.allclose(hess[0, 0], -np.cos(axis), atol=1e-14)


def test_potential_from_string_rejects_malformed():
    with pytest.raises(ConfigError) as err:
        Potential.from_string("1:0.5;x:1;2", d=1)
    assert len(err.value.problems) == 2


def test_potential_rejects_non_finite_coefficients():
    # abs(nan) > 0 is False, so a NaN coefficient used to vanish silently
    for text in ("1:nan,0", "1:inf,0", "1:0.5,nan"):
        with pytest.raises(ConfigError, match="must be finite"):
            Potential.from_string(text, d=1)


def test_potential_imaginary_part_gives_sine():
    pot = Potential.from_string("1:0,-0.5", d=1)  # v_1 = -i/2 -> sin q
    axis = np.linspace(0.0, TWO_PI, 13, endpoint=False)
    assert np.allclose(pot.value_grid((axis,)), np.sin(axis), atol=1e-14)


def test_potential_separable_2d():
    pot = Potential.from_string("1 0:0.5,0;0 1:0.5,0", d=2)
    axis = np.linspace(0.0, TWO_PI, 9, endpoint=False)
    values = pot.value_grid((axis, axis))
    expected = np.cos(axis)[:, None] + np.cos(axis)[None, :]
    assert np.allclose(values, expected, atol=1e-14)


def test_potential_dimension_mismatch():
    pot = Potential.from_string(COS_Q, d=1)
    with pytest.raises(ConfigError):
        build_basis(BasisSpec(d=2, n_q=2, n_p=2), potential=pot)


def test_max_dim_guard():
    with pytest.raises(NumericalFailure) as err:
        build_basis(BasisSpec(d=1, n_q=4, n_p=4), max_dim=10)
    assert "problem too large" in str(err.value)


# ---------------------------------------------------------------------------
# the per-process basis cache
# ---------------------------------------------------------------------------


def test_equal_potentials_share_one_basis():
    spec = BasisSpec(d=1, n_q=4, n_p=4)
    first = Potential.from_string(COS_Q, d=1)
    second = Potential.from_string(COS_Q, d=1)
    assert first == second and hash(first) == hash(second)
    assert build_basis(spec, first) is build_basis(spec, second)
    assert build_basis(spec, first) is not build_basis(spec, Potential.from_string("1:0.4,0", d=1))
    assert build_basis(spec) is not build_basis(BasisSpec(d=1, n_q=4, n_p=5))


def test_mode_order_does_not_change_a_potential():
    spec = BasisSpec(d=1, n_q=4, n_p=4)
    first = Potential({(1,): .5, (3,): .2, (2,): .1j}, 1)
    second = Potential({(3,): .2, (2,): .1j, (1,): .5}, 1)
    assert first == second and hash(first) == hash(second)
    assert build_basis(spec, first) is build_basis(spec, second)


def test_cached_basis_is_read_only():
    basis = build_basis(BasisSpec(d=1, n_q=4, n_p=4, has_xi=True, n_xi=2),
                        Potential.from_string(COS_Q, d=1))
    for array in (basis.c_pos, basis.p_degree, basis.U.data, basis.herm.mult,
                  basis.xi.anti, basis.T.data):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_max_dim_guard_holds_on_a_cache_hit(monkeypatch):
    spec = BasisSpec(d=1, n_q=4, n_p=4)
    build_basis(spec)
    with pytest.raises(NumericalFailure, match="problem too large"):
        build_basis(spec, max_dim=10)
    monkeypatch.setenv("HYPOCO_MAX_DIM", "10")
    with pytest.raises(NumericalFailure, match="problem too large"):
        build_basis(spec)


def test_basis_cache_drops_the_least_recently_used_basis():
    def build(n_p):
        return build_basis(BasisSpec(d=1, n_q=0, n_p=n_p))

    bases = {n_p: build(n_p) for n_p in range(1, BASIS_CACHE_SIZE + 1)}
    assert build(1) is bases[1]  # now the most recently used
    build(BASIS_CACHE_SIZE + 1)
    assert build(1) is bases[1]
    assert build(2) is not bases[2]


# ---------------------------------------------------------------------------
# quadrature building blocks
# ---------------------------------------------------------------------------


def test_gauss_hermite_moments():
    nodes, weights = gauss_hermite_rule(12, variance=0.5)
    assert abs(np.sum(weights) - 1.0) < 1e-14
    assert abs(np.sum(weights * nodes**2) - 0.5) < 1e-13
    assert abs(np.sum(weights * nodes**4) - 3 * 0.25) < 1e-12


def test_hermite_value_table_orthonormal():
    nodes, weights = gauss_hermite_rule(20, variance=1.0)
    table = hermite_value_table(nodes, 6)
    gram = np.einsum("ng,g,mg->nm", table, weights, table)
    assert np.max(np.abs(gram - np.eye(7))) < 1e-12


def test_fourier_table_and_derivative():
    n_q = 3
    axis = np.linspace(0.0, TWO_PI, 32, endpoint=False)
    table = fourier_value_table(axis, n_q, TWO_PI)
    deriv = fourier_deriv_1d(n_q, TWO_PI)
    # column 1/2 are sqrt(2) cos(q), sqrt(2) sin(q): derivative swaps them
    d_cols = table @ deriv
    assert np.allclose(d_cols[:, 1], -math.sqrt(2) * np.sin(axis), atol=1e-12)
    assert np.allclose(d_cols[:, 2], math.sqrt(2) * np.cos(axis), atol=1e-12)
    # numerical orthonormality against the uniform measure
    gram = table.T @ table / axis.size
    assert np.max(np.abs(gram - np.eye(2 * n_q + 1))) < 1e-12


# ---------------------------------------------------------------------------
# working basis geometry
# ---------------------------------------------------------------------------


def test_constant_offset_leaves_the_quadrature_unchanged(cos_basis):
    # exp(-beta V) of V = cos q - 1000 overflows unless V is shifted by its minimum
    offset = build_basis(cos_basis.spec, Potential.from_string("0:-1000,0;1:0.5,0", d=1))
    assert np.max(np.abs(offset.c_pos - cos_basis.c_pos)) <= 1e-14
    fn = lambda q, p, xi: np.cos(q[:, 0]) * p[:, 0]
    gap = expand_function(offset, fn)[0] - expand_function(cos_basis, fn)[0]
    assert np.max(np.abs(gap)) <= 1e-12


def test_underflowing_density_is_a_quadrature_failure():
    # even shifted, exp(-beta V) of V = 800 cos q underflows to 0 on the grid
    with pytest.raises(NumericalFailure, match="quadrature failure: the density"):
        build_basis(BasisSpec(d=1, n_q=8, n_p=8), Potential.from_string("1:400,0", d=1))


@pytest.mark.parametrize("d, amplitude, fails", [
    (1, 186.25, False), (1, 186.5, True),
    (2, 93.0, False), (2, 93.25, True),
])
def test_density_refused_exactly_where_it_underflows(d, amplitude, fails):
    # beta (max V - min V) = 4 * amplitude (d = 1) or 8 * amplitude (d = 2,
    # separable cos): exp(-745) is the last positive double, exp(-746) is 0
    text = "1:{0},0" if d == 1 else "1 0:{0},0;0 1:{0},0"
    pot = Potential.from_string(text.format(amplitude), d=d)
    spec = BasisSpec(d=d, n_q=8, n_p=1)
    if fails:
        with pytest.raises(NumericalFailure, match="quadrature failure"):
            build_basis(spec, pot)
    else:
        assert build_basis(spec, pot).spec is spec


def test_momentum_cutoff_has_no_quadrature_ceiling():
    # the Hermite operators are exact recurrences at any degree, while a
    # 2n + 4 node Gauss-Hermite rule overflows, with RuntimeWarnings, from n = 184
    for ops in (build_basis(BasisSpec(d=1, n_q=1, n_p=200)).herm,
                build_basis(BasisSpec(d=1, n_q=1, n_p=1, has_xi=True, n_xi=200)).xi):
        assert np.all(np.isfinite(ops.mult)) and np.all(np.isfinite(ops.anti))
        assert ops.mult[200, 199] == math.sqrt(200 * ops.variance)


def test_basis_holds_nothing_on_the_grid():
    # d = 3, (3, 3): the n_grid^3 x n_pos table phi would be 686 MB
    pot = Potential.from_string("1 0 0:0.5,0;0 1 0:0.5,0;0 0 1:0.5,0", d=3)
    spec = BasisSpec(d=3, n_q=3, n_p=3)
    basis = build_basis(spec, pot, max_dim=30_000)
    n_rows = position_axis(3, pot).size ** 3
    held = [*vars(basis).values(), *vars(basis.herm).values()]
    assert any(sp.issparse(value) for value in held)
    assert all(getattr(value, "shape", (0,))[0] != n_rows for value in held)


def test_phi_is_the_kronecker_product_of_the_1d_tables():
    pot = Potential.from_string("1 0:0.5,0;0 1:0.3,0.1", d=2)
    basis = build_basis(BasisSpec(d=2, n_q=3, n_p=1), pot)
    axis = position_axis(3, pot)
    table = fourier_value_table(axis, 3, TWO_PI)
    phi = basis.phi
    assert phi.shape == (axis.size**2, 49)
    assert np.array_equal(phi, np.kron(table, table))
    assert basis.phi is not phi, "built on each access, never stored"


def test_mean_zero_columns(cos_basis):
    # every working function must integrate to zero against mu
    coeff, residual = expand_function(cos_basis, lambda q, p, xi: np.ones(q.shape[0]))
    assert np.linalg.norm(coeff) < 1e-12, "constants must project out"
    assert abs(residual - 1.0) < 1e-12, "the constant carries unit mass"


def test_householder_map_is_isometry(cos_basis):
    t = cos_basis.T.toarray()
    assert t.shape[0] == t.shape[1] + 1
    assert np.max(np.abs(t.T @ t - np.eye(t.shape[1]))) < 1e-13


def test_momentum_second_moment(cos_basis):
    # <p^2, 1>_mu = m / beta, realized through the quadrature expansion
    beta, mass = cos_basis.spec.beta, cos_basis.spec.mass
    coeff, _ = expand_function(cos_basis, lambda q, p, xi: p[:, 0] ** 2)
    one_like, res = expand_function(cos_basis, lambda q, p, xi: np.ones(q.shape[0]))
    # mean of p^2 sits in the removed constant: compare against the residual
    # decomposition instead: expand p^2 - m/beta, which must be mean-free
    coeff2, residual2 = expand_function(cos_basis,
                                        lambda q, p, xi: p[:, 0] ** 2 - mass / beta)
    # the residual is sqrt(norm^2 - |coeff|^2); cancellation leaves ~1e-7
    assert residual2 < 1e-6, "p^2 - m/beta is entirely inside the working space"
    assert np.allclose(coeff, coeff2, atol=1e-10)


def test_hermite_expansion_of_p_cubed(cos_basis):
    # p^3 = sigma^3 (sqrt(6) h_3 + 3 h_1) for sigma^2 = m/beta = 1
    coeff, residual = expand_function(cos_basis, lambda q, p, xi: p[:, 0] ** 3)
    assert residual < 1e-6
    degree = cos_basis.p_degree
    sub1 = coeff[degree == 1]
    sub3 = coeff[degree == 3]
    # the position part is the (mean-zero-mapped) constant: compare norms
    assert abs(np.linalg.norm(sub1) - 3.0) < 1e-7
    assert abs(np.linalg.norm(sub3) - math.sqrt(6.0)) < 1e-7
    assert np.linalg.norm(coeff[(degree != 1) & (degree != 3)]) < 1e-7


def test_parseval_for_smooth_function(cos_basis):
    def fn(q, p, xi):
        return np.sin(q[:, 0]) * p[:, 0] + 0.3 * np.cos(2 * q[:, 0])

    coeff, residual = expand_function(cos_basis, fn)
    (qpts, wq), (ppts, wp), (yx, wx) = Quadrature(cos_basis).points()
    qq = np.repeat(qpts, ppts.shape[0], axis=0)
    pp = np.tile(ppts, (qpts.shape[0], 1))
    vals = fn(qq, pp, None).reshape(qpts.shape[0], ppts.shape[0])
    norm2 = float(np.einsum("qp,q,p->", vals**2, wq, wp))
    mean = float(np.einsum("qp,q,p->", vals, wq, wp))
    recovered = float(coeff @ coeff) + residual**2
    assert abs(recovered - norm2) < 1e-9
    assert abs(residual**2 - mean**2) < 1e-9, "only the mean is outside"


def test_quadrature_doubling_stability(cos_potential):
    # physical scalars must be stable when the position cutoff (and with it
    # the quadrature grid) is doubled
    def fn(q, p, xi):
        return np.sin(q[:, 0]) * p[:, 0] ** 2

    norms = []
    for n_q in (6, 12):
        basis = build_basis(BasisSpec(d=1, n_q=n_q, n_p=6),
                            potential=cos_potential)
        coeff, residual = expand_function(basis, fn)
        norms.append(coeff @ coeff + residual**2)
    assert abs(norms[0] - norms[1]) < 1e-10 * max(norms)


def test_index_arrays_layout(adl_basis):
    spec = adl_basis.spec
    assert adl_basis.p_degree.shape == (spec.dimension,)
    n_t = spec.n_pos - 1
    assert np.all(adl_basis.p_degree[:n_t] == 0)
    assert np.all(adl_basis.xi_degree[:n_t] == 0)
    # the first span column after the T block is (pos 0, n=0, xi=1)
    assert adl_basis.p_degree[n_t] == 0
    assert adl_basis.xi_degree[n_t] == 1


def test_witten_derivative_annihilates_sqrt_rho_direction(cos_basis):
    # D applied to the flat representation of the constant function is zero
    w = cos_basis.witten_deriv(0)
    assert np.linalg.norm(w @ cos_basis.c_pos) < 1e-10


@pytest.mark.parametrize("d, text", [
    (1, "0:0.7,0;1:0.5,0;2:0.1,-0.3"),
    (2, "1 0:0.5,0;0 1:0.5,0"),
    (2, "1 1:0.2,0.1;0 2:0.3,-0.2"),
])
def test_fourier_mult_matches_quadrature(d, text):
    # multiplication by V and by each dV/dq_i from the Fourier coefficients
    # against the grid quadrature phi^T diag(f) phi / N^d: same values, and
    # the quadrature's rounding noise sits exactly on the structural zeros
    pot = Potential.from_string(text, d=d)
    n_q = 5
    quadrature = Quadrature(build_basis(BasisSpec(d=d, n_q=n_q, n_p=0), potential=pot))
    phi, axes = quadrature.phi, [quadrature.pos_axis] * d
    cases = [(pot.coeffs, pot.value_grid(axes))]
    cases += [(pot.deriv_coeffs(i), pot.grad_grid(axes)[i]) for i in range(d)]
    for coeffs, grid in cases:
        f = grid.reshape(-1)
        quad = phi.T @ (f[:, None] * phi) / quadrature.n_grid**d
        exact = fourier_mult(coeffs, d, n_q).toarray()
        assert np.max(np.abs(exact - quad)) < 1e-13
        assert np.array_equal(exact != 0.0, np.abs(quad) > 1e-13)


def test_sqrt_rho_coefficients_match_quadrature():
    pot = Potential.from_string("1 1:0.2,0.1;1 0:0.5,0", d=2)
    basis = build_basis(BasisSpec(d=2, n_q=5, n_p=0), potential=pot)
    quadrature = Quadrature(basis)
    quad = quadrature.phi.T @ quadrature.sqrt_rho / quadrature.n_grid**2
    assert np.max(np.abs(basis.c_pos - quad / np.linalg.norm(quad))) < 1e-14


def test_even_potential_sine_coefficients_are_exact_zeros(cos_potential):
    # sqrt(rho) of an even potential has no sine modes: the FFT's rounding
    # there is set to exact zeros, and every cosine mode is kept
    c = sqrt_rho_coeffs(cos_potential, 1.0, 8)
    assert np.all(c[2::2] == 0.0)
    assert np.all(c[1::2] != 0.0)


def test_sqrt_rho_cutoff_drops_only_rounding():
    # only sin(k q1) x 1 vanishes for this potential (its q2-average is even
    # in q1); every coefficient above the rounding is kept
    pot = Potential.from_string("1 1:0.2,0.1;1 0:0.5,0", d=2)
    basis = build_basis(BasisSpec(d=2, n_q=4, n_p=0), potential=pot)
    quadrature = Quadrature(basis)
    quad = quadrature.phi.T @ quadrature.sqrt_rho / quadrature.n_grid**2
    quad /= np.linalg.norm(quad)
    zero = basis.c_pos == 0.0
    assert np.count_nonzero(zero) == 4
    assert np.max(np.abs(quad[zero])) < 1e-15
    assert np.min(np.abs(quad[~zero])) > np.finfo(float).eps


def test_mean_zero_map_is_sparse_householder_columns():
    # separable cos at d = 2, n_q = 6: the reflection is the identity off the
    # K-entry support of sqrt(rho), so T keeps (n_pos - K) + K(K - 1) entries
    pot = Potential.from_string("1 0:0.5,0;0 1:0.5,0", d=2)
    basis = build_basis(BasisSpec(d=2, n_q=6, n_p=0), potential=pot)
    c, t = basis.c_pos, basis.T
    n_pos, k = c.size, np.count_nonzero(c)
    assert sp.issparse(t) and t.nnz == (n_pos - k) + k * (k - 1) == 2472
    v = c.copy()
    v[0] -= 1.0
    dense = np.eye(n_pos) - 2.0 * np.outer(v, v) / float(v @ v)
    assert np.array_equal(t.toarray(), dense[:, 1:])
    assert np.linalg.norm(t.T @ c) <= 1e-15
    assert np.array_equal(mean_zero_map(np.eye(5)[0]).toarray(), np.eye(5)[:, 1:])


@settings(max_examples=20, deadline=None)
@given(n_q=st.integers(0, 3), n_p=st.integers(0, 3),
       beta=st.floats(0.5, 2.0), mass=st.floats(0.5, 2.0))
def test_dimension_formula_property(n_q, n_p, beta, mass):
    spec = BasisSpec(d=1, n_q=n_q, n_p=n_p, beta=beta, mass=mass)
    assert spec.dimension == (2 * n_q + 1) * (n_p + 1) - 1
