import dataclasses
import gc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoco import schur
from hypoco.basis import DEFAULT_TOL_IDENTITY, BasisSpec, Potential, build_basis
from hypoco.cli import _json_dumps
from hypoco.constants import constants_summary, poincare_constant
from hypoco.errors import ConfigError, InvariantViolation, NumericalFailure
from hypoco.models import _evaluate, model_bound_report
from hypoco.operators import (ModelOperators, ModelSpec, assemble_model,
                              verify_structural_assumptions)
from hypoco.schur import (DENSE_THRESHOLD, Decomposition, build_decomposition,
                          exact_resolvent_norm, intermediate_norms, macroscopic_coercivity,
                          operator_norm, operator_norm_upper,
                          schur_complement, theorem_bound)

from conftest import COS_Q, dense_q1
from criteria import block_resolvent


@pytest.fixture(scope="module")
def langevin_dec(langevin_ops):
    dec = build_decomposition(langevin_ops)
    schur_complement(dec)
    return dec


@pytest.fixture(scope="module")
def rhmc_dec(rhmc_ops):
    dec = build_decomposition(rhmc_ops)
    schur_complement(dec)
    return dec


@pytest.fixture(scope="module")
def adl_dec(adl_ops):
    dec = build_decomposition(adl_ops)
    schur_complement(dec)
    return dec


# ---------------------------------------------------------------------------
# decomposition geometry
# ---------------------------------------------------------------------------


def test_h0_h1_dimensions(langevin_dec):
    # the transfer operator is injective on H0, so dim H1 = dim H0 = 2 n_q
    assert langevin_dec.dim0 == 16
    assert langevin_dec.Q1.shape[1] == 16


@pytest.mark.parametrize("name", ["langevin_dec", "rhmc_dec", "adl_dec"])
def test_h1_split_is_held_on_its_support_rows(request, name):
    # Q1 vanishes off the nonzero rows of A_{+0}, and only those rows are stored:
    # no array of the decomposition, L++ Q1 on X21's rows included, is dim H+ tall
    dec = request.getfixturevalue(name)
    ops, n_plus = dec.ops, len(dec.ops.idx_plus)
    assert np.array_equal(dec.h1_rows, np.flatnonzero(ops.apl0.getnnz(axis=1)))
    assert len(dec.h1_rows) < n_plus
    assert dec.Q1.shape == (len(dec.h1_rows), dec.dim0)
    arrays = [getattr(dec, f.name) for f in dataclasses.fields(dec)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert len(arrays) == 6
    assert all(a.shape[0] != n_plus for a in arrays)


def test_pi1_matches_normal_equation_projector(langevin_dec):
    # Q1 Q1^T must equal A_{+0} (A*A)^{-1} A_{+0}^T
    apl0 = langevin_dec.ops.apl0.toarray()
    gram = apl0.T @ apl0
    projector = apl0 @ np.linalg.solve(gram, apl0.T)
    q1 = dense_q1(langevin_dec)
    qr_projector = q1 @ q1.T
    assert np.max(np.abs(projector - qr_projector)) < 1e-10


def test_fd_acts_as_minus_one_over_m_on_h1(langevin_ops, langevin_dec):
    # columns of A_{+0} are pure Hermite-degree-1, so L_FD Pi1 = -Pi1/m
    lfd_pp, q1 = langevin_ops.Spp / langevin_ops.model.gamma, dense_q1(langevin_dec)
    gap = np.max(np.abs(lfd_pp[:, None] * q1 + q1 / langevin_ops.model.mass))
    assert gap < 1e-13


@pytest.mark.parametrize("name", ["langevin_dec", "rhmc_dec", "adl_dec"])
def test_norm_x21_matches_dense_generator(request, name):
    # X21 = P2 L++ A_{+0} (A*A)^{-1}, formed densely from the full L with the
    # projector of the normal equations, never from Q1 or A10
    dec = request.getfixturevalue(name)
    ops = dec.ops
    L = ops.L.toarray()
    lpp, apl0 = L[np.ix_(ops.idx_plus, ops.idx_plus)], L[np.ix_(ops.idx_plus, ops.idx0)]
    x = np.linalg.solve(apl0.T @ apl0, apl0.T).T  # A_{+0} (A*A)^{-1}
    p2 = np.eye(len(ops.idx_plus)) - x @ apl0.T
    dense = np.linalg.norm(p2 @ lpp @ x, 2)
    assert abs(intermediate_norms(dec)["norm_L21A10inv"] - dense) <= 1e-10 * dense


def test_s21_vanishes_for_quadratic_kinetic_energy(langevin_dec, rhmc_dec):
    for dec in (langevin_dec, rhmc_dec):
        # |Q2^T S Q1| = |P2 S Q1| = |S Q1 - Q1 S11|: H2 is reached through its projector
        q1 = dense_q1(dec)
        s21 = sp.diags(dec.ops.S[dec.ops.idx_plus]) @ q1 - q1 @ dec.S11
        assert np.max(np.abs(s21)) < 1e-13


def test_macroscopic_coercivity_equals_position_gap(langevin_ops, langevin_dec):
    # a^2 = K_nu^2 / (m beta) exactly, because A restricted to H0 is the
    # rescaled Witten derivative whose smallest singular value defines K_nu
    spec = langevin_ops.basis.spec
    k2 = poincare_constant("nu", potential=langevin_ops.basis.potential,
                           beta=spec.beta, d=1, n_q=spec.n_q).constant
    a = macroscopic_coercivity(langevin_dec)
    assert abs(a**2 - k2 / (spec.mass * spec.beta)) < 1e-10


def test_rank_deficient_transfer_detected(langevin_ops):
    # zeroing the H0 columns of A must trip the rank check
    a = langevin_ops.A.tolil()
    a[:, langevin_ops.idx0] = 0.0
    broken = sp.csr_matrix(a)
    fake = type(langevin_ops)(model=langevin_ops.model,
                              basis=langevin_ops.basis, A=broken,
                              S=langevin_ops.S, pi0=langevin_ops.pi0,
                              reversal=langevin_ops.reversal)
    with pytest.raises(InvariantViolation, match="macroscopic coercivity failure"):
        build_decomposition(fake)


def test_non_orthonormal_h1_basis_detected(langevin_ops, monkeypatch):
    qr = sla.qr

    def stretched_qr(*args, **kwargs):
        q, *rest = qr(*args, **kwargs)
        return (1.1 * q, *rest)

    monkeypatch.setattr(sla, "qr", stretched_qr)
    with pytest.raises(InvariantViolation, match="H1 projector residuals exceed"):
        build_decomposition(langevin_ops)


def test_asymmetric_l11_detected(langevin_ops):
    # a generator coupling two degree-1 states one way only makes L11 non-symmetric
    a = langevin_ops.A.tolil()
    i, j = np.flatnonzero(langevin_ops.basis.p_degree == 1)[:2]
    a[i, j] += 0.5
    fake = type(langevin_ops)(model=langevin_ops.model,
                              basis=langevin_ops.basis, A=sp.csr_matrix(a),
                              S=langevin_ops.S,
                              pi0=langevin_ops.pi0, reversal=langevin_ops.reversal)
    with pytest.raises(InvariantViolation, match="L11 symmetry residual"):
        build_decomposition(fake)


def test_l11_symmetry_is_judged_relative_to_its_scale(cos_potential):
    # L11 scales like 1/mass: at mass 1e-9 its rounding-level asymmetry is
    # above 1e-10 in absolute terms and far below it relative to max|L11|
    spec = BasisSpec(d=1, n_q=4, n_p=4, mass=1e-9)
    ops = assemble_model(build_basis(spec, cos_potential),
                         ModelSpec(model="langevin", gamma=1.0, mass=1e-9))
    dec = build_decomposition(ops)
    assert dec.l11_symmetry_residual > DEFAULT_TOL_IDENTITY  # reported absolute
    # an asymmetry at the scale of the entries is still refused
    a = ops.A.tolil()
    i, j = np.flatnonzero(ops.basis.p_degree == 1)[:2]
    a[i, j] += 0.5 / spec.mass
    fake = type(ops)(model=ops.model, basis=ops.basis, A=sp.csr_matrix(a), S=ops.S,
                     pi0=ops.pi0, reversal=ops.reversal)
    with pytest.raises(InvariantViolation, match="L11 symmetry residual .* relative to"):
        build_decomposition(fake)


def test_asymmetric_reversal_detected(langevin_ops):
    # |R22| = 1 is proved from the signs of R on H+, which needs R to be a
    # diagonal sign matrix there
    broken = langevin_ops.reversal.copy()
    broken[langevin_ops.idx_plus[-1]] = 0.5
    fake = type(langevin_ops)(model=langevin_ops.model,
                              basis=langevin_ops.basis, A=langevin_ops.A,
                              S=langevin_ops.S, pi0=langevin_ops.pi0,
                              reversal=broken)
    with pytest.raises(InvariantViolation, match="not a diagonal sign matrix"):
        build_decomposition(fake)


def test_a10_inverse_times_sigma_min_is_one(langevin_dec):
    norms = intermediate_norms(langevin_dec)
    sigma_min = sla.svdvals(langevin_dec.A10)[-1]
    assert abs(norms["norm_A10inv"] * sigma_min - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# Schur complement routes and the block solve
# ---------------------------------------------------------------------------


def _assert_s0_proved_properties(dec, symmetric):
    # schur_complement proves, not checks, that sym S0 < 0 (all models) and, where
    # R = 1 on H0, that S0 = S0^T
    s0 = schur_complement(dec)
    assert s0.shape == (dec.dim0, dec.dim0)
    assert np.linalg.eigvalsh(0.5 * (s0 + s0.T))[-1] < 0
    asymmetry = np.max(np.abs(s0 - s0.T)) / np.max(np.abs(s0))
    assert asymmetry <= 1e-12 if symmetric else asymmetry > 1e-12


def test_schur_routes_agree_langevin(langevin_dec):
    _assert_s0_proved_properties(langevin_dec, symmetric=True)


def test_schur_routes_agree_rhmc(rhmc_dec):
    _assert_s0_proved_properties(rhmc_dec, symmetric=True)


def test_schur_routes_agree_adl(adl_dec):
    # the thermostat's reversal flips the xi-odd part of H0, so S0 is not symmetric
    _assert_s0_proved_properties(adl_dec, symmetric=False)


def test_small_friction_schur_complement_is_not_rechecked(cos_potential):
    # route one's rounding grows like 1/gamma, to a 6.6e-4 asymmetry of S0 here, which
    # no printed number reads: S0's symmetry is proved, so the rounding fails nothing
    basis = build_basis(BasisSpec(d=1, n_q=8, n_p=64), potential=cos_potential)
    ops = assemble_model(basis, ModelSpec(model="boltzmann_rhmc", gamma=1e-4))
    s0 = schur_complement(build_decomposition(ops))
    assert np.linalg.eigvalsh(0.5 * (s0 + s0.T))[-1] < 0


def test_non_finite_route_one_is_a_disagreement(langevin_dec):
    lu = langevin_dec.factor.lu
    nan_lu = SimpleNamespace(L=lu.L, U=lu.U * np.nan)
    factor = schur.H0LastLU(nan_lu, langevin_dec.factor.order)
    with pytest.raises(NumericalFailure, match="routes not proved to agree"):
        schur_complement(dataclasses.replace(langevin_dec, factor=factor))


def test_pivoted_h0_last_lu_is_refused(langevin_ops, monkeypatch):
    # partial pivoting swaps rows of either factor; the trailing block of a
    # pivoted factor need not be the Schur complement, so it is refused
    real = spla.splu

    def pivoting(mat, **kwargs):
        kwargs["diag_pivot_thresh"] = 1.0
        return real(mat, **kwargs)

    monkeypatch.setattr(spla, "splu", pivoting)
    with pytest.raises(NumericalFailure, match="H0-last LU of L pivoted"):
        build_decomposition(langevin_ops)


@pytest.mark.parametrize("n_q", [4, 8])
def test_shared_elimination_fault_fails_the_run(n_q, cos_potential, monkeypatch):
    # a fault in the elimination of L++ scales route one's trailing block, which
    # the route certificate does not read; the seeded solve against L must catch
    # it, also below DENSE_THRESHOLD, where the oracle never solves through the LU
    spec = BasisSpec(d=1, n_q=n_q, n_p=8)
    assert (spec.dimension < DENSE_THRESHOLD) == (n_q == 4)  # dim 80 and 152
    real = schur._h0_last_lu

    def scaled(*args):
        lu, c = real(*args), 1.0 + 1e-6
        return SimpleNamespace(L=lu.L, U=lu.U * c,
                               solve=lambda b, trans="N": lu.solve(b, trans=trans) / c)

    constants = constants_summary(cos_potential, 1.0, 1.0, 1, n_q=32)
    monkeypatch.setattr(schur, "_h0_last_lu", scaled)
    with pytest.raises(NumericalFailure, match="Schur complement: backward error"):
        _evaluate(ModelSpec(model="langevin", gamma=1.0), spec, cos_potential, constants,
                  DEFAULT_TOL_IDENTITY, 1e-12)


def test_schur_complement_makes_no_multi_column_solve(langevin_ops, monkeypatch):
    # every solve behind the Schur complement takes one right-hand side
    real, shapes = spla.splu, []

    class Recording:
        def __init__(self, lu):
            self._lu = lu

        def __getattr__(self, name):
            return getattr(self._lu, name)

        def solve(self, b, trans="N"):
            shapes.append(np.shape(b))
            return self._lu.solve(b, trans=trans)

    def dense_solve(*args):
        shapes.append(np.shape(args[1]))
        return np.linalg.inv(args[0]) @ args[1]

    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: Recording(real(*args, **kwargs)))
    monkeypatch.setattr(np.linalg, "solve", dense_solve)
    schur_complement(build_decomposition(langevin_ops))
    assert shapes and all(len(shape) == 1 for shape in shapes)


@pytest.mark.parametrize("ops_name", ["langevin_ops", "rhmc_ops", "adl_ops"])
def test_route_check_covers_the_stored_h1_split(ops_name, request):
    # the bound and X21 read the stored Q1 and A10, and so does the route
    # certificate: scaling either by 1 + 1e-6 leaves E = A_{+0} - Q1 A10 at
    # 1e-6 A_{+0}, which no longer proves the routes agree
    for block in ("Q1", "A10"):
        dec = build_decomposition(request.getfixturevalue(ops_name))
        expected = 1e-6 * operator_norm_upper(dec.ops.apl0[dec.h1_rows].toarray())
        getattr(dec, block)[...] *= 1.0 + 1e-6
        with pytest.raises(NumericalFailure, match=r"routes not proved to agree: "
                                                   r"\|A_\+0 - Q1 A10\| <= (\S+) ") as info:
            schur_complement(dec)
        norm_e = float(str(info.value).split("<= ")[1].split()[0])
        assert abs(norm_e - expected) <= 1e-3 * expected


_CORRUPTIONS = {
    "q1_column_0": lambda dec: {"Q1": dec.Q1 + 1e-6 * (np.arange(dec.dim0) == 0)},
    "a10_scaled": lambda dec: {"A10": (1.0 + 1e-7) * dec.A10},
    "a10_transposed": lambda dec: {"A10": dec.A10.T.copy()},
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
@pytest.mark.parametrize("which", ["langevin", "rhmc", "adl"])
def test_corrupted_h1_split_fails_the_route_certificate(which, corruption, langevin_dec,
                                                        rhmc_dec, adl_dec):
    # route two is never factored: the certificate alone must see each fault
    dec = {"langevin": langevin_dec, "rhmc": rhmc_dec, "adl": adl_dec}[which]
    corrupt = dataclasses.replace(dec, **_CORRUPTIONS[corruption](dec))
    with pytest.raises(NumericalFailure, match="routes not proved to agree"):
        schur_complement(corrupt)


@pytest.mark.parametrize("which", ["langevin", "rhmc", "adl"])
def test_trailing_block_of_h0_last_lu_is_the_schur_complement(which, langevin_dec,
                                                               rhmc_dec, adl_dec):
    dec = {"langevin": langevin_dec, "rhmc": rhmc_dec, "adl": adl_dec}[which]
    ops = dec.ops
    order = schur._h0_last_order(ops.L)
    lu = schur._h0_last_lu(ops.L[order][:, order])
    n = len(ops.idx_plus)
    assert np.array_equal(np.sort(order[:n]), ops.idx_plus)
    assert np.array_equal(order[n:], ops.idx0)
    apl0 = ops.apl0.toarray()
    lpp = ops.L[ops.idx_plus][:, ops.idx_plus].toarray()
    dense = apl0.T @ np.linalg.solve(lpp, apl0)
    trailing = (lu.L[n:, n:] @ lu.U[n:, n:]).toarray()
    assert np.linalg.norm(trailing - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("which", ["langevin", "rhmc", "adl"])
def test_decomposition_factor_is_route_ones_unpivoted_h0_last_lu(which, langevin_dec,
                                                                 rhmc_dec, adl_dec):
    # the oracle solves through the LU whose trailing block route one read
    dec = {"langevin": langevin_dec, "rhmc": rhmc_dec, "adl": adl_dec}[which]
    ops, factor = dec.ops, dec.factor
    n = len(ops.idx_plus)
    assert np.array_equal(factor.order, schur._h0_last_order(ops.L))
    assert np.array_equal(factor.lu.perm_r, np.arange(ops.dim))
    assert np.array_equal(factor.lu.perm_c, np.arange(ops.dim))
    assert np.array_equal((factor.lu.L[n:, n:] @ factor.lu.U[n:, n:]).toarray(),
                          schur_complement(dec))
    b = np.random.default_rng(0).standard_normal(ops.dim)
    scale = operator_norm_upper(ops.L)
    for trans, mat in (("N", ops.L), ("T", ops.L.T)):
        x = factor.solve(b, trans=trans)
        assert np.linalg.norm(mat @ x - b) <= 1e-12 * scale * np.linalg.norm(x)


def test_h0_last_lu_fills_at_most_0p7_of_colamd_at_d2():
    # nested dissection sees the (trig index, Hermite degree) lattice that
    # COLAMD on L does not: at d = 2, n = 4 the fill is 236,116 against 361,627
    pot = Potential.from_string("1 0:0.5,0;0 1:0.5,0", d=2)
    ops = assemble_model(build_basis(BasisSpec(d=2, n_q=4, n_p=4), potential=pot),
                         ModelSpec(model="langevin", gamma=1.0, d=2))
    dec = build_decomposition(ops)
    schur_complement(dec)
    colamd = spla.splu(sp.csc_matrix(ops.L))
    fill = dec.factor.lu.L.nnz + dec.factor.lu.U.nnz
    assert fill <= 0.7 * (colamd.L.nnz + colamd.U.nnz)


def _symmetric_pattern(n, edges):
    rows, cols = (np.array(side, dtype=int) for side in zip(*edges)) if edges else ([], [])
    pattern = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return (pattern + pattern.T).tocsr()


_patterns = st.integers(1, 80).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n)))


@settings(max_examples=80, deadline=None)
@given(_patterns, st.integers(1, 8))
def test_nested_dissection_is_a_permutation_and_every_cut_separates(pattern, leaf):
    # sparse random patterns are mostly disconnected, so components are split too
    graph = _symmetric_pattern(*pattern)
    real, cuts = schur._bisect, []

    def recording(sub):
        parts, sep = real(sub)
        cuts.append((sub, parts, sep))
        return parts, sep

    with mock.patch.object(schur, "_bisect", recording):
        order = schur._nested_dissection(graph, leaf=leaf)
    assert np.array_equal(np.sort(order), np.arange(graph.shape[0]))
    for sub, parts, sep in cuts:
        assert np.array_equal(np.sort(np.concatenate([*parts, sep])), np.arange(sub.shape[0]))
        assert len(sep) or len(parts) > 1
        part = np.full(sub.shape[0], -1)
        for k, nodes in enumerate(parts):
            part[nodes] = k
        coo = sub.tocoo()
        a, b = part[coo.row], part[coo.col]
        assert not np.any((a >= 0) & (b >= 0) & (a != b))


def test_unproved_reversal_sign_count_detected(cos_potential):
    # at n_q = 2, n_p = 1 H+ holds 5 states and dim H1 = 4: a sign pattern
    # (+1, +1, +1, -1, -1) on H+ leaves |R22| = 1 unproved
    ops = assemble_model(build_basis(BasisSpec(d=1, n_q=2, n_p=1), potential=cos_potential),
                         ModelSpec(model="langevin", gamma=1.0))
    r = ops.reversal.copy()
    r[ops.idx_plus] = [1.0, 1.0, 1.0, -1.0, -1.0]
    fake = type(ops)(model=ops.model, basis=ops.basis, A=ops.A, S=ops.S, pi0=ops.pi0,
                     reversal=r)
    with pytest.raises(InvariantViolation,
                       match=r"build_decomposition: \|R22\| = 1 not proved.*\(3, 2\)"):
        build_decomposition(fake)


def test_positive_friction_entry_fails_h2_dissipation(langevin_ops):
    broken = langevin_ops.S.copy()
    broken[langevin_ops.idx_plus[-1]] = 0.5
    fake = type(langevin_ops)(model=langevin_ops.model,
                              basis=langevin_ops.basis, A=langevin_ops.A,
                              S=broken, pi0=langevin_ops.pi0,
                              reversal=langevin_ops.reversal)
    with pytest.raises(NumericalFailure, match="dissipation failure on H2"):
        schur_complement(build_decomposition(fake))


@pytest.mark.parametrize("which", ["langevin", "rhmc", "adl"])
def test_block_resolvent_matches_dense_lu(which, langevin_dec, rhmc_dec, adl_dec):
    dec = {"langevin": langevin_dec, "rhmc": rhmc_dec, "adl": adl_dec}[which]
    dense = dec.ops.L.toarray()
    rng = np.random.default_rng(11)
    for _ in range(20):
        phi = rng.standard_normal(dec.ops.dim)
        u0, uplus = block_resolvent(dec, phi)
        u = np.zeros(dec.ops.dim)
        u[dec.ops.idx0], u[dec.ops.idx_plus] = u0, uplus
        reference = np.linalg.solve(dense, phi)
        assert np.linalg.norm(u - reference) < 1e-8 * np.linalg.norm(reference)


def test_block_resolvent_rejects_a_wrong_length_vector(langevin_dec):
    with pytest.raises(ConfigError, match="right-hand side has shape"):
        block_resolvent(langevin_dec, np.zeros(langevin_dec.ops.dim + 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_block_resolvent_rejects_a_non_finite_vector(langevin_dec, bad):
    # NaN makes the residual check's comparison False, so it used to pass
    rhs = np.ones(langevin_dec.ops.dim)
    rhs[3] = bad
    with pytest.raises(ConfigError, match="right-hand side must be finite"):
        block_resolvent(langevin_dec, rhs)
    with pytest.raises(ConfigError, match="right-hand side must be finite"):
        block_resolvent(langevin_dec, np.full(langevin_dec.ops.dim, bad))


def test_fresh_decomposition_holds_the_factor_every_solve_uses(langevin_ops, monkeypatch):
    # build_decomposition returns L's H0-last LU, frozen: the block resolvent
    # and the exact-norm oracle substitute through it and factor nothing
    dec = build_decomposition(langevin_ops)
    L, b = dec.ops.L, np.random.default_rng(3).standard_normal(dec.ops.dim)
    y = dec.factor.solve(b)
    assert np.linalg.norm(L @ y - b) <= schur.BACKWARD_RTOL * operator_norm_upper(L) * \
        np.linalg.norm(y)
    with pytest.raises(dataclasses.FrozenInstanceError):
        dec.factor = None
    real, calls = spla.splu, []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    block_resolvent(dec, b)
    exact_resolvent_norm(L, factor=dec.factor)
    assert calls == []


def test_block_resolvent_factors_nothing_after_the_schur_complement(langevin_ops,
                                                                     monkeypatch):
    # block elimination is the substitution of the decomposition's H0-last LU
    dec = build_decomposition(langevin_ops)
    schur_complement(dec)
    real, calls = spla.splu, []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    rng = np.random.default_rng(5)
    for _ in range(3):
        block_resolvent(dec, rng.standard_normal(dec.ops.dim))
    assert calls == []


def test_singular_schur_raises():
    # a pure transport generator on H0+H1 with no dissipation is singular
    mat = sp.csr_matrix(np.zeros((4, 4)))
    with pytest.raises(NumericalFailure):
        exact_resolvent_norm(mat, method="dense")


# ---------------------------------------------------------------------------
# operator norms and the closed-form bound
# ---------------------------------------------------------------------------


def test_operator_norm_oracle():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((30, 12))
    assert abs(operator_norm(mat) - np.linalg.norm(mat, 2)) < 1e-12
    assert operator_norm(np.zeros((0, 3))) == 0.0


def test_exact_resolvent_norm_diagonal():
    mat = sp.csr_matrix(np.diag([-1.0, -2.0]))
    assert abs(exact_resolvent_norm(mat, method="dense") - 1.0) < 1e-14


def test_exact_resolvent_norm_methods_agree():
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((40, 40)) - 5.0 * np.eye(40)
    mat = sp.csr_matrix(dense)
    direct = exact_resolvent_norm(mat, method="dense")
    iterative = exact_resolvent_norm(mat, method="iterative")
    assert abs(direct - iterative) < 1e-6 * direct


def test_exact_resolvent_norm_iterative_reports_nonconvergence(monkeypatch):
    rng = np.random.default_rng(5)
    mat = sp.csr_matrix(rng.standard_normal((40, 40)) - 5.0 * np.eye(40))
    monkeypatch.setattr(schur, "LANCZOS_MAX_APPS", 1)
    with pytest.raises(NumericalFailure, match="inverse iteration not converged.*relative change"):
        exact_resolvent_norm(mat, method="iterative")


@pytest.fixture(scope="module")
def adl_ops_nq12(cos_potential):
    basis = build_basis(BasisSpec(d=1, n_q=12, n_p=6, n_xi=6),
                        potential=cos_potential)
    return assemble_model(basis, ModelSpec(model="adaptive_langevin",
                                           gamma=1.0, epsilon=1.0))


@pytest.mark.parametrize("ops_name", ["langevin_ops", "rhmc_ops", "adl_ops",
                                      "adl_ops_nq12"])
def test_exact_resolvent_norm_default_matches_dense_on_generators(ops_name, request):
    # every generator the pipeline builds must take the sparse LU path
    L = request.getfixturevalue(ops_name).L
    assert L.shape[0] >= DENSE_THRESHOLD
    default = exact_resolvent_norm(L)
    dense = exact_resolvent_norm(L, method="dense")
    assert abs(default - dense) <= 1e-10 * dense


@pytest.mark.parametrize("which", ["langevin", "rhmc", "adl"])
def test_exact_resolvent_norm_through_the_decomposition_factor(which, langevin_dec,
                                                               rhmc_dec, adl_dec):
    dec = {"langevin": langevin_dec, "rhmc": rhmc_dec, "adl": adl_dec}[which]
    shared = exact_resolvent_norm(dec.ops.L, factor=dec.factor)
    assert abs(shared - exact_resolvent_norm(dec.ops.L)) <= 1e-12 * shared


def test_corrupted_factor_fails_the_backward_error_check(langevin_dec):
    # a factor of a nearby matrix is self-consistent, so it passes the Ritz
    # check, but its solves miss L itself
    L = langevin_dec.ops.L
    near = L + 1e-6 * operator_norm_upper(L) * sp.identity(L.shape[0])
    with pytest.raises(NumericalFailure, match="exact_resolvent_norm: backward error"):
        exact_resolvent_norm(L, factor=spla.splu(sp.csc_matrix(near)))


@pytest.mark.parametrize("ops_name", ["langevin_ops", "adl_ops"])
def test_exact_resolvent_norm_through_its_own_lu_is_bitwise_the_default(ops_name,
                                                                        cos_potential):
    # the pipeline orders L++ once per basis; the oracle orders the L it is
    # given, and the two factors must agree bitwise for every model on it
    if ops_name == "langevin_ops":
        spec = BasisSpec(d=1, n_q=8, n_p=12)
        models = [ModelSpec(model=m, gamma=g) for m, g in
                  (("langevin", 1.0), ("boltzmann_rhmc", 0.3), ("langevin", 4.0))]
    else:
        spec = BasisSpec(d=1, n_q=6, n_p=8, n_xi=6)
        models = [ModelSpec(model="adaptive_langevin", gamma=1.0, epsilon=eps)
                  for eps in (1.0, 0.25)]
    basis = build_basis(spec, potential=cos_potential)
    for model in models:
        dec = build_decomposition(assemble_model(basis, model))
        schur_complement(dec)
        L = dec.ops.L
        assert exact_resolvent_norm(L, factor=dec.factor) == exact_resolvent_norm(L)


@pytest.mark.parametrize("model", ["langevin", "boltzmann_rhmc", "adaptive_langevin"])
def test_one_evaluation_makes_one_sparse_lu(model, cos_potential, monkeypatch):
    # the unpivoted H0-last LU of L, whose trailing block is the Schur
    # complement and which the exact-norm oracle reuses (dim >=
    # DENSE_THRESHOLD, so it takes its LU path); route two is not factored
    xi = model == "adaptive_langevin"
    spec = BasisSpec(d=1, n_q=8, n_p=8, n_xi=6 if xi else 0)
    model_spec = ModelSpec(model=model, gamma=1.0, epsilon=1.0 if xi else None)
    constants = constants_summary(cos_potential, 1.0, 1.0, 1, n_q=32)
    real, calls = spla.splu, []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    _evaluate(model_spec, spec, cos_potential, constants, DEFAULT_TOL_IDENTITY, 1e-12)
    assert calls == ["NATURAL"]


def test_oracle_and_pipeline_leave_no_reference_cycles(adl_ops, cos_potential):
    # garbage held in reference cycles waits for the collector, so a pass
    # that makes some grows its peak memory
    spec = BasisSpec(d=1, n_q=8, n_p=8)
    model = ModelSpec(model="langevin", gamma=1.0)
    constants = constants_summary(cos_potential, 1.0, 1.0, 1, n_q=32)
    model_bound_report(model, spec, cos_potential, constants=constants)
    gc.collect()
    gc.disable()
    try:
        exact_resolvent_norm(adl_ops.L)
        model_bound_report(model, spec, cos_potential, constants=constants)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_exact_resolvent_norm_default_is_bitwise_reproducible(adl_ops):
    assert exact_resolvent_norm(adl_ops.L) == exact_resolvent_norm(adl_ops.L)


@pytest.mark.parametrize("tiny", [1e-18, 1e-200, 0.0])
def test_exact_resolvent_norm_default_rejects_singular(tiny):
    # upper bidiagonal, so sigma_min is at most the tiny diagonal entry
    n = 2 * DENSE_THRESHOLD
    diag = np.full(n, -2.0)
    diag[n // 2] = tiny
    mat = sp.diags([diag, np.ones(n - 1)], [0, 1], format="csr")
    with pytest.raises(NumericalFailure, match="exact_resolvent_norm.*singular"):
        exact_resolvent_norm(mat)


def test_exact_resolvent_norm_checks_sigma_min_against_one_matvec(adl_ops, monkeypatch):
    # a sigma_min 1e-6 off passes ARPACK's own checks but not |L z|/|z| >= sigma_min
    real = schur._lanczos_sigma_min

    def off(*args):
        smin, quotient = real(*args)
        return (1.0 + 1e-6) * smin, quotient

    monkeypatch.setattr(schur, "_lanczos_sigma_min", off)
    with pytest.raises(NumericalFailure, match=r"exact_resolvent_norm: sigma_min \S+ "
                                               r"inaccurate: \|L z\|/\|z\| = \S+ at its "
                                               r"vector z, relative gap 1.000e-06"):
        exact_resolvent_norm(adl_ops.L)


def test_backward_error_check_does_not_overflow():
    # |y|^2 = 4e320 overflows a squared sum, which would make the ratio 0
    y = np.full(4, 1e160)
    with pytest.raises(NumericalFailure, match=r"test: backward error 1\.000e-05"):
        schur._check_backward_error([(np.full(4, 1e150), y)], 1e-5, "test")


def test_exact_resolvent_norm_default_rejects_unconverged_ritz_pairs(monkeypatch):
    n = 2000
    off = 0.3 * np.ones(n - 1)
    mat = sp.diags([np.linspace(-1.0, -2.0, n), off, off], [0, 1, -1], format="csr")
    # a loose ARPACK tolerance leaves a Ritz residual above RITZ_RTOL
    with monkeypatch.context() as patch:
        patch.setattr(schur, "LANCZOS_TOL", 1e-3)
        with pytest.raises(NumericalFailure, match="exact_resolvent_norm: Ritz residual"):
            exact_resolvent_norm(mat)

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((n, 0)))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(NumericalFailure, match="exact_resolvent_norm: ARPACK .* not converged"):
        exact_resolvent_norm(mat)


def test_theorem_bound_frozen_values():
    assert theorem_bound(1.0, 1.0, 1.0, 1.0, 0.0) == 5.0
    assert theorem_bound(2.0, 1.0, 1.0, 1.0, 1.0) == 4.5


def test_theorem_bound_rejects_bad_inputs():
    with pytest.raises(ConfigError, match="assumption constants invalid"):
        theorem_bound(-1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ConfigError, match="assumption constants invalid"):
        theorem_bound(1.0, 0.0, 1.0, 1.0, 0.0)


def _t3_identity_residual(dec):
    """Relative residual of T3* T3 = -(S on H+)^{-1}, behind the bound's 3/s term,
    against dense inverses of L++ and S++."""
    lpp = dec.ops.L[dec.ops.idx_plus][:, dec.ops.idx_plus].toarray()
    spp = np.diag(dec.ops.Spp)
    linv = np.linalg.inv(lpp)
    sym = -0.5 * (linv + linv.T)
    t3t3 = linv.T @ np.linalg.solve(sym, linv)
    target = np.linalg.inv(-spp)
    return float(np.linalg.norm(t3t3 - target) / np.linalg.norm(target))


def test_t3_identity(langevin_dec):
    assert _t3_identity_residual(langevin_dec) < 1e-8


def test_intermediate_norms_langevin_values(langevin_dec, langevin_ops):
    norms = intermediate_norms(langevin_dec)
    gamma = langevin_ops.model.gamma
    mass = langevin_ops.model.mass
    # ||S11|| = gamma/m for the quadratic kinetic energy
    assert abs(norms["norm_S11"] - gamma / mass) < 1e-10
    assert abs(norms["norm_R22"] - 1.0) < 1e-12
    assert norms["l11_symmetry_residual"] < 1e-10


@pytest.mark.parametrize("dec_name", ["langevin_dec", "rhmc_dec", "adl_dec"])
def test_norm_R22_eigvalsh_matches_svd(dec_name, request):
    # the dimension count's |R22| = 1 against the dense compression Q2^T R Q2,
    # with Q2 from a full QR of A_{+0}
    dec = request.getfixturevalue(dec_name)
    q_full = sla.qr(dec.ops.apl0.toarray(), mode="full")[0]
    q2 = q_full[:, dec.dim0:]
    r22 = q2.T @ (np.diag(dec.ops.reversal[dec.ops.idx_plus]) @ q2)
    norm = intermediate_norms(dec)["norm_R22"]
    assert abs(norm - float(sla.svdvals(r22)[0])) <= 1e-12


_SIGN_COUNT_CASES = ([(model, n_p, 0) for model in ("langevin", "boltzmann_rhmc")
                      for n_p in (1, 2)]
                     + [("adaptive_langevin", n_p, n_xi)
                        for n_p in (1, 2) for n_xi in (1, 2, 4)])


@pytest.mark.parametrize("model,n_p,n_xi", _SIGN_COUNT_CASES)
def test_rank_check_implies_reversal_sign_count(model, n_p, n_xi, cos_potential):
    # Hermite degree 1 alone holds at least n_pos odd states > dim H1 = n_pos - 1;
    # with the thermostat, degrees 1 and 2 hold at least n_pos (n_xi + 1) states
    # of each sign > dim H1 = n_pos (n_xi + 1) - 1, and at n_p = 1 the rank
    # check fails
    for d, n_q in ((1, 1), (1, 2), (1, 4), (2, 1), (2, 2)):
        pot = cos_potential if d == 1 else Potential.from_string("1 0:0.5,0;0 1:0.5,0", d=2)
        spec = BasisSpec(d=d, n_q=n_q, n_p=n_p, n_xi=n_xi)
        ops = assemble_model(build_basis(spec, potential=pot), ModelSpec(
            model=model, gamma=1.0, d=d, epsilon=1.0 if n_xi else None))
        dim0 = len(ops.idx0)
        apl0 = ops.A[ops.idx_plus][:, ops.idx0].toarray()
        if np.linalg.matrix_rank(apl0) < dim0:
            assert model == "adaptive_langevin" and n_p == 1
            with pytest.raises(InvariantViolation, match="macroscopic coercivity failure"):
                build_decomposition(ops)
            continue
        signs = ops.reversal[ops.idx_plus]
        assert max(np.sum(signs > 0), np.sum(signs < 0)) > dim0
        assert intermediate_norms(build_decomposition(ops))["norm_R22"] == 1.0


def test_margin_at_least_one_langevin(cos_potential):
    # the generic theorem bound, not the Langevin-specific one, must dominate
    basis = build_basis(BasisSpec(d=1, n_q=6, n_p=6), potential=cos_potential)
    ops = assemble_model(basis, ModelSpec(model="langevin", gamma=1.0))
    rep = verify_structural_assumptions(ops)
    assert rep.passed
    dec = build_decomposition(ops)
    schur_complement(dec)
    assert _t3_identity_residual(dec) < 1e-8
    norms = intermediate_norms(dec)
    bound = theorem_bound(rep.s_numeric, norms["a"], norms["norm_S11"],
                          norms["norm_R22"], norms["norm_L21A10inv"])
    assert bound >= exact_resolvent_norm(ops.L)


def test_bound_report_convergence_flags(cos_potential):
    # deliberately under-resolved with a tight tolerance: the flags must
    # come back false, and the overall flag must cover both cutoffs
    report = model_bound_report(ModelSpec(model="boltzmann_rhmc", gamma=1.0),
                                BasisSpec(d=1, n_q=2, n_p=2),
                                potential=cos_potential, rel_tol=1e-12)
    assert not report.converged
    assert report.converged == (report.converged_q and report.converged_p)


def test_bound_report_json_keys(cos_potential):
    report = model_bound_report(ModelSpec(model="langevin", gamma=1.0),
                                BasisSpec(d=1, n_q=4, n_p=4),
                                potential=cos_potential, check_convergence=False)
    data = report.to_json_dict()
    assert set(data) == {"s", "a", "norm_S11", "norm_R22", "norm_L21A10inv",
                         "bound", "exact", "margin", "converged"}
    text = _json_dumps(report.to_json_dict())
    assert text.startswith('{"a":')


# ---------------------------------------------------------------------------
# property tests on synthetic saddle systems
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_block_solve_on_synthetic_generators(seed):
    # random antisymmetric + strictly dissipative symmetric part, with the
    # kernel structure the decomposition expects (S vanishing on a subspace
    # that A maps injectively into its complement) is exactly the V = 0
    # Langevin generator with randomized gamma on a small basis.
    rng = np.random.default_rng(seed)
    gamma = float(rng.uniform(0.2, 5.0))
    basis = build_basis(BasisSpec(d=1, n_q=2, n_p=3))
    ops = assemble_model(basis, ModelSpec(model="langevin", gamma=gamma))
    dec = build_decomposition(ops)
    schur_complement(dec)
    phi = rng.standard_normal(dec.ops.dim)
    u0, uplus = block_resolvent(dec, phi)
    u = np.zeros(dec.ops.dim)
    u[ops.idx0], u[ops.idx_plus] = u0, uplus
    assert np.linalg.norm(ops.L @ u - phi) < 1e-9 * np.linalg.norm(phi)


class _StubBasis:
    """All the Schur layer reads of a basis: the grading that defines H0 and a cache."""

    def __init__(self, p_degree):
        self.p_degree = p_degree

    def derived(self, name, build):
        return build(self)


def _abstract_generator(rng) -> ModelOperators:
    """L = A + S with no model: R = 1 on H0 and +-1 on H+, -1 on more than dim H0
    coordinates; S = 0 on H0 and negative diagonal on H+, so RSR = S; A antisymmetric,
    sparse, joining only coordinates of opposite sign, so RAR = -A and A00 = 0."""
    n0 = int(rng.integers(1, 5))
    rev = np.concatenate([np.ones(n0), -np.ones(int(rng.integers(n0 + 1, n0 + 6))),
                          np.ones(int(rng.integers(1, 8)))])
    n = rev.size
    s = np.zeros(n)
    s[n0:] = -np.exp(rng.uniform(np.log(0.1), np.log(10.0), n - n0))
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.6)
    a *= np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
    a[np.equal.outer(rev, rev)] = 0.0
    a = np.triu(a, 1)
    p_degree = (np.arange(n) >= n0).astype(int)
    return ModelOperators(model=None, basis=_StubBasis(p_degree), A=sp.csr_matrix(a - a.T),
                          S=s, pi0=(p_degree == 0).astype(float), reversal=rev)


def test_theorem_bound_holds_on_abstract_generators():
    # the bound needs only the structure build_decomposition checks, so it holds on
    # any such L, with no potential or Hermite basis.  At this seed, halving X21 or
    # dropping 3/s, the S11 term or the square on a each fails some draw; every
    # margin is at least 2, so the family cannot see the bound's overall constant
    rng = np.random.default_rng(0)
    margins = []
    for _ in range(300):
        ops = _abstract_generator(rng)
        try:
            dec = build_decomposition(ops)
        except InvariantViolation as exc:  # A_{+0} drawn rank deficient
            assert "rank(A10)" in str(exc)
            continue
        schur_complement(dec)
        norms = intermediate_norms(dec)
        bound = theorem_bound(float(np.min(-ops.Spp)), norms["a"], norms["norm_S11"],
                              norms["norm_R22"], norms["norm_L21A10inv"])
        margins.append(bound / exact_resolvent_norm(ops.L, factor=dec.factor))
    assert len(margins) >= 270
    assert min(margins) >= 1.0


def _gershgorin_and_norm_bounds(ops):
    """Gershgorin's bound on lambda_max(sym L++) and the |L++| and |L| bounds, on L itself."""
    lpp = ops.L[ops.idx_plus][:, ops.idx_plus]
    sym = 0.5 * (lpp + lpp.T)
    diag = sym.diagonal()
    top = float(np.max(diag - np.abs(diag) + np.asarray(abs(sym).sum(axis=1)).ravel()))
    return top, operator_norm_upper(lpp), operator_norm_upper(ops.L)


@pytest.mark.parametrize("which", ["langevin", "rhmc", "adl"])
def test_dissipation_bounds_read_off_the_transport_match_those_of_l(which, langevin_ops,
                                                                    rhmc_ops, adl_ops):
    # A is antisymmetric, so S is all of sym L++: top is bitwise Gershgorin's on L++,
    # and the norm bounds differ from those summed on L only in the summation order
    ops = {"langevin": langevin_ops, "rhmc": rhmc_ops, "adl": adl_ops}[which]
    top, norm_lpp, norm_l = schur._dissipation_bounds(ops)
    direct = _gershgorin_and_norm_bounds(ops)
    assert top == direct[0] == float(np.max(ops.Spp))
    assert norm_lpp == pytest.approx(direct[1], rel=1e-15)
    assert norm_l == pytest.approx(direct[2], rel=1e-15)


def test_dissipation_bounds_hold_for_a_transport_with_a_symmetric_part():
    # the per-transport sums read sym A++ and |A| instead of assuming A antisymmetric,
    # so top and both norm bounds still bound the values taken on L itself
    rng = np.random.default_rng(1)
    for _ in range(20):
        ops = _abstract_generator(rng)
        sym = rng.standard_normal((ops.dim, ops.dim)) * (rng.random((ops.dim, ops.dim)) < 0.4)
        a = ops.A + sp.csr_matrix(0.5 * (sym + sym.T))
        ops = ModelOperators(model=None, basis=ops.basis, A=a, S=ops.S, pi0=ops.pi0,
                             reversal=ops.reversal)
        top, norm_lpp, norm_l = schur._dissipation_bounds(ops)
        direct_top, direct_lpp, direct_l = _gershgorin_and_norm_bounds(ops)
        rounding = 1e-14 * direct_lpp
        assert direct_top - rounding <= top <= direct_top + rounding
        assert direct_top > float(np.max(ops.Spp)) + 0.1  # so top = max(S++) would fail
        assert norm_lpp >= direct_lpp * (1 - 1e-15)
        assert norm_l >= direct_l * (1 - 1e-15)


@settings(max_examples=25, deadline=None)
@given(s=st.floats(0.05, 20), a=st.floats(0.05, 20), s11=st.floats(0.0, 20),
       r22=st.floats(0.0, 2), x=st.floats(0.0, 20))
def test_theorem_bound_positive_and_monotone(s, a, s11, r22, x):
    value = theorem_bound(s, a, s11, r22, x)
    assert value > 0
    assert theorem_bound(s, a, s11 + 1.0, r22, x) > value
    assert theorem_bound(2 * s, a, s11, r22, x) <= value
