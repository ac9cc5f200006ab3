"""Saddle-point decomposition of the generator and resolvent bounds.

The working space splits as H0 (ker S) plus its orthogonal complement H+, and
H+ splits further into H1 = ran(A from H0) and H2.  In these coordinates the
generator has a saddle-point block structure whose Schur complement on H0
yields an explicit inverse.  Only dim0-wide blocks are formed, each on the rows
where it can be nonzero (Q1 on those of A_{+0}), so none is dim H+ tall.  H2 is
reached through the projector P2 = 1 - Q1 Q1^T and a sign count of the
reversal, never through a basis of its own.  The module builds the
decomposition and evaluates the closed-form resolvent bound.  One evaluation
makes one sparse LU, of L itself, unpivoted, with H+ in a nested-dissection
order and H0, its zero diagonal, last: its trailing block is the Schur
complement (L++ bordered by A_{+0}), and the decomposition holds it for the
exact-norm oracle (ARPACK Lanczos on (L^T L)^{-1}, a dense SVD for small
matrices and as the cross-check).  The second route through the H1 split is
proved to agree with it, not computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .basis import DEFAULT_TOL_IDENTITY, TRANSPORTS
from .errors import ConfigError, InvariantViolation, NumericalFailure
from .operators import AssumptionReport, ModelOperators

#: exact norms use a dense SVD below this dimension and sparse LU Lanczos from
#: it on; the two take equal time at dim ~150 on one BLAS thread
DENSE_THRESHOLD = 150

#: ARPACK's relative accuracy on the eigenvalue of (L^T L)^{-1}
LANCZOS_TOL = 1e-12

#: applications of (L^T L)^{-1} allowed per exact norm
LANCZOS_MAX_APPS = 20000

#: largest relative Ritz residual |(L^T L)^{-1} x - lam x| / lam accepted
RITZ_RTOL = 1e-8

#: largest relative gap of the Schur complement's two routes the certificate must prove
ROUTE_RTOL = 1e-8

#: largest residual of the thermostat's A*A identity, relative to its scale
ASTAR_A_RTOL = 1e-10

#: largest backward error |L y - b| / (sqrt(|L|_1 |L|_inf) |y|) of the oracle's LU solves
BACKWARD_RTOL = 1e-10

#: relative change under cutoff doubling below which a value counts as converged
CONVERGENCE_RTOL = 0.01


def _nrm2(vec) -> float:
    """Euclidean norm by BLAS nrm2, which scales, so it reaches inf only when the
    norm itself overflows (numpy's squared sum does past 1e154); NaN stays NaN."""
    return float(sla.norm(vec, check_finite=False))


def operator_norm(mat) -> float:
    """Spectral norm of a dense block; zero-size blocks have norm 0."""
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return 0.0
    return float(sla.svdvals(mat)[0])


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Orthonormal H0/H1 bases, the generator blocks the bound reads, and L's LU.

    H0 is the coordinate block ``ops.idx0``; Q1 holds the H1 basis on its rows
    ``h1_rows``, the H+ coordinates where A_{+0} is nonzero, and nothing dim H+ tall
    is stored.  H2 is never formed: it is reached through the projector P2 =
    1 - Q1 Q1^T, as |Q2^T Y| = |P2 Y|, so P2 L++ Q1 = L++ Q1 - Q1 L11 stands in
    for L21.  A10 is square (dim H1 = dim0) and invertible whenever the build
    succeeded; Q1 and A10 are this decomposition's own copies of its transport's
    split.  ``top`` is the Gershgorin bound on lambda_max(sym L++), proved
    below rounding level, so |L++^{-1}| <= 1/|top|.  ``factor`` is the unpivoted
    H0-last LU of L.
    """

    ops: ModelOperators
    h1_rows: np.ndarray
    Q1: np.ndarray
    A10: np.ndarray
    L11: np.ndarray
    S11: np.ndarray
    pi1_idempotency_residual: float
    pi1_range_residual: float
    l11_symmetry_residual: float
    top: float
    factor: H0LastLU = field(repr=False)

    @property
    def dim0(self) -> int:
        return len(self.ops.idx0)


def build_decomposition(ops: ModelOperators,
                        rank_tol: float = 1e-12,
                        tol_identity: float = DEFAULT_TOL_IDENTITY) -> Decomposition:
    """Split H+ into H1 = ran(A_{+0}) and H2 = ran(P2) by pivoted QR; factor L.

    A maps Hermite degree 0 only into degree 1 (degree <= 2 with the thermostat
    coupling), so the QR runs on the nonzero rows of A_{+0}, once per transport
    ``ops.A``; the tolerances judge it on every call.  ``rank_tol`` multiplies the
    leading R diagonal; a trailing diagonal below that threshold means A_{+0} lost
    rank (a flat direction of the coarse transport), unless A_{+0} has full rank
    with unit rows: row scaling keeps the rank, so A10 is ill-conditioned (exit 3).

    Where R is one sign on ``h1_rows``, RAR = -A leaves A nothing between them, so
    L11 = S11, which the bound reads in its place: L11 is held symmetric there.

    |R22| = 1 is proved, not computed: R on H+ must be a diagonal sign
    matrix, and a sign occurring more than dim1 times has an eigenspace
    that meets H2 (of codimension dim1 in H+), so |R22| >= 1 = |R|.

    The factor is the unpivoted LU of L with H+ first, in the nested-dissection
    order the basis keeps, and H0 last, after Gershgorin proves sym L++ < 0 by
    more than 64 dim H+ eps |L++|, both read off A's sums plus the diagonal S: a
    dissipation at rounding level is refused.  Nothing H+ x H+ is sliced.
    """
    (rows, q1, diag, a10, pi1_range, pi1_idem), (l11_pattern, *_) = _h1_split(ops)
    dim0 = len(ops.idx0)
    rank = int(np.sum(diag > rank_tol * diag[0])) if diag.size else 0
    if rank < dim0:
        block = ops.apl0[rows].toarray()
        scaled = block / np.max(np.abs(block), axis=1, keepdims=True)
        r = np.abs(np.diag(sla.qr(scaled, mode="r", pivoting=True)[0]))
        ill = r.size >= dim0 and int(np.sum(r > rank_tol * r[0])) == dim0
        raise (NumericalFailure if ill else InvariantViolation)(
            f"macroscopic coercivity failure: rank(A10) = {rank} < dim H0 = {dim0}" + (
                f", smallest |R_ii|/|R_00| = {diag.min() / diag[0]:.3e}, but A_+0 has full rank "
                "with its rows scaled to unit size: A10 is ill-conditioned" if ill else ""))
    if max(pi1_range, pi1_idem) > tol_identity:
        raise InvariantViolation(
            f"H1 projector residuals exceed tolerance: range {pi1_range:.3e}, "
            f"idempotency {pi1_idem:.3e}"
        )

    h1 = ops.idx_plus[rows]
    l11 = q1.T @ (ops.refill(l11_pattern) @ q1)
    s11 = q1.T @ (ops.Spp[rows, None] * q1)
    l11_sym = float(np.max(np.abs(l11 - l11.T)))
    # L11's entries scale like 1/mass, so its asymmetry is judged against them
    l11_scale = max(float(np.max(np.abs(l11))), 1.0)
    one_sign = np.unique(ops.reversal[h1]).size == 1
    if one_sign and l11_sym > tol_identity * l11_scale:
        raise InvariantViolation(
            f"L11 symmetry residual {l11_sym:.3e} exceeds tolerance {tol_identity:g} "
            f"relative to max|L11| = {l11_scale:.3e}"
        )

    signs = ops.reversal[ops.idx_plus]
    bad = int(np.count_nonzero(np.abs(signs) != 1.0))
    if bad:
        raise InvariantViolation(f"build_decomposition: reversal on H+ is not a diagonal "
                                 f"sign matrix ({bad} entries off)")
    counts = (int(np.sum(signs > 0)), int(np.sum(signs < 0)))
    if max(counts) <= dim0:
        raise InvariantViolation(f"build_decomposition: |R22| = 1 not proved, sign counts "
                                 f"(+1, -1) = {counts} of R on H+ not above dim H1 = {dim0}")

    top, norm_lpp, norm_l = _dissipation_bounds(ops)
    # the floor of exact_resolvent_norm's singularity verdict, with |L++| bounded above
    floor = 64 * len(ops.idx_plus) * np.finfo(float).eps * norm_lpp
    if not top < -floor:
        raise NumericalFailure(f"dissipation failure on H2: Gershgorin bound of sym L++ "
                               f"reaches {top:.3e}, not below -64 dim_+ eps |L++| = "
                               f"{-floor:.3e}")
    # the pattern of L++ does not depend on the friction, epsilon or model
    order = ops.basis.derived("h0_last_order", lambda _: _h0_last_order(ops.L))
    if not np.array_equal(order[len(ops.idx_plus):], ops.idx0):
        raise InvariantViolation("H0-last order: the zero diagonal of L is not ker S")
    ordered = TRANSPORTS.derived("h0_last", lambda: ops.pattern(
        lambda m: sp.csc_matrix(m[order][:, order])), ops.A, order)
    factor = H0LastLU(_h0_last_lu(ops.refill(ordered)), order)
    # only this solve sees a fault in eliminating L++: the route certificate reads the
    # trailing block alone, and below DENSE_THRESHOLD the oracle never solves through it
    b = np.random.default_rng(0).standard_normal(ops.dim)
    y = factor.solve(b)
    _check_backward_error([(ops.L @ y - b, y)], norm_l, "Schur complement")
    return Decomposition(
        ops=ops, h1_rows=rows, Q1=q1.copy(), A10=a10.copy(),
        L11=l11, S11=s11,
        pi1_idempotency_residual=pi1_idem, pi1_range_residual=pi1_range,
        l11_symmetry_residual=l11_sym, top=top, factor=factor,
    )


def _h1_split(ops: ModelOperators) -> tuple:
    """A_{+0}'s split by pivoted QR on its nonzero rows and the friction-free patterns of
    L's blocks read on it, kept per transport: L11's on H1 x H1, and L++'s on X21's rows
    (of H+: the H1 rows and those L++ reaches from H1, kept with it) x H1."""
    def split():
        rows = np.flatnonzero(ops.apl0.getnnz(axis=1))
        block = ops.apl0[rows].toarray()
        q1, r, _piv = sla.qr(block, mode="economic", pivoting=True)
        a10 = q1.T @ block
        scale = max(operator_norm_upper(block), 1.0)
        pi1_range = float(np.max(np.abs(q1 @ a10 - block), initial=0.0)) / scale
        pi1_idem = float(np.max(np.abs(q1.T @ q1 - np.eye(q1.shape[1])), initial=0.0))
        plus, h1 = ops.idx_plus, ops.idx_plus[rows]
        x21_rows = np.union1d(rows, np.flatnonzero(ops.L[:, h1][plus].getnnz(axis=1)))
        return ((rows, q1, np.abs(np.diag(r)), a10, pi1_range, pi1_idem),
                (ops.pattern(lambda m: m[h1][:, h1]), x21_rows,
                 ops.pattern(lambda m: m[plus[x21_rows]][:, h1])))
    return TRANSPORTS.derived("h1_split", split, ops.A)


def _dissipation_bounds(ops: ModelOperators) -> tuple[float, float, float]:
    """Gershgorin's ``top`` >= lambda_max(sym L++), and sqrt(|.|_1 |.|_inf) >= |L++|, |L|.
    S is diagonal, so each adds S to sums of A made once per transport: sym A++'s
    Gershgorin rows, read, not assumed zero, and the |.| column and row sums of A++
    and A, to which |S| is added, as |a + s| <= |a| + |s|."""
    def sums():
        abs_a, sym, idx = abs(ops.A), 0.5 * (ops.A + ops.A.T), ops.idx_plus
        plus, diag = (ops.basis.p_degree > 0).astype(float), sym.diagonal()
        return ((diag - np.abs(diag) + abs(sym) @ plus)[idx], (abs_a.T @ plus)[idx],
                (abs_a @ plus)[idx], abs_a.T @ np.ones(ops.dim), abs_a @ np.ones(ops.dim))
    gershgorin, cols_pp, rows_pp, cols, rows = TRANSPORTS.derived("dissipation", sums, ops.A)
    s, spp = np.abs(ops.S), np.abs(ops.Spp)
    return (float(np.max(ops.Spp + gershgorin)), _norm_upper(cols_pp + spp, rows_pp + spp),
            _norm_upper(cols + s, rows + s))


def _norm_upper(col_sums, row_sums) -> float:
    """sqrt(norm_1 * norm_inf) from a matrix's absolute column and row sums."""
    return float(np.sqrt(col_sums.max()) * np.sqrt(row_sums.max()))


def operator_norm_upper(mat) -> float:
    """Cheap upper bound sqrt(norm_1 * norm_inf) >= sigma_max, dense or sparse."""
    if mat.size == 0:
        return 0.0
    a = abs(mat)
    return _norm_upper(a.sum(axis=0), a.sum(axis=1))


def macroscopic_coercivity(dec: Decomposition) -> float:
    """Smallest singular value a of A10, i.e. the coarse transport gap, once per transport.

    No analytic floor is checked here: for Langevin and RHMC none holds at
    a finite cutoff, and the thermostat's is checked by
    :func:`hypoco.models.adl_bound` at the operators' own cutoff.
    """
    return TRANSPORTS.derived("a", lambda: float(sla.svdvals(dec.A10)[-1]), dec.ops.A)


# ---------------------------------------------------------------------------
# Schur complement
# ---------------------------------------------------------------------------


def schur_complement(dec: Decomposition) -> np.ndarray:
    """The Schur complement S0 on H0, route one, proved equal to route two.

    Route one, the trailing block of ``dec.factor``, is A_{+0}^T M A_{+0} with
    M = L++^{-1}; route two, through the stored H1 split, is B^T M B with
    B = Q1 A10.  With E = A_{+0} - B on ``h1_rows`` and |M| <= 1/|top| they
    differ by at most (2|B||E| + |E|^2)/|top|, which must be within ROUTE_RTOL
    of route one's largest entry.  Sign and symmetry are proved, not checked:
    sym L++ <= top < 0 and rank A_{+0} = dim0 give sym S0 = A_{+0}^T sym(M) A_{+0} < 0;
    where R = 1 on H0, RSR = S and RAR = -A give R++ M R++ = M^T and
    R++ A_{+0} = -A_{+0}, so S0^T = S0.  Nothing is stored.
    """
    ops, lu, n = dec.ops, dec.factor.lu, len(dec.ops.idx_plus)
    s0 = (lu.L[n:, n:] @ lu.U[n:, n:]).toarray()
    b = dec.Q1 @ dec.A10
    norm_b = operator_norm_upper(b)
    norm_e = operator_norm_upper(ops.apl0[dec.h1_rows].toarray() - b)
    gap = norm_e * (2.0 * norm_b + norm_e) / abs(dec.top)
    rel = gap / max(float(np.max(np.abs(s0))), np.finfo(float).tiny)
    if not rel <= ROUTE_RTOL:
        raise NumericalFailure(f"Schur complement routes not proved to agree: "
                               f"|A_+0 - Q1 A10| <= {norm_e:.3e} bounds their relative gap "
                               f"by {rel:.3e}, above {ROUTE_RTOL:.0e}")
    return s0


def _bisect(graph) -> tuple[list[np.ndarray], np.ndarray]:
    """Parts and separator of a symmetric pattern, in its local indices.

    A disconnected pattern splits into its components with no separator.
    A connected one is cut at the smallest breadth-first level set between
    the 1/3 and 2/3 quantiles, counted from a far end: levels only touch
    their neighbours, so no edge joins the levels before the cut to those
    after it.
    """
    count, labels = csgraph.connected_components(graph, directed=False)
    if count > 1:
        comps = np.argsort(labels, kind="stable")
        return np.split(comps, np.cumsum(np.bincount(labels))[:-1]), np.arange(0)
    # the pattern is symmetric, so directed paths are undirected ones
    far = int(np.argmax(csgraph.shortest_path(graph, unweighted=True, indices=0)))
    level = csgraph.shortest_path(graph, unweighted=True, indices=far).astype(int)
    ranked = np.sort(level)
    lo, hi = ranked[len(level) // 3], ranked[2 * len(level) // 3]
    cut = lo + int(np.argmin(np.bincount(level)[lo:hi + 1]))
    return [np.flatnonzero(level < cut), np.flatnonzero(level > cut)], np.flatnonzero(level == cut)


def _nested_dissection(graph, leaf: int = 64) -> np.ndarray:
    """Nested-dissection order of a symmetric pattern: each part before its
    separator, parts of at most ``leaf`` indices in index order.

    The recursion runs on an explicit stack: separators are emitted first
    and the list is reversed at the end, so nothing holds a reference to
    itself.
    """
    # csgraph works on float64 and would convert any other dtype on every call
    graph = (sp.csr_matrix(graph) != 0).astype(float)
    chunks, stack = [], [np.arange(graph.shape[0])]
    while stack:
        nodes = stack.pop()
        if len(nodes) <= leaf:
            chunks.append(nodes)
            continue
        parts, sep = _bisect(graph[nodes][:, nodes])
        chunks.append(nodes[sep])
        stack.extend(nodes[part] for part in parts)
    return np.concatenate(chunks[::-1])


def _h0_last_order(L) -> np.ndarray:
    """H+, the indices where L's diagonal is nonzero, in nested-dissection
    order of |L++| + |L++^T|, then H0, its zero diagonal."""
    L = sp.csr_matrix(L)
    zero = L.diagonal() == 0
    plus = np.flatnonzero(~zero)
    lpp = abs(L[plus][:, plus])
    return np.concatenate([plus[_nested_dissection(lpp + lpp.T)], np.flatnonzero(zero)])


def _h0_last_lu(mat, what: str = "H0-last LU of L"):
    """SuperLU of ``mat``, in elimination order, without pivoting, named ``what`` in
    failures.  The order ends in the zero-diagonal block: with sym L++ negative
    definite and the border A_{+0} of full column rank, every leading block
    has a definite symmetric part, so elimination in order is stable; pivoting is refused."""
    try:
        lu = spla.splu(sp.csc_matrix(mat), permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise NumericalFailure(f"{what} failed, numerically singular: {exc}") from exc
    if np.any(lu.perm_r != np.arange(mat.shape[0])) or np.any(lu.perm_c != lu.perm_r):
        raise NumericalFailure(f"{what} pivoted: its trailing block need not be "
                               "the Schur complement")
    return lu


@dataclass(frozen=True)
class H0LastLU:
    """The unpivoted SuperLU ``lu`` of L[order][:, order], solving with L
    (``trans="N"``) or L^T (``trans="T"``) in working coordinates."""

    lu: spla.SuperLU
    order: np.ndarray

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        x = np.empty(np.shape(b))
        x[self.order] = self.lu.solve(np.asarray(b, float)[self.order], trans=trans)
        return x


# ---------------------------------------------------------------------------
# exact resolvent norm
# ---------------------------------------------------------------------------


def exact_resolvent_norm(L, method: str = "auto",
                         dense_threshold: int = DENSE_THRESHOLD,
                         factor: H0LastLU | None = None) -> float:
    """Operator norm of L^{-1}, i.e. 1/sigma_min(L).

    ``method`` is "dense" (full SVD, the cross-check), "iterative" (ARPACK
    Lanczos on (L^T L)^{-1} = L^{-1} L^{-T} through one sparse LU of L, from
    a fixed ``default_rng(0)`` start vector, so reruns agree bitwise), or "auto"
    to pick by dimension.  That LU is unpivoted, with the indices of L's
    nonzero diagonal in nested-dissection order first and its zero diagonal
    last: for a generator, route one's LU.  ``factor``, anything whose
    ``solve(b, trans)`` solves with L and L^T such as ``Decomposition.factor``,
    replaces it.  ARPACK runs to LANCZOS_TOL.
    NumericalFailure is raised when that LU fails or pivots, LANCZOS_MAX_APPS
    applications do not suffice, ARPACK does not converge, the Ritz residual or
    the backward error of the final solves exceeds RITZ_RTOL or BACKWARD_RTOL,
    or sigma_min <= 64 n eps sigma_max (on the LU path the upper bound
    sqrt(|L|_1 |L|_inf) >= sigma_max takes its place), or, after that verdict,
    |L z|/|z| >= sigma_min at the last iterate z misses sigma_min by RITZ_RTOL:
    a matvec, whose rounding the conditioning of L does not amplify.
    """
    if method not in ("auto", "dense", "iterative"):
        raise ConfigError([f"unknown method {method!r}"])
    mat = sp.csc_matrix(L)
    n = mat.shape[0]
    if method == "auto":
        method = "dense" if n < dense_threshold else "iterative"
    if method == "dense":
        sv = sla.svdvals(mat.toarray())
        smin, smax, quotient = float(sv[-1]), float(sv[0]), float(sv[-1])
    else:
        smax = operator_norm_upper(mat)
        smin, quotient = _lanczos_sigma_min(mat, factor, smax)
    if not smin > 64 * n * np.finfo(float).eps * smax:
        ratio = smin / smax if smax > 0 else 0.0
        raise NumericalFailure(f"exact_resolvent_norm: L numerically singular, "
                               f"sigma_min/sigma_max = {ratio:.3e}")
    if not abs(quotient - smin) <= RITZ_RTOL * smin:
        raise NumericalFailure(f"exact_resolvent_norm: sigma_min {smin:.6e} inaccurate: "
                               f"|L z|/|z| = {quotient:.6e} at its vector z, relative gap "
                               f"{abs(quotient - smin) / smin:.3e} above {RITZ_RTOL:.0e}")
    return 1.0 / smin


def _lanczos_sigma_min(mat: sp.csc_matrix, factor: H0LastLU | None,
                       smax: float) -> tuple[float, float]:
    """sigma_min of a sparse square matrix from ARPACK on (L^T L)^{-1}, and the
    quotient |L z|/|z| at the last iterate z = (L^T L)^{-1} x."""
    if factor is None:
        order = _h0_last_order(mat)
        lu = _h0_last_lu(mat[order][:, order], "exact_resolvent_norm: H0-last LU of L")
        factor = H0LastLU(lu, order)
    solve = factor.solve

    # the largest Rayleigh quotient seen bounds the eigenvalue from below; its
    # last relative change shows how far a run cut by the budget got
    apps, best, change = 0, 0.0, np.inf

    def matvec(x):
        nonlocal apps, best, change
        if apps == LANCZOS_MAX_APPS:
            raise NumericalFailure(
                f"exact_resolvent_norm: Lanczos inverse iteration not converged after "
                f"{LANCZOS_MAX_APPS} applications of (L^T L)^-1, last relative change of "
                f"the largest Rayleigh quotient {change:.3e} (tol {LANCZOS_TOL:.1e})"
            )
        x = np.ravel(x)
        z = solve(solve(x, trans="T"))
        if not np.all(np.isfinite(z)):
            raise NumericalFailure("exact_resolvent_norm: (L^T L)^-1 x is not finite, "
                                   "L numerically singular")
        apps += 1
        top = max(best, float(x @ z) / float(x @ x))
        change, best = (top - best) / top, top
        return z

    op = spla.LinearOperator(mat.shape, matvec=matvec, dtype=float)
    try:
        lam, vec = spla.eigsh(op, k=1, which="LM", tol=LANCZOS_TOL,
                              v0=np.random.default_rng(0).standard_normal(mat.shape[0]))
    except spla.ArpackNoConvergence as exc:
        raise NumericalFailure(
            f"exact_resolvent_norm: ARPACK eigenvalue of (L^T L)^-1 not converged "
            f"to tol {LANCZOS_TOL:.1e} after {apps} applications"
        ) from exc
    lam, x = float(lam[0]), vec[:, 0]
    u = solve(x, trans="T")
    z = solve(u)
    ritz = float(np.linalg.norm(z - lam * x)) / abs(lam)
    if not ritz <= RITZ_RTOL:
        raise NumericalFailure(f"exact_resolvent_norm: Ritz residual {ritz:.3e} of "
                               f"(L^T L)^-1 exceeds {RITZ_RTOL:.0e}")
    # the LU must solve L itself, not only agree with its own iterates
    lz = mat @ z
    _check_backward_error([(mat.T @ u - x, u), (lz - u, z)], smax, "exact_resolvent_norm")
    return float(1.0 / np.sqrt(lam)), _nrm2(lz) / _nrm2(z)


def _check_backward_error(solves, scale: float, where: str) -> None:
    """Refuse LU solves that miss L: each (residual L y - b or L^T y - b, y) in
    ``solves`` must have |residual| <= BACKWARD_RTOL scale |y|, scale >= |L|."""
    backward = float(np.max([_nrm2(res) / (scale * _nrm2(y)) for res, y in solves]))
    if not backward <= BACKWARD_RTOL:
        raise NumericalFailure(f"{where}: backward error {backward:.3e} of the LU solves "
                               f"against L exceeds {BACKWARD_RTOL:.0e}")


# ---------------------------------------------------------------------------
# Theorem bound and its ingredients
# ---------------------------------------------------------------------------


def theorem_bound(s: float, a: float, norm_S11: float,
                  norm_R22: float, norm_X21: float) -> float:
    """Closed-form resolvent bound 2(|S11|/a^2 + |R22||X21|^2/s) + 3/s."""
    problems = []
    if not s > 0:
        problems.append(f"s = {s!r} must be positive")
    if not a > 0:
        problems.append(f"a = {a!r} must be positive")
    for name, val in (("norm_S11", norm_S11), ("norm_R22", norm_R22),
                      ("norm_X21", norm_X21)):
        if val < 0 or not np.isfinite(val):
            problems.append(f"{name} = {val!r} must be finite and nonnegative")
    if problems:
        raise ConfigError(["assumption constants invalid: " + p for p in problems])
    # products, not **: a Python float's ** raises OverflowError where * gives inf
    return 2.0 * (norm_S11 / (a * a) + norm_R22 * (norm_X21 * norm_X21) / s) + 3.0 / s


def norm_X21(dec: Decomposition) -> float:
    """Norm of the X21 block L21 A10 (A*A)^{-1}.

    Evaluated as |P2 L++ Q1 A10^{-T}| = |L21 A10^{-T}|, using that A10 is
    square: A10 (A10^T A10)^{-1} = A10^{-T}.  A10 is not symmetric in general, so
    this differs from |L21 A10^{-1}|.  P2 L++ Q1 is formed only on ``h1_rows``
    and the rows L++ reaches from them: it vanishes on every other row.
    """
    _, rows, pattern = _h1_split(dec.ops)[1]
    p2lq1 = dec.ops.refill(pattern) @ dec.Q1
    p2lq1[np.searchsorted(rows, dec.h1_rows)] -= dec.Q1 @ dec.L11
    return operator_norm(np.linalg.solve(dec.A10, p2lq1.T).T)


def intermediate_norms(dec: Decomposition) -> dict:
    """Operator norms entering the resolvent bound, plus proof diagnostics."""
    a = macroscopic_coercivity(dec)
    return {
        "a": a,
        "norm_S11": operator_norm(dec.S11),
        "norm_R22": 1.0,  # proved by build_decomposition
        "norm_L21A10inv": norm_X21(dec),
        "norm_A10inv": 1.0 / a,
        "l11_symmetry_residual": dec.l11_symmetry_residual,
        "pi1_idempotency_residual": dec.pi1_idempotency_residual,
        "pi1_range_residual": dec.pi1_range_residual,
    }


# ---------------------------------------------------------------------------
# report record (built by hypoco.models.model_bound_report)
# ---------------------------------------------------------------------------

BOUND_JSON_KEYS = ("s", "a", "norm_S11", "norm_R22", "norm_L21A10inv",
                   "bound", "exact", "margin", "converged")


@dataclass
class BoundReport:
    """Everything needed to compare the closed-form bound with the truth."""

    model: str
    gamma: float
    n_q: int
    n_p: int
    n_xi: int
    s: float
    a: float
    norm_S11: float
    norm_R22: float
    norm_L21A10inv: float
    bound: float
    exact: float
    converged: bool
    converged_q: bool
    converged_p: bool
    #: structural check of the base evaluation that produced the bound
    assumptions: AssumptionReport
    details: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.bound / self.exact

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key) for key in BOUND_JSON_KEYS}
