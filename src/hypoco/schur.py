"""Saddle-point decomposition of the generator and resolvent bounds.

The working space splits as H0 (ker S) plus its orthogonal complement H+,
and H+ splits further into H1 = ran(A from H0) and H2.  In these coordinates
the generator has a saddle-point block structure whose Schur complement on H0
yields an explicit inverse.  Only dim0-wide blocks are formed: H2 is reached
through the projector P2 = 1 - Q1 Q1^T, an LU of L++ bordered by Q1 and a
sign count of the reversal, never through a basis of its own.
The module builds the decomposition and evaluates the closed-form resolvent
bound.  Each sparse LU is unpivoted, with H+ in one nested-dissection order
and a zero-diagonal block last, so its trailing block is a Schur complement:
one of L itself (L++ bordered by A_{+0}, H0 last), kept for the block
resolvent and the exact-norm oracle (ARPACK Lanczos on (L^T L)^{-1}, a dense
SVD for small matrices and as the cross-check), and one of L++ bordered by Q1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .basis import DEFAULT_TOL_IDENTITY
from .errors import ConfigError, InvariantViolation, NumericalFailure
from .operators import AssumptionReport, ModelOperators

#: exact norms use a dense SVD below this dimension and sparse LU Lanczos from
#: it on; the two take equal time at dim ~150 on one BLAS thread
DENSE_THRESHOLD = 150

#: largest relative Ritz residual |(L^T L)^{-1} x - lam x| / lam accepted
RITZ_RTOL = 1e-8

#: largest relative gap accepted between the two routes of the Schur complement
ROUTE_RTOL = 1e-8

#: largest residual of the thermostat's A*A identity, relative to its scale
ASTAR_A_RTOL = 1e-10

#: largest backward error |L y - b| / (sqrt(|L|_1 |L|_inf) |y|) of the oracle's LU solves
BACKWARD_RTOL = 1e-10

#: relative change under cutoff doubling below which a value counts as converged
CONVERGENCE_RTOL = 0.01


def operator_norm(mat) -> float:
    """Spectral norm of a dense block; zero-size blocks have norm 0."""
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return 0.0
    return float(sla.svdvals(mat)[0])


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


@dataclass
class Decomposition:
    """Orthonormal H0/H1 bases and the generator blocks the bound reads.

    H0 is the coordinate block ``ops.idx0``; Q1 holds the H1 basis in H+
    coordinates.  H2 is never formed: it is reached through the projector
    P2 = 1 - Q1 Q1^T, as |Q2^T Y| = |P2 Y|, so P2 L++ Q1 = L++ Q1 - Q1 L11
    stands in for L21.  A10 is square (dim0 = dim1) and invertible whenever
    the build succeeded.
    """

    ops: ModelOperators
    Q1: np.ndarray
    A10: np.ndarray
    L11: np.ndarray
    S11: np.ndarray
    pi1_idempotency_residual: float
    pi1_range_residual: float
    l11_symmetry_residual: float
    #: route one's H0-last LU of L, the factor the exact-norm oracle builds
    #: itself and :func:`block_resolvent` substitutes through; set by
    #: :func:`schur_complement`
    factor: H0LastLU | None = field(default=None, repr=False)
    _schur: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.ops.dim

    @property
    def dim0(self) -> int:
        return len(self.ops.idx0)

    @property
    def dim1(self) -> int:
        return self.Q1.shape[1]


def build_decomposition(ops: ModelOperators,
                        rank_tol: float = 1e-12,
                        tol_identity: float = DEFAULT_TOL_IDENTITY) -> Decomposition:
    """Split H+ into H1 = ran(A_{+0}) and H2 = ran(P2) by pivoted QR.

    A maps Hermite degree 0 only into degree 1 (degree <= 2 with the
    thermostat coupling), so the QR runs on the nonzero rows of A_{+0}.
    ``rank_tol`` multiplies the leading R diagonal of the pivoted QR; any
    trailing diagonal below that threshold means A_{+0} lost rank, i.e. the
    coarse-grained transport has a flat direction.

    |R22| = 1 is proved, not computed: R on H+ must be a diagonal sign
    matrix, and a sign occurring more than dim1 times has an eigenspace
    that meets H2 (of codimension dim1 in H+), so |R22| >= 1 = |R|.
    """
    dim0 = len(ops.idx0)
    rows = np.flatnonzero(ops.apl0.getnnz(axis=1))
    block = ops.apl0[rows].toarray()
    q_rows, r, _piv = sla.qr(block, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > rank_tol * diag[0])) if diag.size else 0
    if rank < dim0:
        raise InvariantViolation(
            f"macroscopic coercivity failure: rank(A10) = {rank} < dim H0 = {dim0}"
        )
    q_rows = q_rows[:, :dim0]
    q1 = np.zeros((len(ops.idx_plus), dim0))
    q1[rows] = q_rows

    scale = max(operator_norm_upper(block), 1.0)
    pi1_range = float(np.max(np.abs(q_rows @ (q_rows.T @ block) - block))) / scale
    pi1_idem = float(np.max(np.abs(q_rows.T @ q_rows - np.eye(dim0))))
    if max(pi1_range, pi1_idem) > tol_identity:
        raise InvariantViolation(
            f"H1 projector residuals exceed tolerance: range {pi1_range:.3e}, "
            f"idempotency {pi1_idem:.3e}"
        )

    l11 = q1.T @ (ops.Lpp @ q1)
    s11 = q1.T @ (ops.Spp[:, None] * q1)
    l11_sym = float(np.max(np.abs(l11 - l11.T)))
    if ops.model.model != "adaptive_langevin" and l11_sym > tol_identity:
        raise InvariantViolation(
            f"L11 symmetry residual {l11_sym:.3e} exceeds tolerance {tol_identity:g}"
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
    return Decomposition(
        ops=ops, Q1=q1, A10=q_rows.T @ block,
        L11=l11, S11=s11,
        pi1_idempotency_residual=pi1_idem, pi1_range_residual=pi1_range,
        l11_symmetry_residual=l11_sym,
    )


def gershgorin_max(sym) -> float:
    """Upper bound max_i (a_ii + sum_{j != i} |a_ij|) on the top eigenvalue
    of a sparse symmetric matrix."""
    diag = sym.diagonal()
    return float(np.max(diag - np.abs(diag) + np.asarray(abs(sym).sum(axis=1)).ravel()))


def operator_norm_upper(mat) -> float:
    """Cheap upper bound sqrt(norm_1 * norm_inf) >= sigma_max, dense or sparse."""
    if mat.size == 0:
        return 0.0
    a = abs(mat)
    return float(np.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max()))


def macroscopic_coercivity(dec: Decomposition) -> float:
    """Smallest singular value a of A10, i.e. the coarse transport gap.

    No analytic floor is checked here: for Langevin and RHMC none holds at
    a finite cutoff, and the thermostat's is checked by
    :func:`hypoco.models.adl_bound` at the operators' own cutoff.
    """
    return float(sla.svdvals(dec.A10)[-1])


# ---------------------------------------------------------------------------
# Schur complement and block resolvent
# ---------------------------------------------------------------------------


def schur_complement(dec: Decomposition,
                     tol_identity: float = DEFAULT_TOL_IDENTITY) -> np.ndarray:
    """The Schur complement on H0, computed once, through two routes.

    Route one is the trailing block of an unpivoted LU of L with H+ first,
    in the nested-dissection order the basis keeps, and H0 last; that LU is
    kept as ``dec.factor`` for the exact-norm oracle and the block resolvent.
    Route two, through the square invertible A10, is the trailing block of an
    LU of L++ bordered by Q1.  Both are algebraically equal, so disagreement
    flags a conditioning problem or a wrong H1 split rather than a modelling
    one; a seeded solve through the kept LU is checked against L as well.
    Symmetry and negative definiteness are asserted except for the
    thermostated model, whose extended reversal fixes ker S only up to a
    sign; these checks run at the caller's ``tol_identity`` on every call,
    only the routes are cached.
    """
    ops = dec.ops
    if dec._schur is None:
        top = gershgorin_max(0.5 * (ops.Lpp + ops.Lpp.T))
        if not top < 0.0:
            raise NumericalFailure(f"dissipation failure on H2: Gershgorin bound of sym L++ "
                                   f"reaches {top:.3e}")
        n = len(ops.idx_plus)
        # the pattern of L++ does not depend on the friction, epsilon or model
        order = ops.basis.derived("h0_last_order", lambda _: _h0_last_order(ops.L))
        if not np.array_equal(order[n:], ops.idx0):
            raise InvariantViolation("H0-last order: the zero diagonal of L is not ker S")
        route2 = _schur_route2(dec, order)
        lu = _h0_last_lu(ops.L[order][:, order])
        route1 = (lu.L[n:, n:] @ lu.U[n:, n:]).toarray()
        denom = max(float(np.linalg.norm(route1)), np.finfo(float).tiny)
        rel = float(np.linalg.norm(route1 - route2)) / denom
        if not rel <= ROUTE_RTOL:
            raise NumericalFailure(f"Schur complement routes disagree: relative gap {rel:.3e}")
        # both routes eliminate L++ in one order: their agreement cannot vouch for it
        factor, b = H0LastLU(lu, order), np.random.default_rng(0).standard_normal(ops.dim)
        y = factor.solve(b)
        _check_backward_error([(ops.L @ y - b, y)], operator_norm_upper(ops.L), "Schur complement")
        dec.factor, dec._schur = factor, route1
    s0 = dec._schur
    if ops.model.model != "adaptive_langevin":
        sym_res = float(np.max(np.abs(s0 - s0.T)))
        scale = max(float(np.max(np.abs(s0))), 1.0)
        if sym_res / scale > tol_identity:
            raise InvariantViolation(f"Schur complement symmetry residual {sym_res:.3e}")
        top = float(np.linalg.eigvalsh(0.5 * (s0 + s0.T))[-1])
        if top >= 0.0:
            raise InvariantViolation(f"Schur complement not negative definite: max "
                                     f"eigenvalue {top:.3e}")
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
    definite and the border (A_{+0} or Q1) of full column rank, every leading block
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


def _schur_route2(dec: Decomposition, order: np.ndarray) -> np.ndarray:
    """A10^T s1^{-1} A10 with s1 = L11 - L12 L22^{-1} L21, H2 never formed,
    read off the trailing block of an unpivoted LU of L++ bordered by Q1.

    s1 is the Schur complement of L22 in L++ in H1/H2 coordinates (L22 is
    nonsingular: lambda_max(sym L22) <= lambda_max(sym L++) < 0 by Cauchy
    interlacing), so s1^{-1} = Q1^T L++^{-1} Q1.  Eliminating H+, in route
    one's ``order``, from K = [[L++, Q1], [Q1^T, 0]] leaves T = -s1^{-1}.
    Route one borders L++ by A_{+0} = Q1 A10 instead, so the routes agree
    only if the H1 split (Q1, A10) the bound reads does.
    """
    ops = dec.ops
    n, lpp, q1 = len(ops.idx_plus), ops.Lpp.tocoo(), sp.coo_matrix(dec.Q1)
    pos = np.empty(n, dtype=np.intp)  # where each H+ coordinate sits in ``order``
    pos[np.searchsorted(ops.idx_plus, order[:n])] = np.arange(n)
    k = sp.csc_matrix((np.concatenate([lpp.data, q1.data, q1.data]),
                       (np.concatenate([pos[lpp.row], pos[q1.row], n + q1.col]),
                        np.concatenate([pos[lpp.col], n + q1.col, pos[q1.row]]))),
                      shape=(n + dec.dim1,) * 2)
    lu = _h0_last_lu(k, "dissipation failure on H2: Q1-bordered LU of L++")
    return -dec.A10.T @ (lu.L[n:, n:] @ lu.U[n:, n:]).toarray() @ dec.A10


def block_resolvent(dec: Decomposition, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Solve L u = phi through the explicit block inverse.

    Block elimination with the Schur complement on H0 as the last pivot is
    the forward and back substitution of ``dec.factor``, the unpivoted LU of
    L with H+ first and H0 last that :func:`schur_complement` keeps.
    ``rhs`` is a full working-space vector.  Returns (u0, u_plus) in H0 / H+
    coordinates; the solution is validated against the original system to
    1e-8 relative.
    """
    ops = dec.ops
    rhs = np.asarray(rhs, float)
    if rhs.shape != (dec.dim,):
        raise ConfigError([f"right-hand side has shape {rhs.shape}, expected ({dec.dim},)"])
    if not np.all(np.isfinite(rhs)):  # a NaN residual would pass the check below
        raise ConfigError(["right-hand side must be finite"])
    schur_complement(dec)  # builds dec.factor, refusing a singular or pivoted LU
    u = dec.factor.solve(rhs)
    res = np.linalg.norm(ops.L @ u - rhs)
    if res > 1e-8 * max(np.linalg.norm(rhs), np.finfo(float).tiny):
        raise NumericalFailure(f"block resolvent residual too large: {res:.3e}")
    return u[ops.idx0], u[ops.idx_plus]


# ---------------------------------------------------------------------------
# exact resolvent norm
# ---------------------------------------------------------------------------


def exact_resolvent_norm(L, method: str = "auto",
                         dense_threshold: int = DENSE_THRESHOLD,
                         tol: float = 1e-12, max_iter: int = 20000,
                         factor: H0LastLU | None = None) -> float:
    """Operator norm of L^{-1}, i.e. 1/sigma_min(L).

    ``method`` is "dense" (full SVD, the cross-check), "iterative" (ARPACK
    Lanczos on (L^T L)^{-1} = L^{-1} L^{-T} through one sparse LU of L, from
    a fixed ``default_rng(0)`` start vector, so reruns agree bitwise), or "auto"
    to pick by dimension.  That LU is unpivoted, with the indices of L's
    nonzero diagonal in nested-dissection order first and its zero diagonal
    last: for a generator, route one's LU.  ``factor``, anything whose
    ``solve(b, trans)`` solves with L and L^T such as ``Decomposition.factor``,
    replaces it.  ``tol`` is ARPACK's relative accuracy and ``max_iter`` the
    number of applications allowed.
    NumericalFailure is raised when that LU fails or pivots, the budget runs
    out, ARPACK does not converge, the Ritz residual or the backward error of
    the final solves exceeds RITZ_RTOL or BACKWARD_RTOL, or sigma_min <= 64 n
    eps sigma_max (on the LU path the upper bound sqrt(|L|_1 |L|_inf) >=
    sigma_max takes its place).
    """
    if method not in ("auto", "dense", "iterative"):
        raise ConfigError([f"unknown method {method!r}"])
    mat = sp.csc_matrix(L)
    n = mat.shape[0]
    if method == "auto":
        method = "dense" if n < dense_threshold else "iterative"
    if method == "dense":
        sv = sla.svdvals(mat.toarray())
        smin, smax = float(sv[-1]), float(sv[0])
    else:
        smax = operator_norm_upper(mat)
        smin = _lanczos_sigma_min(mat, factor, smax, tol, max_iter)
    if not smin > 64 * n * np.finfo(float).eps * smax:
        ratio = smin / smax if smax > 0 else 0.0
        raise NumericalFailure(f"exact_resolvent_norm: L numerically singular, "
                               f"sigma_min/sigma_max = {ratio:.3e}")
    return 1.0 / smin


def _lanczos_sigma_min(mat: sp.csc_matrix, factor: H0LastLU | None, smax: float,
                       tol: float, max_iter: int) -> float:
    """sigma_min of a sparse square matrix from ARPACK on (L^T L)^{-1}."""
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
        if apps == max_iter:
            raise NumericalFailure(
                f"exact_resolvent_norm: Lanczos inverse iteration not converged after "
                f"{max_iter} applications of (L^T L)^-1, last relative change of the "
                f"largest Rayleigh quotient {change:.3e} (tol {tol:.1e})"
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
        lam, vec = spla.eigsh(op, k=1, which="LM", tol=tol,
                              v0=np.random.default_rng(0).standard_normal(mat.shape[0]))
    except spla.ArpackNoConvergence as exc:
        raise NumericalFailure(
            f"exact_resolvent_norm: ARPACK eigenvalue of (L^T L)^-1 not converged "
            f"to tol {tol:.1e} after {apps} applications"
        ) from exc
    lam, x = float(lam[0]), vec[:, 0]
    u = solve(x, trans="T")
    z = solve(u)
    ritz = float(np.linalg.norm(z - lam * x)) / abs(lam)
    if not ritz <= RITZ_RTOL:
        raise NumericalFailure(f"exact_resolvent_norm: Ritz residual {ritz:.3e} of "
                               f"(L^T L)^-1 exceeds {RITZ_RTOL:.0e}")
    # the LU must solve L itself, not only agree with its own iterates
    _check_backward_error([(mat.T @ u - x, u), (mat @ z - u, z)], smax, "exact_resolvent_norm")
    return float(1.0 / np.sqrt(lam))


def _check_backward_error(solves, scale: float, where: str) -> None:
    """Refuse LU solves that miss L: each (residual L y - b or L^T y - b, y) in
    ``solves`` must have |residual| <= BACKWARD_RTOL scale |y|, scale >= |L|."""
    backward = max(float(np.linalg.norm(res)) / (scale * float(np.linalg.norm(y)))
                   for res, y in solves)
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
    return 2.0 * (norm_S11 / a**2 + norm_R22 * norm_X21**2 / s) + 3.0 / s


def norm_X21(dec: Decomposition) -> float:
    """Norm of the X21 block L21 A10 (A*A)^{-1}.

    Evaluated as |P2 L++ Q1 A10^{-T}| = |L21 A10^{-T}|, using that A10 is
    square: A10 (A10^T A10)^{-1} = A10^{-T}.  A10 is not symmetric in general, so
    this differs from |L21 A10^{-1}|.
    """
    p2lq1 = dec.ops.Lpp @ dec.Q1 - dec.Q1 @ dec.L11
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))
