"""Model-specific resolvent bounds and the static Poincare machinery.

Each supported dynamics gets its closed-form bound expressed through analytic
constants (spectral gaps, growth constants) and a small number of numerically
evaluated operator norms.  The functions here consume an assembled
decomposition plus a constants dictionary as produced by
:func:`hypoco.constants.constants_summary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .basis import DEFAULT_TOL_IDENTITY, BasisSpec, Potential, build_basis
from .constants import case_constants, constants_cutoff, constants_summary
from .errors import ConfigError, InvariantViolation, NumericalFailure
from .operators import ModelOperators, ModelSpec, assemble_model, verify_structural_assumptions
from .schur import (ASTAR_A_RTOL, CONVERGENCE_RTOL, BoundReport, Decomposition,
                    build_decomposition, exact_resolvent_norm,
                    intermediate_norms, operator_norm, schur_complement,
                    theorem_bound)


# ---------------------------------------------------------------------------
# Hessian-control proposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropositionCase:
    """A declared potential regime with the parameters its constants need."""

    case: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # validate eagerly so malformed cases fail at construction
        case_constants(self.case, beta=self.params.get("beta", 1.0),
                       d=self.params.get("d", 1), params=self.params)


def prop_CCprime(case: PropositionCase) -> tuple[float, float]:
    """(C, C') constants of the Hessian-control proposition for the case."""
    return case_constants(case.case, beta=case.params.get("beta", 1.0),
                          d=case.params.get("d", 1), params=case.params)


# ---------------------------------------------------------------------------
# operator-norm ingredients
# ---------------------------------------------------------------------------


def norm_X_hamiltonian_squared(ops: ModelOperators, check_case: PropositionCase | None = None,
                               K_nu2: float | None = None,
                               conv_tol: float = 1e-8) -> float:
    """Squared norm of (1-Pi0) A^2 Pi0 (A_{+0}* A_{+0})^{-1}.

    Needs only the assembled antisymmetric part, so it also runs on problem
    sizes where the full H1/H2 split is never built.  When a potential regime
    is declared, the proposition inequality X^2 <= 2(C + C'/K_nu^2) is
    asserted.
    """
    # from Hermite degree 0, A^2 reaches degree <= 2 only: solve on its nonzero rows
    a2 = (ops.A @ ops.A[:, ops.idx0].tocsc())[ops.idx_plus]
    rows = np.flatnonzero(a2.getnnz(axis=1))
    try:
        x_mat = np.linalg.solve(ops.apl0_gram, a2[rows].toarray().T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"macroscopic coercivity failure: {exc}") from exc
    x2 = operator_norm(x_mat) ** 2
    if check_case is not None:
        if K_nu2 is None:
            raise ConfigError(["K_nu2 is required to check the proposition bound"])
        c, cprime = prop_CCprime(check_case)
        limit = 2.0 * (c + cprime / K_nu2)
        if x2 > limit + conv_tol:
            raise InvariantViolation(
                f"proposition violation: X^2 = {x2:.6f} exceeds 2(C + C'/K_nu^2) "
                f"= {limit:.6f} for case {check_case.case}"
            )
    return float(x2)


def _model_norms(dec: Decomposition) -> dict:
    """The theorem's norms plus the blocks of the dynamics-specific bounds.

    H2 blocks are reached through P2.  For the friction models S = gamma L_FD,
    so |Pi1 L_FD Pi1| = |S11| / gamma and norm_XS = |P2 L_FD Q1 A10 (A*A)^{-1}|
    is |P2 S Q1 A10^{-T}| / gamma, with A10 (A*A)^{-1} = A10^{-T} as in norm_X21.
    """
    ops, gamma = dec.ops, dec.ops.model.gamma
    out = intermediate_norms(dec)
    s21 = ops.Spp[:, None] * dec.Q1 - dec.Q1 @ dec.S11
    out["norm_S21"] = operator_norm(s21)
    out["X2"] = norm_X_hamiltonian_squared(ops)
    if ops.model.model != "boltzmann_rhmc":
        out["norm_pi1_lfd_pi1"] = out["norm_S11"] / gamma
        out["norm_XS"] = operator_norm(np.linalg.solve(dec.A10, s21.T).T) / gamma
    out["gamma"] = gamma
    return out


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def langevin_bound_formula(gamma: float, beta: float, norm_pi1_lfd_pi1: float,
                           lambda_min: float, K_nu2: float, K_kappa2: float,
                           X2: float, XS: float = 0.0) -> float:
    """General friction bound: transport term + (4b/(g Kk^2))(3/4 + X^2 + g^2 XS^2)."""
    return (2.0 * beta * gamma * norm_pi1_lfd_pi1 / (lambda_min * K_nu2)
            + (4.0 * beta / (gamma * K_kappa2))
            * (0.75 + X2 + gamma**2 * XS**2))


def corollary_bound(gamma: float, beta: float, mass: float, K_nu2: float,
                    X2: float) -> float:
    """Quadratic-kinetic-energy reduction 2 b g / K_nu^2 + (4m/g)(3/4 + X^2)."""
    return 2.0 * beta * gamma / K_nu2 + (4.0 * mass / gamma) * (0.75 + X2)


def rhmc_bound_formula(gamma: float, beta: float, lambda_min: float,
                       K_nu2: float, X2: float) -> float:
    """Collision-model bound 2 b g/(lam K_nu^2) + (2/g)(3/2 + X^2)."""
    return (2.0 * beta * gamma / (lambda_min * K_nu2)
            + (2.0 / gamma) * (1.5 + X2))


def langevin_bound_general(dec: Decomposition, constants: dict) -> tuple[float, dict]:
    """Evaluate the general Langevin bound from the decomposition blocks."""
    ops = dec.ops
    if ops.model.model != "langevin":
        raise ConfigError(["langevin_bound_general requires the langevin model"])
    norms = _model_norms(dec)
    bound = langevin_bound_formula(
        ops.model.gamma, ops.model.beta, norms["norm_pi1_lfd_pi1"],
        constants["lambda_min_M"], constants["K_nu2"], constants["K_kappa2"],
        norms["X2"], norms["norm_XS"])
    norms["bound_corollary"] = corollary_bound(
        ops.model.gamma, ops.model.beta, ops.model.mass,
        constants["K_nu2"], norms["X2"])
    return bound, norms


def rhmc_bound(dec: Decomposition, constants: dict,
               tol_identity: float = DEFAULT_TOL_IDENTITY) -> tuple[float, dict]:
    """Collision-model bound, with the structural facts it relies on asserted."""
    ops = dec.ops
    if ops.model.model != "boltzmann_rhmc":
        raise ConfigError(["rhmc_bound requires the boltzmann_rhmc model"])
    gamma = ops.model.gamma
    norms = _model_norms(dec)
    if abs(norms["norm_S11"] - gamma) > tol_identity * max(gamma, 1.0):
        raise InvariantViolation(
            f"collision S11 norm {norms['norm_S11']:.3e} != gamma {gamma:.3e}"
        )
    if norms["norm_S21"] > tol_identity:
        raise InvariantViolation(
            f"collision S21 should vanish, norm {norms['norm_S21']:.3e}"
        )
    bound = rhmc_bound_formula(gamma, ops.model.beta, constants["lambda_min_M"],
                               constants["K_nu2"], norms["X2"])
    return bound, norms


# ---------------------------------------------------------------------------
# thermostated model
# ---------------------------------------------------------------------------


def _adl_AstarA_blocks(basis) -> tuple[np.ndarray, np.ndarray]:
    """H0 blocks of the xi number operator and of the position Witten Laplacian."""
    spec, idx0 = basis.spec, np.flatnonzero(basis.p_degree == 0)
    xi_number = np.diag(spec.beta * basis.xi_degree[idx0])
    witten = sum(di.T @ di for di in map(basis.witten_deriv, range(spec.d)))
    witten = basis.to_h(basis.span_kron(pos_mat=witten))[idx0][:, idx0].toarray()
    return xi_number, witten


def adl_AstarA_residual(ops: ModelOperators) -> float:
    """Dual-assembly check of A_{+0}* A_{+0} for the thermostated model.

    The assembled Gram matrix must match the analytic expression combining
    the xi number operator with the position Witten Laplacian, whose H0
    blocks are built once per basis and never from A.
    """
    if ops.model.model != "adaptive_langevin":
        raise ConfigError(["A*A identity check applies to adaptive_langevin only"])
    spec = ops.basis.spec
    m, beta, eps, d = spec.mass, spec.beta, ops.model.epsilon, spec.d
    xi_number, witten = ops.basis.derived("adl_AstarA_blocks", _adl_AstarA_blocks)
    analytic = (2.0 * d / (m**2 * beta**2 * eps**2)) * xi_number + witten / (m * beta)
    scale = max(float(np.max(np.abs(analytic))), 1.0)
    residual = float(np.max(np.abs(ops.apl0_gram - analytic))) / scale
    if residual > ASTAR_A_RTOL:
        raise InvariantViolation(f"NH assembly error: A*A residual {residual:.3e}")
    return residual


def adl_a_squared(beta: float, d: int, epsilon: float, K_nu2: float,
                  mass: float = 1.0) -> float:
    """Analytic macroscopic coercivity (1/b) min(2d/(m eps)^2 ... , K_nu^2/m)."""
    return min(2.0 * d / (mass**2 * epsilon**2), K_nu2 / mass) / beta


def adl_envelope(gamma: float, epsilon: float) -> float:
    """Predicted resolvent growth max(g e^2, g, 1/g, 1/(g e^2))."""
    return max(gamma * epsilon**2, gamma, 1.0 / gamma,
               1.0 / (gamma * epsilon**2))


def adl_envelope_fit(points) -> tuple[float, float]:
    """Least-squares prefactor for exact ~ C * envelope, and the worst factor.

    ``points`` is an iterable of (gamma, epsilon, exact_norm).  The fit is in
    log space; the returned factor is max |log(exact / (C env))| exponentiated,
    i.e. the multiplicative envelope quality.
    """
    logs = []
    for gamma, epsilon, exact in points:
        logs.append(np.log(exact) - np.log(adl_envelope(gamma, epsilon)))
    logs = np.asarray(logs)
    if logs.size == 0:
        raise ConfigError(["envelope fit needs at least one point"])
    log_c = float(np.mean(logs))
    factor = float(np.exp(np.max(np.abs(logs - log_c))))
    return float(np.exp(log_c)), factor


def adl_bound(dec: Decomposition, constants: dict) -> tuple[float, dict]:
    """Closed-form machinery applied to the thermostated model.

    Verifies the analytic A*A identity, checks the numerical gap a^2 against
    the floor min(2d/(m eps)^2, K_nu^2/m)/beta with K_nu^2 at the operators'
    own position cutoff (a finite-cutoff gap can sit below the continuum
    floor from ``constants``, reported as ``a2_analytic``), and evaluates the
    saddle-point bound with the numerically computed blocks.  The bound
    prefactor for this model is not explicit, so callers should fit the
    envelope over a (gamma, epsilon) sweep rather than trusting a single margin.
    """
    ops = dec.ops
    if ops.model.model != "adaptive_langevin":
        raise ConfigError(["adl_bound requires the adaptive_langevin model"])
    residual = adl_AstarA_residual(ops)
    norms = intermediate_norms(dec)
    beta, d, eps, m = ops.model.beta, ops.basis.spec.d, ops.model.epsilon, ops.model.mass
    _, witten = ops.basis.derived("adl_AstarA_blocks", _adl_AstarA_blocks)
    xi0 = ops.basis.xi_degree[ops.idx0] == 0  # mean-zero position functions
    k_nu2 = float(np.linalg.eigvalsh(witten[np.ix_(xi0, xi0)])[0])
    floor = adl_a_squared(beta, d, eps, k_nu2, m)
    if norms["a"] ** 2 < floor - 1e-8:
        raise InvariantViolation(
            f"numerical gap {norms['a']**2:.6e} below analytic value {floor:.6e}"
        )
    bound = theorem_bound(ops.model.s_analytic, norms["a"], norms["norm_S11"],
                          norms["norm_R22"], norms["norm_L21A10inv"])
    details = dict(norms)
    details["AstarA_residual"] = residual
    details["a2_analytic"] = adl_a_squared(beta, d, eps, constants["K_nu2"], m)
    details["envelope"] = adl_envelope(ops.model.gamma, ops.model.epsilon)
    return bound, details


# ---------------------------------------------------------------------------
# report orchestration
# ---------------------------------------------------------------------------


def _evaluate(model: ModelSpec, spec: BasisSpec, potential: Potential | None,
              constants: dict, tol_identity: float, rank_tol: float):
    basis = build_basis(spec, potential=potential)
    ops = assemble_model(basis, model)
    rep = verify_structural_assumptions(ops, tol=tol_identity)
    if not rep.passed:
        raise InvariantViolation(
            "structural assumptions failed before decomposition:\n" + rep.table()
        )
    dec = build_decomposition(ops, rank_tol=rank_tol, tol_identity=tol_identity)
    schur_complement(dec, tol_identity=tol_identity)
    if model.model == "langevin":
        bound, details = langevin_bound_general(dec, constants)
    elif model.model == "boltzmann_rhmc":
        bound, details = rhmc_bound(dec, constants, tol_identity=tol_identity)
    else:
        bound, details = adl_bound(dec, constants)
    exact = exact_resolvent_norm(ops.L, factor=dec.factor)
    return rep, bound, details, exact


def model_bound_report(model: ModelSpec, spec: BasisSpec,
                       potential: Potential | None = None, *,
                       constants: dict | None = None,
                       check_convergence: bool = True,
                       rel_tol: float = CONVERGENCE_RTOL,
                       tol_identity: float = DEFAULT_TOL_IDENTITY,
                       rank_tol: float = 1e-12) -> BoundReport:
    """BoundReport carrying the dynamics-specific bound for one configuration.

    The constants dictionary (spectral gaps etc.) is computed once at a
    refined position cutoff when not supplied, and reused across the
    convergence doublings, which affect only the operator truncation.
    ``rank_tol`` is the relative rank threshold of the H1 split.
    """
    if constants is None:
        constants = constants_summary(potential, model.beta, model.mass,
                                      model.d, n_q=constants_cutoff(spec.n_q),
                                      torus_length=spec.torus_length)
    rep, bound, details, exact = _evaluate(
        model, spec, potential, constants, tol_identity, rank_tol)
    converged_q = converged_p = True
    if check_convergence:
        flags = []
        for name in ("n_q", "n_p"):
            doubled = replace(spec, **{name: 2 * getattr(spec, name)})
            _, b2, _, e2 = _evaluate(model, doubled, potential, constants,
                                     tol_identity, rank_tol)
            flags.append(abs(b2 - bound) < rel_tol * abs(bound)
                         and abs(e2 - exact) < rel_tol * abs(exact))
        converged_q, converged_p = flags
    details = dict(details)
    details["constants"] = constants
    return BoundReport(
        model=model.model, gamma=model.gamma,
        n_q=spec.n_q, n_p=spec.n_p, n_xi=spec.n_xi if spec.has_xi else 0,
        s=rep.s_numeric, a=details["a"],
        norm_S11=details["norm_S11"], norm_R22=details["norm_R22"],
        norm_L21A10inv=details["norm_L21A10inv"],
        bound=bound, exact=exact,
        converged=converged_q and converged_p,
        converged_q=converged_q, converged_p=converged_p,
        assumptions=rep, details=details,
    )


# ---------------------------------------------------------------------------
# static Poincare inequality and semigroup rate
# ---------------------------------------------------------------------------


def static_poincare_constants(dec: Decomposition) -> tuple[float, float]:
    """Constants (C1, C2) of the antisymmetric-part Poincare inequality.

    C1 = 1 + |(1-Pi0) A^2 Pi0 (A*A)^{-1}| and C2 = |(1-S_++)^{1/2} A_{+0}
    (A*A)^{-1}|, taken as |P^T (1-S_++) P|^{1/2} with P = A_{+0} (A*A)^{-1},
    which needs 1 - S_++ >= 0, i.e. every entry of the diagonal S_++ below 1.
    With A_{+0} = Q1 A10 and A10 square, P = Q1 A10^{-T}, so P^T (1-S_++) P
    = A10^{-1} (1 - S11) A10^{-T}, a dim0 x dim0 product.
    """
    ops = dec.ops
    c1 = 1.0 + np.sqrt(norm_X_hamiltonian_squared(ops))
    low = 1.0 - float(np.max(ops.Spp))
    if not low > 0:
        raise NumericalFailure(
            f"1 - S is not positive definite on H+: smallest entry {low:.3e}"
        )
    half = np.linalg.solve(dec.A10, np.eye(dec.dim0) - dec.S11)
    c2 = np.sqrt(operator_norm(np.linalg.solve(dec.A10, half.T).T))
    return float(c1), float(c2)


def check_static_inequality(ops: ModelOperators, c1: float, c2: float,
                            n_samples: int = 100, seed: int = 0) -> float:
    """Worst ratio |f| / (C1 |(1-Pi0)f| + C2 |(1-S)^{-1/2} A f|) over random f."""
    problems = [f"{name} must be positive and finite, got {val!r}"
                for name, val in (("c1", c1), ("c2", c2)) if not 0.0 < val < np.inf]
    if problems:  # max(worst, nan) keeps worst, so a NaN constant would pass
        raise ConfigError(problems)
    inv_sqrt = 1.0 / np.sqrt(1.0 - ops.S)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        f = rng.standard_normal(ops.dim)
        rhs = (c1 * np.linalg.norm(f[ops.idx_plus])
               + c2 * np.linalg.norm(inv_sqrt * (ops.A @ f)))
        worst = max(worst, float(np.linalg.norm(f) / rhs))
    if worst > 1.0 + 1e-10:
        raise InvariantViolation(
            f"static inequality violated: worst ratio {worst:.6f} > 1"
        )
    return worst


def alpha_T(gamma: float, s: float, T: float, C1T: float, C2T: float) -> float:
    """One-period contraction factor (1 + g s T/(g^2 s C2^2 + C1^2))^{-1}."""
    problems = [name for name, val in
                (("gamma", gamma), ("s", s), ("T", T), ("C1T", C1T), ("C2T", C2T))
                if not val > 0]
    if problems:
        raise ConfigError([f"invalid rate inputs: {p} must be positive"
                           for p in problems])
    return 1.0 / (1.0 + gamma * s * T / (gamma**2 * s * C2T**2 + C1T**2))


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
