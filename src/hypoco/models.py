"""Model-specific resolvent bounds.

Each supported dynamics gets its closed-form bound expressed through analytic
constants (spectral gaps, growth constants) and a small number of numerically
evaluated operator norms.  The functions here consume an assembled
decomposition plus a constants dictionary as produced by
:func:`hypoco.constants.constants_summary`.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .basis import DEFAULT_TOL_IDENTITY, TRANSPORTS, BasisSpec, Potential, build_basis
from .constants import constants_cutoff, constants_summary
from .errors import ConfigError, InvariantViolation, NumericalFailure
from .operators import ModelOperators, ModelSpec, assemble_model, verify_structural_assumptions
from .schur import (ASTAR_A_RTOL, CONVERGENCE_RTOL, BoundReport, Decomposition,
                    build_decomposition, exact_resolvent_norm,
                    intermediate_norms, operator_norm, schur_complement,
                    theorem_bound)


# ---------------------------------------------------------------------------
# operator-norm ingredients
# ---------------------------------------------------------------------------


def norm_X_hamiltonian_squared(ops: ModelOperators) -> float:
    """Squared norm of (1-Pi0) A^2 Pi0 (A_{+0}* A_{+0})^{-1}.

    Needs only the assembled antisymmetric part A, once per A object, so it
    also runs on problem sizes where the full H1/H2 split is never built.
    """
    def build():
        # from Hermite degree 0, A^2 reaches degree <= 2 only: solve on its nonzero rows
        a2 = (ops.A @ ops.A[:, ops.idx0].tocsc())[ops.idx_plus]
        rows = np.flatnonzero(a2.getnnz(axis=1))
        try:
            x_mat = np.linalg.solve(ops.apl0_gram, a2[rows].toarray().T).T
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"macroscopic coercivity failure: {exc}") from exc
        if not np.all(np.isfinite(x_mat)):
            raise NumericalFailure("X^2: X = (1 - Pi0) A^2 Pi0 (A_+0* A_+0)^-1 is not finite")
        return float(operator_norm(x_mat) ** 2)
    return TRANSPORTS.derived("X2", build, ops.A)


def _model_norms(dec: Decomposition) -> dict:
    """The theorem's norms plus the blocks of the dynamics-specific bounds.

    The kinetic energy is quadratic, so S is one scalar on H1 (-gamma/m for Langevin,
    -gamma for RHMC) and S21 = P2 S Q1 and norm_XS = |P2 L_FD Q1 A10^{-T}| are zero:
    checked exactly on Q1's rows ``dec.h1_rows``, not computed.  |Pi1 L_FD Pi1| = |S11| / gamma.
    """
    ops, gamma = dec.ops, dec.ops.model.gamma
    count = np.unique(ops.Spp[dec.h1_rows]).size
    if count > 1:
        raise InvariantViolation(f"S21 need not vanish: S takes {count} values on H1")
    out = intermediate_norms(dec)
    out["norm_S21"] = 0.0
    out["X2"] = norm_X_hamiltonian_squared(ops)
    if ops.model.model != "boltzmann_rhmc":
        out["norm_pi1_lfd_pi1"] = out["norm_S11"] / gamma
        out["norm_XS"] = 0.0
    out["gamma"] = gamma
    return out


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def langevin_bound_formula(gamma: float, beta: float, norm_pi1_lfd_pi1: float,
                           lambda_min: float, K_nu2: float, K_kappa2: float,
                           X2: float) -> float:
    """General friction bound: transport term + (4b/(g Kk^2))(3/4 + X^2), whose
    X_S term is 0 because S is one scalar on H1 (checked by :func:`_model_norms`)."""
    return (2.0 * beta * gamma * norm_pi1_lfd_pi1 / (lambda_min * K_nu2)
            + (4.0 * beta / (gamma * K_kappa2)) * (0.75 + X2))


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
        norms["X2"])
    norms["bound_corollary"] = corollary_bound(
        ops.model.gamma, ops.model.beta, ops.model.mass,
        constants["K_nu2"], norms["X2"])
    return bound, norms


def rhmc_bound(dec: Decomposition, constants: dict) -> tuple[float, dict]:
    """Collision-model bound.  S = -gamma on H1 is checked exactly (_model_norms proves S
    one value there), so S11 = -gamma Q1^T Q1 and |S11| = gamma to within
    build_decomposition's check of Q1^T Q1 = 1."""
    ops = dec.ops
    if ops.model.model != "boltzmann_rhmc":
        raise ConfigError(["rhmc_bound requires the boltzmann_rhmc model"])
    gamma = ops.model.gamma
    norms = _model_norms(dec)
    s1 = float(ops.Spp[dec.h1_rows][0])
    if s1 != -gamma:
        raise InvariantViolation(f"collision S on H1 is {s1!r}, not -gamma = {-gamma!r}")
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

    def build():
        xi_number, witten = ops.basis.derived("adl_AstarA_blocks", _adl_AstarA_blocks)
        xi_scale = 2.0 * d / _squares("(m beta eps)^2", m, beta, eps)
        analytic = xi_scale * xi_number + witten / (m * beta)
        scale = max(float(np.max(np.abs(analytic))), 1.0)
        return float(np.max(np.abs(ops.apl0_gram - analytic))) / scale
    residual = TRANSPORTS.derived(("AstarA", eps), build, ops.A)
    if residual > ASTAR_A_RTOL:
        raise InvariantViolation(f"NH assembly error: A*A residual {residual:.3e}")
    return residual


def adl_a_squared(beta: float, d: int, epsilon: float, K_nu2: float,
                  mass: float = 1.0) -> float:
    """Analytic macroscopic coercivity (1/b) min(2d/(m eps)^2 ... , K_nu^2/m)."""
    return min(2.0 * d / _squares("(m eps)^2", mass, epsilon), K_nu2 / mass) / beta


def _squares(name: str, *values: float) -> float:
    """The product of the squares of ``values``, left to right as the closed forms write
    it, refused where it leaves the float range: divided by, it would give 0 or inf."""
    try:
        out = math.prod(v**2 for v in values)
    except OverflowError:  # a Python float's ** raises where * gives inf
        out = math.inf
    if not 0.0 < out < math.inf:
        raise NumericalFailure(f"thermostat scale {name} = {out!r} leaves the float range")
    return out


def adl_envelope(gamma: float, epsilon: float) -> float:
    """Predicted resolvent growth max(g e^2, g, 1/g, 1/(g e^2))."""
    return max(gamma * epsilon**2, gamma, 1.0 / gamma,
               1.0 / (gamma * epsilon**2))


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
    xi0 = ops.basis.xi_degree[ops.idx0] == 0  # mean-zero position functions
    k_nu2 = ops.basis.derived("adl_K_nu2", lambda b: float(np.linalg.eigvalsh(
        b.derived("adl_AstarA_blocks", _adl_AstarA_blocks)[1][np.ix_(xi0, xi0)])[0]))
    floor = adl_a_squared(beta, d, eps, k_nu2, m)
    # relative to the floor's own size, which reaches 1e9 at m = 1e-9
    if norms["a"] ** 2 < floor - 1e-8 * max(floor, 1.0):
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
    schur_complement(dec)
    if model.model == "langevin":
        bound, details = langevin_bound_general(dec, constants)
    elif model.model == "boltzmann_rhmc":
        bound, details = rhmc_bound(dec, constants)
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
        n_q=spec.n_q, n_p=spec.n_p, n_xi=spec.n_xi,
        s=rep.s_numeric, a=details["a"],
        norm_S11=details["norm_S11"], norm_R22=details["norm_R22"],
        norm_L21A10inv=details["norm_L21A10inv"],
        bound=bound, exact=exact,
        converged=converged_q and converged_p,
        converged_q=converged_q, converged_p=converged_p,
        assumptions=rep, details=details,
    )
