"""What only the acceptance criteria compute: the block resolvent (criterion 2),
the log-log slope fit (criterion 4), the envelope fit (criterion 8), and the
static Poincare inequality with its semigroup rate (criterion 9).

No command of the package runs these.  They read the package's decomposition,
operators and envelope, and check the paper's statements against them.
"""

import numpy as np

from hypoco.errors import ConfigError, InvariantViolation, NumericalFailure
from hypoco.models import adl_envelope, norm_X_hamiltonian_squared
from hypoco.operators import ModelOperators
from hypoco.schur import Decomposition, _nrm2, operator_norm


# ---------------------------------------------------------------------------
# block resolvent
# ---------------------------------------------------------------------------


def block_resolvent(dec: Decomposition, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Solve L u = phi through the explicit block inverse.

    Block elimination with the Schur complement on H0 as the last pivot is
    the forward and back substitution of ``dec.factor``, the unpivoted LU of
    L with H+ first and H0 last that :func:`build_decomposition` made.
    ``rhs`` is a full working-space vector.  Returns (u0, u_plus) in H0 / H+
    coordinates; the solution is validated against the original system to
    1e-8 relative.
    """
    ops = dec.ops
    rhs = np.asarray(rhs, float)
    if rhs.shape != (ops.dim,):
        raise ConfigError([f"right-hand side has shape {rhs.shape}, expected ({ops.dim},)"])
    if not np.all(np.isfinite(rhs)):  # bad input, not a numerical failure
        raise ConfigError(["right-hand side must be finite"])
    u = dec.factor.solve(rhs)
    res = _nrm2(ops.L @ u - rhs)
    if not res <= 1e-8 * max(_nrm2(rhs), np.finfo(float).tiny):
        raise NumericalFailure(f"block resolvent residual too large: {res:.3e}")
    return u[ops.idx0], u[ops.idx_plus]


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


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
