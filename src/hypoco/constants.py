"""Analytic constants entering the resolvent bounds, with lemma verifiers.

Spectral gaps of the position/momentum marginals and growth constants of the
potential are computed here, together with quadrature checks of the
supporting inequalities (a Villani-type gradient bound, the Bochner identity,
and the Hessian-control lemma).  All position quadratures use uniform
periodic grids, which are spectrally accurate for the smooth integrands
appearing here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import (TWO_PI, BasisSpec, Potential, fourier_deriv_1d,
                    fourier_value_table, mean_zero_map, positive_density,
                    sqrt_rho_coeffs, validated_potential, witten_deriv)
from .errors import ConfigError, InvariantViolation, NumericalFailure

#: flooring for c1 and c3 so strict positivity holds even for flat potentials
GROWTH_FLOOR = 1e-6

#: candidate grid for the c2 parameter of the Laplacian growth condition
C2_GRID = tuple(np.round(np.linspace(0.0, 1.0, 11), 10))

CASES = ("convex", "hessian_lower_bound", "general", "lsi")


# ---------------------------------------------------------------------------
# position-grid plumbing
# ---------------------------------------------------------------------------


def _default_n_grid(potential: Potential | None, extra_degree: int = 0) -> int:
    deg = 0
    if potential is not None and not potential.is_zero:
        deg = max(potential.degrees)
    return max(128, 8 * (deg + extra_degree))


def _axes(d: int, n_grid: int, torus_length: float) -> list[np.ndarray]:
    ax = np.arange(n_grid) * (torus_length / n_grid)
    return [ax] * d


class PositionGrid:
    """Uniform periodic grid with the Boltzmann weight of a potential.

    Provides evaluation of band-limited functions (trigonometric coefficient
    tensors) and of their derivatives on the grid, plus expectations under
    the normalized measure exp(-beta V)/Z.
    """

    def __init__(self, potential: Potential | None, beta: float, d: int,
                 n_q: int, torus_length: float = TWO_PI):
        if potential is None:
            potential = Potential.zero(d)
        if potential.d != d:
            raise ConfigError([f"potential dimension {potential.d} != {d}"])
        self.potential = potential
        self.beta = float(beta)
        self.d = d
        self.n_q = n_q
        self.torus_length = torus_length
        self.axes = _axes(d, _default_n_grid(potential, extra_degree=2 * n_q + 2),
                          torus_length)
        self.table = fourier_value_table(self.axes[0], n_q, torus_length)
        self.deriv = fourier_deriv_1d(n_q, torus_length)
        w = positive_density(potential, self.beta, self.axes)
        self.rho = w / w.mean()
        self.grad_v = potential.grad_grid(self.axes)
        self.hess_v = potential.hessian_grid(self.axes)

    @property
    def n_pos_1d(self) -> int:
        return 2 * self.n_q + 1

    def _coeff_tensor(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        shape = (self.n_pos_1d,) * self.d
        if coeffs.shape != shape:
            coeffs = coeffs.reshape(shape)
        return coeffs

    def evaluate(self, coeffs: np.ndarray, derivs: tuple[int, ...] = ()) -> np.ndarray:
        """Grid values of the expansion, after differentiating along ``derivs``."""
        c = self._coeff_tensor(coeffs)
        for axis in derivs:
            c = np.moveaxis(np.tensordot(self.deriv, c, axes=(1, axis)), 0, axis)
        out = c
        for axis in range(self.d):
            out = np.moveaxis(np.tensordot(self.table, out, axes=(1, axis)), 0, axis)
        return out

    def nu_mean(self, values: np.ndarray) -> float:
        return float(np.mean(self.rho * values))

    def nu_norm2(self, values: np.ndarray) -> float:
        return self.nu_mean(values**2)


# ---------------------------------------------------------------------------
# Poincare constants
# ---------------------------------------------------------------------------


@dataclass
class PoincareResult:
    """Squared spectral gap of a weighted Laplacian, with its eigenvector."""

    constant: float
    eigenvector: np.ndarray


def poincare_constant(measure: str, *, potential: Potential | None = None,
                      beta: float = 1.0, d: int = 1,
                      n_q: int = 32, torus_length: float = TWO_PI) -> PoincareResult:
    """Smallest nonzero eigenvalue of grad*grad for the position marginal.

    For the position marginal the weighted Laplacian -Delta + beta grad V .
    grad is W = sum_i D_i^T D_i, with D_i the sparse Witten derivatives in
    the square-root-conjugated trigonometric basis.  One sparse LU of the
    bordered [[W, c], [c^T, 0]] inverts W on the complement of the constant
    mode c, where ARPACK finds the bottom eigenvalue by shift-invert; the
    eigenvector is reported in the basis coordinates T of that complement.
    The Gaussian momentum marginal's gap beta/mass is written by
    :func:`constants_summary` as ``K_kappa2``.
    """
    if measure != "nu":
        raise ConfigError([f"unknown measure {measure!r}; expected nu"])
    if n_q < 1:
        raise ConfigError(["the position Poincare constant needs n_q >= 1"])
    potential = validated_potential(
        BasisSpec(d=d, n_q=n_q, n_p=0, beta=beta, torus_length=torus_length), potential)
    w = sum(di.T @ di for di in (witten_deriv(potential, beta, n_q, i) for i in range(d)))
    c = sqrt_rho_coeffs(potential, beta, n_q)
    n = c.size
    try:
        lu = spla.splu(sp.bmat([[w, c[:, None]], [c[None, :], None]], format="csc"))

        def inverse(r):
            return lu.solve(np.append(r - c * (c @ r), 0.0))[:n]

        op = spla.LinearOperator((n, n), matvec=inverse, dtype=float)
        v0 = np.random.default_rng(0).standard_normal(n)  # fixed: reruns agree bitwise
        x = spla.eigsh(op, k=1, which="LA", v0=v0)[1][:, 0]
    except RuntimeError as exc:  # splu and ArpackError
        raise NumericalFailure(f"solver failure: {exc}") from exc
    x = inverse(x)  # one inverse-iteration step through the same LU
    x /= np.linalg.norm(x)
    wx = w @ x
    k2 = float(x @ wx)
    residual = float(np.linalg.norm(wx - c * (c @ wx) - k2 * x))
    if residual > 1e-8 * max(abs(k2), 1.0):
        raise NumericalFailure(f"solver failure: eigenresidual {residual:.3e}")
    if not k2 > 0:  # W >= 0 and the border removes its kernel sqrt(rho): this is rounding
        raise NumericalFailure(f"Poincare constant K_nu2 = {k2!r} not positive: a gap at "
                               "rounding level")
    return PoincareResult(constant=k2, eigenvector=mean_zero_map(c).T @ x)


# ---------------------------------------------------------------------------
# growth constants
# ---------------------------------------------------------------------------


def growth_case_iii_cprime(c1: float, c3: float, beta: float, d: int) -> float:
    """The general-case Hessian-control constant 2c3[sqrt(d)+2max(8c3/b^2, sqrt(c1 d/b))]."""
    return 2.0 * c3 * (np.sqrt(d) + 2.0 * max(8.0 * c3 / beta / beta,
                                              np.sqrt(c1 * d / beta)))


@dataclass
class GrowthConstants:
    """Constants of the Laplacian/Hessian growth conditions on the potential."""

    c1: float
    c2: float
    c3: float
    cprime_case_iii: float


def estimate_growth_constants(potential: Potential | None, beta: float, d: int,
                              n_grid: int | None = None,
                              torus_length: float = TWO_PI,
                              c2: float | None = None) -> GrowthConstants:
    """Grid maximization of the growth-condition constants.

    c3 does not depend on c2; c1 does, so c2 is scanned over an 11-point grid
    and the value minimizing the downstream general-case constant is kept
    (first minimizer wins, so flat scans give c2 = 0).  Passing ``c2`` pins
    the scan to that single value.  Both c1 and c3 are floored at a small
    positive value to respect strict positivity.
    """
    if c2 is not None and not 0.0 <= c2 <= 1.0:
        raise ConfigError([f"c2 must be in [0, 1], got {c2!r}"])
    if potential is None:
        potential = Potential.zero(d)
    if n_grid is None:
        n_grid = _default_n_grid(potential)
    axes = _axes(d, n_grid, torus_length)
    grad = potential.grad_grid(axes)
    hess = potential.hessian_grid(axes)
    lap = np.einsum("ii...->...", hess)
    grad_sq = np.sum(grad**2, axis=0)
    hess_frob = np.sqrt(np.sum(hess**2, axis=(0, 1)))
    c3 = max(float((hess_frob / np.sqrt(d + grad_sq)).max()), GROWTH_FLOOR)

    best = None
    c2_grid = C2_GRID if c2 is None else (float(c2),)
    for c2_try in c2_grid:
        c1 = max(float(((lap - 0.5 * c2_try * beta * grad_sq) / d).max()), GROWTH_FLOOR)
        cprime = growth_case_iii_cprime(c1, c3, beta, d)
        if best is None or cprime < best[0] - 1e-15:
            best = (cprime, float(c2_try), c1)
    cprime, c2, c1 = best
    return GrowthConstants(c1=c1, c2=c2, c3=c3, cprime_case_iii=cprime)


def estimate_hessian_K(potential: Potential | None, d: int,
                       torus_length: float = TWO_PI) -> float:
    """Lower-bound constant K with Hessian >= -K Id over the grid, clipped at 0."""
    if potential is None or potential.is_zero:
        return 0.0
    axes = _axes(d, _default_n_grid(potential), torus_length)
    hess = potential.hessian_grid(axes)
    stacked = np.moveaxis(hess.reshape(d, d, -1), 2, 0)
    lam_min = np.linalg.eigvalsh(stacked)[:, 0]
    return max(0.0, float(-lam_min.min()))


def case_constants(case: str, beta: float, d: int, params: dict) -> tuple[float, float]:
    """(C, C') pairs of the Hessian-control lemma for each admissible case."""
    if case not in CASES:
        raise ConfigError([f"unknown case {case!r}; expected one of {CASES}"])
    missing = []

    def need(key):
        if key not in params or params[key] is None:
            missing.append(key)
            return None
        return params[key]

    if case == "convex":
        return 1.0, 0.0
    if case == "hessian_lower_bound":
        k = need("K")
        if missing:
            raise ConfigError([f"case parameters incomplete: missing {missing}"])
        return 1.0, float(k)
    if case == "general":
        c1, c3 = need("c1"), need("c3")
        if missing:
            raise ConfigError([f"case parameters incomplete: missing {missing}"])
        return 2.0, growth_case_iii_cprime(float(c1), float(c3), beta, d)
    c3, c_lsi, moments = need("c3"), need("C_lsi"), need("exp_moments")
    if missing:
        raise ConfigError([f"case parameters incomplete: missing {missing}"])
    moments = np.atleast_1d(np.asarray(moments, dtype=float))
    if not np.all(np.isfinite(moments)) or np.any(moments <= 0):
        raise ConfigError(["case parameters incomplete: exp_moments must be "
                           "finite and positive"])
    c3 = float(c3)
    cprime = 2.0 * (c3 + (np.log(d) + np.log(moments.max()))
                    / (2.0 * c3 * float(c_lsi)))
    return 2.0, float(cprime)


# ---------------------------------------------------------------------------
# lemma checks
# ---------------------------------------------------------------------------


def _grid_for(coeffs, potential, beta, d, torus_length) -> PositionGrid:
    coeffs = np.asarray(coeffs, dtype=float)
    n1d = round(coeffs.size ** (1.0 / d)) if d > 1 else coeffs.size
    if n1d**d != coeffs.size or n1d % 2 == 0:
        raise ConfigError([
            f"coefficient vector of size {coeffs.size} is not a "
            f"{d}-fold tensor of odd one-dimensional blocks"
        ])
    n_q = (n1d - 1) // 2
    return PositionGrid(potential, beta, d, n_q=n_q, torus_length=torus_length)


def check_villani_lemma(phi, potential: Potential | None, beta: float, d: int,
                        c1: float, torus_length: float = TWO_PI) -> float:
    """Ratio of |phi grad V|^2 to its gradient/L2 upper bound, must be <= 1."""
    grid = _grid_for(phi, potential, beta, d, torus_length)
    phi_g = grid.evaluate(phi)
    lhs = grid.nu_mean(phi_g**2 * np.sum(grid.grad_v**2, axis=0))
    grad_sq = sum(grid.nu_norm2(grid.evaluate(phi, derivs=(i,))) for i in range(d))
    rhs = (16.0 / beta / beta) * grad_sq + (4.0 * d * c1 / beta) * grid.nu_norm2(phi_g)
    if lhs == 0.0:
        return 0.0
    ratio = lhs / rhs
    if ratio > 1.0 + 1e-10:
        raise InvariantViolation(f"lemma violation: ratio {ratio:.6f} > 1")
    return float(ratio)


def _second_derivative_norms(grid: PositionGrid, u) -> tuple[float, float, float, np.ndarray]:
    """(sum |d2u|^2, |grad*grad u|^2, beta times the hessian quadratic form, grad fields)."""
    d = grid.d
    grads = np.stack([grid.evaluate(u, derivs=(i,)) for i in range(d)])
    lhs = 0.0
    lap = np.zeros_like(grads[0])
    for i in range(d):
        for j in range(d):
            dij = grid.evaluate(u, derivs=(i, j))
            lhs += grid.nu_norm2(dij)
            if i == j:
                lap += dij
    witten = -lap + grid.beta * np.sum(grid.grad_v * grads, axis=0)
    cross = grid.beta * grid.nu_mean(np.einsum("i...,ij...,j...->...",
                                               grads, grid.hess_v, grads))
    return lhs, grid.nu_norm2(witten), cross, grads


def check_bochner(u, potential: Potential | None, beta: float, d: int = 1,
                  torus_length: float = TWO_PI) -> float:
    """Residual of sum|d2u|^2 = |grad*grad u|^2 - beta int grad u . hess V grad u
    in L^2(nu), nu ~ exp(-beta V)."""
    grid = _grid_for(u, potential, beta, d, torus_length)
    lhs, witten2, cross, _ = _second_derivative_norms(grid, u)
    residual = abs(lhs - (witten2 - cross))
    if residual > 1e-8 * max(lhs, 1.0):
        raise NumericalFailure(f"Bochner identity failure: residual {residual:.3e}")
    return float(residual)


def check_controlH2(u, potential: Potential | None, beta: float, case: str,
                    params: dict | None = None, d: int = 1,
                    torus_length: float = TWO_PI) -> float:
    """Ratio sum|d2u|^2 / (C |grad*grad u|^2 + C' |grad u|^2), must be <= 1.

    For the Hessian-lower-bound case a missing K is estimated from the grid.
    """
    params = dict(params or {})
    if case == "hessian_lower_bound" and "K" not in params:
        params["K"] = estimate_hessian_K(potential, d, torus_length)
    c, cprime = case_constants(case, beta, d, params)
    grid = _grid_for(u, potential, beta, d, torus_length)
    lhs, witten2, _, grads = _second_derivative_norms(grid, u)
    grad2 = sum(grid.nu_norm2(g) for g in grads)
    rhs = c * witten2 + cprime * grad2
    if lhs == 0.0:
        return 0.0
    ratio = lhs / rhs
    if ratio > 1.0 + 1e-8:
        raise InvariantViolation(
            f"constant-case misdeclared: ratio {ratio:.6f} > 1 for case {case}"
        )
    return float(ratio)


# ---------------------------------------------------------------------------
# aggregate summary (CLI surface)
# ---------------------------------------------------------------------------


def constants_cutoff(n_q: int) -> int:
    """Position cutoff of the constants for operators cut at ``n_q``: 2 n_q, at least 32."""
    return max(32, 2 * n_q)


def constants_summary(potential: Potential | None, beta: float, mass: float,
                      d: int, n_q: int = 32, torus_length: float = TWO_PI,
                      c2: float | None = None) -> dict:
    """All scalar constants in one dictionary (the CLI JSON payload).

    The kinetic energy |p|^2/(2 mass) has Hessian Id/mass, so lambda_min(M) = 1/mass.
    The momentum constants K_kappa2 = beta/mass and 1/mass must be finite.
    """
    momentum = {"K_kappa2": beta / mass, "lambda_min_M": 1.0 / mass}
    problems = [f"{name} = {value!r} must be finite, with beta = {beta!r} and mass = {mass!r}"
                for name, value in momentum.items() if not value < np.inf]
    if problems:
        raise ConfigError(problems)
    knu = poincare_constant("nu", potential=potential, beta=beta, d=d,
                            n_q=n_q, torus_length=torus_length)
    growth = estimate_growth_constants(potential, beta, d, torus_length=torus_length, c2=c2)
    return {
        "K_nu2": knu.constant,
        **momentum,
        "c1": growth.c1,
        "c2": growth.c2,
        "c3": growth.c3,
        "K_hessian": estimate_hessian_K(potential, d, torus_length),
    }
