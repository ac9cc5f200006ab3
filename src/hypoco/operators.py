"""Assembly of kinetic generators on the working basis.

Every operator is represented on the mean-zero working space of a
:class:`~hypoco.basis.BasisSet`.  Adjoints in L2(mu) coincide with matrix
transposes because the basis is orthonormal.  The transport pieces are
written as Kronecker sums of exactly-(anti)symmetric one-coordinate blocks so
the structural identities hold to rounding error rather than quadrature
error.  Pi0, the reversal and the dissipation depend only on the Hermite
degrees of a basis function, so they are held as the 1-D arrays of their
diagonals, read off the grading ``basis.p_degree`` / ``basis.xi_degree`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .basis import DEFAULT_TOL_IDENTITY, TRANSPORTS, BasisSet, fourier_mult, position_deriv
from .errors import ConfigError

MODELS = ("langevin", "boltzmann_rhmc", "adaptive_langevin")


@dataclass(frozen=True)
class ModelSpec:
    """Physical parameters selecting one of the supported generators."""

    model: str
    gamma: float
    beta: float = 1.0
    mass: float = 1.0
    d: int = 1
    epsilon: float | None = None

    def __post_init__(self):
        problems = []
        if self.model not in MODELS:
            problems.append(f"unknown model {self.model!r}; expected one of {MODELS}")
        for name in ("gamma", "beta", "mass"):
            if not 0.0 < getattr(self, name) < np.inf:  # NaN fails too
                problems.append(f"{name} must be positive and finite")
        if self.d < 1:
            problems.append("d must be >= 1")
        if self.model == "adaptive_langevin":
            if self.epsilon is None or not 0.0 < self.epsilon < np.inf:
                problems.append("adaptive_langevin requires a positive and finite epsilon")
        elif self.epsilon is not None:
            problems.append("epsilon is only meaningful for adaptive_langevin")
        if problems:
            raise ConfigError(problems)

    @property
    def s_analytic(self) -> float:
        """Dissipation lower bound on the orthogonal complement of ker S."""
        if self.model == "boltzmann_rhmc":
            return self.gamma
        return self.gamma / self.mass


# ---------------------------------------------------------------------------
# individual operators
# ---------------------------------------------------------------------------


def _hamiltonian_span(basis: BasisSet) -> sp.csr_matrix:
    """Transport generator p/m . grad_q - grad V . grad_p on the full span.

    In flat position coordinates the operator is the sum over coordinates of
    (p_i/m) (x) d/dq_i  -  (dV/dq_i) (x) (d/dp_i - d/dp_i^*)/2,
    each term a Kronecker product of a symmetric and an antisymmetric factor.
    """
    spec = basis.spec
    out = None
    for i in range(spec.d):
        term = basis.span_kron(pos_mat=position_deriv(i, spec.d, spec.n_q, spec.torus_length),
                               herm_mats={i: basis.herm.mult / spec.mass})
        if not basis.potential.is_zero:
            mult = fourier_mult(basis.potential.deriv_coeffs(i), spec.d, spec.n_q)
            term = term - basis.span_kron(pos_mat=mult, herm_mats={i: basis.herm.anti})
        out = term if out is None else out + term
    return out


def _nosehoover_span(basis: BasisSet) -> sp.csr_matrix:
    """Thermostat coupling (|p|^2/m^2 - d/(m beta)) d/dxi - (xi/m) p.grad_p.

    Assembled in the exactly antisymmetric form
    w(p) (x) (d/dxi - d/dxi^*)/2  -  (1/m) sum_i Z_i (x) xi.
    with Z_i the symmetrised product of p_i and (d/dp_i - d/dp_i^*)/2.
    Coordinate i adds (p_i^2 - m/beta)/m^2 to w, an exact zero on degree 0.
    """
    spec = basis.spec
    if not spec.n_xi:
        raise ConfigError(["model/basis mismatch: thermostat coupling needs the xi coordinate"])
    m, herm = spec.mass, basis.herm
    # w's largest entry, 2 n_p m/beta on the diagonal, by the same float operations
    if not ((2 * herm.n + 1) * herm.variance - herm.variance) / m / m < np.inf:
        raise ConfigError(f"mass = {m!r} and beta = {spec.beta!r} overflow the thermostat "
                          "coupling (p_i^2 - m/beta)/m^2, with p_i^2 up to (2 n_p + 1) m/beta")
    w = (herm.mult2 - herm.variance * np.eye(herm.n + 1)) / m / m  # m**2 overflows at 1e155
    z = 0.5 * (herm.mult @ herm.anti + herm.anti @ herm.mult)
    out = None
    for i in range(spec.d):
        term = (basis.span_kron(herm_mats={i: w}, xi_mat=basis.xi.anti)
                - basis.span_kron(herm_mats={i: z}, xi_mat=basis.xi.mult) / m)
        out = term if out is None else out + term
    return out


def _on_h(basis: BasisSet, span) -> sp.csr_matrix:
    """``basis.to_h(span(basis))``: friction-free, so built once per basis."""
    return basis.derived(span.__name__, lambda b: b.to_h(span(b)))


def diagonal(values) -> sp.csr_matrix:
    """Diagonal CSR matrix storing only the nonzero entries of ``values``."""
    keep = np.flatnonzero(values)
    return sp.csr_matrix((values[keep], (keep, keep)), shape=(values.size,) * 2)


def assemble_hamiltonian(basis: BasisSet) -> sp.csr_matrix:
    return _on_h(basis, _hamiltonian_span)


def assemble_fd(basis: BasisSet) -> np.ndarray:
    """Diagonal of the momentum Ornstein-Uhlenbeck generator: -(total degree)/mass."""
    return basis.derived("fd", lambda b: -b.p_degree / b.spec.mass)


def assemble_pi0(basis: BasisSet) -> np.ndarray:
    """Diagonal of the orthogonal projector onto Hermite degree zero in every momentum."""
    return basis.derived("pi0", lambda b: (b.p_degree == 0).astype(float))


def assemble_reversal(basis: BasisSet) -> np.ndarray:
    """Diagonal of the momentum (and xi) reversal: the parity of the Hermite degrees."""
    return basis.derived("reversal", lambda b: (-1.0) ** (b.p_degree + b.xi_degree))


def assemble_boltzmann_collision(basis: BasisSet, gamma: float) -> np.ndarray:
    """Diagonal of the projection collision operator gamma (Pi0 - 1)."""
    return -gamma * (basis.p_degree > 0)


def assemble_nosehoover(basis: BasisSet) -> sp.csr_matrix:
    return _on_h(basis, _nosehoover_span)


# ---------------------------------------------------------------------------
# full models
# ---------------------------------------------------------------------------


@dataclass
class ModelOperators:
    """The assembled generator L = A + S, its companions, and its H0/H+ blocks.

    A is antisymmetric and sparse; S, Pi0 and the reversal are diagonal and
    held as 1-D arrays of their diagonals.  H0 = ker S is the Hermite
    momentum degree-0 block ``idx0`` and H+ its complement ``idx_plus``.  Its one
    sparse block, A_{+0}, is sliced once per A object; one bundle serves one evaluation.
    S is diagonal, so L and its blocks are refilled from A's, kept with H+ diagonal slots.
    """

    model: ModelSpec
    basis: BasisSet
    A: sp.csr_matrix
    S: np.ndarray
    pi0: np.ndarray
    reversal: np.ndarray
    L: sp.csr_matrix = field(init=False)

    def __post_init__(self):
        self.L = self.refill(self.pattern())

    @property
    def dim(self) -> int:
        return self.L.shape[0]

    def pattern(self, take=None) -> tuple:
        """Friction-free pattern of ``take(L)``, a block sliced from L (all of L, kept per
        transport, without ``take``): A's block with an explicit zero slot on each H+
        diagonal entry it meets, those slots' positions in its data, and their indices."""
        if take is None:
            return TRANSPORTS.derived("L", lambda: self.pattern(lambda m: m), self.A)
        a, plus = self.A.tocoo(), self.idx_plus
        full = sp.csr_matrix((np.r_[a.data, np.zeros(plus.size)],
                              (np.r_[a.row, plus], np.r_[a.col, plus])), shape=a.shape)
        # sliced with its entries numbered, the block says where each of its entries sits
        block = take(sp.csr_matrix((np.arange(full.nnz, dtype=float), full.indices,
                                    full.indptr), shape=a.shape))
        pos = block.data.astype(np.intp)
        rows = np.repeat(np.arange(a.shape[0]), np.diff(full.indptr))[pos]
        slots = np.flatnonzero((full.indices[pos] == rows) & (self.basis.p_degree[rows] > 0))
        block.data = full.data[pos]
        return block, slots, rows[slots]

    def refill(self, pattern: tuple):
        """The block whose :meth:`pattern` this is, bitwise as if sliced from A + diag(S):
        S is added into the slots of a copy of its data; its index arrays are shared."""
        block, slots, src = pattern
        data = block.data.copy()
        data[slots] += self.S[src]
        return type(block)((data, block.indices, block.indptr), shape=block.shape)

    @cached_property
    def idx0(self) -> np.ndarray:
        """Working-space columns spanning ker S (Hermite momentum degree 0)."""
        return np.where(self.basis.p_degree == 0)[0]

    @cached_property
    def idx_plus(self) -> np.ndarray:
        return np.where(self.basis.p_degree > 0)[0]

    @cached_property
    def Spp(self) -> np.ndarray:
        return self.S[self.idx_plus]

    @cached_property
    def apl0(self) -> sp.csr_matrix:
        """A_{+0}, the transport from H0 into H+, sliced once per transport."""
        return TRANSPORTS.derived("apl0", lambda: self.A[self.idx_plus][:, self.idx0], self.A)

    @cached_property
    def apl0_gram(self) -> np.ndarray:
        """A_{+0}^T A_{+0} = A_{+0}* A_{+0}, the coarse transport's dense Gram matrix."""
        return (self.apl0.T @ self.apl0).toarray()


def _check_model_basis(basis: BasisSet, model: ModelSpec):
    problems = []
    spec = basis.spec
    if model.d != spec.d:
        problems.append(f"model/basis mismatch: model d={model.d} but basis d={spec.d}")
    if abs(model.beta - spec.beta) > 1e-12 * spec.beta:
        problems.append("model/basis mismatch: model and basis disagree on beta")
    if abs(model.mass - spec.mass) > 1e-12 * spec.mass:
        problems.append("model/basis mismatch: model and basis disagree on mass")
    if not spec.n_q or not spec.n_p:
        problems.append(f"n_q = {spec.n_q} and n_p = {spec.n_p} must be >= 1: H0 or H+ is empty")
    needs_xi = model.model == "adaptive_langevin"
    if needs_xi and not spec.n_xi:
        problems.append("model/basis mismatch: adaptive_langevin needs a basis with xi")
    if not needs_xi and spec.n_xi:
        problems.append("model/basis mismatch: xi coordinate present but unused by the model")
    if problems:
        raise ConfigError(problems)


def assemble_model(basis: BasisSet, model: ModelSpec) -> ModelOperators:
    """Assemble A (antisymmetric part), S (symmetric part) and companions.

    Pi0, R, the transport pieces and L_FD do not depend on gamma or epsilon
    and are shared read-only through the basis, the thermostat A at each
    epsilon through ``TRANSPORTS``, which keys friction-free values on A.
    Each call forms S and L.
    """
    _check_model_basis(basis, model)
    pi0 = assemble_pi0(basis)
    rev = assemble_reversal(basis)
    a = h = assemble_hamiltonian(basis)
    if model.model == "boltzmann_rhmc":
        s = assemble_boltzmann_collision(basis, model.gamma)
    elif not model.gamma * float(-np.min(assemble_fd(basis), initial=0.0)) < np.inf:
        raise ConfigError([f"friction gamma = {model.gamma!r} over mass = {model.mass!r} "
                           "overflows S = gamma L_FD, which reaches gamma d n_p / m"])
    else:
        s = model.gamma * assemble_fd(basis)
    if model.model == "adaptive_langevin":
        a = TRANSPORTS.derived(("thermostat", model.epsilon),
                               lambda: h + assemble_nosehoover(basis) / model.epsilon, h)
    return ModelOperators(model=model, basis=basis, A=a, S=s, pi0=pi0, reversal=rev)


# ---------------------------------------------------------------------------
# structural verification
# ---------------------------------------------------------------------------


def _max_abs(values) -> float:
    return float(np.max(np.abs(values))) if values.size else 0.0


@dataclass
class AssumptionReport:
    residuals: dict
    s_numeric: float
    s_analytic: float
    tol: float
    passed: bool

    def table(self) -> str:
        lines = [f"{'identity':<28}{'max residual':>14}"]
        for k, v in self.residuals.items():
            lines.append(f"{k:<28}{v:>14.3e}")
        lines.append(f"{'s (numeric)':<28}{self.s_numeric:>14.6e}")
        lines.append(f"{'s (analytic)':<28}{self.s_analytic:>14.6e}")
        lines.append(f"passed: {self.passed}")
        return "\n".join(lines)


#: identities whose residuals gate the `passed` flag for every model
_CORE_IDENTITIES = (
    "pi0_A_pi0", "S_pi0", "pi0_S", "R_squared", "R_S_R_minus_S", "R_A_R_plus_A",
    "A_antisymmetry", "S_symmetry", "pi0_projector",
)


def verify_structural_assumptions(ops: ModelOperators,
                                  tol: float = DEFAULT_TOL_IDENTITY) -> AssumptionReport:
    """Max-entry residuals of the algebraic structure the bounds rely on.

    Read entrywise off the diagonals S, Pi0, R and the stored entries a_ij of
    A, e.g. (R A R + A)_ij = R_i a_ij R_j + a_ij; a diagonal S is symmetric.

    The reversal fixes ker S pointwise for the Langevin and collision models;
    with the extended xi coordinate it only commutes with the projector (the
    xi-odd part of ker S changes sign), so that residual is reported
    separately and does not gate `passed` for the thermostated model.
    """
    A, S, P, R = ops.A, ops.S, ops.pi0, ops.reversal

    def transport_residuals():
        i, j, v = (a := A.tocoo()).row, a.col, a.data
        return _max_abs(P[i] * v * P[j]), _max_abs(R[i] * v * R[j] + v), _max_abs((A + A.T).data)
    pi0_a_pi0, r_a_r, antisymmetry = TRANSPORTS.derived("verify", transport_residuals, A, P, R)
    res = {
        "pi0_A_pi0": pi0_a_pi0,
        "S_pi0": _max_abs(S * P),
        "pi0_S": _max_abs(P * S),
        "R_squared": _max_abs(R * R - 1.0),
        "R_S_R_minus_S": _max_abs(R * S * R - S),
        "R_A_R_plus_A": r_a_r,
        "A_antisymmetry": antisymmetry,
        "S_symmetry": 0.0,
        "pi0_projector": _max_abs(P * P - P),
        "R_pi0_commutator": _max_abs(R * P - P * R),
        "R_pi0_identity": _max_abs(R * P - P),
    }
    s_numeric, s_analytic = float(np.min(-ops.Spp)), ops.model.s_analytic
    core = max(res[k] for k in _CORE_IDENTITIES)
    if ops.model.model != "adaptive_langevin":
        core = max(core, res["R_pi0_identity"])
    passed = core < tol and abs(s_numeric - s_analytic) < tol * max(s_analytic, 1.0)  # s ~ gamma/m
    return AssumptionReport(
        residuals=res,
        s_numeric=s_numeric,
        s_analytic=s_analytic,
        tol=tol,
        passed=passed,
    )
