"""Tensor Fourier x Hermite spectral basis on a torus, orthonormal in L2(mu).

The reference measure is mu(dq dp) = nu(dq) kappa(dp) with nu the Gibbs
measure e^{-beta V(q)} dq / Z on a d-dimensional torus and kappa a centred
Gaussian with variance mass/beta per momentum coordinate.  An optional extra
scalar coordinate xi carries a centred Gaussian with variance 1/beta.

Position functions are handled in "flat" coordinates: the orthonormal family
used for the q-dependence is

    psi_k(q) = chi_k(q) / sqrt(rho(q)),

where chi_k are the real trigonometric functions {1, sqrt2 cos, sqrt2 sin}
(orthonormal for the uniform probability measure) and rho is the density of
nu relative to the uniform measure.  Dividing by sqrt(rho) makes the family
exactly orthonormal in L2(nu) and keeps all assembled matrix entries exact
integrals of trigonometric polynomials: for a band-limited potential they
are built exactly and sparse from its Fourier coefficients, with no
quadrature.  The one grid is the uniform one that the FFT of sqrt(rho)
samples, and the basis is refused where rho underflows to 0 on it.

The constant function is removed structurally: the coefficient vector of
sqrt(rho) in the trigonometric family is computed once and the basis is
rotated (one Householder reflection) so that its orthogonal complement spans
the working space.  Every represented function therefore has exactly zero
mean against mu, which keeps the generators invertible on the working space.
Coefficients at the FFT's rounding level (modes that vanish by symmetry) are
exact zeros, and the reflection is stored sparse: it is the identity wherever
sqrt(rho) has no component, so those modes couple to nothing else.
"""

from __future__ import annotations

import functools
import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericalFailure

TWO_PI = 2.0 * math.pi

#: default ceiling on the total basis dimension; the environment variable
#: HYPOCO_MAX_DIM overrides it.
DEFAULT_MAX_DIM = 50_000

#: default absolute tolerance on max-entry residuals of exact identities.
DEFAULT_TOL_IDENTITY = 1e-10

#: bases kept per process by :func:`build_basis`, least recently used dropped first
BASIS_CACHE_SIZE = 32


def max_dim_default() -> int:
    env = os.environ.get("HYPOCO_MAX_DIM")
    if env is None:
        return DEFAULT_MAX_DIM
    try:
        limit = int(env)
    except ValueError as exc:
        raise ConfigError([f"HYPOCO_MAX_DIM is not an integer: {env!r}"]) from exc
    if limit < 1:
        raise ConfigError([f"HYPOCO_MAX_DIM must be >= 1, got {limit}"])
    return limit


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------


class Potential:
    """Real band-limited potential V(q) = sum_k v_k exp(i w k.q) on the torus.

    Coefficients are stored for integer wavenumber multi-indices k with the
    reality constraint v_{-k} = conj(v_k); the missing half of a conjugate
    pair is filled in automatically; contradictory pairs and non-finite
    coefficients are rejected.
    """

    def __init__(self, coeffs, d, torus_length=TWO_PI):
        if d < 1:
            raise ConfigError(["potential dimension must be >= 1"])
        self.d = int(d)
        self.torus_length = float(torus_length)
        closed: dict[tuple, complex] = {}
        problems = []
        for k, v in coeffs.items():
            k = tuple(int(ki) for ki in (k if isinstance(k, (tuple, list)) else (k,)))
            if len(k) != self.d:
                problems.append(f"potential mode {k} has {len(k)} components, expected d={self.d}")
                continue
            if not np.isfinite(complex(v)):
                problems.append(f"potential coefficient at {k} must be finite, got {v!r}")
                continue
            closed[k] = closed.get(k, 0.0) + complex(v)
        for k in list(closed):
            mk = tuple(-ki for ki in k)
            if mk in closed:
                if abs(closed[mk] - np.conj(closed[k])) > 1e-12 * max(1.0, abs(closed[k])):
                    problems.append(
                        f"potential coefficients at {k} and {mk} are not complex conjugates"
                    )
            else:
                closed[mk] = complex(np.conj(closed[k]))
        zero = (0,) * self.d
        if zero in closed and abs(closed[zero].imag) > 1e-14 * max(1.0, abs(closed[zero])):
            problems.append("constant potential coefficient must be real")
        if problems:
            raise ConfigError(problems)
        # sorted modes fix the summation order of every assembled entry, so
        # one function, however its modes were listed, builds one basis
        self.coeffs = {k: v for k, v in sorted(closed.items()) if abs(v) > 0.0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d, torus_length=TWO_PI):
        return cls({}, d, torus_length)

    @classmethod
    def from_string(cls, text, d, torus_length=TWO_PI):
        """Parse 'k1 .. kd:re[,im]' entries separated by ';'.

        Example for d=1: "1:0.5,0" is v_1 = 1/2 (+ the implied v_{-1}),
        i.e. V(q) = cos q on the default torus.
        """
        text = text.strip()
        if not text or text == "0":
            return cls.zero(d, torus_length)
        coeffs: dict[tuple, complex] = {}
        problems = []
        for raw in text.split(";"):
            entry = raw.strip()
            if not entry:
                continue
            head, sep, tail = entry.partition(":")
            if not sep:
                problems.append(f"potential entry {entry!r} is missing ':'")
                continue
            try:
                k = tuple(int(t) for t in head.replace(",", " ").split())
            except ValueError:
                problems.append(f"potential entry {entry!r} has a non-integer wavenumber")
                continue
            if len(k) != d:
                problems.append(
                    f"potential entry {entry!r} has {len(k)} wavenumber components, expected {d}"
                )
                continue
            parts = tail.split(",")
            try:
                re_part = float(parts[0])
                im_part = float(parts[1]) if len(parts) > 1 else 0.0
                if len(parts) > 2:
                    raise ValueError
            except (ValueError, IndexError):
                problems.append(f"potential entry {entry!r} has a malformed coefficient")
                continue
            coeffs[k] = coeffs.get(k, 0.0) + complex(re_part, im_part)
        if problems:
            raise ConfigError(problems)
        return cls(coeffs, d, torus_length)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degrees(self) -> tuple:
        """Per-coordinate maximal |k_i| over the stored modes."""
        if not self.coeffs:
            return (0,) * self.d
        return tuple(max(abs(k[i]) for k in self.coeffs) for i in range(self.d))

    def _pos_reps(self):
        """One representative per conjugate pair (lexicographically positive)."""
        reps = []
        for k in self.coeffs:
            if k == (0,) * self.d:
                continue
            nz = next(ki for ki in k if ki != 0)
            if nz > 0:
                reps.append(k)
        return reps

    # -- evaluation on tensor grids ----------------------------------------

    def _phase(self, k, axes):
        """k.q on the tensor grid spanned by the 1-D arrays in `axes`."""
        w = TWO_PI / self.torus_length
        shape = [len(a) for a in axes]
        out = np.zeros(shape)
        for i, a in enumerate(axes):
            sl = [None] * self.d
            sl[i] = slice(None)
            out = out + (w * k[i]) * a[tuple(sl)]
        return out

    def deriv_coeffs(self, *axes) -> dict:
        """Fourier coefficients of the derivative of V along each index in ``axes``."""
        w = TWO_PI / self.torus_length
        out = {}
        for k, v in self.coeffs.items():
            c = v * math.prod(1j * w * k[i] for i in axes)
            if c != 0:
                out[k] = c
        return out

    def _grid(self, coeffs, axes):
        """Grid values of the real function sum_k c_k exp(i w k.q)."""
        out = np.zeros([len(a) for a in axes])
        for k, c in coeffs.items():
            if not any(k):
                out += c.real
            elif next(ki for ki in k if ki != 0) > 0:
                ph = self._phase(k, axes)
                out += 2.0 * (c.real * np.cos(ph) - c.imag * np.sin(ph))
        return out

    def value_grid(self, axes):
        return self._grid(self.coeffs, axes)

    def grad_grid(self, axes):
        """Gradient, shape (d, n1, ..., nd)."""
        return np.array([self._grid(self.deriv_coeffs(i), axes) for i in range(self.d)])

    def hessian_grid(self, axes):
        """Hessian, shape (d, d, n1, ..., nd)."""
        return np.array([[self._grid(self.deriv_coeffs(i, j), axes) for j in range(self.d)]
                         for i in range(self.d)])

    def to_string(self):
        parts = []
        zero = (0,) * self.d
        if zero in self.coeffs:
            parts.append(
                " ".join("0" for _ in range(self.d)) + f":{self.coeffs[zero].real!r},0"
            )
        for k in sorted(self._pos_reps()):
            v = self.coeffs[k]
            parts.append(" ".join(str(ki) for ki in k) + f":{v.real!r},{v.imag!r}")
        return ";".join(parts)

    def __repr__(self):
        return f"Potential(d={self.d}, coeffs={self.coeffs!r})"

    def _key(self):
        return self.d, self.torus_length, tuple(self.coeffs.items())

    def __eq__(self, other):
        return isinstance(other, Potential) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


# ---------------------------------------------------------------------------
# basis specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisSpec:
    """Cutoffs and physical parameters fixing the discrete space."""

    d: int
    n_q: int
    n_p: int
    beta: float = 1.0
    mass: float = 1.0
    torus_length: float = TWO_PI
    has_xi: bool = False
    n_xi: int = 0

    def __post_init__(self):
        problems = []
        if self.d < 1:
            problems.append("d must be >= 1")
        if self.n_q < 0 or self.n_p < 0:
            problems.append("n_q and n_p must be >= 0")
        if self.beta <= 0:
            problems.append("beta must be > 0")
        if self.mass <= 0:
            problems.append("mass must be > 0")
        if self.torus_length <= 0:
            problems.append("torus_length must be > 0")
        if self.has_xi and self.n_xi < 1:
            problems.append("n_xi must be >= 1 when the xi coordinate is enabled")
        if not self.has_xi and self.n_xi != 0:
            problems.append("n_xi must be 0 without the xi coordinate")
        if problems:
            raise ConfigError(problems)

    @property
    def n_pos_1d(self) -> int:
        return 2 * self.n_q + 1

    @property
    def n_pos(self) -> int:
        return self.n_pos_1d**self.d

    @property
    def n_herm(self) -> int:
        return (self.n_p + 1) ** self.d

    @property
    def n_xi_tot(self) -> int:
        return self.n_xi + 1 if self.has_xi else 1

    @property
    def dim_span(self) -> int:
        return self.n_pos * self.n_herm * self.n_xi_tot

    @property
    def dimension(self) -> int:
        """Dimension of the working (mean-zero) space."""
        return self.dim_span - 1


# ---------------------------------------------------------------------------
# 1-D building blocks
# ---------------------------------------------------------------------------


def gauss_hermite_rule(order, variance):
    """Nodes/probability-weights integrating exactly against N(0, variance)."""
    y, w = np.polynomial.hermite_e.hermegauss(order)
    return y * math.sqrt(variance), w / math.sqrt(TWO_PI)


@dataclass
class HermiteOps:
    """Matrices of the elementary one-coordinate Gaussian operators.

    All matrices act on coefficients in the orthonormal Hermite family for
    N(0, variance) truncated at degree n: `anti` is the exactly antisymmetric
    half-difference of d/dp and its weighted adjoint, `mult` multiplication
    by p and `mult2` multiplication by p^2.
    """

    variance: float
    n: int
    mult: np.ndarray = field(init=False)
    mult2: np.ndarray = field(init=False)
    anti: np.ndarray = field(init=False)

    def __post_init__(self):
        sigma = math.sqrt(self.variance)
        n1 = self.n + 1
        mult = np.zeros((n1, n1))
        lower = np.zeros((n1, n1))
        mult2 = np.zeros((n1, n1))
        for k in range(self.n):
            c = sigma * math.sqrt(k + 1)
            mult[k + 1, k] = c
            mult[k, k + 1] = c
            lower[k, k + 1] = math.sqrt(k + 1) / sigma
        for k in range(n1):
            mult2[k, k] = (2 * k + 1) * self.variance
            if k + 2 <= self.n:
                c = self.variance * math.sqrt((k + 1) * (k + 2))
                mult2[k + 2, k] = c
                mult2[k, k + 2] = c
        self.mult = mult
        self.mult2 = mult2
        self.anti = 0.5 * (lower - lower.T)


def fourier_deriv_1d(n_q, torus_length):
    """d/dq on the real family {1, sqrt2 cos(w k q), sqrt2 sin(w k q)}."""
    w = TWO_PI / torus_length
    n = 2 * n_q + 1
    D = np.zeros((n, n))
    for k in range(1, n_q + 1):
        c, s = 2 * k - 1, 2 * k
        D[s, c] = -w * k
        D[c, s] = w * k
    return D


def fourier_value_table(q, n_q, torus_length):
    """Values of the real trigonometric family at points q, shape (len(q), 2n_q+1)."""
    w = TWO_PI / torus_length
    q = np.asarray(q, dtype=float)
    out = np.zeros((q.size, 2 * n_q + 1))
    out[:, 0] = 1.0
    root2 = math.sqrt(2.0)
    for k in range(1, n_q + 1):
        out[:, 2 * k - 1] = root2 * np.cos(w * k * q)
        out[:, 2 * k] = root2 * np.sin(w * k * q)
    return out


def _trig_exp_table(n_q):
    """(E, s) with chi_a = s_a sum_k E[a, n_q + k] exp(i w k q) for k = -n_q..n_q.

    E holds only 0, 1 and +-i; s is 1 for the constant, 1/sqrt2 otherwise.
    """
    n = 2 * n_q + 1
    E = np.zeros((n, n), dtype=complex)
    E[0, n_q] = 1.0
    for k in range(1, n_q + 1):
        E[2 * k - 1, n_q + k] = E[2 * k - 1, n_q - k] = 1.0
        E[2 * k, n_q + k], E[2 * k, n_q - k] = -1j, 1j
    s = np.full(n, math.sqrt(0.5))
    s[0] = 1.0
    return E, s


def fourier_mult(coeffs, d, n_q) -> sp.csr_matrix:
    """Multiplication by f(q) = sum_m c_m exp(i w m.q) on the tensor trig family.

    ``coeffs`` must hold c_{-m} = conj(c_m), so that f is real.  Multiplying
    by exp(i w m_j q_j) shifts exponential index k to k + m_j, so each mode
    couples trig index k only to k +- m, and each entry of a mode's block is
    one exact product: structural zeros are exact zeros.
    """
    E, s = _trig_exp_table(n_q)
    n = E.shape[0]
    pair = np.outer(s, s)
    pair[1:, 1:] = 0.5
    out = sp.csr_matrix((n**d, n**d), dtype=complex)
    for m, c in coeffs.items():
        term = np.array([[c]])
        for mj in m:
            block = pair * (E.conj() @ np.eye(n, k=-mj) @ E.T)
            term = sp.kron(term, block, format="csr")
        out = out + term
    out = sp.csr_matrix(out.real)
    out.eliminate_zeros()
    return out


def position_deriv(i, d, n_q, torus_length) -> sp.csr_matrix:
    """Plain d/dq_i on the tensor trigonometric family."""
    out = sp.identity(1, format="csr")
    for j in range(d):
        factor = (sp.csr_matrix(fourier_deriv_1d(n_q, torus_length)) if j == i
                  else sp.identity(2 * n_q + 1, format="csr"))
        out = sp.kron(out, factor, format="csr")
    return out


def witten_deriv(potential: Potential, beta, n_q, i) -> sp.csr_matrix:
    """d/dq_i + (beta/2) dV/dq_i, the flat image of the nu-derivative."""
    d = potential.d
    return (position_deriv(i, d, n_q, potential.torus_length)
            + 0.5 * beta * fourier_mult(potential.deriv_coeffs(i), d, n_q))


def position_axis(n_q, potential: Potential) -> np.ndarray:
    """The uniform grid on each torus axis that samples sqrt(rho): exact for
    every product of trig polynomials of the basis and the potential, and fine
    enough to resolve exp(-beta V / 2) to machine precision for moderate
    potentials."""
    n_grid = max(4 * n_q + 4, 2 * (2 * n_q + max(potential.degrees)) + 2, 64)
    return np.arange(n_grid) * (potential.torus_length / n_grid)


def sqrt_rho_coeffs(potential: Potential, beta, n_q) -> np.ndarray:
    """Unit coefficients of sqrt(rho) in the tensor trigonometric family.

    The uniform-grid quadrature of chi_k sqrt(rho), taken from one FFT.  A
    coefficient at most eps times the largest is the transform's own rounding
    (a mode that vanishes by symmetry comes out near 1e-17) and is set to 0.
    """
    grid, d = position_axis(n_q, potential), potential.d
    v = potential.value_grid([grid] * d)
    hat = np.fft.fftn(np.exp(-0.5 * beta * (v - v.min())))
    idx = (-np.arange(-n_q, n_q + 1)) % grid.size
    c = hat[np.ix_(*([idx] * d))]
    E, s = _trig_exp_table(n_q)
    for axis in range(d):
        c = np.moveaxis(np.tensordot(s[:, None] * E, c, axes=(1, axis)), 0, axis)
    c = c.real.reshape(-1)
    c[np.abs(c) <= np.finfo(float).eps * np.max(np.abs(c))] = 0.0
    return c / np.linalg.norm(c)


def mean_zero_map(c) -> sp.csr_matrix:
    """Columns 1.. of the reflection H = 1 - 2 v v^T / v.v, v = c - e_0, which
    maps e_0 to the unit c: an orthonormal basis of the complement of c.

    H is the identity off the support of v, so only the support block of
    v v^T is formed, and each stored entry is the one a dense H would hold.
    When c is e_0 (to 1e-13) the map is the identity's columns 1..
    """
    n, v = c.size, c.copy()
    v[0] -= 1.0
    s = np.flatnonzero(v) if np.linalg.norm(v) >= 1e-13 else np.zeros(0, dtype=int)
    vvt = sp.csr_matrix(((2.0 * np.outer(v[s], v[s]) / (v @ v)).ravel(),
                         (np.repeat(s, s.size), np.tile(s, s.size))), shape=(n, n))
    return (sp.identity(n, format="csr") - vvt)[:, 1:]


def validated_potential(spec: BasisSpec, potential: Potential | None = None,
                        max_dim: int | None = None) -> Potential:
    """The potential (flat when None) after the checks every position problem
    shares: matching dimension and torus, and the dimension guard on spec."""
    if potential is None:
        potential = Potential.zero(spec.d, spec.torus_length)
    if potential.d != spec.d:
        raise ConfigError([f"potential dimension {potential.d} != basis dimension {spec.d}"])
    if abs(potential.torus_length - spec.torus_length) > 1e-12 * spec.torus_length:
        raise ConfigError(["potential and basis disagree on the torus length"])
    limit = max_dim if max_dim is not None else max_dim_default()
    if spec.dim_span > limit:
        raise NumericalFailure(
            f"problem too large: basis dimension {spec.dim_span} exceeds max_dim={limit}"
        )
    return potential


# ---------------------------------------------------------------------------
# assembled basis
# ---------------------------------------------------------------------------


class BasisSet:
    """Concrete discretisation: the Gaussian operators, the mean-zero map and
    the index maps, the only things the operators read.

    Attributes of note:

    ``U``
        sparse (dim_span x dimension) isometry whose columns are the working
        basis expressed in span coordinates; restricting an operator to the
        working space is ``U.T @ M @ U``.
    ``p_degree, xi_degree``
        integer arrays over working-space columns.

    The density exp(-beta (V - min V)) must be positive on the grid that
    samples sqrt(rho): where it underflows to 0, psi_k = chi_k / sqrt(rho) is
    not defined, and the basis is refused as a quadrature failure.
    """

    def __init__(self, spec: BasisSpec, potential: Potential | None = None,
                 max_dim: int | None = None):
        potential = validated_potential(spec, potential, max_dim)
        self.spec = spec
        self.potential = potential
        self._derived: dict = {}

        v = potential.value_grid([position_axis(spec.n_q, potential)] * spec.d)
        zeros = np.count_nonzero(~(np.exp(-spec.beta * (v - v.min())) > 0.0))  # NaN too
        if zeros:
            raise NumericalFailure(
                f"quadrature failure: the density exp(-beta (V - min V)) is 0 or NaN "
                f"at {zeros} of {v.size} grid points"
            )

        self.herm = HermiteOps(spec.mass / spec.beta, spec.n_p)
        self.xi = HermiteOps(1.0 / spec.beta, spec.n_xi) if spec.has_xi else None
        self._build_mean_zero_map()
        self._build_index_arrays()

    # -- geometry of the working space --------------------------------------

    def _build_mean_zero_map(self):
        spec = self.spec
        n_pos = spec.n_pos
        self.c_pos = sqrt_rho_coeffs(self.potential, spec.beta, spec.n_q)
        self.T = mean_zero_map(self.c_pos)

        inner = spec.n_herm * spec.n_xi_tot
        self.inner = inner
        dim_span = spec.dim_span
        block_rows = np.arange(n_pos) * inner  # span rows of (pos, 0, 0)
        keep = np.setdiff1d(np.arange(dim_span), block_rows)
        eye = sp.identity(dim_span, format="csr")
        self.U = sp.hstack([eye[:, block_rows] @ self.T, eye[:, keep]], format="csr")
        self._keep_span = keep

    def _build_index_arrays(self):
        spec = self.spec
        inner = self.inner
        dim_h = spec.dimension
        n_t = spec.n_pos - 1

        p_degree = np.zeros(dim_h, dtype=int)
        xi_degree = np.zeros(dim_h, dtype=int)
        # remaining columns: decode the span index they select
        rem = self._keep_span
        r = rem % inner
        nxi_tot = spec.n_xi_tot
        herm_part = r // nxi_tot
        xi_part = r % nxi_tot
        digits = np.zeros((spec.d, rem.size), dtype=int)
        h = herm_part.copy()
        for i in range(spec.d - 1, -1, -1):
            digits[i] = h % (spec.n_p + 1)
            h //= spec.n_p + 1
        p_degree[n_t:] = digits.sum(axis=0)
        xi_degree[n_t:] = xi_part
        self.p_degree = p_degree
        self.xi_degree = xi_degree

    # -- assembly helpers ----------------------------------------------------

    def derived(self, name, build):
        """``build(self)``, computed once per basis and handed out read-only."""
        if name not in self._derived:
            self._derived[name] = _read_only(build(self))
        return self._derived[name]

    def witten_deriv(self, i) -> sp.csr_matrix:
        """d/dq_i + (beta/2) dV/dq_i, the flat image of the nu-derivative."""
        return witten_deriv(self.potential, self.spec.beta, self.spec.n_q, i)

    def span_kron(self, pos_mat=None, herm_mats=None, xi_mat=None) -> sp.csr_matrix:
        """Kronecker assembly pos x p_1 x ... x p_d x xi on the full span."""
        spec = self.spec
        factors = []
        factors.append(sp.identity(spec.n_pos, format="csr") if pos_mat is None
                       else sp.csr_matrix(pos_mat))
        herm_mats = herm_mats or {}
        eye_h = sp.identity(spec.n_p + 1, format="csr")
        for i in range(spec.d):
            m = herm_mats.get(i)
            factors.append(eye_h if m is None else sp.csr_matrix(m))
        if spec.has_xi:
            factors.append(sp.identity(spec.n_xi + 1, format="csr") if xi_mat is None
                           else sp.csr_matrix(xi_mat))
        elif xi_mat is not None:
            raise ConfigError(["xi operator requested on a basis without xi"])
        out = factors[0]
        for f in factors[1:]:
            out = sp.kron(out, f, format="csr")
        return out

    def to_h(self, m_span) -> sp.csr_matrix:
        """Restrict a span operator to the mean-zero working space."""
        return sp.csr_matrix(self.U.T @ (sp.csr_matrix(m_span) @ self.U))

    @property
    def phi(self) -> np.ndarray:
        """The tensor trigonometric family on the uniform position grid,
        shape (n_grid^d, n_pos), built on each access and never stored.

        Nothing in the package reads it: it stays only for the benchmark's
        ``basis.phi_mb`` metric, and ROADMAP item 8 deletes both together.
        """
        spec = self.spec
        table = fourier_value_table(position_axis(spec.n_q, self.potential), spec.n_q,
                                    spec.torus_length)
        return functools.reduce(np.kron, [table] * spec.d)


def _read_only(value):
    """Clear the writeable flag of every array reachable from ``value``."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif sp.issparse(value):
        for part in (value.data, value.indices, value.indptr):
            part.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _read_only(item)
    elif isinstance(value, HermiteOps):
        _read_only(list(vars(value).values()))
    return value


_BASES: OrderedDict = OrderedDict()


def build_basis(spec: BasisSpec, potential: Potential | None = None,
                max_dim: int | None = None) -> BasisSet:
    """Validate, check the density, and build the mean-zero map and index maps.

    The basis is shared per process: one read-only :class:`BasisSet` per
    (spec, potential), at most BASIS_CACHE_SIZE of them.  The dimension guard
    runs on every call, and a refused basis is never kept.
    """
    potential = validated_potential(spec, potential, max_dim)
    key = (spec, potential)
    basis = _BASES.get(key)
    if basis is None:
        basis = BasisSet(spec, potential, max_dim=max_dim)
        _read_only(list(vars(basis).values()))
        _BASES[key] = basis
        if len(_BASES) > BASIS_CACHE_SIZE:
            _BASES.popitem(last=False)
    else:
        _BASES.move_to_end(key)
    return basis


def clear_basis_cache() -> None:
    """Drop every basis :func:`build_basis` keeps."""
    _BASES.clear()
