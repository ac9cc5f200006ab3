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
integrals of trigonometric polynomials, so a modest uniform quadrature grid
is exact for band-limited potentials.

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
        return int(env)
    except ValueError as exc:
        raise ConfigError([f"HYPOCO_MAX_DIM is not an integer: {env!r}"]) from exc


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


def hermite_value_table(y, n_max):
    """Orthonormal Hermite values h_0..h_{n_max} at standardised points y.

    h_n is the degree-n polynomial family orthonormal for the standard
    Gaussian; the stable three-term recurrence is used.
    """
    y = np.asarray(y, dtype=float)
    table = np.zeros((n_max + 1,) + y.shape)
    table[0] = 1.0
    if n_max >= 1:
        table[1] = y
    for n in range(1, n_max):
        table[n + 1] = (y * table[n] - math.sqrt(n) * table[n - 1]) / math.sqrt(n + 1)
    return table


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


def position_grid_size(n_q, potential: Potential) -> int:
    """Uniform grid points per axis: exact for every assembled trig-polynomial
    entry and fine enough to resolve exp(-beta V / 2) to machine precision
    for moderate potentials."""
    return max(4 * n_q + 4, 2 * (2 * n_q + max(potential.degrees)) + 2, 64)


def sqrt_rho_coeffs(potential: Potential, beta, n_q) -> np.ndarray:
    """Unit coefficients of sqrt(rho) in the tensor trigonometric family.

    The grid quadrature phi.T @ sqrt(rho) / N^d, taken from one FFT.  A
    coefficient at most eps times the largest is the transform's own rounding
    (a mode that vanishes by symmetry comes out near 1e-17) and is set to 0.
    """
    n_grid, d = position_grid_size(n_q, potential), potential.d
    axes = [np.arange(n_grid) * (potential.torus_length / n_grid)] * d
    v = potential.value_grid(axes)
    hat = np.fft.fftn(np.exp(-0.5 * beta * (v - v.min())))
    idx = (-np.arange(-n_q, n_q + 1)) % n_grid
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
    """Concrete discretisation: quadratures, index maps and the mean-zero map.

    Attributes of note:

    ``U``
        sparse (dim_span x dimension) isometry whose columns are the working
        basis expressed in span coordinates; restricting an operator to the
        working space is ``U.T @ M @ U``.
    ``p_degree, xi_degree``
        integer arrays over working-space columns.
    """

    def __init__(self, spec: BasisSpec, potential: Potential | None = None,
                 tol_identity: float = DEFAULT_TOL_IDENTITY, max_dim: int | None = None):
        potential = validated_potential(spec, potential, max_dim)
        self.spec = spec
        self.potential = potential
        self.tol_identity = tol_identity
        self._derived: dict = {}

        d, n_q = spec.d, spec.n_q
        self.n_grid = position_grid_size(n_q, potential)
        self.pos_axis = np.arange(self.n_grid) * (spec.torus_length / self.n_grid)
        axes = [self.pos_axis] * d

        vgrid = potential.value_grid(axes)
        boltz = np.exp(-spec.beta * (vgrid - vgrid.min()))
        self.rho_grid = (boltz / boltz.mean()).reshape(-1)
        self.sqrt_rho = np.sqrt(self.rho_grid)

        # position basis values on the tensor grid
        table1d = fourier_value_table(self.pos_axis, n_q, spec.torus_length)
        phi = table1d
        for _ in range(1, d):
            phi = np.einsum("ga,hb->ghab", phi.reshape(phi.shape[0], -1), table1d)
            phi = phi.reshape(phi.shape[0] * table1d.shape[0], -1)
        self.phi = phi  # (n_grid^d, n_pos)

        # momentum and xi blocks
        self.herm = HermiteOps(spec.mass / spec.beta, spec.n_p)
        self.gh_p = gauss_hermite_rule(2 * spec.n_p + 4, spec.mass / spec.beta)
        if spec.has_xi:
            self.xi = HermiteOps(1.0 / spec.beta, spec.n_xi)
            self.gh_xi = gauss_hermite_rule(2 * spec.n_xi + 4, 1.0 / spec.beta)
        else:
            self.xi = None
            self.gh_xi = None

        self._build_mean_zero_map()
        self._build_index_arrays()
        self.gram_residual = self._gram_residual()
        if not self.gram_residual <= tol_identity:  # NaN fails too
            raise NumericalFailure(
                f"quadrature failure: Gram residual {self.gram_residual:.3e} "
                f"exceeds {tol_identity:.1e}"
            )

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

    # -- quadrature ----------------------------------------------------------

    def _gram_residual(self) -> float:
        spec = self.spec
        # position factor: weighted basis against the measured density
        psiw = self.phi / self.sqrt_rho[:, None]
        g_pos = psiw.T @ (self.rho_grid[:, None] * psiw) / self.n_grid**spec.d
        res = float(np.max(np.abs(g_pos - np.eye(spec.n_pos))))
        # momentum factor (one coordinate; all coordinates share the rule)
        y, w = self.gh_p
        table = hermite_value_table(y / math.sqrt(self.herm.variance), spec.n_p)
        g_h = np.einsum("ng,g,mg->nm", table, w, table)
        res = max(res, float(np.max(np.abs(g_h - np.eye(spec.n_p + 1)))))
        if spec.has_xi:
            y, w = self.gh_xi
            table = hermite_value_table(y / math.sqrt(self.xi.variance), spec.n_xi)
            g_x = np.einsum("ng,g,mg->nm", table, w, table)
            res = max(res, float(np.max(np.abs(g_x - np.eye(spec.n_xi + 1)))))
        return res

    def quadrature_points(self):
        """Flattened tensor quadrature nodes (q, p[, xi]) and mu-weights."""
        spec = self.spec
        pos_mesh = np.meshgrid(*([self.pos_axis] * spec.d), indexing="ij")
        q = np.stack([m.reshape(-1) for m in pos_mesh], axis=-1)  # (Nq, d)
        wq = self.rho_grid / self.n_grid**spec.d

        yp, wp = self.gh_p
        p_mesh = np.meshgrid(*([yp] * spec.d), indexing="ij")
        p = np.stack([m.reshape(-1) for m in p_mesh], axis=-1)  # (Np, d)
        wp_full = np.ones(p.shape[0])
        for i, m in enumerate(np.meshgrid(*([wp] * spec.d), indexing="ij")):
            wp_full *= m.reshape(-1)

        if spec.has_xi:
            yx, wx = self.gh_xi
        else:
            yx, wx = np.zeros(1), np.ones(1)
        return (q, wq), (p, wp_full), (yx, wx)

    def expand_function(self, fn):
        """Quadrature expansion of a callable on the working basis.

        `fn(q, p, xi)` receives arrays of shape (M, d), (M, d), (M,) and
        must return shape (M,).  Returns (coefficients, residual) where the
        residual is the L2(mu) norm of the part of `fn` outside the working
        space (constants included).
        """
        spec = self.spec
        (q, wq), (p, wp), (yx, wx) = self.quadrature_points()
        n_qpts, n_ppts, n_xpts = q.shape[0], p.shape[0], yx.shape[0]
        if n_qpts * n_ppts * n_xpts > 5_000_000:
            raise NumericalFailure("problem too large: expansion grid exceeds 5e6 points")

        qq = np.repeat(np.repeat(q, n_ppts, axis=0), n_xpts, axis=0)
        pp = np.tile(np.repeat(p, n_xpts, axis=0), (n_qpts, 1))
        xx = np.tile(yx, n_qpts * n_ppts)
        raw = np.asarray(fn(qq, pp, xx), dtype=float).reshape(n_qpts, n_ppts, n_xpts)
        norm2 = float(np.einsum("qpx,q,p,x->", raw**2, wq, wp, wx))

        # contract xi
        if spec.has_xi:
            table_x = hermite_value_table(yx / math.sqrt(self.xi.variance), spec.n_xi)
            vals = np.einsum("qpx,nx,x->qpn", raw, table_x, wx)
        else:
            vals = raw[..., 0:1] * wx[0]
        # contract momentum coordinates one at a time
        yp, wp1 = self.gh_p
        table_p = hermite_value_table(yp / math.sqrt(self.herm.variance), spec.n_p)
        n_gh = yp.size
        vals = vals.reshape((n_qpts,) + (n_gh,) * spec.d + (vals.shape[-1],))
        for _ in range(spec.d):
            # tensordot appends the new Hermite axis at the end; the next
            # momentum grid axis slides back to position 1.
            vals = np.tensordot(vals, table_p * wp1[None, :], axes=([1], [1]))
        # axes now: (q, xi_or_1, n_1, ..., n_d) -> reorder to (q, n..., xi)
        vals = np.moveaxis(vals, 1, -1)
        # psi_j = chi_j / sqrt(rho) and the nu-weight is rho / N^d, so the
        # position contraction carries chi_j sqrt(rho) / N^d.
        coeff = np.tensordot(self.phi * self.sqrt_rho[:, None], vals, axes=([0], [0]))
        coeff /= self.n_grid**spec.d
        coeff = coeff.reshape(-1)
        h_vec = np.asarray(self.U.T @ coeff)
        residual = math.sqrt(max(norm2 - float(h_vec @ h_vec), 0.0))
        return h_vec, residual


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
                tol_identity: float = DEFAULT_TOL_IDENTITY,
                max_dim: int | None = None) -> BasisSet:
    """Validate, build quadratures and index maps, and check orthonormality.

    The basis is shared per process: one read-only :class:`BasisSet` per
    (spec, potential, tol_identity), at most BASIS_CACHE_SIZE of them.  The
    dimension guard runs on every call, and a basis failing its Gram check
    is never kept.
    """
    potential = validated_potential(spec, potential, max_dim)
    key = (spec, potential, tol_identity)
    basis = _BASES.get(key)
    if basis is None:
        basis = BasisSet(spec, potential, tol_identity=tol_identity, max_dim=max_dim)
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
