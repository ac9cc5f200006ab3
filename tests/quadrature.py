"""Grid quadrature of a basis: the reference the basis and operator tests
expand functions with.

The package builds every operator exactly, from the potential's Fourier
coefficients and the Hermite recurrences, and holds nothing on a grid.  This
helper integrates instead: a uniform position grid weighted by rho and a
Gauss-Hermite rule per Gaussian coordinate.  A test that compares the two
checks the assembly against calculus by an independent route.
"""

import functools
import math

import numpy as np

from hypoco.basis import fourier_value_table, gauss_hermite_rule, position_axis


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


class Quadrature:
    """Tensor quadrature of ``basis``.

    ``pos_axis`` holds the n_grid points per position axis, ``rho_grid`` and
    ``sqrt_rho`` the density of nu relative to the uniform measure on the
    flattened n_grid^d grid, ``phi`` the trigonometric family there, shape
    (n_grid^d, n_pos), and ``gh_p``, ``gh_xi`` the (nodes, probability
    weights) of the momentum and xi rules, 2n + 4 nodes each.
    """

    def __init__(self, basis):
        spec = basis.spec
        self.basis = basis
        self.pos_axis = position_axis(spec.n_q, basis.potential)
        self.n_grid = self.pos_axis.size
        vgrid = basis.potential.value_grid([self.pos_axis] * spec.d)
        boltz = np.exp(-spec.beta * (vgrid - vgrid.min()))
        self.rho_grid = (boltz / boltz.mean()).reshape(-1)
        self.sqrt_rho = np.sqrt(self.rho_grid)
        table = fourier_value_table(self.pos_axis, spec.n_q, spec.torus_length)
        self.phi = functools.reduce(np.kron, [table] * spec.d)
        self.gh_p = gauss_hermite_rule(2 * spec.n_p + 4, spec.mass / spec.beta)
        self.gh_xi = (gauss_hermite_rule(2 * spec.n_xi + 4, 1.0 / spec.beta)
                      if spec.has_xi else None)

    def points(self):
        """Flattened tensor quadrature nodes (q, p[, xi]) and mu-weights."""
        spec = self.basis.spec
        pos_mesh = np.meshgrid(*([self.pos_axis] * spec.d), indexing="ij")
        q = np.stack([m.reshape(-1) for m in pos_mesh], axis=-1)  # (Nq, d)
        wq = self.rho_grid / self.n_grid**spec.d

        yp, wp = self.gh_p
        p_mesh = np.meshgrid(*([yp] * spec.d), indexing="ij")
        p = np.stack([m.reshape(-1) for m in p_mesh], axis=-1)  # (Np, d)
        wp_full = np.ones(p.shape[0])
        for m in np.meshgrid(*([wp] * spec.d), indexing="ij"):
            wp_full *= m.reshape(-1)

        yx, wx = self.gh_xi if spec.has_xi else (np.zeros(1), np.ones(1))
        return (q, wq), (p, wp_full), (yx, wx)

    def expand(self, fn):
        """Quadrature expansion of a callable on the working basis.

        `fn(q, p, xi)` receives arrays of shape (M, d), (M, d), (M,) and
        must return shape (M,).  Returns (coefficients, residual) where the
        residual is the L2(mu) norm of the part of `fn` outside the working
        space (constants included).
        """
        basis = self.basis
        spec = basis.spec
        (q, wq), (p, wp), (yx, wx) = self.points()
        n_qpts, n_ppts, n_xpts = q.shape[0], p.shape[0], yx.shape[0]
        assert n_qpts * n_ppts * n_xpts <= 5_000_000, "expansion grid exceeds 5e6 points"

        qq = np.repeat(np.repeat(q, n_ppts, axis=0), n_xpts, axis=0)
        pp = np.tile(np.repeat(p, n_xpts, axis=0), (n_qpts, 1))
        xx = np.tile(yx, n_qpts * n_ppts)
        raw = np.asarray(fn(qq, pp, xx), dtype=float).reshape(n_qpts, n_ppts, n_xpts)
        norm2 = float(np.einsum("qpx,q,p,x->", raw**2, wq, wp, wx))

        # contract xi
        if spec.has_xi:
            table_x = hermite_value_table(yx / math.sqrt(basis.xi.variance), spec.n_xi)
            vals = np.einsum("qpx,nx,x->qpn", raw, table_x, wx)
        else:
            vals = raw[..., 0:1] * wx[0]
        # contract momentum coordinates one at a time
        yp, wp1 = self.gh_p
        table_p = hermite_value_table(yp / math.sqrt(basis.herm.variance), spec.n_p)
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
        h_vec = np.asarray(basis.U.T @ coeff)
        residual = math.sqrt(max(norm2 - float(h_vec @ h_vec), 0.0))
        return h_vec, residual


def expand_function(basis, fn):
    """``Quadrature(basis).expand(fn)``: coefficients and outside residual."""
    return Quadrature(basis).expand(fn)
