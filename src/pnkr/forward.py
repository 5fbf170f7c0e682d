"""Discrete forward operators for the block inverse problem.

One wavelength channel ``r`` contributes the moment-matching equation

    H_r u = w_r,    H_r = G (x) q_r^T,

where ``G`` is the spatial L2 Gram matrix, ``q_r`` is column ``r`` of the
kernel-integral table, and ``u`` stores the coefficient tensor ``U`` of
shape ``(N, L)`` position-major (``U[n, l] = u[n * L + l]`` with 0-based
``n``, ``l``; the population-kinematic index ``l`` is fastest).  That
layout is the single source of truth for every reshape in the package:
under it the reconstruction-space Gram factors as ``M = Psi (x) Phi`` and
every operator here reduces to small matrix products with ``U``; ``G``
is kept only as its axis factors, ``G = A_x1 (x) A_x2`` (:func:`apply_G`).

The data-space (noise) Gram is ``G`` itself, so residual norms in the
``N``-induced metric collapse to plain sample-space quadratic forms and
the per-equation update direction is the rank-one matrix

    M^-1 H_r^T N^-1 d = (Psi^-1 G d) (Phi^-1 q_r)^T

for a sample-space residual ``d``; no solve with ``G`` is ever needed.
Both factors are fixed products, ``Psi^-1 G`` (dense ``N x N``) and
``Phi^-1 Q`` (``L x R``), each computed once per system on first use by
fast diagonalization: ``Psi`` and ``Phi`` are sums of Kronecker products
of 1D axis factors, so one small generalized eigenproblem per axis
diagonalizes them, and applying an inverse takes one batched matrix
product per axis.  Neither is ever assembled; the sweeps take only dense
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.ndimage import convolve1d

from .grid_basis import DiscreteBasis, build_gram_matrices, gram_eigenbasis

__all__ = [
    "ForwardSystem",
    "SMOOTHING_TAPS",
    "build_forward_system",
    "apply_G",
    "apply_Hr",
    "apply_Hr_T",
    "apply_H_all",
    "synthesize_datacube",
    "sample_norm",
    "rho_estimate",
    "reduced_rho",
    "apply_Zs",
]


@dataclass(frozen=True, eq=False)
class ForwardSystem:
    """Assembled forward operator for one discretization and template table.

    The reconstruction-space Gram is ``M = Psi (x) Phi``; neither factor
    is stored.  ``Psi^-1 G`` and ``Phi^-1 Q`` are computed on first use
    from the per-axis eigenbases of :func:`~pnkr.grid_basis.gram_eigenbasis`
    and then kept, as are the reduced step's two factors, so a caller
    that only synthesizes data (``G`` and ``Q``) diagonalizes nothing.
    Every table is stored as the compiled sweep reads it: the ``N x N``
    spatial factors row-major, and the ``L x R`` ones, ``Q`` included,
    column-major, so each channel's column is contiguous.

    Attributes
    ----------
    basis : DiscreteBasis
    G_axes : tuple of ndarray
        Axis mass factors ``(A_x1, A_x2)`` of the spatial L2 Gram ``G = A_x1 (x) A_x2``, also the data-space Gram.
    Q : ndarray, (L, R), Fortran order
        Kernel integrals of every population-kinematic basis function
        against every observed wavelength channel.
    c_N : float
        Mean diagonal of ``G`` (the common cell volume for ``s = 0`` on
        uniform spatial grids).
    Psi_inv_G : ndarray, (N, N), C order
        ``Psi^-1 G``, the spatial factor of every equation's update
        direction; exactly the identity for ``s = 0`` or zero ``beta``.
    Phi_inv_Q : ndarray, (L, R), Fortran order
        ``Phi^-1 Q``; column ``r`` is the iterate-independent factor of
        equation ``r``'s update direction.
    q_Phi_q : ndarray, (R,)
        Quadratic forms ``q_r^T Phi^-1 q_r``.
    Zx_GG, ZTheta_Q : ndarray, (N, N), C order, and (L, R), Fortran order
        The reduced step's factors ``Z_x G G`` and ``Z_Theta Q``: ``G^2``
        and ``Q`` smoothed by :data:`SMOOTHING_TAPS` along the spatial and
        the ``(v, z, t)`` axes; ``ValueError`` for ``s != 0``.
    """

    basis: DiscreteBasis
    G_axes: tuple[np.ndarray, np.ndarray]
    Q: np.ndarray
    c_N: float

    @property
    def N(self) -> int:
        return self.basis.N

    @property
    def L(self) -> int:
        return self.basis.L

    @property
    def R(self) -> int:
        return self.Q.shape[1]

    @cached_property
    def Psi_inv_G(self) -> np.ndarray:
        # Psi^-1 = V (I + E)^-1 V^T and V V^T G = I, so Psi^-1 G = I - V E (I + E)^-1 V^T G,
        # which is exactly I when E is zero throughout (s = 0, or zero beta)
        V, E = gram_eigenbasis(self.basis.omega_grids, self.basis.beta, self.basis.s)
        return np.eye(self.N) - _eigen_apply(V, E / (1.0 + E), np.kron(*self.G_axes))

    @cached_property
    def Phi_inv_Q(self) -> np.ndarray:
        V, E = gram_eigenbasis(self.basis.theta_grids, self.basis.beta, self.basis.s)
        return np.asfortranarray(_eigen_apply(V, 1.0 / (1.0 + E), self.Q))

    @cached_property
    def q_Phi_q(self) -> np.ndarray:
        # summed over l in increasing order from a C-ordered product, whatever the layouts
        return np.multiply(self.Q, self.Phi_inv_Q, order="C").sum(axis=0)

    @cached_property
    def Zx_GG(self) -> np.ndarray:
        _check_piecewise_constant(self)
        GG = apply_G(self, apply_G(self, np.eye(self.N)))
        return apply_Zs(GG.reshape(*self.basis.shape5[:2], self.N), SMOOTHING_TAPS, 2).reshape(self.N, self.N)

    @cached_property
    def ZTheta_Q(self) -> np.ndarray:
        _check_piecewise_constant(self)
        ZQ = apply_Zs(self.Q.reshape(*self.basis.shape5[2:], self.R), SMOOTHING_TAPS, 3)
        return np.asfortranarray(ZQ.reshape(self.L, self.R))


def build_forward_system(basis: DiscreteBasis, Q: np.ndarray) -> ForwardSystem:
    """Assemble the basis's spatial Gram factors and kernel columns into a system.

    Parameters
    ----------
    basis : DiscreteBasis
    Q : ndarray
        Kernel integrals, shape ``(L, R)``, as returned by
        :func:`~pnkr.templates.kernel_theta_integrals`; kept in Fortran order.
    """
    Q = np.asfortranarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != basis.L:
        raise ValueError(f"kernel table has shape {Q.shape}, expected ({basis.L}, R)")
    if not np.all(np.isfinite(Q)):
        raise ValueError("kernel table contains non-finite entries")
    A1, A2 = build_gram_matrices(basis)
    return ForwardSystem(basis=basis, G_axes=(A1, A2), Q=Q, c_N=float(np.mean(np.kron(np.diag(A1), np.diag(A2)))))


def _eigen_apply(V: list[np.ndarray], scale: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``V diag(scale) V^T X`` for ``V = V_1 (x) ... (x) V_k``, never forming ``V``.

    The rows of ``X`` run over the lattice axis-major; each factor acts
    on its axis by one matrix product batched over the axes before it,
    so at most two ``X``-sized intermediates are alive at once.  The
    result is C-ordered.
    """
    transposed = [v.T for v in V]
    for mats in (transposed, V):
        pre = 1
        for v in mats:
            X = np.matmul(v, X.reshape(pre, v.shape[0], -1))
            pre *= v.shape[0]
        X = X.reshape(pre, -1)
        if mats is transposed:
            X *= scale[:, None]
    return X


def _as_coefficients(system: ForwardSystem, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (system.N * system.L,):
        raise ValueError(f"coefficient vector has shape {u.shape}, expected ({system.N * system.L},)")
    return u


def _check_piecewise_constant(system: ForwardSystem) -> None:
    if system.basis.s != 0:
        raise ValueError("the reduced variant runs on the piecewise-constant basis only (s=0)")


def _check_r(system: ForwardSystem, r: int) -> int:
    if isinstance(r, (bool, np.bool_)) or not (float(r).is_integer() and 1 <= r <= system.R):
        raise ValueError(f"wavelength index r={r} is not an integer in 1..{system.R}")
    return int(r)


def apply_G(system: ForwardSystem, d: np.ndarray) -> np.ndarray:
    """``G d`` along the leading axis of ``d``, of ``N`` entries: for a sample vector, or for each column of an ``(N, ...)`` array.

    A column reshaped to the ``n1 x n2`` site grid, ``X``, maps to
    ``A_x1 X A_x2`` (``A_x2`` is symmetric); every column goes through
    the same two batched products.
    """
    A1, A2 = system.G_axes
    d = np.asarray(d, dtype=float)
    X = d.reshape(len(A1), len(A2), -1)
    return np.matmul(A2, (A1 @ X.reshape(len(A1), -1)).reshape(X.shape)).reshape(d.shape)


def apply_Hr(system: ForwardSystem, u: np.ndarray, r: int) -> np.ndarray:
    """Moment vector of channel ``r``: ``G (U q_r)``.

    ``r`` is 1-based like the channel numbering in the data files.
    """
    r = _check_r(system, r)
    U = _as_coefficients(system, u).reshape(system.N, system.L)
    return apply_G(system, U @ system.Q[:, r - 1])


def apply_Hr_T(system: ForwardSystem, w: np.ndarray, r: int) -> np.ndarray:
    """Exact transpose of :func:`apply_Hr`: ``vec((G w) q_r^T)``."""
    r = _check_r(system, r)
    w = np.asarray(w, dtype=float)
    if w.shape != (system.N,):
        raise ValueError(f"moment vector has shape {w.shape}, expected ({system.N},)")
    return np.outer(apply_G(system, w), system.Q[:, r - 1]).reshape(-1)


def apply_H_all(system: ForwardSystem, u: np.ndarray) -> np.ndarray:
    """All R moment vectors at once, as columns of an ``(N, R)`` array."""
    U = _as_coefficients(system, u).reshape(system.N, system.L)
    return apply_G(system, U @ system.Q)


def synthesize_datacube(system: ForwardSystem, u: np.ndarray) -> np.ndarray:
    """Data-space samples of the modeled cube, shape ``(N, R)``.

    Samples live at the spatial sites, so converting the moment vectors
    ``G (U q_r)`` back to sample space cancels ``G`` and the cube is just
    ``U Q``.
    """
    U = _as_coefficients(system, u).reshape(system.N, system.L)
    return U @ system.Q


def sample_norm(system: ForwardSystem, d: np.ndarray) -> float | np.ndarray:
    """L2(Omega) norm of data-space sample vectors along the leading axis: ``sqrt(d^T G d)``.

    ``d`` has ``N`` rows; an ``(N, ...)`` array holds one sample vector
    per column and gives one norm per column, of shape ``d.shape[1:]``
    (a scalar for a single vector).
    """
    d = np.asarray(d, dtype=float)
    if d.shape[:1] != (system.N,):
        raise ValueError(f"sample vector has shape {d.shape}, expected leading dimension {system.N}")
    return np.sqrt(np.einsum("n...,n...->...", d, apply_G(system, d)))[()]


def rho_estimate(system: ForwardSystem, stacked: bool = False) -> float:
    """Largest eigenvalue of the preconditioned operator, in closed form.

    With ``stacked=False`` (the per-equation case that bounds Kaczmarz
    stepsizes) the operator ``M^-1 H_r^T N^-1 H_r`` factors as
    ``(Psi^-1 G) (x) (Phi^-1 q_r q_r^T)``; with ``stacked=True`` the full
    normal operator ``M^-1 sum_r H_r^T N^-1 H_r`` is
    ``(Psi^-1 G) (x) (Phi^-1 Q Q^T)``.  In the spatial eigenbasis of
    :func:`~pnkr.grid_basis.gram_eigenbasis`, ``Psi^-1 G = V (I + E)^-1 V^-1``
    has the eigenvalues ``1 / (1 + E)``; ``E >= 0``, and ``E = 0`` on
    constants, which lie in the spatial span, so
    ``lambda_max(Psi^-1 G) = 1`` exactly.  What remains is
    ``max_r q_r^T Phi^-1 q_r`` per equation, and ``lambda_max(Q^T Phi^-1 Q)``,
    a dense symmetric ``R x R`` eigenproblem, for the stack.  Stable
    stepsizes are ``omega < 2 / rho``.
    """
    if not stacked:
        return float(np.max(system.q_Phi_q))
    return float(np.linalg.eigvalsh(system.Q.T @ system.Phi_inv_Q)[-1])


# -- separable smoothing stencil ---------------------------------------------

# The reduced variant's stencil: these taps along every axis.  Symmetric,
# nonnegative and summing to 1, they make a local averaging that fixes
# constants under replicate edges, on axes of any length.
SMOOTHING_TAPS = (0.25, 0.5, 0.25)


def apply_Zs(arr: np.ndarray, taps, n_axes: int) -> np.ndarray:
    """Convolve the leading ``n_axes`` axes of ``arr`` with ``taps``.

    Trailing axes are batch axes.  Edges replicate (an axis of 1 or 2
    cells included), so every row of the stencil sums to the taps' sum;
    linear in ``arr``.
    """
    for i in range(n_axes):
        arr = convolve1d(arr, taps, axis=i, mode="nearest")
    return arr


def reduced_rho(system: ForwardSystem) -> float:
    """Largest eigenvalue of the reduced per-equation operator, in closed form.

    The reduced step of equation ``r`` applies
    ``c_N^-1 Z_s H_r^T H_r = c_N^-1 (Z_x G^2) (x) (Z_Theta q_r q_r^T)`` with
    ``Z_x`` and ``Z_Theta`` the stencil's spatial and ``(v, z, t)`` parts.
    The rank-one factor has the single nonzero eigenvalue
    ``q_r^T Z_Theta q_r``.  On the piecewise-constant basis ``G`` is
    diagonal and the stencil's rows sum to 1, so ``Z_x G^2`` has spectral
    radius ``(max_n G_nn)^2`` when the spatial cells are equal and at
    most that otherwise, and ``max_n G_nn`` is the product of the axis factors'
    largest diagonals.  The result is ``(max_n G_nn)^2 / c_N * max_r q_r^T Z_Theta q_r``.
    Raises ``ValueError`` for ``s != 0``.
    """
    g = float(np.diag(system.G_axes[0]).max() * np.diag(system.G_axes[1]).max())
    return g * g / system.c_N * float(np.max(np.multiply(system.Q, system.ZTheta_Q, order="C").sum(axis=0)))
