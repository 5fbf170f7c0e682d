"""Axis grids, tensor-product bases, and their Gram factors.

The reconstruction space is spanned by products ``psi_n(x1, x2) *
phi_l(v, z, t)``.  Both factors use the same per-axis construction:
piecewise-constant indicators on cells (``s = 0``) or continuous
piecewise-linear hats centered on cell midpoints (``s = 1``).  Hats at the
two ends of an axis continue with the constant value 1 across the strip
between the domain edge and the outermost midpoint, so the family sums to
one everywhere and interpolates nodal values at the midpoints.

A :class:`DiscreteBasis` carries the grids of both domains together with
the smoothness order ``s`` and the gradient-penalty weight ``beta``.
Every per-axis integral (mass factor, weights, first moments, and the
template overlaps and kernel table built on top of them) runs through
one panel rule: a Gauss-Legendre rule applied on each piece between the
basis breakpoints and any extra kinks of the integrand, which is exact
for these piecewise polynomials.  The gradient factor has a closed form.
The spatial L2 Gram ``G`` is the Kronecker product of the spatial mass
factors, and only those two factors are kept.  The beta-weighted
reconstruction-space factors ``Psi`` and ``Phi`` are never assembled:
:func:`gram_eigenbasis` diagonalizes them axis by axis.

The module also holds the file layer of every pipeline format: one
writer and one opener for the binary template, datacube and coefficient
files, and one reader for the bodies of the text tables.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg

__all__ = [
    "AxisGrid",
    "uniform_axis",
    "geometric_axis",
    "explicit_axis",
    "DiscreteBasis",
    "make_basis",
    "build_gram_matrices",
    "gram_eigenbasis",
    "eval_axis_basis",
    "axis_weights",
    "axis_first_moments",
    "basis_integral_weights",
]


@dataclass(frozen=True, eq=False)
class AxisGrid:
    """One coordinate axis, described by the ordered cell boundaries.

    Attributes
    ----------
    nodes : ndarray
        Strictly increasing cell boundaries, length ``n_cells + 1``.
    """

    nodes: np.ndarray

    @property
    def n_cells(self) -> int:
        return len(self.nodes) - 1

    @property
    def lo(self) -> float:
        return float(self.nodes[0])

    @property
    def hi(self) -> float:
        return float(self.nodes[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def centers(self) -> np.ndarray:
        """Cell midpoints; these are the sample sites of both bases."""
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])


def _validated_nodes(nodes: Sequence[float], name: str = "axis") -> np.ndarray:
    """``nodes`` as a float array; a ``ValueError`` naming ``name`` unless finite and strictly increasing."""
    arr = np.asarray(nodes, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{name} needs at least two nodes")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} nodes must be finite")
    if not np.all(np.diff(arr) > 0):
        raise ValueError(f"{name} nodes must be strictly increasing")
    return arr


def _check_window(lo: float, hi: float, count: int) -> None:
    if count < 2:
        raise ValueError("count must be at least 2")
    if not 0.0 < float(hi) - float(lo) < np.inf:
        raise ValueError(f"need lo < hi with a finite span, got lo={lo}, hi={hi}")


def uniform_axis(lo: float, hi: float, count: int) -> AxisGrid:
    """Axis with ``count`` equally spaced nodes from ``lo`` to ``hi``."""
    _check_window(lo, hi, count)
    return AxisGrid(nodes=_validated_nodes(np.linspace(lo, hi, count)))


def geometric_axis(lo: float, hi: float, count: int) -> AxisGrid:
    """Axis with ``count`` nodes in geometric progression; requires lo > 0."""
    _check_window(lo, hi, count)
    if lo <= 0:
        raise ValueError("geometric spacing needs lo > 0")
    return AxisGrid(nodes=_validated_nodes(np.geomspace(lo, hi, count)))


def explicit_axis(values: Sequence[float]) -> AxisGrid:
    """Axis from explicitly listed nodes."""
    return AxisGrid(nodes=_validated_nodes(values))


@dataclass(frozen=True, eq=False)
class DiscreteBasis:
    """Tensor-product discretization of the five coordinate axes.

    Attributes
    ----------
    s : int
        Smoothness order, 0 (cell indicators) or 1 (midpoint hats).
    omega_grids : tuple of AxisGrid
        Spatial axes ``(x1, x2)``.
    theta_grids : tuple of AxisGrid
        Population-kinematic axes ``(v, z, t)``.
    beta : float
        Gradient-penalty weight, the same on all five axes.  Only
        meaningful for ``s = 1``.
    """

    s: int
    omega_grids: tuple[AxisGrid, AxisGrid]
    theta_grids: tuple[AxisGrid, AxisGrid, AxisGrid]
    beta: float

    # the grids never change after construction; caching spares the hot loops the products
    @cached_property
    def N(self) -> int:
        g1, g2 = self.omega_grids
        return g1.n_cells * g2.n_cells

    @cached_property
    def L(self) -> int:
        gv, gz, gt = self.theta_grids
        return gv.n_cells * gz.n_cells * gt.n_cells

    @property
    def grids(self) -> tuple[AxisGrid, ...]:
        return self.omega_grids + self.theta_grids

    @property
    def shape5(self) -> tuple[int, int, int, int, int]:
        """Cell counts per axis; coefficient arrays reshape to this."""
        return tuple(g.n_cells for g in self.grids)  # type: ignore[return-value]


def make_basis(
    s: int,
    omega_grids: Sequence[AxisGrid],
    theta_grids: Sequence[AxisGrid],
    beta: float = 0.0,
) -> DiscreteBasis:
    """Validate and assemble a :class:`DiscreteBasis` whose one gradient-penalty weight ``beta`` holds on every axis."""
    if s not in (0, 1):
        raise ValueError("s must be 0 or 1")
    og = tuple(omega_grids)
    tg = tuple(theta_grids)
    if len(og) != 2 or len(tg) != 3:
        raise ValueError("expected two spatial and three kinematic axes")
    if np.ndim(beta) or not 0.0 <= beta < np.inf:
        raise ValueError(f"beta must be one finite, nonnegative weight for every axis, got beta={beta}")
    return DiscreteBasis(s=int(s), omega_grids=og, theta_grids=tg, beta=float(beta))


# -- per-axis machinery ------------------------------------------------------


def _breakpoints(grid: AxisGrid, s: int) -> np.ndarray:
    if s == 0:
        return grid.nodes
    return np.concatenate(([grid.lo], grid.centers, [grid.hi]))


# Gauss-Legendre nodes and weights on [-1, 1].  Three points are exact through
# degree 5: every Gram, overlap and first-moment integrand is at most quadratic
# on a panel, and the smooth Doppler factor of a velocity panel converges to
# rounding (an 8-point rule agrees to 1e-13).  Nodes are interior to each
# panel, so basis evaluation there never meets a breakpoint.
_GAUSS_RULE = np.polynomial.legendre.leggauss(3)


def _axis_panels(grid: AxisGrid, s: int, cuts=()) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights on the smooth pieces of an axis integrand.

    The panels run between the basis breakpoints and the extra ``cuts``
    (the kinks of whatever multiplies the basis), clipped to the axis.
    A cut within 1e-12 of the axis length of a breakpoint or of the cut
    before it is dropped, so every breakpoint, the axis ends included,
    is a panel end.
    Returns ``(x, w)``, both of shape ``(panels, points)``.
    """
    bp = _breakpoints(grid, s)
    tol = 1e-12 * (grid.hi - grid.lo)
    cuts = np.unique(np.clip(cuts, grid.lo, grid.hi))
    cuts = cuts[np.abs(cuts[:, None] - bp).min(axis=1) > tol]
    pts = np.union1d(bp, cuts[np.diff(cuts, prepend=-np.inf) > tol])
    x, w = _GAUSS_RULE
    a = pts[:-1, None]
    half = 0.5 * (pts[1:, None] - a)
    return a + half * (x + 1.0), half * w


def _axis_factors(grid: AxisGrid, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense 1D mass and gradient Gram factors ``(A, B)`` of one axis.

    Both are exact.  The mass integrand is quadratic on every panel; ``A``
    is averaged with its transpose so that it is symmetric bit for bit,
    as ``eigh`` reads one triangle only.  The hats are linear between
    neighbouring midpoints and flat on the end strips, so ``B`` is
    ``D^T diag(1 / diff(centers)) D`` with ``D`` the first difference;
    for ``s = 0`` the derivatives vanish and ``B`` is zero.
    """
    x, w = (a.ravel() for a in _axis_panels(grid, s))
    phi = eval_axis_basis(grid, s, x)
    A = (phi * w[:, None]).T @ phi
    A = 0.5 * (A + A.T)
    n = grid.n_cells
    if s == 0:
        return A, np.zeros((n, n))
    D = np.diff(np.eye(n), axis=0)
    return A, D.T @ (D / np.diff(grid.centers)[:, None])


def eval_axis_basis(grid: AxisGrid, s: int, x: np.ndarray) -> np.ndarray:
    """Values of all axis basis functions at ``x``; shape ``(len(x), n_cells)``.

    Points outside ``[lo, hi]`` give all-zero rows; both boundaries are
    included in the domain.
    """
    xarr = np.atleast_1d(np.asarray(x, dtype=float))
    n = grid.n_cells
    out = np.zeros((xarr.size, n))
    inside = (xarr >= grid.lo) & (xarr <= grid.hi)
    if s == 0:
        idx = np.clip(np.searchsorted(grid.nodes, xarr, side="right") - 1, 0, n - 1)
        out[inside, idx[inside]] = 1.0
        return out
    bp = _breakpoints(grid, 1)
    piece = np.clip(np.searchsorted(bp, xarr, side="right") - 1, 0, n)
    lo_strip = inside & (piece == 0)
    hi_strip = inside & (piece == n)
    out[lo_strip, 0] = 1.0
    out[hi_strip, n - 1] = 1.0
    mid = inside & ~lo_strip & ~hi_strip
    j = piece[mid]
    g = bp[j + 1] - bp[j]
    rise = (xarr[mid] - bp[j]) / g
    out[mid, j] = rise
    out[mid, j - 1] = 1.0 - rise
    return out


def axis_weights(grid: AxisGrid, s: int) -> np.ndarray:
    """Exact integrals of the axis basis functions."""
    x, w = (a.ravel() for a in _axis_panels(grid, s))
    return eval_axis_basis(grid, s, x).T @ w


def axis_first_moments(grid: AxisGrid, s: int) -> np.ndarray:
    """Exact integrals of ``x * basis_i(x)`` along one axis."""
    x, w = (a.ravel() for a in _axis_panels(grid, s))
    return eval_axis_basis(grid, s, x).T @ (w * x)


def basis_integral_weights(basis: DiscreteBasis) -> tuple[np.ndarray, np.ndarray]:
    """Integral weights ``(w_omega, w_theta)`` of the two factor bases.

    ``w_omega`` has length ``N`` and ``w_theta`` length ``L``; the integral
    of the expansion with coefficients ``u`` is ``(w_omega x w_theta) . u``.
    """
    wo = [axis_weights(g, basis.s) for g in basis.omega_grids]
    wt = [axis_weights(g, basis.s) for g in basis.theta_grids]
    w_omega = np.kron(wo[0], wo[1])
    w_theta = np.kron(np.kron(wt[0], wt[1]), wt[2])
    return w_omega, w_theta


# -- Gram matrices -----------------------------------------------------------


def build_gram_matrices(basis: DiscreteBasis) -> tuple[np.ndarray, np.ndarray]:
    """The dense axis mass factors ``(A_x1, A_x2)`` of the spatial L2 Gram ``G = A_x1 (x) A_x2``.

    ``G`` is also the data-space Gram matrix; :func:`~pnkr.forward.apply_G`
    applies it factor by factor.  On uniform spatial grids with ``s = 0``
    both factors are diagonal and ``G`` is the common cell volume times
    the identity.
    """
    return tuple(_axis_factors(g, basis.s)[0] for g in basis.omega_grids)


def gram_eigenbasis(
    grids: Sequence[AxisGrid], beta: float, s: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Fast diagonalization of one factor of the reconstruction-space Gram.

    The factor over ``grids`` (``Psi`` over the spatial axes, ``Phi`` over
    ``(v, z, t)``) is ``A_1 (x) ... (x) A_k`` plus, for each axis ``j``,
    ``beta`` times the same product with ``A_j`` replaced by ``B_j``.
    Per axis, ``eigh(B_j, A_j)`` gives ``V_j`` with ``V_j^T A_j V_j = I``
    and ``V_j^T B_j V_j = diag(lambda_j)``, so with
    ``V = V_1 (x) ... (x) V_k`` the factor is ``V^-T (I + E) V^-1`` and
    its inverse ``V (I + E)^-1 V^T``, where
    ``E = beta lambda_1 (+) ... (+) beta lambda_k`` is flat in the
    same axis-major order (Lynch, Rice & Thomas 1964).  ``E >= 0`` since
    every ``B_j`` is positive semidefinite, and ``E`` is zero on constants,
    whose gradient vanishes; for ``s = 0`` every ``B_j`` is zero and so is ``E``.

    Returns ``([V_1, ..., V_k], E)``.
    """
    V, E = [], np.zeros(())
    for g in grids:
        A, B = _axis_factors(g, s)
        lam, vecs = scipy.linalg.eigh(B, A)
        V.append(vecs)
        E = np.add.outer(E, beta * lam)
    return V, E.reshape(-1)


# -- file helpers ------------------------------------------------------------

_FILE_VERSION = 1


def _write_binary(path, magic: bytes, kind: str, header, *fields) -> None:
    """Write a binary ``kind`` file: the 4-byte ``magic``, the version and ``header`` as ``<u4`` words, then ``fields``.

    Each field is written in C order as ``<f8``, or as ``<u8`` when it is
    an unsigned integer array.  Every conversion runs before the file is
    opened, so a value that does not fit leaves no file behind; a header
    word outside ``[0, 2**32)`` fails with a ``ValueError`` naming ``kind``.
    """
    for word in header:
        if not 0 <= word < 2**32:
            raise ValueError(f"{kind} file header word {word} is outside the <u4 range [0, 2**32)")
    words = np.array([_FILE_VERSION, *header], dtype="<u4")
    arrays = [np.ascontiguousarray(f, dtype="<u8" if np.asarray(f).dtype.kind == "u" else "<f8") for f in fields]
    with open(path, "wb") as fh:
        fh.write(magic)
        for array in (words, *arrays):
            array.tofile(fh)


@contextmanager
def _open_binary(path, magic: bytes, words: int, kind: str):
    """Open a binary ``kind`` file written by :func:`_write_binary`; yields ``(header, read)``.

    Checks the magic and the version and reads the ``words`` header words
    after the version, as ints.  ``read(count, dtype="<f8")`` returns the
    next ``count`` items.  A wrong magic or version, or a file cut
    anywhere, header included, fails with a ``ValueError`` naming ``kind``.
    """
    with open(path, "rb") as fh:

        def read(count: int, dtype: str = "<f8") -> np.ndarray:
            arr = np.fromfile(fh, dtype=dtype, count=count)
            if arr.size != count:
                raise ValueError(f"{kind} file truncated")
            return arr

        found = fh.read(len(magic))
        if found != magic:
            raise ValueError(f"not a {kind} file: bad magic {found!r}")
        version, *header = (int(x) for x in read(words + 1, "<u4"))
        if version != _FILE_VERSION:
            raise ValueError(f"unsupported {kind} file version {version}")
        yield header, read


def _numbers(kind: str, number: int, cells, convert=float) -> list:
    """``cells`` converted, or a ``ValueError`` naming the ``kind`` of table, the line ``number`` and the cell."""
    try:
        return [convert(cell) for cell in cells]
    except ValueError as exc:
        raise ValueError(f"{kind} line {number}: {exc}") from None


def _numeric_rows(fh, kind: str, width: int, first_line: int, sep: str | None = None) -> np.ndarray:
    """The remaining nonblank lines of ``fh`` as a ``(rows, width)`` float array.

    A row with another field count or a cell that is not a number, or an
    empty body, fails with an error naming the ``kind`` of table and the
    1-based line number (``first_line`` is the number of the next line of
    ``fh``).
    """
    rows = []
    for number, line in enumerate(fh, start=first_line):
        if not line.strip():
            continue
        cells = line.strip().split(sep)
        if len(cells) != width:
            raise ValueError(f"{kind} line {number}: expected {width} fields, found {len(cells)}")
        rows.append(_numbers(kind, number, cells))
    if not rows:
        raise ValueError(f"{kind} is empty")
    return np.array(rows)
