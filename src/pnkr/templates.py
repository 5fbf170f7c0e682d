"""Synthetic stellar templates and the Doppler observation kernel.

The template library tabulates a deterministic synthetic spectrum
``S(lambda; z, t)`` on a log-uniform wavelength lattice that extends the
observed window far enough that every admissible line-of-sight velocity
keeps the rest-frame lookup inside the table.  The observation kernel is

    k(v, z, t, lambda) = S(lambda / (1 + v/c); z, t) / (1 + v/c)

with linear interpolation in ``ln lambda`` and bilinear interpolation in
``(z, t)``.  Kernel integrals against the population-kinematic basis are
computed axis by axis with the basis's panel rule: the ``(z, t)``
directions collapse onto the table nodes exactly once per basis function,
on panels cut at the table nodes, and the velocity panels are cut at
every point where the rest-frame lookup crosses a lattice node, so each
Gauss panel integrates a smooth function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_basis import (
    AxisGrid,
    DiscreteBasis,
    _axis_panels,
    _open_binary,
    _validated_nodes,
    _write_binary,
    eval_axis_basis,
)

__all__ = [
    "C_LIGHT",
    "TemplateGrid",
    "synth_continuum",
    "synth_ssp",
    "build_template_grid",
    "kernel_eval",
    "kernel_theta_integrals",
    "write_template_grid",
    "read_template_grid",
]

C_LIGHT = 299792.458
"""Speed of light in km/s."""

# absorption line list: center [nm], Gaussian width [nm], base depth
LINE_CENTERS = np.array([487.0, 495.5, 504.2, 516.7, 527.0, 538.0, 549.0, 560.1])
LINE_WIDTHS = np.array([0.6, 0.9, 0.7, 1.1, 0.8, 1.2, 0.9, 1.0])
LINE_DEPTHS = np.array([0.32, 0.18, 0.22, 0.38, 0.30, 0.16, 0.20, 0.24])

# reference metallicity bounds for the depth scaling; wider than any grid
Z_REF_LO = -3.2
Z_REF_HI = 0.8


def synth_continuum(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Smooth continuum ``(lam / 525)**alpha(t)`` with ``alpha`` rising in age.

    ``lam`` is in nm and ``t`` in Gyr; the arguments broadcast.
    """
    lam = np.asarray(lam, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("wavelengths must be positive")
    if np.any(t <= 0):
        raise ValueError("ages must be positive")
    alpha = -2.0 + 0.8 * np.log1p(t)
    return (lam / 525.0) ** alpha


def synth_ssp(lam: np.ndarray, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Deterministic synthetic spectrum of a single stellar population.

    The continuum is multiplied by ``1 - sum_i depth_i(z) * gauss_i(lam)``
    for a fixed list of absorption lines.  Depths scale affinely with
    metallicity between the reference bounds, so every equivalent width
    grows strictly monotonically with ``z``, and the spectrum stays
    strictly positive on the supported ranges.

    Parameters
    ----------
    lam, z, t : array-like
        Wavelength [nm], metallicity [dex], age [Gyr]; must broadcast.
    """
    lam = np.asarray(lam, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(z < Z_REF_LO) or np.any(z > Z_REF_HI):
        raise ValueError(
            f"metallicity outside the supported range [{Z_REF_LO}, {Z_REF_HI}]"
        )
    cont = synth_continuum(lam, t)
    scale = 0.15 + 0.85 * (z - Z_REF_LO) / (Z_REF_HI - Z_REF_LO)
    absorb = np.zeros(np.broadcast_shapes(lam.shape, z.shape))
    for center, width, depth in zip(LINE_CENTERS, LINE_WIDTHS, LINE_DEPTHS):
        absorb = absorb + depth * np.exp(-0.5 * ((lam - center) / width) ** 2)
    return cont * (1.0 - scale * absorb)


@dataclass(frozen=True, eq=False)
class TemplateGrid:
    """Tabulated template library on the extended wavelength lattice.

    Attributes
    ----------
    lambda_nodes : AxisGrid
        Extended log-uniform wavelength lattice (length ``R_ext``).
    z_nodes, t_nodes : ndarray
        Tabulation nodes of the population axes.
    S : ndarray, shape (R_ext, Z, T)
        Spectrum values on the lattice.
    lambda_obs_range : tuple of float
        The requested observed window ``(lambda_min, lambda_max)``.
    R : int
        Number of observed wavelength channels.
    obs_start : int
        Index of the first observed channel within the extended lattice.
    dln : float
        Log-wavelength step of the lattice.
    """

    lambda_nodes: AxisGrid
    z_nodes: np.ndarray
    t_nodes: np.ndarray
    S: np.ndarray
    lambda_obs_range: tuple[float, float]
    R: int
    obs_start: int
    dln: float

    @property
    def R_ext(self) -> int:
        return len(self.lambda_nodes.nodes)

    @property
    def lambda_obs(self) -> np.ndarray:
        """Observed wavelength channels (a slice of the extended lattice)."""
        return self.lambda_nodes.nodes[self.obs_start : self.obs_start + self.R]


def build_template_grid(
    lambda_min: float,
    lambda_max: float,
    count: int,
    v_max: float,
    z_nodes: np.ndarray,
    t_nodes: np.ndarray,
) -> TemplateGrid:
    """Tabulate the synthetic library over an extended wavelength lattice.

    ``count`` log-uniform channels span ``[lambda_min, lambda_max]``; the
    lattice is extended on both sides by whole steps until rest-frame
    lookups stay inside it for every ``|v| <= v_max``.
    """
    if count < 2:
        raise ValueError("need at least two wavelength channels")
    if not 0 < lambda_min < lambda_max < np.inf:
        raise ValueError("need 0 < lambda_min < lambda_max < inf")
    if not 0 <= v_max < C_LIGHT:
        raise ValueError("v_max must lie in [0, c)")
    z_nodes, t_nodes = _validated_nodes(z_nodes, "z"), _validated_nodes(t_nodes, "t")
    dln = np.log(lambda_max / lambda_min) / (count - 1)
    if v_max > 0:
        j_lo = int(np.ceil(np.log1p(v_max / C_LIGHT) / dln - 1e-12))
        j_hi = int(np.ceil(-np.log1p(-v_max / C_LIGHT) / dln - 1e-12))
    else:
        j_lo = j_hi = 0
    idx = np.arange(-j_lo, count + j_hi)
    lam_ext = _validated_nodes(lambda_min * np.exp(idx * dln), "lambda")
    S = synth_ssp(lam_ext[:, None, None], z_nodes[None, :, None], t_nodes[None, None, :])
    return TemplateGrid(
        lambda_nodes=AxisGrid(nodes=lam_ext),
        z_nodes=z_nodes,
        t_nodes=t_nodes,
        S=S,
        lambda_obs_range=(float(lambda_min), float(lambda_max)),
        R=int(count),
        obs_start=j_lo,
        dln=float(dln),
    )


def _interp_hats(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear interpolation hat values on ``nodes``; shape ``(len(x), len(nodes))``."""
    n = len(nodes)
    out = np.zeros((len(x), n))
    j = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, n - 2)
    w = (x - nodes[j]) / (nodes[j + 1] - nodes[j])
    rows = np.arange(len(x))
    out[rows, j] = 1.0 - w
    out[rows, j + 1] = w
    return out


def kernel_eval(
    template: TemplateGrid, v: float, z: float, t: float, lam: np.ndarray
) -> np.ndarray:
    """Evaluate the Doppler kernel at observed wavelengths.

    Raises
    ------
    ValueError
        If a rest-frame lookup leaves the extended lattice, or ``(z, t)``
        falls outside the tabulated rectangle.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    factor = 1.0 + v / C_LIGHT
    if factor <= 0:
        raise ValueError("velocity must exceed -c")
    lam_rest = lam / factor
    lext = template.lambda_nodes.nodes
    span = lext[-1] - lext[0]
    if np.any(lam_rest < lext[0] - 1e-9 * span) or np.any(lam_rest > lext[-1] + 1e-9 * span):
        raise ValueError("rest-frame wavelength outside the extended template lattice")
    zn, tn = template.z_nodes, template.t_nodes
    if not (zn[0] <= z <= zn[-1]) or not (tn[0] <= t <= tn[-1]):
        raise ValueError("(z, t) outside the tabulated template rectangle")
    wz = _interp_hats(zn, np.array([z]))[0]
    wt = _interp_hats(tn, np.array([t]))[0]
    spec = np.einsum("jbc,b,c->j", template.S, wz, wt, optimize=True)
    # fractional lattice index, linear in ln(lambda)
    c = (np.log(lam_rest) - np.log(lext[0])) / template.dln
    f = np.clip(np.floor(c).astype(int), 0, template.R_ext - 2)
    w = c - f
    return ((1.0 - w) * spec[f] + w * spec[f + 1]) / factor


def _overlap_weights(grid: AxisGrid, s: int, nodes: np.ndarray) -> np.ndarray:
    """Integrals of basis functions against the table interpolation hats.

    Shape ``(n_cells, len(nodes))``.  The panels are cut at every kink of
    either family, so each integrand is a quadratic on its panel and the
    Gauss rule integrates it exactly.
    """
    span = grid.hi - grid.lo
    if nodes[0] > grid.lo + 1e-9 * span or nodes[-1] < grid.hi - 1e-9 * span:
        raise ValueError("template table does not cover the basis axis range")
    x, w = (a.ravel() for a in _axis_panels(grid, s, nodes))
    return (eval_axis_basis(grid, s, x) * w[:, None]).T @ _interp_hats(nodes, x)


def kernel_theta_integrals(template: TemplateGrid, basis: DiscreteBasis) -> np.ndarray:
    """Integrate the kernel against every population-kinematic basis function.

    Returns the table ``Q`` of shape ``(L, R)``, in Fortran order, with

        Q[l, r] = int phi_l(v, z, t) k(v, z, t, lambda_r) dv dz dt.

    For ``s = 0`` each entry is the plain cell average of the kernel times
    the cell volume.  The computation factorizes: the ``(z, t)`` overlap
    integrals collapse the table once per basis index, and the velocity
    quadrature reuses one set of panels for all channels because the
    observed channels live on the same log-uniform lattice as the table.
    """
    gv, gz, gt = basis.theta_grids
    s = basis.s
    a_z = _overlap_weights(gz, s, template.z_nodes)
    a_t = _overlap_weights(gt, s, template.t_nodes)
    Sbar = np.ascontiguousarray(np.moveaxis(np.einsum("jbc,ib,kc->ikj", template.S, a_z, a_t, optimize=True), -1, 0))
    (R_ext, nz_c, nt_c), R = Sbar.shape, template.R
    # the rest-frame lookup of every channel crosses a lattice node where
    # ln(1 + v/c) is a whole multiple of dln
    dln = template.dln
    k = np.arange(np.ceil(np.log1p(gv.lo / C_LIGHT) / dln), np.floor(np.log1p(gv.hi / C_LIGHT) / dln) + 1)
    panels = []
    for xq, wq in zip(*_axis_panels(gv, s, C_LIGHT * np.expm1(k * dln))):
        phi = eval_axis_basis(gv, s, xq)
        cfrac = template.obs_start - np.log1p(xq / C_LIGHT) / dln
        f = int(np.floor(cfrac[len(cfrac) // 2]))
        if f < 0 or f + R > R_ext - 1:
            raise RuntimeError("extended lattice does not cover the velocity axis")
        wf, coef = np.clip(cfrac - f, 0.0, 1.0), wq / (1.0 + xq / C_LIGHT)
        panels.append((f, phi.T @ (coef * (1.0 - wf)), phi.T @ (coef * wf)))
    # each velocity cell sums its panels in order in a contiguous buffer, then fills its rows
    Q = np.empty((R, gv.n_cells, nz_c, nt_c))
    for i in range(gv.n_cells):
        cell = np.zeros((R, nz_c, nt_c))
        for f, A0, A1 in panels:
            if A0[i] != 0.0 or A1[i] != 0.0:
                cell += A0[i] * Sbar[f : f + R] + A1[i] * Sbar[f + 1 : f + 1 + R]
        Q[:, i] = cell
    return Q.reshape(R, basis.L).T


# -- binary template files ---------------------------------------------------


def write_template_grid(template: TemplateGrid, path) -> None:
    """Write a template library in the PNKT binary format (little-endian)."""
    header = (template.R_ext, len(template.z_nodes), len(template.t_nodes), template.R, template.obs_start)
    fields = (template.lambda_nodes.nodes, template.z_nodes, template.t_nodes, template.S)
    _write_binary(path, b"PNKT", "template", header, template.dln, template.lambda_obs_range, *fields)


def read_template_grid(path) -> TemplateGrid:
    """Read a PNKT template file written by :func:`write_template_grid`.

    Raises ``ValueError`` naming the template file for a wrong magic or
    version or a truncated file and, naming the field, when its lambda,
    z or t nodes are not finite and strictly increasing, ``dln`` is not
    positive and finite, or the observed channels overrun the extended
    lattice.
    """
    with _open_binary(path, b"PNKT", 5, "template") as ((r_ext, nz, nt, r_obs, obs_start), read):
        dln = float(read(1)[0])
        obs_range = read(2)
        lam_ext = read(r_ext)
        z_nodes = read(nz)
        t_nodes = read(nt)
        S = read(r_ext * nz * nt).reshape(r_ext, nz, nt)
    if not (np.isfinite(dln) and dln > 0.0):
        raise ValueError(f"template file dln={dln:g} must be positive and finite")
    if obs_start + r_obs > r_ext:
        raise ValueError(f"template file obs_start={obs_start} plus R={r_obs} exceeds R_ext={r_ext}")
    for name, nodes in (("lambda", lam_ext), ("z", z_nodes), ("t", t_nodes)):
        _validated_nodes(nodes, f"template file {name}")
    return TemplateGrid(
        lambda_nodes=AxisGrid(nodes=lam_ext),
        z_nodes=z_nodes,
        t_nodes=t_nodes,
        S=S,
        lambda_obs_range=(float(obs_range[0]), float(obs_range[1])),
        R=r_obs,
        obs_start=obs_start,
        dln=dln,
    )
