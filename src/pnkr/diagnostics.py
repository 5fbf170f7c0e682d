"""Moment maps, marginal distributions, and velocity-distribution statistics.

The reconstruction lives as coefficients of an interpolatory basis, so
every marginal of the expansion is an exact contraction of the
coefficient array with per-axis integral weights; nothing here needs a
quadrature loop except the template light integral.  Velocity
distributions are summarized by Gauss-Hermite expansions in the
astronomy convention

    g(v) = gamma exp(-w^2/2) [1 + sum_{k>=3} h_k H_k(w)],  w = (v - mu)/sigma,

with H_k the physicists' Hermite polynomial divided by sqrt(2^k k!).
Conventions differ between codes; coefficient values are only comparable
within this one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite as _hermite
from scipy.ndimage import label as _connected_label
from scipy.optimize import least_squares

from .grid_basis import (
    DiscreteBasis,
    axis_first_moments,
    axis_weights,
    basis_integral_weights,
    eval_axis_basis,
)
from .templates import TemplateGrid, _overlap_weights

__all__ = [
    "Marginals",
    "LOSVDSample",
    "GaussHermiteFit",
    "MomentMaps",
    "marginals",
    "density_mask",
    "mean_maps",
    "light_integrals",
    "light_weighted_losvd",
    "normalized_hermite",
    "gauss_hermite_fit",
    "moment_maps",
    "default_losvd_positions",
    "h5_feature_regions",
    "h5_sign_match",
    "losvd_recovery_error",
    "export_maps",
    "read_maps",
    "read_losvd",
]

MAPS_TABLE_NAME = "moment_maps.csv"
_MAPS_COLUMNS = ("x1", "x2", "mu_t", "mu_z", "mu_v", "sigma_v", "h3", "h4", "h5", "mask")


# -- marginal distributions ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class Marginals:
    """Mass and spatial marginals of a coefficient vector.

    ``p_x`` holds site values of the spatial density p(x) on the
    ``(n1, n2)`` site grid; ``p_xz`` and ``p_xt`` append the metallicity
    and age site axes.  All three are normalized by ``M_total`` so the
    spatial integral of p(x) is one; a zero-mass input leaves them zero.
    """

    M_total: float
    p_x: np.ndarray
    p_xz: np.ndarray
    p_xt: np.ndarray
    basis: DiscreteBasis


def _coefficient_array(u: np.ndarray, basis: DiscreteBasis) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (basis.N * basis.L,):
        raise ValueError(f"coefficient vector has shape {u.shape}, expected ({basis.N * basis.L},)")
    if not np.all(np.isfinite(u)):
        raise ValueError("coefficient vector contains non-finite entries")
    if np.any(u < 0.0):
        raise ValueError("coefficient vector must be nonnegative")
    return u.reshape(basis.shape5)


def marginals(u: np.ndarray, basis: DiscreteBasis) -> Marginals:
    """Total mass and the spatial marginals p(x), p(x, z), p(x, t).

    Because the basis interpolates at the site grid, the returned arrays
    are simultaneously expansion coefficients and point values at the
    sites, and all integrals below are exact.
    """
    W = _coefficient_array(u, basis)
    s = basis.s
    wv = axis_weights(basis.theta_grids[0], s)
    wz = axis_weights(basis.theta_grids[1], s)
    wt = axis_weights(basis.theta_grids[2], s)
    w_omega, w_theta = basis_integral_weights(basis)
    M_total = float(np.einsum("nl,n,l->", u.reshape(basis.N, basis.L), w_omega, w_theta))
    p_x = np.einsum("ijabc,a,b,c->ij", W, wv, wz, wt, optimize=True)
    p_xz = np.einsum("ijabc,a,c->ijb", W, wv, wt, optimize=True)
    p_xt = np.einsum("ijabc,a,b->ijc", W, wv, wz, optimize=True)
    if M_total > 0.0:
        p_x = p_x / M_total
        p_xz = p_xz / M_total
        p_xt = p_xt / M_total
    return Marginals(M_total=M_total, p_x=p_x, p_xz=p_xz, p_xt=p_xt, basis=basis)


def density_mask(marg: Marginals, floor: float = 1e-6) -> np.ndarray:
    """Sites where the spatial density clears ``floor`` times its peak."""
    peak = float(marg.p_x.max()) if marg.p_x.size else 0.0
    if peak <= 0.0:
        return np.zeros_like(marg.p_x, dtype=bool)
    return marg.p_x > floor * peak


def mean_maps(marg: Marginals, floor: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Mean metallicity and age maps; NaN where the density is floored."""
    basis = marg.basis
    mz = axis_first_moments(basis.theta_grids[1], basis.s)
    mt = axis_first_moments(basis.theta_grids[2], basis.s)
    num_z = np.einsum("ijb,b->ij", marg.p_xz, mz, optimize=True)
    num_t = np.einsum("ijc,c->ij", marg.p_xt, mt, optimize=True)
    mask = density_mask(marg, floor)
    mu_z = np.full(marg.p_x.shape, np.nan)
    mu_t = np.full(marg.p_x.shape, np.nan)
    np.divide(num_z, marg.p_x, out=mu_z, where=mask)
    np.divide(num_t, marg.p_x, out=mu_t, where=mask)
    return mu_z, mu_t


# -- velocity distributions ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class LOSVDSample:
    """A velocity distribution conditioned on a spatial position.

    ``p`` holds values on the velocity site grid ``v`` with trapezoid
    normalization; ``masked`` marks positions with no light, whose
    values are zero.
    """

    x: tuple[float, float]
    v: np.ndarray
    p: np.ndarray
    masked: bool = False


def light_integrals(template: TemplateGrid) -> np.ndarray:
    """Trapezoid integral of each template over the observed window; (Z, T)."""
    lam = template.lambda_obs
    S_obs = template.S[template.obs_start : template.obs_start + template.R]
    return np.trapezoid(S_obs, x=lam, axis=0)


def _light_kernel(basis: DiscreteBasis, template: TemplateGrid) -> np.ndarray:
    """(z, t) basis-pair weights of the luminosity density; (nz, nt)."""
    a_z = _overlap_weights(basis.theta_grids[1], basis.s, template.z_nodes)
    a_t = _overlap_weights(basis.theta_grids[2], basis.s, template.t_nodes)
    return np.einsum("bi,ck,ik->bc", a_z, a_t, light_integrals(template), optimize=True)


def _position_weights(basis: DiscreteBasis, x) -> np.ndarray:
    x1, x2 = float(x[0]), float(x[1])
    e1 = eval_axis_basis(basis.omega_grids[0], basis.s, x1)[0]
    e2 = eval_axis_basis(basis.omega_grids[1], basis.s, x2)[0]
    w = np.outer(e1, e2)
    if not w.any():
        raise ValueError(f"position ({x1}, {x2}) lies outside the spatial domain")
    return w


def _normalized_sample(x, v_sites: np.ndarray, values: np.ndarray) -> LOSVDSample:
    integral = float(np.trapezoid(values, v_sites))
    if not np.isfinite(integral) or integral <= 0.0:
        return LOSVDSample(x=tuple(x), v=v_sites, p=np.zeros_like(values), masked=True)
    return LOSVDSample(x=tuple(x), v=v_sites, p=values / integral, masked=False)


def light_weighted_losvd(
    u: np.ndarray,
    basis: DiscreteBasis,
    template: TemplateGrid,
    x,
) -> LOSVDSample:
    """Luminosity-weighted velocity distribution at a spatial position.

    The coefficient field is weighted by each population's integrated
    light over the observed window, marginalized over (z, t),
    conditioned on ``x``, and normalized on the velocity site grid.  A
    position with no light returns a masked, all-zero sample.
    """
    W = _coefficient_array(u, basis)
    A_L = _light_kernel(basis, template)
    wpos = _position_weights(basis, x)
    values = np.einsum("ij,ijabc,bc->a", wpos, W, A_L, optimize=True)
    return _normalized_sample(x, basis.theta_grids[0].centers, values)


# -- Gauss-Hermite fits -------------------------------------------------------


def normalized_hermite(k: int, w: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial divided by sqrt(2^k k!)."""
    coef = np.zeros(k + 1)
    coef[k] = 1.0
    return _hermite.hermval(np.asarray(w, dtype=float), coef) / math.sqrt(2.0**k * math.factorial(k))


@dataclass(frozen=True, eq=False)
class GaussHermiteFit:
    """Fitted expansion parameters; ``h[0]`` is the order-3 coefficient."""

    gamma: float
    mu: float
    sigma: float
    h: np.ndarray
    order: int
    converged: bool

    def coefficient(self, k: int) -> float:
        if not 3 <= k <= self.order:
            raise ValueError(f"coefficient order {k} outside 3..{self.order}")
        return float(self.h[k - 3])


def _failed_fit(order: int) -> GaussHermiteFit:
    return GaussHermiteFit(
        gamma=np.nan, mu=np.nan, sigma=np.nan,
        h=np.full(order - 2, np.nan), order=order, converged=False,
    )


def gauss_hermite_fit(losvd, order: int = 4) -> GaussHermiteFit:
    """Two-stage fit of the expansion to a sampled velocity distribution.

    A nonlinear least-squares pass fits the Gaussian envelope
    ``(gamma, mu, sigma)`` from moment-based starting values; the higher
    coefficients then come from a linear solve at the fixed envelope.
    At the envelope optimum the residual is orthogonal to the low-order
    expansion directions, so the two stages together approximate the
    full projection.  Failure to converge is reported through the
    ``converged`` flag, never an exception.

    The fit always runs in the orientation whose moment mean is
    nonnegative and maps the parameters back afterwards, so mirroring
    the input mirrors the output exactly instead of within optimizer
    tolerance; a velocity grid that is mirror-symmetric up to rounding
    is symmetrized exactly first, making the two computations bitwise
    identical.
    """
    if order not in (4, 5, 6):
        raise ValueError("expansion order must be 4, 5, or 6")
    v = np.asarray(losvd.v, dtype=float)
    p = np.asarray(losvd.p, dtype=float)
    if getattr(losvd, "masked", False) or not np.all(np.isfinite(p)) or not np.any(p > 0.0):
        return _failed_fit(order)
    span = float(v[-1] - v[0])
    if np.allclose(v, -v[::-1], rtol=0.0, atol=1e-9 * span):
        v = 0.5 * (v - v[::-1])
    flipped = float(np.trapezoid(v * p, v)) < 0.0
    if flipped:
        v = -v[::-1]
        p = p[::-1]
    # everything from here on sees only the canonical orientation
    norm = float(np.trapezoid(p, v))
    mu0 = float(np.trapezoid(v * p, v)) / norm
    var0 = float(np.trapezoid((v - mu0) ** 2 * p, v)) / norm
    sigma_lo = 1e-6 * span
    sigma_hi = 0.5 * span
    sigma0 = float(np.clip(np.sqrt(max(var0, 0.0)), 2.0 * sigma_lo, 0.99 * sigma_hi))
    gamma0 = norm / (sigma0 * math.sqrt(2.0 * math.pi))
    mu0 = float(np.clip(mu0, v[0] + 1e-9 * span, v[-1] - 1e-9 * span))

    def envelope_residual(params):
        gamma, mu, sigma = params
        w = (v - mu) / sigma
        return gamma * np.exp(-0.5 * w**2) - p

    result = least_squares(
        envelope_residual,
        x0=[gamma0, mu0, sigma0],
        bounds=([0.0, v[0], sigma_lo], [np.inf, v[-1], sigma_hi]),
        xtol=1e-8,
        max_nfev=200,
    )
    if not result.success or not np.all(np.isfinite(result.x)):
        return _failed_fit(order)
    gamma, mu, sigma = (float(val) for val in result.x)
    w = (v - mu) / sigma
    envelope = gamma * np.exp(-0.5 * w**2)
    columns = np.column_stack([envelope * normalized_hermite(k, w) for k in range(3, order + 1)])
    h, *_ = np.linalg.lstsq(columns, p - envelope, rcond=None)
    if flipped:
        mu = -mu
        h = h * np.array([(-1.0) ** k for k in range(3, order + 1)])
    return GaussHermiteFit(gamma=gamma, mu=mu, sigma=sigma, h=h, order=order, converged=True)


# -- kinematic maps -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MomentMaps:
    """Per-site summary maps on the spatial site grid.

    All value maps carry NaN wherever ``mask`` is unset: below the
    density floor, without light, or where the expansion fit failed.
    """

    x1: np.ndarray
    x2: np.ndarray
    mu_t: np.ndarray
    mu_z: np.ndarray
    mu_v: np.ndarray
    sigma_v: np.ndarray
    h3: np.ndarray
    h4: np.ndarray
    h5: np.ndarray
    mask: np.ndarray


def moment_maps(
    u: np.ndarray,
    basis: DiscreteBasis,
    template: TemplateGrid,
    order: int = 5,
    floor: float = 1e-6,
) -> MomentMaps:
    """Mean-population and Gauss-Hermite kinematic maps of a coefficient field."""
    if order not in (5, 6):
        raise ValueError("map fitting needs expansion order 5 or 6 for the h5 column")
    W = _coefficient_array(u, basis)
    marg = marginals(u, basis)
    mask = density_mask(marg, floor)
    mu_z, mu_t = mean_maps(marg, floor)
    A_L = _light_kernel(basis, template)
    lw = np.einsum("ijabc,bc->ija", W, A_L, optimize=True)
    v_sites = basis.theta_grids[0].centers
    c1 = basis.omega_grids[0].centers
    c2 = basis.omega_grids[1].centers
    shape = marg.p_x.shape
    mu_v = np.full(shape, np.nan)
    sigma_v = np.full(shape, np.nan)
    h3 = np.full(shape, np.nan)
    h4 = np.full(shape, np.nan)
    h5 = np.full(shape, np.nan)
    mask = mask.copy()
    for i in range(shape[0]):
        for j in range(shape[1]):
            if not mask[i, j]:
                continue
            sample = _normalized_sample((c1[i], c2[j]), v_sites, lw[i, j])
            if sample.masked:
                mask[i, j] = False
                continue
            fit = gauss_hermite_fit(sample, order=order)
            if not fit.converged:
                mask[i, j] = False
                continue
            mu_v[i, j] = fit.mu
            sigma_v[i, j] = fit.sigma
            h3[i, j] = fit.coefficient(3)
            h4[i, j] = fit.coefficient(4)
            h5[i, j] = fit.coefficient(5)
    blank = ~mask
    mu_z = mu_z.copy()
    mu_t = mu_t.copy()
    mu_z[blank] = np.nan
    mu_t[blank] = np.nan
    return MomentMaps(
        x1=c1, x2=c2, mu_t=mu_t, mu_z=mu_z, mu_v=mu_v,
        sigma_v=sigma_v, h3=h3, h4=h4, h5=h5, mask=mask,
    )


def default_losvd_positions(basis: DiscreteBasis) -> list[tuple[float, float]]:
    """Nine sample positions on a 3x3 quartile grid over the spatial domain."""
    fractions = (0.25, 0.5, 0.75)
    g1, g2 = basis.omega_grids
    xs = [g1.lo + f * (g1.hi - g1.lo) for f in fractions]
    ys = [g2.lo + f * (g2.hi - g2.lo) for f in fractions]
    return [(x, y) for x in xs for y in ys]


def h5_feature_regions(
    maps: MomentMaps, threshold: float = 0.02, plane_halfwidth: float = 0.2
) -> tuple[np.ndarray, int]:
    """Connected off-plane regions where |h5| exceeds the threshold.

    Returns the labeled region array and the region count; cells on the
    disk plane (|x2| <= plane_halfwidth) and masked cells never count.
    """
    off_plane = np.abs(maps.x2)[None, :] > plane_halfwidth
    strong = maps.mask & off_plane & (np.abs(np.nan_to_num(maps.h5)) > threshold)
    labels, count = _connected_label(strong)
    return labels, int(count)


def h5_sign_match(
    rec: MomentMaps,
    truth: MomentMaps,
    threshold: float = 0.02,
    plane_halfwidth: float = 0.2,
) -> float:
    """Fraction of the reconstruction's strong off-plane h5 cells whose sign matches the truth.

    Cells without a valid truth value are excluded; NaN is returned when
    the reconstruction shows no strong off-plane cells at all.
    """
    labels, _ = h5_feature_regions(rec, threshold, plane_halfwidth)
    cells = (labels > 0) & truth.mask & np.isfinite(truth.h5)
    if not cells.any():
        return float("nan")
    return float(np.mean(np.sign(rec.h5[cells]) == np.sign(truth.h5[cells])))


def losvd_recovery_error(
    u_rec: np.ndarray,
    u_true: np.ndarray,
    basis: DiscreteBasis,
    template: TemplateGrid,
) -> float:
    """Mean over the nine :func:`default_losvd_positions` of the median absolute LOSVD error.

    Per position, the median over the velocity grid of the absolute
    difference between the recovered and true light-weighted
    distributions, relative to the true distribution's peak; positions
    where the truth has no light are skipped.
    """
    errors = []
    for x in default_losvd_positions(basis):
        truth = light_weighted_losvd(u_true, basis, template, x)
        if truth.masked:
            continue
        peak = float(truth.p.max())
        if peak <= 0.0:
            continue
        rec = light_weighted_losvd(u_rec, basis, template, x)
        errors.append(float(np.median(np.abs(rec.p - truth.p))) / peak)
    if not errors:
        raise ValueError("no sample position carries light in the reference field")
    return float(np.mean(errors))


# -- table export -------------------------------------------------------------


def export_maps(maps: MomentMaps, losvd_samples, out_dir) -> list[str]:
    """Write the maps table and LOSVD samples as text files; returns the paths.

    The table is comma-delimited in row-major site order with 17
    significant digits; each sample becomes a two-column (v, p) table
    with its position in the header line.  Identical inputs produce
    byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    table_path = os.path.join(out_dir, MAPS_TABLE_NAME)
    grids = (maps.mu_t, maps.mu_z, maps.mu_v, maps.sigma_v, maps.h3, maps.h4, maps.h5)
    with open(table_path, "w") as fh:
        fh.write(",".join(_MAPS_COLUMNS) + "\n")
        for i in range(len(maps.x1)):
            for j in range(len(maps.x2)):
                values = [maps.x1[i], maps.x2[j]] + [grid[i, j] for grid in grids]
                fh.write(",".join(f"{value:.17g}" for value in values))
                fh.write(f",{int(maps.mask[i, j])}\n")
    written = [table_path]
    for index, sample in enumerate(losvd_samples, start=1):
        path = os.path.join(out_dir, f"losvd_{index}.txt")
        with open(path, "w") as fh:
            fh.write(
                f"# x1 {sample.x[0]:.17g} x2 {sample.x[1]:.17g} masked {int(sample.masked)}\n"
            )
            fh.write("v p\n")
            for vv, pp in zip(sample.v, sample.p):
                fh.write(f"{vv:.17g} {pp:.17g}\n")
        written.append(path)
    return written


def _numeric_rows(fh, kind: str, width: int, first_line: int, sep: str | None = None) -> np.ndarray:
    """The remaining nonblank lines of ``fh`` as a ``(rows, width)`` float array.

    A row with another field count, or an empty body, fails with an
    error naming the ``kind`` of table and the 1-based line number
    (``first_line`` is the number of the next line of ``fh``).
    """
    rows = []
    for number, line in enumerate(fh, start=first_line):
        if not line.strip():
            continue
        cells = line.strip().split(sep)
        if len(cells) != width:
            raise ValueError(f"{kind} line {number}: expected {width} fields, found {len(cells)}")
        rows.append([float(cell) for cell in cells])
    if not rows:
        raise ValueError(f"{kind} is empty")
    return np.array(rows)


def read_maps(path) -> MomentMaps:
    """Read a maps table written by :func:`export_maps`."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != _MAPS_COLUMNS:
            raise ValueError("not a moment-map table")
        data = _numeric_rows(fh, "moment-map table", len(_MAPS_COLUMNS), 2, ",")
    x1 = np.unique(data[:, 0])
    x2 = np.unique(data[:, 1])
    n1, n2 = len(x1), len(x2)
    if data.shape[0] != n1 * n2:
        raise ValueError("moment-map table is not a complete grid")
    order = np.lexsort((data[:, 1], data[:, 0]))
    data = data[order]
    grids = [data[:, col].reshape(n1, n2) for col in range(2, 9)]
    mask = data[:, 9].reshape(n1, n2).astype(bool)
    return MomentMaps(
        x1=x1, x2=x2, mu_t=grids[0], mu_z=grids[1], mu_v=grids[2],
        sigma_v=grids[3], h3=grids[4], h4=grids[5], h5=grids[6], mask=mask,
    )


def read_losvd(path) -> LOSVDSample:
    """Read a two-column LOSVD table written by :func:`export_maps`."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 7 or header[0] != "#" or header[1] != "x1" or header[3] != "x2":
            raise ValueError("not an exported velocity-distribution table")
        x = (float(header[2]), float(header[4]))
        masked = bool(int(header[6]))
        columns = fh.readline().split()
        if columns != ["v", "p"]:
            raise ValueError("not an exported velocity-distribution table")
        body = _numeric_rows(fh, "velocity-distribution table", 2, 3)
    return LOSVDSample(x=x, v=body[:, 0], p=body[:, 1], masked=masked)
