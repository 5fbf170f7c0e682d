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

The expansion is fitted to many distributions at once: one vectorized,
projected Levenberg-Marquardt iteration with the analytic Jacobian fits
the Gaussian envelope of every row, and a batched linear solve then
gives the higher coefficients.  Each row carries its own damping and
stops on its own rule (a step or a cost reduction below the module's
tolerances, or the step cap, which leaves it unconverged), so a row's
result is the same bitwise whatever else is in the batch; a map of any
size costs a few dozen array operations, not one optimizer call per
site.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite as _hermite
from scipy.ndimage import label as _connected_label

from .grid_basis import (
    DiscreteBasis,
    _numbers,
    _numeric_rows,
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
# columns of the maps table; after the site coordinates each is the MomentMaps field of that name
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
    if np.shape(x) != (2,):
        raise ValueError(f"position {x!r} must be two numbers (x1, x2)")
    x1, x2 = float(x[0]), float(x[1])
    e1 = eval_axis_basis(basis.omega_grids[0], basis.s, x1)[0]
    e2 = eval_axis_basis(basis.omega_grids[1], basis.s, x2)[0]
    w = np.outer(e1, e2)
    if not w.any():
        raise ValueError(f"position ({x1}, {x2}) lies outside the spatial domain")
    return w


def _normalize_rows(v_sites: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each velocity row of ``values`` over its trapezoid integral, and which rows carry light.

    A row whose integral is not positive and finite comes back all zero.
    """
    integral = np.trapezoid(values, v_sites, axis=-1)
    light = np.isfinite(integral) & (integral > 0.0)
    p = np.zeros_like(values)
    np.divide(values, integral[..., None], out=p, where=light[..., None])
    return p, light


def _normalized_sample(x, v_sites: np.ndarray, values: np.ndarray) -> LOSVDSample:
    p, light = _normalize_rows(v_sites, values)
    return LOSVDSample(x=tuple(x), v=v_sites, p=p, masked=not light)


def _site_losvds(W: np.ndarray, basis: DiscreteBasis, template: TemplateGrid):
    """Normalized light-weighted LOSVD at every spatial site; ``(n1, n2, n_v)`` and light flags."""
    lw = np.einsum("ijabc,bc->ija", W, _light_kernel(basis, template), optimize=True)
    return _normalize_rows(basis.theta_grids[0].centers, lw)


def light_weighted_losvd(
    u: np.ndarray,
    basis: DiscreteBasis,
    template: TemplateGrid,
    positions,
) -> list[LOSVDSample]:
    """Luminosity-weighted velocity distributions at the spatial positions ``[(x1, x2), ...]``.

    The coefficient field is weighted by each population's integrated
    light over the observed window, marginalized over (z, t),
    conditioned on each position, and normalized on the velocity site
    grid.  One light kernel serves every position, and a position's
    weights are nonzero at no more than four sites, which alone are
    contracted.  A position with no light gives a masked, all-zero
    sample.
    """
    W, A_L = _coefficient_array(u, basis), _light_kernel(basis, template)
    samples = []
    for x in positions:
        wpos = _position_weights(basis, x)
        sites = np.nonzero(wpos)
        values = np.einsum("s,sabc,bc->a", wpos[sites], W[sites], A_L, optimize=True)
        samples.append(_normalized_sample(x, basis.theta_grids[0].centers, values))
    return samples


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


# Stopping rule of the envelope fit, per row: an accepted step that lowers the
# cost by at most _FTOL of it, or a step shorter than _XTOL relative to the
# scaled parameters, ends the row converged; _MAX_STEPS steps end it unconverged.
_FTOL = 1e-14
_XTOL = 1e-12
_MAX_STEPS = 200


def _envelope(x: np.ndarray, vs: np.ndarray, y: np.ndarray):
    """``w``, ``exp(-w^2/2)``, residual and cost of the scaled envelopes ``x`` (3, m) on rows ``y``."""
    w = (vs - x[1][:, None]) / x[2][:, None]
    e = np.exp(-0.5 * w * w)
    r = x[0][:, None] * e - y
    return w, e, r, 0.5 * (r * r).sum(axis=-1)


def _solve_spd3(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve each system ``M[:, :, k] x = b[:, k]`` by 3x3 Cholesky; NaN where ``M`` is not definite."""
    l00 = np.sqrt(M[0, 0])
    l10 = M[1, 0] / l00
    l20 = M[2, 0] / l00
    l11 = np.sqrt(M[1, 1] - l10 * l10)
    l21 = (M[2, 1] - l20 * l10) / l11
    l22 = np.sqrt(M[2, 2] - l20 * l20 - l21 * l21)
    z0 = b[0] / l00
    z1 = (b[1] - l10 * z0) / l11
    z2 = (b[2] - l20 * z0 - l21 * z1) / l22
    x2 = z2 / l22
    x1 = (z1 - l21 * x2) / l11
    x0 = (z0 - l10 * x1 - l20 * x2) / l00
    definite = (l00 > 0.0) & (l11 > 0.0) & (l22 > 0.0)
    return np.where(definite, np.stack((x0, x1, x2)), np.nan)


def _fit_envelopes(vs, y, x, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Fit ``x[0] exp(-w^2/2)``, ``w = (vs - x[1]) / x[2]``, to every row of ``y`` at once.

    A projected Levenberg-Marquardt iteration with the analytic Jacobian:
    ``x`` (3, m) holds the starting values and ``lo``/``hi`` their bounds.
    Components at a bound whose gradient points outward stay there; the
    others take the damped Gauss-Newton step, clipped to the box.  Each
    row keeps its own damping and stops on its own rule, so its result
    does not depend on the other rows.  Returns the fitted ``x`` and the
    converged flags; a row whose damped normal matrix is not positive
    definite, or that meets a non-finite value, fails alone.
    """
    x = x.copy()
    w, e, r, cost = _envelope(x, vs, y)
    lam = np.full(len(cost), 1e-3)
    converged = np.zeros(len(cost), dtype=bool)
    live = np.isfinite(cost)
    diag = np.arange(3)
    for _ in range(_MAX_STEPS):
        act = np.flatnonzero(live)
        if act.size == 0:
            break
        xa, wa, ea, lo_a, hi_a = x[:, act], w[act], e[act], lo[:, act], hi[:, act]
        dmu = xa[0][:, None] * ea * wa / xa[2][:, None]
        J = np.stack((ea, dmu, dmu * wa))
        A = (J[:, None] * J[None, :]).sum(axis=-1)
        g = (J * r[act]).sum(axis=-1)
        held = ((xa <= lo_a) & (g > 0.0)) | ((xa >= hi_a) & (g < 0.0))
        M = np.where(held[:, None] | held[None, :], 0.0, A)
        M[diag, diag] = np.where(held, 1.0, A[diag, diag] * (1.0 + lam[act]))
        step = _solve_spd3(M, np.where(held, 0.0, -g))
        xt = np.clip(xa + step, lo_a, hi_a)
        wt, et, rt, cost_t = _envelope(xt, vs[act], y[act])
        gain = cost[act] - cost_t
        better = gain > 0.0
        moved = act[better]
        x[:, moved] = xt[:, better]
        w[moved], e[moved], r[moved], cost[moved] = wt[better], et[better], rt[better], cost_t[better]
        lam[act] = np.where(better, lam[act] / 3.0, lam[act] * 4.0)
        failed = ~np.all(np.isfinite(step), axis=0)
        small = np.sqrt((step * step).sum(axis=0)) <= _XTOL * (np.sqrt((xa * xa).sum(axis=0)) + _XTOL)
        flat = better & (gain <= _FTOL * cost[act])
        done = failed | small | flat
        converged[act] = done & ~failed
        live[act[done]] = False
    return x, converged


def _gauss_hermite_rows(v: np.ndarray, P: np.ndarray, order: int):
    """Two-stage fit of the expansion to every row of ``P`` (m, n_v) on the velocity grid ``v``.

    Returns ``gamma``, ``mu``, ``sigma`` (m,), ``h`` (m, order - 2) and the
    converged flags; every parameter of a row that did not converge is NaN.
    """
    m = P.shape[0]
    gamma, mu, sigma = np.full(m, np.nan), np.full(m, np.nan), np.full(m, np.nan)
    h = np.full((m, order - 2), np.nan)
    converged = np.zeros(m, dtype=bool)
    span = float(v[-1] - v[0])
    if np.allclose(v, -v[::-1], rtol=0.0, atol=1e-9 * span):
        v = 0.5 * (v - v[::-1])
    with np.errstate(all="ignore"):
        flipped = np.trapezoid(v * P, v, axis=-1) < 0.0
        # everything from here on sees only the canonical orientation
        V = np.where(flipped[:, None], -v[::-1], v)
        P = np.where(flipped[:, None], P[:, ::-1], P)
        norm = np.trapezoid(P, V, axis=-1)
        rows = np.flatnonzero(np.all(np.isfinite(P), axis=-1) & np.any(P > 0.0, axis=-1) & (norm > 0.0))
        if rows.size == 0:
            return gamma, mu, sigma, h, converged
        V, P, norm = V[rows], P[rows], norm[rows]
        mu0 = np.trapezoid(V * P, V, axis=-1) / norm
        var0 = np.trapezoid((V - mu0[:, None]) ** 2 * P, V, axis=-1) / norm
        sigma_lo, sigma_hi = 1e-6 * span, 0.5 * span
        sigma0 = np.clip(np.sqrt(np.maximum(var0, 0.0)), 2.0 * sigma_lo, 0.99 * sigma_hi)
        gamma0 = norm / (sigma0 * math.sqrt(2.0 * math.pi))
        mu0 = np.clip(mu0, V[:, 0] + 1e-9 * span, V[:, -1] - 1e-9 * span)
        # fit in units of the starting amplitude and of the grid span
        ones = np.ones(rows.size)
        x, ok = _fit_envelopes(
            V / span,
            P / gamma0[:, None],
            np.stack((ones, mu0 / span, sigma0 / span)),
            np.stack((0.0 * ones, V[:, 0] / span, sigma_lo / span * ones)),
            np.stack((np.inf * ones, V[:, -1] / span, sigma_hi / span * ones)),
        )
    rows, V, P = rows[ok], V[ok], P[ok]
    g_fit, mu_fit, sigma_fit = gamma0[ok] * x[0, ok], span * x[1, ok], span * x[2, ok]
    w = (V - mu_fit[:, None]) / sigma_fit[:, None]
    envelope = g_fit[:, None] * np.exp(-0.5 * w * w)
    columns = np.stack([envelope * normalized_hermite(k, w) for k in range(3, order + 1)], axis=-1)
    h_fit = (np.linalg.pinv(columns, rtol=None) @ (P - envelope)[..., None])[..., 0]
    parity = np.array([(-1.0) ** k for k in range(3, order + 1)])
    back = flipped[rows]
    gamma[rows] = g_fit
    mu[rows] = np.where(back, -mu_fit, mu_fit)
    sigma[rows] = sigma_fit
    h[rows] = np.where(back[:, None], h_fit * parity, h_fit)
    converged[rows] = True
    return gamma, mu, sigma, h, converged


def gauss_hermite_fit(losvd, order: int = 4) -> GaussHermiteFit:
    """Two-stage fit of the expansion to one sampled velocity distribution.

    The one-row case of the batched fit that :func:`moment_maps` runs over
    all its sites, so a site's map values equal this fit of its LOSVD
    bitwise.  First the Gaussian envelope ``gamma exp(-w^2/2)`` is fitted
    by a projected Levenberg-Marquardt iteration with the analytic
    Jacobian, from moment-based starting values, within ``gamma >= 0``,
    ``v[0] <= mu <= v[-1]`` and ``1e-6 <= sigma / span <= 0.5``.  It stops
    once an accepted step lowers the cost by at most 1e-14 of it or a step
    falls below 1e-12 of the scaled parameters; 200 steps without either
    end it unconverged.  The higher coefficients then come from a linear
    least-squares solve at the fitted envelope.  At the envelope optimum
    the residual is orthogonal to the low-order expansion directions, so
    the two stages together approximate the full projection.

    A masked or non-finite sample, one without a positive entry or a
    positive integral, and a fit that does not converge all give
    ``converged=False`` with NaN parameters, never an exception; a
    velocity grid that is not finite and strictly increasing, or whose
    length differs from ``p``'s, raises ``ValueError``.

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
    if v.ndim != 1 or v.size < 2 or not np.all(np.isfinite(v)) or not np.all(np.diff(v) > 0.0):
        raise ValueError("velocity grid v must be finite and strictly increasing, with at least two points")
    if p.shape != v.shape:
        raise ValueError(f"velocity grid v has {v.size} points but p has {p.size}")
    if getattr(losvd, "masked", False):
        return _failed_fit(order)
    gamma, mu, sigma, h, converged = _gauss_hermite_rows(v, p[None, :], order)
    if not converged[0]:
        return _failed_fit(order)
    return GaussHermiteFit(
        gamma=float(gamma[0]), mu=float(mu[0]), sigma=float(sigma[0]),
        h=h[0], order=order, converged=True,
    )


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
    floor: float = 1e-6,
) -> MomentMaps:
    """Mean-population and Gauss-Hermite kinematic maps of a coefficient field.

    Every site above the density floor whose light-weighted LOSVD carries
    light is fitted in one batched call of the fit behind
    :func:`gauss_hermite_fit` at order 5, the h3..h5 of the maps; each
    site's values equal that function's order-5 fit of the site's
    normalized LOSVD bitwise, whatever the other sites hold.  Sites
    without light or whose fit did not converge leave the mask.
    """
    if not 0.0 <= floor < 1.0:
        raise ValueError(f"the density floor must be finite and in [0, 1), got floor={floor}")
    W = _coefficient_array(u, basis)
    marg = marginals(u, basis)
    mu_z, mu_t = mean_maps(marg, floor)
    P, light = _site_losvds(W, basis, template)
    sites = density_mask(marg, floor) & light
    _, mu, sigma, h, converged = _gauss_hermite_rows(basis.theta_grids[0].centers, P[sites], 5)
    mask = np.zeros_like(sites)
    mask[sites] = converged

    def site_map(values):
        grid = np.full(sites.shape, np.nan)
        grid[sites] = values
        return grid

    return MomentMaps(
        x1=basis.omega_grids[0].centers, x2=basis.omega_grids[1].centers,
        mu_t=np.where(mask, mu_t, np.nan), mu_z=np.where(mask, mu_z, np.nan),
        mu_v=site_map(mu), sigma_v=site_map(sigma),
        h3=site_map(h[:, 0]), h4=site_map(h[:, 1]), h5=site_map(h[:, 2]), mask=mask,
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
    positions = default_losvd_positions(basis)
    truths = light_weighted_losvd(u_true, basis, template, positions)
    recs = light_weighted_losvd(u_rec, basis, template, positions)
    errors = [
        float(np.median(np.abs(rec.p - truth.p))) / float(truth.p.max())
        for truth, rec in zip(truths, recs)
        if not truth.masked and truth.p.max() > 0.0
    ]
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
    x1, x2 = np.meshgrid(maps.x1, maps.x2, indexing="ij")
    columns = (x1, x2, *(getattr(maps, name) for name in _MAPS_COLUMNS[2:]))
    table = np.column_stack([column.ravel() for column in columns])
    fmt = ["%.17g"] * (len(_MAPS_COLUMNS) - 1) + ["%d"]  # the mask column is an integer
    np.savetxt(table_path, table, fmt=fmt, delimiter=",", header=",".join(_MAPS_COLUMNS), comments="")
    written = [table_path]
    for index, sample in enumerate(losvd_samples, start=1):
        path = os.path.join(out_dir, f"losvd_{index}.txt")
        header = f"# x1 {sample.x[0]:.17g} x2 {sample.x[1]:.17g} masked {int(sample.masked)}\nv p"
        np.savetxt(path, np.column_stack((sample.v, sample.p)), fmt="%.17g", header=header, comments="")
        written.append(path)
    return written


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
    data = data[np.lexsort((data[:, 1], data[:, 0]))]
    grids = {name: data[:, col].reshape(n1, n2) for col, name in enumerate(_MAPS_COLUMNS[2:], start=2)}
    grids["mask"] = grids["mask"].astype(bool)
    return MomentMaps(x1=x1, x2=x2, **grids)


def read_losvd(path) -> LOSVDSample:
    """Read a two-column LOSVD table written by :func:`export_maps`."""
    kind = "velocity-distribution table"
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 7 or header[0] != "#" or header[1] != "x1" or header[3] != "x2":
            raise ValueError(f"not an exported {kind}")
        x, [masked] = tuple(_numbers(kind, 1, header[2:5:2])), _numbers(kind, 1, header[6:], int)
        columns = fh.readline().split()
        if columns != ["v", "p"]:
            raise ValueError(f"not an exported {kind}")
        body = _numeric_rows(fh, kind, 2, 3)
    return LOSVDSample(x=x, v=body[:, 0], p=body[:, 1], masked=bool(masked))
