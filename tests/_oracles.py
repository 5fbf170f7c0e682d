"""Brute-force reference computations shared by the test modules."""

import json

import math

import numpy as np
from scipy.linalg.blas import daxpy, dgemm
from scipy.optimize import least_squares

from pnkr.diagnostics import (
    GaussHermiteFit,
    _coefficient_array,
    _failed_fit,
    _normalized_sample,
    _position_weights,
    normalized_hermite,
)
from pnkr.forward import sample_norm
from pnkr.grid_basis import _axis_factors, _breakpoints, axis_weights, eval_axis_basis
from pnkr.solver import as_solve_data
from pnkr.templates import C_LIGHT, _interp_hats


def eval_axis_basis_on_panel(grid, s, x, panel_mid):
    """Basis values on a quadrature panel that lies inside one smooth piece.

    Point evaluation at a breakpoint is ambiguous for the discontinuous
    ``s = 0`` family; the endpoint-sampling trapezoid oracles below
    therefore resolve ownership by the panel midpoint and evaluate the
    piece's own polynomial at the panel points, endpoints included.
    """
    xarr = np.asarray(x, dtype=float)
    n = grid.n_cells
    out = np.zeros((xarr.size, n))
    if s == 0:
        i = int(np.clip(np.searchsorted(grid.nodes, panel_mid, side="right") - 1, 0, n - 1))
        out[:, i] = 1.0
        return out
    bp = _breakpoints(grid, 1)
    j = int(np.clip(np.searchsorted(bp, panel_mid, side="right") - 1, 0, n))
    if j == 0:
        out[:, 0] = 1.0
    elif j == n:
        out[:, n - 1] = 1.0
    else:
        rise = (xarr - bp[j]) / (bp[j + 1] - bp[j])
        out[:, j] = rise
        out[:, j - 1] = 1.0 - rise
    return out


def velocity_cuts(template, gv, s):
    """Velocity panel ends: the basis kinks and every lattice crossing.

    The lookup ``lambda_r / (1 + v/c)`` of every observed channel meets a
    lattice node where ``ln(1 + v/c)`` is a whole multiple of ``dln``.
    Independent of the package's panel rule: every crossing of the
    extended lattice is listed, and those outside the axis are dropped;
    a near-empty trapezoid panel contributes nothing, so none are merged.
    """
    reach = template.R_ext
    crossings = C_LIGHT * np.expm1(np.arange(-reach, reach + 1) * template.dln)
    inside = crossings[(crossings > gv.lo) & (crossings < gv.hi)]
    return np.unique(np.concatenate([_breakpoints(gv, s), inside]))


def kernel_on_grid(template, vq, zq, tq, lam_r):
    """Kernel values on a (v, z, t) tensor grid for one observed channel.

    Uses the same interpolation rules as ``kernel_eval`` but vectorized,
    so dense quadrature oracles stay affordable.
    """
    fac = 1.0 + np.asarray(vq) / C_LIGHT
    lam_rest = lam_r / fac
    lext = template.lambda_nodes.nodes
    c = (np.log(lam_rest) - np.log(lext[0])) / template.dln
    f = np.floor(c).astype(int)
    if f.min() < 0 or f.max() > template.R_ext - 2:
        raise ValueError("oracle lookup outside the extended lattice")
    w = c - f
    hz = _interp_hats(template.z_nodes, np.asarray(zq, dtype=float))
    ht = _interp_hats(template.t_nodes, np.asarray(tq, dtype=float))
    Szt = np.einsum("jbc,qb,pc->jqp", template.S, hz, ht, optimize=True)
    K = ((1.0 - w)[:, None, None] * Szt[f] + w[:, None, None] * Szt[f + 1])
    return K / fac[:, None, None]


def theta_integral_dense(template, basis, l, r, points=400):
    """Direct tensor-product trapezoid of ``phi_l * k(., lambda_r)``.

    Quadrature panels split at basis kinks, table nodes, and lattice
    crossings, so every panel integrates a smooth function.
    """
    gv, gz, gt = basis.theta_grids
    s = basis.s
    nzc, ntc = gz.n_cells, gt.n_cells
    iv, rem = divmod(l, nzc * ntc)
    iz, it = divmod(rem, ntc)
    lam_r = template.lambda_obs[r]

    def panel_points(cuts, per):
        pts = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            pts.append(np.linspace(a, b, per))
        return pts

    vcuts = velocity_cuts(template, gv, s)
    zcuts = np.unique(np.concatenate([_breakpoints(gz, s), template.z_nodes]))
    zcuts = zcuts[(zcuts >= gz.lo) & (zcuts <= gz.hi)]
    tcuts = np.unique(np.concatenate([_breakpoints(gt, s), template.t_nodes]))
    tcuts = tcuts[(tcuts >= gt.lo) & (tcuts <= gt.hi)]

    total = 0.0
    for vq in panel_points(vcuts, points):
        pv = eval_axis_basis_on_panel(gv, s, vq, 0.5 * (vq[0] + vq[-1]))[:, iv]
        if not np.any(pv):
            continue
        for zq in panel_points(zcuts, 60):
            pz = eval_axis_basis_on_panel(gz, s, zq, 0.5 * (zq[0] + zq[-1]))[:, iz]
            if not np.any(pz):
                continue
            for tq in panel_points(tcuts, 60):
                pt = eval_axis_basis_on_panel(gt, s, tq, 0.5 * (tq[0] + tq[-1]))[:, it]
                if not np.any(pt):
                    continue
                K = kernel_on_grid(template, vq, zq, tq, lam_r)
                W = pv[:, None, None] * pz[None, :, None] * pt[None, None, :]
                inner = np.trapezoid(K * W, tq, axis=2)
                inner = np.trapezoid(inner, zq, axis=1)
                total += np.trapezoid(inner, vq, axis=0)
    return total


def theta_full_integral(template, basis, r, points=2000):
    """Integral of the kernel over the whole Theta box for one channel."""
    gv, gz, gt = basis.theta_grids
    lam_r = template.lambda_obs[r]
    zw = _hat_integrals(template.z_nodes, gz.lo, gz.hi)
    tw = _hat_integrals(template.t_nodes, gt.lo, gt.hi)
    Sbar = np.einsum("jbc,b,c->j", template.S, zw, tw, optimize=True)
    vcuts = velocity_cuts(template, gv, basis.s)
    lext = template.lambda_nodes.nodes
    total = 0.0
    for a, b in zip(vcuts[:-1], vcuts[1:]):
        vq = np.linspace(a, b, points)
        fac = 1.0 + vq / C_LIGHT
        c = (np.log(lam_r / fac) - np.log(lext[0])) / template.dln
        f = np.floor(c).astype(int)
        w = c - f
        vals = ((1.0 - w) * Sbar[f] + w * Sbar[f + 1]) / fac
        total += np.trapezoid(vals, vq)
    return total


def _hat_integrals(nodes, lo, hi):
    """Exact integrals of the interpolation hats over ``[lo, hi]``."""
    cuts = np.unique(np.concatenate([nodes, [lo, hi]]))
    cuts = cuts[(cuts >= lo) & (cuts <= hi)]
    out = np.zeros(len(nodes))
    for a, b in zip(cuts[:-1], cuts[1:]):
        xq = np.array([a, 0.5 * (a + b), b])
        H = _interp_hats(nodes, xq)
        # Simpson is exact for the linear hats
        out += (b - a) * (H[0] + 4.0 * H[1] + H[2]) / 6.0
    return out


# -- dense operators -----------------------------------------------------------


def dense_G(system):
    """Spatial L2 Gram ``G = A_x1 (x) A_x2`` as a dense ``(N, N)`` array."""
    return np.kron(*system.G_axes)


def dense_Hr(system, r):
    """``H_r = G (x) q_r^T`` as a dense ``(N, N L)`` array; ``r`` is 1-based."""
    return np.kron(dense_G(system), system.Q[:, r - 1][None, :])


def dense_Psi(basis):
    """Spatial factor ``Psi = A1 (x) A2 + beta B1 (x) A2 + beta A1 (x) B2``, term by term."""
    (A1, B1), (A2, B2) = (_axis_factors(g, basis.s) for g in basis.omega_grids)
    b = basis.beta
    return np.kron(A1, A2) + b * np.kron(B1, A2) + b * np.kron(A1, B2)


def dense_Phi(basis):
    """``(v, z, t)`` factor ``Phi``: the mass product plus one beta-weighted gradient term per axis."""
    (Av, Bv), (Az, Bz), (At, Bt) = (_axis_factors(g, basis.s) for g in basis.theta_grids)
    b = basis.beta

    def kron3(x, y, z):
        return np.kron(np.kron(x, y), z)

    return kron3(Av, Az, At) + b * kron3(Bv, Az, At) + b * kron3(Av, Bz, At) + b * kron3(Av, Az, Bt)


def dense_M(system):
    """Reconstruction-space Gram ``M = Psi (x) Phi`` as a dense array."""
    return np.kron(dense_Psi(system.basis), dense_Phi(system.basis))


def equation_residual_norm(system, u, data, r):
    """Data-space residual norm of equation ``r`` (1-based) at ``u``.

    Computed on sample vectors, where the noise-metric quadratic form of
    the moment residual reduces to the plain data-space norm; the same
    products as the solver's one-equation gate.
    """
    data = as_solve_data(data)
    if not 1 <= r <= system.R:
        raise ValueError(f"wavelength index r={r} outside 1..{system.R}")
    U = np.asarray(u, dtype=float).reshape(system.N, system.L)
    D = data.y[:, r - 1 : r] - U @ system.Q[:, r - 1 : r]
    return float(sample_norm(system, D)[0])


def dense_stacked_operator(system):
    """Every ``H_r`` stacked into one dense ``(N R, N L)`` array."""
    return np.vstack([dense_Hr(system, r) for r in range(1, system.R + 1)])


def project_row_space(u, system, size_cap=20000):
    """Project onto the row space of the dense stacked operator.

    Projects through its singular vectors with threshold
    ``1e-10 * sigma_max``; refuses instances with ``N * L`` above
    ``size_cap``, where the dense SVD stops being affordable.
    """
    M = system.N * system.L
    if M > size_cap:
        raise ValueError(f"dense row-space projection refused: N*L = {M} exceeds cap {size_cap}")
    _, svals, Vt = np.linalg.svd(dense_stacked_operator(system), full_matrices=True)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    V = Vt[:rank].T
    return V @ (V.T @ u)


# -- row-space references of criterion 3 ---------------------------------------


def project_row_space_factored(u, system):
    """Row-space projection through the Kronecker structure.

    Every stacked row is a row of ``G`` tensored with some ``q_r``; with
    ``G`` nonsingular the row space is all of the spatial factor tensored
    with ``span{q_r}``, so the projector is ``I (x) P_Q`` with ``P_Q``
    built from the singular vectors of the small ``(L, R)`` table.
    Equals the projection through the singular vectors of the dense
    stacked operator ``[H_1; ...; H_R]`` without ever forming it.
    """
    u = np.asarray(u, dtype=float)
    M = system.N * system.L
    if u.shape != (M,):
        raise ValueError(f"coefficient vector has shape {u.shape}, expected ({M},)")
    W, svals, _ = np.linalg.svd(system.Q, full_matrices=False)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    W = W[:, :rank]
    U = u.reshape(system.N, system.L)
    return ((U @ W) @ W.T).reshape(-1)


def row_space_image(u, system):
    """Map ``u`` into the subspace the data determines.

    Applies the preconditioned normal operator
    ``M^-1 sum_r H_r^T N^-1 H_r`` once.  Its range, ``M^-1 range(H^T)``,
    is the M-orthogonal complement of the stacked null space and exactly
    the span of the iteration's step directions, so solver runs started
    from zero converge to the returned vector when fed its synthesized
    data.  The image is filtered rather than projected: components of
    ``u`` along the operator's eigenvectors are weighted by their
    eigenvalues; in practice the smoothing leaves the image of the
    mock's nonnegative truths entrywise nonnegative as well.
    """
    u = np.asarray(u, dtype=float)
    M = system.N * system.L
    if u.shape != (M,):
        raise ValueError(f"coefficient vector has shape {u.shape}, expected ({M},)")
    U = u.reshape(system.N, system.L)
    # N^-1 H_r u = U q_r because the noise Gram is G, so the sum over r
    # factors as (Psi^-1 G) (U Q) (Phi^-1 Q)^T with no solve with G
    acc = (system.Psi_inv_G @ (U @ system.Q)) @ system.Phi_inv_Q.T
    return acc.reshape(-1)


# -- data-space conversions ----------------------------------------------------


def moments_from_samples(system, samples):
    """Moment vectors ``w = G y`` of per-site samples (vector or cube)."""
    return dense_G(system) @ samples


def samples_from_moments(system, w):
    """Inverse of :func:`moments_from_samples`: solves ``G y = w``."""
    return np.linalg.solve(dense_G(system), np.asarray(w, dtype=float))


def moment_norm(system, w):
    """Noise-metric norm of moment vectors: ``sqrt(w^T G^-1 w)``."""
    return np.sqrt(np.einsum("n...,n...->...", w, samples_from_moments(system, w)))


# -- expansions and velocity distributions ---------------------------------------


def coefficients_to_function(u, basis, points):
    """Evaluate the expansion with coefficients ``u`` at physical points.

    ``points`` is one point ``(x1, x2, v, z, t)`` or an array of shape
    ``(P, 5)``; returns the value per point, zero outside the domain box.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != 5:
        raise ValueError("points must have 5 columns (x1, x2, v, z, t)")
    u5 = np.asarray(u, dtype=float).reshape(basis.shape5)
    mats = [eval_axis_basis(g, basis.s, pts[:, k]) for k, g in enumerate(basis.grids)]
    out = np.einsum("abcde,pa,pb,pc,pd,pe->p", u5, *mats, optimize=True)
    return float(out[0]) if single else out


def mass_weighted_losvd(u, basis, x):
    """Mass-weighted velocity distribution at a spatial position."""
    W = _coefficient_array(u, basis)
    wz = axis_weights(basis.theta_grids[1], basis.s)
    wt = axis_weights(basis.theta_grids[2], basis.s)
    wpos = _position_weights(basis, x)
    values = np.einsum("ij,ijabc,b,c->a", wpos, W, wz, wt, optimize=True)
    return _normalized_sample(x, basis.theta_grids[0].centers, values)


def gauss_hermite_series(v, gamma, mu, sigma, h):
    """Evaluate a Gauss-Hermite expansion; ``h`` collects the coefficients from order 3 up."""
    w = (np.asarray(v, dtype=float) - mu) / sigma
    series = np.ones_like(w)
    for k, hk in enumerate(np.asarray(h, dtype=float), start=3):
        series = series + hk * normalized_hermite(k, w)
    return gamma * np.exp(-0.5 * w**2) * series



def envelope_cost(v, p, gamma, mu, sigma):
    """Half the squared residual of the Gaussian envelope ``gamma exp(-w^2/2)`` against ``p``."""
    w = (np.asarray(v, dtype=float) - mu) / sigma
    r = gamma * np.exp(-0.5 * w**2) - np.asarray(p, dtype=float)
    return 0.5 * float(r @ r)


def least_squares_gauss_hermite_fit(losvd, order=4):
    """Per-sample reference for ``gauss_hermite_fit``: the envelope by ``scipy.optimize.least_squares``.

    The same bounds, moment-based start and canonical orientation as the
    package fit, with a finite-difference Jacobian and scipy's default
    stopping rule (``ftol=1e-8``, ``xtol=1e-8``, at most 200 evaluations).
    """
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

# -- the Kaczmarz step as row-blocked BLAS calls ---------------------------------

# Entries of one row block of the iterate: 768 KiB of float64, in L2.
_STEP_BLOCK_ENTRIES = 98_304
# Entries of one daxpy, at most what OpenBLAS runs on one thread.
_AXPY_ENTRIES = 10_000


def _row_blocks(N, L):
    """Row blocks of an ``N x L`` iterate of at most ``_STEP_BLOCK_ENTRIES`` entries each."""
    rows = max(1, _STEP_BLOCK_ENTRIES // L)
    return [slice(n0, min(n0 + rows, N)) for n0 in range(0, N, rows)]


def blas_rank_one_step(U, O, c, alpha, a, p):
    """``O = max(Z + alpha a p^T, 0)`` by dgemm and daxpy, ``Z`` being ``U`` or ``(1 + c) U - c O``.

    The reference for the compiled step: with ``c = 0`` each row block is
    copied from ``U`` (unless ``O is U``) and corrected by one k=1
    ``dgemm``; with ``c > 0`` one ``dgemm`` scales the previous iterate in
    ``O`` by ``-c`` and adds the correction, and ``daxpy`` adds
    ``(1 + c) U``.  ``p`` is an ``(L, 1)`` column.
    """
    L = O.shape[1]
    if c:
        u_flat, o_flat = np.ascontiguousarray(U).reshape(-1), O.reshape(-1)
    for blk in _row_blocks(*O.shape):
        B = O[blk]
        if not c and U is not O:
            np.copyto(B, U[blk])
        dgemm(alpha, p, a[None, blk], beta=-c if c else 1.0, c=B.T, overwrite_c=1)
        if c:
            end = blk.stop * L
            for off in range(blk.start * L, end, _AXPY_ENTRIES):
                daxpy(u_flat, o_flat, n=min(_AXPY_ENTRIES, end - off), a=1.0 + c, offx=off, offy=off)
        np.maximum(B, 0.0, out=B)


def fixed_order_sum(P):
    """Sum over the last axis of ``P`` in the compiled kernel's order.

    Eight running sums, lane ``j`` taking the entries ``P[..., l]`` with
    ``l = j mod 8`` in increasing ``l``; the last ``L mod 8`` entries join
    lane 0 in increasing ``l``; then
    ``((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))``.
    """
    P = np.asarray(P)
    L = P.shape[-1]
    main = L - L % 8
    s = np.zeros(P.shape[:-1] + (8,))
    for l0 in range(0, main, 8):
        s += P[..., l0 : l0 + 8]
    for l in range(main, L):
        s[..., 0] += P[..., l]
    s = np.moveaxis(s, -1, 0)
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))


def fixed_order_rows_dot(O, q):
    """``O q`` for an ``N x L`` array, each row summed in the kernel's order; each product is rounded before its add."""
    return fixed_order_sum(np.asarray(O) * np.asarray(q).reshape(-1))


def fixed_order_matmul(A, B):
    """``A B`` with every entry ``sum_k A[i, k] B[k, j]`` summed over ``k`` in the kernel's order."""
    return fixed_order_sum(np.asarray(A)[:, None, :] * np.asarray(B).T[None, :, :])


def fixed_order_gate_norm(system, D):
    """The kernel's gate norm ``sqrt(vdot(X, A_x1 X A_x2))`` of a sample vector, ``X`` its ``n1 x n2`` grid, every sum in the kernel's order."""
    A1, A2 = system.G_axes
    X = np.asarray(D, dtype=float).reshape(len(A1), len(A2))
    W = fixed_order_matmul(fixed_order_matmul(A1, X), A2)
    return float(np.sqrt(fixed_order_sum((X * W).reshape(-1))))


def compiled_sweep_reference(system, y, limits, order, u_k, u_km1, c, S, P, alpha):
    """numpy reference of one compiled sweep; returns ``(u_k, u_km1, updates)``.

    ``order`` lists 0-based equations.  Equation ``r``'s gate forms
    ``D = y_r - U_k q_r`` by :func:`fixed_order_rows_dot` and its norm by
    :func:`fixed_order_gate_norm`, and skips ``r`` when the norm is at
    most ``limits[r]``.  Otherwise the step takes ``d = D`` (``c = 0``)
    or ``(D - D') c + D`` with ``D' = y_r - U_{k-1} q_r``, forms
    ``a = S d`` row by row in the kernel's order, and makes the step
    :func:`blas_rank_one_step` with column ``r`` of ``P``; the iterates
    then swap.  A non-finite norm, or a non-finite entry after a last
    update, raises ``RuntimeError``.
    """
    N, L = system.N, system.L
    U, prev, updates, stepped = np.array(u_k, dtype=float).reshape(N, L), np.array(u_km1, dtype=float).reshape(N, L), 0, False
    with np.errstate(over="ignore", invalid="ignore"):
        for r in order:
            q = system.Q[:, r]
            D = y[:, r] - fixed_order_rows_dot(U, q)
            norm = fixed_order_gate_norm(system, D)
            if not np.isfinite(norm):
                raise RuntimeError("non-finite gate norm")
            stepped = not norm <= limits[r]
            if stepped:
                d = (D - (y[:, r] - fixed_order_rows_dot(prev, q))) * c + D if c else D
                blas_rank_one_step(U, prev, c, alpha, fixed_order_rows_dot(S, d), np.asarray(P)[:, r, None])
                U, prev, updates = prev, U, updates + 1
        if stepped and not np.isfinite(U).all():
            raise RuntimeError("non-finite last update")
    return U.reshape(-1), prev.reshape(-1), updates


# -- manifests -----------------------------------------------------------------


def read_manifest(path):
    with open(path) as fh:
        return json.load(fh)


def manifest_run_key(manifest):
    """The portion of a manifest that determines the run's outputs."""
    return {
        "command": manifest.get("command"),
        "config": manifest.get("config"),
        "seeds": manifest.get("seeds"),
        "versions": manifest.get("versions"),
        "inputs": manifest.get("inputs"),
    }
