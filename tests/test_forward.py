"""Factored forward operators against dense elementwise oracles."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pnkr.forward import (
    SMOOTHING_TAPS,
    apply_H_all,
    apply_Hr,
    apply_Hr_T,
    apply_Zs,
    build_forward_system,
    reduced_rho,
    rho_estimate,
    sample_norm,
    synthesize_datacube,
)
import pnkr.forward
from pnkr.grid_basis import _axis_factors, explicit_axis, geometric_axis, gram_eigenbasis, make_basis, uniform_axis
from pnkr.presets import preset_basis, preset_template
from pnkr.templates import build_template_grid, kernel_theta_integrals

from _oracles import (
    dense_G,
    dense_Hr,
    dense_M,
    dense_Phi,
    dense_Psi,
    moment_norm,
    moments_from_samples,
    samples_from_moments,
)


def small_basis(s):
    omega = (uniform_axis(-1.0, 1.0, 4), uniform_axis(-1.0, 1.0, 4))
    theta = (
        uniform_axis(-1000.0, 1000.0, 4),
        uniform_axis(-2.0, 0.0, 3),
        uniform_axis(1.0, 13.0, 3),
    )
    return make_basis(s, omega, theta, beta=0.3 if s == 1 else 0.0)


def small_system(s, R=5, seed=0):
    basis = small_basis(s)
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((basis.L, R))
    return build_forward_system(basis, Q)


def solver_inverse(system):
    """``M^-1 (G (x) Q)`` as the solver applies it: ``(Psi^-1 G) (x) (Phi^-1 Q)``."""
    return np.kron(system.Psi_inv_G, system.Phi_inv_Q)


@pytest.mark.parametrize("s", [0, 1])
def test_dense_oracles_match_elementwise_loops(s):
    # the Kronecker forms in _oracles, written out entry by entry
    system = small_system(s)
    N, L = system.N, system.L
    Gd, Psid, Phid = dense_G(system), dense_Psi(system.basis), dense_Phi(system.basis)
    for r in (1, 3, system.R):
        H = np.zeros((N, N * L))
        for j in range(N):
            for n in range(N):
                for l in range(L):
                    H[j, n * L + l] = Gd[j, n] * system.Q[l, r - 1]
        np.testing.assert_array_equal(dense_Hr(system, r), H)
    M = np.zeros((N * L, N * L))
    for n in range(N):
        for l in range(L):
            for n2 in range(N):
                for l2 in range(L):
                    M[n * L + l, n2 * L + l2] = Psid[n, n2] * Phid[l, l2]
    np.testing.assert_array_equal(dense_M(system), M)


@pytest.mark.parametrize("s", [0, 1])
def test_apply_Hr_matches_elementwise_dense(s):
    system = small_system(s)
    rng = np.random.default_rng(1)
    for r in (1, 3, system.R):
        H = dense_Hr(system, r)
        for _ in range(5):
            u = rng.standard_normal(system.N * system.L)
            got = apply_Hr(system, u, r)
            want = H @ u
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("s", [0, 1])
def test_apply_Hr_T_matches_dense_transpose(s):
    system = small_system(s)
    rng = np.random.default_rng(2)
    for r in (2, system.R):
        H = dense_Hr(system, r)
        for _ in range(5):
            w = rng.standard_normal(system.N)
            got = apply_Hr_T(system, w, r)
            want = H.T @ w
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("s", [0, 1])
def test_adjointness_random(s):
    system = small_system(s)
    rng = np.random.default_rng(3)
    M = system.N * system.L
    for _ in range(100):
        u = rng.standard_normal(M)
        w = rng.standard_normal(system.N)
        r = int(rng.integers(1, system.R + 1))
        lhs = float(apply_Hr(system, u, r) @ w)
        rhs = float(u @ apply_Hr_T(system, w, r))
        assert abs(lhs - rhs) / (np.linalg.norm(u) * np.linalg.norm(w)) <= 1e-10


@pytest.mark.parametrize("s", [0, 1])
def test_apply_M_and_solve_M_match_elementwise_dense(s):
    # M applied by the elementwise dense oracle; M^-1 only as the solver
    # applies it, to G (x) Q, through the stored per-axis products
    system = small_system(s)
    Md = dense_M(system)
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = rng.standard_normal(system.N * system.L)
        want = Md @ u
        got = (dense_Psi(system.basis) @ u.reshape(system.N, system.L) @ dense_Phi(system.basis)).reshape(-1)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())
    want = np.linalg.solve(Md, np.kron(dense_G(system), system.Q))
    np.testing.assert_allclose(solver_inverse(system), want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


@pytest.mark.parametrize("s", [0, 1])
def test_solve_M_roundtrip(s):
    system = small_system(s)
    GQ = np.kron(dense_G(system), system.Q)
    np.testing.assert_allclose(dense_M(system) @ solver_inverse(system), GQ, rtol=1e-8, atol=1e-10)


def test_solve_M_s0_is_entrywise_division():
    system = small_system(0)
    c_Psi = dense_Psi(system.basis)[0, 0]
    c_Phi = dense_Phi(system.basis)[0, 0]
    np.testing.assert_allclose(np.diag(dense_Psi(system.basis)), c_Psi, rtol=1e-12)
    np.testing.assert_allclose(np.diag(dense_Phi(system.basis)), c_Phi, rtol=1e-12)
    GQ = np.kron(dense_G(system), system.Q)
    np.testing.assert_allclose(solver_inverse(system), GQ / (c_Psi * c_Phi), rtol=1e-12)


@pytest.mark.parametrize("s", [0, 1])
def test_linearity_and_zero(s):
    system = small_system(s)
    M = system.N * system.L
    assert np.all(apply_Hr(system, np.zeros(M), 1) == 0.0)
    assert np.all(synthesize_datacube(system, np.zeros(M)) == 0.0)
    rng = np.random.default_rng(7)
    u1 = rng.standard_normal(M)
    u2 = rng.standard_normal(M)
    lhs = synthesize_datacube(system, u1 + u2)
    rhs = synthesize_datacube(system, u1) + synthesize_datacube(system, u2)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * np.abs(rhs).max())
    W = apply_H_all(system, u1)
    for r in range(1, system.R + 1):
        np.testing.assert_allclose(W[:, r - 1], apply_Hr(system, u1, r), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("s", [0, 1])
def test_nonnegative_cube_from_kernel_table(s):
    basis = small_basis(s)
    template = build_template_grid(480.0, 570.0, 16, 1100.0, np.linspace(-2.6, 0.3, 5), np.linspace(0.5, 14.0, 6))
    Q = kernel_theta_integrals(template, basis)
    assert np.all(Q >= 0.0)
    system = build_forward_system(basis, Q)
    rng = np.random.default_rng(8)
    u = rng.random(basis.N * basis.L)
    assert np.all(synthesize_datacube(system, u) >= 0.0)
    assert np.all(apply_H_all(system, u) >= -1e-13)


@pytest.mark.parametrize("s", [0, 1])
def test_sample_and_moment_norms_agree(s):
    system = small_system(s)
    rng = np.random.default_rng(9)
    d = rng.standard_normal(system.N)
    w = moments_from_samples(system, d)
    assert abs(moment_norm(system, w) - sample_norm(system, d)) <= 1e-10 * sample_norm(system, d)
    np.testing.assert_allclose(samples_from_moments(system, w), d, rtol=1e-10, atol=1e-13)
    D = rng.standard_normal((system.N, 4))
    norms = sample_norm(system, D)
    assert norms.shape == (4,)
    for j in range(4):
        np.testing.assert_allclose(norms[j], sample_norm(system, D[:, j]), rtol=1e-12)
    if s == 0:
        np.testing.assert_allclose(sample_norm(system, d), np.sqrt(system.c_N) * np.linalg.norm(d), rtol=1e-12)


@pytest.mark.parametrize("chunk", [None, 2], ids=["one_chunk", "chunks_of_2"])
@pytest.mark.parametrize("s", [0, 1])
def test_sample_norm_is_the_quadratic_form_of_the_assembled_gram(s, chunk):
    # unequal, non-uniform spatial axes (3 x 5 sites), so a swapped or transposed
    # axis factor shows; the norm comes from the axis factors, the oracle from G.
    # With a chunk, the trailing axis is passed a few columns at a time: each
    # column's norm must not depend on which columns share its call
    omega = (explicit_axis([-1.0, -0.6, 0.1, 1.0]), uniform_axis(-2.0, 1.0, 5))
    basis = make_basis(s, omega, small_basis(s).theta_grids, beta=0.3 if s == 1 else 0.0)
    system = build_forward_system(basis, np.random.default_rng(1).standard_normal((basis.L, 3)))
    G = np.kron(*(_axis_factors(g, s)[0] for g in basis.omega_grids))
    assert np.array_equal(dense_G(system), G)
    rng = np.random.default_rng(10)
    d = rng.standard_normal(system.N)
    got = sample_norm(system, d)
    assert np.ndim(got) == 0
    np.testing.assert_allclose(got, np.sqrt(d @ G @ d), rtol=1e-14)
    for shape in ((1,), (7,), (2, 3)):
        D = rng.standard_normal((system.N, *shape))
        if chunk is None:
            got = sample_norm(system, D)
        else:
            parts = [sample_norm(system, D[..., i : i + chunk]) for i in range(0, shape[-1], chunk)]
            got = np.concatenate(parts, axis=-1)
        assert got.shape == shape
        want = np.sqrt(np.einsum("nr,nr->r", D.reshape(system.N, -1), G @ D.reshape(system.N, -1)))
        np.testing.assert_allclose(got, want.reshape(shape), rtol=1e-14)


@pytest.mark.parametrize("s", [0, 1])
def test_rho_estimate_matches_dense_eigenvalues(s):
    system = small_system(s)
    Md = dense_M(system)
    Ninv = np.linalg.inv(dense_G(system))
    Minv = np.linalg.inv(Md)
    per_eq = []
    normal = np.zeros_like(Md)
    for r in range(1, system.R + 1):
        H = dense_Hr(system, r)
        HtNH = H.T @ Ninv @ H
        per_eq.append(np.max(np.linalg.eigvals(Minv @ HtNH).real))
        normal += HtNH
    np.testing.assert_allclose(rho_estimate(system), max(per_eq), rtol=1e-6)
    want_stacked = np.max(np.linalg.eigvals(Minv @ normal).real)
    np.testing.assert_allclose(rho_estimate(system, stacked=True), want_stacked, rtol=1e-6)


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("beta", [0.01, 1.0])
def test_spatial_factor_has_unit_largest_eigenvalue(s, beta):
    # Psi is G plus PSD gradient terms that vanish on constants, which the spatial span holds
    basis = preset_basis("tiny", s, beta=beta)
    system = build_forward_system(basis, kernel_theta_integrals(preset_template("tiny"), basis))
    lam = scipy.linalg.eigh(dense_G(system), dense_Psi(basis), eigvals_only=True)
    assert abs(lam[-1] - 1.0) <= 1e-12
    # per axis: the eigenvalues of Psi^-1 G are 1 / (1 + E)
    E = gram_eigenbasis(basis.omega_grids, basis.beta[:2], s)[1]
    assert abs(np.max(1.0 / (1.0 + E)) - 1.0) <= 1e-12
    assert abs(np.linalg.eigvals(system.Psi_inv_G).real.max() - 1.0) <= 1e-12


@pytest.mark.parametrize("s", [0, 1])
def test_rho_estimate_is_closed_form(s):
    basis = preset_basis("tiny", s, beta=1.0)
    system = build_forward_system(basis, kernel_theta_integrals(preset_template("tiny"), basis))
    assert rho_estimate(system) == np.max(system.q_Phi_q)
    Md = dense_M(system)
    Gd = dense_G(system)
    normal = np.zeros_like(Md)
    for r in range(1, system.R + 1):
        H = dense_Hr(system, r)
        normal += H.T @ np.linalg.solve(Gd, H)
    want = scipy.linalg.eigh(normal, Md, eigvals_only=True)[-1]
    np.testing.assert_allclose(rho_estimate(system, stacked=True), want, rtol=1e-10)


def test_input_validation():
    system = small_system(0)
    M = system.N * system.L
    with pytest.raises(ValueError):
        apply_Hr(system, np.zeros(M + 1), 1)
    with pytest.raises(ValueError):
        apply_Hr(system, np.zeros(M), 0)
    with pytest.raises(ValueError):
        apply_Hr(system, np.zeros(M), system.R + 1)
    for r in (1.5, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"r={r}"):
            apply_Hr(system, np.zeros(M), r)
    with pytest.raises(ValueError, match="leading dimension"):
        sample_norm(system, np.float64(1.0))
    with pytest.raises(ValueError):
        apply_Hr_T(system, np.zeros(system.N + 2), 1)
    with pytest.raises(ValueError):
        build_forward_system(system.basis, np.zeros((3, 4)))


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("beta", [0.0, 0.01, 1.0])
def test_psi_inv_G_matches_dense_solve(s, beta):
    basis = preset_basis("tiny", s, beta=beta)
    system = build_forward_system(basis, kernel_theta_integrals(preset_template("tiny"), basis))
    want = np.linalg.solve(dense_Psi(basis), dense_G(system))
    np.testing.assert_allclose(system.Psi_inv_G, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    if s == 0 or beta == 0.0:
        assert np.array_equal(system.Psi_inv_G, np.eye(system.N))


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("beta", [0.01, 1.0])
def test_phi_inv_Q_matches_dense_solve(s, beta):
    basis = preset_basis("tiny", s, beta=beta)
    system = build_forward_system(basis, kernel_theta_integrals(preset_template("tiny"), basis))
    want = np.linalg.solve(dense_Phi(basis), system.Q)
    np.testing.assert_allclose(system.Phi_inv_Q, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("s", [0, 1])
def test_step_factors_are_stored_in_the_layout_the_kernel_reads(s):
    # the compiled sweep reads the N x N spatial factors row by row and the L x R factors
    # column by column, with no conversion
    basis = preset_basis("tiny", s, beta=0.01)
    system = build_forward_system(basis, kernel_theta_integrals(preset_template("tiny"), basis))
    spatial, kernel = [system.Psi_inv_G], [system.Phi_inv_Q]
    if s == 0:
        spatial.append(system.Zx_GG)
        kernel.append(system.ZTheta_Q)
    assert all(S.shape == (system.N, system.N) and S.flags.c_contiguous for S in spatial)
    assert all(P.shape == (system.L, system.R) and P.flags.f_contiguous for P in kernel)


# -- smoothing stencil -------------------------------------------------------


def zs_basis():
    omega = (uniform_axis(-1.0, 1.0, 4), uniform_axis(-1.0, 1.0, 4))
    theta = (
        uniform_axis(-1000.0, 1000.0, 5),
        uniform_axis(-2.0, 0.0, 4),
        uniform_axis(1.0, 13.0, 4),
    )
    return make_basis(0, omega, theta)


def test_apply_Zs_identity_and_constant():
    # replicate edges fix constants on axes of any length, the 1- and 2-cell ones too
    rng = np.random.default_rng(11)
    for shape in (zs_basis().shape5, (2, 1, 3, 2, 1)):
        u = rng.standard_normal(shape)
        np.testing.assert_array_equal(apply_Zs(u, np.ones(1), 5), u)
        const = np.full(shape, 3.25)
        np.testing.assert_allclose(apply_Zs(const, SMOOTHING_TAPS, 5), const, rtol=0, atol=1e-13)


def test_apply_Zs_impulse_pattern():
    basis = zs_basis()
    u5 = np.zeros(basis.shape5)
    u5[1, 1, 2, 1, 1] = 1.0
    out = apply_Zs(u5, SMOOTHING_TAPS, 5)
    tap = np.array([0.25, 0.5, 0.25])
    want = np.einsum("a,b,c,d,e->abcde", *([tap] * 5))
    np.testing.assert_allclose(out[0:3, 0:3, 1:4, 0:3, 0:3], want, rtol=0, atol=1e-15)
    assert abs(out.sum() - 1.0) <= 1e-12


def test_apply_Zs_preserves_sum_with_triangle():
    basis = zs_basis()
    rng = np.random.default_rng(12)
    u = rng.random(basis.shape5)
    out = apply_Zs(u, SMOOTHING_TAPS, 5)
    np.testing.assert_allclose(out.sum(), u.sum(), rtol=1e-10)


@pytest.mark.parametrize("taps", [SMOOTHING_TAPS, np.ones(1)], ids=["triangle", "identity"])
def test_reduced_rho_matches_dense_spectral_radius(monkeypatch, taps):
    # t is geometric; the second basis has axes of 1 and 2 cells, narrower than the triangle;
    # each system is built after the stencil is set, since it keeps its smoothed factors
    monkeypatch.setattr(pnkr.forward, "SMOOTHING_TAPS", taps)
    wide = (
        (uniform_axis(-1.0, 1.0, 4), uniform_axis(-1.0, 1.0, 5)),
        (uniform_axis(-1000.0, 1000.0, 5), uniform_axis(-2.0, 0.0, 4), geometric_axis(1.0, 13.0, 4)),
    )
    narrow = (
        (uniform_axis(-1.0, 1.0, 3), uniform_axis(-1.0, 1.0, 2)),
        (uniform_axis(-1000.0, 1000.0, 4), uniform_axis(-2.0, 0.0, 3), geometric_axis(1.0, 13.0, 2)),
    )
    for omega, theta in (wide, narrow):
        basis = make_basis(0, omega, theta)
        rng = np.random.default_rng(14)
        system = build_forward_system(basis, rng.random((basis.L, 4)))
        NL = basis.N * basis.L
        Gd = dense_G(system)
        radii = []
        for r in range(1, system.R + 1):
            # the reduced step's operator c_N^-1 Z_s H_r^T H_r, column by column
            T = np.empty((NL, NL))
            for i in range(NL):
                U = np.zeros((basis.N, basis.L))
                U.flat[i] = 1.0
                raw = np.outer(Gd @ (Gd @ (U @ system.Q[:, r - 1])), system.Q[:, r - 1]).reshape(-1)
                T[:, i] = apply_Zs(raw.reshape(basis.shape5), taps, 5).reshape(-1) / system.c_N
            radii.append(np.abs(np.linalg.eigvals(T)).max())
        np.testing.assert_allclose(reduced_rho(system), max(radii), rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-3.0, 3.0, allow_nan=False),
    b=st.floats(-3.0, 3.0, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
)
def test_apply_Zs_is_linear(a, b, seed):
    basis = zs_basis()
    rng = np.random.default_rng(seed)
    u1 = rng.standard_normal(basis.shape5)
    u2 = rng.standard_normal(basis.shape5)
    lhs = apply_Zs(a * u1 + b * u2, SMOOTHING_TAPS, 5)
    rhs = a * apply_Zs(u1, SMOOTHING_TAPS, 5) + b * apply_Zs(u2, SMOOTHING_TAPS, 5)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10 * max(1.0, np.abs(rhs).max()))
