import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnkr.forward import build_forward_system
from pnkr.grid_basis import (
    axis_first_moments,
    axis_weights,
    basis_integral_weights,
    build_gram_matrices,
    eval_axis_basis,
    explicit_axis,
    geometric_axis,
    gram_eigenbasis,
    make_basis,
    uniform_axis,
)
from pnkr.grid_basis import _GAUSS_RULE, _axis_factors, _axis_panels, _breakpoints, _open_binary, _write_binary
from pnkr.presets import PRESET_NAMES, preset_axes, preset_basis
from pnkr.solver import write_coefficients

from _oracles import coefficients_to_function, dense_Phi, dense_Psi


def small_basis(s, beta=0.0):
    return make_basis(
        s,
        (uniform_axis(-1.0, 1.0, 4), uniform_axis(-1.0, 1.0, 5)),
        (
            uniform_axis(-1000.0, 1000.0, 4),
            uniform_axis(-2.66, 0.36, 3),
            geometric_axis(0.015, 14.25, 3),
        ),
        beta,
    )


# -- axis construction -------------------------------------------------------


def test_axis_validation():
    with pytest.raises(ValueError):
        uniform_axis(0.0, 1.0, 1)
    with pytest.raises(ValueError, match="count must be at least 2"):
        geometric_axis(0.5, 1.0, 1)
    with pytest.raises(ValueError):
        uniform_axis(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        geometric_axis(-1.0, 1.0, 5)
    with pytest.raises(ValueError):
        explicit_axis([0.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        explicit_axis([0.0, np.nan, 1.0])
    # a non-finite window would give nodes [nan, inf, inf] and [1, inf, inf]
    with pytest.raises(ValueError, match="finite"):
        uniform_axis(0.0, np.inf, 3)
    with pytest.raises(ValueError, match="finite"):
        geometric_axis(1.0, np.inf, 3)
    with pytest.raises(ValueError, match="finite"):
        uniform_axis(np.nan, 1.0, 3)
    # so would a finite window whose span overflows
    with pytest.raises(ValueError, match="finite"):
        uniform_axis(-1e308, 1e308, 3)


def test_axis_geometry():
    g = uniform_axis(-1.0, 1.0, 26)
    assert g.n_cells == 25
    assert np.allclose(g.centers, g.nodes[:-1] + 0.04)

    t = geometric_axis(0.015, 14.25, 19)
    ratios = t.nodes[1:] / t.nodes[:-1]
    assert np.allclose(ratios, ratios[0])

    e = explicit_axis([0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(e.nodes, [0.0, 1.0, 2.0, 3.0])


# -- axis basis evaluation ---------------------------------------------------


def test_s0_eval_is_indicator():
    g = uniform_axis(0.0, 1.0, 5)
    V = eval_axis_basis(g, 0, np.array([0.1, 0.3, 0.999, 1.0, -0.2, 1.3]))
    assert V[0, 0] == 1.0 and V[0].sum() == 1.0
    assert V[1, 1] == 1.0
    assert V[2, 3] == 1.0
    assert V[3, 3] == 1.0  # right boundary belongs to the last cell
    assert V[4].sum() == 0.0 and V[5].sum() == 0.0


def test_s1_eval_interpolates_midpoints():
    g = uniform_axis(0.0, 1.0, 6)
    V = eval_axis_basis(g, 1, g.centers)
    np.testing.assert_allclose(V, np.eye(5), atol=1e-14)
    # flat continuation outside the outermost midpoints
    V = eval_axis_basis(g, 1, np.array([0.0, 0.05, 0.97, 1.0]))
    assert V[0, 0] == 1.0 and V[1, 0] == 1.0
    assert V[2, 4] == 1.0 and V[3, 4] == 1.0


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.lists(
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        min_size=2,
        max_size=12,
        unique=True,
    ),
    s=st.integers(min_value=0, max_value=1),
    frac=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
)
def test_partition_of_unity_property(nodes, s, frac):
    arr = np.sort(np.asarray(nodes))
    if np.min(np.diff(arr)) < 1e-6:
        return
    g = explicit_axis(arr)
    x = np.clip(g.lo + np.asarray(frac) * (g.hi - g.lo), g.lo, g.hi)
    V = eval_axis_basis(g, s, x)
    assert np.all(V >= 0.0)
    np.testing.assert_allclose(V.sum(axis=1), 1.0, atol=1e-12)
    # at most two basis functions overlap anywhere
    assert np.max((V > 0).sum(axis=1)) <= 2


# -- axis weights and moments ------------------------------------------------


@pytest.mark.parametrize("s", [0, 1])
def test_axis_weights_and_moments(s):
    g = explicit_axis([0.0, 0.5, 1.25, 2.0, 2.3])
    w = axis_weights(g, s)
    m = axis_first_moments(g, s)
    # partition of unity integrates the constant and identity exactly
    assert w.sum() == pytest.approx(g.hi - g.lo, abs=1e-14)
    assert m.sum() == pytest.approx((g.hi**2 - g.lo**2) / 2, abs=1e-13)
    # dense quadrature oracle; indicator jumps limit s=0 to first order
    x = np.linspace(g.lo, g.hi, 200001)
    V = eval_axis_basis(g, s, x)
    tol = 3e-5 if s == 0 else 5e-8
    np.testing.assert_allclose(np.trapezoid(V, x, axis=0), w, atol=tol)
    np.testing.assert_allclose(np.trapezoid(V * x[:, None], x, axis=0), m, atol=tol)


def test_uniform_axis_weights_are_constant():
    g = uniform_axis(-1.0, 1.0, 26)
    for s in (0, 1):
        np.testing.assert_allclose(axis_weights(g, s), 0.08, rtol=1e-13)


@pytest.mark.parametrize("s", [0, 1])
def test_axis_panels_tile_the_pieces_between_breakpoints_and_cuts(s):
    g = geometric_axis(0.015, 14.25, 7)
    # one cut below the axis, two inside (one listed twice), one above
    x, w = _axis_panels(g, s, [-1.0, 0.7, 3.3, 3.3, 20.0])
    ends = np.union1d(_breakpoints(g, s), [0.7, 3.3])
    assert x.shape == w.shape == (len(ends) - 1, 3)
    # every panel lies inside one piece, and its weights add up to that piece
    piece = np.searchsorted(ends, x)
    assert np.all(piece == np.arange(1, len(ends))[:, None])
    np.testing.assert_allclose(w.sum(axis=1), np.diff(ends), rtol=1e-14)
    assert w.sum() == pytest.approx(g.hi - g.lo, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("s", [0, 1])
def test_axis_panels_ignore_a_cut_next_to_a_breakpoint(s):
    g = uniform_axis(-1.0, 1.0, 6)
    ends = _breakpoints(g, s)
    xg, wg = _GAUSS_RULE
    half = 0.5 * np.diff(ends)[:, None]
    bp = ends[2]
    for cut in (bp - 1e-13 * 2.0, bp + 1e-13 * 2.0, g.hi - 1e-13 * 2.0):
        # the breakpoint wins over the cut, so every panel runs between two breakpoints
        x, w = _axis_panels(g, s, [cut])
        assert np.array_equal(x, ends[:-1, None] + half * (xg + 1.0))
        assert np.array_equal(w, half * wg)
        if s == 0:
            cells = eval_axis_basis(g, 0, x.ravel()).T @ w.ravel()
            np.testing.assert_allclose(cells, g.widths, rtol=0, atol=1e-15)
    assert len(_axis_panels(g, s, [bp + 1e-11 * 2.0])[0]) == len(ends)


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("s", [0, 1])
def test_mass_factors_and_G_are_exactly_symmetric(name, s):
    # eigh(B, A) reads one triangle of A, and G = A_x1 (x) A_x2 must agree with it
    for grid in preset_axes(name).values():
        A, B = _axis_factors(grid, s)
        assert np.array_equal(A, A.T)
        assert np.array_equal(B, B.T)
    G = np.kron(*build_gram_matrices(preset_basis(name, s)))
    assert np.array_equal(G, G.T)


# -- Gram assembly -----------------------------------------------------------


def test_s0_gram_is_scaled_identity_on_square():
    basis = make_basis(
        0,
        (uniform_axis(-1.0, 1.0, 26), uniform_axis(-1.0, 1.0, 26)),
        (
            uniform_axis(-1000.0, 1000.0, 4),
            uniform_axis(-2.66, 0.36, 3),
            geometric_axis(0.015, 14.25, 3),
        ),
    )
    G = np.kron(*build_gram_matrices(basis))
    assert G.shape == (625, 625)
    assert np.array_equal(G, np.diag(np.diag(G)))
    np.testing.assert_allclose(np.diag(G), 0.0064, rtol=1e-13)


def factor_of(basis, domain):
    """``(grids, beta, dense Gram factor)`` of the spatial or the (v, z, t) domain."""
    if domain == "omega":
        return basis.omega_grids, basis.beta, dense_Psi(basis)
    return basis.theta_grids, basis.beta, dense_Phi(basis)


def kron_all(mats):
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, m)
    return out


@pytest.mark.parametrize("domain", ["omega", "theta"])
def test_s0_grams_always_diagonal(domain):
    # cellwise constants carry no broken gradient, so beta never contributes
    basis = small_basis(0, beta=0.7)
    grids, beta, M = factor_of(basis, domain)
    assert np.count_nonzero(M - np.diag(np.diag(M))) == 0
    assert np.all(np.diag(M) > 0)
    V, E = gram_eigenbasis(grids, beta, 0)
    assert np.all(E == 0.0)
    Vd = kron_all(V)
    np.testing.assert_allclose(Vd @ Vd.T, np.diag(1.0 / np.diag(M)), rtol=1e-12, atol=0)


def test_hat_factor_matches_closed_form():
    # interior entries of the 1D hat mass factor: 2h/3 diagonal, h/6 off
    g = uniform_axis(0.0, 1.0, 11)
    h = 0.1
    Ad, Bd = _axis_factors(g, 1)
    for i in range(2, 8):
        assert abs(Ad[i, i] - 2 * h / 3) <= 1e-14
        assert abs(Ad[i, i + 1] - h / 6) <= 1e-14
    np.testing.assert_allclose(np.diag(Bd)[1:-1], 2 / h, rtol=1e-12)
    np.testing.assert_allclose(np.diag(Bd, 1), -1 / h, rtol=1e-12)
    np.testing.assert_allclose(Bd[0, 0], 1 / h, rtol=1e-12)


def hat_factors_closed_form(grid):
    """Dense 1D hat mass and gradient factors, piece by piece in closed form.

    On a strip between the domain edge and the outermost midpoint the end
    hat is the constant 1; between midpoints ``g`` apart the two linear
    hats give ``g/3`` on the diagonal and ``g/6`` off it.
    """
    c = grid.centers
    n = grid.n_cells
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    A[0, 0] += c[0] - grid.lo
    A[n - 1, n - 1] += grid.hi - c[-1]
    for j, g in enumerate(np.diff(c), start=1):
        A[j - 1, j - 1] += g / 3
        A[j, j] += g / 3
        A[j - 1, j] = A[j, j - 1] = g / 6
        B[j - 1, j - 1] += 1 / g
        B[j, j] += 1 / g
        B[j - 1, j] = B[j, j - 1] = -1 / g
    return A, B


def test_gram_matches_closed_form_on_geometric_axis():
    # non-uniform midpoint spacing, both boundary strips, and one
    # beta-weighted gradient term per axis
    g = geometric_axis(0.015, 14.25, 6)
    A, B = _axis_factors(g, 1)
    A_ref, B_ref = hat_factors_closed_form(g)
    np.testing.assert_allclose(A, A_ref, rtol=1e-14, atol=0)
    np.testing.assert_allclose(B, B_ref, rtol=1e-14, atol=0)

    beta = 0.7
    basis = make_basis(
        1,
        small_basis(1).omega_grids,
        (uniform_axis(-1000.0, 1000.0, 4), uniform_axis(-2.66, 0.36, 3), g),
        beta,
    )
    (Av, Bv), (Az, Bz), (At, Bt) = (hat_factors_closed_form(ax) for ax in basis.theta_grids)

    def kron3(a, b, c):
        return np.kron(np.kron(a, b), c)

    expected = (
        kron3(Av, Az, At)
        + beta * kron3(Bv, Az, At)
        + beta * kron3(Av, Bz, At)
        + beta * kron3(Av, Az, Bt)
    )
    np.testing.assert_allclose(dense_Phi(basis), expected, rtol=1e-14, atol=1e-14 * np.abs(expected).max())
    Q = np.random.default_rng(5).standard_normal((basis.L, 7))
    want = np.linalg.solve(expected, Q)
    got = build_forward_system(basis, Q).Phi_inv_Q
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_make_basis_takes_one_finite_nonnegative_beta():
    # a per-axis beta used to build a basis that sweeps() refused for every config.beta
    for beta in ([0.3] * 5, (0.0, 0.0, 0.4, 0.7, 1.3), np.full(5, 0.3), [0.3], -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"beta must be one finite, nonnegative weight"):
            small_basis(1, beta)
    assert type(small_basis(1, np.float64(0.3)).beta) is float and small_basis(1, 1).beta == 1.0


def test_beta_zero_matches_l2():
    basis = small_basis(1, beta=0.0)
    Q = np.random.default_rng(6).standard_normal((basis.L, 7))
    system = build_forward_system(basis, Q)
    for domain in ("omega", "theta"):
        grids, beta, M = factor_of(basis, domain)
        l2 = kron_all([_axis_factors(g, 1)[0] for g in grids])
        assert np.abs(M - l2).max() <= 1e-10 * np.abs(l2).max()
        assert np.all(gram_eigenbasis(grids, beta, 1)[1] == 0.0)
    assert np.array_equal(system.Psi_inv_G, np.eye(basis.N))
    want = np.linalg.solve(kron_all([_axis_factors(g, 1)[0] for g in basis.theta_grids]), Q)
    assert np.abs(system.Phi_inv_Q - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("s,beta", [(0, 0.0), (0, 0.5), (1, 0.0), (1, 0.02), (1, 1.0)])
def test_gram_positive_definite(s, beta):
    basis = small_basis(s, beta)
    rng = np.random.default_rng(42)
    for dense in (dense_Psi(basis), dense_Phi(basis), np.kron(*build_gram_matrices(basis))):
        np.testing.assert_allclose(dense, dense.T, atol=1e-13 * np.abs(dense).max())
        for _ in range(100):
            u = rng.standard_normal(len(dense))
            assert u @ (dense @ u) > 0.0
    # the per-axis eigenbases give Psi^-1 and Phi^-1 the positive eigenvalues 1 / (1 + E)
    for domain in ("omega", "theta"):
        grids, beta, _ = factor_of(basis, domain)
        assert np.all(1.0 + gram_eigenbasis(grids, beta, s)[1] > 0.0)


def test_gram_kronecker_ordering():
    # theta flat index runs v-major, then z, then t; at beta = 0 the
    # inverse factor is the Kronecker product of the axis mass inverses
    basis = small_basis(1)
    Phi_inv = build_forward_system(basis, np.eye(basis.L)).Phi_inv_Q
    factors = [np.linalg.inv(_axis_factors(g, 1)[0]) for g in basis.theta_grids]
    nv, nz, nt = (g.n_cells for g in basis.theta_grids)
    rng = np.random.default_rng(7)
    for _ in range(20):
        iv, jv = rng.integers(0, nv, 2)
        iz, jz = rng.integers(0, nz, 2)
        it, jt = rng.integers(0, nt, 2)
        l1 = (iv * nz + iz) * nt + it
        l2 = (jv * nz + jz) * nt + jt
        expected = factors[0][iv, jv] * factors[1][iz, jz] * factors[2][it, jt]
        assert Phi_inv[l1, l2] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_gram_matrices_c_N():
    basis = make_basis(
        0,
        (uniform_axis(-1.0, 1.0, 26), uniform_axis(-1.0, 1.0, 26)),
        small_basis(0).theta_grids,
    )
    system = build_forward_system(basis, np.zeros((basis.L, 1)))
    assert system.c_N == pytest.approx(0.0064, rel=1e-13)


# -- evaluation of expansions ------------------------------------------------


@pytest.mark.parametrize("s", [0, 1])
def test_constant_expansion_evaluates_to_one(s):
    basis = small_basis(s)
    u = np.ones(basis.N * basis.L)
    pts = np.array(
        [
            [0.0, 0.0, 0.0, -1.0, 1.0],
            [-0.9, 0.7, -700.0, 0.1, 0.02],
            [1.0, -1.0, 1000.0, 0.36, 14.25],
        ]
    )
    np.testing.assert_allclose(coefficients_to_function(u, basis, pts), 1.0, atol=1e-12)


@pytest.mark.parametrize("s", [0, 1])
def test_coefficients_to_function_against_loop(s):
    basis = small_basis(s)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(basis.N * basis.L)
    point = np.array([0.31, -0.42, 213.0, -0.8, 2.4])
    mats = [eval_axis_basis(g, s, point[k : k + 1])[0] for k, g in enumerate(basis.grids)]
    expected = 0.0
    u5 = u.reshape(basis.shape5)
    for idx in np.ndindex(*basis.shape5):
        term = u5[idx]
        for k in range(5):
            term = term * mats[k][idx[k]]
        expected += term
    assert coefficients_to_function(u, basis, point) == pytest.approx(expected, rel=1e-12)


def test_integral_weights_match_quadrature():
    basis = small_basis(1)
    w_omega, w_theta = basis_integral_weights(basis)
    assert w_omega.shape == (basis.N,)
    assert w_theta.shape == (basis.L,)
    vol_omega = np.prod([g.hi - g.lo for g in basis.omega_grids])
    vol_theta = np.prod([g.hi - g.lo for g in basis.theta_grids])
    assert w_omega.sum() == pytest.approx(vol_omega, rel=1e-12)
    assert w_theta.sum() == pytest.approx(vol_theta, rel=1e-12)


# -- file helpers --------------------------------------------------------------


def test_binary_file_errors_name_the_kind(tmp_path):
    # the shared opener behind the template, datacube and coefficient readers
    path = tmp_path / "file.bin"
    _write_binary(path, b"ABCD", "sample", (3,), np.arange(3.0), np.array([2**64 - 1], dtype=np.uint64))
    with _open_binary(path, b"ABCD", 1, "sample") as ((count,), read):
        np.testing.assert_array_equal(read(count), np.arange(3.0))
        assert int(read(1, "<u8")[0]) == 2**64 - 1
        with pytest.raises(ValueError, match="sample file truncated"):
            read(1)
    with pytest.raises(ValueError, match="not a sample file: bad magic b'ABCD'"):
        with _open_binary(path, b"WXYZ", 1, "sample"):
            pass
    raw = bytearray(path.read_bytes())
    raw[4] = 2  # the low byte of the <u4 version word
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unsupported sample file version 2"):
        with _open_binary(path, b"ABCD", 1, "sample"):
            pass


@pytest.mark.parametrize("word", [2**32, -1])
def test_binary_header_word_out_of_range_leaves_no_file(tmp_path, word):
    path = tmp_path / "coefficients.pnku"
    with pytest.raises(ValueError, match=f"coefficient file header word {word} is outside the <u4 range"):
        write_coefficients(np.zeros(0), 0, word, 0, path)
    assert not path.exists()
    with pytest.raises(ValueError, match=f"sample file header word {word} "):
        _write_binary(path, b"ABCD", "sample", (1, word), np.arange(3.0))
    assert not path.exists()
