"""Ground-truth mixture, noise generation, and projection oracles."""

import dataclasses

import numpy as np
import pytest

from pnkr.forward import build_forward_system, sample_norm, synthesize_datacube
from pnkr.grid_basis import axis_weights, make_basis, uniform_axis
from pnkr.mock import (
    ComponentSpec,
    DataCube,
    add_noise,
    default_components,
    evaluate_ground_truth,
    ground_truth_parts,
    read_datacube,
    write_datacube,
)

from _oracles import (
    dense_G,
    dense_M,
    dense_stacked_operator,
    project_row_space,
    project_row_space_factored,
    row_space_image,
)


def desk_like_basis(s=0):
    omega = (uniform_axis(-1.0, 1.0, 13), uniform_axis(-1.0, 1.0, 13))
    theta = (
        uniform_axis(-1000.0, 1000.0, 15),
        uniform_axis(-2.66, 0.36, 5),
        uniform_axis(0.5, 14.0, 9),
    )
    return make_basis(s, omega, theta)


def tiny_basis(s=0):
    omega = (uniform_axis(-1.0, 1.0, 4), uniform_axis(-1.0, 1.0, 4))
    theta = (
        uniform_axis(-1000.0, 1000.0, 4),
        uniform_axis(-2.0, 0.0, 3),
        uniform_axis(1.0, 13.0, 3),
    )
    return make_basis(s, omega, theta)


def tiny_system(s=0, R=6, seed=0):
    basis = tiny_basis(s)
    rng = np.random.default_rng(seed)
    Q = np.abs(rng.standard_normal((basis.L, R))) + 0.1
    return build_forward_system(basis, Q)


def test_default_fractions():
    comps = default_components()
    assert [c.mass_fraction for c in comps] == [0.70, 0.29, 0.01]


def test_fraction_sum_validated():
    comps = list(default_components())
    bad = ComponentSpec(**{**comps[0].__dict__, "mass_fraction": 0.5})
    with pytest.raises(ValueError):
        evaluate_ground_truth([bad, comps[1], comps[2]], tiny_basis())


def test_component_validation():
    base = default_components()[0].__dict__
    with pytest.raises(ValueError):
        ComponentSpec(**{**base, "sigma0": 5.0})
    with pytest.raises(ValueError):
        ComponentSpec(**{**base, "mass_fraction": 1.5})
    with pytest.raises(ValueError):
        ComponentSpec(**{**base, "z_width": 0.0})
    with pytest.raises(ValueError):
        ComponentSpec(**{**base, "ridge_radius": 0.5})


@pytest.mark.parametrize("s", [0, 1])
def test_unit_mass_and_nonnegativity(s):
    basis = desk_like_basis(s)
    u = evaluate_ground_truth(default_components(), basis)
    assert np.all(u >= 0.0)
    weights = [axis_weights(g, basis.s) for g in basis.grids]
    total = np.einsum("abcde,a,b,c,d,e->", u.reshape(basis.shape5), *weights, optimize=True)
    np.testing.assert_allclose(total, 1.0, rtol=1e-12)


def test_component_fractions_exact_after_discretization():
    basis = desk_like_basis(0)
    parts = ground_truth_parts(default_components(), basis)
    weights = [axis_weights(g, basis.s) for g in basis.grids]
    masses = [np.einsum("abcde,a,b,c,d,e->", p, *weights, optimize=True) for p in parts]
    np.testing.assert_allclose(masses, [0.70, 0.29, 0.01], rtol=1e-12)
    assert masses[2] <= 0.015


def test_symmetric_component_is_even():
    comp = ComponentSpec(
        name="blob",
        mass_fraction=1.0,
        scale_x1=0.5,
        scale_x2=0.5,
        v_amp=0.0,
        v_turnover=0.2,
        sigma0=80.0,
        sigma_amp=0.0,
        sigma_scale=0.3,
        z_mean=-1.0,
        z_width=0.4,
        t_mean=7.0,
        t_width=2.0,
    )
    basis = tiny_basis(0)
    u5 = evaluate_ground_truth([comp], basis).reshape(basis.shape5)
    np.testing.assert_allclose(u5, u5[::-1, ::-1], rtol=0, atol=1e-12 * u5.max())


def test_losvd_bimodal_on_disk_plane():
    basis = desk_like_basis(0)
    u5 = evaluate_ground_truth(default_components(), basis).reshape(basis.shape5)
    x1 = basis.grids[0].centers
    x2 = basis.grids[1].centers
    a = int(np.argmin(np.abs(x1 - 0.5)))
    b = int(np.argmin(np.abs(x2 - 0.05)))
    wz = axis_weights(basis.grids[3], basis.s)
    wt = axis_weights(basis.grids[4], basis.s)
    losvd = np.einsum("cde,d,e->c", u5[a, b], wz, wt)
    interior = losvd[1:-1]
    n_max = int(np.sum((interior > losvd[:-2]) & (interior > losvd[2:])))
    assert n_max >= 2


def test_add_noise_deterministic_and_zero_level():
    system = tiny_system()
    rng = np.random.default_rng(3)
    u = rng.random(system.N * system.L)
    y = synthesize_datacube(system, u)
    a = add_noise(system, y, 0.01, seed=42)
    b = add_noise(system, y, 0.01, seed=42)
    np.testing.assert_array_equal(a.y_noisy, b.y_noisy)
    np.testing.assert_array_equal(a.delta_r, b.delta_r)
    c = add_noise(system, y, 0.01, seed=43)
    assert np.any(c.y_noisy != a.y_noisy)
    zero = add_noise(system, y, 0.0, seed=42)
    np.testing.assert_array_equal(zero.y_noisy, y)
    assert zero.delta == 0.0


def test_noise_level_realized():
    # the [0.8, 1.2] band needs the concentration of a desk-sized sample count
    basis = desk_like_basis(0)
    rng = np.random.default_rng(4)
    R = 96
    Q = np.abs(rng.standard_normal((basis.L, R))) + 0.1
    system = build_forward_system(basis, Q)
    y = rng.random((system.N, R)) + 0.2
    y_norm = float(np.sqrt(np.sum(np.atleast_1d(sample_norm(system, y)) ** 2)))
    ratios = []
    for seed in range(15):
        ns = add_noise(system, y, 0.01, seed=seed)
        assert abs(ns.delta**2 - np.sum(ns.delta_r**2)) <= 1e-12 * ns.delta**2
        ratios.append(ns.delta / y_norm)
    ratios = np.array(ratios)
    assert np.all(ratios >= 0.8 * 0.01)
    assert np.all(ratios <= 1.2 * 0.01)


def test_noise_zero_mean_across_seeds():
    system = tiny_system()
    rng = np.random.default_rng(5)
    u = rng.random(system.N * system.L)
    y = synthesize_datacube(system, u)
    acc = np.zeros_like(y)
    sigma = None
    for seed in range(15):
        ns = add_noise(system, y, 0.05, seed=seed)
        acc += ns.y_noisy - ns.y_clean
        sigma = ns.sigma_map
    mean = acc / 15.0
    assert np.all(np.abs(mean) <= 3.0 * sigma / np.sqrt(15.0) + 1e-15)


@pytest.mark.parametrize("s", [0, 1])
def test_projection_fixes_row_space_and_kills_null_space(s):
    system = tiny_system(s)
    A = dense_stacked_operator(system)
    rng = np.random.default_rng(6)
    u_row = A.T @ rng.standard_normal(A.shape[0])
    got = project_row_space(u_row, system)
    np.testing.assert_allclose(got, u_row, rtol=0, atol=1e-8 * np.abs(u_row).max())
    _, svals, Vt = np.linalg.svd(A)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    null_vec = Vt[rank:].T @ rng.standard_normal(Vt.shape[0] - rank)
    np.testing.assert_allclose(project_row_space(null_vec, system), 0.0, atol=1e-8 * np.abs(null_vec).max())
    u = rng.standard_normal(system.N * system.L)
    once = project_row_space(u, system)
    twice = project_row_space(once, system)
    np.testing.assert_allclose(twice, once, rtol=0, atol=1e-8 * np.abs(once).max())
    resid = A @ (u - once)
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(A @ u)


@pytest.mark.parametrize("s", [0, 1])
def test_factored_projection_matches_dense(s):
    system = tiny_system(s)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.standard_normal(system.N * system.L)
        dense = project_row_space(u, system)
        fact = project_row_space_factored(u, system)
        np.testing.assert_allclose(fact, dense, rtol=0, atol=1e-10 * max(1.0, np.abs(dense).max()))


def test_projection_size_cap():
    system = tiny_system()
    with pytest.raises(ValueError):
        project_row_space(np.zeros(system.N * system.L), system, size_cap=50)


@pytest.mark.parametrize("s", [0, 1])
def test_row_space_image_matches_dense_normal_operator(s):
    system = tiny_system(s)
    A = dense_stacked_operator(system)
    N, L, R = system.N, system.L, system.R
    G = dense_G(system)
    Md = dense_M(system)
    acc = np.zeros((N * L, N * L))
    for r in range(R):
        Hr = A[r * N : (r + 1) * N]
        acc += Hr.T @ np.linalg.solve(G, Hr)
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.standard_normal(N * L)
        want = np.linalg.solve(Md, acc @ u)
        got = row_space_image(u, system)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("s", [0, 1])
def test_row_space_image_lies_in_reachable_span(s):
    # the image must be a combination of the step directions Phi^-1 q_r,
    # site by site, or runs from zero could never converge to it
    system = tiny_system(s)
    basis = tiny_basis(s)
    u = evaluate_ground_truth(default_components(), basis)
    img = row_space_image(u, system).reshape(system.N, system.L)
    D = system.Phi_inv_Q
    coef, *_ = np.linalg.lstsq(D, img.T, rcond=None)
    np.testing.assert_allclose(D @ coef, img.T, rtol=0, atol=1e-8 * np.abs(img).max())


def written_cube(tmp_path):
    """A random tiny datacube (R = 5, seed 123) and the path it was written to."""
    basis = tiny_basis(0)
    rng = np.random.default_rng(8)
    n1 = basis.grids[0].n_cells
    n2 = basis.grids[1].n_cells
    R = 5
    cube = DataCube(
        x1_nodes=basis.grids[0].nodes,
        x2_nodes=basis.grids[1].nodes,
        lambda_obs=np.linspace(480.0, 570.0, R),
        samples=rng.random((n1 * n2, R)),
        delta_r=rng.random(R),
        seed=123,
    )
    path = tmp_path / "cube.pnkd"
    write_datacube(cube, path)
    return cube, path


def test_datacube_round_trip(tmp_path):
    cube, path = written_cube(tmp_path)
    back = read_datacube(path)
    np.testing.assert_array_equal(back.samples, cube.samples)
    np.testing.assert_array_equal(back.x1_nodes, cube.x1_nodes)
    np.testing.assert_array_equal(back.x2_nodes, cube.x2_nodes)
    np.testing.assert_array_equal(back.lambda_obs, cube.lambda_obs)
    np.testing.assert_array_equal(back.delta_r, cube.delta_r)
    assert back.seed == 123
    write_datacube(back, tmp_path / "again.pnkd")
    assert (tmp_path / "again.pnkd").read_bytes() == path.read_bytes()


def test_datacube_layout(tmp_path):
    # the documented layout, built by hand on 3 x 2 sites and 2 channels:
    # magic, the <u4 words version 1 and the x1, x2 and channel counts, <f8
    # nodes, channels, samples (channel slowest, then x2, x1 fastest) and
    # delta_r, then the <u8 seed
    x1, x2, lam = np.array([0.0, 1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 1.0]), np.array([500.0, 510.0])
    samples = np.arange(12.0).reshape(6, 2) / 7.0  # site (i, j) is row 2 i + j
    cube = DataCube(x1_nodes=x1, x2_nodes=x2, lambda_obs=lam, samples=samples,
                    delta_r=np.array([0.25, 0.5]), seed=2**63 + 5)
    path = tmp_path / "cube.pnkd"
    write_datacube(cube, path)
    payload = [samples[2 * i + j, r] for r in range(2) for j in range(2) for i in range(3)]
    floats = np.concatenate([x1, x2, lam, payload, cube.delta_r]).astype("<f8")
    expected = b"PNKD" + np.array([1, 4, 3, 2], dtype="<u4").tobytes() + floats.tobytes()
    assert path.read_bytes() == expected + np.array([2**63 + 5], dtype="<u8").tobytes()


def test_datacube_rejects_a_non_integral_seed(tmp_path):
    cube, _ = written_cube(tmp_path)
    path = tmp_path / "fractional.pnkd"
    with pytest.raises(ValueError, match="seed=4.7"):
        write_datacube(dataclasses.replace(cube, seed=4.7), path)
    assert not path.exists()


@pytest.mark.parametrize("nodes", [0, 1])
def test_datacube_rejects_too_few_spatial_nodes(tmp_path, nodes):
    # a header of fewer than two nodes per spatial axis, padded so that no read runs short
    path = tmp_path / "cube.pnkd"
    path.write_bytes(b"PNKD" + np.array([1, nodes, nodes, 2], dtype="<u4").tobytes() + np.zeros(64).tobytes())
    with pytest.raises(ValueError, match="x1 needs at least two nodes"):
        read_datacube(path)


# bytes cut from the end of the file, whose tail is the sample payload,
# then the 5 x 8-byte delta_r block, then the 8-byte seed
TRUNCATIONS = {"in-seed": 4, "whole-seed": 8, "in-delta_r": 28, "whole-delta_r": 48, "in-payload": 60}


@pytest.mark.parametrize("cut", TRUNCATIONS.values(), ids=TRUNCATIONS.keys())
def test_datacube_rejects_truncated_file(tmp_path, cut):
    _, path = written_cube(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:-cut])
    with pytest.raises(ValueError, match="datacube file truncated"):
        read_datacube(path)


def test_datacube_bad_magic(tmp_path):
    path = tmp_path / "junk.pnkd"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_datacube(path)
