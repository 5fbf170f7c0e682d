"""Diagnostics tests: marginals, velocity distributions, fits, maps, export."""

import dataclasses
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnkr import diagnostics
from pnkr.diagnostics import (
    LOSVDSample,
    MomentMaps,
    _coefficient_array,
    _gauss_hermite_rows,
    _site_losvds,
    default_losvd_positions,
    density_mask,
    export_maps,
    gauss_hermite_fit,
    h5_feature_regions,
    h5_sign_match,
    light_integrals,
    light_weighted_losvd,
    losvd_recovery_error,
    marginals,
    mean_maps,
    moment_maps,
    normalized_hermite,
    read_losvd,
    read_maps,
)
from pnkr.forward import build_forward_system, synthesize_datacube
from pnkr.grid_basis import axis_weights, geometric_axis, make_basis, uniform_axis
from pnkr.mock import ComponentSpec, add_noise, default_components, evaluate_ground_truth
from pnkr.solver import SolveData, SolverConfig, read_history, run
from pnkr.templates import build_template_grid, kernel_theta_integrals

from _oracles import (
    envelope_cost,
    gauss_hermite_series,
    least_squares_gauss_hermite_fit,
    mass_weighted_losvd,
)

OMEGA_GRIDS = (uniform_axis(-1.0, 1.0, 4), uniform_axis(-1.0, 1.0, 4))
THETA_GRIDS = (
    uniform_axis(-1000.0, 1000.0, 4),
    uniform_axis(-2.0, 0.0, 3),
    uniform_axis(1.0, 13.0, 3),
)
GH_GRID = uniform_axis(-1000.0, 1000.0, 27).centers


@pytest.fixture(scope="module")
def tiny_template():
    return build_template_grid(
        480.0, 570.0, 8, 1100.0, np.linspace(-2.6, 0.3, 5), np.linspace(0.5, 14.0, 6)
    )


@pytest.fixture(scope="module", params=[0, 1], ids=["s0", "s1"])
def tiny_basis(request):
    return make_basis(request.param, OMEGA_GRIDS, THETA_GRIDS, beta=0.3 * request.param)


@pytest.fixture(scope="module")
def desk_basis():
    return make_basis(
        0,
        (uniform_axis(-1.0, 1.0, 13), uniform_axis(-1.0, 1.0, 13)),
        (
            uniform_axis(-1000.0, 1000.0, 15),
            uniform_axis(-2.66, 0.36, 5),
            geometric_axis(0.015, 14.25, 9),
        ),
    )


@pytest.fixture(scope="module")
def desk_template():
    return build_template_grid(
        480.0, 570.0, 96, 1100.0, np.linspace(-2.7, 0.4, 7), np.linspace(0.01, 14.3, 9)
    )


@pytest.fixture(scope="module")
def desk_truth(desk_basis):
    return evaluate_ground_truth(default_components(), desk_basis)


@pytest.fixture(scope="module")
def desk_maps(desk_truth, desk_basis, desk_template):
    return moment_maps(desk_truth, desk_basis, desk_template)


@pytest.fixture(scope="module")
def desk_run_u(desk_truth, desk_basis, desk_template):
    system = build_forward_system(desk_basis, kernel_theta_integrals(desk_template, desk_basis))
    noisy = add_noise(system, synthesize_datacube(system, desk_truth), 0.01, seed=0)
    data = SolveData(y=noisy.y_noisy, delta_r=noisy.delta_r)
    return run(SolverConfig(variant="pnkr", s=0, max_loops=20, seed=0), data, system).u


def _random_mixtures(count=20, seed=42):
    """Sums of one to three random Gaussians on ``GH_GRID``."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        p = np.zeros_like(GH_GRID)
        for _ in range(int(rng.integers(1, 4))):
            amp = rng.uniform(0.2, 1.0)
            center = rng.uniform(-400.0, 400.0)
            width = rng.uniform(60.0, 250.0)
            p += amp * np.exp(-0.5 * ((GH_GRID - center) / width) ** 2)
        rows.append(p)
    return np.array(rows)


def _site_samples(u, basis, template):
    """The normalized LOSVD of every site that ``moment_maps`` fits, with its site index."""
    P, light = _site_losvds(_coefficient_array(u, basis), basis, template)
    v = basis.theta_grids[0].centers
    fitted = density_mask(marginals(u, basis)) & light
    return [((i, j), LOSVDSample(x=(0.0, 0.0), v=v, p=P[i, j])) for i, j in zip(*np.nonzero(fitted))]


def _random_coefficients(basis, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 1.0, size=basis.N * basis.L)


# -- marginals ----------------------------------------------------------------


def test_uniform_coefficients_give_flat_density(tiny_basis):
    marg = marginals(np.ones(tiny_basis.N * tiny_basis.L), tiny_basis)
    area = 4.0
    z_span = 2.0
    t_span = 12.0
    assert marg.M_total > 0.0
    np.testing.assert_allclose(marg.p_x, 1.0 / area, rtol=1e-12)
    np.testing.assert_allclose(marg.p_xz, 1.0 / (area * z_span), rtol=1e-12)
    np.testing.assert_allclose(marg.p_xt, 1.0 / (area * t_span), rtol=1e-12)


def test_single_site_support(tiny_basis):
    u = np.zeros(tiny_basis.shape5)
    u[1, 2, 0, 1, 0] = 3.0
    marg = marginals(u.reshape(-1), tiny_basis)
    assert np.flatnonzero(marg.p_x).tolist() == [1 * 3 + 2]
    nz = np.argwhere(marg.p_xz != 0.0)
    np.testing.assert_array_equal(nz, [[1, 2, 1]])
    nt = np.argwhere(marg.p_xt != 0.0)
    np.testing.assert_array_equal(nt, [[1, 2, 0]])


def test_marginals_normalization_and_consistency(tiny_basis):
    u = _random_coefficients(tiny_basis, seed=11)
    marg = marginals(u, tiny_basis)
    w1 = axis_weights(tiny_basis.omega_grids[0], tiny_basis.s)
    w2 = axis_weights(tiny_basis.omega_grids[1], tiny_basis.s)
    wz = axis_weights(tiny_basis.theta_grids[1], tiny_basis.s)
    wt = axis_weights(tiny_basis.theta_grids[2], tiny_basis.s)
    total = float(np.einsum("ij,i,j->", marg.p_x, w1, w2))
    assert abs(total - 1.0) <= 1e-10
    np.testing.assert_allclose(np.einsum("ijb,b->ij", marg.p_xz, wz), marg.p_x, rtol=1e-12)
    np.testing.assert_allclose(np.einsum("ijc,c->ij", marg.p_xt, wt), marg.p_x, rtol=1e-12)


def test_marginals_zero_field(tiny_basis):
    marg = marginals(np.zeros(tiny_basis.N * tiny_basis.L), tiny_basis)
    assert marg.M_total == 0.0
    assert not marg.p_x.any()
    assert not density_mask(marg).any()
    mu_z, mu_t = mean_maps(marg)
    assert np.all(np.isnan(mu_z)) and np.all(np.isnan(mu_t))


@pytest.mark.parametrize("bad", ["shape", "negative", "nan"])
def test_marginals_rejects_invalid_coefficients(tiny_basis, bad):
    u = np.ones(tiny_basis.N * tiny_basis.L)
    if bad == "shape":
        u = u[:-1]
    elif bad == "negative":
        u[3] = -1e-9
    else:
        u[3] = np.nan
    with pytest.raises(ValueError):
        marginals(u, tiny_basis)


# -- mean maps ----------------------------------------------------------------


@pytest.mark.parametrize("s", [0, 1])
def test_mean_metallicity_single_interior_node(s):
    basis = make_basis(
        s,
        OMEGA_GRIDS,
        (THETA_GRIDS[0], uniform_axis(-2.0, 0.0, 5), THETA_GRIDS[2]),
    )
    b0 = 2
    u = np.zeros(basis.shape5)
    u[:, :, :, b0, :] = np.random.default_rng(5).uniform(0.5, 1.5, u[:, :, :, b0, :].shape)
    mu_z, _ = mean_maps(marginals(u.reshape(-1), basis))
    target = basis.theta_grids[1].centers[b0]
    np.testing.assert_allclose(mu_z, target, atol=1e-10)


def test_mean_metallicity_symmetric_profile(tiny_basis):
    u = np.zeros(tiny_basis.shape5)
    u[:, :, :, :, :] = 1.0
    u[:, :, :, 0, :] *= 2.5
    u[:, :, :, -1, :] *= 2.5
    mu_z, _ = mean_maps(marginals(u.reshape(-1), tiny_basis))
    np.testing.assert_allclose(mu_z, -1.0, atol=1e-10)


def test_mean_maps_within_axis_extents(tiny_basis):
    u = _random_coefficients(tiny_basis, seed=21)
    mu_z, mu_t = mean_maps(marginals(u, tiny_basis))
    gz, gt = tiny_basis.theta_grids[1], tiny_basis.theta_grids[2]
    assert np.all((mu_z >= gz.lo) & (mu_z <= gz.hi))
    assert np.all((mu_t >= gt.lo) & (mu_t <= gt.hi))


# -- velocity distributions ---------------------------------------------------


def test_losvd_normalization_and_positivity(tiny_basis, tiny_template):
    u = _random_coefficients(tiny_basis, seed=31)
    c1 = tiny_basis.omega_grids[0].centers
    c2 = tiny_basis.omega_grids[1].centers
    positions = [(c1[0], c2[1]), (c1[2], c2[2]), (0.1, -0.2)]
    for x in positions:
        for sample in (
            *light_weighted_losvd(u, tiny_basis, tiny_template, [x]),
            mass_weighted_losvd(u, tiny_basis, x),
        ):
            assert not sample.masked
            assert abs(float(np.trapezoid(sample.p, sample.v)) - 1.0) <= 1e-8
            assert np.all(sample.p >= 0.0)


def test_losvd_at_many_positions_is_each_position_bitwise(desk_truth, desk_basis, desk_template):
    positions = default_losvd_positions(desk_basis) + [(0.25, 0.3)]
    samples = light_weighted_losvd(desk_truth, desk_basis, desk_template, positions)
    assert len(samples) == len(positions)
    for x, sample in zip(positions, samples):
        [one] = light_weighted_losvd(desk_truth, desk_basis, desk_template, [x])
        assert sample.x == one.x == x and sample.masked == one.masked
        assert np.array_equal(sample.v, one.v) and np.array_equal(sample.p, one.p)
    assert light_weighted_losvd(desk_truth, desk_basis, desk_template, []) == []


def test_losvd_outside_domain_raises(tiny_basis, tiny_template):
    u = _random_coefficients(tiny_basis)
    with pytest.raises(ValueError, match="outside"):
        light_weighted_losvd(u, tiny_basis, tiny_template, [(5.0, 0.0)])


@pytest.mark.parametrize("position", [(0.1, 0.2, 0.3), (0.1,)], ids=["three", "one"])
def test_losvd_position_of_wrong_length_raises(tiny_basis, tiny_template, position):
    u = _random_coefficients(tiny_basis)
    with pytest.raises(ValueError, match=re.escape(f"position {position!r}")):
        light_weighted_losvd(u, tiny_basis, tiny_template, [position])


def test_losvd_zero_field_is_masked(tiny_basis, tiny_template):
    u = np.zeros(tiny_basis.N * tiny_basis.L)
    [sample] = light_weighted_losvd(u, tiny_basis, tiny_template, [(0.1, 0.1)])
    assert sample.masked
    assert not sample.p.any()


def test_constant_template_light_equals_mass(tiny_basis, tiny_template):
    flat = dataclasses.replace(tiny_template, S=np.full_like(tiny_template.S, 2.0))
    u = _random_coefficients(tiny_basis, seed=41)
    x = (0.3, -0.4)
    [lw] = light_weighted_losvd(u, tiny_basis, flat, [x])
    mw = mass_weighted_losvd(u, tiny_basis, x)
    np.testing.assert_allclose(lw.p, mw.p, atol=1e-12)


def test_light_integrals_positive_shape(tiny_template):
    L = light_integrals(tiny_template)
    assert L.shape == (len(tiny_template.z_nodes), len(tiny_template.t_nodes))
    assert np.all(L > 0.0)


@pytest.mark.parametrize("s", [0, 1])
def test_single_component_losvd_matches_sampled_gaussian(s):
    basis = make_basis(
        s,
        OMEGA_GRIDS,
        (uniform_axis(-1000.0, 1000.0, 41), THETA_GRIDS[1], THETA_GRIDS[2]),
    )
    comp = ComponentSpec(
        name="disk",
        mass_fraction=1.0,
        scale_x1=0.5,
        scale_x2=0.3,
        v_amp=150.0,
        v_turnover=0.4,
        sigma0=150.0,
        sigma_amp=0.0,
        sigma_scale=0.5,
        z_mean=-1.0,
        z_width=0.4,
        t_mean=6.0,
        t_width=3.0,
    )
    u = evaluate_ground_truth([comp], basis)
    x1 = basis.omega_grids[0].centers[2]
    x2 = basis.omega_grids[1].centers[1]
    sample = mass_weighted_losvd(u, basis, (x1, x2))
    mu = 150.0 * np.tanh(x1 / 0.4)
    g = np.exp(-0.5 * ((sample.v - mu) / 150.0) ** 2)
    g = g / np.trapezoid(g, sample.v)
    np.testing.assert_allclose(sample.p, g, atol=1e-10 * g.max())
    moment_mu = float(np.trapezoid(sample.v * sample.p, sample.v))
    moment_var = float(np.trapezoid((sample.v - moment_mu) ** 2 * sample.p, sample.v))
    assert abs(moment_mu - mu) <= 0.02 * 150.0
    assert abs(np.sqrt(moment_var) - 150.0) <= 0.02 * 150.0


# -- expansion fits -----------------------------------------------------------


def test_normalized_hermite_matches_explicit_polynomials():
    w = np.linspace(-2.5, 2.5, 9)
    explicit = {
        0: np.ones_like(w),
        1: 2.0 * w / np.sqrt(2.0),
        2: (4.0 * w**2 - 2.0) / np.sqrt(8.0),
        3: (8.0 * w**3 - 12.0 * w) / np.sqrt(48.0),
        4: (16.0 * w**4 - 48.0 * w**2 + 12.0) / np.sqrt(384.0),
        5: (32.0 * w**5 - 160.0 * w**3 + 120.0 * w) / np.sqrt(3840.0),
    }
    for k, values in explicit.items():
        np.testing.assert_allclose(normalized_hermite(k, w), values, rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    mu=st.floats(-300.0, 300.0),
    sigma=st.floats(50.0, 250.0),
    h3=st.floats(-0.1, 0.1),
    h4=st.floats(-0.1, 0.1),
    h5=st.floats(-0.1, 0.1),
)
def test_series_mirror_identity(mu, sigma, h3, h4, h5):
    v = GH_GRID
    direct = gauss_hermite_series(v, 1.0, mu, sigma, np.array([h3, h4, h5]))
    mirrored = gauss_hermite_series(-v[::-1], 1.0, -mu, sigma, np.array([-h3, h4, -h5]))
    np.testing.assert_allclose(mirrored[::-1], direct, atol=1e-12)


@pytest.mark.parametrize("order", [4, 5, 6])
def test_pure_gaussian_fit(order):
    p = 0.7 * np.exp(-0.5 * ((GH_GRID - 120.0) / 80.0) ** 2)
    fit = gauss_hermite_fit(LOSVDSample(x=(0.0, 0.0), v=GH_GRID, p=p), order=order)
    assert fit.converged
    assert abs(fit.mu - 120.0) <= 0.5
    assert abs(fit.sigma - 80.0) <= 0.5
    assert abs(fit.coefficient(3)) <= 1e-4
    assert abs(fit.coefficient(4)) <= 1e-4


def test_reversed_gaussian_fit():
    p = np.exp(-0.5 * ((GH_GRID + 340.0) / 95.0) ** 2)
    fit = gauss_hermite_fit(LOSVDSample(x=(0.0, 0.0), v=GH_GRID, p=p), order=5)
    assert fit.converged
    assert abs(fit.mu + 340.0) <= 0.5
    assert abs(fit.sigma - 95.0) <= 0.5
    assert abs(fit.coefficient(3)) <= 1e-4
    assert abs(fit.coefficient(5)) <= 1e-4


def test_mirror_parity_of_fits():
    v = GH_GRID
    for p in _random_mixtures():
        fit = gauss_hermite_fit(LOSVDSample(x=(0.0, 0.0), v=v, p=p), order=5)
        mirror = gauss_hermite_fit(
            LOSVDSample(x=(0.0, 0.0), v=v, p=p[::-1].copy()), order=5
        )
        assert fit.converged and mirror.converged
        assert abs(mirror.mu + fit.mu) <= 1e-6
        assert abs(mirror.sigma - fit.sigma) <= 1e-6
        assert abs(mirror.gamma - fit.gamma) <= 1e-6
        assert abs(mirror.coefficient(3) + fit.coefficient(3)) <= 1e-6
        assert abs(mirror.coefficient(4) - fit.coefficient(4)) <= 1e-6
        assert abs(mirror.coefficient(5) + fit.coefficient(5)) <= 1e-6


def test_two_gaussian_fit_near_projection_oracle():
    v = GH_GRID
    p = np.exp(-0.5 * ((v - 150.0) / 120.0) ** 2) + 0.6 * np.exp(
        -0.5 * ((v + 200.0) / 90.0) ** 2
    )
    fit = gauss_hermite_fit(LOSVDSample(x=(0.0, 0.0), v=v, p=p), order=6)
    assert fit.converged
    model = gauss_hermite_series(v, fit.gamma, fit.mu, fit.sigma, fit.h)
    res_fit = float(np.sqrt(np.trapezoid((model - p) ** 2, v)))
    w = (v - fit.mu) / fit.sigma
    envelope = fit.gamma * np.exp(-0.5 * w**2)
    columns = np.column_stack([envelope * normalized_hermite(k, w) for k in range(0, 7)])
    wq = np.sqrt(np.gradient(v))
    coef, *_ = np.linalg.lstsq(columns * wq[:, None], p * wq, rcond=None)
    res_oracle = float(np.sqrt(np.trapezoid((columns @ coef - p) ** 2, v)))
    assert res_fit <= 1.25 * res_oracle


def test_masked_sample_fit_fails_cleanly():
    sample = LOSVDSample(x=(0.0, 0.0), v=GH_GRID, p=np.zeros_like(GH_GRID), masked=True)
    fit = gauss_hermite_fit(sample, order=5)
    assert not fit.converged
    assert np.isnan(fit.mu) and np.isnan(fit.sigma) and np.all(np.isnan(fit.h))


@pytest.mark.parametrize("order", [2, 3, 7])
def test_fit_order_validation(order):
    sample = LOSVDSample(x=(0.0, 0.0), v=GH_GRID, p=np.ones_like(GH_GRID))
    with pytest.raises(ValueError, match="order"):
        gauss_hermite_fit(sample, order=order)


def test_coefficient_accessor_validation():
    p = np.exp(-0.5 * (GH_GRID / 100.0) ** 2)
    fit = gauss_hermite_fit(LOSVDSample(x=(0.0, 0.0), v=GH_GRID, p=p), order=4)
    assert fit.coefficient(4) == fit.h[1]
    with pytest.raises(ValueError):
        fit.coefficient(5)


def test_fit_without_positive_integral_fails_cleanly():
    p = np.exp(-0.5 * (GH_GRID / 100.0) ** 2) - 0.2
    assert np.any(p > 0.0) and np.trapezoid(p, GH_GRID) <= 0.0
    fit = gauss_hermite_fit(LOSVDSample(x=(0.0, 0.0), v=GH_GRID, p=p), order=5)
    assert not fit.converged
    assert np.isnan(fit.mu) and np.isnan(fit.sigma) and np.all(np.isnan(fit.h))


def test_fit_rejects_decreasing_velocity_grid():
    p = np.exp(-0.5 * (GH_GRID / 100.0) ** 2)
    sample = LOSVDSample(x=(0.0, 0.0), v=GH_GRID[::-1].copy(), p=p)
    with pytest.raises(ValueError, match="v must be finite and strictly increasing"):
        gauss_hermite_fit(sample, order=5)


def test_fit_rejects_non_finite_velocity_grid():
    v = GH_GRID.copy()
    v[4] = np.nan
    sample = LOSVDSample(x=(0.0, 0.0), v=v, p=np.exp(-0.5 * (GH_GRID / 100.0) ** 2))
    with pytest.raises(ValueError, match="v must be finite and strictly increasing"):
        gauss_hermite_fit(sample, order=5)


def test_fit_rejects_velocity_grid_of_another_length():
    v = uniform_axis(-1000.0, 1000.0, 28).centers
    sample = LOSVDSample(x=(0.0, 0.0), v=v[:-1], p=np.exp(-0.5 * (v / 100.0) ** 2))
    with pytest.raises(ValueError, match="v has 26 points but p has 27"):
        gauss_hermite_fit(sample, order=5)


def test_fit_at_its_step_cap_reports_no_convergence(monkeypatch):
    monkeypatch.setattr(diagnostics, "_MAX_STEPS", 1)
    p = np.exp(-0.5 * ((GH_GRID - 150.0) / 120.0) ** 2) + 0.6 * np.exp(
        -0.5 * ((GH_GRID + 200.0) / 90.0) ** 2
    )
    fit = gauss_hermite_fit(LOSVDSample(x=(0.0, 0.0), v=GH_GRID, p=p), order=5)
    assert not fit.converged
    assert np.isnan(fit.mu) and np.all(np.isnan(fit.h))


def _assert_fit_reaches_oracle_cost(sample, order=5):
    fit = gauss_hermite_fit(sample, order=order)
    oracle = least_squares_gauss_hermite_fit(sample, order=order)
    assert fit.converged == oracle.converged
    if oracle.converged:
        cost = envelope_cost(sample.v, sample.p, fit.gamma, fit.mu, fit.sigma)
        bound = envelope_cost(sample.v, sample.p, oracle.gamma, oracle.mu, oracle.sigma)
        # an exact Gaussian fits to rounding: costs under one ulp of p per point are all equal
        rounding = 0.5 * sample.p.size * (np.finfo(float).eps * np.abs(sample.p).max()) ** 2
        assert cost <= max(bound * (1.0 + 1e-12), rounding)


def test_random_mixture_fits_reach_the_least_squares_cost():
    for p in _random_mixtures():
        _assert_fit_reaches_oracle_cost(LOSVDSample(x=(0.0, 0.0), v=GH_GRID, p=p))


@pytest.mark.parametrize("field", ["desk_truth", "desk_run_u"])
def test_map_site_fits_reach_the_least_squares_cost(field, request, desk_basis, desk_template):
    samples = _site_samples(request.getfixturevalue(field), desk_basis, desk_template)
    assert len(samples) > 100
    for _, sample in samples:
        _assert_fit_reaches_oracle_cost(sample)


def test_failed_rows_leave_the_rest_of_the_batch_unchanged():
    rows = _random_mixtures()
    nan_row, zero_row = np.full((1, GH_GRID.size), np.nan), np.zeros((1, GH_GRID.size))
    bad = np.vstack([rows[:7], nan_row, rows[7:14], zero_row, rows[14:]])
    keep = np.r_[0:7, 8:15, 16:22]
    clean = _gauss_hermite_rows(GH_GRID, rows, 5)
    mixed = _gauss_hermite_rows(GH_GRID, bad, 5)
    assert clean[4].all()
    assert not mixed[4][7] and not mixed[4][15]
    for got, want in zip(mixed, clean):
        np.testing.assert_array_equal(got[keep], want)
    for values in mixed[:4]:
        assert np.all(np.isnan(values[[7, 15]]))


# -- maps ---------------------------------------------------------------------


def test_moment_maps_truth_structure(desk_maps, desk_basis):
    maps = desk_maps
    assert maps.mask.all()
    for grid in (maps.mu_t, maps.mu_z, maps.mu_v, maps.sigma_v, maps.h3, maps.h4, maps.h5):
        assert grid.shape == maps.mask.shape
        assert np.all(np.isfinite(grid))
    assert np.all(maps.sigma_v > 0.0)
    gz = desk_basis.theta_grids[1]
    gt = desk_basis.theta_grids[2]
    assert np.all((maps.mu_z >= gz.lo) & (maps.mu_z <= gz.hi))
    assert np.all((maps.mu_t >= gt.lo) & (maps.mu_t <= gt.hi))
    assert np.all(np.abs(maps.mu_v) <= 1000.0)


def test_moment_maps_sites_equal_one_site_fits_bitwise(desk_maps, desk_truth, desk_basis, desk_template):
    samples = _site_samples(desk_truth, desk_basis, desk_template)
    assert len(samples) == desk_maps.mask.size
    for (i, j), sample in samples:
        fit = gauss_hermite_fit(sample, order=5)
        got = [getattr(desk_maps, name)[i, j] for name in ("mu_v", "sigma_v", "h3", "h4", "h5")]
        np.testing.assert_array_equal(got, [fit.mu, fit.sigma, *fit.h])


def test_moment_maps_truth_has_two_h5_regions(desk_maps):
    labels, count = h5_feature_regions(desk_maps, threshold=0.02, plane_halfwidth=0.2)
    assert count == 2
    assert labels.max() == 2
    assert (labels > 0).sum() > 0


def test_moment_maps_blanks_empty_stripe(desk_truth, desk_basis, desk_template):
    u = desk_truth.reshape(desk_basis.shape5).copy()
    u[:4] = 0.0
    maps = moment_maps(u.reshape(-1), desk_basis, desk_template)
    assert not maps.mask[:4].any()
    assert maps.mask[4:].all()
    for grid in (maps.mu_t, maps.mu_z, maps.mu_v, maps.sigma_v, maps.h3, maps.h4, maps.h5):
        assert np.all(np.isnan(grid[:4]))
        assert np.all(np.isfinite(grid[4:]))


def test_moment_maps_zero_field(desk_basis, desk_template):
    maps = moment_maps(np.zeros(desk_basis.N * desk_basis.L), desk_basis, desk_template)
    assert not maps.mask.any()
    assert np.all(np.isnan(maps.mu_v))


def test_h5_sign_match_counts_strong_cells():
    centers = uniform_axis(-1.0, 1.0, 5).centers
    shape = (4, 4)
    zeros = np.zeros(shape)
    mask = np.ones(shape, dtype=bool)

    def build(h5):
        return MomentMaps(
            x1=centers, x2=centers, mu_t=zeros, mu_z=zeros, mu_v=zeros,
            sigma_v=np.ones(shape), h3=zeros, h4=zeros, h5=h5, mask=mask,
        )

    h5_rec = np.zeros(shape)
    h5_rec[0, 0] = 0.05
    h5_rec[1, 0] = 0.05
    h5_rec[3, 3] = -0.05
    h5_true = np.zeros(shape)
    h5_true[0, 0] = 0.1
    h5_true[1, 0] = -0.1
    h5_true[3, 3] = -0.1
    match = h5_sign_match(build(h5_rec), build(h5_true), threshold=0.02, plane_halfwidth=0.2)
    assert match == pytest.approx(2.0 / 3.0)
    assert np.isnan(h5_sign_match(build(np.zeros(shape)), build(h5_true)))


def test_h5_regions_exclude_plane_and_masked_cells():
    centers = uniform_axis(-1.0, 1.0, 5).centers
    shape = (4, 4)
    zeros = np.zeros(shape)
    mask = np.ones(shape, dtype=bool)
    mask[3, 0] = False
    h5 = np.zeros(shape)
    h5[0, 0] = 0.1
    h5[1, 0] = 0.1
    h5[3, 3] = -0.1
    h5[2, 1] = 0.5
    h5[3, 0] = 0.9
    maps = MomentMaps(
        x1=centers, x2=centers, mu_t=zeros, mu_z=zeros, mu_v=zeros,
        sigma_v=np.ones(shape), h3=zeros, h4=zeros, h5=h5, mask=mask,
    )
    labels, count = h5_feature_regions(maps, threshold=0.02, plane_halfwidth=0.3)
    assert count == 2
    assert labels[2, 1] == 0
    assert labels[3, 0] == 0
    assert labels[0, 0] == labels[1, 0] > 0
    assert labels[3, 3] > 0
    assert labels[3, 3] != labels[0, 0]


# -- recovery statistic -------------------------------------------------------


def test_default_positions_cover_quartiles(desk_basis):
    positions = default_losvd_positions(desk_basis)
    assert len(positions) == 9
    for x1, x2 in positions:
        assert -1.0 < x1 < 1.0 and -1.0 < x2 < 1.0
    assert positions[4] == (0.0, 0.0)
    assert positions[0] == (-0.5, -0.5)
    assert positions[-1] == (0.5, 0.5)


def test_recovery_error_zero_for_identical_and_scaled(desk_truth, desk_basis, desk_template):
    assert losvd_recovery_error(desk_truth, desk_truth, desk_basis, desk_template) == 0.0
    scaled = 2.0 * desk_truth
    assert losvd_recovery_error(scaled, desk_truth, desk_basis, desk_template) == 0.0


def test_recovery_error_positive_for_perturbed(desk_truth, desk_basis, desk_template):
    u = desk_truth.reshape(desk_basis.shape5).copy()
    u[6, 6, 3] += desk_truth.max()
    err = losvd_recovery_error(u.reshape(-1), desk_truth, desk_basis, desk_template)
    assert err > 1e-4


def test_recovery_error_needs_light(desk_basis, desk_template):
    zeros = np.zeros(desk_basis.N * desk_basis.L)
    with pytest.raises(ValueError, match="light"):
        losvd_recovery_error(zeros, zeros, desk_basis, desk_template)


# -- export -------------------------------------------------------------------


def test_export_read_round_trip(desk_maps, desk_truth, desk_basis, desk_template, tmp_path):
    samples = light_weighted_losvd(desk_truth, desk_basis, desk_template, [(-0.5, -0.5), (0.25, 0.3)])
    first = export_maps(desk_maps, samples, tmp_path / "a")
    second = export_maps(desk_maps, samples, tmp_path / "b")
    assert len(first) == 3
    for path_a, path_b in zip(first, second):
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            assert fa.read() == fb.read()
    loaded = read_maps(first[0])
    np.testing.assert_array_equal(loaded.x1, desk_maps.x1)
    np.testing.assert_array_equal(loaded.x2, desk_maps.x2)
    for name in ("mu_t", "mu_z", "mu_v", "sigma_v", "h3", "h4", "h5"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(desk_maps, name))
    np.testing.assert_array_equal(loaded.mask, desk_maps.mask)
    sample = read_losvd(first[1])
    assert sample.x == samples[0].x
    assert sample.masked == samples[0].masked
    np.testing.assert_array_equal(sample.v, samples[0].v)
    np.testing.assert_array_equal(sample.p, samples[0].p)


def test_export_layout(tmp_path):
    # comma-separated in row-major (x1, x2) site order with 17 significant
    # digits, NaN off the mask and an integer mask column; a sample is its
    # position line, the column line and space-separated (v, p) rows
    v = np.array([[1.0, 2.0], [3.0, np.nan]])
    maps = MomentMaps(
        x1=np.array([-0.5, 0.5]), x2=np.array([0.0, 0.1]), mu_t=v, mu_z=2 * v, mu_v=3 * v,
        sigma_v=4 * v, h3=5 * v, h4=6 * v, h5=7 * v, mask=np.isfinite(v),
    )
    sample = LOSVDSample(x=(0.25, -0.1), v=np.array([-100.0, 0.0, 100.0]), p=np.array([0.0, 0.5, 1.0 / 3.0]))
    table, losvd = export_maps(maps, [sample], tmp_path)
    assert pathlib.Path(table).read_bytes() == (
        b"x1,x2,mu_t,mu_z,mu_v,sigma_v,h3,h4,h5,mask\n"
        b"-0.5,0,1,2,3,4,5,6,7,1\n"
        b"-0.5,0.10000000000000001,2,4,6,8,10,12,14,1\n"
        b"0.5,0,3,6,9,12,15,18,21,1\n"
        b"0.5,0.10000000000000001,nan,nan,nan,nan,nan,nan,nan,0\n"
    )
    assert pathlib.Path(losvd).read_bytes() == (
        b"# x1 0.25 x2 -0.10000000000000001 masked 0\n"
        b"v p\n"
        b"-100 0\n"
        b"0 0.5\n"
        b"100 0.33333333333333331\n"
    )


def test_read_maps_rejects_foreign_table(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="table"):
        read_maps(path)


def test_read_maps_rejects_incomplete_grid(desk_maps, tmp_path):
    table = export_maps(desk_maps, [], tmp_path)[0]
    lines = open(table).read().splitlines()
    (tmp_path / "short.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="complete"):
        read_maps(tmp_path / "short.csv")


def cut_table(lines, head, rows, fields, sep):
    """The first ``head + rows`` lines, then the next row cut after ``fields`` fields."""
    cut = lines[: head + rows]
    if fields:
        cut.append(sep.join(lines[head + rows].split(sep)[:fields]))
    return "\n".join(cut) + "\n"


@pytest.mark.parametrize(
    "rows, fields, match",
    [
        (0, 0, "moment-map table is empty"),
        (3, 4, "moment-map table line 5: expected 10 fields, found 4"),
        (0, 9, "moment-map table line 2: expected 10 fields, found 9"),
    ],
    ids=["header_only", "short_row", "short_first_row"],
)
def test_read_maps_names_a_cut_table(desk_maps, tmp_path, rows, fields, match):
    table = export_maps(desk_maps, [], tmp_path)[0]
    path = tmp_path / "cut.csv"
    path.write_text(cut_table(open(table).read().splitlines(), 1, rows, fields, ","))
    with pytest.raises(ValueError, match=match):
        read_maps(path)


@pytest.mark.parametrize(
    "rows, fields, match",
    [
        (0, 0, "velocity-distribution table is empty"),
        (2, 1, "velocity-distribution table line 5: expected 2 fields, found 1"),
    ],
    ids=["header_only", "short_row"],
)
def test_read_losvd_names_a_cut_table(desk_maps, desk_truth, desk_basis, desk_template, tmp_path, rows, fields, match):
    [sample] = light_weighted_losvd(desk_truth, desk_basis, desk_template, [(0.25, 0.3)])
    table = export_maps(desk_maps, [sample], tmp_path)[1]
    path = tmp_path / "cut.txt"
    path.write_text(cut_table(open(table).read().splitlines(), 2, rows, fields, " "))
    with pytest.raises(ValueError, match=match):
        read_losvd(path)


def test_read_losvd_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.txt"
    path.write_text("v p\n0 1\n")
    with pytest.raises(ValueError, match="table"):
        read_losvd(path)


@pytest.mark.parametrize(
    "reader, text, match",
    [
        (read_history, "loop updates data_residual res error\n1 2 0.5 nan nan\n2 x 0.25 nan nan\n", "history table line 3: could not convert string to float: 'x'"),
        (read_maps, "x1,x2,mu_t,mu_z,mu_v,sigma_v,h3,h4,h5,mask\n0,0,1,1,1,1,1,1,one,1\n", "moment-map table line 2: could not convert string to float: 'one'"),
        (read_losvd, "# x1 0.25 x2 -0.1 masked 0\nv p\n-100 0\n0 half\n", "velocity-distribution table line 4: could not convert string to float: 'half'"),
        (read_losvd, "# x1 0.25 x2 left masked 0\nv p\n0 1\n", "velocity-distribution table line 1: could not convert string to float: 'left'"),
        (read_losvd, "# x1 0.25 x2 -0.1 masked 0.5\nv p\n0 1\n", "velocity-distribution table line 1: invalid literal for int() with base 10: '0.5'"),
    ],
    ids=["history_count", "maps_cell", "losvd_cell", "losvd_position", "losvd_mask"],
)
def test_table_readers_name_a_cell_that_is_not_a_number(tmp_path, reader, text, match):
    # each reader names the table and the line of a cell that does not parse, as it does
    # for a row with the wrong field count
    path = tmp_path / "table.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(match)):
        reader(path)
