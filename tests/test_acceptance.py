"""Acceptance suite: the ten headline checks, one verdict line each.

Each test prints ``criterion NN: PASS/FAIL`` with the measured numbers
before asserting, so a failing criterion still reports what it saw.
Criteria 3 and 9 state targets the desk-scale problem cannot meet; they
run the stated configuration faithfully and fail with diagnostics
rather than relaxing the bound (see README).
"""

import time

import numpy as np
import pytest

from pnkr.cli import main
from pnkr.diagnostics import (
    LOSVDSample,
    gauss_hermite_fit,
    h5_feature_regions,
    h5_sign_match,
    moment_maps,
)
from pnkr.forward import (
    apply_Hr,
    apply_Hr_T,
    build_forward_system,
    rho_estimate,
    synthesize_datacube,
)
import pnkr.forward
from pnkr.grid_basis import make_basis, uniform_axis
from pnkr.mock import add_noise, default_components, evaluate_ground_truth
from pnkr.presets import preset_basis, preset_template
from pnkr.solver import (
    SolveData,
    SolverConfig,
    nesterov_extrapolate,
    pnkr_equation_update,
    reduced_equation_update,
    run,
)
from pnkr.templates import C_LIGHT, build_template_grid, kernel_eval, kernel_theta_integrals

from _oracles import (
    dense_G,
    dense_Hr,
    dense_M,
    dense_Phi,
    dense_Psi,
    equation_residual_norm,
    project_row_space_factored,
    row_space_image,
)


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line, flush=True)
    return line


# -- shared desk-scale problems ----------------------------------------------


@pytest.fixture(scope="module")
def desk_template():
    return preset_template("desk_scale")


def _desk_system(template, s, beta):
    basis = preset_basis("desk_scale", s, beta)
    table = kernel_theta_integrals(template, basis)
    return basis, build_forward_system(basis, table)


@pytest.fixture(scope="module")
def desk_s0(desk_template):
    return _desk_system(desk_template, 0, 0.0)


@pytest.fixture(scope="module")
def desk_s1(desk_template):
    return _desk_system(desk_template, 1, 1.0)


@pytest.fixture(scope="module")
def desk_s1_weak(desk_template):
    return _desk_system(desk_template, 1, 0.01)


@pytest.fixture(scope="module")
def noisy_s1(desk_s1):
    basis, system = desk_s1
    u_true = evaluate_ground_truth(default_components(), basis)
    y_clean = synthesize_datacube(system, u_true)
    noisy = add_noise(system, y_clean, 0.01, seed=0)
    return u_true, SolveData(y=noisy.y_noisy, delta_r=noisy.delta_r)


@pytest.fixture(scope="module")
def dp_run_s1(desk_s1, noisy_s1):
    """Discrepancy-terminated run on the 1%-noise cube, beta = 1."""
    _, system = desk_s1
    _, data = noisy_s1
    cfg = SolverConfig(variant="pnkr", s=1, beta=1.0, tau=1.2, max_loops=2000, seed=0)
    t0 = time.perf_counter()
    res = run(cfg, data, system)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def weak_run_s1(desk_s1_weak, noisy_s1):
    """Same noisy cube solved with weak velocity smoothing, beta = 0.01."""
    _, system = desk_s1_weak
    _, data = noisy_s1
    cfg = SolverConfig(variant="pnkr", s=1, beta=0.01, tau=1.2, max_loops=2000, seed=0)
    t0 = time.perf_counter()
    res = run(cfg, data, system)
    return res, time.perf_counter() - t0


# -- 1: adjointness ----------------------------------------------------------


def test_criterion_01_channel_adjointness():
    t0 = time.perf_counter()
    template = preset_template("tiny")
    worst = 0.0
    for s in (0, 1):
        basis = preset_basis("tiny", s, beta=0.3 if s else 0.0)
        system = build_forward_system(basis, kernel_theta_integrals(template, basis))
        rng = np.random.default_rng(s)
        for _ in range(100):
            u = rng.standard_normal(system.N * system.L)
            w = rng.standard_normal(system.N)
            r = int(rng.integers(1, system.R + 1))
            lhs = float(apply_Hr(system, u, r) @ w)
            rhs = float(u @ apply_Hr_T(system, w, r))
            worst = max(worst, abs(lhs - rhs) / (np.linalg.norm(u) * np.linalg.norm(w)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    assert ok, _verdict(1, ok, f"max normalized gap {worst:.3e} (<=1e-10), {elapsed:.2f}s (<5s)")
    _verdict(1, ok, f"max normalized gap {worst:.3e} over 2x100 triples, {elapsed:.2f}s")


# -- 2: dense-oracle equivalence ---------------------------------------------


def test_criterion_02_dense_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0

    def deviation(a, b):
        return np.abs(a - b).max() / max(np.abs(b).max(), 1e-30)

    for s in (0, 1):
        basis = make_basis(
            s,
            (uniform_axis(-1.0, 1.0, 3), uniform_axis(-1.0, 1.0, 3)),
            (uniform_axis(-1000.0, 1000.0, 3), uniform_axis(-2.0, 0.0, 2), uniform_axis(1.0, 13.0, 2)),
            beta=0.3 if s else 0.0,
        )
        assert basis.N <= 9 and basis.L <= 12
        rng = np.random.default_rng(10 + s)
        Q = rng.standard_normal((basis.L, 5))
        system = build_forward_system(basis, Q)
        Md = dense_M(system)
        for r in (1, 3, system.R):
            Hd = dense_Hr(system, r)
            for _ in range(3):
                u = rng.standard_normal(system.N * system.L)
                w = rng.standard_normal(system.N)
                worst = max(worst, deviation(apply_Hr(system, u, r), Hd @ u))
                worst = max(worst, deviation(apply_Hr_T(system, w, r), Hd.T @ w))
                # the solver's update direction M^-1 H_r^T d, from the two stored products
                d = rng.standard_normal(system.N)
                a = np.outer(system.Psi_inv_G @ d, system.Phi_inv_Q[:, r - 1]).reshape(-1)
                worst = max(worst, deviation(a, np.linalg.solve(Md, Hd.T @ d)))
        Gd = dense_G(system)
        worst = max(worst, deviation(system.Psi_inv_G, np.linalg.solve(dense_Psi(basis), Gd)))
        worst = max(worst, deviation(system.Phi_inv_Q, np.linalg.solve(dense_Phi(basis), Q)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    assert ok, _verdict(2, ok, f"max relative deviation {worst:.3e} (<=1e-10), {elapsed:.2f}s (<30s)")
    _verdict(2, ok, f"max relative deviation {worst:.3e} vs dense assemblies, {elapsed:.2f}s")


# -- 3: noise-free recovery --------------------------------------------------


def test_criterion_03_noise_free_recovery(desk_s0, desk_s1):
    t0 = time.perf_counter()
    budgets = {0: 8, 1: 5}
    svd_err, img_err = {}, {}
    for s, (basis, system) in ((0, desk_s0), (1, desk_s1)):
        u_true = evaluate_ground_truth(default_components(), basis)
        sweeps = budgets[s]
        u_perp = project_row_space_factored(u_true, system)
        data = SolveData(y=synthesize_datacube(system, u_true), delta_r=np.zeros(system.R))
        cfg = SolverConfig(variant="pnkr", s=s, beta=1.0 if s else 0.0, max_loops=sweeps, seed=0)
        res = run(cfg, data, system, u_star=u_perp)
        svd_err[s] = min(row.error for row in res.history)
        u_img = row_space_image(u_true, system)
        data_img = SolveData(y=synthesize_datacube(system, u_img), delta_r=np.zeros(system.R))
        res = run(cfg, data_img, system, u_star=u_img)
        img_err[s] = min(row.error for row in res.history)
    elapsed = time.perf_counter() - t0
    ok = svd_err[1] <= 0.01 and svd_err[0] <= 0.01 and elapsed < 180.0
    detail = (
        f"error vs dense row-space reference {svd_err[1]:.3f} (s=1, 5 sweeps) / "
        f"{svd_err[0]:.3f} (s=0, 8 sweeps), required <=0.01; "
        f"vs reachable reference (metric-weighted row space) {img_err[1]:.3f} / {img_err[0]:.3f}; "
        f"{elapsed:.1f}s"
    )
    assert ok, _verdict(3, ok, detail)
    _verdict(3, ok, detail)


# -- 4: discrepancy termination ----------------------------------------------


def test_criterion_04_discrepancy_termination(desk_s1, noisy_s1, dp_run_s1):
    _, system = desk_s1
    _, data = noisy_s1
    res, elapsed = dp_run_s1
    gaps = [
        equation_residual_norm(system, res.u, data, r) - 1.2 * data.delta_r[r - 1]
        for r in range(1, system.R + 1)
    ]
    ok = res.converged and max(gaps) <= 1e-12 and np.all(res.u >= 0.0) and elapsed < 300.0
    detail = (
        f"terminated={res.converged} at {res.loops} sweeps, worst gate slack "
        f"{max(gaps):+.3e}, min(u)={res.u.min():.3e}, {elapsed:.1f}s (<300s)"
    )
    assert ok, _verdict(4, ok, detail)
    _verdict(4, ok, detail)


# -- 5: acceleration over the unaccelerated sweep ----------------------------


def test_criterion_05_acceleration(desk_s1, noisy_s1):
    _, system = desk_s1
    _, data = noisy_s1
    lwk = run(
        SolverConfig(variant="landweber_kaczmarz", s=1, beta=1.0, max_loops=20, seed=0),
        data,
        system,
    )
    target = lwk.history[-1].data_residual
    fast = run(
        SolverConfig(variant="pnkr", s=1, beta=1.0, max_loops=20, seed=0), data, system
    )
    crossing = next(
        (row.loop for row in fast.history if row.data_residual <= target), None
    )
    ok = crossing is not None and crossing <= 10
    detail = f"baseline residual after 20 sweeps {target:.4f}, reached at sweep {crossing} (<=10)"
    assert ok, _verdict(5, ok, detail)
    _verdict(5, ok, detail)


# -- 6: reduced-method consistency -------------------------------------------


def test_criterion_06_reduced_identity_consistency(monkeypatch):
    # the system keeps the reduced factors of the stencil it was built under: the identity taps
    monkeypatch.setattr(pnkr.forward, "SMOOTHING_TAPS", np.ones(1))
    template = preset_template("tiny")
    basis = preset_basis("tiny", 0)
    system = build_forward_system(basis, kernel_theta_integrals(template, basis))
    u_true = evaluate_ground_truth(default_components(), basis)
    y = synthesize_datacube(system, u_true)
    omega = 1.0 / rho_estimate(system)
    c_M = system.c_N * dense_Phi(system.basis)[0, 0]
    u_k = np.zeros(system.N * system.L)
    u_km1 = u_k.copy()
    worst = 0.0
    for k_R in (1, 2, 3):
        for r in range(1, system.R + 1):
            z = nesterov_extrapolate(u_k, u_km1, k_R)
            d = y[:, r - 1] - z.reshape(system.N, system.L) @ system.Q[:, r - 1]
            plain = pnkr_equation_update(system, z, d, r, omega)
            reduced = reduced_equation_update(system, z, d, r, omega / c_M)
            scale = max(np.abs(plain).max(), 1e-30)
            worst = max(worst, np.abs(reduced - plain).max() / scale)
            u_km1, u_k = u_k, plain
    ok = worst <= 1e-10
    detail = f"max update deviation {worst:.3e} over 3 sweeps x {system.R} equations (<=1e-10)"
    assert ok, _verdict(6, ok, detail)
    _verdict(6, ok, detail)


# -- 7: Gauss-Hermite suite --------------------------------------------------


def test_criterion_07_gauss_hermite_suite():
    v = uniform_axis(-1000.0, 1000.0, 27).centers
    p = 0.7 * np.exp(-0.5 * ((v - 120.0) / 80.0) ** 2)
    fit = gauss_hermite_fit(LOSVDSample(x=(0.0, 0.0), v=v, p=p), order=4)
    gauss_ok = (
        fit.converged
        and abs(fit.mu - 120.0) <= 0.5
        and abs(fit.sigma - 80.0) <= 0.5
        and abs(fit.coefficient(3)) <= 1e-4
        and abs(fit.coefficient(4)) <= 1e-4
    )
    rng = np.random.default_rng(42)
    parity = 0.0
    for _ in range(20):
        p = np.zeros_like(v)
        for _ in range(int(rng.integers(1, 4))):
            amp = rng.uniform(0.2, 1.0)
            center = rng.uniform(-400.0, 400.0)
            width = rng.uniform(60.0, 250.0)
            p += amp * np.exp(-0.5 * ((v - center) / width) ** 2)
        fit = gauss_hermite_fit(LOSVDSample(x=(0.0, 0.0), v=v, p=p), order=5)
        mirror = gauss_hermite_fit(
            LOSVDSample(x=(0.0, 0.0), v=v, p=p[::-1].copy()), order=5
        )
        assert fit.converged and mirror.converged
        parity = max(
            parity,
            abs(mirror.mu + fit.mu),
            abs(mirror.sigma - fit.sigma),
            abs(mirror.coefficient(3) + fit.coefficient(3)),
            abs(mirror.coefficient(4) - fit.coefficient(4)),
            abs(mirror.coefficient(5) + fit.coefficient(5)),
        )
    ok = gauss_ok and parity <= 1e-6
    detail = (
        f"pure Gaussian |h3|,|h4|<=1e-4 and (mu,sigma) within 0.5 km/s: {gauss_ok}; "
        f"max mirror-parity gap {parity:.3e} over 20 fits (<=1e-6)"
    )
    assert ok, _verdict(7, ok, detail)
    _verdict(7, ok, detail)


# -- 8: Doppler energy conservation ------------------------------------------


def test_criterion_08_doppler_energy_conservation():
    z = np.linspace(-2.66, 0.36, 7)
    t = np.geomspace(0.015, 14.25, 19)
    tg = build_template_grid(480.0, 570.0, 1300, 1000.0, z, t)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        v = rng.uniform(-1000.0, 1000.0)
        zz = rng.uniform(z[0], z[-1])
        tt = rng.uniform(t[0], t[-1])
        k = kernel_eval(tg, v, zz, tt, tg.lambda_obs)
        lhs = np.trapezoid(k, tg.lambda_obs)
        fac = 1.0 + v / C_LIGHT
        lam_rest = np.geomspace(tg.lambda_obs[0] / fac, tg.lambda_obs[-1] / fac, 30001)
        rhs = np.trapezoid(kernel_eval(tg, 0.0, zz, tt, lam_rest), lam_rest)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= 1e-4
    detail = f"max relative energy mismatch {worst:.3e} over 10 random (v,z,t) (<=1e-4)"
    assert ok, _verdict(8, ok, detail)
    _verdict(8, ok, detail)


# -- 9: qualitative archaeology signal ---------------------------------------


def test_criterion_09_h5_archaeology_signal(
    desk_template, desk_s1, desk_s1_weak, dp_run_s1, weak_run_s1
):
    t0 = time.perf_counter()
    basis_weak, _ = desk_s1_weak
    basis_smooth, _ = desk_s1
    res_weak, weak_seconds = weak_run_s1
    res_smooth, _ = dp_run_s1
    u_true = evaluate_ground_truth(default_components(), basis_weak)
    maps_true = moment_maps(u_true, basis_weak, desk_template, order=5)
    maps_weak = moment_maps(res_weak.u, basis_weak, desk_template, order=5)
    maps_smooth = moment_maps(res_smooth.u, basis_smooth, desk_template, order=5)
    _, n_regions = h5_feature_regions(maps_weak)
    frac_weak = h5_sign_match(maps_weak, maps_true)
    frac_smooth = h5_sign_match(maps_smooth, maps_true)

    def mean_sigma(maps):
        return float(np.mean(maps.sigma_v[maps.mask]))

    def mean_h5(maps):
        off = maps.mask & (np.abs(maps.x2)[None, :] > 0.2)
        return float(np.mean(np.abs(np.nan_to_num(maps.h5)[off])))

    elapsed = weak_seconds + (time.perf_counter() - t0)
    ok = n_regions > 0 and frac_weak >= 0.70 and elapsed < 600.0
    detail = (
        f"sign match {frac_weak:.3f} over {n_regions} strong off-plane regions "
        f"(required >=0.70); beta=1 run alongside: match {frac_smooth:.3f}, "
        f"mean dispersion {mean_sigma(maps_smooth):.0f} km/s vs {mean_sigma(maps_weak):.0f} (beta=0.01) "
        f"vs {mean_sigma(maps_true):.0f} (truth), mean off-plane |h5| {mean_h5(maps_smooth):.3f} vs "
        f"{mean_h5(maps_weak):.3f} vs {mean_h5(maps_true):.3f}; {elapsed:.0f}s (<600s)"
    )
    assert ok, _verdict(9, ok, detail)
    _verdict(9, ok, detail)


# -- 10: reproducibility -----------------------------------------------------


def test_criterion_10_bitwise_reproducibility(tmp_path, monkeypatch):
    src = tmp_path / "inputs"
    src.mkdir()
    monkeypatch.chdir(src)
    assert main(["gen-templates", "--preset", "tiny", "--out", "tpl.pnkt"]) == 0
    assert main([
        "gen-mock", "--preset", "tiny", "--templates", "tpl.pnkt",
        "--s", "0", "--noise", "0.01", "--seed", "3", "--out", "cube.pnkd",
    ]) == 0
    args = [
        "solve", "--preset", "tiny", "--templates", "tpl.pnkt",
        "--cube", "cube.pnkd", "--truth", "truth.pnku",
        "--s", "0", "--max-loops", "40", "--out", "run",
    ]
    outputs = []
    for name in ("a", "b"):
        work = tmp_path / name
        work.mkdir()
        for source in ("tpl.pnkt", "cube.pnkd", "truth.pnku"):
            (work / source).write_bytes((src / source).read_bytes())
        monkeypatch.chdir(work)
        assert main(args) == 0
        outputs.append(work / "run")
    first, second = outputs
    coeffs_same = (
        (first / "coefficients.pnku").read_bytes()
        == (second / "coefficients.pnku").read_bytes()
    )
    history_same = (
        (first / "history.csv").read_bytes() == (second / "history.csv").read_bytes()
    )
    ok = coeffs_same and history_same
    detail = f"coefficients identical: {coeffs_same}, histories identical: {history_same}"
    assert ok, _verdict(10, ok, detail)
    _verdict(10, ok, detail)
