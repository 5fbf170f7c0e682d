"""Solver unit tests: gating, momentum, baselines, termination, files."""

import collections
import ctypes
import dataclasses
import itertools
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pnkr.forward import (
    SMOOTHING_TAPS,
    apply_Hr,
    apply_Hr_T,
    apply_Zs,
    build_forward_system,
    reduced_rho,
    sample_norm,
    synthesize_datacube,
)
from pnkr.grid_basis import make_basis, uniform_axis
from pnkr.mock import add_noise, default_components, evaluate_ground_truth
import pnkr.forward
import pnkr.solver
from pnkr.solver import (
    HistoryRow,
    SolveData,
    SolverConfig,
    SolverState,
    as_solve_data,
    landweber_step,
    nesterov_extrapolate,
    pnkr_equation_update,
    pnkr_sweep,
    read_coefficients,
    read_history,
    reduced_equation_update,
    reduced_pnkr_sweep,
    resolve_omega,
    run,
    sweeps,
    threshold,
    write_coefficients,
    write_history,
)
from pnkr.templates import build_template_grid, kernel_theta_integrals
from pnkr.forward import rho_estimate

from _oracles import (
    blas_rank_one_step,
    compiled_sweep_reference,
    dense_G,
    dense_Hr,
    dense_M,
    dense_Phi,
    dense_Psi,
    equation_residual_norm,
    fixed_order_gate_norm,
    fixed_order_rows_dot,
    row_space_image,
)

OMEGA_GRIDS = (uniform_axis(-1.0, 1.0, 4), uniform_axis(-1.0, 1.0, 4))
THETA_GRIDS = (
    uniform_axis(-1000.0, 1000.0, 4),
    uniform_axis(-2.0, 0.0, 3),
    uniform_axis(1.0, 13.0, 3),
)


@pytest.fixture(scope="module")
def tiny_template():
    return build_template_grid(
        480.0, 570.0, 8, 1100.0, np.linspace(-2.6, 0.3, 5), np.linspace(0.5, 14.0, 6)
    )


def _tiny_system(s, template, beta=0.0):
    basis = make_basis(s, OMEGA_GRIDS, THETA_GRIDS, beta=beta)
    table = kernel_theta_integrals(template, basis)
    return build_forward_system(basis, table)


@pytest.fixture(scope="module")
def tiny0(tiny_template):
    return _tiny_system(0, tiny_template)


@pytest.fixture(scope="module")
def tiny1(tiny_template):
    return _tiny_system(1, tiny_template, beta=0.3)


@pytest.fixture(scope="module")
def uneven0(tiny_template):
    # spatial axes of 3 and 11 cells, so both products of the gate norm end in a
    # zero-padded block of three columns, and L = 8 below the longer axis's 11
    basis = make_basis(0, (uniform_axis(-1.0, 1.0, 4), uniform_axis(-1.0, 1.0, 12)), [uniform_axis(g.nodes[0], g.nodes[-1], 3) for g in THETA_GRIDS])
    return build_forward_system(basis, kernel_theta_integrals(tiny_template, basis))


@pytest.fixture(scope="module")
def tiny0_problem(tiny0):
    u_star = evaluate_ground_truth(default_components(), tiny0.basis)
    y = synthesize_datacube(tiny0, u_star)
    noisy = add_noise(tiny0, y, 0.01, seed=7)
    return u_star, SolveData(y=noisy.y_noisy, delta_r=noisy.delta_r)


def _residual(system, y_r, u, r):
    """Sample-space residual ``y_r - U q_r`` of equation ``r`` at ``u``, the ``d`` a step is handed."""
    return y_r - u.reshape(system.N, system.L) @ system.Q[:, r - 1]


def _pass_residual(system, y_r, u, r):
    """The residual a compiled sweep forms: ``y_r - U q_r`` with the kernel's fixed-order product."""
    return y_r - fixed_order_rows_dot(u.reshape(system.N, system.L), system.Q[:, r - 1])


def _documented_order(seed, k_R, R):
    """Equations ``1..R`` in the random order of loop ``k_R``, keyed by ``SeedSequence([seed, k_R])``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, k_R]))).permutation(R) + 1


def _consistent_columns(system, u):
    U = u.reshape(system.N, system.L)
    return np.column_stack([U @ system.Q[:, j] for j in range(system.R)])


# -- elementary pieces --------------------------------------------------------


def test_threshold_examples():
    u = np.array([-1.0, 0.0, 2.5, -0.25, 1e-300])
    out = threshold(u)
    assert np.array_equal(out, np.array([0.0, 0.0, 2.5, 0.0, 1e-300]))
    assert threshold(u, out=u) is u
    assert np.array_equal(u, out)


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 40),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
def test_threshold_clips_and_is_idempotent(x):
    t = threshold(x)
    assert np.all(t >= 0.0)
    assert np.array_equal(threshold(t), t)
    keep = x >= 0.0
    assert np.array_equal(t[keep], x[keep])


def test_nesterov_factor_values():
    u_k = np.array([2.0, 4.0])
    u_km1 = np.array([1.0, 2.0])
    assert np.array_equal(nesterov_extrapolate(u_k, u_km1, 1), u_k)
    z2 = nesterov_extrapolate(u_k, u_km1, 2)
    np.testing.assert_allclose(z2, u_k + 0.25 * (u_k - u_km1), rtol=0, atol=0)
    z5 = nesterov_extrapolate(u_k, u_km1, 3)
    np.testing.assert_allclose(z5, u_k + 0.4 * (u_k - u_km1), rtol=1e-15)
    same = nesterov_extrapolate(u_k, u_k, 7)
    assert np.array_equal(same, u_k)
    with pytest.raises(ValueError):
        nesterov_extrapolate(u_k, u_km1, 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(variant="newton"),
        dict(s=2),
        dict(beta=-0.1),
        dict(s=True),
        dict(s=0.5),
        dict(tau=1.0),
        dict(tau=0.5),
        dict(max_loops=0),
        dict(seed=-1),
        dict(variant="reduced_pnkr", s=1),
        dict(beta=np.nan),
        dict(beta=np.inf),
        *[dict(tau=value) for value in (np.nan, np.inf, -np.inf)],
        dict(beta=-np.inf),
        dict(max_loops=True),
        dict(seed=True),
        *[dict(max_loops=value) for value in (2.5, np.nan, np.inf)],
        *[dict(seed=value) for value in (0.5, np.nan, np.inf)],
        *[dict(beta=value) for value in (True, False, np.True_)],
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError) as err:
        SolverConfig(**kwargs)
    value = kwargs.get("tau")
    if value is not None and not np.isfinite(value):
        # every gate limit would be inf (or nan): the message names the option and its value
        assert f"tau={value}" in str(err.value) and "finite" in str(err.value)
    for name in ("max_loops", "seed"):
        value = kwargs.get(name)
        if value is not None and not float(value).is_integer():
            # run() could not count its loops or key its sweep order: the message names the value
            assert f"{name}={value}" in str(err.value) and "integer" in str(err.value)


@pytest.mark.parametrize("name, message", [("max_loops", "integer"), ("seed", "integer"), ("s", "0 or 1")])
@pytest.mark.parametrize("value", [True, False, np.True_])
def test_config_rejects_a_bool_for_an_integer_option(name, value, message):
    # True passes a numbers.Integral check and equals 1: max_loops=True would run one
    # sweep, seed=True would seed with 1 and s=True would select the hat basis
    with pytest.raises(ValueError, match=message):
        SolverConfig(**{name: value})


def test_config_reduced_needs_s0():
    cfg = SolverConfig(variant="reduced_pnkr", s=0)
    assert cfg.variant == "reduced_pnkr"


def test_as_solve_data_duck_typing(tiny0_problem):
    _, data = tiny0_problem
    assert as_solve_data(data) is data
    via_samples = as_solve_data(
        types.SimpleNamespace(samples=data.y, delta_r=data.delta_r)
    )
    assert np.array_equal(via_samples.y, data.y)
    via_noisy = as_solve_data(
        types.SimpleNamespace(y_noisy=data.y, delta_r=data.delta_r)
    )
    assert np.array_equal(via_noisy.y, data.y)
    with pytest.raises(TypeError):
        as_solve_data(types.SimpleNamespace(delta_r=data.delta_r))
    with pytest.raises(TypeError):
        as_solve_data(types.SimpleNamespace(samples=data.y))


def test_equation_residual_norm_against_dense(tiny0, tiny0_problem):
    _, data = tiny0_problem
    rng = np.random.default_rng(12)
    u = rng.uniform(0.0, 1.0, tiny0.N * tiny0.L)
    G_dense = dense_G(tiny0)
    for r in (1, 4, tiny0.R):
        got = equation_residual_norm(tiny0, u, data, r)
        d = data.y[:, r - 1] - u.reshape(tiny0.N, tiny0.L) @ tiny0.Q[:, r - 1]
        resid_m = G_dense @ d
        expected = float(np.sqrt(resid_m @ np.linalg.solve(G_dense, resid_m)))
        np.testing.assert_allclose(got, expected, rtol=1e-10)
    at_zero = equation_residual_norm(tiny0, np.zeros(tiny0.N * tiny0.L), data, 2)
    np.testing.assert_allclose(
        at_zero, float(sample_norm(tiny0, data.y[:, 1])), rtol=1e-12
    )
    for bad in (0, tiny0.R + 1):
        with pytest.raises(ValueError):
            equation_residual_norm(tiny0, u, data, bad)


def test_resolve_omega(tiny0):
    # the stepsize has one home, the argument of sweeps() and of each sweep and step function
    with pytest.raises(TypeError, match="omega"):
        SolverConfig(variant="pnkr", s=0, omega=0.5)
    auto_sweep = resolve_omega(SolverConfig(variant="pnkr", s=0), tiny0)
    assert auto_sweep == 1.0 / rho_estimate(tiny0, stacked=False)
    auto_full = resolve_omega(SolverConfig(variant="landweber", s=0), tiny0)
    assert auto_full == 1.0 / rho_estimate(tiny0, stacked=True)
    assert auto_full <= auto_sweep


@pytest.mark.parametrize("variant", pnkr.solver.VARIANTS)
def test_resolve_omega_names_an_all_zero_kernel_table(tiny0, tiny0_problem, variant):
    # rho is 0 exactly when Q is, in each of its three forms; 1/rho used to raise ZeroDivisionError
    _, data = tiny0_problem
    system = build_forward_system(tiny0.basis, np.zeros_like(tiny0.Q))
    cfg = SolverConfig(variant=variant, s=0, max_loops=2)
    with pytest.raises(ValueError, match=r"kernel table Q .* rho=0\b"):
        resolve_omega(cfg, system)
    with pytest.raises(ValueError, match=r"kernel table Q .* rho=0\b"):
        run(cfg, data, system)


# -- single-equation updates --------------------------------------------------


@pytest.mark.parametrize("fixture_name", ["tiny0", "tiny1"])
def test_equation_update_matches_dense_kkt(fixture_name, request):
    system = request.getfixturevalue(fixture_name)
    rng = np.random.default_rng(3)
    z = rng.uniform(0.0, 1.0, system.N * system.L)
    y_r = rng.uniform(0.0, 1e-3, system.N)
    omega = 0.37 / rho_estimate(system)
    G_dense = dense_G(system)
    M_dense = dense_M(system)
    for r in (1, system.R // 2, system.R):
        d = _residual(system, y_r, z, r)
        got = pnkr_equation_update(system, z, d, r, omega)
        in_place = z.copy()
        assert pnkr_equation_update(system, in_place, d, r, omega, out=in_place) is in_place
        assert np.array_equal(in_place, got)
        H = dense_Hr(system, r)
        w_r = G_dense @ y_r
        resid = w_r - H @ z
        step = omega * np.linalg.solve(M_dense, H.T @ np.linalg.solve(G_dense, resid))
        expected = np.maximum(z + step, 0.0)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * max(scale, 1e-30))
    for bad in (0, system.R + 1, 1.5, np.nan, np.inf):
        for update in (pnkr_equation_update, reduced_equation_update):
            with pytest.raises(ValueError, match=f"r={bad} is not an integer"):
                update(system, z, y_r, bad, omega)


@pytest.mark.parametrize("r", [True, False, np.True_])
def test_channel_index_rejects_a_bool(tiny0, r):
    # True passes the integer check and equals 1: a step or apply_Hr would take channel 1
    u, d = np.zeros(tiny0.N * tiny0.L), np.zeros(tiny0.N)
    calls = (
        lambda: pnkr_equation_update(tiny0, u, d, r, 1.0),
        lambda: reduced_equation_update(tiny0, u, d, r, 1.0),
        lambda: apply_Hr(tiny0, u, r),
        lambda: apply_Hr_T(tiny0, d, r),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"r={r} is not an integer"):
            call()


@pytest.mark.parametrize("fixture_name", ["tiny0", "tiny1"])
@pytest.mark.parametrize("rows", [2, 3])
def test_blocked_step_matches_one_block_bitwise(fixture_name, rows, request):
    # the compiled step is entrywise: row blocks of the iterate stepped one at a time,
    # the last one partial, match one pass over the whole iterate, which is the same
    # fresh, in place and into another buffer
    system = request.getfixturevalue(fixture_name)
    M = system.N * system.L
    rng = np.random.default_rng(31)
    u_k = rng.uniform(0.0, 1.0, M)
    u_km1 = rng.uniform(0.0, 1.0, M)
    y_r = rng.uniform(0.0, 1e-3, system.N)
    omega = 0.9 / rho_estimate(system)
    blocks = [slice(n0, min(n0 + rows, system.N)) for n0 in range(0, system.N, rows)]
    for r in (1, system.R):
        d = _residual(system, y_r, u_k, r)
        plain = pnkr_equation_update(system, u_k, d, r, omega)
        U, p = u_k.reshape(system.N, system.L), system.Phi_inv_Q[:, r - 1]
        a, O = fixed_order_rows_dot(system.Psi_inv_G, d), u_km1.copy().reshape(system.N, system.L)
        for blk in blocks:
            _kernel_step(U[blk], O[blk], omega, a[blk], p)
        assert np.array_equal(O.reshape(-1), plain)
        in_place = u_k.copy()
        for u, buf in ((in_place, in_place), (u_k, u_km1.copy())):
            got = pnkr_equation_update(system, u, d, r, omega, out=buf)
            assert got is buf
            assert np.array_equal(got, plain)


@pytest.mark.parametrize("fixture_name", ["tiny0", "tiny1"])
def test_momentum_step_is_the_projected_step_at_the_momentum_point(fixture_name, request):
    # the sweep's momentum step never forms z = u_k + c (u_k - u_km1): it computes
    # fma(1 + c, u_k, fma(-c, u_km1, w)) with w = omega a p^T.  To first order each side is
    # within 4 eps ((1 + 2c)|u_k| + c|u_km1| + |w|) of the exact value, entrywise, and
    # the projection is 1-Lipschitz, so the two differ by at most twice that.  On one
    # channel with delta_r = 0 the gate steps; d is the residual at z, formed from the
    # oracle's gate residuals as the sweep forms it
    system = request.getfixturevalue(fixture_name)
    one = build_forward_system(system.basis, np.ascontiguousarray(system.Q[:, :1]))
    M = one.N * one.L
    rng = np.random.default_rng(34)
    u_k, u_km1 = rng.uniform(0.0, 1.0, M), rng.uniform(0.0, 1.0, M)
    y_r = rng.uniform(0.0, 1e-3, one.N)
    data = SolveData(y=y_r[:, None], delta_r=np.zeros(1))
    omega = 0.9 / rho_estimate(system)
    eps = np.finfo(float).eps
    for k_R in (2, 3, 7):
        state = SolverState(u_k=u_k.copy(), u_km1=u_km1.copy(), k_R=k_R)
        assert pnkr_sweep(state, SolverConfig(), data, one, omega) == 1
        c = (k_R - 1.0) / (k_R + 2.0)
        z = nesterov_extrapolate(u_k, u_km1, k_R)
        d = nesterov_extrapolate(_pass_residual(one, y_r, u_k, 1), _pass_residual(one, y_r, u_km1, 1), k_R)
        w = omega * np.outer(one.Psi_inv_G @ d, one.Phi_inv_Q[:, 0]).reshape(-1)
        unprojected = z + w
        bound = 8.0 * eps * ((1.0 + 2.0 * c) * np.abs(u_k) + c * np.abs(u_km1) + np.abs(w))
        assert np.all(np.abs(state.u_k - threshold(unprojected)) <= bound)
        assert 0 < np.sum(unprojected < 0.0) < M


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _kernel_step(U, O, alpha, a, p):
    """The kernel's single step ``pnkr_step`` on ``N x L`` iterates, on one thread, with ``S = I`` and ``d = a``.

    ``I a`` is ``a`` bitwise where ``a`` is nonzero, and a zero's sign does
    not reach the iterate, whose projection stores +0 for either.
    """
    N, L = O.shape
    a, p = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(p, dtype=float)
    pnkr.solver._call("pnkr_step", U, O, N, L, alpha, np.eye(N), a, np.empty(N), p, 0)


def _pass_problem(a, p, q, order):
    """A stand-in system and data on which the first step of a sweep in ``order`` is the pass with step vector ``a`` and column ``p``.

    ``S = I`` and both gate factors are identities.  ``Q``'s column of
    equation ``order[0]`` is zero, so that step's residuals at both
    iterates, and so its ``d``, are its samples ``a``.  Given ``q``,
    equation ``order[1]`` follows with column ``q`` of ``Q``, zero samples
    and the step column ``p`` with its non-finite entries set to 0: its
    gate residual is ``-g`` for the product ``g = O q`` that the first
    pass forms.  Every bound is 0.
    """
    N, L = len(a), len(p)
    Q = np.zeros((L, 1)) if q is None else np.column_stack([np.zeros(L), q])
    P = p[:, None] if q is None else np.column_stack([p, np.where(np.isfinite(p), p, 0.0)])
    y = np.column_stack([a, np.zeros((N, Q.shape[1] - 1))])
    # column j of each table above belongs to the j-th equation the sweep visits
    Q, P, y = (table[:, np.argsort(order)] for table in (Q, P, y))
    system = types.SimpleNamespace(N=N, L=L, R=Q.shape[1], Q=Q, G_axes=(np.eye(N), np.eye(1)), Psi_inv_G=np.eye(N), Phi_inv_Q=np.asfortranarray(P))
    return system, SolveData(y=y, delta_r=np.zeros(system.R))


def _pass_sweep(U, prev, k_R, alpha, a, p, q=None):
    """``pnkr_sweep`` on :func:`_pass_problem` from ``(U, prev, k_R)``, held bitwise to ``compiled_sweep_reference``.

    Returns the new iterate, or ``None`` when both raised ``RuntimeError``.
    """
    order = _documented_order(0, k_R, 1 if q is None else 2) - 1
    system, data = _pass_problem(a, p, q, order)
    state = SolverState(U.reshape(-1).copy(), prev.reshape(-1).copy(), k_R)
    c = (k_R - 1.0) / (k_R + 2.0)
    runs = (
        lambda: pnkr_sweep(state, SolverConfig(), data, system, alpha),
        lambda: compiled_sweep_reference(system, data.y, np.zeros(system.R), order, U, prev, c, system.Psi_inv_G, system.Phi_inv_Q, alpha),
    )
    outcomes = []
    for sweep in runs:
        try:
            outcomes.append(sweep())
        except RuntimeError:
            outcomes.append(None)
    updates, reference = outcomes
    if updates is None or reference is None:
        assert updates is reference is None
        return None
    want_u, want_prev, want_updates = reference
    assert updates == want_updates == system.R
    assert np.array_equal(_bits(state.u_k), _bits(want_u)) and np.array_equal(_bits(state.u_km1), _bits(want_prev))
    return state.u_k


@pytest.mark.parametrize("case", ["tiny0", "tiny1", "paper_shape"])
def test_step_kernel_matches_blas_sequence_bitwise(case, request):
    # the compiled pass against the row-blocked dgemm/daxpy sequence it replaced: the
    # single step (c = 0) out of place and in place, and the sweep's momentum pass (c > 0),
    # whose oracle takes its step by that sequence
    rng = np.random.default_rng(37)
    if case == "paper_shape":
        N, L = 625, 2808
        a, p, alpha = rng.normal(size=N), rng.normal(size=(L, 1)), 0.37
    else:
        system = request.getfixturevalue(case)
        N, L = system.N, system.L
        p, alpha = system.Phi_inv_Q[:, 0, None], 0.9 / rho_estimate(system)
        a = system.Psi_inv_G @ rng.normal(size=N)
        a *= 2.0 / (alpha * np.abs(a).max() * np.abs(p).max())  # corrections up to 2, so some entries clip
    U, prev = rng.uniform(0.0, 1.0, (N, L)), rng.uniform(0.0, 1.0, (N, L))
    want, got = prev.copy(), prev.copy()
    blas_rank_one_step(U, want, 0.0, alpha, a, p)
    _kernel_step(U, got, alpha, a, p)
    assert np.array_equal(_bits(got), _bits(want))
    assert 0 < np.sum(want == 0.0) < want.size
    want, got = U.copy(), U.copy()
    blas_rank_one_step(want, want, 0.0, alpha, a, p)
    _kernel_step(got, got, alpha, a, p)
    assert np.array_equal(_bits(got), _bits(want))
    for k_R in (2, 5):
        stepped = _pass_sweep(U, prev, k_R, alpha, a, p[:, 0])
        assert 0 < np.sum(stepped == 0.0) < stepped.size
    if case != "paper_shape":
        # the kernel takes raw pointers: a strided, short, 2D or non-float64 out, or a short
        # residual, never reaches it
        u, d = U.reshape(-1), rng.normal(size=N)
        for bad in (np.empty(2 * N * L)[::2], np.empty(N * L - 1), np.empty((N, L)), np.empty(N * L, dtype=np.float32)):
            with pytest.raises(ValueError, match="C-contiguous float64"):
                pnkr_equation_update(system, u, d, 1, alpha, out=bad)
        with pytest.raises(ValueError, match=f"residual of {N} entries"):
            pnkr_equation_update(system, u, d[:-1], 1, alpha)


@pytest.mark.parametrize("where", ["u_k", "u_km1"])
def test_step_kernel_projects_nan_inf_and_zero_like_np_maximum(where):
    # the single step's pass; a momentum pass, which only a sweep takes, reads a
    # non-finite entry only on its way to the sweep's error (next test)
    rng = np.random.default_rng(38)
    N, L = 7, 33
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
    U, prev = rng.uniform(0.0, 1.0, (N, L)), rng.uniform(0.0, 1.0, (N, L))
    bad = U if where == "u_k" else prev
    cells = rng.choice(N * L, size=4 * specials.size, replace=False)
    bad.reshape(-1)[cells] = np.tile(specials, 4)
    a, p = rng.normal(size=N), rng.normal(size=(L, 1))
    p[::5] = 0.0  # x = -0.0 where a[n] < 0
    want, got = prev.copy(), prev.copy()
    blas_rank_one_step(U, want, 0.0, 0.5, a, p)
    _kernel_step(U, got, 0.5, a, p)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    if where == "u_k":
        assert np.isnan(got).any() and np.isinf(got).any()


@pytest.mark.parametrize("case", ["tiny1", "desk", "paper_shape"])
def test_step_kernel_gate_product_is_the_fixed_order_sum_bitwise(case, request):
    # the pass's product g = O q, which the next gate reads, against the numpy sum in its
    # documented order: in a two-equation sweep the second gate's residual is -g and its
    # step is taken with d = -g (c = 0) or -g + c (-g + U q) (c > 0), so any bit of g shows
    # in the iterate; tiny1's L = 45 leaves a tail of 5
    rng = np.random.default_rng(40)
    if case == "paper_shape":
        N, L = 625, 2808
        a, p, q, alpha = rng.normal(size=N), rng.normal(size=L), rng.uniform(0.0, 1.0, L), 0.37
    else:
        system = _desk_system(1) if case == "desk" else request.getfixturevalue(case)
        N, L = system.N, system.L
        p, q, alpha = system.Phi_inv_Q[:, 0], system.Q[:, 1], 0.9 / rho_estimate(system)
        a = system.Psi_inv_G @ rng.normal(size=N)
        a *= 2.0 / (alpha * np.abs(a).max() * np.abs(p).max())  # corrections up to 2, so some entries clip
    U, prev = rng.uniform(0.0, 1.0, (N, L)), rng.uniform(0.0, 1.0, (N, L))
    for k_R in (1, 2, 5):
        stepped = _pass_sweep(U, prev, k_R, alpha, a, p, q)
        assert 0 < np.sum(stepped == 0.0) < stepped.size


@pytest.mark.parametrize("where", ["u_k", "u_km1"])
def test_step_kernel_gate_product_is_non_finite_where_the_step_writes_nan_or_inf(where):
    # the next gate is the sweep's finite check: a row the pass leaves with NaN or inf has a
    # non-finite product, also where q is 0 there (inf * 0 is NaN), and the sweep raises as
    # its oracle does.  A non-finite u_k never reaches a pass: the first gate's product
    # with a zero column is NaN.  The plain pass overwrites a non-finite u_km1, and the
    # momentum pass reads it through D', so every row of its d = S (D + c (D - D')) is NaN
    rng = np.random.default_rng(41)
    N, L = 9, 45
    U, prev = rng.uniform(0.0, 1.0, (N, L)), rng.uniform(0.0, 1.0, (N, L))
    a, p, q = rng.normal(size=N), rng.normal(size=L), rng.uniform(0.0, 1.0, L)
    q[20] = 0.0
    # an inf in the step's column: +inf in the rows where a > 0, -inf projected to +0 in the others
    p_inf = p.copy()
    p_inf[20] = np.inf
    assert _pass_sweep(U, prev, 2, 0.5, a, p_inf, q) is None
    assert _pass_sweep(U, prev, 2, 0.5, -np.abs(a), p_inf, q) is not None
    bad = U if where == "u_k" else prev
    for n, l, value in ((1, 3, np.nan), (3, 44, np.inf), (5, 10, -np.inf), (7, 20, np.inf), (7, 41, -np.inf)):
        bad[n, l] = value
    for k_R in (1, 2, 5):
        stepped = _pass_sweep(U, prev, k_R, 0.5, a, p, q)
        assert (stepped is None) == (where == "u_k" or k_R > 1)


def _import_and_step(cache, path_dir, no_processes=False):
    """Import ``pnkr.solver`` in a fresh process with ``XDG_CACHE_HOME=cache`` and ``PATH=path_dir``, print its build, then take one step.

    With ``no_processes`` the child cannot start one: its ``subprocess.Popen`` is gone.
    """
    src = str(Path(pnkr.solver.__file__).parents[1])
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PATH=str(path_dir))
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = "import subprocess\nsubprocess.Popen = None\n" if no_processes else ""
    code += "import numpy as np\nimport pnkr.solver\nprint(pnkr.solver.STEP_KERNEL_BUILD, flush=True)\n"
    code += "pnkr.solver._call('pnkr_step', *[np.ones(1)] * 2, 1, 1, 1.0, *[np.ones(1)] * 4, 0)"
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_step_kernel_builds_once_and_loads_from_the_cache(tmp_path):
    cache, no_cc = tmp_path / "cache", tmp_path / "no-cc"
    no_cc.mkdir()
    built = _import_and_step(cache, Path(os.path.dirname(shutil.which("cc"))))
    assert built.returncode == 0, built.stderr
    libraries = list((cache / "pnkr").iterdir())
    assert len(libraries) == 1 and libraries[0].suffix == ".so"
    assert built.stdout.strip() == pnkr.solver.STEP_KERNEL_BUILD
    loaded = _import_and_step(cache, no_cc, no_processes=True)
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout == built.stdout
    assert list((cache / "pnkr").iterdir()) == libraries
    # a failed build does not fail the import: its ImportError waits for the first step
    missing = _import_and_step(tmp_path / "empty", no_cc)
    assert missing.returncode != 0 and missing.stdout == "None\n"
    assert "ImportError" in missing.stderr and "no C compiler (cc) is on PATH" in missing.stderr


def test_step_kernel_names_a_cache_directory_it_cannot_write(tmp_path):
    # the cache directory is made before the compiler is looked for, so no compiler is needed
    not_a_dir, no_cc = tmp_path / "cache-file", tmp_path / "no-cc"
    not_a_dir.write_text("")
    no_cc.mkdir()
    failed = _import_and_step(not_a_dir, no_cc)
    assert failed.returncode != 0 and failed.stdout == "None\n"
    last = failed.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError") and str(not_a_dir / "pnkr") in last and "XDG_CACHE_HOME" in last


def test_step_kernel_build_names_openmp_when_the_compiler_lacks_it(tmp_path):
    # a cc that rejects -fopenmp, as a compiler without OpenMP does: the import succeeds and
    # the first step raises an ImportError that says the build needs OpenMP
    fake = tmp_path / "bin"
    fake.mkdir()
    (fake / "cc").write_text("#!/bin/sh\necho \"cc: error: unrecognized command-line option '-fopenmp'\" >&2\nexit 1\n")
    (fake / "cc").chmod(0o755)
    failed = _import_and_step(tmp_path / "cache", fake)
    assert failed.returncode != 0 and failed.stdout == "None\n"
    assert "ImportError" in failed.stderr and "OpenMP (-fopenmp)" in failed.stderr
    assert "unrecognized command-line option '-fopenmp'" in failed.stderr


def test_kernel_entry_codes_match_the_exported_prototypes():
    # ctypes passes each argument as _KERNEL_ENTRIES' hand-kept code says; a wrong code
    # passes an argument of the wrong width with no error
    kinds = {"size_t": "n", "double": "d", "int": "i"}
    results = {"void": None, "long": ctypes.c_long, "int": ctypes.c_int, "const char *": ctypes.c_char_p}
    exported = {}
    source = Path(pnkr.solver._KERNEL_PATH).read_text()
    for result, name, params in re.findall(r"^(?!static)(\w[\w *]*?)\s*\b(pnkr_\w+)\(([^)]*)\)\s*\{", source, re.M):
        args = [] if params.strip() == "void" else params.split(",")
        codes = "".join("p" if "*" in arg else kinds[arg.split()[0]] for arg in args)
        exported[name] = (codes, results[" ".join(result.replace("*", " *").split())])
    assert exported == pnkr.solver._KERNEL_ENTRIES


def test_step_kernel_builds_without_warnings(tmp_path):
    # an unused static routine, or a sign or width slip, fails the build
    flags = [*pnkr.solver._STEP_FLAGS, "-Wall", "-Wextra", "-Werror"]
    build = subprocess.run(["cc", *flags, pnkr.solver._KERNEL_PATH, "-o", str(tmp_path / "step.so"), "-lm"], capture_output=True, text=True)
    assert build.returncode == 0, build.stderr


# A random pnkr problem of N L = 144 x 2048 entries, above the kernel's threshold for
# OpenMP threads, with its truth u_true.
_PROBE_PROBLEM = """
import hashlib
import numpy as np
from pnkr.forward import build_forward_system, synthesize_datacube
from pnkr.grid_basis import make_basis, uniform_axis
from pnkr.mock import add_noise
from pnkr.solver import SWEEP_THREADS, _PARALLEL_ENTRIES, SolveData, SolverConfig

basis = make_basis(1, (uniform_axis(-1.0, 1.0, 13), uniform_axis(-1.0, 1.0, 13)), (uniform_axis(-1000.0, 1000.0, 17), uniform_axis(-2.0, 0.0, 9), uniform_axis(1.0, 13.0, 17)), beta=0.3)
assert (basis.N, basis.L) == (144, 2048) and basis.N * basis.L >= _PARALLEL_ENTRIES
rng = np.random.default_rng(0)
system = build_forward_system(basis, rng.uniform(0.0, 1.0, (basis.L, 24)))
u_true = rng.uniform(0.0, 1.0, basis.N * basis.L)
noisy = add_noise(system, synthesize_datacube(system, u_true), 0.01, seed=0)
data = SolveData(y=noisy.y_noisy, delta_r=noisy.delta_r)
config = SolverConfig(variant="pnkr", s=1, beta=0.3, max_loops=4)
"""

# Runs the problem's sweeps against u_true, then one single step, and prints the thread
# count, then digests of the iterate, of the deterministic history columns and of the step.
_THREAD_PROBE = _PROBE_PROBLEM + """
from pnkr.solver import pnkr_equation_update, run

res = run(config, data, system, u_star=u_true)
table = np.array([[row.loop, row.updates, row.data_residual, row.res, row.error] for row in res.history])
step = pnkr_equation_update(system, res.u, rng.normal(0.0, 1e-3, basis.N), 5, res.omega)
print(SWEEP_THREADS, res.total_updates, *(hashlib.sha256(x.tobytes()).hexdigest() for x in (res.u, table, step)))
"""

# Takes the problem's first sweep, forks once, and takes the second sweep in the child and
# then in the parent.  Prints, for the child and then the parent, the manifest's
# sweep_threads and a digest of the iterate and history row, then the child's exit code.
_FORK_PROBE = _PROBE_PROBLEM + """
import os
import signal
import time
import pnkr.cli
from pnkr.solver import SolverState, resolve_omega, sweeps

state = SolverState(np.zeros(basis.N * basis.L), np.zeros(basis.N * basis.L))
rows = sweeps(state, config, data, system, resolve_omega(config, system), u_star=u_true)
next(rows)


def second_sweep():
    row = next(rows)
    history = np.array([row.updates, row.data_residual, row.res, row.error])
    return f"{pnkr.cli._versions()['sweep_threads']} {hashlib.sha256(state.u_k.tobytes() + history.tobytes()).hexdigest()} "


read, write = os.pipe()
pid = os.fork()
if pid == 0:
    code = 1
    try:
        os.write(write, second_sweep().encode())
        code = 0
    finally:
        os._exit(code)
deadline = time.monotonic() + 60.0
while not (done := os.waitpid(pid, os.WNOHANG))[0]:
    if time.monotonic() > deadline:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise SystemExit("the forked child did not finish its sweep within 60 s")
    time.sleep(0.01)
os.close(write)
print(os.read(read, 4096).decode() + second_sweep() + str(os.waitstatus_to_exitcode(done[1])))
"""


def _probe(code, threads):
    """The words a probe prints, run in a fresh interpreter on ``threads`` OpenMP threads."""
    src = str(Path(pnkr.solver.__file__).parents[1])
    env = dict(os.environ, OMP_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    return probe.stdout.split()


def test_sweep_bits_do_not_depend_on_the_thread_count():
    # every row of every product and pass keeps its sum order on any number of OpenMP threads:
    # the sweeps, the history's residuals and errors, and a single step
    outputs = [_probe(_THREAD_PROBE, threads) for threads in ("1", "2")]
    assert [out[0] for out in outputs] == ["1", "2"]
    assert int(outputs[0][1]) > 0 and outputs[0][1:] == outputs[1][1:]


def test_a_forked_child_sweeps_on_one_thread_after_a_threaded_sweep():
    # libgomp does not rebuild its thread pool in a forked child, where a threaded sweep hung;
    # the child sweeps unthreaded, reports it, and keeps the parent's bits
    words = _probe(_FORK_PROBE, "2")
    assert len(words) == 5, words  # a failed child writes nothing
    child_threads, child, parent_threads, parent, exit_code = words
    assert (child_threads, parent_threads, exit_code) == ("1", "2", "0")
    assert child == parent


def test_reduced_identity_matches_plain_update(monkeypatch, tiny0, tiny0_problem):
    # a system built under the identity taps np.ones(1) keeps unsmoothed reduced factors
    _, data = tiny0_problem
    monkeypatch.setattr(pnkr.forward, "SMOOTHING_TAPS", np.ones(1))
    identity = build_forward_system(tiny0.basis, tiny0.Q)
    rng = np.random.default_rng(9)
    z = rng.uniform(0.0, 1.0, tiny0.N * tiny0.L)
    omega = 1.0 / rho_estimate(tiny0)
    c_M = tiny0.c_N * dense_Phi(tiny0.basis)[0, 0]
    for r in range(1, tiny0.R + 1):
        d = _residual(tiny0, data.y[:, r - 1], z, r)
        plain = pnkr_equation_update(tiny0, z, d, r, omega)
        reduced = reduced_equation_update(identity, z, d, r, omega / c_M)
        scale = np.abs(plain).max()
        np.testing.assert_allclose(reduced, plain, rtol=0, atol=1e-10 * scale)


def test_desk_reduced_step_is_the_smoothed_outer_product_in_place():
    # the separable stencil keeps the correction rank-one, (Z_x G G d)(Z_Theta q_r)^T;
    # the oracle smooths the whole N x L outer product over all five axes
    from pnkr.presets import preset_basis, preset_template

    basis = preset_basis("desk_scale", 0)
    system = build_forward_system(basis, kernel_theta_integrals(preset_template("desk_scale"), basis))
    u_true = evaluate_ground_truth(default_components(), basis)
    y = add_noise(system, synthesize_datacube(system, u_true), 0.01, seed=0).y_noisy
    rng = np.random.default_rng(26)
    u = u_true * rng.uniform(0.0, 2.0, u_true.size)
    U, G = u.reshape(system.N, system.L), dense_G(system)
    omega = 1.0 / reduced_rho(system)
    clipped = 0
    for r in range(1, system.R + 1):
        d = y[:, r - 1] - U @ system.Q[:, r - 1]
        raw = np.outer(G @ (G @ d), system.Q[:, r - 1]).reshape(basis.shape5)
        unprojected = u + (omega / system.c_N) * apply_Zs(raw, SMOOTHING_TAPS, 5).reshape(-1)
        want = threshold(unprojected)
        clipped += int(np.sum(unprojected < 0.0))
        out = np.empty_like(u)
        got = reduced_equation_update(system, u, d, r, omega, out=out)
        assert got is out
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        in_place = u.copy()
        again = reduced_equation_update(system, in_place, d, r, omega, out=in_place)
        assert again is in_place and np.array_equal(again, got)
    assert clipped > 0


def test_reduced_run_on_tiny_makes_progress():
    # tiny's z and t axes have 2 cells, fewer than the stencil's 3 taps; replicate edges smooth them
    from pnkr.presets import preset_basis, preset_template

    basis = preset_basis("tiny", 0)
    system = build_forward_system(basis, kernel_theta_integrals(preset_template("tiny"), basis))
    y = synthesize_datacube(system, evaluate_ground_truth(default_components(), basis))
    noisy = add_noise(system, y, 0.01, seed=7)
    data = SolveData(y=noisy.y_noisy, delta_r=noisy.delta_r)
    res = run(SolverConfig(variant="reduced_pnkr", s=0, max_loops=5), data, system)
    assert res.total_updates > 0
    residuals = [row.data_residual for row in res.history]
    assert residuals[0] < float(np.linalg.norm(sample_norm(system, data.y)))
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_reduced_sweep_rejects_hat_basis(tiny1, tiny0_problem):
    # the reduced factors exist on the piecewise-constant basis only, and every reader of
    # them names it: the sweep (under the reduced config it takes), the single step and the
    # stepsize bound
    _, data = tiny0_problem
    cfg = SolverConfig(variant="reduced_pnkr", s=0)
    u = np.zeros(tiny1.N * tiny1.L)
    state = SolverState(u_k=u.copy(), u_km1=u.copy())
    with pytest.raises(ValueError, match=r"s=0"):
        reduced_pnkr_sweep(state, cfg, data, tiny1, omega=1e-6)
    with pytest.raises(ValueError, match=r"s=0"):
        reduced_equation_update(tiny1, u, data.y[:, 0], 1, 1e-6)
    with pytest.raises(ValueError, match=r"s=0"):
        reduced_rho(tiny1)


@pytest.mark.parametrize("max_loops", [1, 5])
def test_reduced_factors_are_built_once_per_system(monkeypatch, tiny0, max_loops):
    # resolve_omega and a whole reduced run smooth each factor once, whatever the sweep budget;
    # every module's name for the stencil counts
    calls = []
    smooth = pnkr.forward.apply_Zs
    for module in (pnkr.forward, pnkr.solver):
        monkeypatch.setattr(module, "apply_Zs", lambda *args: calls.append(1) or smooth(*args))
    system = build_forward_system(tiny0.basis, tiny0.Q)
    y = synthesize_datacube(system, evaluate_ground_truth(default_components(), system.basis))
    noisy = add_noise(system, y, 0.01, seed=7)
    cfg = SolverConfig(variant="reduced_pnkr", s=0, max_loops=max_loops)
    resolve_omega(cfg, system)
    res = run(cfg, SolveData(y=noisy.y_noisy, delta_r=noisy.delta_r), system)
    assert res.loops == max_loops and len(calls) == 2


# -- sweep mechanics ----------------------------------------------------------


def test_gate_skips_satisfied_equations(tiny0, tiny0_problem):
    _, data = tiny0_problem
    wide = SolveData(y=data.y, delta_r=np.full(tiny0.R, 1e12))
    cfg = SolverConfig(variant="pnkr", s=0)
    state = SolverState(
        u_k=np.zeros(tiny0.N * tiny0.L), u_km1=np.zeros(tiny0.N * tiny0.L)
    )
    assert pnkr_sweep(state, cfg, wide, tiny0, omega=1e-6) == 0
    assert state.k_R == 2
    assert not state.u_k.any()
    res = run(cfg, wide, tiny0)
    assert res.converged
    assert res.loops == 1
    assert res.total_updates == 0
    assert np.array_equal(res.u, np.zeros(tiny0.N * tiny0.L))


def test_gate_tests_current_iterate_not_momentum_point(tiny0, tiny0_problem):
    u_star, _ = tiny0_problem
    y = _consistent_columns(tiny0, u_star)
    data = SolveData(y=y, delta_r=np.full(tiny0.R, 1e-6))
    state = SolverState(u_k=u_star.copy(), u_km1=u_star - 1.0, k_R=3)
    z = nesterov_extrapolate(state.u_k, state.u_km1, state.k_R)
    Z = z.reshape(tiny0.N, tiny0.L)
    worst = max(
        float(sample_norm(tiny0, y[:, r - 1] - Z @ tiny0.Q[:, r - 1]))
        for r in range(1, tiny0.R + 1)
    )
    assert worst > 1.2 * 1e-6
    cfg = SolverConfig(variant="pnkr", s=0)
    updates = pnkr_sweep(state, cfg, data, tiny0, omega=1e-6)
    assert updates == 0
    assert np.array_equal(state.u_k, u_star)


def test_update_taken_at_momentum_point(tiny0, tiny0_problem):
    _, data = tiny0_problem
    rng = np.random.default_rng(21)
    u_k = rng.uniform(0.0, 1.0, tiny0.N * tiny0.L)
    u_km1 = rng.uniform(0.0, 1.0, tiny0.N * tiny0.L)
    r0 = 5
    delta = np.full(tiny0.R, 1e12)
    delta[r0 - 1] = 0.0
    gated = SolveData(y=data.y, delta_r=delta)
    cfg = SolverConfig(variant="pnkr", s=0, tau=1.2)
    omega = 1.0 / rho_estimate(tiny0)
    state = SolverState(u_k=u_k.copy(), u_km1=u_km1.copy(), k_R=3)
    assert pnkr_sweep(state, cfg, gated, tiny0, omega=omega) == 1
    assert np.array_equal(state.u_km1, u_k)
    # the step is handed the residual at the momentum point, D + c (D - D'), as the oracle's
    order = _documented_order(cfg.seed, 3, tiny0.R) - 1
    expected, _, _ = compiled_sweep_reference(tiny0, data.y, cfg.tau * delta, order, u_k, u_km1, 0.4, tiny0.Psi_inv_G, tiny0.Phi_inv_Q, omega)
    assert np.array_equal(state.u_k, expected)
    # which is the step at z with the residual formed there, up to rounding
    z = nesterov_extrapolate(u_k, u_km1, 3)
    at_z = pnkr_equation_update(tiny0, z, _residual(tiny0, data.y[:, r0 - 1], z, r0), r0, omega)
    assert np.abs(state.u_k - at_z).max() <= 1e-13 * np.abs(at_z).max()


@pytest.mark.parametrize("momentum", [True, False])
def test_sweep_updates_the_state_buffers_in_place(tiny0, tiny0_problem, momentum):
    _, data = tiny0_problem
    rng = np.random.default_rng(22)
    u_k = rng.uniform(0.0, 1.0, tiny0.N * tiny0.L)
    u_km1 = rng.uniform(0.0, 1.0, tiny0.N * tiny0.L)
    r0 = 3
    delta = np.full(tiny0.R, 1e12)
    delta[r0 - 1] = 0.0
    gated = SolveData(y=data.y, delta_r=delta)
    cfg = SolverConfig(variant="pnkr" if momentum else "landweber_kaczmarz", s=0, tau=1.2)
    omega = 1.0 / rho_estimate(tiny0)
    a, b = u_k.copy(), u_km1.copy()
    state = SolverState(u_k=a, u_km1=b, k_R=3)
    assert pnkr_sweep(state, cfg, gated, tiny0, omega=omega) == 1
    assert {id(state.u_k), id(state.u_km1)} == {id(a), id(b)}
    assert np.array_equal(state.u_km1, u_k)
    if momentum:
        order = _documented_order(cfg.seed, 3, tiny0.R) - 1
        expected, _, _ = compiled_sweep_reference(tiny0, data.y, cfg.tau * delta, order, u_k, u_km1, 0.4, tiny0.Psi_inv_G, tiny0.Phi_inv_Q, omega)
    else:
        expected = pnkr_equation_update(tiny0, u_k, _pass_residual(tiny0, data.y[:, r0 - 1], u_k, r0), r0, omega)
    assert np.array_equal(state.u_k, expected)


@pytest.mark.parametrize("shared", [False, True])
def test_reduced_sweep_updates_the_state_buffers_in_place(tiny0, tiny0_problem, shared):
    _, data = tiny0_problem
    rng = np.random.default_rng(27)
    u = rng.uniform(0.0, 1.0, tiny0.N * tiny0.L)
    r0 = 3
    delta = np.full(tiny0.R, 1e12)
    delta[r0 - 1] = 0.0
    gated = SolveData(y=data.y, delta_r=delta)
    cfg = SolverConfig(variant="reduced_pnkr", s=0)
    omega = 1.0 / reduced_rho(tiny0)
    a, b = u.copy(), rng.uniform(0.0, 1.0, u.size)
    state = SolverState(u_k=a, u_km1=a if shared else b)
    assert reduced_pnkr_sweep(state, cfg, gated, tiny0, omega=omega) == 1
    if not shared:
        assert {id(state.u_k), id(state.u_km1)} == {id(a), id(b)}
    assert np.array_equal(state.u_km1, u)
    d = _pass_residual(tiny0, data.y[:, r0 - 1], u, r0)
    assert np.array_equal(state.u_k, reduced_equation_update(tiny0, u, d, r0, omega))


def test_sweep_on_shared_state_buffers_matches_distinct_ones(tiny0, tiny0_problem):
    _, data = tiny0_problem
    cfg = SolverConfig(variant="pnkr", s=0)
    omega = 1.0 / rho_estimate(tiny0)
    u = np.random.default_rng(23).uniform(0.0, 1.0, tiny0.N * tiny0.L)
    shared = SolverState(u_k=u.copy(), u_km1=None, k_R=4)
    shared.u_km1 = shared.u_k
    distinct = SolverState(u_k=u.copy(), u_km1=u.copy(), k_R=4)
    pnkr_sweep(shared, cfg, data, tiny0, omega=omega)
    pnkr_sweep(distinct, cfg, data, tiny0, omega=omega)
    assert np.array_equal(shared.u_k, distinct.u_k)
    assert np.array_equal(shared.u_km1, distinct.u_km1)


@pytest.mark.parametrize("variant", ["pnkr", "landweber"])
def test_run_steps_in_page_aligned_buffers(tiny0, tiny0_problem, variant):
    _, data = tiny0_problem
    res = run(SolverConfig(variant=variant, s=0, max_loops=3), data, tiny0)
    assert res.total_updates > 0
    assert res.u.ctypes.data % pnkr.solver._BUFFER_ALIGN == 0


@pytest.mark.parametrize("k_R", [1, 2, 3])
@pytest.mark.parametrize("variant", ["pnkr", "landweber_kaczmarz", "reduced_pnkr"])
def test_sweep_hands_each_step_the_residual_at_its_step_point(tiny0, tiny0_problem, variant, k_R):
    # every equation is active; the test forms each residual itself, in the kernel's order:
    # D at u_k and, for a momentum step past k_R = 1, D' at the previous iterate, and
    # hands it to the public single step, or for a momentum step to the oracle's step
    _, data = tiny0_problem
    eager = SolveData(y=data.y, delta_r=np.zeros(tiny0.R))
    cfg = SolverConfig(variant=variant, s=0)
    omega = resolve_omega(cfg, tiny0)
    rng = np.random.default_rng(33)
    u_k, u_km1 = rng.uniform(0.0, 1.0, tiny0.N * tiny0.L), rng.uniform(0.0, 1.0, tiny0.N * tiny0.L)
    state = SolverState(u_k=u_k.copy(), u_km1=u_km1.copy(), k_R=k_R)
    if variant == "reduced_pnkr":
        assert reduced_pnkr_sweep(state, cfg, eager, tiny0, omega=omega) == tiny0.R
    else:
        assert pnkr_sweep(state, cfg, eager, tiny0, omega=omega) == tiny0.R

    for r in _documented_order(cfg.seed, k_R, tiny0.R):
        D = _pass_residual(tiny0, data.y[:, r - 1], u_k, r)
        if variant == "pnkr" and k_R > 1:
            d = nesterov_extrapolate(D, _pass_residual(tiny0, data.y[:, r - 1], u_km1, r), k_R)
            u_new = u_km1.reshape(tiny0.N, tiny0.L).copy()
            a = fixed_order_rows_dot(tiny0.Psi_inv_G, d)
            blas_rank_one_step(u_k.reshape(tiny0.N, tiny0.L), u_new, (k_R - 1.0) / (k_R + 2.0), omega, a, tiny0.Phi_inv_Q[:, r - 1, None])
            u_new = u_new.reshape(-1)
        elif variant != "reduced_pnkr":
            u_new = pnkr_equation_update(tiny0, u_k, D, r, omega)
        else:
            u_new = reduced_equation_update(tiny0, u_k, D, r, omega)
        u_k, u_km1 = u_new, u_k
    assert np.array_equal(state.u_k, u_k)
    assert np.array_equal(state.u_km1, u_km1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gated_sweep_rejects_non_finite_step(tiny0, tiny0_problem, bad):
    # a non-finite entry in the iterate reaches the first gate, which raises before any step
    # writes the u_km1 buffer; a stepsize of nan or inf makes the first step's iterate
    # non-finite, and the next gate, whose product the step pass formed, raises.  Either
    # error names omega, and k_R does not advance
    _, data = tiny0_problem
    eager = SolveData(y=data.y, delta_r=np.zeros(tiny0.R))
    M = tiny0.N * tiny0.L
    omega = 1.0 / rho_estimate(tiny0)
    poisoned = np.full(M, 0.5)
    poisoned[M // 2] = bad
    for sweep, variant in ((pnkr_sweep, "pnkr"), (reduced_pnkr_sweep, "reduced_pnkr")):
        cfg = SolverConfig(variant=variant, s=0)
        state = SolverState(u_k=poisoned.copy(), u_km1=np.full(M, 0.25), k_R=2)
        with pytest.raises(RuntimeError, match=f"omega={omega:g} is too large"):
            sweep(state, cfg, eager, tiny0, omega)
        assert np.array_equal(state.u_km1, np.full(M, 0.25)) and state.k_R == 2
        state = SolverState(u_k=np.full(M, 0.5), u_km1=np.full(M, 0.25), k_R=2)
        with pytest.raises(RuntimeError, match=f"omega={bad:g} is too large"):
            sweep(state, cfg, eager, tiny0, bad)
        assert state.k_R == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("variant", ["pnkr", "landweber"])
def test_sweep_rejects_non_finite_last_update(tiny0, tiny0_problem, monkeypatch, bad, variant):
    # no gate follows a sweep's last update, so the sweep checks it itself
    _, data = tiny0_problem
    M = tiny0.N * tiny0.L
    rng = np.random.default_rng(36)
    state = SolverState(u_k=rng.uniform(0.0, 1.0, M), u_km1=rng.uniform(0.0, 1.0, M), k_R=2)
    cfg = SolverConfig(variant=variant, s=0)
    if variant == "landweber":
        real, calls = pnkr.solver.threshold, []

        def poisoned(*args, **kwargs):
            got = real(*args, **kwargs)
            calls.append(1)
            got[-1] = bad
            return got

        monkeypatch.setattr(pnkr.solver, "threshold", poisoned)
        eager = SolveData(y=data.y, delta_r=np.zeros(tiny0.R))
        with pytest.raises(RuntimeError, match="omega"):
            landweber_step(state, cfg, eager, tiny0, omega=1.0 / rho_estimate(tiny0, stacked=True))
        assert len(calls) == 1
        return
    # only the last equation of the order is out of tolerance, and a stepsize of nan or inf
    # makes its update non-finite (near zero the residual is positive, so inf steps up); the
    # pass sums that update against a zero column, NaN exactly in a non-finite row, and the
    # sweep raises.  With a finite stepsize it steps once
    r_last = _documented_order(cfg.seed, 2, tiny0.R)[-1]
    delta = np.full(tiny0.R, 1e12)
    delta[r_last - 1] = 0.0
    last_only = SolveData(y=data.y, delta_r=delta)
    u_k, u_km1 = 1e-9 * state.u_k, 1e-9 * state.u_km1
    state = SolverState(u_k=u_k.copy(), u_km1=u_km1.copy(), k_R=2)
    with pytest.raises(RuntimeError, match=f"omega={bad:g}"):
        pnkr_sweep(state, cfg, last_only, tiny0, omega=bad)
    with pytest.raises(RuntimeError, match="last update"):
        compiled_sweep_reference(tiny0, data.y, 1.2 * delta, _documented_order(cfg.seed, 2, tiny0.R) - 1, u_k, u_km1, 0.25, tiny0.Psi_inv_G, tiny0.Phi_inv_Q, bad)
    assert pnkr_sweep(SolverState(u_k=u_k, u_km1=u_km1, k_R=2), cfg, last_only, tiny0, omega=1.0 / rho_estimate(tiny0)) == 1


def test_gate_sees_inf_where_the_channel_has_no_weight(tiny0, tiny0_problem):
    # an inf in column l0 of the iterate, which no channel weighs, enters every gate as
    # inf * 0, which is NaN: the first gate raises and no step writes the u_km1 buffer.  A
    # product that skipped zero weights, or summed under -ffast-math, would miss it
    _, data = tiny0_problem
    l0 = 7
    Q = tiny0.Q.copy()
    Q[l0, :] = 0.0
    system = build_forward_system(tiny0.basis, Q)
    M = system.N * system.L
    u = np.full(M, 0.5)
    u.reshape(system.N, system.L)[3, l0] = np.inf
    with np.errstate(invalid="ignore"):
        assert np.isnan(fixed_order_rows_dot(u.reshape(system.N, system.L), Q[:, 0])[3])
    eager = SolveData(y=data.y, delta_r=np.zeros(system.R))
    for variant in ("pnkr", "landweber_kaczmarz"):
        state = SolverState(u_k=u.copy(), u_km1=np.full(M, 0.25), k_R=2)
        with pytest.raises(RuntimeError, match="omega"):
            pnkr_sweep(state, SolverConfig(variant=variant, s=0), eager, system, omega=1.0 / rho_estimate(system))
        assert np.array_equal(state.u_km1, np.full(M, 0.25))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_landweber_step_rejects_a_non_finite_residual(tiny0, tiny0_problem, bad):
    _, data = tiny0_problem
    rng = np.random.default_rng(37)
    u, prev = rng.uniform(0.0, 1.0, tiny0.N * tiny0.L), rng.uniform(0.0, 1.0, tiny0.N * tiny0.L)
    D, _ = pnkr.solver._block_residual(tiny0, u, data)
    D[4, 3] = bad
    state = SolverState(u_k=u.copy(), u_km1=prev.copy())
    cfg = SolverConfig(variant="landweber", s=0)
    with np.errstate(invalid="ignore"):
        residual = (D, sample_norm(tiny0, D))
    with pytest.raises(RuntimeError, match="omega"):
        landweber_step(state, cfg, data, tiny0, 1.0 / rho_estimate(tiny0, stacked=True), residual=residual)
    # the gate raised: no step wrote its iterate into the u_km1 buffer
    assert np.array_equal(state.u_k, u) and np.array_equal(state.u_km1, prev)


def _desk_system(s):
    from pnkr.presets import preset_basis, preset_template

    basis = preset_basis("desk_scale", s, beta=1.0)
    return build_forward_system(basis, kernel_theta_integrals(preset_template("desk_scale"), basis))


@pytest.mark.parametrize("fixture_name", ["tiny0", "tiny1", "desk"])
def test_one_equation_gate_norm_is_the_oracle_norm_bitwise(fixture_name, request):
    # with tau = 2 the limit 2 (n / 2) is the oracle's norm n exactly, so the gate passes
    # every channel at n and fails every channel one ulp below it only if its norm is n.
    # omega = 0 makes every step leave the iterate as it is, so every gate sees the same
    # iterate, whether it forms its product or takes it from the step pass before it
    system = _desk_system(1) if fixture_name == "desk" else request.getfixturevalue(fixture_name)
    rng = np.random.default_rng(38)
    u = rng.uniform(0.0, 1.0, system.N * system.L)
    y = rng.uniform(-1.0, 1.0, (system.N, system.R))
    norms = np.array([fixed_order_gate_norm(system, _pass_residual(system, y[:, r - 1], u, r)) for r in range(1, system.R + 1)])
    # the oracle's norm is the sample norm of the numpy residual, up to rounding
    np.testing.assert_allclose(norms, sample_norm(system, y - synthesize_datacube(system, u)), rtol=1e-12)
    cfg = SolverConfig(variant="landweber_kaczmarz", s=system.basis.s, beta=0.0, tau=2.0)
    for limit, updates in ((norms, 0), (np.nextafter(norms, 0.0), system.R)):
        state = SolverState(u_k=u.copy(), u_km1=u.copy())
        data = SolveData(y=y, delta_r=limit / 2.0)
        assert pnkr_sweep(state, cfg, data, system, 0.0) == updates
        assert np.array_equal(state.u_k, u)


def _oracle_sweep_check(system, variant, seed, k_R):
    """One sweep of ``variant`` at ``k_R`` with some channels skipped and some active, held bitwise to the numpy oracle."""
    N, L, R = system.N, system.L, system.R
    rng = np.random.default_rng(seed)
    u_k, u_km1 = rng.uniform(0.0, 1.0, N * L), rng.uniform(0.0, 1.0, N * L)
    y = synthesize_datacube(system, rng.uniform(0.0, 1.0, N * L))
    norms = np.array([fixed_order_gate_norm(system, _pass_residual(system, y[:, r - 1], u_k, r)) for r in range(1, R + 1)])
    # bounds about the residuals at u_k: some channels pass, some step
    data = SolveData(y=y, delta_r=norms * rng.uniform(0.5, 1.5, R) / 1.2)
    cfg = SolverConfig(variant=variant, s=system.basis.s, tau=1.2, seed=seed)
    omega = resolve_omega(cfg, system)
    state = SolverState(u_k=u_k.copy(), u_km1=u_km1.copy(), k_R=k_R)
    if variant == "reduced_pnkr":
        updates = reduced_pnkr_sweep(state, cfg, data, system, omega)
        S, P, c, alpha = system.Zx_GG, system.ZTheta_Q, 0.0, omega / system.c_N
    else:
        updates = pnkr_sweep(state, cfg, data, system, omega)
        S, P, alpha = system.Psi_inv_G, system.Phi_inv_Q, omega
        c = (k_R - 1.0) / (k_R + 2.0) if variant == "pnkr" else 0.0
    order = _documented_order(seed, k_R, R) - 1
    want_u, want_prev, want_updates = compiled_sweep_reference(system, y, 1.2 * data.delta_r, order, u_k, u_km1, c, S, P, alpha)
    assert 0 < updates == want_updates < R
    assert np.array_equal(_bits(state.u_k), _bits(want_u)) and np.array_equal(_bits(state.u_km1), _bits(want_prev))


@pytest.mark.parametrize("fixture_name", ["tiny0", "tiny1", "uneven0"])
def test_sweep_gates_match_a_block_residual_reference(fixture_name, request):
    # every gate's product, norm and decision, every D', S d and step against the numpy
    # oracle of the compiled sweep, bitwise, for each variant the basis runs
    system = request.getfixturevalue(fixture_name)
    variants = ["pnkr", "landweber_kaczmarz"] + (["reduced_pnkr"] if system.basis.s == 0 else [])
    for variant in variants:
        for k_R in (1, 3):
            _oracle_sweep_check(system, variant, 39, k_R)


@pytest.mark.parametrize("variant", ["pnkr", "landweber_kaczmarz", "reduced_pnkr"])
def test_desk_sweep_matches_the_numpy_oracle_bitwise(variant):
    _oracle_sweep_check(_desk_system(0 if variant == "reduced_pnkr" else 1), variant, 42, 4)


@pytest.mark.parametrize("fixture_name", ["tiny0", "tiny1", "uneven0", "desk"])
def test_compiled_end_of_sweep_products_match_the_oracle_bitwise(fixture_name, request):
    # what sweeps() takes from the kernel above the thread threshold: every channel's residual
    # norm (U Q in blocks of eight columns, here also a partial block of five)
    full = _desk_system(1) if fixture_name == "desk" else request.getfixturevalue(fixture_name)
    rng = np.random.default_rng(43)
    u = rng.uniform(0.0, 1.0, full.N * full.L)
    for system in (full, build_forward_system(full.basis, np.ascontiguousarray(full.Q[:, :5]))):
        y = rng.uniform(-1.0, 1.0, (system.N, system.R))
        norms = pnkr.solver._compiled_norms(system, u, y, system.G_axes)
        want = [fixed_order_gate_norm(system, _pass_residual(system, y[:, r - 1], u, r)) for r in range(1, system.R + 1)]
        assert np.array_equal(_bits(norms), _bits(np.array(want)))


@pytest.mark.parametrize("variant", ["pnkr", "reduced_pnkr"])
def test_history_above_the_thread_threshold_matches_numpys(monkeypatch, tiny0, tiny0_problem, variant):
    # above _PARALLEL_ENTRIES a history row's data_residual and res come from the kernel's
    # residual norms: the same values to rounding.  error's norms come from np.einsum on
    # both sides of the threshold: the same bits
    u_star, data = tiny0_problem
    cfg = SolverConfig(variant=variant, s=0, max_loops=5, seed=3)
    numpy_run = run(cfg, data, tiny0, u_star=u_star)
    monkeypatch.setattr(pnkr.solver, "_PARALLEL_ENTRIES", 0)
    kernel_run = run(cfg, data, tiny0, u_star=u_star)
    assert np.array_equal(kernel_run.u, numpy_run.u)
    for got, want in zip(kernel_run.history, numpy_run.history, strict=True):
        assert (got.loop, got.updates) == (want.loop, want.updates)
        np.testing.assert_allclose([got.data_residual, got.res], [want.data_residual, want.res], rtol=1e-12)
        assert got.error == want.error


def test_counter_advances_once_per_sweep(tiny0, tiny0_problem):
    _, data = tiny0_problem
    eager = SolveData(y=data.y, delta_r=np.zeros(tiny0.R))
    cfg = SolverConfig(variant="pnkr", s=0)
    omega = 1.0 / rho_estimate(tiny0)
    state = SolverState(
        u_k=np.zeros(tiny0.N * tiny0.L), u_km1=np.zeros(tiny0.N * tiny0.L)
    )
    assert [pnkr_sweep(state, cfg, eager, tiny0, omega=omega) for _ in range(2)] == [tiny0.R] * 2
    assert state.k_R == 3


@pytest.mark.parametrize("k_R", [0, -3, 2.5, True])
@pytest.mark.parametrize("variant", pnkr.solver.VARIANTS)
def test_sweeps_reject_a_bad_loop_counter(tiny0, tiny0_problem, variant, k_R):
    # k_R = 0 used to write a history row with loop 0, k_R = -3 to sweep from loop -3,
    # 2.5 to write loop 2.5 and True to run as 1; numpy's own errors named no k_R
    _, data = tiny0_problem
    cfg = SolverConfig(variant=variant, s=0, max_loops=3)
    omega, M = resolve_omega(cfg, tiny0), tiny0.N * tiny0.L
    sweep = {"reduced_pnkr": reduced_pnkr_sweep, "landweber": landweber_step}.get(variant, pnkr_sweep)
    for call in (lambda state: next(sweeps(state, cfg, data, tiny0, omega)), lambda state: sweep(state, cfg, data, tiny0, omega)):
        state = SolverState(np.zeros(M), np.zeros(M), k_R=k_R)
        with pytest.raises(ValueError, match=rf"state\.k_R={k_R!r}$"):
            call(state)
        assert state.k_R is k_R and not state.u_k.any()


@pytest.mark.parametrize("variant", ["reduced_pnkr", "landweber", "pnkr", "landweber_kaczmarz"])
def test_pnkr_sweep_refuses_a_variant_it_does_not_step(tiny0, tiny0_problem, variant):
    # every sweep function refuses the configs of the variants it does not step, before it
    # touches the state: pnkr_sweep, which takes its momentum from config.variant, used to take
    # momentum steps under them, and reduced_pnkr_sweep and landweber_step stepped under any config
    _, data = tiny0_problem
    M = tiny0.N * tiny0.L
    own = {pnkr_sweep: ("pnkr", "landweber_kaczmarz"), reduced_pnkr_sweep: ("reduced_pnkr",), landweber_step: ("landweber",)}
    for sweep in [f for f, variants in own.items() if variant not in variants]:
        state = SolverState(np.zeros(M), np.zeros(M))
        with pytest.raises(ValueError, match=rf"^{sweep.__name__} runs the .* not a {variant!r} config$"):
            sweep(state, SolverConfig(variant=variant, s=0), data, tiny0, 1.0 / rho_estimate(tiny0))
        assert state.k_R == 1 and not state.u_k.any() and not state.u_km1.any()


def _sequential_column_dots(Q, P):
    """``q_r^T p_r`` of every column pair, summed over ``l`` in increasing order, one rounded product at a time."""
    out = np.zeros(Q.shape[1])
    for l in range(Q.shape[0]):
        out += Q[l] * P[l]
    return out


def test_kernel_table_is_stored_column_major_and_keeps_omegas_bits(tiny0, tiny0_problem):
    # the sweep reads each channel's column of Q in place, so a system stores Q in Fortran
    # order whatever the caller hands in; the column sums behind omega keep the order they
    # had on a C-ordered Q (an einsum over two Fortran-ordered tables changed their bits), and
    # a stand-in system whose Q is C-ordered solves to the same bits
    _, data = tiny0_problem
    table = np.ascontiguousarray(tiny0.Q)
    built = [build_forward_system(tiny0.basis, order(table)) for order in (np.ascontiguousarray, np.asfortranarray)]
    stand_in = dataclasses.replace(built[0], Q=table)
    for system in built:
        assert system.Q.flags.f_contiguous and np.array_equal(system.Q, table)
        assert pnkr.solver._gate_operands(system, data.y, system.G_axes)[1] is system.Q
    assert stand_in.Q.flags.c_contiguous and not stand_in.Q.flags.f_contiguous
    for system in (*built, stand_in):
        assert np.array_equal(system.q_Phi_q, _sequential_column_dots(table, system.Phi_inv_Q))
        assert reduced_rho(system) == reduced_rho(tiny0)
        for variant in pnkr.solver.VARIANTS:
            cfg = SolverConfig(variant=variant, s=0, max_loops=3)
            assert resolve_omega(cfg, system).hex() == resolve_omega(cfg, tiny0).hex()
            got, want = run(cfg, data, system), run(cfg, data, tiny0)
            assert np.array_equal(got.u, want.u) and [row.data_residual for row in got.history] == [row.data_residual for row in want.history]


def test_plain_kaczmarz_is_momentum_with_unit_counter(tiny0, tiny0_problem):
    _, data = tiny0_problem
    # k_R keys the order too, so both states sweep at k_R = 1 and read one order
    cfg = SolverConfig(variant="pnkr", s=0)
    omega = 1.0 / rho_estimate(tiny0)
    M = tiny0.N * tiny0.L
    plain = SolverState(u_k=np.zeros(M), u_km1=np.zeros(M))
    pinned = SolverState(u_k=np.zeros(M), u_km1=np.zeros(M))
    for _ in range(3):
        plain.k_R = pinned.k_R = 1
        pnkr_sweep(plain, SolverConfig(variant="landweber_kaczmarz", s=0), data, tiny0, omega=omega)
        pnkr_sweep(pinned, cfg, data, tiny0, omega=omega)
        assert np.array_equal(plain.u_k, pinned.u_k)


def test_run_ordering_matches_documented_permutation(tiny0, tiny0_problem):
    # every equation steps, so the run is the chain of plain steps in the documented orders,
    # each handed the residual in the kernel's order
    _, data = tiny0_problem
    eager = SolveData(y=data.y, delta_r=np.zeros(tiny0.R))
    omega = 1.0 / rho_estimate(tiny0)
    cfg = SolverConfig(variant="landweber_kaczmarz", s=0, max_loops=3, seed=11)
    res = run(cfg, eager, tiny0)
    assert res.omega == omega
    assert res.total_updates == 3 * tiny0.R
    u = np.zeros(tiny0.N * tiny0.L)
    for loop in (1, 2, 3):
        for r in _documented_order(11, loop, tiny0.R):
            u = pnkr_equation_update(tiny0, u, _pass_residual(tiny0, eager.y[:, r - 1], u, r), r, omega)
    assert np.array_equal(res.u, u)


@pytest.mark.parametrize("variant", pnkr.solver.VARIANTS)
def test_run_is_a_loop_of_sweeps_on_a_fresh_state(tiny0, tiny0_problem, variant):
    # a sweep reads only the two iterates, k_R and the configuration, so the public
    # sweeps on the zero state SolverState(u0, u0) give run()'s iterate and update counts
    # bitwise, and the sweeps() generator gives run()'s history rows bitwise but for the
    # wall time
    u_star, data = tiny0_problem
    cfg = SolverConfig(variant=variant, s=0, max_loops=6, seed=5)
    res = run(cfg, data, tiny0, u_star=u_star)
    sweep = {
        "pnkr": pnkr_sweep,
        "landweber_kaczmarz": pnkr_sweep,
        "reduced_pnkr": reduced_pnkr_sweep,
        "landweber": landweber_step,
    }[variant]
    omega = resolve_omega(cfg, tiny0)
    u0 = np.zeros(tiny0.N * tiny0.L)
    state = SolverState(u0, u0)
    updates = [sweep(state, cfg, data, tiny0, omega) for _ in range(res.loops)]
    assert updates == [row.updates for row in res.history] and sum(updates) > 0
    assert res.loops == len(res.history) == state.k_R - 1
    assert res.total_updates == sum(updates)
    assert res.converged == (updates[-1] == 0)
    assert np.array_equal(state.u_k, res.u)
    fresh = SolverState(np.zeros(tiny0.N * tiny0.L), np.zeros(tiny0.N * tiny0.L))
    fields = ("loop", "updates", "data_residual", "res", "error")

    def table(rows):
        return np.array([[getattr(row, f) for f in fields] for row in rows], dtype=float).tobytes()

    assert table(sweeps(fresh, cfg, data, tiny0, omega, u_star)) == table(res.history)
    assert fresh.k_R == state.k_R and np.array_equal(fresh.u_k, res.u)


def test_sweeps_stops_and_continues_like_run(tiny0, tiny0_problem):
    # a caller reads the iterate at the first total-residual stop and sweeps on to
    # run()'s end; numpy's error state is the caller's whenever the generator is paused
    _, data = tiny0_problem
    cfg = SolverConfig(variant="pnkr", s=0, max_loops=80, seed=0)
    res = run(cfg, data, tiny0)
    omega, M = resolve_omega(cfg, tiny0), tiny0.N * tiny0.L
    limit = 1.2 * np.linalg.norm(data.delta_r)
    with np.errstate(over="warn", invalid="raise"):
        caller = np.geterr()
        state, early = SolverState(np.zeros(M), np.zeros(M)), None
        for row in sweeps(state, cfg, data, tiny0, omega):
            assert np.geterr() == caller
            if early is None and row.data_residual <= limit:
                early, stop = state.u_k.copy(), row.loop
        assert 1 < stop < res.loops == row.loop == cfg.max_loops
        assert np.array_equal(state.u_k, res.u)
        for row in sweeps(SolverState(np.zeros(M), np.zeros(M)), cfg, data, tiny0, omega):
            break
        assert np.geterr() == caller
    truncated = run(SolverConfig(variant="pnkr", s=0, max_loops=stop, seed=0), data, tiny0)
    assert np.array_equal(early, truncated.u) and not np.array_equal(early, res.u)
    bad = SolveData(y=data.y[:, :-1], delta_r=data.delta_r)
    with pytest.raises(ValueError, match="data cube has shape") as from_run:
        run(cfg, bad, tiny0)
    with pytest.raises(ValueError) as from_sweeps:
        list(sweeps(SolverState(np.zeros(M), np.zeros(M)), cfg, bad, tiny0, omega))
    assert str(from_sweeps.value) == str(from_run.value)


def _dense_landweber_step(system, data, u, omega):
    Psi_dense = dense_Psi(system.basis)
    Phi_dense = dense_Phi(system.basis)
    G_dense = dense_G(system)
    U = u.reshape(system.N, system.L)
    total = np.zeros_like(U)
    for r in range(1, system.R + 1):
        d = data.y[:, r - 1] - U @ system.Q[:, r - 1]
        left = np.linalg.solve(Psi_dense, G_dense @ d)
        right = np.linalg.solve(Phi_dense, system.Q[:, r - 1])
        total += omega * np.outer(left, right)
    return np.maximum((U + total).reshape(-1), 0.0)


def test_landweber_step_sums_all_corrections(tiny0, tiny0_problem):
    _, data = tiny0_problem
    rng = np.random.default_rng(17)
    u = rng.uniform(0.0, 1.0, tiny0.N * tiny0.L)
    omega = 1.0 / rho_estimate(tiny0, stacked=True)
    cfg = SolverConfig(variant="landweber", s=0)
    state = SolverState(u_k=u.copy(), u_km1=u.copy())
    moved = landweber_step(state, cfg, data, tiny0, omega=omega)
    assert moved == 1
    assert state.k_R == 2
    expected = _dense_landweber_step(tiny0, data, u, omega)
    scale = np.abs(expected).max()
    np.testing.assert_allclose(state.u_k, expected, rtol=0, atol=1e-10 * scale)
    wide = SolveData(y=data.y, delta_r=np.full(tiny0.R, 1e12))
    quiet = SolverState(u_k=u.copy(), u_km1=u.copy())
    assert landweber_step(quiet, cfg, wide, tiny0, omega=omega) == 0
    assert np.array_equal(quiet.u_k, u)
    assert quiet.k_R == 2


@pytest.mark.parametrize("shared", [False, True])
def test_landweber_step_updates_the_state_buffers_in_place(tiny0, tiny0_problem, shared):
    _, data = tiny0_problem
    rng = np.random.default_rng(21)
    u = rng.uniform(0.0, 1.0, tiny0.N * tiny0.L)
    omega = 1.0 / rho_estimate(tiny0, stacked=True)
    cfg = SolverConfig(variant="landweber", s=0)
    a, b = u.copy(), rng.uniform(0.0, 1.0, u.size)
    state = SolverState(u_k=a, u_km1=a if shared else b)
    assert landweber_step(state, cfg, data, tiny0, omega=omega) == 1
    if not shared:
        assert {id(state.u_k), id(state.u_km1)} == {id(a), id(b)}
    assert np.array_equal(state.u_km1, u)
    U = u.reshape(tiny0.N, tiny0.L)
    A = omega * (tiny0.Psi_inv_G @ (data.y - U @ tiny0.Q))
    assert np.array_equal(state.u_k, threshold((U + A @ tiny0.Phi_inv_Q.T).reshape(-1)))


def test_landweber_run_reuses_each_loop_residual_for_the_next_gate(monkeypatch, tiny0, tiny0_problem):
    _, data = tiny0_problem
    cfg = SolverConfig(variant="landweber", s=0, max_loops=5)
    omega = resolve_omega(cfg, tiny0)
    M = tiny0.N * tiny0.L
    # reference: steps whose gates form their own residuals
    state = SolverState(u_k=np.zeros(M), u_km1=np.zeros(M))
    residuals = []
    for _ in range(cfg.max_loops):
        assert landweber_step(state, cfg, data, tiny0, omega) == 1
        residuals.append(float(np.linalg.norm(sample_norm(tiny0, data.y - synthesize_datacube(tiny0, state.u_k)))))
    real, calls = pnkr.solver._block_residual, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pnkr.solver, "_block_residual", counting)
    res = run(cfg, data, tiny0)
    # the first gate, then one residual per loop, for its history row and the next gate
    assert res.loops == cfg.max_loops and len(calls) == res.loops + 1
    assert np.array_equal(res.u, state.u_k)
    np.testing.assert_allclose([row.data_residual for row in res.history], residuals, rtol=1e-14)


def test_desk_landweber_step_is_one_product_per_side():
    # on desk the residual and the correction are each one numpy product over all rows
    from pnkr.presets import preset_basis, preset_template

    basis = preset_basis("desk_scale", 0)
    system = build_forward_system(basis, kernel_theta_integrals(preset_template("desk_scale"), basis))
    rng = np.random.default_rng(24)
    u = rng.uniform(0.0, 1.0, system.N * system.L)
    data = SolveData(y=rng.uniform(0.0, 1.0, (system.N, system.R)), delta_r=np.zeros(system.R))
    omega = 1.0 / rho_estimate(system, stacked=True)
    state = SolverState(u_k=u.copy(), u_km1=u.copy())
    assert landweber_step(state, SolverConfig(variant="landweber", s=0), data, system, omega=omega) == 1
    U = u.reshape(system.N, system.L)
    A = omega * (system.Psi_inv_G @ (data.y - U @ system.Q))
    assert np.array_equal(state.u_k, threshold((U + A @ system.Phi_inv_Q.T).reshape(-1)))


def test_landweber_mixed_gate_sums_every_correction(tiny0, tiny0_problem):
    _, data = tiny0_problem
    rng = np.random.default_rng(19)
    u = rng.uniform(0.0, 1.0, tiny0.N * tiny0.L)
    omega = 1.0 / rho_estimate(tiny0, stacked=True)
    cfg = SolverConfig(variant="landweber", s=0, tau=1.2)
    norms = np.array(
        [equation_residual_norm(tiny0, u, data, r) for r in range(1, tiny0.R + 1)]
    )
    # even channels sit inside twice their bound, odd ones outside half of it
    delta = np.where(np.arange(tiny0.R) % 2 == 0, 2.0, 0.5) * norms / cfg.tau
    mixed = SolveData(y=data.y, delta_r=delta)
    state = SolverState(u_k=u.copy(), u_km1=u.copy())
    assert 0 < (norms <= cfg.tau * delta).sum() < tiny0.R
    assert landweber_step(state, cfg, mixed, tiny0, omega=omega) == 1
    expected = _dense_landweber_step(tiny0, mixed, u, omega)
    scale = np.abs(expected).max()
    np.testing.assert_allclose(state.u_k, expected, rtol=0, atol=1e-10 * scale)


# -- full runs ----------------------------------------------------------------


def test_discrepancy_termination_and_nonnegativity(tiny0, tiny0_problem):
    u_star, data = tiny0_problem
    cfg = SolverConfig(variant="pnkr", s=0, max_loops=500, seed=3)
    res = run(cfg, data, tiny0, u_star=u_star)
    assert res.converged
    assert 10 < res.loops <= 500
    assert np.all(res.u >= 0.0)
    assert res.history[-1].updates == 0
    assert len(res.history) == res.loops
    assert res.total_updates == sum(row.updates for row in res.history)
    for r in range(1, tiny0.R + 1):
        assert (
            equation_residual_norm(tiny0, res.u, data, r)
            <= cfg.tau * data.delta_r[r - 1] + 1e-9
        )
    stacked_bound = cfg.tau * float(np.sqrt(np.sum(data.delta_r**2)))
    assert res.history[-1].data_residual <= stacked_bound + 1e-9
    assert res.history[-1].error < res.history[0].error


def test_truncation_reported(tiny0, tiny0_problem):
    _, data = tiny0_problem
    hopeless = SolveData(y=data.y, delta_r=np.zeros(tiny0.R))
    cfg = SolverConfig(variant="pnkr", s=0, max_loops=3, seed=3)
    res = run(cfg, hopeless, tiny0)
    assert not res.converged
    assert res.loops == 3
    assert len(res.history) == 3
    assert all(row.updates > 0 for row in res.history)


def test_divergence_raises_naming_stepsize(tiny0, tiny0_problem):
    import warnings

    _, data = tiny0_problem
    cfg = SolverConfig(variant="pnkr", s=0, max_loops=50, seed=3)
    M = tiny0.N * tiny0.L
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="omega=1e\\+06"):
            list(sweeps(SolverState(np.zeros(M), np.zeros(M)), cfg, data, tiny0, 1e6))


def test_reduced_identity_trajectory_matches_plain_kaczmarz(monkeypatch, tiny0, tiny0_problem):
    # with the identity taps np.ones(1) every reduced step is the plain one up to the constant c_M;
    # a system built under those taps keeps unsmoothed reduced factors
    _, data = tiny0_problem
    monkeypatch.setattr(pnkr.forward, "SMOOTHING_TAPS", np.ones(1))
    identity = build_forward_system(tiny0.basis, tiny0.Q)
    omega = 1.0 / rho_estimate(tiny0)
    c_M = tiny0.c_N * dense_Phi(tiny0.basis)[0, 0]
    M = tiny0.N * tiny0.L
    plain, reduced = SolverState(np.zeros(M), np.zeros(M)), SolverState(np.zeros(M), np.zeros(M))
    plain_rows = sweeps(plain, SolverConfig(variant="landweber_kaczmarz", s=0, max_loops=50, seed=5), data, tiny0, omega)
    reduced_rows = sweeps(reduced, SolverConfig(variant="reduced_pnkr", s=0, max_loops=50, seed=5), data, identity, omega / c_M)
    assert [row.updates for row in reduced_rows] == [row.updates for row in plain_rows]
    scale = np.abs(plain.u_k).max()
    np.testing.assert_allclose(reduced.u_k, plain.u_k, rtol=0, atol=1e-10 * scale)


def test_reduced_default_stepsize_leaves_the_zero_iterate(tiny_template):
    # at 1/rho of the preconditioned operator every reduced step overshot
    # and the projection returned the iterate to exactly zero
    theta = (THETA_GRIDS[0], uniform_axis(-2.0, 0.0, 4), uniform_axis(1.0, 13.0, 4))
    basis = make_basis(0, OMEGA_GRIDS, theta)
    system = build_forward_system(basis, kernel_theta_integrals(tiny_template, basis))
    y = synthesize_datacube(system, evaluate_ground_truth(default_components(), basis))
    noisy = add_noise(system, y, 0.01, seed=7)
    data = SolveData(y=noisy.y_noisy, delta_r=noisy.delta_r)
    res = run(SolverConfig(variant="reduced_pnkr", s=0, max_loops=10, seed=0), data, system)
    assert res.omega == 1.0 / reduced_rho(system)
    at_zero = float(np.linalg.norm(sample_norm(system, data.y)))
    assert res.total_updates > 0
    assert res.history[-1].data_residual < at_zero


def test_single_channel_contraction_is_exact(tiny0):
    sys1 = build_forward_system(tiny0.basis, np.ascontiguousarray(tiny0.Q[:, :1]))
    rng = np.random.default_rng(5)
    u_true = rng.uniform(0.0, 1.0, sys1.N * sys1.L)
    y = _consistent_columns(sys1, u_true)
    data = SolveData(y=y, delta_r=np.zeros(1))
    r0 = float(sample_norm(sys1, y[:, 0]))
    # damped step: every correction is entrywise nonnegative, so the
    # projection never clips and the residual contracts by exactly 1 - omega rho
    rho = float(sys1.q_Phi_q[0])
    cfg = SolverConfig(variant="landweber_kaczmarz", s=0, max_loops=5, seed=0)
    M = sys1.N * sys1.L
    rows = sweeps(SolverState(np.zeros(M), np.zeros(M)), cfg, data, sys1, 0.2 / rho)
    predicted = [0.8 ** k * r0 for k in range(1, 6)]
    np.testing.assert_allclose([row.data_residual for row in rows], predicted, rtol=1e-9)
    auto = run(
        SolverConfig(variant="landweber_kaczmarz", s=0, max_loops=2, seed=0),
        data,
        sys1,
    )
    assert auto.history[0].data_residual <= 1e-6 * r0


def test_run_initial_guess_at_truth(tiny0, tiny0_problem):
    # a warm start is sweeps() on a state: at the truth every gate holds, so the first
    # sweep makes no update and ends the solve, for every variant and loop counter
    u_star, _ = tiny0_problem
    y = _consistent_columns(tiny0, u_star)
    data = SolveData(y=y, delta_r=np.full(tiny0.R, 1e-12))
    for variant, k_R in itertools.product(pnkr.solver.VARIANTS, (1, 4)):
        cfg = SolverConfig(variant=variant, s=0, max_loops=10, seed=0)
        state = SolverState(u_k=u_star.copy(), u_km1=u_star.copy(), k_R=k_R)
        rows = list(sweeps(state, cfg, data, tiny0, resolve_omega(cfg, tiny0), u_star=u_star))
        assert [(row.loop, row.updates) for row in rows] == [(k_R, 0)]
        assert np.array_equal(state.u_k, u_star) and state.k_R == k_R + 1
        assert rows[0].error == 0.0


def test_run_validation_errors(tiny0, tiny1, tiny0_problem):
    u_star, data = tiny0_problem
    cfg = SolverConfig(variant="pnkr", s=0, max_loops=1)
    with pytest.raises(ValueError):
        run(cfg, SolveData(y=data.y[:, :-1], delta_r=data.delta_r), tiny0)
    with pytest.raises(ValueError):
        run(cfg, SolveData(y=data.y, delta_r=data.delta_r[:-1]), tiny0)
    with pytest.raises(ValueError):
        run(SolverConfig(variant="pnkr", s=1, max_loops=1), data, tiny0)
    with pytest.raises(ValueError):
        run(cfg, data, tiny0, u_star=u_star[:-1])
    # a negative entry stays allowed (an SVD reference has them); a non-finite one would
    # turn every row's res and error into NaN
    for value in (np.nan, np.inf):
        bad = u_star.copy()
        bad[[3, 5]] = -1.0, value
        with pytest.raises(ValueError, match=f"reference coefficient entry 5 is {value:g}; it must be finite"):
            run(cfg, data, tiny0, u_star=bad)


@pytest.mark.parametrize(
    "config_beta, basis_beta",
    [(0.01, 0.3), (0.0, 0.3)],
)
def test_run_rejects_a_beta_the_basis_does_not_carry(tiny_template, tiny0_problem, config_beta, basis_beta):
    _, data = tiny0_problem
    system = _tiny_system(1, tiny_template, beta=basis_beta)
    cfg = SolverConfig(variant="pnkr", s=1, beta=config_beta, max_loops=1)
    with pytest.raises(ValueError, match=rf"beta={config_beta:g} but the system basis has beta=0\.3$"):
        run(cfg, data, system)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("sample", "r=3 has a non-finite sample"),
        ("delta_inf", "r=3 has delta_r=inf"),
        ("delta_negative", "r=3 has delta_r=-0.1"),
    ],
)
def test_run_rejects_bad_data_naming_the_channel(
    tiny0, tiny0_problem, bad, message
):
    _, data = tiny0_problem
    y = data.y.copy()
    delta = data.delta_r.copy()
    if bad == "sample":
        y[1, 2] = np.nan
    else:
        delta[2] = np.inf if bad == "delta_inf" else -0.1
    delta[5] = np.nan
    cfg = SolverConfig(variant="pnkr", s=0, max_loops=1)
    with pytest.raises(ValueError, match=message):
        run(cfg, SolveData(y=y, delta_r=delta), tiny0)


@pytest.mark.parametrize(
    "bad, tau, message",
    [
        # a warm start from an initial guess: both iterates the guess, k_R = 1
        pytest.param("nan", 1.2, "state.u_k entry 4 is nan", id="nan-1.2-initial guess entry 4 is nan"),
        # a state handed to sweeps(), whose first sweep would blame the stepsize;
        # u_km1 only where a step reads it, pnkr's momentum step past k_R = 1
        ("pnkr u_k", 1.2, "state.u_k entry 4 is nan"),
        ("landweber u_k", 1.2, "state.u_k entry 4 is nan"),
        ("pnkr u_km1", 1.2, "state.u_km1 entry 4 is nan"),
        ("landweber_kaczmarz u_k", 1.2, "state.u_k entry 4 is nan"),
        ("reduced_pnkr u_k", 1.2, "state.u_k entry 4 is nan"),
        # every gate holds at the start, so a solve would return it unprojected
        *[(f"{variant} negative", 1e9, "state.u_k entry 0 is -1; it must be finite and nonnegative") for variant in pnkr.solver.VARIANTS],
    ],
)
def test_run_rejects_bad_initial_guess_naming_the_entry(
    tiny0, tiny0_problem, bad, tau, message
):
    _, data = tiny0_problem
    M = tiny0.N * tiny0.L
    if bad == "nan":
        guess = np.zeros(M)
        guess[[4, 9]] = np.nan
        cfg = SolverConfig(variant="pnkr", s=0, tau=tau, max_loops=1)
        with pytest.raises(ValueError, match=message):
            next(sweeps(SolverState(u_k=guess, u_km1=guess.copy()), cfg, data, tiny0, resolve_omega(cfg, tiny0)))
        return
    variant, name = bad.split()
    state = SolverState(u_k=np.zeros(M), u_km1=np.zeros(M), k_R=2)
    if name == "negative":
        state.u_k[:] = -1.0
    else:
        getattr(state, name)[[4, 9]] = np.nan
    cfg = SolverConfig(variant=variant, s=0, tau=tau, max_loops=3)
    with pytest.raises(ValueError, match=message):
        next(sweeps(state, cfg, data, tiny0, resolve_omega(cfg, tiny0)))


@pytest.mark.parametrize("variant", pnkr.solver.VARIANTS)
def test_sweeps_checks_the_state_iterates_for_every_variant(tiny0, tiny0_problem, variant):
    # one entry too many, a 2D, a float32 or a strided iterate: the same message for every
    # variant, before a sweep runs, for either iterate
    _, data = tiny0_problem
    M = tiny0.N * tiny0.L
    cfg = SolverConfig(variant=variant, s=0, max_loops=3)
    message = re.escape(f"a sweep over {tiny0.R} equations needs samples of shape ({tiny0.N}, {tiny0.R}), {tiny0.R} noise levels and C-contiguous float64 iterates of shape ({M},)")
    for bad in (np.zeros(M + 1), np.zeros((tiny0.N, tiny0.L)), np.zeros(M, dtype=np.float32), np.zeros(2 * M)[::2]):
        for state in (SolverState(bad, np.zeros(M)), SolverState(np.zeros(M), bad)):
            with pytest.raises(ValueError, match=message):
                next(sweeps(state, cfg, data, tiny0, resolve_omega(cfg, tiny0)))


@pytest.mark.parametrize(
    "variant, sweep, step",
    [
        ("pnkr", "pnkr_sweep", "pnkr_equation_update"),
        ("landweber_kaczmarz", "pnkr_sweep", "pnkr_equation_update"),
        ("reduced_pnkr", "reduced_pnkr_sweep", "reduced_equation_update"),
        ("landweber", "landweber_step", None),
    ],
)
def test_run_looks_up_sweeps_and_steps_at_call_time(
    monkeypatch, tiny0, tiny0_problem, variant, sweep, step
):
    _, data = tiny0_problem
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in (
        "pnkr_sweep",
        "reduced_pnkr_sweep",
        "landweber_step",
        "pnkr_equation_update",
        "reduced_equation_update",
        "nesterov_extrapolate",
    ):
        monkeypatch.setattr(
            pnkr.solver, name, counting(name, getattr(pnkr.solver, name))
        )
    cfg = SolverConfig(variant=variant, s=0, max_loops=3, seed=3)
    res = run(cfg, data, tiny0)
    assert res.total_updates > res.history[0].updates > 0
    # a Kaczmarz sweep is one kernel call: it calls no single step and never
    # extrapolates in numpy, so only the sweep itself is looked up
    assert calls[step] == calls["nesterov_extrapolate"] == 0
    assert calls == {sweep: res.loops}


# -- determinism and files ----------------------------------------------------


def test_run_is_deterministic(tiny0, tiny0_problem, tmp_path):
    u_star, data = tiny0_problem
    cfg = SolverConfig(variant="pnkr", s=0, max_loops=30, seed=3)
    first = run(cfg, data, tiny0, u_star=u_star)
    second = run(cfg, data, tiny0, u_star=u_star)
    assert np.array_equal(first.u, second.u)
    assert len(first.history) == len(second.history)
    for a, b in zip(first.history, second.history):
        assert (a.loop, a.updates) == (b.loop, b.updates)
        assert a.data_residual == b.data_residual
        assert a.res == b.res
        assert a.error == b.error
    path_a = tmp_path / "hist_a.txt"
    path_b = tmp_path / "hist_b.txt"
    write_history(first.history, path_a)
    write_history(second.history, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert (tmp_path / "hist_a.txt.timing").exists()


def test_history_roundtrip(tiny0, tiny0_problem, tmp_path):
    u_star, data = tiny0_problem
    cfg = SolverConfig(variant="pnkr", s=0, max_loops=5, seed=3)
    res = run(cfg, data, tiny0, u_star=u_star)
    path = tmp_path / "history.txt"
    write_history(res.history, path)
    back = read_history(path)
    assert len(back) == len(res.history)
    for a, b in zip(res.history, back):
        assert a.loop == b.loop
        assert a.updates == b.updates
        assert a.data_residual == b.data_residual
        assert a.res == b.res
        assert a.error == b.error
        assert np.isnan(b.seconds)
    bogus = tmp_path / "not_history.txt"
    bogus.write_text("alpha beta\n1 2\n")
    with pytest.raises(ValueError):
        read_history(bogus)


def test_history_layout(tmp_path):
    # space-separated with 17 significant digits, NaN res and error without a
    # reference; the seconds go to the sidecar with six decimals
    rows = [
        HistoryRow(loop=1, updates=12, data_residual=0.1, res=np.nan, error=np.nan, seconds=0.25),
        HistoryRow(loop=2, updates=0, data_residual=2.0 / 3.0, res=1e-20, error=3.0, seconds=1.5),
    ]
    path = tmp_path / "history.csv"
    write_history(rows, path)
    assert path.read_bytes() == (
        b"loop updates data_residual res error\n"
        b"1 12 0.10000000000000001 nan nan\n"
        b"2 0 0.66666666666666663 9.9999999999999995e-21 3\n"
    )
    assert (tmp_path / "history.csv.timing").read_bytes() == b"loop seconds\n1 0.250000\n2 1.500000\n"


@pytest.mark.parametrize("fields", [1, 2, 4])
def test_read_history_names_a_cut_row(tiny0, tiny0_problem, tmp_path, fields):
    u_star, data = tiny0_problem
    res = run(SolverConfig(variant="pnkr", s=0, max_loops=3, seed=3), data, tiny0, u_star=u_star)
    path = tmp_path / "history.txt"
    write_history(res.history, path)
    lines = path.read_text().splitlines()
    # cut inside the third line, the second row
    path.write_text("\n".join(lines[:2] + [" ".join(lines[2].split()[:fields])]) + "\n")
    with pytest.raises(ValueError, match=f"history table line 3: expected 5 fields, found {fields}"):
        read_history(path)


@pytest.mark.parametrize(
    "body, match",
    [
        ("", "history table is empty"),
        ("1 2 0.5 nan nan 7\n", "history table line 2: expected 5 fields, found 6"),
        ("1.5 2 0.5 nan nan\n", "whole"),
    ],
    ids=["header_only", "extra_field", "fractional_loop"],
)
def test_read_history_rejects_a_malformed_body(tmp_path, body, match):
    path = tmp_path / "history.txt"
    path.write_text("loop updates data_residual res error\n" + body)
    with pytest.raises(ValueError, match=match):
        read_history(path)


def test_coefficient_file_roundtrip(tiny0, tmp_path):
    rng = np.random.default_rng(2)
    u = rng.uniform(0.0, 1.0, tiny0.N * tiny0.L)
    path = tmp_path / "coeffs.pnku"
    write_coefficients(u, tiny0.N, tiny0.L, 0, path)
    back = read_coefficients(path)
    assert np.array_equal(back.u, u)
    assert (back.N, back.L, back.s) == (tiny0.N, tiny0.L, 0)
    with pytest.raises(ValueError):
        write_coefficients(u[:-1], tiny0.N, tiny0.L, 0, tmp_path / "bad.pnku")
    raw = path.read_bytes()
    mangled = tmp_path / "mangled.pnku"
    mangled.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        read_coefficients(mangled)
    short = tmp_path / "short.pnku"
    short.write_bytes(raw[:-16])
    with pytest.raises(ValueError):
        read_coefficients(short)


def test_coefficient_file_layout(tmp_path):
    # the documented layout, built by hand: magic, the <u4 words version 1, N,
    # L and s, then the <f8 coefficients
    u = np.linspace(-1.0, 2.0, 6) / 7.0
    path = tmp_path / "coeffs.pnku"
    write_coefficients(u, 2, 3, 1, path)
    assert path.read_bytes() == b"PNKU" + np.array([1, 2, 3, 1], dtype="<u4").tobytes() + u.astype("<f8").tobytes()


# bytes kept of a PNKU file: 4-byte magic, then version, N, L, s as 4-byte
# words, then the payload
PNKU_CUTS = {"in-version": 6, "before-L": 12, "in-s": 18}


@pytest.mark.parametrize("keep", PNKU_CUTS.values(), ids=PNKU_CUTS.keys())
def test_coefficient_file_rejects_truncated_header(tiny0, tmp_path, keep):
    path = tmp_path / "coeffs.pnku"
    write_coefficients(np.zeros(tiny0.N * tiny0.L), tiny0.N, tiny0.L, 0, path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match="coefficient file truncated"):
        read_coefficients(path)


@pytest.mark.parametrize("s,beta,sweeps", [(0, 0.0, 20), (1, 1.0, 20)])
def test_desk_scale_recovery_of_reachable_reference(s, beta, sweeps):
    # the iteration from zero converges to the data-determined image of
    # the truth; guards the observed desk-scale rate (about 6% after one
    # sweep, below 1% by sweep 20 with the automatic stepsize)
    from pnkr.presets import preset_basis, preset_template

    template = preset_template("desk_scale")
    basis = preset_basis("desk_scale", s, beta)
    table = kernel_theta_integrals(template, basis)
    system = build_forward_system(basis, table)
    u_true = evaluate_ground_truth(default_components(), basis)
    u_ref = row_space_image(u_true, system)
    assert np.all(u_ref >= 0.0)
    y = synthesize_datacube(system, u_ref)
    data = SolveData(y=y, delta_r=np.zeros(system.R))
    cfg = SolverConfig(variant="pnkr", s=s, beta=beta, max_loops=sweeps, seed=0)
    res = run(cfg, data, system, u_star=u_ref)
    errors = [row.error for row in res.history]
    assert errors[0] <= 0.10
    assert errors[-1] <= 0.01
    assert errors[0] > errors[1] > errors[2]
