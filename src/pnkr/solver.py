"""Iterative reconstruction by gated, accelerated Kaczmarz sweeps.

One sweep visits every wavelength equation once, in the order keyed by
``(seed, k_R)``: ``1..R`` for cyclic ordering, otherwise the permutation
drawn from ``SeedSequence([seed, k_R])``.  A sweep reads nothing but the
configuration and :class:`SolverState`, the two iterates and the loop
counter ``k_R``.  An equation whose data-space residual at the current
iterate already sits below ``tau`` times its noise level is skipped; an
active equation takes the momentum point

    z_k = u_k + ((k_R - 1) / (k_R + 2)) (u_k - u_{k-1}),

then the projected preconditioned step

    u_{k+1} = max(z_k + omega M^-1 H_r^T N^-1 (w_r - H_r z_k), 0),

which the Kronecker structure collapses to a rank-one correction of the
coefficient matrix.  The loop counter ``k_R`` driving the momentum
factor advances once per sweep; skipped equations advance nothing.  The
run terminates on the first sweep that makes no update, at which point
every equation satisfies the discrepancy bound simultaneously, or when
the loop budget runs out (reported as truncation, not an error).

Every variant runs through one gated block driver: a block is a slice
of equations, gated together on its residual at ``u_k`` and, when any
of its equations is out of tolerance, replaced by one projected step
(block Kaczmarz).  The Kaczmarz variants use blocks of one equation in
sweep order: with momentum (pnkr), without it (Landweber-Kaczmarz), or
with the reduced step that trades the Kronecker solve for an explicit
separable smoothing of the unpreconditioned step on the
piecewise-constant basis.  The full-stack Landweber iteration is one
block of all equations whose step sums every correction before
projecting.

Every variant steps in place: ``SolverState.u_k`` and ``u_km1`` are two
buffers that each step reuses.  The new iterate is built in the ``u_km1``
buffer and the commit swaps the two, so no array of the iterate's size
is allocated per step.  A caller that keeps the arrays it put into a
state must copy them first.  After the finite check raises
``RuntimeError`` the contents of both buffers are undefined.

A residual is affine in the iterate, so at the momentum point it is
``D + c (D - D')``, with ``D`` and ``D'`` the residuals at ``u_k`` and
``u_{k-1}`` and ``c`` the momentum factor (0 in the first sweep).  The
sweep hands each step the residual at its step point; no step computes
one.  A Kaczmarz step is memory-bound on large grids, so it makes one
pass over row blocks of the iterate small enough to stay in L2
(``_STEP_BLOCK_ENTRIES``), building each block of the new iterate in the
``u_km1`` buffer and projecting it while it is in cache.  No step checks
for inf or NaN: the next gate's product reads every entry.  A momentum
step never forms its momentum point: per block, one ``dgemm`` turns
``u_{k-1}`` into ``-c u_{k-1}`` plus the rank-one correction and
``daxpy`` adds ``(1 + c) u_k``, two BLAS calls in place of three
elementwise passes and the ``dgemm``.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy, dgemm

from .forward import (
    SMOOTHING_TAPS,
    ForwardSystem,
    _check_r,
    apply_G,
    apply_H_all,
    apply_Zs,
    reduced_rho,
    rho_estimate,
    sample_norm,
)
from .grid_basis import _numeric_rows, _open_binary, _write_binary

__all__ = [
    "VARIANTS",
    "SolverConfig",
    "SolveData",
    "SolverState",
    "HistoryRow",
    "RunResult",
    "threshold",
    "nesterov_extrapolate",
    "resolve_omega",
    "as_solve_data",
    "pnkr_equation_update",
    "reduced_equation_update",
    "pnkr_sweep",
    "reduced_pnkr_sweep",
    "landweber_step",
    "run",
    "write_coefficients",
    "read_coefficients",
    "write_history",
    "read_history",
]

VARIANTS = ("pnkr", "reduced_pnkr", "landweber_kaczmarz", "landweber")
ORDERINGS = ("cyclic", "random_permutation")

# Entries of one row block of the iterate in the Kaczmarz step:
# 768 KiB of float64, which stays in a 1-4 MiB L2 next to the other
# operands.  A paper-scale iterate (625 x 2808) runs in blocks of 35 rows;
# a desk-scale one (144 x 448) is one block.  OpenBLAS runs a GEMM of
# m*n*k <= 4 * 65536 on one thread, and the rank-one (k = 1) dgemm of a
# block stays under that: a threaded k = 1 update over the whole paper
# iterate made a sweep three times slower.
_STEP_BLOCK_ENTRIES = 98_304
# Entries of one daxpy in a momentum step.  OpenBLAS runs an axpy of at
# most 10,000 entries on one thread; a threaded whole-block daxpy from
# scipy's OpenBLAS next to numpy's threaded products stalled at 10-11 ms.
_AXPY_ENTRIES = 10_000
# Byte alignment of the two iterate buffers run() steps in.  The heap
# places a fresh array at any 16-byte offset, which changed from one
# process to the next, and a desk-scale step on buffers off a cache line
# took about 11% (momentum) and 8% (c = 0) longer; page-aligned buffers
# give every process the same layout.
_BUFFER_ALIGN = 4096


@dataclass(eq=False)
class SolverConfig:
    """Everything a run needs beyond the assembled system and data.

    ``omega is None`` selects the automatic stepsize ``1 / rho`` with
    ``rho`` the largest eigenvalue of the step's operator, computed
    exactly (per equation for sweep methods, full stack for the summed
    iteration, the smoothed unpreconditioned operator for the reduced
    variant, whose stencil is :data:`~pnkr.forward.SMOOTHING_TAPS` on
    every axis).
    """

    variant: str = "pnkr"
    s: int = 1
    beta: float = 0.0
    omega: float | None = None
    tau: float = 1.2
    max_loops: int = 100
    ordering: str = "random_permutation"
    seed: int = 0
    initial_guess: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.s not in (0, 1):
            raise ValueError("s must be 0 or 1")
        if not 0.0 <= self.beta < np.inf:
            raise ValueError(f"beta must be finite and nonnegative, got beta={self.beta}")
        if self.omega is not None and not 0.0 < self.omega < np.inf:
            raise ValueError(f"omega must be finite and positive, got omega={self.omega}")
        if not 1.0 < self.tau < np.inf:
            raise ValueError(f"tau must be finite and exceed 1, got tau={self.tau}")
        if not (isinstance(self.max_loops, numbers.Integral) and self.max_loops >= 1):
            raise ValueError(f"max_loops must be an integer of at least 1, got max_loops={self.max_loops}")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}; expected one of {ORDERINGS}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got seed={self.seed}")
        if self.variant == "reduced_pnkr" and self.s != 0:
            raise ValueError("the reduced variant runs on the piecewise-constant basis only (s=0)")


@dataclass(frozen=True, eq=False)
class SolveData:
    """Observed samples and per-channel noise levels."""

    y: np.ndarray
    delta_r: np.ndarray


def as_solve_data(data) -> SolveData:
    """Coerce a datacube-like object into :class:`SolveData`.

    Accepts :class:`SolveData`, anything with ``samples`` and
    ``delta_r`` (datacube files), or anything with ``y_noisy`` and
    ``delta_r`` (freshly generated noise sets).
    """
    if isinstance(data, SolveData):
        return data
    y = getattr(data, "samples", None)
    if y is None:
        y = getattr(data, "y_noisy", None)
    delta_r = getattr(data, "delta_r", None)
    if y is None or delta_r is None:
        raise TypeError("data must carry samples (or y_noisy) and delta_r")
    return SolveData(y=np.asarray(y, dtype=float), delta_r=np.asarray(delta_r, dtype=float))


@dataclass(eq=False, slots=True)
class SolverState:
    """What one sweep reads besides the configuration: two iterates and the loop counter.

    ``k_R`` drives the momentum factor and, with ``config.seed``, keys
    the sweep order; each sweep advances it by one.

    Every variant's step writes into ``u_k`` and ``u_km1`` in place:
    each step builds its new iterate in the ``u_km1`` buffer and the
    commit swaps the two arrays.  A momentum step first reads ``u_km1``
    for the residual ``D'``; every Kaczmarz step then overwrites each row
    block of ``u_km1`` with its new iterate: a copy of ``u_k`` corrected,
    or for a momentum step ``u_km1`` itself scaled, corrected and added
    to a multiple of ``u_k``, then projected.  Copy the arrays before
    handing them in if they must survive the sweep.  The finite check
    follows the commit, at the next gate; after its ``RuntimeError``
    both are undefined.
    """

    u_k: np.ndarray
    u_km1: np.ndarray
    k_R: int = 1


@dataclass(frozen=True, eq=False)
class HistoryRow:
    """Per-sweep bookkeeping.

    ``res`` and ``error`` are NaN when no reference coefficients were
    provided.  ``seconds`` is wall time and therefore excluded from
    reproducibility comparisons.
    """

    loop: int
    updates: int
    data_residual: float
    res: float
    error: float
    seconds: float


@dataclass(frozen=True, eq=False)
class RunResult:
    """Final iterate plus the full convergence record.

    ``loops``, ``total_updates`` and ``converged`` restate the history:
    its length, its summed updates, and whether its last row made none.
    """

    u: np.ndarray
    history: list
    converged: bool
    truncated: bool
    loops: int
    total_updates: int
    omega: float


def _aligned_copy(u: np.ndarray | float, shape: tuple[int, ...]) -> np.ndarray:
    """``u`` broadcast into a new float64 array whose data starts on a ``_BUFFER_ALIGN``-byte boundary."""
    n = int(np.prod(shape))
    raw = np.empty(n + _BUFFER_ALIGN // 8)
    start = (-raw.ctypes.data % _BUFFER_ALIGN) // 8
    out = raw[start : start + n].reshape(shape)
    out[...] = u
    return out


def threshold(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Entrywise projection onto the nonnegative orthant, into ``out`` if given."""
    return np.maximum(u, 0.0, out=out)


def _momentum_factor(k_R: int) -> float:
    """The momentum factor ``c = (k_R - 1) / (k_R + 2)`` of loop ``k_R``."""
    if k_R < 1:
        raise ValueError("loop counter k_R must be at least 1")
    return (k_R - 1.0) / (k_R + 2.0)


def nesterov_extrapolate(u_k: np.ndarray, u_km1: np.ndarray, k_R: int, out: np.ndarray | None = None) -> np.ndarray:
    """Momentum point ``u_k + ((k_R - 1) / (k_R + 2)) (u_k - u_km1)``.

    Written into ``out`` when given; ``out`` may be ``u_km1`` but must
    not overlap ``u_k``.
    """
    factor = _momentum_factor(k_R)
    if out is not None and np.may_share_memory(out, u_k):
        raise ValueError("out must not overlap u_k")
    out = np.subtract(u_k, u_km1, out=out)
    out *= factor
    out += u_k
    return out


def resolve_omega(config: SolverConfig, system: ForwardSystem) -> float:
    """The stepsize a run will actually use.

    An explicit ``config.omega`` wins; otherwise the reciprocal of the
    largest eigenvalue of the variant's step operator, which keeps every
    variant inside its stability window on any grid scale.
    """
    if config.omega is not None:
        return float(config.omega)
    if config.variant == "reduced_pnkr":
        return 1.0 / reduced_rho(system)
    return 1.0 / rho_estimate(system, stacked=config.variant == "landweber")


def _sweep_order(config: SolverConfig, R: int, k_R: int) -> np.ndarray:
    """Equations ``1..R`` in the order of loop ``k_R``: as numbered, or permuted by ``SeedSequence([seed, k_R])``."""
    if config.ordering == "cyclic":
        return np.arange(1, R + 1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, k_R])))
    return rng.permutation(R) + 1


def _row_blocks(N: int, L: int) -> list[slice]:
    """Row blocks of an ``N x L`` iterate of at most ``_STEP_BLOCK_ENTRIES`` entries each.

    A row longer than the budget is a block of its own.
    """
    rows = max(1, _STEP_BLOCK_ENTRIES // L)
    return [slice(n0, min(n0 + rows, N)) for n0 in range(0, N, rows)]


def _step_views(system: ForwardSystem, u: np.ndarray, out: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A step's checked ``out`` (fresh when omitted) and the ``N x L`` views of ``u`` and ``out`` (one object if ``out is u``)."""
    N, L = system.N, system.L
    if out is None:
        out = np.empty(N * L)
    elif out.shape != (N * L,) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape ({N * L},)")
    O = out.reshape(N, L)
    return out, O if out is u else np.asarray(u, dtype=float).reshape(N, L), O


def _rank_one_step(U: np.ndarray, O: np.ndarray, k_R: int | None, alpha: float, a: np.ndarray, p: np.ndarray) -> None:
    """Every Kaczmarz step: ``O = max(Z + alpha a p^T, 0)`` with ``p`` an ``(L, 1)`` column.

    ``Z`` is ``U``, or given ``k_R`` the momentum point
    ``(1 + c) U - c O`` of ``U`` and the previous iterate in ``O``.  Each
    row block is finished while it is in cache: with ``c = 0`` it is
    copied from ``U`` (unless ``O is U``) and corrected by one k=1
    ``dgemm``; with ``c > 0`` one ``dgemm`` scales the previous iterate
    by ``-c`` and adds the correction, and ``daxpy`` calls of at most
    ``_AXPY_ENTRIES`` entries add ``(1 + c) U``, so ``Z`` is never formed.
    Then the block is projected.  No pass checks the result: the next
    gate reads every entry (see :func:`_gated_sweep`).
    """
    c = 0.0 if k_R is None else _momentum_factor(k_R)
    L = O.shape[1]
    if c:
        # flat views for daxpy, which addresses each chunk by its offset
        u_flat, o_flat = np.ascontiguousarray(U).reshape(-1), O.reshape(-1)
    for blk in _row_blocks(*O.shape):
        B = O[blk]
        if not c and U is not O:
            np.copyto(B, U[blk])
        # B[n, l] = alpha a[n] p[l] + beta B[n, l], beta = 1 on the copy of U or -c on the
        # previous iterate, in place through the Fortran-ordered view B.T
        dgemm(alpha, p, a[None, blk], beta=-c if c else 1.0, c=B.T, overwrite_c=1)
        if c:
            end = blk.stop * L
            for off in range(blk.start * L, end, _AXPY_ENTRIES):
                daxpy(u_flat, o_flat, n=min(_AXPY_ENTRIES, end - off), a=1.0 + c, offx=off, offy=off)
        threshold(B, out=B)


def pnkr_equation_update(system: ForwardSystem, u: np.ndarray, d: np.ndarray, r: int, omega: float, out: np.ndarray | None = None, k_R: int | None = None) -> np.ndarray:
    """One projected preconditioned step of equation ``r``; returns the new iterate.

    The step is taken at ``z = u``, or, given the loop counter ``k_R``,
    at the momentum point of ``u`` and the previous iterate, which
    ``out`` must then hold; ``d`` is the sample-space residual
    ``y_r - Z q_r`` at ``z``.  The correction
    ``M^-1 H_r^T N^-1 (w_r - H_r z)`` is the rank-one matrix
    ``(Psi^-1 G d) (Phi^-1 q_r)^T``: one product with the stored
    ``Psi^-1 G``, then one pass of :func:`_rank_one_step`; the sweep's
    next gate, not the step, checks the iterate for inf and NaN.  A
    momentum step combines ``u``, the previous iterate and the correction
    in one pass, so it differs from the step at
    ``nesterov_extrapolate(u, out, k_R)`` by rounding.

    ``out`` is a C-contiguous float64 array of ``N * L`` entries.
    Without ``k_R`` it may be ``u`` itself, or omitted for a fresh
    array; with ``k_R`` it must not overlap ``u``.
    """
    if k_R is not None:
        if out is None:
            raise ValueError("a momentum step needs the previous iterate in out")
        if np.may_share_memory(out, u):
            raise ValueError("out must not overlap u, the iterate it extrapolates from")
    r = _check_r(system, r)
    out, U, O = _step_views(system, u, out)
    a = system.Psi_inv_G @ d
    _rank_one_step(U, O, k_R, omega, a, system.Phi_inv_Q[:, r - 1, None])
    return out


def reduced_equation_update(system: ForwardSystem, u: np.ndarray, d: np.ndarray, r: int, omega: float, taps=SMOOTHING_TAPS, out: np.ndarray | None = None) -> np.ndarray:
    """One reduced step at ``u`` with residual ``d = y_r - U q_r``; returns the new iterate like :func:`pnkr_equation_update`.

    Applies ``omega c_N^-1 Z_s(H_r^T (w_r - H_r u))`` and projects; the
    separable stencil ``Z_s``, ``taps`` along every axis, stands in for
    the Kronecker solve on the piecewise-constant basis.  It keeps the
    correction rank-one, ``(Z_x G G d) (Z_Theta q_r)^T``, which
    :func:`_rank_one_step` applies into ``out`` (which may be ``u``).
    """
    r = _check_r(system, r)
    out, U, O = _step_views(system, u, out)
    x_shape, theta_shape = system.basis.shape5[:2], system.basis.shape5[2:]
    a = apply_Zs(apply_G(system, apply_G(system, d)).reshape(x_shape), taps, 2).reshape(-1)
    p = apply_Zs(system.Q[:, r - 1].reshape(theta_shape), taps, 3).reshape(-1, 1)
    _rank_one_step(U, O, None, omega / system.c_N, a, p)
    return out


def _block_residual(system: ForwardSystem, u: np.ndarray, data: SolveData, blk: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Sample-space residuals ``y[:, blk] - U Q[:, blk]`` at ``u`` and their norms."""
    D = data.y[:, blk] - u.reshape(system.N, system.L) @ system.Q[:, blk]
    return D, sample_norm(system, D)


def _gated_sweep(state: SolverState, config: SolverConfig, data: SolveData, system: ForwardSystem, omega: float, blocks, step, residual=None) -> int:
    """Visit each block of equations once; returns the update count.

    A block is a slice of equations.  Its residual ``D`` at ``u_k``
    gates it: when every equation in the block meets ``tau delta_r`` the
    block is skipped, otherwise ``step(blk, D)`` takes its residual from
    ``D`` and returns the new iterate, which is committed; ``k_R``
    advances once at the end.  A non-finite norm raises: any inf or NaN
    in ``u_k`` reaches ``D`` (``inf * 0`` is NaN), so the gates are the
    finite check, and one maximum checks an update after the last gate.
    ``residual``, when given, is ``(D, norms)`` of the first block at
    ``u_k``.  Steps build their iterate in ``u_km1`` (see :class:`SolverState`),
    first replaced by an aligned copy if it shares memory with ``u_k``.
    """
    if np.may_share_memory(state.u_k, state.u_km1):
        state.u_km1 = _aligned_copy(state.u_k, state.u_k.shape)
    limit = config.tau * data.delta_r
    limits, (A1, A2), shape = limit.tolist(), system.G_axes, (system.N, system.L)
    error = f"iterate became non-finite; the stepsize omega={omega:g} is too large for this system"
    updates = 0
    # an oversized stepsize overflows to inf/nan; the finite check raises, not the FPU
    with np.errstate(over="ignore", invalid="ignore"):
        for blk in blocks:
            if residual is None and blk.stop - blk.start == 1:
                # one equation: sample_norm's one-column branch, without its wrappers
                D = data.y[:, blk] - state.u_k.reshape(shape) @ system.Q[:, blk]
                X = D.reshape(len(A1), len(A2))
                norm = float(np.sqrt(np.vdot(X, A1 @ X @ A2)))
                satisfied = norm <= limits[blk.start]
            else:
                D, norms = residual or _block_residual(system, state.u_k, data, blk)
                residual = None
                satisfied, norm = (norms <= limit[blk]).all(), norms.max()
            if not math.isfinite(norm):
                raise RuntimeError(error)
            if not satisfied:
                state.u_k, state.u_km1 = step(blk, D), state.u_k
                updates += 1
        if updates and not satisfied and not np.isfinite(state.u_k.max()):  # no gate read the last update
            raise RuntimeError(error)
    state.k_R += 1
    return updates


def pnkr_sweep(state: SolverState, config: SolverConfig, data: SolveData, system: ForwardSystem, omega: float, momentum: bool = True) -> int:
    """One gated sweep over all equations in the order of loop ``k_R``; returns the update count.

    The gate tests the residual ``D`` at ``u_k``; the step is taken at
    the momentum point with residual ``D + c (D - D')``, which at
    ``k_R == 1`` is the plain step with ``D``.  With ``momentum=False``
    every step is the plain one, the Kaczmarz baseline.  Steps run in
    place (see :class:`SolverState`).
    """

    def step(blk: slice, D: np.ndarray) -> np.ndarray:
        d, k_R = D[:, 0], None
        if momentum and state.k_R > 1:
            k_R = state.k_R
            d_prev = data.y[:, blk.start] - state.u_km1.reshape(system.N, system.L) @ system.Q[:, blk.start]
            d = nesterov_extrapolate(d, d_prev, k_R, out=d_prev)
        return pnkr_equation_update(system, state.u_k, d, blk.stop, omega, out=state.u_km1, k_R=k_R)

    blocks = [slice(r - 1, r) for r in _sweep_order(config, system.R, state.k_R)]  # equation r in block r - 1
    return _gated_sweep(state, config, data, system, omega, blocks, step)


def reduced_pnkr_sweep(state: SolverState, config: SolverConfig, data: SolveData, system: ForwardSystem, omega: float) -> int:
    """One gated sweep of the reduced variant (piecewise-constant basis) in the order of loop ``k_R``; steps run in place."""
    if system.basis.s != 0:
        raise ValueError("the reduced variant runs on the piecewise-constant basis only (s=0)")

    def step(blk: slice, D: np.ndarray) -> np.ndarray:
        return reduced_equation_update(system, state.u_k, D[:, 0], blk.stop, omega, out=state.u_km1)

    blocks = [slice(r - 1, r) for r in _sweep_order(config, system.R, state.k_R)]  # equation r in block r - 1
    return _gated_sweep(state, config, data, system, omega, blocks, step)


def landweber_step(state: SolverState, config: SolverConfig, data: SolveData, system: ForwardSystem, omega: float, residual=None) -> int:
    """One full-stack step: every equation's correction summed, then projected.

    Every equation is gated, and the step happens while at least one of
    them is out of tolerance; then it sums over all of them.  The step
    runs in place like the pnkr sweep: the correction is written into
    the ``u_km1`` buffer, which is then projected and swapped in as
    ``u_k``.  ``residual`` may hand in
    ``(D, norms)`` of all equations at ``u_k``, as :func:`run` does from
    the previous loop's history row.
    """

    def step(blk: slice, D: np.ndarray) -> np.ndarray:
        A = omega * (system.Psi_inv_G @ D)
        out = state.u_km1
        np.matmul(A, system.Phi_inv_Q.T, out=out.reshape(system.N, system.L))
        out += state.u_k
        return threshold(out, out=out)

    return _gated_sweep(state, config, data, system, omega, [slice(0, system.R)], step, residual)


def run(config: SolverConfig, data, system: ForwardSystem, u_star: np.ndarray | None = None) -> RunResult:
    """Sweep until every equation meets the discrepancy bound.

    Parameters
    ----------
    config : SolverConfig
    data : SolveData or datacube-like
        Observed samples plus ``delta_r``.
    system : ForwardSystem
    u_star : ndarray, optional
        Reference coefficients; when given, each history row carries the
        stacked moment-space residual ``res`` and the relative error.

    Returns
    -------
    RunResult
        ``converged`` means a sweep passed with zero updates, so every
        equation satisfied its bound simultaneously; ``truncated`` means
        the loop budget ran out first.

    Raises
    ------
    ValueError
        If the data do not fit the system, the config's ``s`` or ``beta``
        differs from the system basis's, a channel ``r`` has a non-finite
        sample or a non-finite or negative ``delta_r``, or the initial
        guess has a non-finite or negative entry.
    RuntimeError
        If an iterate leaves the finite range or its norm grows by a
        factor 1e6 over the first nonzero iterate, both symptoms of an
        oversized stepsize.
    """
    data = as_solve_data(data)
    if data.y.shape != (system.N, system.R):
        raise ValueError(f"data cube has shape {data.y.shape}, expected ({system.N}, {system.R})")
    if data.delta_r.shape != (system.R,):
        raise ValueError(f"delta_r has shape {data.delta_r.shape}, expected ({system.R},)")
    if config.s != system.basis.s:
        raise ValueError(f"config requests s={config.s} but the system basis has s={system.basis.s}")
    if np.any(system.basis.beta != config.beta):
        raise ValueError(f"config requests beta={config.beta:g} but the system basis has beta={system.basis.beta.tolist()}")
    finite_y = np.isfinite(data.y).all(axis=0)
    bad = np.flatnonzero(~(finite_y & np.isfinite(data.delta_r) & (data.delta_r >= 0.0)))
    if bad.size:
        r = int(bad[0]) + 1
        if not finite_y[r - 1]:
            raise ValueError(f"channel r={r} has a non-finite sample")
        raise ValueError(f"channel r={r} has delta_r={data.delta_r[r - 1]:g}; it must be finite and nonnegative")
    M = system.N * system.L
    if config.initial_guess is not None:
        u0 = np.asarray(config.initial_guess, dtype=float)
        if u0.shape != (M,):
            raise ValueError(f"initial guess has shape {u0.shape}, expected ({M},)")
        bad = np.flatnonzero(~(np.isfinite(u0) & (u0 >= 0.0)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"initial guess entry {i} is {u0[i]:g}; it must be finite and nonnegative")
    else:
        u0 = 0.0  # the zero iterate
    omega = resolve_omega(config, system)
    state = SolverState(u_k=_aligned_copy(u0, (M,)), u_km1=_aligned_copy(u0, (M,)))
    if u_star is not None:
        u_star = np.asarray(u_star, dtype=float)
        if u_star.shape != (M,):
            raise ValueError(f"reference coefficients have shape {u_star.shape}, expected ({M},)")
        star_norm = float(np.linalg.norm(u_star))
    ref_norm = float(np.linalg.norm(state.u_k)) or None
    history, residual = [], None
    with np.errstate(over="ignore", invalid="ignore"):
        for loop in range(1, config.max_loops + 1):
            t0 = time.perf_counter()
            if config.variant == "pnkr":
                updates = pnkr_sweep(state, config, data, system, omega, momentum=True)
            elif config.variant == "landweber_kaczmarz":
                updates = pnkr_sweep(state, config, data, system, omega, momentum=False)
            elif config.variant == "reduced_pnkr":
                updates = reduced_pnkr_sweep(state, config, data, system, omega)
            else:
                updates = landweber_step(state, config, data, system, omega, residual=residual)
            seconds = time.perf_counter() - t0
            if u_star is not None:
                diff = u_star - state.u_k
                res = float(np.linalg.norm(apply_H_all(system, diff)))
                error = float(np.linalg.norm(diff)) / star_norm if star_norm > 0 else np.nan
            else:
                res = np.nan
                error = np.nan
            # the residual at u_k of every equation; Landweber's next gate reuses it
            residual = _block_residual(system, state.u_k, data)
            history.append(
                HistoryRow(
                    loop=loop,
                    updates=updates,
                    data_residual=float(np.sqrt(np.sum(residual[1] ** 2))),
                    res=res,
                    error=error,
                    seconds=seconds,
                )
            )
            u_norm = float(np.linalg.norm(state.u_k))
            if ref_norm is None:
                ref_norm = u_norm or None
            elif u_norm > 1e6 * ref_norm:
                raise RuntimeError(f"iterate norm grew by more than 1e6; the stepsize omega={omega:g} is too large")
            if updates == 0:
                break
    converged = history[-1].updates == 0
    return RunResult(
        u=state.u_k,
        history=history,
        converged=converged,
        truncated=not converged,
        loops=len(history),
        total_updates=sum(row.updates for row in history),
        omega=omega,
    )


# -- coefficient and history files -------------------------------------------


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Coefficient vector with the dimensions needed to interpret it."""

    u: np.ndarray
    N: int
    L: int
    s: int


def write_coefficients(u: np.ndarray, N: int, L: int, s: int, path) -> None:
    """Serialize a coefficient vector in the PNKU binary layout."""
    u = np.asarray(u, dtype=float)
    if u.shape != (N * L,):
        raise ValueError(f"coefficient vector has shape {u.shape}, expected ({N * L},)")
    _write_binary(path, b"PNKU", (N, L, s), u)


def read_coefficients(path) -> CoefficientSet:
    """Read a PNKU file back into a :class:`CoefficientSet`."""
    with _open_binary(path, b"PNKU", 3, "coefficient") as ((N, L, s), read):
        u = read(N * L)
    return CoefficientSet(u=u, N=N, L=L, s=s)


def write_history(history, path) -> None:
    """Write the convergence table plus a wall-time sidecar.

    The main table carries only deterministic columns so that identical
    runs produce identical files; per-loop seconds go to ``<path>.timing``.
    """
    table = np.reshape([[row.loop, row.updates, row.data_residual, row.res, row.error] for row in history], (-1, 5))
    np.savetxt(path, table, fmt="%d %d %.17g %.17g %.17g", header="loop updates data_residual res error", comments="")
    timing = np.reshape([[row.loop, row.seconds] for row in history], (-1, 2))
    np.savetxt(f"{path}.timing", timing, fmt="%d %.6f", header="loop seconds", comments="")


def read_history(path) -> list[HistoryRow]:
    """Read a convergence table; seconds come back as NaN.

    Raises ``ValueError`` for a foreign header, a table without rows, a
    row without five fields, or a loop or update count that is not whole.
    """
    with open(path) as fh:
        if fh.readline().split()[:3] != ["loop", "updates", "data_residual"]:
            raise ValueError("not a history table")
        rows = _numeric_rows(fh, "history table", 5, 2)
    if np.any(rows[:, :2] % 1 != 0):
        raise ValueError("history table loop and update counts must be whole numbers")
    return [
        HistoryRow(int(loop), int(updates), data_residual, res, error, seconds=float("nan"))
        for loop, updates, data_residual, res, error in rows.tolist()
    ]
