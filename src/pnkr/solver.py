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
factor advances once per sweep; skipped equations advance nothing.
:func:`sweeps` steps a state and yields each sweep's history row, and
:func:`run` collects them from the initial guess.  A run ends on the
first sweep that makes no update, at which point every equation
satisfies the discrepancy bound simultaneously, or when the loop budget
runs out (reported as truncation, not an error).

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
sweep hands each step the residual at its step point.  Every Kaczmarz
step is one compiled pass over the iterate (:func:`_rank_one_step`),
which reads ``u_k``, and for a momentum step ``u_{k-1}``, once per entry,
writes the projected new iterate once, so a momentum step never forms
its momentum point, and sums the next gate's product ``U_new q_r`` from
the values it writes.  The pass is C, built at import with the system's
C compiler into the user cache (:func:`_load_step_kernel`).  No step
checks for inf or NaN: the next gate's product reads every entry.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import numbers
import os
import platform
import time
from dataclasses import dataclass

import numpy as np

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
    "sweeps",
    "run",
    "write_coefficients",
    "read_coefficients",
    "write_history",
    "read_history",
]

VARIANTS = ("pnkr", "reduced_pnkr", "landweber_kaczmarz", "landweber")
ORDERINGS = ("cyclic", "random_permutation")

# Byte alignment of the two iterate buffers run() steps in.  The heap
# places a fresh array at any 16-byte offset, which changed from one
# process to the next, and a desk-scale step on buffers off a cache line
# took about 11% (momentum) and 8% (c = 0) longer; page-aligned buffers
# give every process the same layout.
_BUFFER_ALIGN = 4096


# The Kaczmarz step, one pass over an n_rows x n_cols iterate.  Each
# entry rounds like OpenBLAS's k=1 dgemm followed, for c > 0, by a daxpy
# of (1 + c) u, the sequence the tests keep as the reference:
# x = (p a) alpha, then u + x, or fma(1 + c, u, fma(-c, o, x)) with o
# the previous iterate.  The projection keeps t when t > 0 or t is NaN
# and stores +0 otherwise, as np.maximum(t, 0.0) does.  Given a column q
# the pass also writes g[n] = sum_l out[n, l] q[l] from the values it
# stores, in a fixed order: eight running sums, lane j taking
# l = j mod 8 in increasing l, the tail (n_cols mod 8 entries) added to
# lane 0 in increasing l, each product rounded before its add, then
# ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)).  u and out may be
# one array when c = 0, so neither is restrict.  -ffp-contract=off keeps
# the compiler from fusing an add with a product into an fma.  The pass
# is single-threaded: two OpenMP threads next to numpy's threaded BLAS
# made a paper sweep five times slower.
_STEP_SOURCE = r"""
#include <math.h>
#include <stddef.h>

const char *pnkr_step_compiler(void) { return __VERSION__; }

static inline double pnkr_entry(int momentum, double c, double u, double o, double x)
{
    double t = momentum ? fma(1.0 + c, u, fma(-c, o, x)) : u + x;
    return (t > 0.0 || t != t) ? t : 0.0;
}

static inline double pnkr_row(int momentum, const double *un, double *on, size_t n_cols, double c,
                              double alpha, double an, const double *p, const double *q)
{
    double s[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    size_t l = 0;
    if (q)
        for (; l + 8 <= n_cols; l += 8)
            for (size_t j = 0; j < 8; j++) {
                on[l + j] = pnkr_entry(momentum, c, un[l + j], on[l + j], (p[l + j] * an) * alpha);
                s[j] += on[l + j] * q[l + j];
            }
    for (; l < n_cols; l++) {
        on[l] = pnkr_entry(momentum, c, un[l], on[l], (p[l] * an) * alpha);
        if (q) s[0] += on[l] * q[l];
    }
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

void pnkr_step(const double *u, double *out, size_t n_rows, size_t n_cols, double c,
               double alpha, const double *a, const double *p, const double *q, double *g)
{
    for (size_t n = 0; n < n_rows; n++) {
        const double *un = u + n * n_cols;
        double *on = out + n * n_cols;
        double s = c == 0.0 ? pnkr_row(0, un, on, n_cols, c, alpha, a[n], p, q)
                            : pnkr_row(1, un, on, n_cols, c, alpha, a[n], p, q);
        if (q) g[n] = s;
    }
}
"""
_STEP_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")


def _host_cpu() -> str:
    """The machine type plus the CPU model and feature lines of ``/proc/cpuinfo``, where there is one."""
    try:
        with open("/proc/cpuinfo") as fh:
            lines = {line for line in fh if line.startswith(("vendor_id", "model name", "flags"))}
    except OSError:
        lines = set()
    return platform.machine() + "".join(sorted(lines))


def _load_step_kernel() -> ctypes.CDLL:
    """The compiled Kaczmarz step, built on first use into ``$XDG_CACHE_HOME/pnkr`` (default ``~/.cache/pnkr``).

    The library is named by a hash of its source, its flags and the host
    CPU (``-march=native`` builds for this CPU), so a cache hit starts no
    process.  A miss compiles with ``cc`` into a temporary file and
    renames it into place, so concurrent first imports each publish a
    whole library.  With no cached build, raises ``ImportError`` naming
    the cache directory when it cannot be written, or else the missing
    compiler when there is no C compiler on ``PATH``.
    """
    key = hashlib.sha256("\0".join([_STEP_SOURCE, *_STEP_FLAGS, _host_cpu()]).encode()).hexdigest()[:20]
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "pnkr")
    path = os.path.join(cache, f"step-{key}.so")
    if not os.path.exists(path):
        import shutil
        import subprocess
        import tempfile

        try:
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        except OSError as exc:
            raise ImportError(f"pnkr builds its Kaczmarz step into the cache directory {cache}, which cannot be written ({exc}); set XDG_CACHE_HOME to a writable directory") from exc
        os.close(fd)
        try:
            compiler = shutil.which("cc")
            if compiler is None:
                raise ImportError(f"pnkr compiles its Kaczmarz step at first import and needs a C compiler, but no C compiler (cc) is on PATH; the build would be cached in {cache}")
            build = subprocess.run([compiler, *_STEP_FLAGS, "-x", "c", "-", "-o", tmp, "-lm"], input=_STEP_SOURCE, capture_output=True, text=True)
            if build.returncode:
                raise ImportError(f"the C compiler (cc) failed to build pnkr's Kaczmarz step:\n{build.stderr}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(path)
    lib.pnkr_step.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t, ctypes.c_double, ctypes.c_double, *[ctypes.c_void_p] * 4]
    lib.pnkr_step.restype = None
    lib.pnkr_step_compiler.argtypes = []
    lib.pnkr_step_compiler.restype = ctypes.c_char_p
    return lib


# Built or loaded at import, so no timed step compiles; a failed build's ImportError
# waits for the first step, so commands that never step need no compiler.
try:
    _STEP_KERNEL = _load_step_kernel()
    # what computed the step, for run manifests: the compiler's __VERSION__ and the build flags
    STEP_KERNEL_BUILD = f"cc {_STEP_KERNEL.pnkr_step_compiler().decode()} {' '.join(_STEP_FLAGS)}"
except ImportError as exc:
    _STEP_KERNEL, STEP_KERNEL_BUILD = exc, None


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
    for the residual ``D'``; every Kaczmarz step then overwrites each
    entry of ``u_km1`` with its new iterate: ``u_k`` corrected, or for a
    momentum step the momentum point of ``u_k`` and ``u_km1`` corrected,
    then projected.  Copy the arrays before
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


def _step_views(system: ForwardSystem, u: np.ndarray, out: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A step's checked ``out`` (fresh when omitted) and the ``N x L`` views of ``u`` and ``out`` (one object if ``out is u``)."""
    N, L = system.N, system.L
    if out is None:
        out = np.empty(N * L)
    elif out.shape != (N * L,) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape ({N * L},)")
    O = out.reshape(N, L)
    return out, O if out is u else np.ascontiguousarray(u, dtype=float).reshape(N, L), O


def _rank_one_step(U: np.ndarray, O: np.ndarray, k_R: int | None, alpha: float, a: np.ndarray, p: np.ndarray, gate=None) -> None:
    """Every Kaczmarz step: ``O = max(Z + alpha a p^T, 0)`` in one compiled pass, ``p`` of ``L`` entries.

    ``Z`` is ``U``, or given ``k_R`` the momentum point
    ``(1 + c) U - c O`` of ``U`` and the previous iterate in ``O``, which
    is never formed: each entry of ``O`` is read and written once.  ``U``
    and ``O`` are C-contiguous float64 ``N x L`` arrays, one object only
    without ``k_R``.  ``gate``, a pair ``(q, g)`` of an ``L``-entry column
    and a C-contiguous float64 array of ``N`` entries, has the pass also
    write the next gate's product ``g = O q`` in the fixed order of
    ``_STEP_SOURCE``.  No pass checks the result: the next gate reads
    every entry (see :func:`_gated_sweep`).
    """
    if isinstance(_STEP_KERNEL, ImportError):
        raise _STEP_KERNEL
    c = 0.0 if k_R is None else _momentum_factor(k_R)
    N, L = O.shape
    q, g = (None, None) if gate is None else (np.ascontiguousarray(gate[0], dtype=float), gate[1])
    a, p = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(p, dtype=float)
    if U.shape != O.shape or a.shape != (N,) or p.size != L or (gate and (q.size != L or g.shape != (N,))) or not all(x.dtype == np.float64 and x.flags.c_contiguous for x in (U, O, g) if x is not None):
        raise ValueError(f"a step over an {N} x {L} iterate needs C-contiguous float64 iterates and products, and factors of {N} and {L} entries")
    _STEP_KERNEL.pnkr_step(U.ctypes.data, O.ctypes.data, N, L, c, alpha, a.ctypes.data, p.ctypes.data, *(x if x is None else x.ctypes.data for x in (q, g)))


def pnkr_equation_update(system: ForwardSystem, u: np.ndarray, d: np.ndarray, r: int, omega: float, out: np.ndarray | None = None, k_R: int | None = None, gate=None) -> np.ndarray:
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
    array; with ``k_R`` it must not overlap ``u``.  ``gate=(q, g)`` has
    the pass also write ``g = U_new q`` (see :func:`_rank_one_step`).
    """
    if k_R is not None:
        if out is None:
            raise ValueError("a momentum step needs the previous iterate in out")
        if np.may_share_memory(out, u):
            raise ValueError("out must not overlap u, the iterate it extrapolates from")
    r = _check_r(system, r)
    out, U, O = _step_views(system, u, out)
    a = system.Psi_inv_G @ d
    _rank_one_step(U, O, k_R, omega, a, system.Phi_inv_Q[:, r - 1, None], gate)
    return out


def reduced_equation_update(system: ForwardSystem, u: np.ndarray, d: np.ndarray, r: int, omega: float, taps=SMOOTHING_TAPS, out: np.ndarray | None = None, gate=None) -> np.ndarray:
    """One reduced step at ``u`` with residual ``d = y_r - U q_r``; returns the new iterate and fills ``gate`` like :func:`pnkr_equation_update`.

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
    _rank_one_step(U, O, None, omega / system.c_N, a, p, gate)
    return out


def _block_residual(system: ForwardSystem, u: np.ndarray, data: SolveData, blk: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Sample-space residuals ``y[:, blk] - U Q[:, blk]`` at ``u`` and their norms."""
    D = data.y[:, blk] - u.reshape(system.N, system.L) @ system.Q[:, blk]
    return D, sample_norm(system, D)


def _gated_sweep(state: SolverState, config: SolverConfig, data: SolveData, system: ForwardSystem, omega: float, blocks, step, residual=None) -> int:
    """Visit each block of equations once; returns the update count.

    A block is a slice of equations.  Its residual ``D`` at ``u_k``
    gates it: when every equation in the block meets ``tau delta_r`` the
    block is skipped, otherwise ``step(blk, D, gate)`` takes its residual
    from ``D`` and returns the new iterate, which is committed, and
    whether it filled ``gate``; ``k_R`` advances once at the end.  When
    the next block is one equation ``r``, ``gate`` is ``(q_r, g)`` and a
    step that fills ``g`` with ``U_new q_r`` (see :func:`_rank_one_step`)
    spares that gate its product; other gates form ``U_k q_r`` with numpy.
    A non-finite norm raises: any inf or NaN in ``u_k`` reaches ``D``
    (``inf * 0`` is NaN), so the gates are the finite check, and one
    maximum checks an update after the last gate.  ``residual``, when
    given, is ``(D, norms)`` of the first block at ``u_k``.  Steps build
    their iterate in ``u_km1`` (see :class:`SolverState`), first replaced
    by an aligned copy if it shares memory with ``u_k``.
    """
    if np.may_share_memory(state.u_k, state.u_km1):
        state.u_km1 = _aligned_copy(state.u_k, state.u_k.shape)
    limit = config.tau * data.delta_r
    limits, (A1, A2), shape = limit.tolist(), system.G_axes, (system.N, system.L)
    error = f"iterate became non-finite; the stepsize omega={omega:g} is too large for this system"
    updates, g, filled = 0, np.empty(system.N), False
    # an oversized stepsize overflows to inf/nan; the finite check raises, not the FPU
    with np.errstate(over="ignore", invalid="ignore"):
        for i, blk in enumerate(blocks):
            if residual is None and blk.stop - blk.start == 1:
                # one equation: sample_norm's one-column branch, without its wrappers
                D = data.y[:, blk] - (g[:, None] if filled else state.u_k.reshape(shape) @ system.Q[:, blk])
                X = D.reshape(len(A1), len(A2))
                norm = float(np.sqrt(np.vdot(X, A1 @ X @ A2)))
                satisfied = norm <= limits[blk.start]
            else:
                D, norms = residual or _block_residual(system, state.u_k, data, blk)
                residual = None
                satisfied, norm = (norms <= limit[blk]).all(), norms.max()
            if not math.isfinite(norm):
                raise RuntimeError(error)
            filled = False
            if not satisfied:
                nxt = blocks[i + 1] if i + 1 < len(blocks) else slice(0, 0)
                gate = (system.Q[:, nxt.start], g) if nxt.stop - nxt.start == 1 else None
                (state.u_k, filled), state.u_km1 = step(blk, D, gate), state.u_k
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

    def step(blk: slice, D: np.ndarray, gate) -> tuple[np.ndarray, bool]:
        d, k_R = D[:, 0], None
        if momentum and state.k_R > 1:
            k_R = state.k_R
            d_prev = data.y[:, blk.start] - state.u_km1.reshape(system.N, system.L) @ system.Q[:, blk.start]
            d = nesterov_extrapolate(d, d_prev, k_R, out=d_prev)
        return pnkr_equation_update(system, state.u_k, d, blk.stop, omega, out=state.u_km1, k_R=k_R, gate=gate), gate is not None

    blocks = [slice(r - 1, r) for r in _sweep_order(config, system.R, state.k_R)]  # equation r in block r - 1
    return _gated_sweep(state, config, data, system, omega, blocks, step)


def reduced_pnkr_sweep(state: SolverState, config: SolverConfig, data: SolveData, system: ForwardSystem, omega: float) -> int:
    """One gated sweep of the reduced variant (piecewise-constant basis) in the order of loop ``k_R``; steps run in place."""
    if system.basis.s != 0:
        raise ValueError("the reduced variant runs on the piecewise-constant basis only (s=0)")

    def step(blk: slice, D: np.ndarray, gate) -> tuple[np.ndarray, bool]:
        return reduced_equation_update(system, state.u_k, D[:, 0], blk.stop, omega, out=state.u_km1, gate=gate), gate is not None

    blocks = [slice(r - 1, r) for r in _sweep_order(config, system.R, state.k_R)]  # equation r in block r - 1
    return _gated_sweep(state, config, data, system, omega, blocks, step)


def landweber_step(state: SolverState, config: SolverConfig, data: SolveData, system: ForwardSystem, omega: float, residual=None) -> int:
    """One full-stack step: every equation's correction summed, then projected.

    Every equation is gated, and the step happens while at least one of
    them is out of tolerance; then it sums over all of them.  The step
    runs in place like the pnkr sweep: the correction is written into
    the ``u_km1`` buffer, which is then projected and swapped in as
    ``u_k``.  ``residual`` may hand in
    ``(D, norms)`` of all equations at ``u_k``, as :func:`sweeps` does from
    the previous loop's history row.
    """

    def step(blk: slice, D: np.ndarray, gate) -> tuple[np.ndarray, bool]:
        A = omega * (system.Psi_inv_G @ D)
        out = state.u_km1
        np.matmul(A, system.Phi_inv_Q.T, out=out.reshape(system.N, system.L))
        out += state.u_k
        return threshold(out, out=out), False

    return _gated_sweep(state, config, data, system, omega, [slice(0, system.R)], step, residual)


def sweeps(state: SolverState, config: SolverConfig, data, system: ForwardSystem, omega: float, u_star: np.ndarray | None = None):
    """Step ``state`` in place one sweep of ``config.variant`` at a time, yielding each sweep's :class:`HistoryRow`.

    A row's ``loop`` is ``state.k_R - 1`` after its sweep.  The generator
    ends after a sweep that makes no update, or once ``state.k_R`` passes
    ``config.max_loops``, so a state that already swept keeps the same
    budget.  Between rows ``state.u_k`` is the current iterate; copy it
    to keep it.  Given reference coefficients ``u_star``, each row
    carries the stacked moment-space residual ``res`` and the relative
    error.  ``data`` is :class:`SolveData` or datacube-like.

    Raises
    ------
    ValueError
        When the first row is asked for, if the data do not fit the
        system, the config's ``s`` or ``beta`` differs from the system
        basis's, a channel ``r`` has a non-finite sample or a non-finite
        or negative ``delta_r``, or ``u_star`` does not fit the system.
    RuntimeError
        If an iterate leaves the finite range or its norm grows by a
        factor 1e6 over the first nonzero iterate this generator saw,
        both symptoms of an oversized stepsize.
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
    if u_star is not None:
        u_star = np.asarray(u_star, dtype=float)
        if u_star.shape != (system.N * system.L,):
            raise ValueError(f"reference coefficients have shape {u_star.shape}, expected ({system.N * system.L},)")
        star_norm = float(np.linalg.norm(u_star))
    ref_norm = float(np.linalg.norm(state.u_k)) or None
    residual = None
    while state.k_R <= config.max_loops:
        # entered per sweep: an errstate held across the yield would stay in force in the caller
        with np.errstate(over="ignore", invalid="ignore"):
            t0 = time.perf_counter()
            if config.variant in ("pnkr", "landweber_kaczmarz"):
                updates = pnkr_sweep(state, config, data, system, omega, momentum=config.variant == "pnkr")
            elif config.variant == "reduced_pnkr":
                updates = reduced_pnkr_sweep(state, config, data, system, omega)
            else:
                updates = landweber_step(state, config, data, system, omega, residual=residual)
            seconds = time.perf_counter() - t0
            res = error = np.nan
            if u_star is not None:
                diff = u_star - state.u_k
                res = float(np.linalg.norm(apply_H_all(system, diff)))
                error = float(np.linalg.norm(diff)) / star_norm if star_norm > 0 else np.nan
            # the residual at u_k of every equation; Landweber's next gate reuses it
            residual = _block_residual(system, state.u_k, data)
            data_residual = float(np.sqrt(np.sum(residual[1] ** 2)))
            row = HistoryRow(loop=state.k_R - 1, updates=updates, data_residual=data_residual, res=res, error=error, seconds=seconds)
            u_norm = float(np.linalg.norm(state.u_k))
            if ref_norm is None:
                ref_norm = u_norm or None
            elif u_norm > 1e6 * ref_norm:
                raise RuntimeError(f"iterate norm grew by more than 1e6; the stepsize omega={omega:g} is too large")
        yield row
        if updates == 0:
            return


def run(config: SolverConfig, data, system: ForwardSystem, u_star: np.ndarray | None = None) -> RunResult:
    """Sweep from the initial guess until every equation meets the discrepancy bound: all of :func:`sweeps`.

    ``converged`` means a sweep passed with zero updates, so every
    equation satisfied its bound simultaneously; ``truncated`` means the
    loop budget ran out first.  Raises what :func:`sweeps` raises, and
    ``ValueError`` if the initial guess has a non-finite or negative
    entry.
    """
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
    history = list(sweeps(state, config, data, system, omega, u_star))
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
    _write_binary(path, b"PNKU", "coefficient", (N, L, s), u)


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
