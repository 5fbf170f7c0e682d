"""Iterative reconstruction by gated, accelerated Kaczmarz sweeps.

One sweep visits every wavelength equation once, in the permutation
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
:func:`run` collects them from the zero iterate; a warm or resumed start
is :func:`sweeps` on a :class:`SolverState`.  A run ends on the first
sweep that makes no update, at which point every equation satisfies the
discrepancy bound simultaneously, or when the loop budget runs out (not
an error: ``converged`` is false).

The Kaczmarz variants, with momentum (pnkr), without it
(Landweber-Kaczmarz), or with the reduced step that trades the Kronecker
solve for an explicit separable smoothing on the piecewise-constant
basis, run in a C kernel (``_kernel.c``), built at import with the
system's C compiler into the user cache (:func:`_load_step_kernel`).
Each public operation is one kernel call: a sweep ``pnkr_sweep``, a
single plain equation step ``pnkr_step``, and the end-of-sweep residual
norms ``pnkr_residual_norms``.  Each step's two factors are built once per
:class:`~pnkr.forward.ForwardSystem` and kept on it.  The full-stack
Landweber iteration gates every equation at once and sums all
corrections with numpy before projecting.  In a forked child every
kernel call runs on one thread, since libgomp's thread pool does not
survive ``fork()``.

Every variant steps in place: ``SolverState.u_k`` and ``u_km1`` are two
buffers that each step reuses.  The new iterate is built in the ``u_km1``
buffer and the two swap, so no array of the iterate's size is allocated
per step.  A caller that keeps the arrays it put into a state must copy
them first.  After the finite check raises ``RuntimeError`` the contents
of both buffers are undefined.
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
    ForwardSystem,
    _check_r,
    apply_H_all,
    apply_Zs,  # not called here; kept importable for tracers that patch it by name
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

# Byte alignment of the two iterate buffers run() steps in.  The heap
# places a fresh array at any 16-byte offset, which changed from one
# process to the next, and a desk-scale step on buffers off a cache line
# took about 11% (momentum) and 8% (c = 0) longer; page-aligned buffers
# give every process the same layout.
_BUFFER_ALIGN = 4096
_NON_FINITE = "iterate became non-finite; the stepsize omega={:g} is too large for this system"

# The C source of the Kaczmarz sweep, shipped as package data beside this module.
_KERNEL_PATH = os.path.join(os.path.dirname(__file__), "_kernel.c")
_STEP_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fopenmp", "-shared", "-fPIC")
# Iterates of at least this many entries (N L) split every product and pass of a
# sweep over OpenMP threads, and take the end-of-sweep U Q from the kernel
# too: desk's 64,512 entries run on one thread, paper's 1,755,000 on all.
_PARALLEL_ENTRIES = 1 << 18
# Each kernel entry's argument kinds (p pointer, n size_t, d double, i int) and result.
_KERNEL_ENTRIES = {
    "pnkr_step": ("ppnndppppi", None),
    "pnkr_sweep": ("ppnnnpppnpnppppddi", ctypes.c_long),
    "pnkr_residual_norms": ("pnnnpppnpnpi", ctypes.c_int),
    "pnkr_threads": ("", ctypes.c_int),
    "pnkr_step_compiler": ("", ctypes.c_char_p),
}


def _host_cpu() -> str:
    """The machine type plus the CPU model and feature lines of ``/proc/cpuinfo``, where there is one."""
    try:
        with open("/proc/cpuinfo") as fh:
            lines = {line for line in fh if line.startswith(("vendor_id", "model name", "flags"))}
    except OSError:
        lines = set()
    return platform.machine() + "".join(sorted(lines))


def _load_step_kernel() -> ctypes.CDLL:
    """The compiled Kaczmarz sweep, built on first use into ``$XDG_CACHE_HOME/pnkr`` (default ``~/.cache/pnkr``).

    The library is named by a hash of its source ``_kernel.c``, its flags
    and the host CPU (``-march=native`` builds for this CPU), so a cache
    hit starts no process.  A miss compiles the file with ``cc``, whose
    messages name its lines, into a temporary file and
    renames it into place, so concurrent first imports each publish a
    whole library.  With no cached build, raises ``ImportError`` naming
    the cache directory when it cannot be written, the missing compiler
    when there is no C compiler on ``PATH``, or else OpenMP, which the
    build needs, with the compiler's messages.
    """
    with open(_KERNEL_PATH) as fh:
        source = fh.read()
    key = hashlib.sha256("\0".join([source, *_STEP_FLAGS, _host_cpu()]).encode()).hexdigest()[:20]
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
            build = subprocess.run([compiler, *_STEP_FLAGS, _KERNEL_PATH, "-o", tmp, "-lm"], capture_output=True, text=True)
            if build.returncode:
                raise ImportError(f"the C compiler (cc) failed to build pnkr's Kaczmarz step, which needs a C compiler with OpenMP (-fopenmp):\n{build.stderr}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(path)
    kinds = {"p": ctypes.c_void_p, "n": ctypes.c_size_t, "d": ctypes.c_double, "i": ctypes.c_int}
    for name, (args, result) in _KERNEL_ENTRIES.items():
        getattr(lib, name).argtypes, getattr(lib, name).restype = [kinds[k] for k in args], result
    return lib


# Built or loaded at import, so no timed step compiles; a failed build's ImportError
# waits for the first step, so commands that never step need no compiler.
try:
    _STEP_KERNEL = _load_step_kernel()
    # what computed the step, for run manifests: the compiler's __VERSION__ and the build flags,
    # and the OpenMP threads a sweep above _PARALLEL_ENTRIES runs on
    STEP_KERNEL_BUILD = f"cc {_STEP_KERNEL.pnkr_step_compiler().decode()} {' '.join(_STEP_FLAGS)}"
    SWEEP_THREADS = _STEP_KERNEL.pnkr_threads()
except ImportError as exc:
    _STEP_KERNEL, STEP_KERNEL_BUILD, SWEEP_THREADS = exc, None, None


def _after_fork_in_child() -> None:
    """Run every kernel call of a forked child on one thread: libgomp does not rebuild its thread pool after ``fork()``, and a threaded region in the child can hang."""
    global SWEEP_THREADS
    if SWEEP_THREADS is not None:
        SWEEP_THREADS = 1


os.register_at_fork(after_in_child=_after_fork_in_child)


def _call(name: str, *args):
    """Kernel entry ``name`` called with each array passed as its data pointer; raises the build's ``ImportError`` when there is no kernel."""
    if isinstance(_STEP_KERNEL, ImportError):
        raise _STEP_KERNEL
    return getattr(_STEP_KERNEL, name)(*(x.ctypes.data if isinstance(x, np.ndarray) else x for x in args))


@dataclass(eq=False)
class SolverConfig:
    """Everything a run needs beyond the assembled system and data.

    ``s`` and ``beta`` must be those of the system's basis.  The stepsize
    is not a setting: :func:`run` takes :func:`resolve_omega`'s exact
    ``1 / rho``, and a caller wanting another passes it to :func:`sweeps`
    or to a sweep or step function.
    """

    variant: str = "pnkr"
    s: int = 1
    beta: float = 0.0
    tau: float = 1.2
    max_loops: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if isinstance(self.s, (bool, np.bool_)) or self.s not in (0, 1):
            raise ValueError("s must be 0 or 1")
        if not 0.0 <= self.beta < np.inf:
            raise ValueError(f"beta must be finite and nonnegative, got beta={self.beta}")
        if not 1.0 < self.tau < np.inf:
            raise ValueError(f"tau must be finite and exceed 1, got tau={self.tau}")
        if isinstance(self.max_loops, bool) or not (isinstance(self.max_loops, numbers.Integral) and self.max_loops >= 1):
            raise ValueError(f"max_loops must be an integer of at least 1, got max_loops={self.max_loops}")
        if isinstance(self.seed, bool) or not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
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

    ``k_R``, an integer of at least 1, drives the momentum factor and, with ``config.seed``, keys
    the sweep order; each sweep advances it by one.  A state is the only
    way a solve starts or carries its momentum (see :func:`sweeps`).

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
    its length, its summed updates, and whether its last row made none
    (if not, the loop budget ran out).
    """

    u: np.ndarray
    history: list
    converged: bool
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


def nesterov_extrapolate(u_k: np.ndarray, u_km1: np.ndarray, k_R: int) -> np.ndarray:
    """Momentum point ``u_k + ((k_R - 1) / (k_R + 2)) (u_k - u_km1)``."""
    return u_k + _momentum_factor(k_R) * (u_k - u_km1)


def resolve_omega(config: SolverConfig, system: ForwardSystem) -> float:
    """The stepsize :func:`run` takes: ``1 / rho``, which keeps every variant inside its stability window on any grid scale.

    ``rho`` is the largest eigenvalue of the variant's step operator,
    computed exactly: per equation for the Kaczmarz sweeps, of the full
    stack for Landweber, and of the smoothed unpreconditioned operator
    for the reduced variant, whose stencil is
    :data:`~pnkr.forward.SMOOTHING_TAPS` on every axis.  Raises
    ``ValueError`` naming the kernel table unless ``rho`` is finite and
    positive; for a finite table it is 0 exactly when ``Q`` is.
    """
    if config.variant == "reduced_pnkr":
        rho = reduced_rho(system)
    else:
        rho = rho_estimate(system, stacked=config.variant == "landweber")
    if not 0.0 < rho < np.inf:
        raise ValueError(f"the kernel table Q gives rho={rho:g}, so there is no stepsize 1/rho; rho must be finite and positive, and it is 0 when every entry of Q is 0")
    return 1.0 / rho


def _sweep_order(config: SolverConfig, R: int, k_R: int) -> np.ndarray:
    """Equations ``1..R`` in the order of loop ``k_R``, permuted by ``SeedSequence([seed, k_R])``."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, k_R])))
    return rng.permutation(R) + 1


def _parallel(system: ForwardSystem) -> int:
    """Whether the kernel splits this system's products and passes over OpenMP threads: at or above ``_PARALLEL_ENTRIES``, and never in a forked child (see ``_after_fork_in_child``)."""
    return int(SWEEP_THREADS != 1 and system.N * system.L >= _PARALLEL_ENTRIES)


def _single_step(system: ForwardSystem, u: np.ndarray, d: np.ndarray, r: int, out: np.ndarray | None, alpha: float, S: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Equation ``r``'s plain step into ``out`` (fresh when omitted) in one kernel call, ``pnkr_step``, as a sweep takes it at ``c = 0``.

    The kernel forms ``a = S d`` in its fixed order and runs the pass
    ``out = max(u + alpha a p^T, 0)`` with ``p`` column ``r`` of ``P``.
    """
    r, N, L, d = _check_r(system, r), system.N, system.L, np.ascontiguousarray(d, dtype=float)
    if d.shape != (N,):
        raise ValueError(f"a step needs a residual of {N} entries, got shape {d.shape}")
    if out is None:
        out = np.empty(N * L)
    elif out.shape != (N * L,) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape ({N * L},)")
    u = out if u is out else np.ascontiguousarray(u, dtype=float).reshape(N * L)
    _call("pnkr_step", u, out, N, L, alpha, S, d, np.empty(N), P[:, r - 1], _parallel(system))
    return out


def pnkr_equation_update(system: ForwardSystem, u: np.ndarray, d: np.ndarray, r: int, omega: float, out: np.ndarray | None = None) -> np.ndarray:
    """One projected preconditioned step of equation ``r`` at ``u``; returns the new iterate.

    ``d`` is the sample-space residual ``y_r - U q_r`` at ``u``.  The
    correction ``M^-1 H_r^T N^-1 (w_r - H_r u)`` is the rank-one matrix
    ``(Psi^-1 G d) (Phi^-1 q_r)^T``, formed and applied by the kernel as a
    sweep does, so given the same ``d`` it is bitwise a sweep's plain
    step (``c = 0``).  At any point ``z`` it is the paper's step at ``z``:
    pnkr's momentum step is this step at ``z = nesterov_extrapolate(u_k,
    u_km1, k_R)``, which :func:`pnkr_sweep` takes in one pass without
    forming ``z``, so the two differ by rounding.

    ``out`` is a C-contiguous float64 array of ``N * L`` entries; it may
    be ``u`` itself, or omitted for a fresh array.
    """
    return _single_step(system, u, d, r, out, omega, system.Psi_inv_G, system.Phi_inv_Q)


def reduced_equation_update(system: ForwardSystem, u: np.ndarray, d: np.ndarray, r: int, omega: float, out: np.ndarray | None = None) -> np.ndarray:
    """One reduced step at ``u`` with residual ``d = y_r - U q_r``; returns the new iterate.

    Applies ``omega c_N^-1 Z_s(H_r^T (w_r - H_r u))`` and projects; the
    separable stencil ``Z_s``, :data:`~pnkr.forward.SMOOTHING_TAPS` along
    every axis, stands in for the Kronecker solve on the piecewise-constant
    basis.  It keeps the correction rank-one, ``(Z_x G G d) (Z_Theta q_r)^T``
    with the system's factors ``Zx_GG`` and ``ZTheta_Q``, which the kernel
    applies into ``out`` (which may be ``u``) as a sweep does.  Raises
    ``ValueError`` for ``s != 0``.
    """
    r = _check_r(system, r)  # before the factors, which raise for s != 0
    return _single_step(system, u, d, r, out, omega / system.c_N, system.Zx_GG, system.ZTheta_Q)


def _block_residual(system: ForwardSystem, u: np.ndarray, data: SolveData) -> tuple[np.ndarray, np.ndarray]:
    """Every equation's sample-space residual ``y - U Q`` at ``u`` and its norm, by numpy."""
    D = data.y - u.reshape(system.N, system.L) @ system.Q
    return D, sample_norm(system, D)


def _gate_operands(system: ForwardSystem, y: np.ndarray, axes: tuple[np.ndarray, np.ndarray]) -> tuple:
    """The samples ``y``, the kernel table and the axis factors ``axes`` of a norm, each with its size, as the kernel reads them."""
    A1, A2 = (np.ascontiguousarray(A, dtype=float) for A in axes)
    return np.ascontiguousarray(y, dtype=float), np.ascontiguousarray(system.Q), A1, len(A1), A2, len(A2)


def _check_sweep_operands(system: ForwardSystem, data: SolveData, state: SolverState) -> None:
    """Give ``state`` an aligned copy of ``u_k`` as ``u_km1`` if the two share memory; raise ``ValueError`` unless ``state.k_R`` is an integer of at least 1, ``data`` fits ``system`` and both iterates are C-contiguous float64 arrays of ``N L`` entries."""
    if isinstance(state.k_R, bool) or not (isinstance(state.k_R, numbers.Integral) and state.k_R >= 1):
        raise ValueError(f"the loop counter must be an integer of at least 1, got state.k_R={state.k_R!r}")
    if np.may_share_memory(state.u_k, state.u_km1):
        state.u_km1 = _aligned_copy(state.u_k, state.u_k.shape)
    N, L, R = system.N, system.L, system.R
    if data.y.shape != (N, R) or data.delta_r.shape != (R,) or any(u.shape != (N * L,) or u.dtype != np.float64 or not u.flags.c_contiguous for u in (state.u_k, state.u_km1)):
        raise ValueError(f"a sweep over {R} equations needs samples of shape ({N}, {R}), {R} noise levels and C-contiguous float64 iterates of shape ({N * L},)")


def _compiled_sweep(state: SolverState, config: SolverConfig, data: SolveData, system: ForwardSystem, omega: float, momentum: bool, S: np.ndarray, P: np.ndarray, alpha: float) -> int:
    """One Kaczmarz sweep in one kernel call (``pnkr_sweep``); returns the update count.

    An active equation ``r`` steps with ``d = D + c (D - D')``, ``a = S d``
    and column ``r`` of ``P`` at stepsize ``alpha``, where ``c`` is the
    momentum factor of ``state.k_R`` with ``momentum`` and 0 without.  A
    non-finite gate norm, or a non-finite last update, raises.
    """
    N, L, R = system.N, system.L, system.R
    _check_sweep_operands(system, data, state)
    c = _momentum_factor(state.k_R) if momentum else 0.0
    u_k, u_km1 = state.u_k, state.u_km1
    order = np.ascontiguousarray(_sweep_order(config, R, state.k_R) - 1, dtype=np.int64)
    limits = np.ascontiguousarray(config.tau * data.delta_r, dtype=float)
    updates = _call("pnkr_sweep", u_k, u_km1, N, L, R, *_gate_operands(system, data.y, system.G_axes), order, limits, P, S, c, alpha, _parallel(system))
    if updates < -1:
        raise MemoryError("the Kaczmarz sweep could not allocate its work arrays")
    if updates < 0:
        raise RuntimeError(_NON_FINITE.format(omega))
    if updates % 2:
        state.u_k, state.u_km1 = u_km1, u_k
    state.k_R += 1
    return updates


def pnkr_sweep(state: SolverState, config: SolverConfig, data: SolveData, system: ForwardSystem, omega: float) -> int:
    """One gated sweep of ``config.variant`` over all equations in the order of loop ``k_R``; returns the update count.

    The gate tests the residual ``D`` at ``u_k``.  For ``pnkr`` the step
    is taken at the momentum point with residual ``D + c (D - D')``,
    ``c`` the momentum factor of ``k_R``, which at ``k_R == 1`` is the
    plain step with ``D``; for ``landweber_kaczmarz`` every step is the
    plain one (``c = 0``).  Any other variant raises ``ValueError``.  The
    whole sweep is one kernel call, and its steps run in place (see
    :class:`SolverState`).
    """
    if config.variant not in ("pnkr", "landweber_kaczmarz"):
        raise ValueError(f"pnkr_sweep runs the pnkr and landweber_kaczmarz variants, not a {config.variant!r} config")
    return _compiled_sweep(state, config, data, system, omega, config.variant == "pnkr", system.Psi_inv_G, system.Phi_inv_Q, omega)


def reduced_pnkr_sweep(state: SolverState, config: SolverConfig, data: SolveData, system: ForwardSystem, omega: float) -> int:
    """One gated sweep of the reduced variant (piecewise-constant basis) in the order of loop ``k_R``; steps run in place.

    Steps as :func:`reduced_equation_update` does; raises ``ValueError`` for ``s != 0``.
    """
    return _compiled_sweep(state, config, data, system, omega, False, system.Zx_GG, system.ZTheta_Q, omega / system.c_N)


def landweber_step(state: SolverState, config: SolverConfig, data: SolveData, system: ForwardSystem, omega: float, residual=None) -> int:
    """One full-stack step: every equation's correction summed, then projected.

    Every equation is gated, and the step happens while at least one of
    them is out of tolerance; then it sums over all of them.  The step
    runs in place like the pnkr sweep: the correction is written into
    the ``u_km1`` buffer, which is then projected and swapped in as
    ``u_k``.  ``residual`` may hand in ``(D, norms)`` of all equations at
    ``u_k``, as :func:`sweeps` does from the previous loop's history row.
    A non-finite norm, or a non-finite entry in the new iterate, raises.
    """
    _check_sweep_operands(system, data, state)
    # an oversized stepsize overflows to inf/nan; the finite check raises, not the FPU
    with np.errstate(over="ignore", invalid="ignore"):
        D, norms = residual or _block_residual(system, state.u_k, data)
        if not math.isfinite(norms.max()):
            raise RuntimeError(_NON_FINITE.format(omega))
        updates = int(not (norms <= config.tau * data.delta_r).all())
        if updates:
            out = state.u_km1
            np.matmul(omega * (system.Psi_inv_G @ D), system.Phi_inv_Q.T, out=out.reshape(system.N, system.L))
            out += state.u_k
            state.u_k, state.u_km1 = threshold(out, out=out), state.u_k
            if not np.isfinite(state.u_k.max()):
                raise RuntimeError(_NON_FINITE.format(omega))
    state.k_R += 1
    return updates


def _iterate_norm(u: np.ndarray) -> float:
    """``||u||`` by ``np.einsum``, which, unlike ``np.linalg.norm``, makes no threaded BLAS call."""
    return float(np.sqrt(np.einsum("i,i->", u, u)))


def _check_entries(name: str, u: np.ndarray, ok: np.ndarray, rule: str = "finite") -> None:
    """Raise ``ValueError`` naming the first entry of ``u`` where ``ok`` is false and the ``rule`` it breaks."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{name} entry {i} is {u.flat[i]:g}; it must be {rule}")


def _compiled_norms(system: ForwardSystem, u: np.ndarray, y: np.ndarray, axes: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Every channel's ``sqrt(vdot(X, A1 X A2))``, ``X = y_r - U q_r`` on the site grid and ``(A1, A2) = axes``, from the kernel on its threads in its fixed order.

    With ``system.G_axes`` these are the residual norms at ``u``.
    """
    U, norms = np.ascontiguousarray(u, dtype=float).reshape(system.N, system.L), np.empty(system.R)
    if _call("pnkr_residual_norms", U, system.N, system.L, system.R, *_gate_operands(system, y, axes), norms, _parallel(system)):
        raise MemoryError("the residual norms could not allocate their work arrays")
    return norms


def sweeps(state: SolverState, config: SolverConfig, data, system: ForwardSystem, omega: float, u_star: np.ndarray | None = None):
    """Step ``state`` in place one sweep of ``config.variant`` at a time, yielding each sweep's :class:`HistoryRow`.

    A row's ``loop`` is ``state.k_R - 1`` after its sweep.  The generator
    ends after a sweep that makes no update, or once ``state.k_R`` passes
    ``config.max_loops``, so a state that already swept keeps the same
    budget, and a warm or resumed start is a call on its own state.
    Between rows ``state.u_k`` is the current iterate; copy it to keep
    it.  Every step takes the stepsize ``omega``, for :func:`run` that of
    :func:`resolve_omega`.  Given reference coefficients ``u_star``, each
    row carries the stacked moment-space residual ``res`` and the
    relative error.
    ``data`` is :class:`SolveData` or datacube-like.

    A row's ``data_residual`` and ``res`` come from the kernel for the
    Kaczmarz variants at or above ``_PARALLEL_ENTRIES``, and from numpy
    below it and for Landweber; the norms of ``error`` come from
    ``np.einsum`` at every size, so that no threaded numpy BLAS call runs
    between two threaded sweeps.

    Raises
    ------
    ValueError
        When the first row is asked for, if the data do not fit the
        system, the config's ``s`` or ``beta`` differs from the system
        basis's, a channel ``r`` has a non-finite sample or a non-finite
        or negative ``delta_r``, ``u_star`` does not fit the system or
        has a non-finite entry, ``state.k_R`` is not an integer of at
        least 1, an iterate of ``state`` is not a
        C-contiguous float64 array of ``N L`` entries, ``state.u_k`` has
        an entry that is not finite and nonnegative, or, for pnkr past
        its first sweep, ``state.u_km1`` has a non-finite entry.
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
    if config.beta != system.basis.beta:
        raise ValueError(f"config requests beta={config.beta:g} but the system basis has beta={system.basis.beta:g}")
    finite_y = np.isfinite(data.y).all(axis=0)
    bad = np.flatnonzero(~(finite_y & np.isfinite(data.delta_r) & (data.delta_r >= 0.0)))
    if bad.size:
        r = int(bad[0]) + 1
        if not finite_y[r - 1]:
            raise ValueError(f"channel r={r} has a non-finite sample")
        raise ValueError(f"channel r={r} has delta_r={data.delta_r[r - 1]:g}; it must be finite and nonnegative")
    compiled = config.variant != "landweber" and system.N * system.L >= _PARALLEL_ENTRIES
    if u_star is not None:
        u_star = np.asarray(u_star, dtype=float)
        if u_star.shape != (system.N * system.L,):
            raise ValueError(f"reference coefficients have shape {u_star.shape}, expected ({system.N * system.L},)")
        _check_entries("reference coefficient", u_star, np.isfinite(u_star))
        star_norm = _iterate_norm(u_star)
        if compiled:
            # sqrt(x^T G^2 x) = ||G x||: given no samples and the squared axis factors, the
            # kernel's norms at u* - u sum over channels to ||apply_H_all(u* - u)||
            no_samples, G2_axes = np.zeros((system.N, system.R)), tuple(A @ A for A in system.G_axes)
    _check_sweep_operands(system, data, state)
    # a finite norm and a nonnegative minimum pass every entry; only a momentum step past
    # the first sweep reads u_km1
    ref_norm = _iterate_norm(state.u_k)
    if not (math.isfinite(ref_norm) and state.u_k.min() >= 0.0):
        _check_entries("state.u_k", state.u_k, np.isfinite(state.u_k) & (state.u_k >= 0.0), "finite and nonnegative")
    if config.variant == "pnkr" and state.k_R > 1:
        _check_entries("state.u_km1", state.u_km1, np.isfinite(state.u_km1))
    residual = None
    while state.k_R <= config.max_loops:
        # entered per sweep: an errstate held across the yield would stay in force in the caller
        with np.errstate(over="ignore", invalid="ignore"):
            t0 = time.perf_counter()
            if config.variant in ("pnkr", "landweber_kaczmarz"):
                updates = pnkr_sweep(state, config, data, system, omega)
            elif config.variant == "reduced_pnkr":
                updates = reduced_pnkr_sweep(state, config, data, system, omega)
            else:
                updates = landweber_step(state, config, data, system, omega, residual=residual)
            seconds = time.perf_counter() - t0
            res = error = np.nan
            if u_star is not None:
                diff = u_star - state.u_k
                if compiled:
                    res = float(np.sqrt(np.sum(_compiled_norms(system, diff, no_samples, G2_axes) ** 2)))
                else:
                    res = float(np.linalg.norm(apply_H_all(system, diff)))
                error = _iterate_norm(diff) / star_norm if star_norm > 0 else np.nan
            # the residual at u_k of every equation; Landweber's next gate reuses it
            residual = None if compiled else _block_residual(system, state.u_k, data)
            norms = _compiled_norms(system, state.u_k, data.y, system.G_axes) if compiled else residual[1]
            u_norm = _iterate_norm(state.u_k)
            row = HistoryRow(loop=state.k_R - 1, updates=updates, data_residual=float(np.sqrt(np.sum(norms**2))), res=res, error=error, seconds=seconds)
            if not ref_norm:
                ref_norm = u_norm
            elif u_norm > 1e6 * ref_norm:
                raise RuntimeError(f"iterate norm grew by more than 1e6; the stepsize omega={omega:g} is too large")
        yield row
        if updates == 0:
            return


def run(config: SolverConfig, data, system: ForwardSystem, u_star: np.ndarray | None = None) -> RunResult:
    """Sweep from the zero iterate until every equation meets the discrepancy bound: all of :func:`sweeps`.

    ``converged`` means a sweep passed with zero updates, so every
    equation satisfied its bound simultaneously; otherwise the loop
    budget ran out first.  The sweeps step in two page-aligned buffers.
    A warm or resumed start is :func:`sweeps` on a :class:`SolverState`.
    Raises what :func:`sweeps` raises.
    """
    M = system.N * system.L
    omega = resolve_omega(config, system)
    state = SolverState(u_k=_aligned_copy(0.0, (M,)), u_km1=_aligned_copy(0.0, (M,)))
    history = list(sweeps(state, config, data, system, omega, u_star))
    return RunResult(
        u=state.u_k,
        history=history,
        converged=history[-1].updates == 0,
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
