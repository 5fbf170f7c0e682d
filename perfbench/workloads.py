"""Workload bodies, output checks and the platform block.

``run.py`` starts this file once per measurement pass, in a fresh
process whose BLAS thread count it sets through the environment:

    python3 perfbench/workloads.py REQUEST.json RESULT.json

The request names the workload, seed, time budget and mode:

``plain``
    set-up, solve and maps timed without tracing;
``traced``
    the same with spans around pnkr's layer boundaries;
``roofline``
    one untimed set-up, the solve phase timed (``run.py`` gives this pass
    one BLAS thread), untimed maps for the output checks, and a
    large-array copy for the machine's copy bandwidth.

Each workload runs pnkr as a user would: the CLI round trip in-process
through ``pnkr.cli.main``, or the public library functions.  Set-up is
repeated and its median reported, so work moved into set-up shows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pnkr  # noqa: E402
import pnkr.cli  # noqa: E402
from pnkr.diagnostics import MAPS_TABLE_NAME, losvd_recovery_error, moment_maps, read_maps  # noqa: E402
from pnkr.forward import build_forward_system, sample_norm, synthesize_datacube  # noqa: E402
from pnkr.mock import add_noise, default_components, evaluate_ground_truth, read_datacube  # noqa: E402
from pnkr.presets import preset_basis, preset_template  # noqa: E402
from pnkr.solver import SolverConfig, read_coefficients, run  # noqa: E402
from pnkr.templates import kernel_theta_integrals  # noqa: E402

from tracing import Tracer, layer_stats, median  # noqa: E402

# Set-up and maps are short on desk_scale, so they repeat until their floors are met.
MIN_SETUPS = 3
SETUP_FLOOR_S = 1.5
MAPS_FLOOR_S = 6.0
MAX_REPS = 25
NOISE = 0.01
TAU = 1.2
# Rounding room when the benchmark recomputes a residual the solver gated on.
RESIDUAL_RTOL = 1e-9


class Checks:
    """Output checks; each is one attempted operation of the run."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail: str) -> bool:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)


def cli(checks: Checks, *argv) -> None:
    """Run one ``pnkr`` command in-process; its exit code is a check."""
    argv = [os.fspath(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = pnkr.cli.main(argv)
    if not checks.add(f"cli.{argv[0]}.exit", code == 0, f"exit code {code}"):
        raise RuntimeError(f"pnkr {' '.join(argv)} exited with {code}")


def check_manifest(checks: Checks, path: Path) -> None:
    """Every digest a manifest records matches the file on disk."""
    manifest = json.loads(path.read_text())
    files = {**manifest["inputs"], **manifest["outputs"]}
    bad = [p for p, digest in files.items() if hashlib.sha256(Path(p).read_bytes()).hexdigest() != digest]
    checks.add(f"manifest.{manifest['command']}.digests", not bad, f"mismatched: {bad}" if bad else f"{len(files)} files")


def check_coefficients(checks: Checks, name: str, u: np.ndarray) -> None:
    ok = bool(np.all(np.isfinite(u)) and np.all(u >= 0.0))
    checks.add(f"{name}.finite_nonnegative", ok, f"min {float(np.min(u)):.6g}")


def channel_residuals(system, u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-channel data residual norms, recomputed independently of the solver's gate."""
    return np.atleast_1d(sample_norm(system, y - synthesize_datacube(system, u)))


def check_progress(checks: Checks, name: str, system, u: np.ndarray, y: np.ndarray) -> None:
    """A truncated or baseline run ends below the zero iterate's data residual."""
    final = float(np.linalg.norm(channel_residuals(system, u, y)))
    zero = float(np.linalg.norm(channel_residuals(system, np.zeros_like(u), y)))
    checks.add(f"{name}.below_zero_residual", final < zero, f"residual {final:.6g} vs zero iterate {zero:.6g}")


class CliRoundTrip:
    """The README round trip: gen-templates, gen-mock, solve, maps."""

    def __init__(self, preset: str, max_loops: int, converges: bool, seed: int, work: Path, checks: Checks):
        self.preset, self.max_loops, self.converges = preset, max_loops, converges
        self.seed, self.checks = seed, checks
        self.tpl, self.cube, self.truth = work / "tpl.pnkt", work / "cube.pnkd", work / "truth.pnku"
        self.run_dir, self.maps_dir = work / "run", work / "maps"

    def setup(self) -> None:
        cli(self.checks, "gen-templates", "--preset", self.preset, "--out", self.tpl)
        cli(self.checks, "gen-mock", "--preset", self.preset, "--templates", self.tpl, "--s", "1",
            "--noise", str(NOISE), "--seed", str(self.seed), "--out", self.cube, "--truth", self.truth)

    def solve(self) -> tuple[int, int, int]:
        """Runs the solve; returns (loops, updates, iterate entries)."""
        cli(self.checks, "solve", "--preset", self.preset, "--templates", self.tpl, "--cube", self.cube,
            "--s", "1", "--beta", "1", "--tau", str(TAU), "--max-loops", str(self.max_loops),
            "--out", self.run_dir)
        result = json.loads((self.run_dir / pnkr.cli.MANIFEST_NAME).read_text())["result"]
        self.converged = result["converged"]
        n_entries = read_coefficients(self.run_dir / pnkr.cli.COEFFICIENTS_NAME).u.size
        return result["loops"], result["total_updates"], n_entries

    def maps(self) -> None:
        cli(self.checks, "maps", "--preset", self.preset, "--templates", self.tpl,
            "--coefficients", self.run_dir / pnkr.cli.COEFFICIENTS_NAME, "--out", self.maps_dir)

    def check(self) -> dict:
        checks = self.checks
        for manifest in (self.tpl.with_name(self.tpl.name + ".manifest.json"),
                         self.cube.with_name(self.cube.name + ".manifest.json"),
                         self.run_dir / pnkr.cli.MANIFEST_NAME, self.maps_dir / pnkr.cli.MANIFEST_NAME):
            check_manifest(checks, manifest)
        u = read_coefficients(self.run_dir / pnkr.cli.COEFFICIENTS_NAME).u
        check_coefficients(checks, "solve", u)
        template = pnkr.read_template_grid(self.tpl)
        basis = preset_basis(self.preset, 1, 1.0)
        system = build_forward_system(basis, kernel_theta_integrals(template, basis))
        cube = read_datacube(self.cube)
        if self.converges:
            checks.add("solve.converged", self.converged, f"converged={self.converged} within {self.max_loops} loops")
            norms = channel_residuals(system, u, cube.samples)
            limit = TAU * cube.delta_r * (1.0 + RESIDUAL_RTOL)
            worst = float(np.max(norms / (TAU * cube.delta_r)))
            checks.add("solve.channel_residuals_within_tau_delta", bool(np.all(norms <= limit)),
                       f"max residual / (tau delta_r) = {worst:.6g}")
        else:
            check_progress(checks, "solve", system, u, cube.samples)
        fitted = int(read_maps(self.maps_dir / MAPS_TABLE_NAME).mask.sum())
        checks.add("maps.fitted_sites", fitted >= 1, f"{fitted} sites fitted")
        truth = read_coefficients(self.truth).u
        return {"losvd_error": losvd_recovery_error(u, truth, basis, template)}


class LibraryBaselines:
    """Library ``run()`` with two baselines at fixed budgets on desk_scale."""

    PRESET = "desk_scale"
    LANDWEBER_LOOPS = 500
    REDUCED_SWEEPS = 10

    def __init__(self, seed: int, checks: Checks):
        self.seed, self.checks = seed, checks

    def setup(self) -> None:
        self.template = preset_template(self.PRESET)
        self.problems = {}
        for s, beta in ((1, 1.0), (0, 0.0)):
            basis = preset_basis(self.PRESET, s, beta)
            system = build_forward_system(basis, kernel_theta_integrals(self.template, basis))
            truth = evaluate_ground_truth(default_components(), basis)
            noisy = add_noise(system, synthesize_datacube(system, truth), NOISE, self.seed)
            self.problems[s] = (basis, system, truth, noisy)

    def solve(self) -> tuple[int, int, int]:
        _, system1, _, noisy1 = self.problems[1]
        _, system0, _, noisy0 = self.problems[0]
        self.landweber = run(SolverConfig(variant="landweber", s=1, beta=1.0, tau=TAU,
                                          max_loops=self.LANDWEBER_LOOPS), noisy1, system1)
        self.reduced = run(SolverConfig(variant="reduced_pnkr", s=0, tau=TAU,
                                        max_loops=self.REDUCED_SWEEPS), noisy0, system0)
        loops = self.landweber.loops + self.reduced.loops
        updates = self.landweber.total_updates + self.reduced.total_updates
        return loops, updates, self.landweber.u.size

    def maps(self) -> None:
        basis, _, _, _ = self.problems[1]
        self.moment_maps = moment_maps(self.landweber.u, basis, self.template)

    def check(self) -> dict:
        checks = self.checks
        for s, name, result in ((1, "landweber", self.landweber), (0, "reduced_pnkr", self.reduced)):
            _, system, _, noisy = self.problems[s]
            check_coefficients(checks, name, result.u)
            check_progress(checks, name, system, result.u, noisy.y_noisy)
        fitted = int(self.moment_maps.mask.sum())
        checks.add("maps.fitted_sites", fitted >= 1, f"{fitted} sites fitted")
        basis, _, truth, _ = self.problems[1]
        return {"losvd_error": losvd_recovery_error(self.landweber.u, truth, basis, self.template)}


def make_workload(name: str, seed: int, work: Path, checks: Checks):
    if name == "desk_dp":
        return CliRoundTrip("desk_scale", 2000, True, seed, work, checks)
    if name == "paper_sweep":
        return CliRoundTrip("paper_scale", 1, False, seed, work, checks)
    if name == "desk_baselines":
        return LibraryBaselines(seed, checks)
    raise ValueError(f"unknown workload {name!r}")


# -- tracing ------------------------------------------------------------------


def _sweep_counts(args, kwargs, result) -> dict:
    system = args[3]
    return {"sweeps": 1, "gates": system.R, "updates": result}


def _digest_bytes(args, kwargs, result) -> dict:
    inputs, outputs = args[4], args[5]
    return {"digest_bytes": sum(os.path.getsize(p) for p in [*inputs, *outputs])}


# (module, name in that module's namespace, span name, counts hook).  Each
# entry patches the name where its caller looks it up; this module is the
# caller for the library workload.
PATCHES = [
    ("pnkr.presets", "build_template_grid", "templates.table", None),
    ("pnkr.forward", "build_gram_matrices", "grid_basis.gram", None),
    ("pnkr.cli", "kernel_theta_integrals", "templates.kernel_integrals", None),
    ("pnkr.cli", "build_forward_system", "forward.build_system", None),
    ("pnkr.solver", "rho_estimate", "forward.rho", None),
    ("pnkr.cli", "evaluate_ground_truth", "mock.truth", None),
    ("pnkr.cli", "add_noise", "mock.noise", None),
    ("pnkr.cli", "write_datacube", "mock.cube_io", None),
    ("pnkr.cli", "read_datacube", "mock.cube_io", None),
    ("pnkr.cli", "run", "solver.run", None),
    ("pnkr.solver", "pnkr_sweep", "solver.sweep", _sweep_counts),
    ("pnkr.solver", "nesterov_extrapolate", "solver.momentum", None),
    ("pnkr.solver", "pnkr_equation_update", "solver.step", None),
    ("pnkr.solver", "landweber_step", "solver.landweber_loop", None),
    ("pnkr.solver", "reduced_pnkr_sweep", "solver.reduced_sweep", _sweep_counts),
    ("pnkr.solver", "reduced_equation_update", "solver.reduced_step", None),
    ("pnkr.solver", "apply_Zs", "forward.smooth", None),
    ("pnkr.cli", "write_coefficients", "solver.coeff_io", None),
    ("pnkr.cli", "read_coefficients", "solver.coeff_io", None),
    ("pnkr.cli", "write_manifest", "cli.manifest", _digest_bytes),
    ("pnkr.cli", "moment_maps", "diagnostics.moment_maps", None),
    ("pnkr.diagnostics", "gauss_hermite_fit", "diagnostics.fit", None),
    ("pnkr.cli", "light_weighted_losvd", "diagnostics.losvd", None),
    (__name__, "kernel_theta_integrals", "templates.kernel_integrals", None),
    (__name__, "build_forward_system", "forward.build_system", None),
    (__name__, "evaluate_ground_truth", "mock.truth", None),
    (__name__, "add_noise", "mock.noise", None),
    (__name__, "run", "solver.run", None),
    (__name__, "moment_maps", "diagnostics.moment_maps", None),
]


def layer_metrics(tracer: Tracer, n_entries: int) -> dict:
    """Per-layer metrics of one traced round trip, keyed by their benchmark names."""
    st = layer_stats(tracer.finished(), tracer.events)
    sec, own, calls, counts = (defaultdict(float, d) for d in (st.seconds, st.self_seconds, st.calls, st.counts))
    gates = counts["gates"]
    loops = calls["solver.sweep"] + calls["solver.reduced_sweep"] + calls["solver.landweber_loop"]
    step_ms = st.per_call_ms("solver.step")
    return {
        "templates.table_s": sec["templates.table"],
        "grid_basis.gram_s": sec["grid_basis.gram"],
        "templates.kernel_integrals_s": sec["templates.kernel_integrals"],
        "forward.build_system_s": own["forward.build_system"],
        "forward.system_builds": calls["forward.build_system"],
        "forward.rho_s": sec["forward.rho"],
        "mock.truth_s": sec["mock.truth"],
        "mock.noise_s": sec["mock.noise"],
        "mock.cube_io_s": sec["mock.cube_io"],
        "solver.step_ms": step_ms,
        "solver.momentum_ms": st.per_call_ms("solver.momentum"),
        # computed bytes: one read of the momentum point and one write of the iterate
        "solver.step_gbps": 16.0 * n_entries / (step_ms * 1e6) if step_ms else 0.0,
        "solver.gate_ms": 1e3 * (own["solver.sweep"] + own["solver.reduced_sweep"]) / gates if gates else 0.0,
        "solver.active_ratio": counts["updates"] / gates if gates else 0.0,
        "solver.bookkeeping_ms": 1e3 * own["solver.run"] / loops if loops else 0.0,
        "solver.sweeps": counts["sweeps"],
        "solver.updates": counts["updates"],
        "solver.gates": gates,
        "solver.landweber_loop_ms": st.per_call_ms("solver.landweber_loop"),
        "solver.reduced_step_ms": st.per_call_ms("solver.reduced_step"),
        "forward.smooth_ms": st.per_call_ms("forward.smooth"),
        "solver.coeff_io_s": sec["solver.coeff_io"],
        "cli.manifest_s": sec["cli.manifest"],
        "cli.digest_mb": counts["digest_bytes"] / 1e6,
        "diagnostics.moment_maps_s": sec["diagnostics.moment_maps"],
        "diagnostics.fit_ms": st.per_call_ms("diagnostics.fit"),
        "diagnostics.fits": calls["diagnostics.fit"],
        "diagnostics.losvd_s": sec["diagnostics.losvd"],
    }


# -- measurement --------------------------------------------------------------


def timed(span, name: str, fn, samples: list):
    with span(name):
        t0 = time.perf_counter()
        out = fn()
        samples.append(time.perf_counter() - t0)
    return out


def measure(workload, seconds: float, span) -> dict:
    """Set-up, solve and maps; every phase reports the median of its repetitions.

    Half the set-up repetitions run before the solve and half after it,
    interleaved with maps, so the medians sample the machine at two
    times.  Set-up repeats until it has MIN_SETUPS repetitions and
    SETUP_FLOOR_S seconds, maps until they have MAPS_FLOOR_S seconds.
    Set-up and maps then alternate while ``seconds`` lasts.
    """
    start = time.perf_counter()
    setups, solves, maps = [], [], []

    def short(samples, floor_s, min_reps=1):
        return len(samples) < MAX_REPS and (len(samples) < min_reps or sum(samples) < floor_s)

    while short(setups, SETUP_FLOOR_S / 2, MIN_SETUPS - 1):
        timed(span, "setup", workload.setup, setups)
    loops, updates, n_entries = timed(span, "solve", workload.solve, solves)
    while short(setups, SETUP_FLOOR_S, MIN_SETUPS) or short(maps, MAPS_FLOOR_S):
        if short(setups, SETUP_FLOOR_S, MIN_SETUPS):
            timed(span, "setup", workload.setup, setups)
        if short(maps, MAPS_FLOOR_S):
            timed(span, "maps", workload.maps, maps)
    while time.perf_counter() - start + median(setups) + median(maps) < seconds:
        timed(span, "setup", workload.setup, setups)
        timed(span, "maps", workload.maps, maps)
    return {
        "setup_s": setups, "solve_s": solves, "maps_s": maps,
        "loops": loops, "updates": updates, "n_entries": n_entries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def last_level_cache_bytes() -> int:
    """Size of the largest CPU cache, from sysfs; 0 when unavailable."""
    sizes = []
    for entry in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = entry.read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        sizes.append(int(text.rstrip("KM")) * scale)
    return max(sizes, default=0)


def copy_gbps(llc_bytes: int) -> tuple[float, int]:
    """Median copy bandwidth (bytes read plus written per second) over arrays of 4x the LLC."""
    n_bytes = 4 * max(llc_bytes, 32 << 20)
    src = np.ones(n_bytes // 8)
    dst = np.zeros_like(src)
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * n_bytes / (time.perf_counter() - t0) / 1e9)
    return median(rates), n_bytes


def platform_block() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "pnkr_file": os.path.relpath(pnkr.__file__, ROOT),
    }


def main(request_path: str, result_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    if not Path(pnkr.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"pnkr imported from {pnkr.__file__}, not from this checkout")
    mode, work = request["mode"], Path(request["work_dir"])
    checks = Checks()
    workload = make_workload(request["workload"], request["seed"], work, checks)
    result = {"platform": platform_block(), "mode": mode}
    if mode == "roofline":
        workload.setup()
        t0 = time.perf_counter()
        loops, _, _ = workload.solve()
        result["solver.sweep_s_1thread"] = (time.perf_counter() - t0) / loops
        workload.maps()
        llc = last_level_cache_bytes()
        result["machine.copy_gbps"], array_bytes = copy_gbps(llc)
        result["platform"].update(llc_bytes=llc, copy_array_bytes=array_bytes)
    else:
        tracer = Tracer() if mode == "traced" else None
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        if tracer:
            for module, attr, name, hook in PATCHES:
                tracer.patch(module, attr, name, hook)
        try:
            result["timings"] = measure(workload, request["seconds"], span)
        finally:
            if tracer:
                tracer.restore()
        if tracer:
            result["layers"] = layer_metrics(tracer, result["timings"]["n_entries"])
    result["quality"] = workload.check()
    result["checks"] = [dict(c, mode=mode) for c in checks.items]
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
