"""Command-line pipeline: templates, mock data, solving, maps, robustness.

Every subcommand resolves its options from a preset plus flags
(optionally seeded from a plain ``key = value`` config file, with flags
taking precedence), runs one stage of the pipeline, writes a JSON
manifest recording the resolved configuration, seeds, package versions,
and SHA-256 digests of every file read or written, and exits 0 on
success or 1 with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import sys
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__, solver
from .diagnostics import (
    default_losvd_positions,
    export_maps,
    light_weighted_losvd,
    losvd_recovery_error,
    moment_maps,
)
from .forward import build_forward_system, synthesize_datacube
from .mock import DataCube, add_noise, default_components, evaluate_ground_truth, read_datacube, write_datacube
from .presets import PRESET_NAMES, preset_axes, preset_basis, preset_template, preset_window
from .solver import (
    STEP_KERNEL_BUILD,
    VARIANTS,
    SolverConfig,
    read_coefficients,
    run,
    write_coefficients,
    write_history,
)
from .templates import kernel_theta_integrals, read_template_grid, write_template_grid

COEFFICIENTS_NAME = "coefficients.pnku"
HISTORY_NAME = "history.csv"
MANIFEST_NAME = "manifest.json"
SUMMARY_NAME = "robustness.csv"


class CLIError(Exception):
    """A user-facing failure; the message becomes the exit diagnostic."""


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise CLIError(f"{what} file not found: {path}")
    return path


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _blas(module) -> str:
    """Name and version of the BLAS a numpy or scipy build links."""
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def _versions() -> dict:
    """Package versions plus the BLAS builds, step kernel build, thread counts and machine the run used."""
    return {
        "pnkr": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "step_kernel": STEP_KERNEL_BUILD,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "sweep_threads": solver.SWEEP_THREADS,  # read per call: 1 in a forked child
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def write_manifest(path, command, config, seeds, inputs, outputs, result=None) -> None:
    """Record everything needed to rerun a stage bitwise, plus file digests."""
    manifest = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "versions": _versions(),
        "inputs": {os.fspath(p): _file_digest(os.fspath(p)) for p in inputs},
        "outputs": {os.fspath(p): _file_digest(os.fspath(p)) for p in outputs},
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    if result is not None:
        manifest["result"] = result
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _solver_config(args) -> SolverConfig:
    """A :class:`SolverConfig` of the parsed solver options; it checks each value."""
    names = [field.name for field in dataclasses.fields(SolverConfig) if hasattr(args, field.name)]
    return SolverConfig(**{name: getattr(args, name) for name in names})


# Parsed names that are not options of the run: a config file cannot set them,
# and a manifest records the config file's values as the options they set.
_CONFIG_SKIP = {"config", "func", "command", "help"}


def _config_summary(args) -> dict:
    """Every parsed option plus the preset's grid: each axis's nodes and the wavelength window."""
    summary = {key: value for key, value in vars(args).items() if key not in _CONFIG_SKIP}
    grid = {axis: g.nodes.tolist() for axis, g in preset_axes(args.preset).items()}
    grid["lambda_min"], grid["lambda_max"], grid["lambda_count"] = preset_window(args.preset)
    summary["grid"] = grid
    return summary


def _load_basis(args, s: int):
    """The template file, checked against the preset's channel count, and the basis."""
    template = read_template_grid(_require_file(args.templates, "template"))
    count = preset_window(args.preset)[2]
    if template.R != count:
        raise CLIError(
            f"template has {template.R} wavelength channels, preset "
            f"{args.preset!r} expects {count}"
        )
    return template, preset_basis(args.preset, s, getattr(args, "beta", 0.0))


def _mock(args):
    """Template, basis, forward system, ground truth and noise-free cube of a mock run."""
    template, basis = _load_basis(args, args.s)
    system = build_forward_system(basis, kernel_theta_integrals(template, basis))
    u_true = evaluate_ground_truth(default_components(), basis)
    return template, basis, system, u_true, synthesize_datacube(system, u_true)


def _write_run(run_dir, result, basis, command, args, seeds, inputs, **extra) -> str:
    """Write a solve's coefficients, history and manifest to ``run_dir``.

    The manifest's ``result`` holds the solve's outcome plus ``extra``.
    Returns the coefficient path.
    """
    os.makedirs(run_dir, exist_ok=True)
    coeff_path = os.path.join(run_dir, COEFFICIENTS_NAME)
    history_path = os.path.join(run_dir, HISTORY_NAME)
    write_coefficients(result.u, basis.N, basis.L, basis.s, coeff_path)
    write_history(result.history, history_path)
    write_manifest(
        os.path.join(run_dir, MANIFEST_NAME),
        command,
        _config_summary(args),
        seeds,
        inputs,
        [coeff_path, history_path, f"{history_path}.timing"],
        {
            "converged": result.converged,
            "loops": result.loops,
            "total_updates": result.total_updates,
            "omega": result.omega,
            "data_residual": result.history[-1].data_residual if result.history else None,
            **extra,
        },
    )
    return coeff_path


# -- subcommands --------------------------------------------------------------


def cmd_gen_templates(args) -> int:
    template = preset_template(args.preset)
    write_template_grid(template, args.out)
    manifest = args.out + ".manifest.json"
    write_manifest(manifest, "gen-templates", _config_summary(args), {}, [], [args.out])
    print(
        f"gen-templates: wrote {args.out} "
        f"({template.R} channels, {len(template.z_nodes)}x{len(template.t_nodes)} nodes)"
    )
    return 0


def cmd_gen_mock(args) -> int:
    template, basis, system, u_true, y_clean = _mock(args)
    noisy = add_noise(system, y_clean, args.noise, args.seed)
    cube = DataCube(
        x1_nodes=basis.omega_grids[0].nodes,
        x2_nodes=basis.omega_grids[1].nodes,
        lambda_obs=template.lambda_obs,
        samples=noisy.y_noisy,
        delta_r=noisy.delta_r,
        seed=args.seed,
    )
    write_datacube(cube, args.out)
    truth_path = args.truth or os.path.join(os.path.dirname(args.out) or ".", "truth.pnku")
    write_coefficients(u_true, basis.N, basis.L, basis.s, truth_path)
    write_manifest(
        args.out + ".manifest.json",
        "gen-mock",
        _config_summary(args),
        {"noise_seed": args.seed},
        [args.templates],
        [args.out, truth_path],
    )
    print(
        f"gen-mock: wrote {args.out} ({basis.N} sites x {cube.R} channels, "
        f"noise level {args.noise:g}, seed {args.seed}) and {truth_path}"
    )
    return 0


def _check_cube(cube: DataCube, basis, template, preset: str) -> None:
    if cube.n_sites != basis.N or cube.R != template.R:
        raise CLIError(
            f"cube dimensions ({cube.n_sites} sites x {cube.R} channels) do not "
            f"match preset {preset!r} ({basis.N} sites x {template.R} channels)"
        )
    if not (
        np.allclose(cube.x1_nodes, basis.omega_grids[0].nodes)
        and np.allclose(cube.x2_nodes, basis.omega_grids[1].nodes)
        and np.allclose(cube.lambda_obs, template.lambda_obs)
    ):
        raise CLIError(f"cube axes do not match preset {preset!r}")


def cmd_solve(args) -> int:
    _require_file(args.cube, "datacube")
    template, basis = _load_basis(args, args.s)
    system = build_forward_system(basis, kernel_theta_integrals(template, basis))
    cube = read_datacube(args.cube)
    _check_cube(cube, basis, template, args.preset)
    config = _solver_config(args)
    u_star = None
    inputs = [args.templates, args.cube]
    if args.truth:
        ref = read_coefficients(_require_file(args.truth, "reference coefficient"))
        if (ref.N, ref.L, ref.s) != (basis.N, basis.L, basis.s):
            raise CLIError(
                f"reference coefficients ({ref.N} x {ref.L}, s={ref.s}) do not "
                f"match the solve basis ({basis.N} x {basis.L}, s={basis.s})"
            )
        u_star = ref.u
        inputs.append(args.truth)
    result = run(config, cube, system, u_star)
    seeds = {"ordering_seed": args.seed, "noise_seed": cube.seed}
    coeff_path = _write_run(args.out, result, basis, "solve", args, seeds, inputs)
    status = "converged" if result.converged else "stopped at the loop budget"
    print(
        f"solve: {status} after {result.loops} loops "
        f"({result.total_updates} equation updates, omega {result.omega:.6g}); "
        f"wrote {coeff_path}"
    )
    return 0


def _parse_position(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CLIError(f"--losvd expects 'x1,x2', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise CLIError(f"--losvd expects numeric 'x1,x2', got {text!r}") from exc


def cmd_maps(args) -> int:
    coeffs = read_coefficients(_require_file(args.coefficients, "coefficient"))
    template, basis = _load_basis(args, coeffs.s)
    if (coeffs.N, coeffs.L) != (basis.N, basis.L):
        raise CLIError(
            f"coefficient file ({coeffs.N} x {coeffs.L}) does not match "
            f"preset {args.preset!r} ({basis.N} x {basis.L})"
        )
    maps = moment_maps(coeffs.u, basis, template, floor=args.floor)
    positions = [_parse_position(text) for text in args.losvd] or default_losvd_positions(basis)
    samples = light_weighted_losvd(coeffs.u, basis, template, positions)
    written = export_maps(maps, samples, args.out)
    write_manifest(
        os.path.join(args.out, MANIFEST_NAME),
        "maps",
        _config_summary(args),
        {},
        [args.templates, args.coefficients],
        written,
    )
    print(
        f"maps: wrote {len(written)} files to {args.out} "
        f"({int(maps.mask.sum())}/{maps.mask.size} sites fitted)"
    )
    return 0


def cmd_robustness(args) -> int:
    """``gen-mock`` then ``solve`` per seed, plus each run's LOSVD recovery error."""
    if args.n < 1:
        raise CLIError("--n must be at least 1")
    config = _solver_config(args)
    template, basis, system, u_true, y_clean = _mock(args)
    seeds = range(args.seed, args.seed + args.n)
    stats = []
    for seed in seeds:
        noisy = add_noise(system, y_clean, args.noise, seed)
        result = run(dataclasses.replace(config, seed=seed), noisy, system)
        error = losvd_recovery_error(result.u, u_true, basis, template)
        _write_run(
            os.path.join(args.out, f"seed_{seed:05d}"), result, basis, "robustness-run", args,
            {"noise_seed": seed, "ordering_seed": seed}, [args.templates], losvd_error=error,
        )
        stats.append(error)
    median = float(np.median(stats))
    mean = float(np.mean(stats))
    summary_path = os.path.join(args.out, SUMMARY_NAME)
    with open(summary_path, "w") as fh:
        fh.write("n,median_losvd_error,mean_losvd_error\n")
        fh.write(f"{args.n},{median:.17g},{mean:.17g}\n")
    write_manifest(
        os.path.join(args.out, MANIFEST_NAME),
        "robustness",
        _config_summary(args),
        {"base_seed": args.seed, "seeds": list(seeds)},
        [args.templates],
        [summary_path],
        {"median_losvd_error": median, "mean_losvd_error": mean,
         "per_seed": dict(zip(map(str, seeds), stats))},
    )
    print(f"robustness: n={args.n} median={median:.6g} mean={mean:.6g}; wrote {summary_path}")
    return 0


# -- argument plumbing --------------------------------------------------------


def _add_solver_flags(parser) -> None:
    parser.add_argument("--variant", default="pnkr",
                        choices=VARIANTS,
                        help="iteration to run")
    parser.add_argument("--s", type=int, default=1, choices=[0, 1],
                        help="basis smoothness order")
    parser.add_argument("--beta", type=float, default=0.0,
                        help="gradient-penalty weight of every axis (s=1 only)")
    parser.add_argument("--tau", type=float, default=1.2,
                        help="discrepancy-principle safety factor")
    parser.add_argument("--max-loops", type=int, default=100,
                        help="sweep budget before truncation")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of each sweep's random equation order (and of the noise in robustness)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnkr",
        description="Reconstruct stellar population-kinematic distribution "
                    "functions from IFU datacubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--preset", default="tiny", choices=list(PRESET_NAMES),
                       help="problem size; determines every grid count")
        p.add_argument("--config", default=None,
                       help="plain 'key = value' file of defaults; flags override it")

    p = sub.add_parser("gen-templates", help="tabulate the synthetic template library")
    common(p)
    p.add_argument("--out", default="templates.pnkt", help="output template file")
    p.set_defaults(func=cmd_gen_templates)

    p = sub.add_parser("gen-mock", help="generate a noisy mock datacube and its ground truth")
    common(p)
    p.add_argument("--templates", default="templates.pnkt", help="template file")
    p.add_argument("--s", type=int, default=1, choices=[0, 1], help="basis smoothness order")
    p.add_argument("--noise", type=float, default=0.01, help="relative noise level")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--out", default="cube.pnkd", help="output datacube file")
    p.add_argument("--truth", default=None,
                   help="output truth coefficient file (default: truth.pnku next to the cube)")
    p.set_defaults(func=cmd_gen_mock)

    p = sub.add_parser("solve", help="reconstruct coefficients from a datacube, stepping with "
                                     "1/rho for the exact operator norm rho")
    common(p)
    p.add_argument("--templates", default="templates.pnkt", help="template file")
    p.add_argument("--cube", default="cube.pnkd", help="input datacube file")
    p.add_argument("--truth", default=None,
                   help="reference coefficients for the history's error columns")
    p.add_argument("--out", default="run", help="output directory")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("maps", help="kinematic maps (h3..h5 of an order-5 Gauss-Hermite fit "
                                    "per site) and sampled velocity distributions")
    common(p)
    p.add_argument("--templates", default="templates.pnkt", help="template file")
    p.add_argument("--coefficients", default=os.path.join("run", COEFFICIENTS_NAME),
                   help="input coefficient file")
    p.add_argument("--out", default="maps", help="output directory")
    p.add_argument("--floor", type=float, default=1e-6,
                   help="density mask threshold relative to the peak")
    p.add_argument("--losvd", action="append", default=[], metavar="X1,X2",
                   help="also export the velocity distribution at this position "
                        "(repeatable; default: a 3x3 quartile grid)")
    # let values like -0.3,0.4 pass the option/argument split
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.set_defaults(func=cmd_maps)

    p = sub.add_parser(
        "robustness",
        help="mock + solve over many noise seeds; per seed the statistic is the "
             "mean over nine standard positions of the median absolute difference "
             "between recovered and true velocity distributions relative to the "
             "true peak, and the summary row reports the median and mean of that "
             "statistic across seeds",
    )
    common(p)
    p.add_argument("--templates", default="templates.pnkt", help="template file")
    p.add_argument("--n", type=int, default=15, help="number of noise seeds")
    p.add_argument("--noise", type=float, default=0.01, help="relative noise level")
    p.add_argument("--out", default="robustness", help="output directory")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_robustness)
    return parser


def _apply_config_file(parser, argv):
    """Pre-parse ``--config`` and install its values as subcommand defaults.

    A repeatable option collects the values of all its lines, and values
    given on the command line replace that list; any other key may
    appear on one line only.
    """
    probe = parser.parse_args(argv)
    if not probe.config:
        return probe
    path = _require_file(probe.config, "config")
    sub_actions = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    subparser = sub_actions.choices[probe.command]
    actions = {a.dest: a for a in subparser._actions}
    defaults, lists, lines_of = {}, {}, {}
    with open(path) as fh:
        lines = fh.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CLIError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        value = value.strip()
        if dest in _CONFIG_SKIP or dest not in actions:
            raise CLIError(f"{path}:{lineno}: unknown option {key.strip()!r}")
        action = actions[dest]
        try:
            converted = action.type(value) if action.type else value
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise CLIError(f"{path}:{lineno}: bad value for {key.strip()!r}: {exc}") from exc
        if action.choices is not None and converted not in action.choices:
            raise CLIError(
                f"{path}:{lineno}: {key.strip()!r} must be one of {list(action.choices)}"
            )
        if isinstance(action.default, list):
            lists.setdefault(dest, []).append(converted)
            continue
        if dest in lines_of:
            raise CLIError(f"{path}: {key.strip()!r} is set twice, on lines {lines_of[dest]} and {lineno}")
        lines_of[dest], defaults[dest] = lineno, converted
    subparser.set_defaults(**defaults)
    args = parser.parse_args(argv)
    for dest, values in lists.items():
        if not getattr(args, dest):
            setattr(args, dest, values)
    return args


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _apply_config_file(parser, argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (CLIError, OSError, ValueError, RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
