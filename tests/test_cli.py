"""End-to-end command-line tests on the tiny problem size."""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import pnkr.cli
from pnkr.cli import build_parser, main
from pnkr.diagnostics import read_losvd, read_maps
from pnkr.presets import (
    _SPATIAL,
    _THETA,
    PRESET_NAMES,
    preset_axes,
    preset_basis,
    preset_template,
    preset_window,
)
from pnkr.solver import STEP_KERNEL_BUILD, SWEEP_THREADS, VARIANTS, read_coefficients, read_history, write_coefficients

from _oracles import manifest_run_key, read_manifest


def test_preset_dimension_contract():
    expected = {
        "paper_scale": (625, 2808, 687),
        "desk_scale": (144, 448, 96),
        "tiny": (9, 16, 8),
    }
    for name, (N, L, R) in expected.items():
        basis = preset_basis(name, 0)
        assert (basis.N, basis.L) == (N, L)
        assert preset_window(name) == (480.0, 570.0, R)
        basis1 = preset_basis(name, 1, beta=0.1)
        assert (basis1.N, basis1.L) == (N, L)


def test_preset_axes_spacing_and_ranges():
    # x1/x2/v/z uniform; t geometric except on tiny; counts from the preset tables
    for name in PRESET_NAMES:
        n_spatial = _SPATIAL[name]
        n_v, n_z, n_t = _THETA[name]
        geometric_t = name != "tiny"
        t_nodes = (np.geomspace if geometric_t else np.linspace)(0.015, 14.25, n_t)
        expected = {
            "x1": np.linspace(-1.0, 1.0, n_spatial),
            "x2": np.linspace(-1.0, 1.0, n_spatial),
            "v": np.linspace(-1000.0, 1000.0, n_v),
            "z": np.linspace(-2.66, 0.36, n_z),
            "t": t_nodes,
        }
        axes = preset_axes(name)
        assert list(axes) == ["x1", "x2", "v", "z", "t"]
        for axis, nodes in expected.items():
            np.testing.assert_array_equal(axes[axis].nodes, nodes)
        basis = preset_basis(name, 1)
        for grid, axis in zip(basis.grids, expected):
            np.testing.assert_array_equal(grid.nodes, axes[axis].nodes)


def test_preset_template_covers_basis_domains():
    for name in ("desk_scale", "tiny"):
        template = preset_template(name)
        basis = preset_basis(name, 1)
        gz, gt = basis.theta_grids[1], basis.theta_grids[2]
        assert template.z_nodes[0] <= gz.lo and template.z_nodes[-1] >= gz.hi
        assert template.t_nodes[0] <= gt.lo and template.t_nodes[-1] >= gt.hi


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="preset"):
        preset_basis("huge", 0)


def _options(command):
    """Every option the subcommand's parser defines, bar help and the config file."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions} - {"help", "config"}


def _assert_config_records_every_option(manifest_path, command):
    config = read_manifest(manifest_path)["config"]
    assert set(config) == _options(command) | {"grid"}, command


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Template, mock cube, and one solve on the tiny preset."""
    root = tmp_path_factory.mktemp("pipeline")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert main(["gen-templates", "--preset", "tiny", "--out", "tpl.pnkt"]) == 0
        assert main([
            "gen-mock", "--preset", "tiny", "--templates", "tpl.pnkt",
            "--s", "0", "--noise", "0.01", "--seed", "3", "--out", "cube.pnkd",
        ]) == 0
        assert main([
            "solve", "--preset", "tiny", "--templates", "tpl.pnkt",
            "--cube", "cube.pnkd", "--truth", "truth.pnku",
            "--s", "0", "--max-loops", "60", "--out", "run",
        ]) == 0
    finally:
        os.chdir(cwd)
    return root


def test_pipeline_outputs(pipeline_dir):
    coeffs = read_coefficients(pipeline_dir / "run" / "coefficients.pnku")
    assert (coeffs.N, coeffs.L, coeffs.s) == (9, 16, 0)
    assert np.all(coeffs.u >= 0.0)
    history = read_history(pipeline_dir / "run" / "history.csv")
    assert len(history) >= 1
    assert np.isfinite(history[-1].error)
    manifest = read_manifest(pipeline_dir / "run" / "manifest.json")
    assert manifest["command"] == "solve"
    assert manifest["seeds"]["noise_seed"] == 3
    assert "numpy" in manifest["versions"]
    assert len(manifest["inputs"]) == 3 and len(manifest["outputs"]) == 3
    assert any(path.endswith("history.csv.timing") for path in manifest["outputs"])
    for command, stage in (
        ("gen-templates", "tpl.pnkt.manifest.json"),
        ("gen-mock", "cube.pnkd.manifest.json"),
        ("solve", "run/manifest.json"),
    ):
        _assert_config_records_every_option(pipeline_dir / stage, command)
    assert read_manifest(pipeline_dir / "cube.pnkd.manifest.json")["config"]["seed"] == 3


def test_maps_subcommand(pipeline_dir, monkeypatch):
    monkeypatch.chdir(pipeline_dir)
    assert main([
        "maps", "--preset", "tiny", "--templates", "tpl.pnkt",
        "--coefficients", "run/coefficients.pnku", "--out", "maps",
        "--losvd", "0.1,0.2", "--losvd", "-0.3,0.4",
    ]) == 0
    maps = read_maps(pipeline_dir / "maps" / "moment_maps.csv")
    assert maps.mask.shape == (3, 3)
    sample = read_losvd(pipeline_dir / "maps" / "losvd_2.txt")
    assert sample.x == (-0.3, 0.4)
    _assert_config_records_every_option(pipeline_dir / "maps" / "manifest.json", "maps")


def test_maps_samples_every_position_from_one_light_kernel(pipeline_dir, monkeypatch):
    import pnkr.cli
    import pnkr.diagnostics

    calls = []
    real_losvd, real_kernel = pnkr.cli.light_weighted_losvd, pnkr.diagnostics._light_kernel

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pnkr.cli, "light_weighted_losvd", counting("losvd", real_losvd))
    monkeypatch.setattr(pnkr.diagnostics, "_light_kernel", counting("kernel", real_kernel))
    monkeypatch.chdir(pipeline_dir)
    assert main([
        "maps", "--preset", "tiny", "--templates", "tpl.pnkt",
        "--coefficients", "run/coefficients.pnku", "--out", "maps_once",
    ]) == 0
    # one kernel for the moment maps, then one call and one kernel for all nine positions
    assert calls == ["kernel", "losvd", "kernel"]
    assert len([p for p in os.listdir("maps_once") if p.startswith("losvd_")]) == 9


def test_solve_manifest_records_the_grid(pipeline_dir):
    grid = read_manifest(pipeline_dir / "run" / "manifest.json")["config"]["grid"]
    basis = preset_basis("tiny", 0)
    for axis, g in zip(("x1", "x2", "v", "z", "t"), basis.grids):
        np.testing.assert_array_equal(np.array(grid[axis]), g.nodes)
    assert (grid["lambda_min"], grid["lambda_max"], grid["lambda_count"]) == (480.0, 570.0, 8)


def test_solve_manifest_records_the_blas(pipeline_dir):
    versions = read_manifest(pipeline_dir / "run" / "manifest.json")["versions"]
    for key, module in (("numpy_blas", np), ("scipy_blas", scipy)):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert versions[key] == f"{blas['name']} {blas['version']}"
    # the step kernel: the compiler's __VERSION__, then the build flags
    flags = " -O3 -march=native -ffp-contract=off -fopenmp -shared -fPIC"
    assert versions["step_kernel"] == STEP_KERNEL_BUILD
    assert versions["step_kernel"].startswith("cc ") and versions["step_kernel"].endswith(flags)
    compiler = subprocess.run(["cc", "-dumpversion"], capture_output=True, text=True, check=True).stdout.strip()
    assert compiler in versions["step_kernel"][3 : -len(flags)]
    assert versions["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS", "default")
    # the OpenMP threads of a sweep above the kernel's size threshold
    assert versions["sweep_threads"] == SWEEP_THREADS >= 1
    assert versions["cpu_count"] == os.cpu_count()
    assert versions["machine"] == platform.machine()


def test_commands_that_never_step_run_without_the_step_kernel(pipeline_dir, tmp_path):
    # a regular file as the cache directory and no compiler on PATH: the kernel cannot be
    # built, yet --help and gen-templates run; solve fails at its first step, in one line
    not_a_dir, no_cc = tmp_path / "cache-file", tmp_path / "no-cc"
    not_a_dir.write_text("")
    no_cc.mkdir()
    src = str(Path(pnkr.cli.__file__).parents[1])
    env = dict(os.environ, XDG_CACHE_HOME=str(not_a_dir), PATH=str(no_cc))
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])

    def pnkr_cli(*args):
        return subprocess.run([sys.executable, "-m", "pnkr", *args], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)

    shown = pnkr_cli("--help")
    assert shown.returncode == 0 and "solve" in shown.stdout, shown.stderr
    built = pnkr_cli("gen-templates", "--preset", "tiny", "--out", "tpl.pnkt")
    assert built.returncode == 0, built.stderr
    versions = read_manifest(tmp_path / "tpl.pnkt.manifest.json")["versions"]
    assert versions["step_kernel"] is None and versions["sweep_threads"] is None
    solved = pnkr_cli(
        "solve", "--preset", "tiny", "--templates", "tpl.pnkt", "--cube", str(pipeline_dir / "cube.pnkd"),
        "--s", "0", "--max-loops", "2", "--out", "run",
    )
    assert solved.returncode == 1
    assert solved.stderr.startswith("error: ") and solved.stderr.count("\n") == 1
    assert str(not_a_dir / "pnkr") in solved.stderr and "XDG_CACHE_HOME" in solved.stderr


def test_maps_builds_no_forward_system(pipeline_dir, monkeypatch):
    # maps reads only the template and the basis; a kernel table or system would be thrown away
    def refuse(*args, **kwargs):
        raise RuntimeError("maps built a forward system")

    monkeypatch.setattr("pnkr.cli.build_forward_system", refuse)
    monkeypatch.setattr("pnkr.cli.kernel_theta_integrals", refuse)
    monkeypatch.chdir(pipeline_dir)
    assert main([
        "maps", "--preset", "tiny", "--templates", "tpl.pnkt",
        "--coefficients", "run/coefficients.pnku", "--out", "maps_no_system",
    ]) == 0


@pytest.mark.parametrize("s", [0, 1])
def test_gen_mock_factors_nothing(pipeline_dir, tmp_path, monkeypatch, s):
    # the cube needs only G and Q; Psi^-1 G and Phi^-1 Q are left for the solver
    args = [
        "gen-mock", "--preset", "tiny", "--templates", str(pipeline_dir / "tpl.pnkt"),
        "--s", str(s), "--noise", "0.01", "--seed", "3",
    ]
    monkeypatch.chdir(tmp_path)
    assert main([*args, "--out", "plain.pnkd", "--truth", "plain.pnku"]) == 0

    def refuse(*args, **kwargs):
        raise RuntimeError("gen-mock diagonalized a Gram factor")

    monkeypatch.setattr("pnkr.forward.gram_eigenbasis", refuse)
    assert main([*args, "--out", "cube.pnkd", "--truth", "truth.pnku"]) == 0
    assert (tmp_path / "cube.pnkd").read_bytes() == (tmp_path / "plain.pnkd").read_bytes()
    assert (tmp_path / "truth.pnku").read_bytes() == (tmp_path / "plain.pnku").read_bytes()
    if s == 0:
        assert (tmp_path / "cube.pnkd").read_bytes() == (pipeline_dir / "cube.pnkd").read_bytes()


def test_maps_bad_position(pipeline_dir, monkeypatch, capsys):
    monkeypatch.chdir(pipeline_dir)
    rc = main([
        "maps", "--preset", "tiny", "--templates", "tpl.pnkt",
        "--coefficients", "run/coefficients.pnku", "--out", "m2",
        "--losvd", "1;2",
    ])
    assert rc == 1
    assert "--losvd" in capsys.readouterr().err


def test_oversized_noise_seed_is_rejected_by_name(pipeline_dir, monkeypatch, capsys):
    # the datacube stores its seed as an unsigned 64-bit integer; nothing is written
    monkeypatch.chdir(pipeline_dir)
    rc = main([
        "gen-mock", "--preset", "tiny", "--templates", "tpl.pnkt", "--s", "0",
        "--seed", str(2**64), "--out", "big_seed.pnkd", "--truth", "big_seed.pnku",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"seed={2**64}" in err and err.count("\n") == 1
    assert not (pipeline_dir / "big_seed.pnkd").exists()
    assert not (pipeline_dir / "big_seed.pnku").exists()


def test_missing_cube_names_path(pipeline_dir, monkeypatch, capsys):
    monkeypatch.chdir(pipeline_dir)
    rc = main([
        "solve", "--preset", "tiny", "--templates", "tpl.pnkt",
        "--cube", "absent.pnkd", "--out", "x",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "absent.pnkd" in err and err.count("\n") == 1


def test_non_finite_truth_is_rejected_by_entry(pipeline_dir, monkeypatch, capsys):
    monkeypatch.chdir(pipeline_dir)
    truth = read_coefficients("truth.pnku")
    u = truth.u.copy()
    u[6] = np.nan
    write_coefficients(u, truth.N, truth.L, truth.s, "nan_truth.pnku")
    rc = main([
        "solve", "--preset", "tiny", "--templates", "tpl.pnkt", "--cube", "cube.pnkd",
        "--truth", "nan_truth.pnku", "--s", "0", "--max-loops", "2", "--out", "nan_truth_run",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "reference coefficient entry 6 is nan" in err


def test_unknown_flag_nonzero(pipeline_dir, monkeypatch, capsys):
    monkeypatch.chdir(pipeline_dir)
    assert main(["solve", "--bogus"]) == 2
    assert "--bogus" in capsys.readouterr().err


def test_dimension_mismatch_rejected(pipeline_dir, monkeypatch, capsys):
    monkeypatch.chdir(pipeline_dir)
    assert main(["gen-templates", "--preset", "desk_scale", "--out", "dtpl.pnkt"]) == 0
    rc = main([
        "solve", "--preset", "desk_scale", "--templates", "dtpl.pnkt",
        "--cube", "cube.pnkd", "--out", "bad",
    ])
    assert rc == 1
    assert "desk_scale" in capsys.readouterr().err


@pytest.mark.parametrize("variant", VARIANTS)
def test_solve_runs_every_variant_on_tiny(pipeline_dir, monkeypatch, variant):
    # tiny's z and t axes have 2 cells, narrower than the reduced variant's 3-tap stencil
    monkeypatch.chdir(pipeline_dir)
    assert main([
        "solve", "--preset", "tiny", "--templates", "tpl.pnkt", "--cube", "cube.pnkd",
        "--s", "0", "--max-loops", "5", "--variant", variant, "--out", f"variant_{variant}",
    ]) == 0
    assert read_manifest(pipeline_dir / f"variant_{variant}" / "manifest.json")["result"]["total_updates"] > 0


_MAPS = ["maps", "--coefficients", "run/coefficients.pnku"]
_BAD_OPTIONS = [
    *[(option, args, value) for value in ("nan", "inf", "-inf") for option, args in (
        ("beta", ["solve", "--cube", "cube.pnkd", "--s", "1"]),
        ("noise", ["gen-mock", "--s", "0"]),
        ("noise", ["robustness", "--n", "1", "--s", "0"]),
        ("floor", _MAPS),
    )],
    ("floor", _MAPS, "1"),
    ("floor", _MAPS, "-0.1"),
    *[(option, ["solve", "--cube", "cube.pnkd", "--s", "0"], value)
      for value in ("nan", "inf", "-inf") for option in ("tau", "omega")],
]


def _bad_option_id(option, args, value):
    # beta, tau and omega all belong to solve, so the tau and omega cases carry the option's name
    return f"{option if option in ('tau', 'omega') else args[0]}-{value}"


@pytest.mark.parametrize(
    "option, args, value", [pytest.param(*case, id=_bad_option_id(*case)) for case in _BAD_OPTIONS]
)
def test_bad_option_value_is_rejected_by_name(pipeline_dir, monkeypatch, capsys, option, args, value):
    # nothing is written: the option is checked before any output
    monkeypatch.chdir(pipeline_dir)
    out = f"bad_{args[0]}_{value}"
    rc = main([*args, "--preset", "tiny", "--templates", "tpl.pnkt", f"--{option}={value}", "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{option}={float(value)}" in err and "finite" in err
    assert not (pipeline_dir / out).exists()


def test_robustness_checks_solver_options_before_the_system(pipeline_dir, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise RuntimeError("robustness built a forward system")

    monkeypatch.setattr("pnkr.cli.build_forward_system", refuse)
    monkeypatch.chdir(pipeline_dir)
    rc = main(["robustness", "--preset", "tiny", "--templates", "tpl.pnkt", "--n", "1", "--tau=inf", "--out", "bad_rob"])
    assert rc == 1
    assert "tau=inf" in capsys.readouterr().err
    assert not (pipeline_dir / "bad_rob").exists()


def test_config_file_defaults_and_flag_override(pipeline_dir, monkeypatch):
    monkeypatch.chdir(pipeline_dir)
    (pipeline_dir / "run.cfg").write_text("max-loops = 7\nseed = 5\n")
    assert main([
        "solve", "--preset", "tiny", "--templates", "tpl.pnkt",
        "--cube", "cube.pnkd", "--s", "0", "--config", "run.cfg",
        "--seed", "9", "--out", "cfgrun",
    ]) == 0
    manifest = read_manifest(pipeline_dir / "cfgrun" / "manifest.json")
    assert manifest["config"]["max_loops"] == 7
    assert manifest["seeds"]["ordering_seed"] == 9


@pytest.mark.parametrize("line", ["loops = 7", "help = true"], ids=["loops", "help"])
def test_config_file_unknown_key(pipeline_dir, monkeypatch, capsys, line):
    # help is a flag without a value, which a config file cannot set
    monkeypatch.chdir(pipeline_dir)
    (pipeline_dir / "bad.cfg").write_text(line + "\n")
    rc = main([
        "solve", "--preset", "tiny", "--templates", "tpl.pnkt",
        "--cube", "cube.pnkd", "--config", "bad.cfg", "--out", "x",
    ])
    assert rc == 1
    assert f"unknown option {line.split()[0]!r}" in capsys.readouterr().err
    assert not (pipeline_dir / "x").exists()


def _maps_with_config(out, lines, *flags):
    """The positions a tiny ``maps`` run into ``out``, given the config file ``lines`` and ``flags``, records in its manifest and exports."""
    Path("maps.cfg").write_text("".join(line + "\n" for line in lines))
    assert main([
        "maps", "--preset", "tiny", "--templates", "tpl.pnkt",
        "--coefficients", "run/coefficients.pnku", "--config", "maps.cfg", "--out", out, *flags,
    ]) == 0
    exported = sorted(Path(out).glob("losvd_*.txt"))
    return read_manifest(Path(out) / "manifest.json")["config"]["losvd"], [read_losvd(path).x for path in exported]


def test_config_file_repeatable_option_keeps_every_line(pipeline_dir, monkeypatch):
    monkeypatch.chdir(pipeline_dir)
    recorded, exported = _maps_with_config("cfgmaps", ["losvd = 0.1,0.2", "losvd = 0.3,0.4"])
    assert recorded == ["0.1,0.2", "0.3,0.4"]
    assert exported == [(0.1, 0.2), (0.3, 0.4)]


def test_config_file_repeatable_option_is_replaced_by_the_flag(pipeline_dir, monkeypatch):
    monkeypatch.chdir(pipeline_dir)
    recorded, exported = _maps_with_config("flagmaps", ["losvd = 0.1,0.2", "losvd = 0.3,0.4"], "--losvd", "0.5,0.6")
    assert recorded == ["0.5,0.6"]
    assert exported == [(0.5, 0.6)]


def test_config_file_key_given_twice_names_both_lines(pipeline_dir, monkeypatch, capsys):
    # the last line used to win in silence; spelled max-loops and max_loops it is one key
    monkeypatch.chdir(pipeline_dir)
    (pipeline_dir / "twice.cfg").write_text("max-loops = 7\nseed = 5\n\nmax_loops = 9\n")
    rc = main([
        "solve", "--preset", "tiny", "--templates", "tpl.pnkt",
        "--cube", "cube.pnkd", "--s", "0", "--config", "twice.cfg", "--out", "twice",
    ])
    assert rc == 1
    assert "'max_loops' is set twice, on lines 1 and 4" in capsys.readouterr().err
    assert not (pipeline_dir / "twice").exists()


def test_identical_invocations_reproduce_bitwise(pipeline_dir, tmp_path, monkeypatch):
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
            (work / source).write_bytes((pipeline_dir / source).read_bytes())
        monkeypatch.chdir(work)
        assert main(args) == 0
        outputs.append(work / "run")
    first, second = outputs
    assert (first / "coefficients.pnku").read_bytes() == (second / "coefficients.pnku").read_bytes()
    assert (first / "history.csv").read_bytes() == (second / "history.csv").read_bytes()
    key_a = manifest_run_key(read_manifest(first / "manifest.json"))
    key_b = manifest_run_key(read_manifest(second / "manifest.json"))
    assert key_a == key_b


def test_robustness_batch(pipeline_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(pipeline_dir)
    assert main([
        "robustness", "--preset", "tiny", "--templates", "tpl.pnkt",
        "--n", "3", "--s", "0", "--max-loops", "30", "--seed", "11",
        "--out", "rob",
    ]) == 0
    seeds = []
    for index in range(3):
        seed = 11 + index
        run_dir = pipeline_dir / "rob" / f"seed_{seed:05d}"
        manifest = read_manifest(run_dir / "manifest.json")
        seeds.append(manifest["seeds"]["noise_seed"])
        assert manifest["result"]["losvd_error"] >= 0.0
        _assert_config_records_every_option(run_dir / "manifest.json", "robustness")
        # each seed's run is gen-mock then solve at that seed, byte for byte
        cube, solved = tmp_path / f"cube_{seed}.pnkd", tmp_path / f"solve_{seed}"
        assert main([
            "gen-mock", "--preset", "tiny", "--templates", "tpl.pnkt", "--s", "0",
            "--seed", str(seed), "--out", str(cube), "--truth", str(tmp_path / f"truth_{seed}.pnku"),
        ]) == 0
        assert main([
            "solve", "--preset", "tiny", "--templates", "tpl.pnkt", "--cube", str(cube),
            "--s", "0", "--max-loops", "30", "--seed", str(seed), "--out", str(solved),
        ]) == 0
        for name in ("coefficients.pnku", "history.csv"):
            assert (run_dir / name).read_bytes() == (solved / name).read_bytes(), (seed, name)
        solve_result = read_manifest(solved / "manifest.json")["result"]
        assert manifest["result"] == {**solve_result, "losvd_error": manifest["result"]["losvd_error"]}
    assert sorted(seeds) == [11, 12, 13]
    lines = (pipeline_dir / "rob" / "robustness.csv").read_text().splitlines()
    assert lines[0] == "n,median_losvd_error,mean_losvd_error"
    assert len(lines) == 2
    n, median, mean = lines[1].split(",")
    assert int(n) == 3 and float(median) > 0.0 and float(mean) > 0.0
    batch = read_manifest(pipeline_dir / "rob" / "manifest.json")
    assert batch["seeds"]["seeds"] == [11, 12, 13]
    _assert_config_records_every_option(pipeline_dir / "rob" / "manifest.json", "robustness")
