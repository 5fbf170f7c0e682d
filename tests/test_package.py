"""Package boundary: exported names resolve and match the README example."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pnkr

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = Path(pnkr.__file__).resolve().parent
TEST_MODULES = {path.stem for path in Path(__file__).parent.glob("*.py")} | {"tests"}


def test_every_exported_name_resolves():
    modules = [pnkr] + [
        importlib.import_module(f"pnkr.{info.name}") for info in pkgutil.iter_modules(pnkr.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing name {name!r}"


def test_top_level_exports_cover_the_readme_example():
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"## Library\s+```python\n(.*?)```", readme, re.S).group(1)
    used = set(re.findall(r"\bpnkr\.(\w+)", example))
    assert used, "README library example names no pnkr attribute"
    assert used | {"read_template_grid"} <= set(pnkr.__all__)


def test_readme_library_code_runs_on_tiny():
    # the two blocks of the README's Library section, in order, on tiny with a short loop
    # budget: run() and the documented sweeps() start on a SolverState
    readme = (ROOT / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 2
    code = "\n".join(blocks)
    assert code.count('"desk_scale"') == 2 and code.count("max_loops=2000") == 1
    code = code.replace('"desk_scale"', '"tiny"').replace("max_loops=2000", "max_loops=20")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    result, state, row = namespace["result"], namespace["state"], namespace["row"]
    assert 0 < result.loops <= 20 and result.total_updates > 0
    assert row.loop == state.k_R - 1 >= 1


def test_readme_command_line_runs_on_tiny(tmp_path, monkeypatch):
    # the sh block of the README's Command line section on tiny with a short loop budget,
    # each pnkr line through the command line's main in one fresh directory
    from pnkr.cli import main

    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```sh\n(.*?)```", section, re.S)
    block = block.replace("\\\n", " ")
    assert block.count("desk_scale") == 4 and block.count("--max-loops 2000") == 1
    block = block.replace("desk_scale", "tiny").replace("--max-loops 2000", "--max-loops 20")
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert [command[0] for command in commands] == ["pnkr"] * 4
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(command[1:]) == 0, command


def test_package_never_imports_test_code():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert not TEST_MODULES & set(roots), f"{path.name} imports test code: {roots}"


def test_package_never_imports_sparse_solvers():
    # the Gram inverses are per-axis eigenbases; no module may fall back to a sparse solve
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert "scipy.sparse.linalg" not in names, f"{path.name} imports scipy.sparse.linalg"


def test_import_leaves_scipy_optimize_unloaded():
    # every CLI start pays for what `import pnkr` loads; no module needs scipy.optimize,
    # and the spatial Gram is kept as its dense axis factors, so none needs scipy.sparse
    path = os.pathsep.join([str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, pnkr\n"
        "for name in ('scipy.optimize', 'scipy.sparse'):\n"
        "    assert name not in sys.modules, f'import pnkr loads {name}'"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_python_m_runs_the_cli_quietly():
    # `python -m pnkr` and `python -m pnkr.cli` both print the usage and nothing on stderr
    path = os.pathsep.join([str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    for module in ("pnkr", "pnkr.cli"):
        proc = subprocess.run([sys.executable, "-m", module, "--help"], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", (module, proc.stderr)
        assert proc.stdout.startswith("usage: pnkr")


def _benchmark_workloads(monkeypatch):
    bench = ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_trace_patches_resolve(monkeypatch):
    # the benchmark tracer patches every (module, attribute) of PATCHES by name; a
    # renamed or deleted name would break only a traced benchmark run
    workloads = _benchmark_workloads(monkeypatch)
    assert workloads.PATCHES
    for module_name, attr, _, _ in workloads.PATCHES:
        module = workloads if module_name == workloads.__name__ else importlib.import_module(module_name)
        assert getattr(module, attr, None) is not None, f"perfbench traces missing {module_name}.{attr}"


def test_benchmark_sweep_hook_reads_the_system_argument(monkeypatch):
    # the sweep counts hook reads args[3] of each sweep it traces as the system; a
    # reordered signature would break only a traced benchmark run
    workloads = _benchmark_workloads(monkeypatch)
    hooked = [(module_name, attr) for module_name, attr, _, hook in workloads.PATCHES if hook is workloads._sweep_counts]
    assert hooked
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for module_name, attr in hooked:
        params = list(inspect.signature(getattr(importlib.import_module(module_name), attr)).parameters.values())
        assert [p.kind in positional for p in params[:4]] == [True] * 4, f"{module_name}.{attr}"
        assert params[3].name == "system", f"{module_name}.{attr} takes {params[3].name!r} fourth"


def test_benchmark_manifest_hook_reads_inputs_and_outputs(monkeypatch):
    # the manifest counts hook reads args[4] and args[5] of each write_manifest call as the
    # inputs and outputs; a keyword call or a reordered signature would break only a traced
    # benchmark run
    workloads = _benchmark_workloads(monkeypatch)
    hooked = [(module_name, attr) for module_name, attr, _, hook in workloads.PATCHES if hook is workloads._digest_bytes]
    assert hooked == [("pnkr.cli", "write_manifest")]
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text())
    [definition] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "write_manifest"]
    positional = [arg.arg for arg in definition.args.posonlyargs + definition.args.args]
    assert positional[4:6] == ["inputs", "outputs"]
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "write_manifest"
    ]
    assert calls
    for call in calls:
        plain = [arg for arg in call.args if not isinstance(arg, ast.Starred)]
        assert len(plain) == len(call.args) >= 6, f"cli.py:{call.lineno} passes inputs or outputs by keyword"
