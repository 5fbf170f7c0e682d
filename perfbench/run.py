"""Run one workload of the pnkr benchmark and print its metrics.

    python3 perfbench/run.py --workload desk_dp --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout.  The workload runs in a worker
process (``workloads.py``) with the BLAS thread count set to the number
of CPUs this process may use.  The metric names, units and workloads
come from ``BENCHMARK.json`` at the checkout root.

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` prints every
per-layer metric: it runs the workload once untraced (which also gives
``sweep_s`` and ``maps_s``) and once traced (their ``total_s`` difference
is the tracing overhead), then a third pass that repeats the solve with
one BLAS thread and measures the machine's copy bandwidth.  Metrics of a
layer a workload never calls read 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every output
check counts as one attempted operation; ``correct`` is false when a
check fails that ``known_failures.json`` does not list for the workload.
Exits 1 without a result line when the program or a worker fails, and 2
when the checkout has no pnkr sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from tracing import median, quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; leave room for start-up and clean-up.
TIME_LIMIT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_worker(workload: str, seed: int, seconds: int, mode: str, threads: int, work: Path, deadline: float) -> dict:
    """One measurement pass in a fresh process; returns its result record."""
    work.mkdir(parents=True, exist_ok=True)
    request, result = work / f"{mode}.request.json", work / f"{mode}.result.json"
    request.write_text(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                                   "mode": mode, "work_dir": str(work)}))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"no time left for the {mode} pass")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), str(request), str(result)],
                              cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"the {mode} pass did not finish within the time limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"the {mode} pass exited with code {proc.returncode}")
    return json.loads(result.read_text())


def end_to_end(record: dict) -> dict:
    t = record["timings"]
    setup_s, solve_s, maps_s = median(t["setup_s"]), median(t["solve_s"]), median(t["maps_s"])
    checks = record["checks"]
    return {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "maps_s": maps_s,
        "total_s": setup_s + solve_s + maps_s,
        "sweep_s": solve_s / t["loops"],
        "updates_per_s": t["updates"] / solve_s,
        "peak_rss_mb": t["peak_rss_mb"],
        "losvd_error": record["quality"]["losvd_error"],
        "pass_rate": sum(c["ok"] for c in checks) / len(checks),
    }


def measure(args, spec: dict) -> tuple[dict, list, dict, dict]:
    """Runs the passes the trace flag asks for; returns metrics, checks, platform and phase samples."""
    deadline = time.monotonic() + TIME_LIMIT_S
    threads = len(os.sched_getaffinity(0))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        plain = run_worker(args.workload, args.seed, args.seconds, "plain", threads, work, deadline)
        records = [plain]
        if args.trace:
            traced = run_worker(args.workload, args.seed, args.seconds, "traced", threads, work, deadline)
            roofline = run_worker(args.workload, args.seed, args.seconds, "roofline", 1, work, deadline)
            records += [traced, roofline]
            untraced = end_to_end(plain)
            metrics = dict(traced["layers"], sweep_s=untraced["sweep_s"], maps_s=untraced["maps_s"])
            metrics["trace.overhead_s"] = end_to_end(traced)["total_s"] - untraced["total_s"]
            metrics["solver.sweep_s_1thread"] = roofline["solver.sweep_s_1thread"]
            metrics["machine.copy_gbps"] = roofline["machine.copy_gbps"]
            wanted = spec["per_layer"]
        else:
            metrics = end_to_end(plain)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"metrics not produced: {missing}")
    platform = dict(records[-1]["platform"], blas_threads=threads, git_commit=git_commit(), seed=args.seed)
    if args.trace:
        platform["blas_threads_roofline"] = 1
    out = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted}
    phases = {k: plain["timings"][k] for k in ("setup_s", "solve_s", "maps_s")}
    return out, [c for r in records for c in r["checks"]], platform, phases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the pnkr benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "pnkr" / "__init__.py").is_file():
        print(f"error: no pnkr sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    known = {k["check"] for k in json.loads((HERE / "known_failures.json").read_text())
             if k["workload"] == args.workload}
    try:
        metrics, checks, platform, phases = measure(args, spec)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("platform " + json.dumps(platform, sort_keys=True))
    unexpected = 0
    for c in checks:
        status = "PASS" if c["ok"] else ("KNOWN-FAIL" if c["name"] in known else "FAIL")
        unexpected += status == "FAIL"
        if status != "PASS" or not c["name"].startswith("cli."):
            print(f"check {c['mode']} {status} {c['name']}: {c['detail']}")
    for name, samples in phases.items():
        q1, q3 = quartiles(samples)
        print(f"phase {name}: n={len(samples)} median={median(samples):.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={spread(samples):.3g}")
    for name, m in metrics.items():
        print(f"metric {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    failed = sum(not c["ok"] for c in checks)
    print(json.dumps({"correct": unexpected == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
