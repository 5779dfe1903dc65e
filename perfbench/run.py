"""groupgeo benchmark: four exact workloads, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a groupgeo source tree.  It builds the compiled kernel
in place (untimed), then for each workload:

* ``setup_s``: median over SETUP_PROBES fresh interpreters (setup_probe.py)
  of the time to import groupgeo, which selects the kernel, and build the
  workload's zoo groups;
* ``wall_s``: median wall time of the timed passes of one worker process
  (worker.py), each pass running every operation of the workload once, with
  nothing wrapped;
* ``peak_rss_mb``: peak resident set of that worker, which ran only this
  workload, read when its first pass ends, before any check runs.

With ``--trace 1`` the worker then runs one traced pass and the per-layer
metrics are reported instead.  Every operation's output is checked against
computations made apart from groupgeo (see checks.py); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run's details go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from spans import METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 150
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def build_kernel() -> None:
    """Compile groupgeo's kernel in place, as the test session does."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "groupgeo").is_dir():
        raise BenchError(f"{ROOT} is not a groupgeo source tree (no setup.py or src/groupgeo)")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise BenchError(f"kernel build failed:\n{proc.stdout}\n{proc.stderr}")


def worker_env(workload: workloads.Workload) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("GROUPGEO_PURE_PYTHON", None)
    if workload.kernel == "fallback":
        env["GROUPGEO_PURE_PYTHON"] = "1"
    return env


def run_child(workload: workloads.Workload, script: str, *args: str) -> str:
    """Run a benchmark script in a fresh interpreter; its last output line."""
    cmd = [sys.executable, str(HERE / script), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(workload), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload.name}: {script} ran over {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload.name}: {script} exited with {proc.returncode}\n{proc.stderr}")
    return lines[-1]


def measure(workload: workloads.Workload, seed: int, seconds: int, trace: int) -> dict:
    probes = [float(run_child(workload, "setup_probe.py", *workload.groups))
              for _ in range(SETUP_PROBES)]
    result = json.loads(run_child(
        workload, "worker.py", "--workload", workload.name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ))
    result["setup_probes_s"] = probes
    result["setup_s"] = statistics.median(probes)
    return result


def summary(result: dict, trace: int) -> dict:
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": not result["problems"] and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def report_lines(name: str, result: dict, trace: int) -> list[str]:
    lines = [
        f"{name}: kernel {result['kernel']}, {len(result['pass_s'])} timed passes, "
        f"{result['attempted']} operations attempted, {result['failed']} failed",
        f"  wall_s      {result['wall_s']:.4f} s",
        f"  setup_s     {result['setup_s']:.4f} s",
        f"  peak_rss_mb {result['peak_rss_mb']:.1f} MB",
    ]
    if trace:
        lines.append(
            f"  traced wall {result['traced_wall_s']:.4f} s, tracing overhead "
            f"{result['trace_overhead_s']:.4f} s"
        )
        for metric, unit in LAYER_METRICS.items():
            lines.append(f"  {metric:45} {result['layers'][metric]:.6g} {unit}")
    lines += [f"  problem: {p}" for p in result["problems"]]
    lines += [f"  error: {e}" for e in result["errors"]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    try:
        build_kernel()
        results = {
            name: measure(workloads.WORKLOADS[name], args.seed, args.seconds, args.trace)
            for name in names
        }
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    for name, result in results.items():
        for line in report_lines(name, result, args.trace):
            print(line)
        path = out_dir / f"{name}.seed{args.seed}.trace{args.trace}.json"
        path.write_text(json.dumps({"workload": name, "seed": args.seed, "seconds": args.seconds,
                                    **result}, indent=1) + "\n")

    if len(results) == 1:
        final = summary(results[names[0]], args.trace)
    else:
        parts = {name: summary(result, args.trace) for name, result in results.items()}
        final = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{name}.{metric}": value for name, p in parts.items()
                        for metric, value in p["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
