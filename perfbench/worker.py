"""One workload in one process; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload and prints one JSON line with the pass times, the peak
resident set, the operation counts and any problems found.

Order of a run: timed passes with nothing wrapped, each checked after it is
timed; the distance-matrix checks of ``bounded-defect*`` on the last timed
pass; with ``--trace 1``, one traced pass.  The peak resident set is read
when the first pass ends, before anything of that pass is checked.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import tracemalloc
from time import perf_counter

import workloads

# the ball re-built under tracemalloc for bytes per element is cut to the
# largest radius with at most this many elements: tracemalloc slows ball
# enumeration about 5x, and bytes per element hardly depends on the radius
# (heis3: 545 B at radius 16, 536 B at radius 24)
BYTES_PROBE_ELEMENTS = 20_000


class Run:
    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.ops = workload.operations(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: list[str] = []
        self.peak_rss_mb = None
        self.op_s = []  # per timed pass, each operation's wall time

    def record(self, done, check_matrices: bool = False) -> None:
        """Count a pass's operations and check each output; with
        ``check_matrices``, also each operation's distance-matrix check."""
        for op, output, _ in done:
            self.attempted += 1
            if isinstance(output, Exception):
                self.failed += 1
                self.errors.append(f"{op.name}: {type(output).__name__}: {output}")
                continue
            try:
                found = op.check(output)
                if check_matrices and op.check_matrix is not None:
                    found += op.check_matrix(output, self.seed)
            except Exception as exc:  # output without the expected fields
                found = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
            if found:
                self.failed += 1
                self.problems.extend(found)

    def timed_passes(self, seconds: float) -> list[float]:
        """Whole passes until the next one would end after ``seconds``.  The
        peak resident set is read when the first pass ends, before its
        checks run: later passes add a little heap fragmentation each, so a
        reading at the end would depend on how many passes fitted into the
        run.  The distance matrices are checked on the last pass."""
        times = []
        while True:
            gc.collect()
            t0 = perf_counter()
            done = workloads.run_pass(self.workload, self.ops)
            times.append(perf_counter() - t0)
            if self.peak_rss_mb is None:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self.op_s.append([t for _, _, t in done])
            last = sum(times) + statistics.median(times) > seconds
            self.record(done, check_matrices=last)
            del done
            if last:
                return times

    def traced_pass(self) -> tuple[float, dict, dict]:
        from groupgeo import cayley
        from spans import Tracer

        tracer = Tracer()
        gc.collect()
        tracer.install()
        try:
            t0 = perf_counter()
            done = workloads.run_pass(self.workload, self.ops, around=lambda: tracer.span("experiments.run"))
            wall = perf_counter() - t0
        finally:
            tracer.uninstall()
        self.record(done)
        del done
        spans = {name: {"calls": tracer.calls[name], "self_s": tracer.self_s[name]} for name in tracer.calls}
        return wall, tracer.metrics(bytes_per_element(cayley, tracer.largest_ball)), spans


def bytes_per_element(cayley, largest_ball) -> float:
    """Bytes that tracemalloc sees retained by the workload's largest ball,
    per element, re-built at the largest radius within BYTES_PROBE_ELEMENTS."""
    if largest_ball is None:
        return 0.0
    _, group, radius, spheres = largest_ball
    while radius > 0 and sum(spheres[: radius + 1]) > BYTES_PROBE_ELEMENTS:
        radius -= 1
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        idx = cayley.ball(group, radius)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(idx)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    from groupgeo import HAVE_COMPILED

    kernel = "compiled" if HAVE_COMPILED else "fallback"
    if kernel != workload.kernel:
        print(f"{workload.name} needs the {workload.kernel} kernel, but the {kernel} kernel loaded",
              file=sys.stderr)
        return 3

    run = Run(workload, args.seed)
    times = run.timed_passes(args.seconds)
    result = {
        "kernel": kernel,
        "pass_s": times,
        "op_s": run.op_s,
        "wall_s": statistics.median(times),
        "peak_rss_mb": run.peak_rss_mb,
    }
    if args.trace:
        traced_wall, layers, spans = run.traced_pass()
        result["traced_wall_s"] = traced_wall
        result["trace_overhead_s"] = traced_wall - result["wall_s"]
        result["layers"] = layers
        result["spans"] = spans
    result.update(
        attempted=run.attempted, failed=run.failed, problems=run.problems, errors=run.errors
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
