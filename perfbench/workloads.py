"""The four workloads: which zoo groups each builds, its operations, and how
each operation's output is checked.

An operation is one experiment call through the functions the CLI commands
call.  ``run`` returns the operation's output; ``check`` returns the
problems found in that output by the independent computations of
``checks``.  Importing this module does not import groupgeo, so run.py
can use it without selecting a kernel; the operations import groupgeo when
they are built, in the worker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import checks

# acceptance criterion 5 of the test suite: combing radii per zoo group
COMBING_RADII = {
    "braid3": 4, "bs12": 5, "free2": 5, "heis3": 5,
    "kleinfour": 3, "sl2z": 5, "z2": 6,
}
CENTRALIZER_RADIUS = 10
# rows of the free2 distance matrix compared with scipy per run
SAMPLED_ROWS = 50


@dataclass
class Operation:
    name: str
    run: Callable[[], object] | None  # None when the workload's suite runs it
    check: Callable[[object], list[str]]
    # for check_bounded: given (output, seed), recomputes the distance matrix
    # check_bounded works from and returns the problems found in it.  Too
    # slow for every pass, it runs on the last timed pass only.
    check_matrix: Callable[[object, int], list[str]] | None = None


@dataclass
class Workload:
    name: str
    groups: tuple[str, ...]      # zoo groups built during set-up
    kernel: str                  # "compiled" or "fallback"
    operations: Callable[[int], list[Operation]]
    # one call that runs every operation and returns their outputs by name
    suite: Callable[[], dict] | None = None


def run_pass(workload: Workload, ops: list[Operation], around=None) -> list[tuple]:
    """One closed-loop pass: every operation once, in order.  Returns, per
    operation, its output (or the exception it raised) and its wall time.
    The cases of a suite get the run times its reports carry.  ``around``,
    when given, is a context manager factory entered around each call."""
    def call(fn):
        if around is None:
            return fn()
        with around():
            return fn()

    if workload.suite is not None:
        try:
            outputs = call(workload.suite)
        except Exception as exc:  # every operation of the pass failed
            outputs = {op.name: exc for op in ops}
        done = []
        for op in ops:
            output = outputs.get(op.name, KeyError(op.name))
            done.append((op, output, getattr(output, "runtime", None)))
        return done
    done = []
    for op in ops:
        t0 = perf_counter()
        try:
            output = call(op.run)
        except Exception as exc:  # counted as a failed operation
            output = exc
        done.append((op, output, perf_counter() - t0))
    return done


def _bounded_operation(group: str, radius: int) -> Operation:
    from groupgeo import combing, experiments

    G = experiments.get_group(group)

    def run():
        sigma = combing.shortlex_bicombing(G, radius)
        return combing.check_bounded(sigma, G, radius), sigma.index

    def check(output):
        report, _ = output
        witness = report.witnesses["k2_pair"]
        if group == "z2":
            return checks.check_z2_bounded(radius, report.k2, witness)
        return checks.check_free2_bounded(radius, report.k2, witness)

    def check_matrix(output, seed):
        # check_bounded's matrix is the kernel's all_pairs_bfs on the ball's
        # CSR graph, so the same call on the returned ball gives it again
        _, idx = output
        dist = combing.ops.all_pairs_bfs(*idx.graph_csr(), len(idx))
        elements = [idx.entries[k].element for k in idx.keys_shortlex]
        if group == "z2":
            return checks.check_z2_distances(radius, checks.z2_coords(elements), dist)
        rows = sample_rows(seed, len(elements))
        return checks.check_free2_vertices(radius, elements) + checks.check_free2_rows(elements, rows, dist[rows])

    return Operation(f"check_bounded:{group}:r{radius}", run, check, check_matrix)


def _bounded_operations(cases):
    def build(seed: int) -> list[Operation]:
        return [_bounded_operation(group, radius) for group, radius in cases]

    return build


def _distortion_operations(seed: int) -> list[Operation]:
    ops = []
    for case in checks.DISTORTION_VERDICTS:
        def check(report, case=case):
            return checks.check_distortion_case(case, report.observed, report.tables["profile"])
        ops.append(Operation(f"distortion:{case}", None, check))
    return ops


def _distortion_suite() -> dict:
    """run_distortion_suite records a case that raised as an error report;
    that case's output is the error."""
    from groupgeo import experiments

    out = {}
    for report in experiments.run_distortion_suite():
        if report.observed.startswith("error:"):
            out[report.name] = RuntimeError(report.witnesses.get("error", report.observed))
        else:
            out[report.name] = report
    return out


def _combing_operations(seed: int) -> list[Operation]:
    from groupgeo import combing, experiments

    ops = []
    for group, radius in sorted(COMBING_RADII.items()):
        def run(group=group, radius=radius):
            return experiments.run_combing_report(group, radius, seed=seed)

        def check(report, group=group, radius=radius):
            return checks.check_combing_report(group, radius, report.observed, report.tables["constants"])

        ops.append(Operation(f"combing:{group}:r{radius}", run, check))

    G = experiments.get_group("free2")
    a = experiments.evaluate(G.alphabet.parse_word("x y"), G)

    def run_centralizer():
        sigma = combing.shortlex_bicombing(G, CENTRALIZER_RADIUS)
        return combing.centralizer_quasiconvexity_report(G, a, sigma, CENTRALIZER_RADIUS)

    def check_centralizer(report):
        w = report.witnesses
        return checks.check_free2_centralizer(
            CENTRALIZER_RADIUS, report.k, w["psi_max_length"], w["conjugators"]
        )

    ops.append(Operation(f"centralizer:free2:r{CENTRALIZER_RADIUS}", run_centralizer, check_centralizer))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bounded-defect", ("free2", "z2"), "compiled",
            _bounded_operations((("free2", 8), ("z2", 40))),
        ),
        Workload(
            "distortion-suite", ("z2", "bs12", "heis3", "free2"), "compiled",
            _distortion_operations, suite=_distortion_suite,
        ),
        Workload(
            "combing-zoo", tuple(sorted(COMBING_RADII)), "compiled", _combing_operations,
        ),
        Workload(
            "bounded-defect-pure", ("free2", "z2"), "fallback",
            _bounded_operations((("free2", 6), ("z2", 16))),
        ),
    )
}


def sample_rows(seed: int, n: int) -> list[int]:
    """The seeded rows of a distance matrix that are compared with scipy."""
    return sorted(random.Random(seed).sample(range(n), min(SAMPLED_ROWS, n)))
