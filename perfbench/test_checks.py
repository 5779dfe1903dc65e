"""Each of the benchmark's checks passes groupgeo's right answer and rejects a
wrong one.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import numpy as np
import pytest

import checks
import run as bench_run
import worker
import workloads
from groupgeo import cayley, combing, experiments
from groupgeo._kernel import ops


def _ball_and_distances(group: str, radius: int):
    G = experiments.get_group(group)
    idx = cayley.ball(G, radius)
    indptr, nbrs = idx.graph_csr()
    dist = ops.all_pairs_bfs(indptr, nbrs, len(idx))
    return [idx.entries[k].element for k in idx.keys_shortlex], dist


@pytest.mark.parametrize("radius", [2, 4, 6])
def test_z2_closed_form_matches_brute_force(radius):
    assert checks.z2_k2_brute_force(radius) == checks.z2_k2_closed_form(radius)


def test_z2_closed_form_matches_check_bounded():
    G = experiments.get_group("z2")
    report = combing.check_bounded(combing.shortlex_bicombing(G, 6), G, 6)
    assert checks.check_z2_bounded(6, report.k2, report.witnesses["k2_pair"]) == []


@pytest.mark.parametrize("off", [-1, 1])
def test_k2_off_by_one_is_rejected(off):
    k2, witness = checks.z2_k2_closed_form(8)
    assert checks.check_z2_bounded(8, k2, witness) == []
    assert checks.check_z2_bounded(8, k2 + off, witness)
    assert checks.check_free2_bounded(8, 0, ("1", "1")) == []
    assert checks.check_free2_bounded(8, 1, ("1", "1"))


def test_wrong_k2_witness_is_rejected():
    k2, (ys, xy) = checks.z2_k2_closed_form(8)
    assert checks.check_z2_bounded(8, k2, (xy, ys))
    assert checks.check_free2_bounded(8, 0, ("x", "1"))


def test_z2_altered_distance_row_is_rejected():
    elements, dist = _ball_and_distances("z2", 4)
    coords = checks.z2_coords(elements)
    assert checks.check_z2_distances(4, coords, dist) == []
    bad = dist.copy()
    bad[7, 3] += 1
    assert checks.check_z2_distances(4, coords, bad, chunk=5)


def test_free2_altered_distance_row_is_rejected():
    elements, dist = _ball_and_distances("free2", 3)
    assert checks.check_free2_vertices(3, elements) == []
    rows = np.array([0, 5, 17, 40])
    assert checks.check_free2_rows(elements, rows, dist[rows]) == []
    bad = dist[rows].copy()
    bad[2, 11] += 1
    assert checks.check_free2_rows(elements, rows, bad)


def test_free2_vertex_set_is_checked():
    elements, _ = _ball_and_distances("free2", 3)
    assert checks.check_free2_vertices(3, elements[:-1])
    assert checks.check_free2_vertices(3, elements[:-1] + [(0, 1)])


@pytest.fixture(scope="module")
def distortion_reports():
    return {r.name.split(":", 1)[1]: r for r in experiments.run_distortion_suite()
            if "heis3" not in r.name}


def test_distortion_reports_pass(distortion_reports):
    for case, report in distortion_reports.items():
        assert checks.check_distortion_case(case, report.observed, report.tables["profile"]) == [], case


def _tamper_witness(profile_csv: str, n: int, word: str) -> str:
    lines = profile_csv.splitlines()
    fields = lines[n].split(",")
    fields[4] = word
    lines[n] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case, n, word", [
    ("z-in-z2", 3, "x x y"),            # leaves the subgroup
    ("diagonal-in-z2", 4, "x y x y^-1"),  # right length, wrong element
    ("a-in-bs12", 5, "t a a t^-1 a"),   # a^5, not a^4
    ("self-free2", 4, "x x x^-1 x"),    # reduces to length 2
])
def test_witness_not_evaluating_to_its_element_is_rejected(distortion_reports, case, n, word):
    report = distortion_reports[case]
    tampered = _tamper_witness(report.tables["profile"], n, word)
    assert checks.check_distortion_case(case, report.observed, tampered)


def test_heis3_witness_evaluation():
    # [a^2, b^2] = z^4, and a word of the right length outside the centre
    assert checks._subgroup_exponent("center-in-heis3", checks.parse_word(
        "a a b b a^-1 a^-1 b^-1 b^-1")) == 4
    assert checks._subgroup_exponent("center-in-heis3", checks.parse_word("a b a b")) is None


def test_wrong_verdict_is_rejected(distortion_reports):
    report = distortion_reports["a-in-bs12"]
    assert checks.check_distortion_case("a-in-bs12", "polynomial(2)", report.tables["profile"])


def test_combing_report_checks():
    report = experiments.run_combing_report("z2", 4, seed=3)
    constants = report.tables["constants"]
    assert checks.check_combing_report("z2", 4, report.observed, constants) == []
    assert checks.check_combing_report("z2", 4, report.observed, constants.replace("lines,41", "lines,40"))
    assert checks.check_combing_report("z2", 4, report.observed, constants.replace("k2,2", "k2,3"))


def test_centralizer_checks():
    G = experiments.get_group("free2")
    a = experiments.evaluate(G.alphabet.parse_word("x y"), G)
    report = combing.centralizer_quasiconvexity_report(G, a, combing.shortlex_bicombing(G, 4), 4)
    rows = report.witnesses["conjugators"]
    psi_max = report.witnesses["psi_max_length"]
    assert checks.check_free2_centralizer(4, report.k, psi_max, rows) == []
    wrong_psi = [dict(r, psi="y") if r["psi"] == "x" else r for r in rows]
    assert checks.check_free2_centralizer(4, report.k, psi_max, wrong_psi)
    assert checks.check_free2_centralizer(4, 2, psi_max, rows)
    assert checks.check_free2_centralizer(4, report.k, psi_max, rows[:-1])


def _summary_of_pass(workload: workloads.Workload, check_matrices: bool = False,
                     before_checks=lambda: None) -> dict:
    run = worker.Run(workload, seed=0)
    done = workloads.run_pass(workload, run.ops)
    before_checks()
    run.record(done, check_matrices=check_matrices)
    result = {"problems": run.problems, "errors": run.errors, "attempted": run.attempted,
              "failed": run.failed, "wall_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0}
    return bench_run.summary(result, trace=0)


def test_operation_that_raises_is_not_correct():
    def boom():
        raise RuntimeError("boom")

    fine = workloads.Operation("fine", lambda: 1, lambda output: [])
    raises = workloads.Operation("raises", boom, lambda output: [])
    assert _summary_of_pass(workloads.Workload("w", (), "compiled", lambda seed: [fine]))["correct"]
    summary = _summary_of_pass(workloads.Workload("w", (), "compiled", lambda seed: [fine, raises]))
    assert (summary["correct"], summary["attempted"], summary["failed"]) == (False, 2, 1)


def test_suite_case_missing_from_output_is_not_correct():
    ops_ = [workloads.Operation(name, None, lambda output: []) for name in ("a", "b")]
    workload = workloads.Workload("w", (), "compiled", lambda seed: ops_, suite=lambda: {"a": 1})
    summary = _summary_of_pass(workload)
    assert (summary["correct"], summary["attempted"], summary["failed"]) == (False, 2, 1)


@pytest.mark.parametrize("group, radius", [("z2", 4), ("free2", 3)])
def test_wrong_kernel_distance_matrix_is_rejected(monkeypatch, group, radius):
    workload = workloads.Workload(
        "w", (group,), "compiled", workloads._bounded_operations(((group, radius),)))
    assert _summary_of_pass(workload, check_matrices=True)["correct"]

    real = combing.ops

    class AlteredKernel:
        max_bounded_defect = staticmethod(real.max_bounded_defect)

        @staticmethod
        def all_pairs_bfs(indptr, nbrs, n):
            dist = real.all_pairs_bfs(indptr, nbrs, n).copy()
            dist[:, 1] += 1  # every sampled row differs
            return dist

    # check_bounded runs on the real kernel; only the matrix check sees the altered one
    summary = _summary_of_pass(workload, check_matrices=True,
                               before_checks=lambda: monkeypatch.setattr(combing, "ops", AlteredKernel))
    assert not summary["correct"]
