"""Acceptance gate: nine exact desk-scale checks, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import csv
import io
from fractions import Fraction

import pytest

from groupgeo import cli, combing, distortion, experiments, surfaces
from groupgeo.groups import verify_presentation
from groupgeo.surfaces import SurfaceSig


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} [criterion {num}] {label}")
    assert ok, f"criterion {num}: {label}"


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def z_in_z2_profile():
    G = experiments.get_group("z2")
    H = distortion.DirectFactor(G, 0, len)
    return distortion.distortion_profile(G, H, 12)


@pytest.fixture(scope="module")
def bs12_profile():
    G = experiments.get_group("bs12")
    H = distortion.CyclicExact(G, G.marking[0], experiments._bs12_axis_exponent)
    return distortion.distortion_profile(G, H, 17)


@pytest.fixture(scope="module")
def heis_profile():
    G = experiments.get_group("heis3")
    z = G.model.element([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    H = distortion.CyclicExact(G, z, experiments._heis_center_exponent)
    return distortion.distortion_profile(G, H, 24)


def test_criterion_1_klein_obstruction():
    report = experiments.run_klein_check(8)
    census = {
        row["order"]: int(row["count"])
        for row in csv.DictReader(io.StringIO(report.tables["order_census"]))
    }
    ok = (
        report.observed == "unique_order_2"
        and census["2"] == 1
        and report.witnesses["order_2_elements"] == ["a a"]
        and "no injective homomorphism Z2 x Z2 -> SL(2, Z)"
        in report.witnesses["conclusion"]
    )
    _verdict(1, "unique order-2 element in the radius-8 SL(2,Z) ball", ok)


def test_criterion_2_presentations():
    sl2z = experiments.get_group("sl2z")
    klein = experiments.get_group("kleinfour")
    ok = (
        verify_presentation(sl2z, sl2z.presentation).ok
        and {r for r in (sl2z.alphabet.format_word(w) for w in sl2z.presentation.relators)}
        == {"a a a a", "b b b b b b", "a a b^-1 b^-1 b^-1"}
        and verify_presentation(klein, klein.presentation).ok
        and len(klein.presentation.relators) == 3
    )
    _verdict(2, "SL(2,Z) and Klein-four presentations verify", ok)


def test_criterion_3_distortion_oracles(z_in_z2_profile, bs12_profile, heis_profile):
    ok = [e.delta for e in z_in_z2_profile.entries] == list(range(1, 13))
    ok = ok and all(
        bs12_profile.entries[2 * n].delta >= 2 ** n for n in range(1, 9)
    )
    ok = ok and str(distortion.classify_growth(bs12_profile)) == "exponential"
    ok = ok and all(
        heis_profile.entries[4 * n - 1].delta >= n * n for n in range(1, 7)
    )
    ok = ok and str(distortion.classify_growth(heis_profile)) == "polynomial(2)"
    _verdict(3, "distortion oracles (identity / exponential / quadratic)", ok)


def test_criterion_4_undistorted_verdicts(z_in_z2_profile, bs12_profile):
    free2 = experiments.get_group("free2")
    self_profile = distortion.distortion_profile(
        free2, experiments.AmbientAsSubgroup(free2, 8), 8
    )
    v1 = distortion.undistorted_check(z_in_z2_profile)
    v2 = distortion.undistorted_check(self_profile)
    v3 = distortion.undistorted_check(bs12_profile)
    ok = (
        v1.verdict is True and v1.K <= 1
        and v2.verdict is True and v2.K <= 1
        and v3.verdict is False
    )
    _verdict(4, "undistorted verdicts (Z in Z^2, H = G, BS(1,2) cyclic)", ok)


def test_criterion_5_bicombing_constants():
    radii = {
        "braid3": 4, "bs12": 5, "free2": 5, "heis3": 5,
        "kleinfour": 3, "sl2z": 5, "z2": 6,
    }
    ok = True
    for name in experiments.zoo_names():
        report = experiments.run_combing_report(name, radii[name])
        ok = ok and report.observed == "geodesic_equivariant"
    G = experiments.get_group("free2")
    k2 = {}
    for radius in (6, 8):
        sigma = combing.shortlex_bicombing(G, radius)
        k2[radius] = combing.check_bounded(sigma, G, radius).k2
    ok = ok and k2[6] == k2[8]
    _verdict(
        5,
        "(lambda, epsilon) = (1, 0) + equivariance on the zoo; "
        f"free2 k2 stable at {k2[6]}",
        ok,
    )


def test_criterion_6_centralizer_quasiconvexity():
    G = experiments.get_group("free2")
    a = experiments.evaluate(G.alphabet.parse_word("x y"), G)
    sigma = combing.shortlex_bicombing(G, 10)
    report = combing.centralizer_quasiconvexity_report(G, a, sigma, 10)
    ok = report.k == Fraction(1)
    ok = ok and report.witnesses["psi_max_length"] <= 1
    ok = ok and all(
        len(G.alphabet.parse_word(row["psi"])) <= 1
        for row in report.witnesses["conjugators"]
    )
    for abelian in ("z2", "kleinfour"):
        A = experiments.get_group(abelian)
        b = A.marking[0]
        sig = combing.shortlex_bicombing(A, 4)
        ok = ok and combing.centralizer_quasiconvexity_report(A, b, sig, 4).k == 0
    _verdict(6, "centralizer of xy in free2: k = 1, psi <= 1; abelian k = 0", ok)


def test_criterion_7_cover_arithmetic():
    flagged = []
    ok = True
    for sig in surfaces.all_nonorientable_signatures(20):
        cover = surfaces.orientation_double_cover(sig)
        ok = ok and surfaces.euler_characteristic(cover) == 2 * surfaces.euler_characteristic(sig)
        if surfaces.exceptional_case(sig) != "none":
            flagged.append(str(sig))
    ok = ok and sorted(flagged) == ["N1", "N2"]
    _verdict(7, "chi doubles for all g+b+p <= 20; exceptional only N1, N2", ok)


def test_criterion_8_complement_arithmetic():
    fixture = [
        ("S1^1", "a"), ("S2", "a"), ("S0,4", "a"),
        ("S0,3", "b"), ("S0^3", "b"), ("S0,1^2", "b"),
        ("N4", "c"), ("N1,3", "c"), ("N2^2", "c"),
        ("N3", "d"), ("N2^1", "d"), ("N1,1^1", "d"),
    ]
    F = SurfaceSig.parse("N9")
    ok = True
    for text, case in fixture:
        report = surfaces.admissible_pair_check(F, [SurfaceSig.parse(text)])
        ok = ok and report.admissible and report.components[0].case == case
    F_prime = SurfaceSig.parse("N3^1")
    ok = ok and surfaces.excess_rank(
        F, F_prime, [SurfaceSig.parse("N2^1")], boundary_outside=0
    ) == 1
    ok = ok and surfaces.excess_rank(
        F, F_prime, [SurfaceSig.parse("S0,3")], boundary_outside=3
    ) == 3
    ok = ok and surfaces.excess_rank(
        F, F_prime, [SurfaceSig.parse("S1,1")], boundary_outside=0
    ) == 0
    _verdict(8, "12-case (a)-(d) classification and excess ranks 1 / 3 / 0", ok)


def test_criterion_9_thread_determinism(tmp_path):
    # the library takes no thread count; the promise lives on the CLI flag
    def tables(threads):
        out = tmp_path / f"threads{threads}"
        flags = ["--out", str(out), "--threads", str(threads)]
        assert cli.main(["klein-check", "--radius", "5", *flags]) == 0
        assert cli.main(["combing-check", "--group", "free2", "--radius", "5", *flags]) == 0
        assert cli.main(["distortion", *flags]) == 0
        # cover-table enumerates no ball and has no --threads flag
        assert cli.main(["cover-table", "--max-complexity", "6", "--out", str(out)]) == 0
        return {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}

    one, four = tables(1), tables(4)
    ok = len(one) == 8 and one == four
    _verdict(9, "byte-identical CSV files with --threads 1 and --threads 4", ok)
