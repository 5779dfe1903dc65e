import random
import subprocess
import sys
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from groupgeo import cayley, combing, distortion, experiments
from groupgeo._kernel import _ops_py
from groupgeo.errors import CapExceeded, MemoryCapExceeded, TooFewPoints
from groupgeo.experiments import _CENTRALIZER_WORDS, AmbientAsSubgroup, get_group, zoo_names
from groupgeo.groups import FreeGroupModel, MarkedGroup, evaluate
from groupgeo.words import Alphabet


def _elt(G, text):
    return evaluate(G.alphabet.parse_word(text), G)


class TestDiscretePath:
    def test_requires_a_vertex(self):
        with pytest.raises(ValueError):
            combing.DiscretePath(())

    def test_at_pads_past_the_end(self):
        G = get_group("free2")
        x = _elt(G, "x")
        p = combing.DiscretePath((G.model.identity, x))
        assert p.length == 1
        assert G.model.canonical_key(p.at(0)) == G.model.canonical_key(G.model.identity)
        for t in (1, 5, 100):
            assert G.model.canonical_key(p.at(t)) == G.model.canonical_key(x)

    def test_validate_steps(self):
        G = get_group("free2")
        good = combing.DiscretePath((G.model.identity, _elt(G, "x"), _elt(G, "x y")))
        assert good.validate_steps(G)
        skipping = combing.DiscretePath((G.model.identity, _elt(G, "x x")))
        assert not skipping.validate_steps(G)


class TestShortlexBicombing:
    def test_line_spells_the_shortlex_geodesic(self):
        G = get_group("free2")
        sigma = combing.shortlex_bicombing(G, 4)
        line = sigma.line(G.model.identity, _elt(G, "x x"))
        got = [G.model.canonical_key(v) for v in line.vertices]
        want = [
            G.model.canonical_key(_elt(G, w)) for w in ("1", "x", "x x")
        ]
        assert got == want
        assert line.validate_steps(G)

    def test_lines_start_and_end_correctly(self):
        G = get_group("z2")
        sigma = combing.shortlex_bicombing(G, 5)
        x, y = _elt(G, "x"), _elt(G, "y y")
        line = sigma.line(x, y)
        m = G.model
        assert m.canonical_key(line.start) == m.canonical_key(x)
        assert m.canonical_key(line.end) == m.canonical_key(y)

    def test_section_law_identity_pair(self):
        G = get_group("free2")
        sigma = combing.shortlex_bicombing(G, 3)
        g = _elt(G, "x y")
        line = sigma.line(g, g)
        assert line.length == 0

    def test_cap_exceeded(self):
        G = get_group("free2")
        sigma = combing.shortlex_bicombing(G, 2)
        with pytest.raises(CapExceeded):
            sigma.line(G.model.identity, _elt(G, "x x x"))

    def test_reuses_a_supplied_index(self):
        G = get_group("free2")
        idx = cayley.ball(G, 4)
        sigma = combing.shortlex_bicombing(G, 3, index=idx)
        assert sigma.index is idx


class TestQuasiGeodesic:
    def test_geodesic_lines_give_one_zero(self):
        G = get_group("z2")
        sigma = combing.shortlex_bicombing(G, 6)
        sample = [
            (G.model.identity, _elt(G, "x x y")),
            (_elt(G, "y"), _elt(G, "x x")),
        ]
        report = combing.check_quasi_geodesic(sigma, sample)
        assert report.lam == Fraction(1)
        assert report.epsilon == Fraction(0)

    def test_stuttering_lines_inflate_lambda(self):
        G = get_group("free2")
        inner = combing.shortlex_bicombing(G, 6)

        def doubled(x, y):
            verts = inner.line(x, y).vertices
            padded = []
            for v in verts:
                padded.extend([v, v])
            return combing.DiscretePath(tuple(padded))

        slow = combing.Bicombing(group=G, rule=doubled, distance_fn=inner._distance)
        report = combing.check_quasi_geodesic(
            slow, [(G.model.identity, _elt(G, "x x x"))]
        )
        # the 3-step span v0 v0 v1 v1 covers a single edge
        assert report.lam == Fraction(3)

    def test_empty_sample_raises(self):
        G = get_group("free2")
        sigma = combing.shortlex_bicombing(G, 2)
        with pytest.raises(TooFewPoints):
            combing.check_quasi_geodesic(sigma, [])
        with pytest.raises(TooFewPoints):
            combing.check_quasi_geodesic(sigma, np.zeros((0, 2), dtype=np.intp))


class TestEquivariance:
    def test_shortlex_bicombing_is_equivariant(self):
        G = get_group("free2")
        sigma = combing.shortlex_bicombing(G, 6)
        triples = [
            (_elt(G, "x"), G.model.identity, _elt(G, "y y")),
            (_elt(G, "y x"), _elt(G, "x"), _elt(G, "x y")),
            (G.model.identity, _elt(G, "y"), _elt(G, "y x x")),
        ]
        assert combing.check_equivariance(sigma, triples)

    def test_detects_a_broken_rule(self):
        G = get_group("free2")
        inner = combing.shortlex_bicombing(G, 6)
        m = G.model
        x_key = m.canonical_key(_elt(G, "x"))

        def biased(x, y):
            # detours through y's inverse whenever the start is the letter x,
            # so translating the basepoint changes the path shape
            if m.canonical_key(x) == x_key:
                return combing.DiscretePath((x, m.invert(y), y))
            return inner.line(x, y)

        broken = combing.Bicombing(group=G, rule=biased, distance_fn=inner._distance)
        triples = [(_elt(G, "x"), G.model.identity, _elt(G, "y"))]
        assert not combing.check_equivariance(broken, triples)


class TestBoundedness:
    def test_tree_lines_fellow_travel_exactly(self):
        G = get_group("free2")
        sigma = combing.shortlex_bicombing(G, 6)
        report = combing.check_bounded(sigma, G, 6)
        assert report.k1 == Fraction(1)
        assert report.k2 == Fraction(0)
        assert report.exhaustive
        assert report.family == "common_basepoint"

    def test_finite_group_uses_word_metric(self):
        G = get_group("kleinfour")
        sigma = combing.shortlex_bicombing(G, 3)
        report = combing.check_bounded(sigma, G, 3)
        assert report.distance_mode == "word_metric"
        assert report.k2 >= 0

    def test_dense_cap_names_stage_and_size(self, monkeypatch):
        # the ball itself is enumerated; the n^2 distance matrix is refused
        monkeypatch.setattr(combing, "_DENSE_DISTANCE_LIMIT", 16)
        G = get_group("free2")
        sigma = combing.shortlex_bicombing(G, 2)
        with pytest.raises(MemoryCapExceeded) as exc:
            combing.check_bounded(sigma, G, 2)
        assert (exc.value.cap, exc.value.radius) == (16, 2)
        assert str(exc.value) == (
            "check_bounded: the radius-2 ball has 17 vertices, more than the "
            "dense distance-matrix cap of 16"
        )

    def test_witness_pair_is_reported(self):
        G = get_group("z2")
        sigma = combing.shortlex_bicombing(G, 4)
        report = combing.check_bounded(sigma, G, 4)
        pair = report.witnesses["k2_pair"]
        assert len(pair) == 2
        for w in pair:
            evaluate(G.alphabet.parse_word(w), G)  # parses back


class TestQuasiconvexity:
    def test_whole_group_has_constant_zero(self):
        G = get_group("free2")
        sigma = combing.shortlex_bicombing(G, 5)
        report = combing.quasiconvexity_constant(sigma, AmbientAsSubgroup(G, 5), 5)
        assert report.k == Fraction(0)

    def test_factor_of_z2_is_combing_convex(self):
        G = get_group("z2")
        sigma = combing.shortlex_bicombing(G, 6)
        H = distortion.DirectFactor(G, 0, len)
        report = combing.quasiconvexity_constant(sigma, H, 6)
        assert report.k == Fraction(0)

    def test_diagonal_of_z2_strays_by_one(self):
        # shortlex lines to (n, n) spell x^n y^n, leaving the diagonal
        G = get_group("z2")
        sigma = combing.shortlex_bicombing(G, 6)
        diag = distortion.EnumeratedWithCap(
            G, [_elt(G, "x y")], cap_radius=3
        )
        report = combing.quasiconvexity_constant(sigma, diag, 6)
        assert report.k >= Fraction(1)


class TestCentralizers:
    def test_abelian_centralizer_is_everything(self):
        G = get_group("z2")
        sigma = combing.shortlex_bicombing(G, 3)
        report = combing.centralizer_quasiconvexity_report(G, _elt(G, "x"), sigma, 3)
        assert len(report.member_vertices) == len(sigma.index)

    def test_free_centralizer_is_the_cyclic_axis(self):
        G = get_group("free2")
        sigma = combing.shortlex_bicombing(G, 4)
        report = combing.centralizer_quasiconvexity_report(G, _elt(G, "x"), sigma, 4)
        members = sigma.index.elements_at(report.member_vertices)
        keys = {G.model.canonical_key(g) for g in members}
        want = {
            G.model.canonical_key(G.model.power(_elt(G, "x"), e))
            for e in range(-4, 5)
        }
        assert keys == want

    def test_conjugator_for_equal_elements_is_empty(self):
        G = get_group("free2")
        x = _elt(G, "x")
        psi = combing.conjugator_search(G, x, x, cap=3)
        assert psi is not None and len(psi) == 0

    def test_conjugator_undoes_a_conjugation(self):
        G = get_group("free2")
        x = _elt(G, "x")
        gamma = _elt(G, "y x y^-1")
        psi = combing.conjugator_search(G, x, gamma, cap=3)
        assert G.alphabet.format_word(psi) == "y^-1"

    def test_non_conjugates_return_none(self):
        G = get_group("free2")
        assert combing.conjugator_search(G, _elt(G, "x"), _elt(G, "y"), cap=3) is None

    def test_abelian_report_has_zero_constants(self):
        G = get_group("z2")
        sigma = combing.shortlex_bicombing(G, 4)
        report = combing.centralizer_quasiconvexity_report(G, _elt(G, "x"), sigma, 4)
        assert report.k == Fraction(0)
        assert report.witnesses["psi_max_length"] == 0
        assert report.family == "centralizer"

    def test_report_gives_the_requested_radius(self):
        G = get_group("heis3")
        sigma = combing.shortlex_bicombing(G, 5)  # a larger ball than asked for
        a = _elt(G, _CENTRALIZER_WORDS["heis3"])
        report = combing.centralizer_quasiconvexity_report(G, a, sigma, 3)
        assert report.radius == 3
        members = {row["member"] for row in report.witnesses["conjugators"]}
        assert len(members) == len(cayley.ball(G, 3))  # a is central

    def test_free_cyclic_centralizer_report(self):
        G = get_group("free2")
        sigma = combing.shortlex_bicombing(G, 6)
        report = combing.centralizer_quasiconvexity_report(
            G, _elt(G, "x y"), sigma, 6
        )
        assert report.k <= Fraction(1)
        assert report.witnesses["psi_max_length"] <= 1
        for row in report.witnesses["conjugators"]:
            evaluate(G.alphabet.parse_word(row["psi"]), G)


def _reversed_lines(G, radius):
    """A bicombing of z2 that walks each shortlex word backwards: its line
    from 1 to x y is 1, y, x y, where the shortlex line is 1, x, x y."""
    inner = combing.shortlex_bicombing(G, radius)
    m = G.model
    letter_key, images = G.alphabet.letter_key, G.letter_images

    def rule(x, y):
        u = m.multiply(m.invert(x), y)
        vertices = [x]
        for letter in list(inner.index.vertex_word(inner._lookup(u)))[::-1]:
            vertices.append(m.multiply(vertices[-1], images[letter_key(letter)]))
        return combing.DiscretePath(tuple(vertices))

    return combing.Bicombing(group=G, rule=rule, distance_fn=inner._distance)


def _ball_reading_checks(G):
    """check_bounded, quasiconvexity_constant and the centralizer report as
    functions of (sigma, radius)."""
    x = _elt(G, "x")
    H = distortion.DirectFactor(G, 0, len)
    return {
        "check_bounded": lambda sigma, r: combing.check_bounded(sigma, G, r),
        "quasiconvexity_constant": lambda sigma, r: combing.quasiconvexity_constant(
            sigma, H, r),
        "centralizer_quasiconvexity_report": lambda sigma, r: (
            combing.centralizer_quasiconvexity_report(G, x, sigma, r)),
    }


CHECKS = ("check_bounded", "quasiconvexity_constant", "centralizer_quasiconvexity_report")


class TestBallReadingChecks:
    def test_reversed_lines_differ_from_shortlex(self):
        G = get_group("z2")
        line = _reversed_lines(G, 4).line(G.model.identity, _elt(G, "x y"))
        want = [G.model.canonical_key(_elt(G, w)) for w in ("1", "y", "x y")]
        assert [G.model.canonical_key(v) for v in line.vertices] == want

    @pytest.mark.parametrize("check", CHECKS)
    def test_other_bicombing_is_a_type_error(self, check):
        G = get_group("z2")
        with pytest.raises(TypeError,
                           match=f"{check} reads a ShortlexBicombing's ball, not a Bicombing"):
            _ball_reading_checks(G)[check](_reversed_lines(G, 4), 4)

    @pytest.mark.parametrize("check", CHECKS)
    def test_smaller_ball_is_a_value_error(self, check):
        G = get_group("z2")
        with pytest.raises(ValueError, match=f"{check} needs a ball of radius "
                                             r"(>= )?4, not 3"):
            _ball_reading_checks(G)[check](combing.shortlex_bicombing(G, 3), 4)

    @pytest.mark.parametrize("check", ["check_bounded", "quasiconvexity_constant"])
    def test_larger_ball_is_a_value_error(self, check):
        G = get_group("z2")
        with pytest.raises(ValueError, match=f"{check} needs a ball of radius 4, not 5"):
            _ball_reading_checks(G)[check](combing.shortlex_bicombing(G, 5), 4)

    @pytest.mark.parametrize("check", CHECKS)
    def test_no_check_enumerates(self, check, monkeypatch):
        G = get_group("z2")
        sigma = combing.shortlex_bicombing(G, 4)

        def refuse(*args, **kwargs):
            raise AssertionError("enumerated a ball")

        monkeypatch.setattr(cayley, "ball", refuse)
        assert _ball_reading_checks(G)[check](sigma, 4).radius == 4


class TestIndexReuse:
    def test_centralizer_members_ignore_another_groups_ball(self):
        G = get_group("free2")
        x = _elt(G, "x")

        def members(sigma):
            report = combing.centralizer_quasiconvexity_report(G, x, sigma, 2)
            return sigma.index.elements_at(report.member_vertices)

        got = members(combing.shortlex_bicombing(G, 2, index=cayley.ball(get_group("z2"), 3)))
        want = members(combing.shortlex_bicombing(G, 2))
        assert [G.model.canonical_key(g) for g in got] == [
            G.model.canonical_key(g) for g in want
        ]

    def test_conjugator_search_ignores_another_groups_ball(self):
        G = get_group("sl2z")
        a = _elt(G, "a")
        got = combing.conjugator_search(G, a, a, 3, index=cayley.ball(get_group("heis3"), 3))
        assert got == combing.conjugator_search(G, a, a, 3)

    def test_bicombing_ignores_another_groups_ball(self):
        G = get_group("free2")
        other = cayley.ball(get_group("z2"), 3)
        assert combing.shortlex_bicombing(G, 2, index=other).index.group is G

    def test_smaller_ball_is_not_reused(self):
        G = get_group("free2")
        small = cayley.ball(G, 2)
        x = _elt(G, "x")
        sigma = combing.shortlex_bicombing(G, 3, index=small)
        assert sigma.index.radius == 3
        assert len(combing.centralizer_quasiconvexity_report(G, x, sigma, 3).member_vertices) == 7
        # the only conjugator of length <= 3 has length 3, outside the small ball
        gamma = _elt(G, "y^-1 x^-1 y^-1 x y x y")
        psi = combing.conjugator_search(G, x, gamma, 3, index=small)
        assert G.alphabet.format_word(psi) == "y x y"

    def test_ball_of_the_group_is_reused(self, monkeypatch):
        G = get_group("free2")
        idx = cayley.ball(G, 4)
        x = _elt(G, "x")

        def refuse(*args, **kwargs):
            raise AssertionError("enumerated a ball")

        monkeypatch.setattr(cayley, "ball", refuse)
        sigma = combing.shortlex_bicombing(G, 3, index=idx)
        assert len(combing.centralizer_quasiconvexity_report(G, x, sigma, 3).member_vertices) == 7
        assert len(combing.conjugator_search(G, x, _elt(G, "y x y^-1"), 3, index=idx)) == 1


# acceptance criterion 5's radii
CRITERION5_RADII = {
    "braid3": 4, "bs12": 5, "free2": 5, "heis3": 5, "kleinfour": 3, "sl2z": 5, "z2": 6,
}


def _brute_conjugators(idx, a, gamma, n):
    """The vertices psi of ball(n) with psi gamma = a psi, tested element by
    element on idx's decoded elements with ``multiply`` and
    ``canonical_key``."""
    model = idx.group.model
    multiply, key = model.multiply, model.canonical_key
    elements = idx.elements
    return [
        v for v in range(sum(idx.sphere_sizes[: n + 1]))
        if key(multiply(elements[v], gamma)) == key(multiply(a, elements[v]))
    ]


class TestRowScan:
    """The conjugator scan on packed rows, a layer at a time, finds what a
    brute-force scan of the decoded elements finds, vertex for vertex."""

    @pytest.mark.parametrize("name", sorted(CRITERION5_RADII))
    def test_report_matches_tuple_scan(self, name):
        G = get_group(name)
        r = CRITERION5_RADII[name]
        model = G.model
        fmt = G.alphabet.format_word
        a = _elt(G, _CENTRALIZER_WORDS[name])
        rows_ball, ref = cayley.ball(G, r), cayley.ball(G, r)
        got = combing.centralizer_quasiconvexity_report(
            G, a, combing.shortlex_bicombing(G, r, index=rows_ball), r)
        members = _brute_conjugators(ref, a, a, r)
        assert got.member_vertices == members
        # the witnesses' vertices are those that sigma.line walks, and each
        # psi is the first brute-force conjugator within |member|
        sigma = combing.shortlex_bicombing(G, r, index=ref)
        want = []
        for h in members:
            d = int(ref.depth[h])
            for v in sigma.line(model.identity, ref.elements[h]).vertices:
                gamma = model.multiply(model.multiply(model.invert(v), a), v)
                psi = _brute_conjugators(ref, a, gamma, d)[0]
                want.append((model.describe(gamma), fmt(ref.vertex_word(psi))))
        assert [(row["gamma"], row["psi"]) for row in got.witnesses["conjugators"]] == want
        # the report decodes only the rows of its members' lines
        layers = rows_ball._layers
        if G.model.batch_action() is not None:
            assert layers._elements is None

    @pytest.mark.parametrize("name", sorted(CRITERION5_RADII))
    def test_scans_match_on_conjugates(self, name):
        G = get_group(name)
        r = CRITERION5_RADII[name]
        model = G.model
        a = _elt(G, _CENTRALIZER_WORDS[name])
        rows_ball, ref = cayley.ball(G, r), cayley.ball(G, r)
        elements = ref.elements
        gammas = [a, model.multiply(a, a), G.letter_images[0]]
        gammas += [
            model.multiply(model.multiply(model.invert(v), a), v)
            for v in elements[1::max(1, len(elements) // 7)]
        ]
        for gamma in gammas:
            want = _brute_conjugators(ref, a, gamma, r)
            # the rows are scanned whether or not the elements are decoded
            assert list(combing._conjugators_in_ball(G, rows_ball, a, gamma, r)) == want
            assert list(combing._conjugators_in_ball(G, ref, a, gamma, r)) == want
            psi = combing.conjugator_search(G, a, gamma, r, index=rows_ball)
            assert psi == (ref.vertex_word(want[0]) if want else None)

    def test_decoded_ball_is_scanned_on_rows(self, monkeypatch):
        G = get_group("free2")
        r = CRITERION5_RADII["free2"]
        a = _elt(G, _CENTRALIZER_WORDS["free2"])
        idx = cayley.ball(G, r)
        want = _brute_conjugators(idx, a, a, r)
        keyed = []
        key = G.model.canonical_key
        monkeypatch.setattr(G.model, "canonical_key", lambda x: keyed.append(x) or key(x))
        assert list(combing._conjugators_in_ball(G, idx, a, a, r)) == want
        # only the identity is tested element by element
        assert len(keyed) == 2

    def test_layer_without_a_proof_is_tested_by_tuples(self):
        # rank 2^30 takes 31 bits per code: layer 2's rows have 63 bits, so
        # multiplying them by a letter has no int64 proof
        model = FreeGroupModel(2 ** 30)
        G = MarkedGroup(
            model=model, alphabet=Alphabet(("a", "b")),
            marking=(model.generator(0), model.generator(2 ** 30 - 1)),
        )
        rows_ball = cayley.ball(G, 2)
        batch, rows = rows_ball.rows()
        with pytest.raises(OverflowError):
            batch.multiply(rows[5:], batch.pack((0,)))
        a = model.generator(0)
        got = list(combing._conjugators_in_ball(G, rows_ball, a, a, 2))
        assert got == _brute_conjugators(cayley.ball(G, 2), a, a, 2)
        assert [rows_ball.vertex_word(v).letters for v in got] == [
            (), ((0, 1),), ((0, -1),), ((0, 1), (0, 1)), ((0, -1), (0, -1)),
        ]

    def test_gamma_past_int64_is_tested_by_tuples(self):
        # gamma = v^-1 a v with an entry past int64 has no row, so each
        # layer after the identity is tested element by element; the
        # conjugators are v times the centralizer of a
        G = get_group("sl2z")
        model = G.model
        idx = cayley.ball(G, 4)
        a = model.element(((1, 2 ** 64), (0, 1)))
        for v in (0, 7):
            (g,) = idx.elements_at([v])
            gamma = model.multiply(model.multiply(model.invert(g), a), g)
            got = list(combing._conjugators_in_ball(G, idx, a, gamma, 4))
            assert got == _brute_conjugators(cayley.ball(G, 4), a, gamma, 4)
            assert v in got and len(got) > 2
        assert idx._layers._elements is None


def _reference_triples(idx, seed):
    """The equivariance spot check's triples as the report drew them before
    they were drawn as vertices: elements, x anchored at the identity
    whenever x^-1 y has no key in the ball."""
    model, elements = idx.group.model, idx.elements
    rng = random.Random(seed)
    triples = []
    for _ in range(experiments._EQUIVARIANCE_TRIPLES):
        g, x, y = rng.choice(elements), rng.choice(elements), rng.choice(elements)
        if model.canonical_key(model.multiply(model.invert(x), y)) not in idx.index:
            x = model.identity
        triples.append((g, x, y))
    return triples


def _element_status(sigma, triple):
    """The element loop's verdict on one triple: 1, 0, or -1 where it raises."""
    try:
        return int(combing.check_equivariance(sigma, [triple]))
    except CapExceeded:
        return -1


def _raw_triples(idx, seed, count=300):
    rng = random.Random(seed)
    return np.array([[rng.randrange(len(idx)) for _ in range(3)] for _ in range(count)], dtype=np.intp)


class TestEquivarianceOnRows:
    """The equivariance check on packed rows decides every triple as the
    element loop does, and the report's triples are the ones the element
    loop drew."""

    @pytest.mark.parametrize("name", sorted(CRITERION5_RADII))
    def test_triples_match_the_element_draw(self, name):
        G = get_group(name)
        idx = cayley.ball(G, CRITERION5_RADII[name])
        for seed in (0, 7):
            triples = experiments._equivariance_triples(idx, seed)
            elements = idx.elements
            got = [tuple(elements[v] for v in t) for t in triples.tolist()]
            assert got == _reference_triples(idx, seed)
        raw = _raw_triples(idx, 3)
        by_elements = experiments._quotients_in_ball(idx, raw[:, 1], raw[:, 2])
        on_rows = idx.quotient_vertices(idx.rows()[1][raw[:, 1]], idx.rows()[1][raw[:, 2]]) >= 0
        np.testing.assert_array_equal(on_rows, by_elements)
        # B(3) is the whole of kleinfour; elsewhere some quotients leave the ball
        assert by_elements.all() == (name == "kleinfour")

    @pytest.mark.parametrize("name", sorted(CRITERION5_RADII))
    def test_rows_decide_each_triple_as_the_element_loop(self, name):
        G = get_group(name)
        sigma = combing.shortlex_bicombing(G, CRITERION5_RADII[name])
        idx = sigma.index
        report_triples, raw = experiments._equivariance_triples(idx, 0), _raw_triples(idx, 5)
        elements = idx.elements
        for triples in (report_triples, raw):
            status = combing._equivariance_on_rows(sigma, triples)
            want = [_element_status(sigma, tuple(elements[v] for v in t)) for t in triples.tolist()]
            assert status.tolist() == want
        assert combing.check_equivariance(sigma, report_triples)
        if name == "kleinfour":  # B(3) is the whole group
            assert -1 not in want
            return
        # the raw triples hold lines that leave the ball, and the array
        # raises at the first of them as the element loop does
        assert -1 in want
        with pytest.raises(CapExceeded, match=f"beyond the combing cap {sigma.cap}$"):
            combing.check_equivariance(sigma, raw)

    def test_a_differing_line_is_found_in_triple_order(self, monkeypatch):
        G = get_group("heis3")
        sigma = combing.shortlex_bicombing(G, 5)
        idx = sigma.index
        triples = experiments._equivariance_triples(idx, 0)
        lookup = cayley.BallIndex.vertices_of

        def shifted(self, rows):
            # u' of triple 4 becomes another vertex: its lines end apart
            u = lookup(self, rows)
            u[len(u) // 2 + 4] = (u[len(u) // 2 + 4] + 1) % len(self)
            return u

        monkeypatch.setattr(cayley.BallIndex, "vertices_of", shifted)
        status = combing._equivariance_on_rows(sigma, triples)
        assert status.tolist() == [1] * 4 + [0] + [1] * (len(triples) - 5)
        assert not combing.check_equivariance(sigma, triples)
        # a triple whose line leaves the ball decides only when it comes
        # before the one that differs
        outside = _raw_triples(idx, 5)
        statuses = combing._equivariance_on_rows(sigma, outside).tolist()
        leaving = outside[statuses.index(-1):][:1]
        assert not combing.check_equivariance(sigma, np.concatenate((triples, leaving)))
        with pytest.raises(CapExceeded):
            combing.check_equivariance(sigma, np.concatenate((leaving, triples)))

    def test_products_without_a_proof_run_the_element_loop(self, monkeypatch):
        G = get_group("sl2z")
        sigma = combing.shortlex_bicombing(G, 5)
        triples = experiments._equivariance_triples(sigma.index, 0)

        def no_proof(self, A):
            raise OverflowError("no proof")

        monkeypatch.setattr(type(G.model.batch_action()), "invert", no_proof)
        with pytest.raises(OverflowError):
            combing._equivariance_on_rows(sigma, triples)
        rows = sigma.index.rows()[1]
        with pytest.raises(OverflowError):
            sigma.index.quotient_vertices(rows[triples[:, 1]], rows[triples[:, 2]])
        assert combing.check_equivariance(sigma, triples)
        np.testing.assert_array_equal(experiments._equivariance_triples(sigma.index, 0), triples)

    def test_a_proof_failing_after_the_lookup_runs_the_element_loop(self, monkeypatch):
        # the products of the lines' k * T rows have no proof, after the
        # lookup of u and u' has run
        G = get_group("heis3")
        sigma = combing.shortlex_bicombing(G, 5)
        idx = sigma.index
        report_triples, raw = experiments._equivariance_triples(idx, 0), _raw_triples(idx, 5)
        elements = idx.elements
        batch = idx.rows()[0]
        multiply, lookup, order = batch.multiply, cayley.BallIndex.vertices_of, []
        k = len(report_triples)

        def lines_fail(A, B):
            if max(len(A), len(B)) == k * (idx.radius + 1):
                order.append("product")
                raise OverflowError("no proof")
            return multiply(A, B)

        def looked_up(self, rows):
            order.append("lookup")
            return lookup(self, rows)

        monkeypatch.setattr(batch, "multiply", lines_fail)
        monkeypatch.setattr(cayley.BallIndex, "vertices_of", looked_up)
        want = combing.check_equivariance(sigma, [tuple(elements[v] for v in t)
                                                  for t in report_triples.tolist()])
        assert combing.check_equivariance(sigma, report_triples) is want is True
        assert order == ["lookup", "product"]
        # the raw triples hold lines that leave the ball: the element loop raises
        k, order[:] = len(raw), []
        with pytest.raises(CapExceeded, match=f"beyond the combing cap {sigma.cap}$"):
            combing.check_equivariance(sigma, raw)
        assert order == ["lookup", "product"]

    def test_other_bicombings_are_not_read_as_rows(self):
        G = get_group("sl2z")
        inner = combing.shortlex_bicombing(G, 5)
        other = combing.Bicombing(group=G, rule=inner.line, distance_fn=inner._distance)
        other.index = inner.index
        triples = experiments._equivariance_triples(inner.index, 0)
        assert combing._equivariance_on_rows(other, triples) is None


def _reference_multi_source_distances(indptr, nbrs, n, sources):
    """Queue BFS over the CSR graph, one vertex at a time."""
    dist = np.full(n, -1, dtype=np.int64)
    q = deque()
    for s in sources:
        dist[s] = 0
        q.append(s)
    while q:
        u = q.popleft()
        d = dist[u] + 1
        for v in nbrs[indptr[u]:indptr[u + 1]]:
            if dist[v] < 0:
                dist[v] = d
                q.append(int(v))
    return dist


def _assert_bfs_matches_reference(idx, sources):
    indptr, nbrs = idx.graph_csr()
    got = _ops_py.multi_source_distances(idx._neighbour_table(), sources)
    want = _reference_multi_source_distances(indptr, nbrs, len(idx), sources)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


class TestMultiSourceDistances:
    @pytest.mark.parametrize("name", zoo_names())
    def test_matches_reference_on_zoo_balls(self, name):
        G = get_group(name)
        idx = cayley.ball(G, 5)
        members = list(combing._conjugators_in_ball(
            G, idx, _elt(G, _CENTRALIZER_WORDS[name]), _elt(G, _CENTRALIZER_WORDS[name]), 5
        ))
        rng = random.Random(name)
        for sources in (members, [0], [len(idx) - 1],
                        rng.sample(range(len(idx)), min(7, len(idx))), [],
                        [len(idx) - 1, 0, len(idx) - 1]):
            _assert_bfs_matches_reference(idx, sources)

    def test_matches_reference_on_free2_centralizer_members(self):
        G = get_group("free2")
        idx = cayley.ball(G, 10)
        a = _elt(G, "x y")
        members = list(combing._conjugators_in_ball(G, idx, a, a, 10))
        assert len(members) == 11  # (x y)^k, |k| <= 5
        _assert_bfs_matches_reference(idx, members)

    def test_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call (numpy 2.4), about
        # 0.8 MB of resident memory in a process that never uses it
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from groupgeo._kernel import _ops_py\n"
            "table = np.array([[1, -1], [0, 2], [1, -1]], dtype=np.int32)\n"
            "assert _ops_py.multi_source_distances(table, [2, 2]).tolist() == [2, 1, 0]\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"
