import random
import subprocess
import sys
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from groupgeo import cayley, combing, distortion
from groupgeo._kernel import _ops_py
from groupgeo.errors import CapExceeded, MemoryCapExceeded, TooFewPoints
from groupgeo.experiments import _CENTRALIZER_WORDS, AmbientAsSubgroup, get_group, zoo_names
from groupgeo.groups import evaluate


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
        idx = cayley.ball(G, 3)
        members = combing.centralizer_ball(G, _elt(G, "x"), 3, index=idx)
        assert len(members) == len(idx)

    def test_free_centralizer_is_the_cyclic_axis(self):
        G = get_group("free2")
        members = combing.centralizer_ball(G, _elt(G, "x"), 4)
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
