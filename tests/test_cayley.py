import io
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupgeo import cayley, cli, combing
from groupgeo.errors import CapExceeded, MemoryCapExceeded
from groupgeo.experiments import get_group, group_from_config
from groupgeo.groups import FreeGroupModel, MarkedGroup, evaluate
from groupgeo.words import Alphabet, Word, reduce, shortlex_compare


def _z_group():
    model = FreeGroupModel(1)
    return MarkedGroup(
        model=model, alphabet=Alphabet(("x",)), marking=(model.generator(0),)
    )


class TestBall:
    def test_free2_sizes(self):
        idx = cayley.ball(get_group("free2"), 2)
        assert len(idx) == 17
        assert idx.sphere_sizes == [1, 4, 12]

    def test_z_ball(self):
        assert len(cayley.ball(_z_group(), 3)) == 7

    def test_klein_four_exhausts(self):
        idx = cayley.ball(get_group("kleinfour"), 2)
        assert len(idx) == 4
        assert idx.sphere_sizes == [1, 2, 1]

    def test_exhausted_group_pads_empty_spheres(self):
        idx = cayley.ball(get_group("kleinfour"), 5)
        assert idx.sphere_sizes == [1, 2, 1, 0, 0, 0]

    def test_radius_zero(self):
        idx = cayley.ball(get_group("free2"), 0)
        assert len(idx) == 1

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            cayley.ball(get_group("free2"), -1)

    def test_cap_raises_not_truncates(self):
        with pytest.raises(MemoryCapExceeded):
            cayley.ball(get_group("free2"), 4, max_elements=10)

    @pytest.mark.parametrize("group, radius", [
        ("free2", 4), ("heis3", 3), ("braid3", 4), ("bs12", 5), ("kleinfour", 2),
        ("sl2z", 5), ("z2", 5),
    ])
    def test_cap_boundary_is_exact(self, group, radius):
        G = get_group(group)
        n = len(cayley.ball(G, radius))
        assert len(cayley.ball(G, radius, max_elements=n)) == n
        with pytest.raises(MemoryCapExceeded) as exc:
            cayley.ball(G, radius, max_elements=n - 1)
        assert exc.value.radius == radius

    def test_nesting(self):
        small = cayley.ball(get_group("z2"), 3)
        big = cayley.ball(get_group("z2"), 5)
        for key, d in zip(small.keys_shortlex, small.depth.tolist()):
            assert big.depth[big.index[key]] == d

    def test_distances_are_exact_word_lengths(self):
        # brute force over all words of length <= 4 in the free group
        G = get_group("free2")
        idx = cayley.ball(G, 4)
        best = {}
        for n in range(5):
            for codes in product(range(4), repeat=n):
                w = Word(tuple((c >> 1, 1 if c % 2 == 0 else -1) for c in codes))
                key = G.model.canonical_key(evaluate(w, G))
                best.setdefault(key, n)
        assert len(best) == len(idx)
        for key, d in zip(idx.keys_shortlex, idx.depth.tolist()):
            assert best[key] == d


class TestGeodesics:
    def test_identity_word(self):
        G = get_group("free2")
        assert cayley.geodesic_shortlex(G.model.identity, G, 2) == Word(())

    def test_xy_in_z2_picks_x_first(self):
        G = get_group("z2")
        g = evaluate(G.alphabet.parse_word("y x"), G)
        assert G.alphabet.format_word(cayley.geodesic_shortlex(g, G, 4)) == "x y"

    def test_unique_geodesic(self):
        G = get_group("free2")
        g = evaluate(G.alphabet.parse_word("x x"), G)
        assert G.alphabet.format_word(cayley.geodesic_shortlex(g, G, 4)) == "x x"

    def test_cap_exceeded(self):
        G = get_group("free2")
        g = evaluate(G.alphabet.parse_word("x x x x"), G)
        with pytest.raises(CapExceeded):
            cayley.geodesic_shortlex(g, G, 2)

    def test_words_are_shortlex_least_geodesics(self):
        # compare against brute-force enumeration in Z^2, where geodesics
        # are plentiful
        G = get_group("z2")
        idx = cayley.ball(G, 3)
        for key, d in zip(idx.keys_shortlex, idx.depth.tolist()):
            got = idx.geodesic_word(key)
            assert len(got) == d
            assert G.model.canonical_key(evaluate(got, G)) == key
            for codes in product(range(4), repeat=d):
                w = Word(tuple((c >> 1, 1 if c % 2 == 0 else -1) for c in codes))
                if G.model.canonical_key(evaluate(w, G)) == key:
                    assert shortlex_compare(got, w, G.alphabet) <= 0

    def test_parent_chain_spells_entry_word(self):
        G = get_group("sl2z")
        idx = cayley.ball(G, 4)
        for key, d in zip(idx.keys_shortlex, idx.depth.tolist()):
            w = idx.geodesic_word(key)
            assert G.model.canonical_key(evaluate(w, G)) == key
            assert len(w) == d


class TestMetric:
    def test_identity_norm(self):
        G = get_group("free2")
        assert cayley.word_length_of(G.model.identity, G, 5) == 0

    def test_minus_identity_norm_two(self):
        G = get_group("sl2z")
        minus_i = evaluate(G.alphabet.parse_word("a a"), G)
        assert cayley.word_length_of(minus_i, G, 4) == 2

    def test_z2_l1(self):
        G = get_group("z2")
        g = evaluate(G.alphabet.parse_word("x y"), G)
        assert cayley.word_length_of(g, G, 5) == 2

    def test_distance_self(self):
        G = get_group("free2")
        g = evaluate(G.alphabet.parse_word("x y"), G)
        assert cayley.distance(g, g, G, 3) == 0

    def test_z2_distance(self):
        G = get_group("z2")
        g = evaluate(G.alphabet.parse_word("x x y y y"), G)
        assert cayley.distance(G.model.identity, g, G, 8) == 5

    def test_free_conjugate_distance(self):
        # x^-1 * (y x) is reduced of length 3
        G = get_group("free2")
        x = evaluate(G.alphabet.parse_word("x"), G)
        yx = evaluate(G.alphabet.parse_word("y x"), G)
        assert cayley.distance(x, yx, G, 5) == 3

    def test_cap_returns_none(self):
        G = get_group("free2")
        g = evaluate(G.alphabet.parse_word("x x x x x"), G)
        assert cayley.word_length_of(g, G, 3) is None

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=30, deadline=None)
    def test_left_invariance_in_z(self, k, g, h):
        G = _z_group()
        m = G.model
        pk, pg, ph = (m.power(m.generator(0), v) for v in (k, g, h))
        d1 = cayley.distance(pg, ph, G, 20)
        d2 = cayley.distance(m.multiply(pk, pg), m.multiply(pk, ph), G, 20)
        assert d1 == d2 == abs(g - h)

    @given(st.lists(st.integers(0, 3), max_size=5),
           st.lists(st.integers(0, 3), max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, u, v):
        G = get_group("free2")
        gu = evaluate(Word(tuple((c >> 1, 1 if c % 2 == 0 else -1) for c in u)), G)
        gv = evaluate(Word(tuple((c >> 1, 1 if c % 2 == 0 else -1) for c in v)), G)
        assert cayley.distance(gu, gv, G, 12) == cayley.distance(gv, gu, G, 12)


class TestGrowthSeries:
    def test_free2(self):
        assert cayley.growth_series(get_group("free2"), 3) == [1, 4, 12, 36]

    def test_z(self):
        assert cayley.growth_series(_z_group(), 4) == [1, 2, 2, 2, 2]

    def test_kleinfour(self):
        assert cayley.growth_series(get_group("kleinfour"), 3) == [1, 2, 1, 0]


class TestDeterminism:
    def _csv(self):
        idx = cayley.ball(get_group("sl2z"), 5)
        buf = io.StringIO()
        idx.write_csv(buf)
        return buf.getvalue()

    def test_thread_count_does_not_change_output(self, capsys):
        # --threads is accepted by the CLI and ignored
        expected = self._csv()
        for threads in ("1", "2", "4"):
            assert cli.main(["ball", "--group", "sl2z", "--radius", "5", "--threads", threads]) == 0
            assert capsys.readouterr().out == expected

    def test_repeat_runs_identical(self):
        assert self._csv() == self._csv()


ZOO = ("braid3", "bs12", "free2", "heis3", "kleinfour", "sl2z", "z2")
# (group, radius, word whose key stops enumeration early): every zoo group at
# two radii -- kleinfour is exhausted at radius 5, so its last layer is empty
# and each image equals its inverse; sl2z has edges inside the last
# layer -- plus a ball cut short by _stop
GRAPH_CASES = [(g, r, None) for g in ZOO for r in (2, 5)] + [("sl2z", 6, "a b a")]


def _graph_case(group, radius, stop_word):
    G = get_group(group)
    stop = None if stop_word is None else evaluate(G.alphabet.parse_word(stop_word), G)
    return cayley.ball(G, radius, _stop=stop)


def _reference_csr(idx):
    """Every row's n*m products redone, in letter-code order."""
    G = idx.group
    model = G.model
    rows = []
    for g in idx.elements:
        row = []
        for code in range(2 * len(G.alphabet)):
            h = model.multiply(g, G.letter_images[code])
            j = idx.index.get(model.canonical_key(h))
            if j is not None:
                row.append(j)
        rows.append(row)
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return indptr, np.array([j for row in rows for j in row], dtype=np.int32)


def _reference_table(idx):
    """The n x m neighbour table redone through multiply, -1 outside the ball."""
    G = idx.group
    model = G.model
    m = 2 * len(G.alphabet)
    table = np.full((len(idx), m), -1, dtype=np.int32)
    for v, g in enumerate(idx.elements):
        for code in range(m):
            h = model.multiply(g, G.letter_images[code])
            table[v, code] = idx.index.get(model.canonical_key(h), -1)
    return table


def _reference_prefix_row(idx, key):
    """The vertices of the geodesic word's prefixes, padded with the end."""
    G = idx.group
    word = idx.geodesic_word(key)
    row = [
        idx.index[G.model.canonical_key(evaluate(Word(word.letters[:t]), G))]
        for t in range(len(word) + 1)
    ]
    return row + [row[-1]] * (idx.radius - len(word))


class TestGraphViews:
    @pytest.mark.parametrize("group, radius, stop_word", GRAPH_CASES)
    def test_csr_is_symmetric(self, group, radius, stop_word):
        idx = _graph_case(group, radius, stop_word)
        indptr, nbrs = idx.graph_csr()
        edges = set()
        for i in range(len(idx)):
            for j in nbrs[indptr[i]:indptr[i + 1]]:
                edges.add((i, int(j)))
        assert all((j, i) in edges for i, j in edges)
        ref_indptr, ref_nbrs = _reference_csr(idx)
        assert indptr.tolist() == ref_indptr.tolist()
        assert nbrs.dtype == np.int32
        assert nbrs.tolist() == ref_nbrs.tolist()
        # the closed table is kept: a second call gives the same graph
        again = idx.graph_csr()
        assert again[0].tolist() == indptr.tolist()
        assert again[1].tolist() == nbrs.tolist()

    @pytest.mark.parametrize("group, radius, stop_word", GRAPH_CASES)
    def test_prefix_matrix_pads_endpoint(self, group, radius, stop_word):
        idx = _graph_case(group, radius, stop_word)
        P = idx.prefix_matrix()
        assert P.dtype == np.int32
        assert P.shape == (len(idx), idx.radius + 1)
        for i, (key, d) in enumerate(zip(idx.keys_shortlex, idx.depth.tolist())):
            assert P[i, 0] == 0  # every line starts at the identity
            assert (P[i, d:] == i).all()
            assert P[i].tolist() == _reference_prefix_row(idx, key)

    def test_deep_z_ball(self):
        idx = cayley.ball(_z_group(), 300)
        assert idx.sphere_sizes == [1] + [2] * 300
        # shortlex puts x before x^-1, so the last vertex is x^-300 and the
        # vertex of x^-t is 2t
        assert idx.geodesic_word(idx.keys_shortlex[-1]) == Word(((0, -1),) * 300)
        assert idx.prefix_matrix()[-1].tolist() == list(range(0, 601, 2))

    def test_csv_columns(self):
        idx = cayley.ball(get_group("kleinfour"), 2)
        buf = io.StringIO()
        idx.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "key,distance,witness_word"
        assert len(lines) == 5


def _free2_marked(*words):
    """The free group on x, y marked by the given words (repeats and the
    identity allowed), one letter a, b, c, ... per word."""
    G = get_group("free2")
    names = tuple("abcdefgh"[:len(words)])
    marking = tuple(evaluate(G.alphabet.parse_word(w), G) for w in words)
    return MarkedGroup(model=G.model, alphabet=Alphabet(names), marking=marking)


def _sl2z_with_inverse_letter():
    """sl2z marked by a and a^-1 as two letters: code 1 and code 2 are the
    same image."""
    G = get_group("sl2z")
    a = G.letter_images[0]
    return MarkedGroup(
        model=G.model, alphabet=Alphabet(("a", "A")), marking=(a, G.model.invert(a))
    )


def _count_products(G, monkeypatch):
    """Wrap ``multiply`` of G's model instance, and ``multiply`` of its
    packed batch action's class, if any, in counters; ``calls[0]`` counts
    per-element products and ``calls[1]`` the rows of the batch action's
    left factors."""
    calls = [0, 0]
    multiply = G.model.multiply

    def counted(x, y):
        calls[0] += 1
        return multiply(x, y)

    monkeypatch.setattr(G.model, "multiply", counted)
    batch = G.model.batch_action()
    if batch is not None:
        cls = type(batch)
        batch_multiply = cls.multiply

        def counted_batch(self, A, B):
            calls[1] += len(A)
            return batch_multiply(self, A, B)

        monkeypatch.setattr(cls, "multiply", counted_batch)
    return calls


class TestOneProductPerEdge:
    def test_free2_counts(self, monkeypatch):
        # a tree: a vertex's row holds its parent edge and m - 1 new edges,
        # so only the parent slot is found as a reverse edge.  free2 is
        # packed, so the products are rows passed to the batch action.
        G = get_group("free2")
        calls = _count_products(G, monkeypatch)
        idx = cayley.ball(G, 6)
        m = 4
        inner = len(idx) - idx.sphere_sizes[-1]  # |B(5)|
        assert calls[1] == m + (inner - 1) * (m - 1) == 1456
        idx.graph_csr()
        assert calls[1] - 1456 == (m - 1) * idx.sphere_sizes[-1] == 2916
        assert calls[0] == 0

    # every zoo ball is packed; a braid config runs element by element
    @pytest.mark.parametrize("group", ZOO + ("braid_config",))
    def test_one_call_per_reverse_slot_pair(self, group, monkeypatch):
        G = (group_from_config({"kind": "braid", "strands": 3}) if group == "braid_config"
             else get_group(group))
        calls = _count_products(G, monkeypatch)
        idx = cayley.ball(G, 5)
        table = idx._neighbour_table()
        if G.model.batch_action() is None:
            # slot (v, c) = w >= 0 and slot (w, c ^ 1) = v are one product;
            # a slot leaving the ball has no partner
            inside = int((table >= 0).sum())
            assert inside % 2 == 0
            assert calls[0] == inside // 2 + int((table < 0).sum())
            assert calls[1] == 0
        else:
            # a packed layer passes the batch action one row per slot still
            # open at the layer's start: every slot except those towards the
            # layer before, which that layer's expansion filled
            depth = idx.depth.astype(np.int64)
            target_depth = np.where(table >= 0, depth[table], -3)
            open_at_start = target_depth != depth[:, None] - 1
            assert calls[0] == 0
            assert calls[1] == int(open_at_start.sum())


DEGENERATE_MARKINGS = {
    "repeated_letter": (lambda: _free2_marked("x", "y", "x"), 4),
    "identity_letter": (lambda: _free2_marked("x", "", "y"), 4),
    "inverse_letter": (_sl2z_with_inverse_letter, 5),
    # self-inverse letters, and a last layer that is not exhausted
    "kleinfour_open": (lambda: get_group("kleinfour"), 1),
}


class TestClosedTable:
    @pytest.mark.parametrize("case", sorted(DEGENERATE_MARKINGS))
    def test_degenerate_markings(self, case):
        make, radius = DEGENERATE_MARKINGS[case]
        idx = cayley.ball(make(), radius)
        assert idx._neighbour_table().tolist() == _reference_table(idx).tolist()

    def test_close_without_a_proof_runs_on_python_ints(self):
        # a's image has an entry of 2^62 - 1: layer 1 is packed, and closing
        # it multiplies rows with that entry by a, which has no int64 proof
        G = group_from_config({
            "kind": "matrix", "dim": 2, "alphabet": ["a", "b"],
            "marking": {"a": [["1", str(2 ** 62 - 1)], ["0", "1"]], "b": [["1", "0"], ["1", "1"]]},
        })
        idx = cayley.ball(G, 1)
        assert isinstance(idx._layers, cayley._PackedLayers)
        table = idx._neighbour_table()
        assert isinstance(idx._layers, cayley._ElementLayers)
        assert table.tolist() == _reference_table(idx).tolist()
        assert (table[1:] == -1).any()

    def test_stop_key_ball_reused_by_bicombing(self):
        idx = _graph_case("sl2z", 6, "a b a")
        G = idx.group
        assert idx.radius == 3
        sigma = combing.shortlex_bicombing(G, idx.radius, index=idx)
        assert sigma.index is idx
        report = combing.check_bounded(sigma, G, idx.radius)
        assert idx._neighbour_table().tolist() == _reference_table(idx).tolist()
        fresh = combing.shortlex_bicombing(G, idx.radius)
        again = combing.check_bounded(fresh, G, idx.radius)
        assert (report.k2, report.witnesses) == (again.k2, again.witnesses)
