"""Layer-at-a-time ball enumeration against the per-element reference.

``_reference_ball`` is the enumeration loop the library ran before packed
batch actions: one product by a letter image, one canonical key and one
dict lookup per open slot, over Python integers, with the reverse slot
filled at once, and the last layer closed the same way.  Every ball,
packed or not, must equal it field by field.  The packed products by an
arbitrary element, on either side, must equal ``multiply`` row by row.
"""

import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupgeo import cayley
from groupgeo._packed import INT64_MAX, DyadicBatch, FreeBatch, MatrixBatch
from groupgeo.errors import CapExceeded, MemoryCapExceeded
from groupgeo.experiments import get_group, group_from_config
from groupgeo.groups import DyadicAffineGroup, FreeGroupModel, IntegerMatrixGroup, MarkedGroup, evaluate
from groupgeo.words import Alphabet

_UNKNOWN = -2
ZOO = ("braid3", "bs12", "free2", "heis3", "kleinfour", "sl2z", "z2")
PACKED = ("bs12", "heis3", "sl2z")


def _reference_ball(G, n, max_elements=cayley.DEFAULT_MAX_ELEMENTS, stop_key=None):
    model = G.model
    multiply, canonical_key, images = model.multiply, model.canonical_key, G.letter_images
    ident = model.identity
    keys = [canonical_key(ident)]
    elements = [ident]
    index = {keys[0]: 0}
    get = index.get
    parent = array("i", [-1])
    letter = array("b", [-1])
    m = len(images)
    blank = array("i", [_UNKNOWN]) * m
    nbr = blank[:]
    sphere_sizes = [1]
    size = 1
    layer_start = 0
    for r in range(1, n + 1):
        if stop_key is not None and stop_key in index:
            break
        layer_end = size
        for v in range(layer_start, layer_end):
            g = elements[v]
            row = v * m
            for code, y in enumerate(images):
                if nbr[row + code] != _UNKNOWN:
                    continue
                h = multiply(g, y)
                hk = canonical_key(h)
                j = get(hk)
                if j is None:
                    if size >= max_elements:
                        raise MemoryCapExceeded(max_elements, r)
                    j = size
                    size += 1
                    index[hk] = j
                    keys.append(hk)
                    elements.append(h)
                    parent.append(v)
                    letter.append(code)
                    nbr += blank
                nbr[row + code] = j
                nbr[j * m + (code ^ 1)] = v
        sphere_sizes.append(size - layer_end)
        layer_start = layer_end
        if size == layer_end:
            sphere_sizes.extend([0] * (n - r))
            break
    # the last-layer close
    for v in range(layer_start, size):
        g = elements[v]
        row = v * m
        for code, y in enumerate(images):
            if nbr[row + code] == _UNKNOWN:
                w = get(canonical_key(multiply(g, y)), -1)
                nbr[row + code] = w
                if w >= 0:
                    nbr[w * m + (code ^ 1)] = v
    radius = len(sphere_sizes) - 1
    return {
        "radius": radius,
        "sphere_sizes": sphere_sizes,
        "keys": keys,
        "elements": elements,
        "parent": list(parent),
        "letter": list(letter),
        "depth": [d for d, s in enumerate(sphere_sizes) for _ in range(s)],
        "table": np.frombuffer(nbr, dtype=np.int32).reshape(-1, m).tolist(),
    }


def _assert_same_ball(G, radius, stop=None):
    stop_key = None if stop is None else G.model.canonical_key(stop)
    ref = _reference_ball(G, radius, stop_key=stop_key)
    idx = cayley.ball(G, radius, _stop=stop)
    assert idx.radius == ref["radius"]
    assert idx.sphere_sizes == ref["sphere_sizes"]
    assert idx.parent.tolist() == ref["parent"]
    assert idx.letter.tolist() == ref["letter"]
    assert idx.depth.tolist() == ref["depth"]
    assert idx.keys_shortlex == ref["keys"]
    assert idx.elements == ref["elements"]
    assert idx._neighbour_table().tolist() == ref["table"]
    return idx, ref


def _matrix(dim, *gens):
    names = "abcdefgh"[:len(gens)]
    return group_from_config({
        "kind": "matrix", "dim": dim, "alphabet": list(names),
        "marking": {n: [[str(v) for v in row] for row in g] for n, g in zip(names, gens)},
    })


def _free_marked(*words):
    """The free group on x, y marked by these words (repeats and the empty
    word allowed), one letter a, b, c, ... per word."""
    G = get_group("free2")
    names = tuple("abcdefgh"[:len(words)])
    marking = tuple(evaluate(G.alphabet.parse_word(w), G) for w in words)
    return MarkedGroup(model=G.model, alphabet=Alphabet(names), marking=marking)


def _dyadic(*triples):
    names = "abcdefgh"[:len(triples)]
    return group_from_config({
        "kind": "dyadic_affine", "alphabet": list(names),
        "marking": {n: [str(v) for v in t] for n, t in zip(names, triples)},
    })


def _s3_table():
    """S3 as a multiplication table, marked by a transposition and a
    3-cycle: not abelian, and the 3-cycle is not its own inverse."""
    perms = [(0, 1, 2), (1, 0, 2), (1, 2, 0), (0, 2, 1), (2, 1, 0), (2, 0, 1)]
    table = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    return group_from_config({
        "kind": "table", "names": [str(p) for p in perms], "table": table,
        "alphabet": ["s", "c"], "marking": {"s": str(perms[1]), "c": str(perms[2])},
    })


def _product(*factors):
    return group_from_config({"kind": "product", "factors": list(factors)})


CONFIGS = {
    # an Anosov matrix and an elementary one
    "matrix2": (lambda: _matrix(2, [[2, 1], [1, 1]], [[1, 1], [0, 1]]), 6),
    # a 3-cycle, an elementary matrix and a sign change
    "matrix3": (lambda: _matrix(
        3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]]), 4),
    "matrix4": (lambda: _matrix(
        4, [[1, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), 5),
    # a finite group: the order-4 rotation exhausts at radius 2
    "matrix_finite": (lambda: _matrix(2, [[0, -1], [1, 0]]), 4),
    # a letter image with an entry past int64: no layer has a proof
    "matrix_past_int64": (lambda: _matrix(2, [[1, 2 ** 64], [0, 1]], [[1, 0], [1, 1]]), 4),
    "dyadic_x3_4x": (lambda: _dyadic((0, 3, 0), (2, 0, 0)), 7),
    "dyadic_half": (lambda: _dyadic((0, 1, 1), (1, 0, 0), (1, 1, 0)), 5),
    "dyadic_negative_k": (lambda: _dyadic((-1, 1, 0), (0, 1, 2)), 6),
    "dyadic_past_int64": (lambda: _dyadic((0, 2 ** 64 + 1, 0), (1, 0, 0)), 4),
    # free groups on their standard markings, 1, 2 and 3 bits per code
    "free1": (lambda: group_from_config({"kind": "free", "alphabet": ["x"]}), 12),
    "free2": (lambda: group_from_config({"kind": "free", "alphabet": ["x", "y"]}), 6),
    "free3": (lambda: group_from_config({"kind": "free", "alphabet": ["x", "y", "z"]}), 4),
    # free markings by longer words, a repeated letter and an identity letter
    "free_x2_xy": (lambda: _free_marked("x x", "x y"), 7),
    "free_xyX_y": (lambda: _free_marked("x y x^-1", "y"), 6),
    "free_x3_y2": (lambda: _free_marked("x x x", "y y"), 6),
    "free_x_x": (lambda: _free_marked("x", "x"), 7),
    "free_1_x": (lambda: _free_marked("", "x"), 7),
    # 20 bits per letter: layer 4 has no int64 proof and runs on tuples
    "free_x10_y10": (lambda: _free_marked(" ".join(["x"] * 10), " ".join(["y"] * 10)), 4),
    "table_s3": (_s3_table, 4),
    # a's image has an entry of 2^62 - 1: layer 2 has no int64 proof
    "matrix_near_2_62": (lambda: _matrix(2, [[1, 2 ** 62 - 1], [0, 1]], [[1, 0], [1, 1]]), 4),
    # free x matrix: packed as the factor rows side by side
    "product": (lambda: _product({"kind": "free", "alphabet": ["x"]}, {
        "kind": "matrix", "dim": 2, "alphabet": ["a"], "marking": {"a": [["1", "2"], ["0", "1"]]},
    }), 5),
    # free x matrix_near_2_62: falls back at layer 2, as the matrix factor does
    "product_past_int64": (lambda: _product({"kind": "free", "alphabet": ["x"]}, {
        "kind": "matrix", "dim": 2, "alphabet": ["a", "b"],
        "marking": {"a": [["1", str(2 ** 62 - 1)], ["0", "1"]], "b": [["1", "0"], ["1", "1"]]},
    }), 4),
    # a braid factor has no batch action, so neither has the product
    "product_braid": (lambda: _product(
        {"kind": "free", "alphabet": ["x"]}, {"kind": "braid", "strands": 3},
    ), 4),
}


class TestAgainstReference:
    @pytest.mark.parametrize("radius", [0, 1, 4, 7])
    @pytest.mark.parametrize("group", ZOO)
    def test_zoo(self, group, radius):
        _assert_same_ball(get_group(group), radius)

    @pytest.mark.parametrize("case", sorted(CONFIGS))
    def test_configs(self, case):
        make, radius = CONFIGS[case]
        _assert_same_ball(make(), radius)

    def test_configs_cover_both_paths(self):
        packed = {c for c, (make, _) in CONFIGS.items() if make().model.batch_action() is not None}
        assert packed == set(CONFIGS) - {"product_braid"}
        fallen = {
            c for c in packed
            if isinstance(cayley.ball(CONFIGS[c][0](), CONFIGS[c][1])._layers, cayley._ElementLayers)
        }
        assert fallen == {
            "matrix_past_int64", "matrix_near_2_62", "dyadic_past_int64", "free_x10_y10",
            "product_past_int64",
        }

    def test_product_of_no_factors_is_trivial(self):
        G = _product()
        assert G.model.batch_action() is None
        assert cayley.ball(G, 3).sphere_sizes == [1, 0, 0, 0]

    def test_product_falls_back_at_its_factor_layer(self, monkeypatch):
        # the first layer expanded element by element
        first = []
        expand = cayley._ElementLayers.expand

        def spy(self, r, max_elements):
            first.append(r)
            return expand(self, r, max_elements)

        monkeypatch.setattr(cayley._ElementLayers, "expand", spy)
        for case in ("matrix_near_2_62", "product_past_int64"):
            first.clear()
            make, radius = CONFIGS[case]
            idx, _ = _assert_same_ball(make(), radius)
            assert first[0] == 2
            assert isinstance(idx._layers, cayley._ElementLayers)

    def test_an_element_layer_overflow_reaches_the_caller(self, monkeypatch):
        # Python-int arithmetic can raise OverflowError too (a shift past
        # sys.maxsize): on a ball held element by element from the start,
        # or since a packed layer fell back, it is no missing int64 proof
        expand = cayley._ElementLayers.expand

        def overflow_at_3(self, r, max_elements):
            if r == 3:
                raise OverflowError("shift past sys.maxsize")
            return expand(self, r, max_elements)

        monkeypatch.setattr(cayley._ElementLayers, "expand", overflow_at_3)
        for case in ("product_braid", "matrix_near_2_62"):
            make, radius = CONFIGS[case]
            with pytest.raises(OverflowError, match="sys.maxsize"):
                cayley.ball(make(), radius)

    @pytest.mark.parametrize("group, word", [
        ("heis3", "a b a"), ("bs12", "t a t^-1"), ("sl2z", "a b a"), ("free2", "x y"),
    ])
    def test_stop_key(self, group, word):
        G = get_group(group)
        idx, ref = _assert_same_ball(G, 8, stop=evaluate(G.alphabet.parse_word(word), G))
        assert idx.radius < 8


class TestClosedForms:
    def test_z2_spheres(self):
        assert cayley.ball(get_group("z2"), 12).sphere_sizes == [1] + [4 * r for r in range(1, 13)]

    def test_free2_spheres(self):
        assert cayley.ball(get_group("free2"), 7).sphere_sizes == [1] + [
            4 * 3 ** (r - 1) for r in range(1, 8)
        ]


def _count_batch_rows(G, monkeypatch):
    """Wrap ``multiply`` of G's batch action class; the list holds the rows
    of its left factors so far."""
    rows = [0]
    cls = type(G.model.batch_action())
    multiply = cls.multiply

    def counted(self, A, B):
        rows[0] += len(A)
        return multiply(self, A, B)

    monkeypatch.setattr(cls, "multiply", counted)
    return rows


def _reference_word(ref, v):
    codes = []
    while v:
        codes.append(ref["letter"][v])
        v = ref["parent"][v]
    return [(c >> 1, 1 if c % 2 == 0 else -1) for c in reversed(codes)]


class TestInt64Boundary:
    def test_matrix_entries_near_2_62(self, monkeypatch):
        # a's image has an entry of 2^62 - 1: layer 1 is packed, and the
        # products of layer 2 have no int64 proof, so they run on Python ints
        G = CONFIGS["matrix_near_2_62"][0]()
        rows = _count_batch_rows(G, monkeypatch)
        idx, _ = _assert_same_ball(G, 4)
        assert rows[0] > 0
        assert max(abs(v) for g in idx.elements for row in g for v in row) > INT64_MAX

    @pytest.mark.parametrize("marking", [
        ((0, 2 ** 61 + 1, 0), (1, 0, 0)),  # num grows past 2^63
        ((0, 1, 60), (1, 0, 0)),           # exp grows past 62
    ])
    def test_dyadic_num_and_exp_grow(self, marking, monkeypatch):
        G = _dyadic(*marking)
        rows = _count_batch_rows(G, monkeypatch)
        idx, _ = _assert_same_ball(G, 5)
        assert rows[0] > 0
        assert any(abs(num) > INT64_MAX or exp > 62 for _, num, exp in idx.elements)

    def test_elementary_bound_is_2M(self):
        batch = MatrixBatch(2)
        y = batch.pack(((1, 1), (0, 1)))
        top = 2 ** 62 - 1
        rows = np.array([[top, top, -top, 5]], dtype=np.int64)
        assert batch.multiply(rows, y).tolist() == [[top, 2 * top, -top, 5 - top]]
        rows[0, 2] = -(2 ** 62)  # M = 2^62: 2M is past int64
        with pytest.raises(OverflowError):
            batch.multiply(rows, y)
        # at d = 3 the matmul bound 3M is past int64 but the column
        # operation's 2M is not: multiply picks the column operation for one
        # elementary row on the right, and a matmul, which has no proof,
        # for the same row on the left
        y3 = MatrixBatch(3).pack(((1, 0, 0), (0, 1, 0), (-1, 0, 1)))  # column 0 minus column 2
        rows3 = np.array([[top, 0, 0, 0, top, 0, top, 0, top]], dtype=np.int64)
        assert MatrixBatch(3).multiply(rows3, y3).tolist() == [[top, 0, 0, 0, top, 0, 0, 0, top]]
        with pytest.raises(OverflowError):
            MatrixBatch(3).multiply(y3, rows3)

    def test_matmul_bound_is_d_M_max_y(self):
        batch = MatrixBatch(2)
        y = batch.pack(((2, 3), (1, 2)))
        M = INT64_MAX // 6  # d * M * max|y| = 6M
        rows = np.array([[M, -M, M, M]], dtype=np.int64)
        assert batch.multiply(rows, y).tolist() == [[2 * M - M, 3 * M - 2 * M, 3 * M, 5 * M]]
        with pytest.raises(OverflowError):
            batch.multiply(rows + np.array([[1, 0, 0, 0]]), y)

    def test_dyadic_bound(self):
        batch = DyadicBatch()
        rows = np.array([[0, 2 ** 61, 0]], dtype=np.int64)
        assert batch.multiply(rows, batch.pack((0, INT64_MAX - 2 ** 61, 0))).tolist() == [[0, INT64_MAX, 0]]
        with pytest.raises(OverflowError):  # 2^61 + 3 * 2^61 = 2^63
            batch.multiply(rows, batch.pack((0, 3 * 2 ** 61, 0)))

    def test_free_rows_up_to_63_bits(self):
        # rank 2 takes 2 bits per code: a word of length 30 is 61 bits and
        # acts, one of length 31 is 63 bits and has no proof
        model = FreeGroupModel(2)
        batch = FreeBatch(2)
        w30, w31 = (0, 2) * 15, (0, 2) * 15 + (0,)
        rows30, rows31 = batch.pack(w30), batch.pack(w31)
        assert (int(rows30[0, 0]).bit_length(), int(rows31[0, 0]).bit_length()) == (61, 63)
        for code in range(4):
            y = (code,)
            Y = batch.pack(y)
            assert batch.unpack(batch.multiply(rows30, Y)) == [model.multiply(w30, y)]
            assert batch.unpack(batch.multiply(Y, rows30)) == [model.multiply(y, w30)]
            # no proof even where the product would cancel a code
            with pytest.raises(OverflowError):
                batch.multiply(rows31, Y)
            with pytest.raises(OverflowError):
                batch.multiply(Y, rows31)
        # a word of 32 codes has 65 bits and no row
        with pytest.raises(OverflowError):
            batch.pack(w31 + (2,))
        assert batch.unpack(np.concatenate((rows30, rows31))) == [w30, w31]

    def test_free_words_past_63_bits_run_on_tuples(self, monkeypatch):
        # rank 2^30 takes 31 bits per code: layers 1 and 2 are packed, the
        # products of layer 2 have no proof
        model = FreeGroupModel(2 ** 30)
        G = MarkedGroup(
            model=model, alphabet=Alphabet(("a", "b")),
            marking=(model.generator(0), model.generator(2 ** 30 - 1)),
        )
        rows = _count_batch_rows(G, monkeypatch)
        idx, _ = _assert_same_ball(G, 4)
        assert rows[0] > 0
        assert isinstance(idx._layers, cayley._ElementLayers)

    def test_free_images_of_any_length_are_packed(self):
        # longer words, the identity and a repeated letter
        for words in [("x", "x y"), ("x", ""), ("x", "x")]:
            idx = cayley.ball(_free_marked(*words), 3)
            assert isinstance(idx._layers, cayley._PackedLayers)

    def test_dyadic_normalises_exactly(self):
        G = get_group("bs12")
        batch = G.model.batch_action()
        model = G.model
        xs = [model.element(k, num, exp) for k in (-3, 0, 2)
              for num in (-12, -1, 0, 1, 6, 40) for exp in (0, 1, 3)]
        rows = np.array(xs, dtype=np.int64)
        for y in G.letter_images:
            assert batch.unpack(batch.multiply(rows, batch.pack(y))) == [model.multiply(x, y) for x in xs]
        assert batch.unpack(batch.invert(rows)) == [model.invert(x) for x in xs]


class TestCaps:
    @pytest.mark.parametrize("group", PACKED)
    def test_cap_fires_before_the_layer_is_stored(self, group):
        G = get_group(group)
        n = len(cayley.ball(G, 4))
        layers = cayley._PackedLayers.start(G)
        for r in range(1, 4):
            layers.expand(r, n)
        before = (layers.size, layers.lo, len(layers.rows), layers.tables[-1].tolist())
        with pytest.raises(MemoryCapExceeded) as exc:
            layers.expand(4, n - 1)
        assert (exc.value.cap, exc.value.radius) == (n - 1, 4)
        assert (layers.size, layers.lo, len(layers.rows), layers.tables[-1].tolist()) == before
        with pytest.raises(MemoryCapExceeded) as exc:
            cayley.ball(G, 4, max_elements=n - 1)
        assert (exc.value.cap, exc.value.radius) == (n - 1, 4)

    @pytest.mark.parametrize("group", PACKED)
    def test_stop_key_stops_at_the_reference_layer(self, group, monkeypatch):
        G = get_group(group)
        ref = _reference_ball(G, 5)
        radii = []
        real_ball = cayley.ball

        def spy(*args, **kwargs):
            idx = real_ball(*args, **kwargs)
            radii.append(idx.radius)
            return idx

        monkeypatch.setattr(cayley, "ball", spy)
        n = len(ref["elements"])
        for v in (0, 1, n // 7, n // 2, n - 1):
            g = ref["elements"][v]
            stop = _reference_ball(G, 5, stop_key=ref["keys"][v])["radius"]
            assert cayley.word_length_of(g, G, 5) == ref["depth"][v]
            assert radii[-1] == stop
            word = cayley.geodesic_shortlex(g, G, 5)
            assert list(word.letters) == _reference_word(ref, v)
            assert radii[-1] == stop

    @pytest.mark.parametrize("group", PACKED)
    def test_stop_key_search_keys_each_element_once(self, group, monkeypatch):
        # a packed search compares its element's row with each layer's rows:
        # it keys and decodes nothing, the search past the cap included
        G = get_group(group)
        ref = _reference_ball(G, 5)
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(G.model, "canonical_key", counted(G.model.canonical_key))
        batch_cls = type(G.model.batch_action())
        monkeypatch.setattr(batch_cls, "unpack", counted(batch_cls.unpack))
        n = len(ref["elements"])
        for v in (0, 1, n // 7, n // 2, n - 1):
            g = ref["elements"][v]
            assert cayley.ball(G, 5, _stop=g).stop_vertex == v
            assert cayley.word_length_of(g, G, 5) == ref["depth"][v]
            assert list(cayley.geodesic_shortlex(g, G, 5).letters) == _reference_word(ref, v)
        # an element beyond the cap: every layer of the radius-2 ball, once
        assert cayley.word_length_of(ref["elements"][n - 1], G, 2) is None
        assert calls == []

    @pytest.mark.parametrize("group, element", [
        ("bs12", (0, 2 ** 64 + 1, 0)),
        ("heis3", ((1, 2 ** 64, 0), (0, 1, 0), (0, 0, 1))),
        ("sl2z", ((1, 2 ** 64), (0, 1))),
    ])
    def test_stop_element_past_int64_is_not_in_a_packed_ball(self, group, element):
        G = get_group(group)
        with pytest.raises(OverflowError):
            G.model.batch_action().pack(element)
        idx = cayley.ball(G, 3, _stop=element)
        assert isinstance(idx._layers, cayley._PackedLayers)
        assert (idx.radius, idx.stop_vertex) == (3, None)
        assert cayley.word_length_of(element, G, 3) is None
        with pytest.raises(CapExceeded):
            cayley.geodesic_shortlex(element, G, 3)

    @pytest.mark.parametrize("case", ["matrix_past_int64", "free_x10_y10"])
    def test_stop_search_on_the_fallen_back_ball(self, case):
        # matrix_past_int64 runs element by element from layer 1,
        # free_x10_y10 from layer 4: every element is found where it lies
        make, radius = CONFIGS[case]
        G = make()
        ref = _reference_ball(G, radius)
        for v, g in enumerate(ref["elements"]):
            idx = cayley.ball(G, radius, _stop=g)
            assert idx.stop_vertex == v
            assert idx.radius == ref["depth"][v]
            assert cayley.word_length_of(g, G, radius) == ref["depth"][v]
        assert isinstance(cayley.ball(G, radius, _stop=g)._layers, cayley._ElementLayers)

    def test_stop_key_heis3_length_six(self, monkeypatch):
        G = get_group("heis3")
        g = evaluate(G.alphabet.parse_word("a a b b a^-1 b"), G)
        calls = [0]
        key = G.model.canonical_key

        def counted(x):
            calls[0] += 1
            return key(x)

        monkeypatch.setattr(G.model, "canonical_key", counted)
        assert cayley.word_length_of(g, G, 8) == 6
        # the search compares rows and keys no element
        assert calls[0] == 0


def _unimodular(dim, ops):
    """The product of elementary matrices I + c e_ij, one per (i, j, c)."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for i, j, c in ops:
        i, j = i % dim, j % dim
        if i != j:
            for row in m:
                row[j] += c * row[i]
    return m


_ops = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)), max_size=4)


class TestRandomMarkings:
    @given(st.integers(2, 3), st.lists(_ops, min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_matrix(self, dim, gens):
        _assert_same_ball(_matrix(dim, *(_unimodular(dim, ops) for ops in gens)), 3)

    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-5, 5), st.integers(0, 3)),
                    min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_dyadic(self, triples):
        _assert_same_ball(_dyadic(*triples), 3)


def _random_free_word(rng, rank, length):
    w = ()
    while len(w) < length:
        c = rng.randrange(2 * rank)
        w = w[:-1] if w and w[-1] == c ^ 1 else w + (c,)
    return w


def _sample_elements(G, rng, count, radius):
    """Elements of G as products of up to ``radius`` random letters."""
    multiply, images = G.model.multiply, G.letter_images
    out = []
    for _ in range(count):
        g = G.model.identity
        for _ in range(rng.randrange(radius + 1)):
            g = multiply(g, images[rng.randrange(len(images))])
        out.append(g)
    return out


class TestRowProducts:
    """The packed product of rows by one arbitrary element on either side,
    and of rows by rows pairwise, and the packed inverse equal the model's
    ``multiply`` and ``invert`` row by row, and raise OverflowError without
    a proof."""

    @staticmethod
    def _check(G, xs, ys):
        batch, model = G.model.batch_action(), G.model
        rows = np.concatenate([batch.pack(x) for x in xs])
        multiply = model.multiply
        for y in ys:
            Y = batch.pack(y)
            assert batch.unpack(batch.multiply(rows, Y)) == [multiply(x, y) for x in xs]
            assert batch.unpack(batch.multiply(Y, rows)) == [multiply(y, x) for x in xs]
        # row i of xs by row i of the ys, cycled
        pairs = [ys[i % len(ys)] for i in range(len(xs))]
        B = np.concatenate([batch.pack(y) for y in pairs])
        assert batch.unpack(batch.multiply(rows, B)) == [multiply(x, y) for x, y in zip(xs, pairs)]
        assert batch.unpack(batch.multiply(B, rows)) == [multiply(y, x) for x, y in zip(xs, pairs)]
        assert batch.unpack(batch.invert(rows)) == [model.invert(x) for x in xs]

    @pytest.mark.parametrize("group", ["bs12", "heis3", "kleinfour", "sl2z", "z2"])
    def test_zoo(self, group):
        G = get_group(group)
        rng = random.Random(group)
        self._check(G, _sample_elements(G, rng, 60, 8), _sample_elements(G, rng, 12, 8))

    @pytest.mark.parametrize("case", [
        "matrix3", "matrix4", "dyadic_half", "dyadic_negative_k", "product", "table_s3",
    ])
    def test_configs(self, case):
        G = CONFIGS[case][0]()
        rng = random.Random(case)
        self._check(G, _sample_elements(G, rng, 40, 6), _sample_elements(G, rng, 10, 6))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_free(self, rank):
        G = group_from_config({"kind": "free", "alphabet": ["x", "y", "z"][:rank]})
        rng = random.Random(rank)
        xs = [_random_free_word(rng, rank, rng.randrange(12)) for _ in range(80)]
        # y cancels all of some rows, part of others, and none of the rest
        ys = [(), xs[1], G.model.invert(xs[2]), G.model.invert(xs[3])[:2]]
        ys += [_random_free_word(rng, rank, rng.randrange(8)) for _ in range(10)]
        self._check(G, xs, ys)

    def test_free_unpack_round_trip(self):
        # more rows of one length than one decode block, in length order
        # and shuffled
        batch = FreeBatch(2)
        rng = random.Random(5)
        xs = sorted(
            (_random_free_word(rng, 2, n) for n in [9] * 9000 + [3] * 50 + [0]), key=len
        )
        rows = np.concatenate([batch.pack(x) for x in xs])
        assert batch.unpack(rows) == xs
        perm = list(range(len(xs)))
        rng.shuffle(perm)
        assert batch.unpack(rows[perm]) == [xs[i] for i in perm]

    def test_matrix_bound_is_d_M_max_y(self):
        G = get_group("sl2z")
        batch = G.model.batch_action()
        M = INT64_MAX // 6  # d * M * max|y| = 6M
        rows = np.array([[M, 0, 0, 1]], dtype=np.int64)
        y = batch.pack(((2, 3), (1, 2)))
        assert batch.multiply(rows, y).tolist() == [[2 * M, 3 * M, 1, 2]]
        assert batch.multiply(y, rows).tolist() == [[2 * M, 3, M, 2]]
        rows[0, 0] += 1
        with pytest.raises(OverflowError):
            batch.multiply(rows, y)
        with pytest.raises(OverflowError):
            batch.multiply(y, rows)
        # an element with an entry past int64 has no row, and one with an
        # entry of -2^63 has a row but no proof on any rows
        with pytest.raises(OverflowError):
            batch.pack(((1, 2 ** 63), (0, 1)))
        edge = batch.pack(((1, -(2 ** 63)), (0, 1)))
        ones = rows * 0 + 1
        with pytest.raises(OverflowError):
            batch.multiply(ones, edge)
        with pytest.raises(OverflowError):
            batch.multiply(edge, ones)
        with pytest.raises(OverflowError):
            batch.invert(edge)

    def test_matrix_inverse_bound_is_d_factorial_M_to_the_d(self):
        # 2 * M^2 bounds the 2 x 2 adjugate's determinant: M = 2^31 - 1
        # fits, M = 2^31 does not
        batch, model = MatrixBatch(2), IntegerMatrixGroup(2)
        x = model.element(((1, 2 ** 31 - 1), (0, -1)))
        assert batch.unpack(batch.invert(batch.pack(x))) == [model.invert(x)]
        with pytest.raises(OverflowError):
            batch.invert(batch.pack(model.element(((1, 2 ** 31), (0, -1)))))

    def test_dyadic_bound(self):
        G = get_group("bs12")
        batch, model = G.model.batch_action(), G.model
        x = (0, 2 ** 61, 0)
        rows = np.array([x], dtype=np.int64)
        fits, past = (0, INT64_MAX - 2 ** 61, 0), (0, 3 * 2 ** 61, 0)
        assert batch.unpack(batch.multiply(rows, batch.pack(fits))) == [model.multiply(x, fits)]
        assert batch.unpack(batch.multiply(batch.pack(fits), rows)) == [model.multiply(fits, x)]
        with pytest.raises(OverflowError):  # 2^61 + 3 * 2^61 = 2^63
            batch.multiply(rows, batch.pack(past))
        with pytest.raises(OverflowError):
            batch.multiply(batch.pack(past), rows)
        # y = 2^k x + 1 with k = 2^63 - 1: x * y only adds k, but y * x
        # shifts x's num by k, and k + k is past int64
        huge = batch.pack((INT64_MAX, 1, 0))
        assert batch.unpack(batch.multiply(rows, huge)) == [model.multiply(x, (INT64_MAX, 1, 0))]
        with pytest.raises(OverflowError):
            batch.multiply(huge, rows)
        with pytest.raises(OverflowError):
            batch.multiply(huge, huge)

    def test_dyadic_inverse_bound(self):
        # x = 2^-62 v + n has the inverse 2^62 v - n 2^62: n = 1 fits, and
        # n = 2 reaches -2^63, past the proof's bound; x = 2^-k v + 1 with k past 62 shifts by k
        batch, model = DyadicBatch(), DyadicAffineGroup()
        x = (-62, 1, 0)
        assert batch.unpack(batch.invert(batch.pack(x))) == [model.invert(x)] == [(62, -(2 ** 62), 0)]
        for past in ((-62, 2, 0), (-(2 ** 62), 1, 0), (0, -(2 ** 63), 0)):
            with pytest.raises(OverflowError):
                batch.invert(batch.pack(past))



# entries that stay far inside int64, and entries anywhere in it
_small = st.integers(-3, 3)
_edge = st.one_of(_small, st.integers(-(2 ** 63), 2 ** 63 - 1),
                  st.sampled_from([2 ** 31, 2 ** 62 - 1, -(2 ** 62), 2 ** 63 - 1, -(2 ** 63)]))


def _assert_products_agree(batch, model, xs, ys, small):
    """multiply on rows, pairwise and broadcast both ways, and invert equal
    the model's products and inverses of the decoded elements, or raise
    OverflowError; never raise when ``small`` holds.  Elements that have no
    row are left out."""

    def proved(op, *args):
        """op(*args), or None where it raises for want of an int64 proof."""
        try:
            return op(*args)
        except OverflowError:
            return None

    xs = [x for x in xs if proved(batch.pack, x) is not None]
    ys = [y for y in ys if proved(batch.pack, y) is not None][:len(xs)]
    if not ys:
        return
    xs = xs[:len(ys)]
    A = np.concatenate([batch.pack(x) for x in xs])
    B = np.concatenate([batch.pack(y) for y in ys])
    cases = [
        (A, B, [model.multiply(x, y) for x, y in zip(xs, ys)]),
        (A, B[:1], [model.multiply(x, ys[0]) for x in xs]),
        (A[:1], B, [model.multiply(xs[0], y) for y in ys]),
        (B, A[-1:], [model.multiply(y, xs[-1]) for y in ys]),
    ]
    for P, Q, want in cases:
        out = proved(batch.multiply, P, Q)
        assert (out is None and not small) or batch.unpack(out) == want
    inverse = proved(batch.invert, A)
    assert (inverse is None and not small) or batch.unpack(inverse) == [model.invert(x) for x in xs]


class TestRowProductProperties:
    """Random elements, some with entries at the int64 edge."""

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matrix(self, dim, data):
        model = IntegerMatrixGroup(dim)
        small = data.draw(st.booleans())
        entries = _small if small else _edge

        def element():
            # a signed unipotent matrix times a small unimodular one
            m = [[int(i == j) for j in range(dim)] for i in range(dim)]
            for i in range(dim):
                for j in range(i + 1, dim):
                    m[i][j] = data.draw(entries)
            m[0] = [-v for v in m[0]] if data.draw(st.booleans()) else m[0]
            ops = data.draw(_ops) if small else []
            return model.multiply(model.element(m), model.element(_unimodular(dim, ops)))

        xs = [element() for _ in range(data.draw(st.integers(1, 6)))]
        ys = [element() for _ in range(len(xs))]
        _assert_products_agree(MatrixBatch(dim), model, xs, ys, small)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_dyadic(self, data):
        model = DyadicAffineGroup()
        small = data.draw(st.booleans())
        # the model shifts by up to |k| + exp bits, so those stay below 80
        # and reach past int64 only through num
        ks = st.integers(-6, 6) if small else st.integers(-80, 80)
        nums = st.integers(-40, 40) if small else _edge
        exps = st.integers(0, 6) if small else st.integers(0, 80)

        def element():
            return model.element(data.draw(ks), data.draw(nums), data.draw(exps))

        xs = [element() for _ in range(data.draw(st.integers(1, 6)))]
        ys = [element() for _ in range(len(xs))]
        _assert_products_agree(DyadicBatch(), model, xs, ys, small)

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_free(self, rank, data):
        model = FreeGroupModel(rank)
        batch = FreeBatch(rank)
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        # 2 bits a code at ranks 2 and 3: 31 codes are 63 bits
        longest = data.draw(st.sampled_from([12, 31, 62]))
        xs = [_random_free_word(rng, rank, rng.randrange(longest + 1)) for _ in range(6)]
        # y cancels all of some rows, part of others, and none of the rest
        ys = [model.invert(xs[0]), model.invert(xs[1])[:3], ()]
        ys += [_random_free_word(rng, rank, rng.randrange(longest + 1)) for _ in range(3)]
        small = all(1 + batch.bits * len(w) <= 32 for w in xs + ys)
        _assert_products_agree(batch, model, xs, ys, small)
        # every word of at most 63 bits has a row, and its inverse never
        # raises: the inverse is no longer than its row
        packed = [x for x in xs if 1 + batch.bits * len(x) <= 63]
        if packed:
            inverse = batch.invert(np.concatenate([batch.pack(x) for x in packed]))
            assert batch.unpack(inverse) == [model.invert(x) for x in packed]
