"""Layer-at-a-time ball enumeration against the per-element reference.

``_reference_ball`` is the enumeration loop the library ran before packed
batch actions: one right action, one canonical key and one dict lookup per
open slot, over Python integers, with the reverse slot filled at once, and
the last layer closed the same way.  Every ball, packed or not, must equal
it field by field.
"""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupgeo import cayley
from groupgeo._packed import INT64_MAX, DyadicBatch, MatrixBatch
from groupgeo.errors import MemoryCapExceeded
from groupgeo.experiments import get_group, group_from_config
from groupgeo.groups import evaluate

_UNKNOWN = -2
ZOO = ("braid3", "bs12", "free2", "heis3", "kleinfour", "sl2z", "z2")
PACKED = ("bs12", "heis3", "sl2z")


def _reference_ball(G, n, max_elements=cayley.DEFAULT_MAX_ELEMENTS, stop_key=None):
    model = G.model
    canonical_key, actions = model.canonical_key, G.letter_actions
    ident = model.identity
    keys = [canonical_key(ident)]
    elements = [ident]
    index = {keys[0]: 0}
    get = index.get
    parent = array("i", [-1])
    letter = array("b", [-1])
    m = len(actions)
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
            for code, act in enumerate(actions):
                if nbr[row + code] != _UNKNOWN:
                    continue
                h = act(g)
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
        for code, act in enumerate(actions):
            if nbr[row + code] == _UNKNOWN:
                w = get(canonical_key(act(g)), -1)
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


def _assert_same_ball(G, radius, stop_key=None):
    ref = _reference_ball(G, radius, stop_key=stop_key)
    idx = cayley.ball(G, radius, _stop_key=stop_key)
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


def _dyadic(*triples):
    names = "abcdefgh"[:len(triples)]
    return group_from_config({
        "kind": "dyadic_affine", "alphabet": list(names),
        "marking": {n: [str(v) for v in t] for n, t in zip(names, triples)},
    })


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
    "dyadic_x3_4x": (lambda: _dyadic((0, 3, 0), (2, 0, 0)), 7),
    "dyadic_half": (lambda: _dyadic((0, 1, 1), (1, 0, 0), (1, 1, 0)), 5),
    "dyadic_negative_k": (lambda: _dyadic((-1, 1, 0), (0, 1, 2)), 6),
    "product": (lambda: group_from_config({
        "kind": "product",
        "factors": [
            {"kind": "free", "alphabet": ["x"]},
            {"kind": "matrix", "dim": 2, "alphabet": ["a"],
             "marking": {"a": [["1", "2"], ["0", "1"]]}},
        ],
    }), 5),
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
        packed = {c for c, (make, _) in CONFIGS.items() if make().batch_action() is not None}
        assert packed == set(CONFIGS) - {"product"}

    @pytest.mark.parametrize("group, word", [
        ("heis3", "a b a"), ("bs12", "t a t^-1"), ("sl2z", "a b a"), ("free2", "x y"),
    ])
    def test_stop_key(self, group, word):
        G = get_group(group)
        key = G.model.canonical_key(evaluate(G.alphabet.parse_word(word), G))
        idx, ref = _assert_same_ball(G, 8, stop_key=key)
        assert idx.radius < 8


class TestClosedForms:
    def test_z2_spheres(self):
        assert cayley.ball(get_group("z2"), 12).sphere_sizes == [1] + [4 * r for r in range(1, 13)]

    def test_free2_spheres(self):
        assert cayley.ball(get_group("free2"), 7).sphere_sizes == [1] + [
            4 * 3 ** (r - 1) for r in range(1, 8)
        ]


def _count_batch_rows(G):
    """Wrap G's batch action; the list holds the rows passed to it so far."""
    rows = [0]
    batch = G.batch_action()
    act = batch.act

    def counted(x, code):
        rows[0] += len(x)
        return act(x, code)

    batch.act = counted
    return rows


def _reference_word(ref, v):
    codes = []
    while v:
        codes.append(ref["letter"][v])
        v = ref["parent"][v]
    return [(c >> 1, 1 if c % 2 == 0 else -1) for c in reversed(codes)]


class TestInt64Boundary:
    def test_matrix_entries_near_2_62(self):
        # a's image has an entry of 2^62 - 1: layer 1 is packed, and the
        # products of layer 2 have no int64 proof, so they run on Python ints
        G = _matrix(2, [[1, 2 ** 62 - 1], [0, 1]], [[1, 0], [1, 1]])
        rows = _count_batch_rows(G)
        idx, _ = _assert_same_ball(G, 4)
        assert rows[0] > 0
        assert max(abs(v) for g in idx.elements for row in g for v in row) > INT64_MAX

    @pytest.mark.parametrize("marking", [
        ((0, 2 ** 61 + 1, 0), (1, 0, 0)),  # num grows past 2^63
        ((0, 1, 60), (1, 0, 0)),           # exp grows past 62
    ])
    def test_dyadic_num_and_exp_grow(self, marking):
        G = _dyadic(*marking)
        rows = _count_batch_rows(G)
        idx, _ = _assert_same_ball(G, 5)
        assert rows[0] > 0
        assert any(abs(num) > INT64_MAX or exp > 62 for _, num, exp in idx.elements)

    def test_elementary_bound_is_2M(self):
        batch = MatrixBatch(2, [((1, 1), (0, 1))], [(0, 1, 1)])
        top = 2 ** 62 - 1
        rows = np.array([[top, top, -top, 5]], dtype=np.int64)
        assert batch.act(rows, 0).tolist() == [[top, 2 * top, -top, 5 - top]]
        rows[0, 2] = -(2 ** 62)  # M = 2^62: 2M is past int64
        assert batch.act(rows, 0) is None

    def test_matmul_bound_is_d_M_max_y(self):
        y = ((2, 3), (1, 2))
        batch = MatrixBatch(2, [y], [None])
        M = INT64_MAX // 6  # d * M * max|y| = 6M
        rows = np.array([[M, -M, M, M]], dtype=np.int64)
        assert batch.act(rows, 0).tolist() == [[2 * M - M, 3 * M - 2 * M, 3 * M, 5 * M]]
        assert batch.act(rows + np.array([[1, 0, 0, 0]]), 0) is None

    def test_dyadic_bound(self):
        batch = DyadicBatch([(0, INT64_MAX - 2 ** 61, 0), (0, 3 * 2 ** 61, 0)])
        rows = np.array([[0, 2 ** 61, 0]], dtype=np.int64)
        assert batch.act(rows, 0).tolist() == [[0, INT64_MAX, 0]]
        assert batch.act(rows, 1) is None  # 2^61 + 3 * 2^61 = 2^63

    def test_dyadic_normalises_exactly(self):
        G = get_group("bs12")
        batch = G.batch_action()
        model = G.model
        xs = [model.element(k, num, exp) for k in (-3, 0, 2)
              for num in (-12, -1, 0, 1, 6, 40) for exp in (0, 1, 3)]
        rows = np.array(xs, dtype=np.int64)
        for code in range(4):
            y = G.letter_image_by_code(code)
            assert batch.unpack(batch.act(rows, code)) == [model.multiply(x, y) for x in xs]


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
