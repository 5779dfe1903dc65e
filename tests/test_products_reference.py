"""General products against the plain code they replaced.

``IntegerMatrixGroup`` multiplies and inverts through straight-line code
generated per dimension; the references below are the nested-sum product
and the recursive cofactor determinant and adjugate it used before.
``FreeGroupModel.multiply`` cancels only at the junction of two reduced
words; the reference reduces the whole concatenation.  The centralizer and
conjugator scan tests psi gamma = a psi; the reference forms
psi gamma psi^-1 and compares it with a.
"""

import pytest
from hypothesis import given, settings, strategies as st

from groupgeo import cayley, combing
from groupgeo._kernel import ops
from groupgeo.experiments import _CENTRALIZER_WORDS, get_group, group_from_config, zoo_names
from groupgeo.groups import FreeGroupModel, IntegerMatrixGroup, evaluate

# acceptance criterion 5: the combing radius of each zoo group
COMBING_RADII = {
    "braid3": 4, "bs12": 5, "free2": 5, "heis3": 5, "kleinfour": 3, "sl2z": 5, "z2": 6,
}


def _reference_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        total += (-1) ** j * m[0][j] * _reference_det(minor)
    return total


def _reference_adjugate(m):
    n = len(m)
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i
            )
            cof[i][j] = (-1) ** (i + j) * (_reference_det(minor) if n > 1 else 1)
    return tuple(tuple(cof[j][i] for j in range(n)) for i in range(n))


def _reference_multiply(x, y):
    n = len(x)
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _reference_invert(x):
    d = _reference_det(x)
    adj = _reference_adjugate(x)
    return adj if d == 1 else tuple(tuple(-v for v in row) for row in adj)


def _elt(G, text):
    return evaluate(G.alphabet.parse_word(text), G)


@st.composite
def unimodular(draw, dim):
    """A det +-1 matrix: a product of elementary factors I + c e_ij, some
    with |c| past 2^63, then a sign flip of one row."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    coefficient = st.one_of(st.integers(-3, 3), st.integers(2 ** 63, 2 ** 70).map(lambda c: -c),
                            st.integers(2 ** 63, 2 ** 70))
    factors = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                                      coefficient), max_size=6))
    for i, j, c in factors:
        if i != j:
            for row in m:
                row[j] += c * row[i]
    if draw(st.booleans()):
        flip = draw(st.integers(0, dim - 1))
        m[flip] = [-v for v in m[flip]]
    return tuple(tuple(row) for row in m)


class TestMatrixProducts:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, dim, data):
        M = IntegerMatrixGroup(dim)
        x, y = data.draw(unimodular(dim)), data.draw(unimodular(dim))
        assert M.element(x) == x
        assert _reference_det(x) in (1, -1)
        assert M.multiply(x, y) == _reference_multiply(x, y)
        inv = M.invert(x)
        assert inv == _reference_invert(x)
        assert M.multiply(inv, x) == M.identity
        assert M.multiply(x, inv) == M.identity

    @pytest.mark.parametrize("dim", [6, 7])
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_inverse_beyond_reference_dimensions(self, dim, data):
        # the reference adjugate takes dim! steps per minor; check x^-1 x = 1
        M = IntegerMatrixGroup(dim)
        x = data.draw(unimodular(dim))
        assert M.multiply(M.invert(x), x) == M.identity
        assert M.multiply(x, M.invert(x)) == M.identity

    def test_entries_past_int64_do_not_wrap(self):
        M = IntegerMatrixGroup(3)
        big = 2 ** 64 + 1
        x = M.element([[1, big, 0], [0, 1, big], [0, 0, 1]])
        assert M.multiply(x, x) == ((1, 2 * big, big * big), (0, 1, 2 * big), (0, 0, 1))
        assert M.invert(x) == ((1, -big, big * big), (0, 1, -big), (0, 0, 1))

    @pytest.mark.parametrize("name", ["heis3", "sl2z"])
    def test_every_ball_element(self, name):
        G = get_group(name)
        M = G.model
        elements = cayley.ball(G, 5).elements
        other = elements[len(elements) // 3]
        for x in elements:
            inv = M.invert(x)
            assert inv == _reference_invert(x)
            assert M.multiply(inv, x) == M.identity
            assert M.multiply(x, other) == _reference_multiply(x, other)
            assert M.multiply(x, x) == _reference_multiply(x, x)

    @pytest.mark.parametrize("rows", [
        [[2, 0], [0, 1]], [[0, 0], [0, 0]], [[1, 2], [3, 4]], [[2 ** 64, 1], [1, 1]],
    ])
    def test_element_rejects_determinant_outside_unit(self, rows):
        det = _reference_det(tuple(tuple(r) for r in rows))
        assert det not in (1, -1)
        with pytest.raises(ValueError, match="not invertible"):
            IntegerMatrixGroup(2).element(rows)

    @pytest.mark.parametrize("rows", [
        [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [],
    ])
    def test_element_rejects_wrong_shape(self, rows):
        with pytest.raises(ValueError, match="2x2"):
            IntegerMatrixGroup(2).element(rows)


class TestMatrixDimension:
    @pytest.mark.parametrize("dim", [0, -1, "3", 2.5, True, None])
    def test_config_rejects_bad_dim(self, dim):
        config = {"kind": "matrix", "dim": dim, "alphabet": ["a"],
                  "marking": {"a": [["1", "1"], ["0", "1"]]}}
        with pytest.raises(ValueError, match="dimension"):
            group_from_config(config)

    def test_config_accepts_int_dim(self):
        config = {"kind": "matrix", "dim": 2, "alphabet": ["a"],
                  "marking": {"a": [["1", "1"], ["0", "1"]]}}
        assert group_from_config(config).model.dim == 2


@st.composite
def reduced_words(draw, rank):
    return tuple(ops.free_reduce(draw(st.lists(st.integers(0, 2 * rank - 1), max_size=12))))


class TestFreeProducts:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, rank, data):
        F = FreeGroupModel(rank)
        x = data.draw(reduced_words(rank))
        z = data.draw(reduced_words(rank))
        # y starts with the inverse of a suffix of x, so that some of it cancels
        k = data.draw(st.integers(0, len(x)))
        y = tuple(ops.free_reduce(F.invert(x[len(x) - k:]) + z))
        for a, b in ((x, y), (y, x), (x, z), (x, ()), ((), x), ((), ())):
            assert F.multiply(a, b) == tuple(ops.free_reduce(a + b))
        inv = F.invert(x)
        assert inv == tuple(c ^ 1 for c in reversed(x))
        assert F.multiply(x, inv) == ()
        assert F.multiply(inv, x) == ()

    def test_full_and_partial_cancellation(self):
        F = FreeGroupModel(2)
        assert F.multiply((0, 2, 0), (1, 3, 1)) == ()
        assert F.multiply((0, 2, 0), (1, 3)) == (0,)
        assert F.multiply((0, 2), (3, 1, 2)) == (2,)
        assert F.multiply((0,), (0,)) == (0, 0)


def _reference_conjugators(G, idx, a, gamma, n):
    model = G.model
    a_key = model.canonical_key(a)
    for v, psi in zip(range(sum(idx.sphere_sizes[: n + 1])), idx.elements):
        conj = model.multiply(model.multiply(psi, gamma), model.invert(psi))
        if model.canonical_key(conj) == a_key:
            yield v


def _assert_same_conjugators(G, idx, a, gamma, n, monkeypatch):
    want = list(_reference_conjugators(G, idx, a, gamma, n))
    calls = [0]
    invert = G.model.invert

    def counted(x):
        calls[0] += 1
        return invert(x)

    monkeypatch.setattr(G.model, "invert", counted)
    got = list(combing._conjugators_in_ball(G, idx, a, gamma, n))
    assert calls[0] == 0
    assert got == want
    return got


class TestConjugatorScan:
    @pytest.mark.parametrize("name", zoo_names())
    def test_matches_reference_on_zoo(self, name, monkeypatch):
        G = get_group(name)
        n = COMBING_RADII[name]
        idx = cayley.ball(G, n)
        a = _elt(G, _CENTRALIZER_WORDS[name])
        assert _assert_same_conjugators(G, idx, a, a, n, monkeypatch)
        # a conjugate gamma = g^-1 a g of a, so that psi = g^-1 is found
        g = idx.elements[len(idx) // 2]
        gamma = G.model.multiply(G.model.multiply(G.model.invert(g), a), g)
        assert _assert_same_conjugators(G, idx, a, gamma, n, monkeypatch)

    def test_matches_reference_on_free2(self, monkeypatch):
        G = get_group("free2")
        idx = cayley.ball(G, 8)
        a = _elt(G, "x y")
        got = _assert_same_conjugators(G, idx, a, a, 8, monkeypatch)
        assert len(got) == 9  # (x y)^k, |k| <= 4
