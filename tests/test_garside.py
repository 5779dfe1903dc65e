import pytest
from hypothesis import example, given, settings, strategies as st

from groupgeo import cayley
from groupgeo.garside import BraidGroup, _comp, _descents, _half_twist, _inv, _left_weighted
from groupgeo.groups import MarkedGroup
from groupgeo.words import Alphabet

B3 = BraidGroup(3)

artin_letters = st.tuples(st.integers(0, 1), st.sampled_from((1, -1)))
artin_words = st.lists(artin_letters, max_size=10)


def braid(letters):
    return B3.from_artin_word(letters)


BRAID_RELATOR = [(0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1)]


@st.composite
def equal_word_pairs(draw):
    """(u, v) where v comes from u by one to four relation rewrites, so both
    spell the same braid: insert s_i^e s_i^-e, insert the braid relator
    s0 s1 s0 (s1 s0 s1)^-1 or its inverse, or swap an occurrence of
    s0^e s1^e s0^e with s1^e s0^e s1^e."""
    u = draw(artin_words)
    v = list(u)
    for _ in range(draw(st.integers(1, 4))):
        triples = [
            i for i in range(len(v) - 2)
            if v[i] == v[i + 2] and v[i + 1] == (1 - v[i][0], v[i][1])
        ]
        kind = draw(st.sampled_from(("pair", "relator", "swap") if triples else ("pair", "relator")))
        if kind == "swap":
            i = draw(st.sampled_from(triples))
            (g, e), (h, _) = v[i], v[i + 1]
            v[i:i + 3] = [(h, e), (g, e), (h, e)]
            continue
        i = draw(st.integers(0, len(v)))
        if kind == "pair":
            g, e = draw(artin_letters)
            v[i:i] = [(g, e), (g, -e)]
        elif draw(st.booleans()):
            v[i:i] = BRAID_RELATOR
        else:
            v[i:i] = [(g, -e) for g, e in reversed(BRAID_RELATOR)]
    return u, v


class TestPermutationHelpers:
    def test_composition_applies_left_then_right(self):
        s0 = (1, 0, 2)
        s1 = (0, 2, 1)
        # strand starting at 0 goes to 1 under s0, then 1 -> 2 under s1
        assert _comp(s0, s1) == (2, 0, 1)

    def test_inverse(self):
        p = (2, 0, 1)
        assert _comp(p, _inv(p)) == (0, 1, 2)

    def test_descents_of_half_twist_are_all(self):
        assert _descents(_half_twist(3)) == {0, 1}


class TestBraidRelations:
    def test_braid_relation(self):
        lhs = braid([(0, 1), (1, 1), (0, 1)])
        rhs = braid([(1, 1), (0, 1), (1, 1)])
        assert B3.canonical_key(lhs) == B3.canonical_key(rhs)

    def test_generator_times_inverse(self):
        for i in (0, 1):
            g = braid([(i, 1), (i, -1)])
            assert B3.canonical_key(g) == B3.canonical_key(B3.identity)

    def test_invert(self):
        g = braid([(0, 1), (1, -1), (0, 1), (0, 1)])
        assert B3.canonical_key(B3.multiply(g, B3.invert(g))) == B3.canonical_key(
            B3.identity
        )

    def test_half_twist_squared_is_central(self):
        delta2 = braid([(0, 1), (1, 1), (0, 1)] * 2)
        assert delta2[0] == 2 and delta2[1] == ()
        for i in (0, 1):
            s = B3.generator(i)
            lhs = B3.multiply(delta2, s)
            rhs = B3.multiply(s, delta2)
            assert B3.canonical_key(lhs) == B3.canonical_key(rhs)

    def test_rejects_too_few_strands(self):
        with pytest.raises(ValueError):
            BraidGroup(1)

    def test_generator_index_range(self):
        with pytest.raises(ValueError):
            B3.generator(2)


class TestNormalForm:
    @given(artin_words)
    @settings(max_examples=150)
    def test_products_are_left_weighted(self, letters):
        assert B3.is_normal_form(braid(letters))

    @given(artin_words, artin_words)
    @settings(max_examples=80)
    def test_multiplication_associates_with_word_concatenation(self, u, v):
        assert B3.canonical_key(braid(u + v)) == B3.canonical_key(
            B3.multiply(braid(u), braid(v))
        )

    @given(artin_words)
    @settings(max_examples=80)
    def test_inverse_law(self, letters):
        g = braid(letters)
        assert B3.canonical_key(B3.multiply(B3.invert(g), g)) == B3.canonical_key(
            B3.identity
        )


class TestBurauOracle:
    """The reduced Burau representation is faithful on three strands, so it
    decides equality independently of the Garside machinery."""

    @staticmethod
    def _burau(letters):
        import sympy

        t = sympy.Symbol("t")
        m1 = sympy.Matrix([[-t, 1], [0, 1]])
        m2 = sympy.Matrix([[1, 0], [t, -t]])
        mats = {(0, 1): m1, (0, -1): m1.inv(), (1, 1): m2, (1, -1): m2.inv()}
        acc = sympy.eye(2)
        for letter in letters:
            acc = acc * mats[letter]
        return acc

    @staticmethod
    def _burau_equal(a, b):
        """Exact equality of rational-function matrices: every entry of
        ``a - b`` cancels to zero (``Matrix.equals`` may return ``None``)."""
        import sympy

        return all(sympy.cancel(e) == 0 for e in a - b)

    @given(artin_words, artin_words)
    @example(
        u=[(0, 1), (1, 1), (0, -1), (1, 1), (0, -1), (0, -1), (1, 1), (0, -1)],
        v=[(0, -1), (0, -1)],
    )
    @settings(max_examples=25, deadline=None)
    def test_equality_matches_burau(self, u, v):
        same_key = B3.canonical_key(braid(u)) == B3.canonical_key(braid(v))
        same_burau = self._burau_equal(self._burau(u), self._burau(v))
        assert same_key == same_burau

    @given(equal_word_pairs())
    @settings(max_examples=25, deadline=None)
    def test_relation_rewrites_keep_key_and_burau(self, pair):
        u, v = pair
        assert B3.canonical_key(braid(u)) == B3.canonical_key(braid(v))
        assert self._burau_equal(self._burau(u), self._burau(v))

    def test_known_nontrivial_pure_braid(self):
        # sigma1^2 is nontrivial and Burau sees it
        u = [(0, 1), (0, 1)]
        assert B3.canonical_key(braid(u)) != B3.canonical_key(B3.identity)
        assert not self._burau_equal(self._burau(u), self._burau([]))


B4 = BraidGroup(4)
B4_MARKED = MarkedGroup(
    model=B4,
    alphabet=Alphabet(("s1", "s2", "s3")),
    marking=tuple(B4.generator(i) for i in range(3)),
)


class TestFourStrands:
    @given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=10))
    @settings(max_examples=80)
    def test_letter_actions_match_multiply(self, letters):
        x = B4.from_artin_word(letters)
        for c, act in enumerate(B4_MARKED.letter_actions):
            want = B4.multiply(x, B4_MARKED.letter_image_by_code(c))
            assert B4.canonical_key(act(x)) == B4.canonical_key(want)
            assert B4.is_normal_form(act(x))

    def test_left_weighted_cache_is_bounded_by_pairs_of_simple_braids(self):
        _left_weighted.cache_clear()
        cayley.ball(B4_MARKED, 5)
        # every cached pair is a pair of permutations of range(4): 4!^2
        assert 0 < _left_weighted.cache_info().currsize <= 576
