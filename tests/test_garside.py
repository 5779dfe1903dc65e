import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from groupgeo import cayley
from groupgeo.experiments import get_group, group_from_config
from groupgeo.garside import BraidGroup, _comp, _descents, _half_twist, _inv, _left_weighted
from groupgeo.groups import MarkedGroup, evaluate
from groupgeo.words import Alphabet, Word

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
    def test_letter_products_match_artin_words(self, letters):
        # x times the image of letter code c is the braid of the word with
        # that letter appended; an inverse letter's image comes from
        # ``invert``, the appended Artin letter from its simple factor
        x = B4.from_artin_word(letters)
        for c, y in enumerate(B4_MARKED.letter_images):
            got = B4.multiply(x, y)
            want = B4.from_artin_word(letters + [(c >> 1, -1 if c & 1 else 1)])
            assert B4.canonical_key(got) == B4.canonical_key(want)
            assert B4.is_normal_form(got)

    def test_left_weighted_cache_is_bounded_by_pairs_of_simple_braids(self):
        _left_weighted.cache_clear()
        cayley.ball(B4_MARKED, 5)
        # every cached pair is a pair of permutations of range(4): 4!^2
        assert 0 < _left_weighted.cache_info().currsize <= 576


ZOO_BRAID3 = get_group("braid3")
HALF_TWIST = [(0, 1), (1, 1), (0, 1)]  # Delta = s1 s2 s1


@st.composite
def word_pairs(draw):
    """Equal words by relation rewrites, independent words, and words that
    differ by a power of Delta^2, the centre: rho(Delta^2) = -I and Delta^4
    lies in ker rho, so only the exponent sum tells Delta^4 from 1."""
    kind = draw(st.sampled_from(("rewrites", "independent", "central")))
    if kind == "rewrites":
        return draw(equal_word_pairs())
    u = draw(artin_words)
    if kind == "independent":
        return u, draw(artin_words)
    k = draw(st.integers(-3, 3))
    cut = draw(st.integers(0, len(u)))
    delta = HALF_TWIST if k >= 0 else [(i, -1) for i, _ in reversed(HALF_TWIST)]
    return u, u[:cut] + delta * (2 * abs(k)) + u[cut:]


class TestZooMarking:
    """braid3 in the zoo is B_3 as 4 x 4 integer matrices; Garside normal
    forms are the independent oracle."""

    @given(word_pairs())
    @settings(max_examples=150, deadline=None)
    @example(([], HALF_TWIST * 4))  # Delta^4: in ker rho, exponent sum 12
    @example(([], HALF_TWIST * 2))  # Delta^2 maps to diag(-I, [[1, 6], [0, 1]])
    def test_equal_exactly_when_garside_equal(self, pair):
        u, v = pair
        model = ZOO_BRAID3.model
        matrices = [evaluate(Word(tuple(w)), ZOO_BRAID3) for w in (u, v)]
        same_matrix = model.canonical_key(matrices[0]) == model.canonical_key(matrices[1])
        assert same_matrix == (B3.canonical_key(braid(u)) == B3.canonical_key(braid(v)))

    def test_ball_equals_the_garside_ball(self):
        zoo = cayley.ball(ZOO_BRAID3, 8)
        garside = cayley.ball(group_from_config({"kind": "braid", "strands": 3}), 8)
        assert isinstance(zoo._layers, cayley._PackedLayers)
        assert isinstance(garside._layers, cayley._ElementLayers)
        assert zoo.sphere_sizes == garside.sphere_sizes
        np.testing.assert_array_equal(zoo.parent, garside.parent)
        np.testing.assert_array_equal(zoo.letter, garside.letter)
        np.testing.assert_array_equal(zoo._neighbour_table(), garside._neighbour_table())
