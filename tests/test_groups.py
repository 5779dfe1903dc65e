from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from groupgeo.errors import BadCosetRep, MissingPresentation
from groupgeo.experiments import get_group
from groupgeo.groups import (
    DirectProduct,
    DyadicAffineGroup,
    FreeGroupModel,
    IntegerMatrixGroup,
    MarkedGroup,
    MarkedHomomorphism,
    TableGroup,
    evaluate,
    index_two_retraction,
    injectivity_on_ball,
    order_of_element,
    verify_homomorphism,
    verify_presentation,
)
from groupgeo.words import Alphabet, Presentation, Word, reduce


letters = st.tuples(st.integers(0, 1), st.sampled_from((1, -1)))
words = st.lists(letters, max_size=20).map(lambda ls: Word(tuple(ls)))


class TestTableGroup:
    def test_klein_four_laws(self):
        K = TableGroup.klein_four()
        x, y = K.index_of("x"), K.index_of("y")
        assert K.multiply(x, y) == K.index_of("xy")
        assert K.multiply(x, x) == K.identity
        assert K.invert(y) == y

    def test_rejects_malformed_identity(self):
        with pytest.raises(ValueError):
            TableGroup(("e", "a"), ((0, 1), (1, 1)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            TableGroup(("e", "a"), ((0, 1),))

    def test_kleinfour_key_bytes(self):
        G = get_group("kleinfour")
        keys = [G.model.canonical_key(evaluate(G.alphabet.parse_word(w), G))
                for w in ("", "x", "y", "x y")]
        assert keys == [b"t0", b"t1", b"t2", b"t3"]


class TestIntegerMatrixGroup:
    def test_rejects_non_unimodular(self):
        M = IntegerMatrixGroup(2)
        with pytest.raises(ValueError):
            M.element([[2, 0], [0, 1]])

    def test_inverse_both_signs_of_determinant(self):
        M = IntegerMatrixGroup(2)
        for m in (M.element([[2, 1], [1, 1]]), M.element([[0, 1], [1, 0]])):
            assert M.multiply(m, M.invert(m)) == M.identity

    def test_exact_big_entries(self):
        M = IntegerMatrixGroup(2)
        g = M.element([[1, 10 ** 40], [0, 1]])
        sq = M.multiply(g, g)
        assert sq[0][1] == 2 * 10 ** 40
        assert M.multiply(sq, M.invert(sq)) == M.identity

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=8))
    def test_group_laws_on_sl2z_words(self, picks):
        G = get_group("sl2z")
        M = G.model
        elems = [G.marking[i] for i in picks]
        acc = M.identity
        for e in elems:
            acc = M.multiply(acc, e)
        assert M.multiply(acc, M.invert(acc)) == M.identity


class TestDyadicAffineGroup:
    def test_bs_relation(self):
        # t a t^-1 = a^2 for a: x -> x+1, t: x -> 2x
        D = DyadicAffineGroup()
        a, t = D.element(0, 1), D.element(1, 0)
        lhs = D.multiply(D.multiply(t, a), D.invert(t))
        assert D.canonical_key(lhs) == D.canonical_key(D.multiply(a, a))

    def test_apply_matches_composition(self):
        D = DyadicAffineGroup()
        a, t = D.element(0, 1), D.element(1, 0)
        g = D.multiply(t, a)  # x -> 2(x + 1)... applied as maps right-to-left
        assert D.apply(g, Fraction(3)) == D.apply(t, D.apply(a, Fraction(3)))

    def test_normal_form_unique(self):
        D = DyadicAffineGroup()
        assert D.element(0, 2, 1) == D.element(0, 1, 0)
        assert D.element(1, 0, 5) == (1, 0, 0)


class TestDirectProduct:
    def test_componentwise(self):
        P = DirectProduct((FreeGroupModel(1), FreeGroupModel(1)))
        g = (P.factors[0].generator(0), P.factors[1].generator(0))
        assert P.multiply(g, P.invert(g)) == P.identity

    def test_keys_unambiguous(self):
        # length-prefixed parts cannot collide across component boundaries
        P = DirectProduct((FreeGroupModel(1), FreeGroupModel(1)))
        a = (P.factors[0].generator(0), ())
        b = ((), P.factors[1].generator(0))
        assert P.canonical_key(a) != P.canonical_key(b)

    @pytest.mark.parametrize(
        "word,key",
        [
            ("", b"1:f|1:f"),
            ("x", b"2:f\x00|1:f"),
            ("y^-1", b"1:f|2:f\x01"),
            ("x x y^-1", b"3:f\x00\x00|2:f\x01"),
            ("x^-1 y y", b"2:f\x01|3:f\x00\x00"),
        ],
    )
    def test_z2_key_bytes(self, word, key):
        G = get_group("z2")
        assert G.model.canonical_key(evaluate(G.alphabet.parse_word(word), G)) == key

    def test_three_factor_key_bytes(self):
        K, F = TableGroup.klein_four(), FreeGroupModel(1)
        P = DirectProduct((K, F, K))
        x = (K.index_of("x"), F.power(F.generator(0), 10), K.index_of("y"))
        assert P.canonical_key(x) == b"2:t1|11:f" + b"\x00" * 10 + b"|2:t2"
        assert P.canonical_key(P.identity) == b"2:t0|1:f|2:t0"


class TestEvaluate:
    def test_a_squared_is_minus_identity(self):
        G = get_group("sl2z")
        val = evaluate(G.alphabet.parse_word("a a"), G)
        assert val == ((-1, 0), (0, -1))

    def test_empty_word(self):
        G = get_group("sl2z")
        assert evaluate(Word(()), G) == G.model.identity

    def test_cancelling_word(self):
        G = get_group("free2")
        assert evaluate(G.alphabet.parse_word("x x^-1"), G) == G.model.identity

    @given(words, words)
    def test_monoid_map(self, u, v):
        G = get_group("free2")
        lhs = evaluate(u * v, G)
        rhs = G.model.multiply(evaluate(u, G), evaluate(v, G))
        assert G.model.canonical_key(lhs) == G.model.canonical_key(rhs)

    @given(words, words)
    def test_key_soundness_under_reduction(self, u, v):
        G = get_group("free2")
        if reduce(u) == reduce(v):
            assert G.model.canonical_key(evaluate(u, G)) == G.model.canonical_key(
                evaluate(v, G)
            )


class TestVerifyPresentation:
    def test_sl2z_passes(self):
        G = get_group("sl2z")
        report = verify_presentation(G, G.presentation)
        assert report.ok
        assert len(report.checks) == 3

    def test_klein_passes(self):
        G = get_group("kleinfour")
        assert verify_presentation(G, G.presentation).ok

    def test_infinite_order_fails(self):
        model = FreeGroupModel(1)
        G = MarkedGroup(
            model=model, alphabet=Alphabet(("x",)), marking=(model.generator(0),)
        )
        report = verify_presentation(G, Presentation.parse(("x",), ("x x",)))
        assert not report.ok
        assert report.checks[0].relator == "x x"


def _hom_klein_to_sl2z(x_img, y_img):
    return MarkedHomomorphism(
        source=get_group("kleinfour"),
        target=get_group("sl2z"),
        images=tuple(
            get_group("sl2z").alphabet.parse_word(t) for t in (x_img, y_img)
        ),
    )


class TestHomomorphisms:
    def test_identity_endomorphism_passes(self):
        G = get_group("kleinfour")
        h = MarkedHomomorphism(G, G, tuple(G.alphabet.parse_word(t) for t in ("x", "y")))
        assert verify_homomorphism(h).ok
        assert injectivity_on_ball(h, 2).injective_on_ball

    def test_central_involution_images_pass_relators(self):
        assert verify_homomorphism(_hom_klein_to_sl2z("a a", "a a")).ok

    def test_non_involution_image_fails(self):
        assert not verify_homomorphism(_hom_klein_to_sl2z("a", "a a")).ok

    def test_equal_images_collide(self):
        report = injectivity_on_ball(_hom_klein_to_sl2z("a a", "a a"), 2)
        assert not report.injective_on_ball
        assert report.exhaustive

    def test_unipotent_powers_injective(self):
        model = FreeGroupModel(1)
        source = MarkedGroup(
            model=model, alphabet=Alphabet(("x",)), marking=(model.generator(0),)
        )
        target_model = IntegerMatrixGroup(2)
        target = MarkedGroup(
            model=target_model,
            alphabet=Alphabet(("u",)),
            marking=(target_model.element([[1, 1], [0, 1]]),),
        )
        h = MarkedHomomorphism(source, target, (target.alphabet.parse_word("u"),))
        report = injectivity_on_ball(h, 6)
        assert report.injective_on_ball
        assert not report.exhaustive

    def test_missing_presentation_raises(self):
        model = FreeGroupModel(1)
        source = MarkedGroup(
            model=model, alphabet=Alphabet(("x",)), marking=(model.generator(0),)
        )
        h = MarkedHomomorphism(source, source, (source.alphabet.parse_word("x"),))
        with pytest.raises(MissingPresentation):
            verify_homomorphism(h)


class TestOrderOfElement:
    def test_minus_identity(self):
        G = get_group("sl2z")
        minus_i = evaluate(G.alphabet.parse_word("a a"), G)
        assert order_of_element(minus_i, G.model, cap=10) == 2

    def test_s_has_order_four(self):
        G = get_group("sl2z")
        assert order_of_element(G.marking[0], G.model, cap=10) == 4

    def test_identity(self):
        G = get_group("sl2z")
        assert order_of_element(G.model.identity, G.model, cap=1) == 1

    def test_infinite_order_hits_cap(self):
        G = get_group("free2")
        assert order_of_element(G.model.generator(0), G.model, cap=50) is None

    def test_rejects_zero_cap(self):
        G = get_group("kleinfour")
        with pytest.raises(ValueError):
            order_of_element(G.model.identity, G.model, cap=0)


class TestIndexTwoRetraction:
    def test_even_powers_of_z(self):
        model = FreeGroupModel(1)
        G = MarkedGroup(
            model=model, alphabet=Alphabet(("x",)), marking=(model.generator(0),)
        )
        member = lambda g: len(g) % 2 == 0
        retract = index_two_retraction(G, member, model.generator(0))
        x_cubed = model.power(model.generator(0), 3)
        assert retract(x_cubed) == model.power(model.generator(0), 4)

    def test_fixes_members(self):
        model = FreeGroupModel(1)
        G = MarkedGroup(
            model=model, alphabet=Alphabet(("x",)), marking=(model.generator(0),)
        )
        retract = index_two_retraction(G, lambda g: len(g) % 2 == 0, model.generator(0))
        sq = model.power(model.generator(0), 2)
        assert retract(sq) == sq

    def test_rejects_member_coset_rep(self):
        model = FreeGroupModel(1)
        G = MarkedGroup(
            model=model, alphabet=Alphabet(("x",)), marking=(model.generator(0),)
        )
        with pytest.raises(BadCosetRep):
            index_two_retraction(G, lambda g: len(g) % 2 == 0, model.power(model.generator(0), 2))

    def test_moves_elements_at_most_norm_j(self):
        # the retraction composed with inclusion is a quasi-inverse:
        # it moves any element by at most one letter here
        model = FreeGroupModel(1)
        G = MarkedGroup(
            model=model, alphabet=Alphabet(("x",)), marking=(model.generator(0),)
        )
        j = model.generator(0)
        retract = index_two_retraction(G, lambda g: len(g) % 2 == 0, j)
        for k in range(-5, 6):
            g = model.power(model.generator(0), k)
            moved = retract(g)
            diff = model.multiply(model.invert(g), moved)
            assert len(diff) <= 1


# -- right actions of letters -----------------------------------------------

codes = st.lists(st.integers(0, 63), max_size=12)


def _product(G, picks):
    """The product of letter images through ``multiply`` alone, the oracle
    for ``letter_actions``; ``picks`` are reduced modulo the letter count."""
    m = 2 * len(G.alphabet)
    acc = G.model.identity
    for c in picks:
        acc = G.model.multiply(acc, G.letter_image_by_code(c % m))
    return acc


def _assert_actions_match(G, picks):
    model = G.model
    x = _product(G, picks)
    for c, act in enumerate(G.letter_actions):
        want = model.multiply(x, G.letter_image_by_code(c))
        assert model.canonical_key(act(x)) == model.canonical_key(want)


def _counting_multiply(model):
    """Count the calls the model's actions make to ``multiply``."""
    calls = [0]
    multiply = model.multiply

    def counted(x, y):
        calls[0] += 1
        return multiply(x, y)

    model.multiply = counted
    return calls


ZOO = ("z2", "free2", "sl2z", "bs12", "heis3", "braid3", "kleinfour")


class TestLetterActions:
    @pytest.mark.parametrize("name", ZOO)
    @given(picks=codes)
    def test_actions_match_multiply_on_the_zoo(self, name, picks):
        _assert_actions_match(get_group(name), picks)

    @pytest.mark.parametrize("name, multiplies", [
        ("heis3", 0), ("free2", 0), ("z2", 0), ("sl2z", 4), ("bs12", 4),
    ])
    def test_which_letters_fall_back_to_multiply(self, name, multiplies):
        G = get_group(name)
        calls = _counting_multiply(G.model)
        x = G.marking[0]
        for act in G.letter_actions:
            act(x)
        assert calls[0] == multiplies

    def test_sl2z_letters_are_not_elementary(self):
        G = get_group("sl2z")
        assert all(G.model._elementary(a) is None for a in G._letter_images)

    @given(
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from((1, -1))),
                 min_size=1, max_size=8),
        st.permutations(range(3)),
        st.sampled_from((1, -1)),
        codes,
    )
    def test_random_unimodular_image(self, ops, perm, sign, picks):
        # a det +-1 matrix built from elementary row operations, a row
        # permutation and a sign, next to an elementary letter
        M = IntegerMatrixGroup(3)
        rows = [list(r) for r in M.identity]
        for i, j, s in ops:
            if i != j:
                rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]
        rows = [rows[p] for p in perm]
        rows[0] = [sign * v for v in rows[0]]
        g = M.element(rows)
        e = M.element([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
        G = MarkedGroup(model=M, alphabet=Alphabet(("g", "e")), marking=(g, e))
        _assert_actions_match(G, picks)

    @given(codes)
    def test_product_image_in_two_factors_falls_back(self, picks):
        P = DirectProduct((FreeGroupModel(1), FreeGroupModel(2)))
        one = (P.factors[0].generator(0), P.factors[1].identity)
        both = (P.factors[0].generator(0), P.factors[1].generator(1))
        G = MarkedGroup(model=P, alphabet=Alphabet(("a", "b")), marking=(one, both))
        _assert_actions_match(G, picks)
        calls = _counting_multiply(P)
        for act in G.letter_actions:
            act(P.identity)
        assert calls[0] == 2  # the two letters of ``both``

    @given(codes)
    def test_two_letter_free_image_falls_back(self, picks):
        F = FreeGroupModel(2)
        G = MarkedGroup(
            model=F, alphabet=Alphabet(("x", "w")),
            marking=(F.generator(0), F.multiply(F.generator(0), F.generator(1))),
        )
        _assert_actions_match(G, picks)
        calls = _counting_multiply(F)
        for act in G.letter_actions:
            act((1, 3))
        assert calls[0] == 2

    def test_free_action_cancels_or_appends(self):
        G = get_group("free2")
        x, x_inv, y = G.letter_actions[0], G.letter_actions[1], G.letter_actions[2]
        assert x_inv((2, 0)) == (2,)
        assert x((2, 0)) == (2, 0, 0)
        assert y(()) == (2,)
        assert x_inv(()) == (1,)


class TestMatrixKeys:
    @staticmethod
    def _joined_key(x):
        # the key's byte layout: "m" then the row-major entries, comma-joined
        return b"m" + b",".join(b"%d" % v for row in x for v in row)

    def test_negative_and_multi_digit_entries(self):
        M = IntegerMatrixGroup(3)
        x = ((1, -12, 0), (345, 1, -7), (0, 10 ** 20, -1))
        assert M.canonical_key(x) == (
            b"m1,-12,0,345,1,-7,0,100000000000000000000,-1"
        )
        assert M.canonical_key(x) == self._joined_key(x)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @given(data=st.data())
    def test_matches_joined_form(self, dim, data):
        entries = st.integers(-(10 ** 30), 10 ** 30)
        x = tuple(
            tuple(data.draw(entries) for _ in range(dim)) for _ in range(dim)
        )
        assert IntegerMatrixGroup(dim).canonical_key(x) == self._joined_key(x)
