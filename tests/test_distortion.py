import io
from fractions import Fraction

import pytest

from groupgeo import cayley, distortion
from groupgeo.errors import TooFewPoints
from groupgeo.experiments import (
    AmbientAsSubgroup,
    _bs12_axis_exponent,
    _heis_center_exponent,
    get_group,
)
from groupgeo.groups import MarkedHomomorphism, evaluate


def _z_in_z2():
    G = get_group("z2")
    return G, distortion.DirectFactor(G, 0, len)


def _a_in_bs12():
    G = get_group("bs12")
    return G, distortion.CyclicExact(G, G.marking[0], _bs12_axis_exponent)


def _center_in_heis3():
    G = get_group("heis3")
    z = G.model.element([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    return G, distortion.CyclicExact(G, z, _heis_center_exponent)


def _reference_subgroup_bfs(model, gens, cap_radius):
    """key -> length over the subgroup generated by ``gens``, up to the cap,
    and whether an empty layer was reached: a plain BFS over products."""
    gens = list(gens) + [model.invert(g) for g in gens]
    lengths = {model.canonical_key(model.identity): 0}
    frontier = [model.identity]
    for r in range(1, cap_radius + 1):
        nxt = []
        for h in frontier:
            for s in gens:
                e = model.multiply(h, s)
                ek = model.canonical_key(e)
                if ek not in lengths:
                    lengths[ek] = r
                    nxt.append(e)
        frontier = nxt
        if not frontier:
            return lengths, True
    return lengths, False


class TestOracles:
    def test_cyclic_exact_membership(self):
        G, H = _a_in_bs12()
        a = G.marking[0]
        t = G.marking[1]
        assert H.contains(G.model.power(a, 5))
        assert H.length_in_H(G.model.power(a, -7)) == 7
        assert not H.contains(t)
        assert H.is_exact

    def test_ambient_subgroup_lengths_up_to_the_cap(self):
        G = get_group("free2")
        idx = cayley.ball(G, 4)
        H = AmbientAsSubgroup(G, 3)
        lengths = [H.length_in_H(g) for g in idx.elements]
        assert lengths == [int(d) if d <= 3 else None for d in idx.depth]

    def test_ambient_subgroup_needs_a_norm_oracle(self):
        with pytest.raises(ValueError, match="heis3"):
            AmbientAsSubgroup(get_group("heis3"), 3)

    def test_direct_factor(self):
        G, H = _z_in_z2()
        x = evaluate(G.alphabet.parse_word("x x x"), G)
        y = evaluate(G.alphabet.parse_word("y"), G)
        assert H.contains(x) and H.length_in_H(x) == 3
        assert not H.contains(y)

    def test_hom_image(self):
        # Z -> Z^2 hitting the first factor
        G = get_group("z2")
        source = get_group("free2")  # used only for its rank-1 sub-marking? no:
        # build a genuine rank-1 source
        from groupgeo.groups import FreeGroupModel, MarkedGroup
        from groupgeo.words import Alphabet, Presentation

        model = FreeGroupModel(1)
        src = MarkedGroup(
            model=model, alphabet=Alphabet(("t",)),
            marking=(model.generator(0),),
            presentation=Presentation(Alphabet(("t",))),
        )
        hom = MarkedHomomorphism(src, G, (G.alphabet.parse_word("x"),))
        H = distortion.HomImage(hom, source_radius=6)
        x2 = evaluate(G.alphabet.parse_word("x x"), G)
        assert H.contains(x2) and H.length_in_H(x2) == 2
        assert not H.is_exact  # Z is infinite, the source ball never closes

    def test_enumerated_with_cap_flags_lower_bounds(self):
        G = get_group("free2")
        x = G.model.generator(0)
        H = distortion.EnumeratedWithCap(G, [x], cap_radius=3)
        assert H.contains(G.model.power(x, 3))
        assert H.length_in_H(G.model.power(x, 3)) == 3
        assert not H.contains(G.model.power(x, 4))  # capped, hence inexact
        assert not H.is_exact

    def test_enumerated_exhausts_finite_group(self):
        G = get_group("kleinfour")
        H = distortion.EnumeratedWithCap(G, [G.marking[0]], cap_radius=5)
        assert H.is_exact
        assert H.length_in_H(G.marking[0]) == 1

    @pytest.mark.parametrize("group, words, cap", [
        ("z2", ("x y", "x"), 4),
        ("heis3", ("a", "a b a^-1 b^-1"), 4),
        ("sl2z", ("a", "b b"), 5),
        ("free2", ("x y", "y x^-1"), 3),
        ("kleinfour", ("x", "y"), 1),
        ("kleinfour", ("x", "y"), 2),  # exhausted exactly at the cap
        ("kleinfour", ("x", "y"), 3),
        ("braid3", ("s1 s2",), 4),
    ])
    def test_enumerated_matches_reference_bfs(self, group, words, cap):
        G = get_group(group)
        gens = [evaluate(G.alphabet.parse_word(w), G) for w in words]
        H = distortion.EnumeratedWithCap(G, gens, cap_radius=cap)
        lengths, exhausted = _reference_subgroup_bfs(G.model, gens, cap)
        assert {k: H._depth[v] for k, v in H._index.items()} == lengths
        assert H.is_exact == exhausted

    def test_enumerated_exact_only_after_an_empty_layer(self):
        # the Klein four ball closes at radius 2: at cap 2 the oracle has not
        # yet seen the empty layer
        G = get_group("kleinfour")
        assert not distortion.EnumeratedWithCap(G, G.marking, cap_radius=2).is_exact
        assert distortion.EnumeratedWithCap(G, G.marking, cap_radius=3).is_exact

    def test_enumerated_cap_boundary(self):
        G = get_group("free2")
        n = 1 + 4 + 12 + 36  # |B(3)| of the rank-2 free group
        H = distortion.EnumeratedWithCap(G, G.marking, cap_radius=3)
        assert len(H._index) == n


class TestDistortionProfile:
    def test_z_in_z2_is_identity_profile(self):
        G, H = _z_in_z2()
        p = distortion.distortion_profile(G, H, 12)
        assert [e.delta for e in p.entries] == list(range(1, 13))
        assert all(e.exact for e in p.entries)

    def test_monotone(self):
        G, H = _a_in_bs12()
        p = distortion.distortion_profile(G, H, 9)
        deltas = [e.delta for e in p.entries]
        assert deltas == sorted(deltas)

    def test_bs12_small_values(self):
        G, H = _a_in_bs12()
        p = distortion.distortion_profile(G, H, 5)
        assert p.entries[2].delta == 3  # delta(3) = 3

    def test_bs12_exponential_lower_bounds(self):
        G, H = _a_in_bs12()
        p = distortion.distortion_profile(G, H, 17)
        for n in range(1, 9):
            assert p.entries[2 * n].delta >= 2 ** n  # entry index 2n is delta(2n+1)

    def test_heisenberg_quadratic_lower_bounds(self):
        G, H = _center_in_heis3()
        p = distortion.distortion_profile(G, H, 24)
        for n in range(1, 7):
            assert p.entries[4 * n - 1].delta >= n * n

    def test_witnesses_recheck(self):
        G, H = _z_in_z2()
        p = distortion.distortion_profile(G, H, 6)
        for e in p.entries:
            g = evaluate(G.alphabet.parse_word(e.witness_word), G)
            assert H.contains(g)
            assert H.length_in_H(g) == e.delta
            assert cayley.word_length_of(g, G, e.n) is not None

    def test_capped_oracle_marks_entries(self):
        G = get_group("free2")
        H = distortion.EnumeratedWithCap(G, [G.model.generator(0)], cap_radius=2)
        p = distortion.distortion_profile(G, H, 5)
        assert not p.entries[-1].exact

    def test_rejects_zero_n_max(self):
        G, H = _z_in_z2()
        with pytest.raises(ValueError):
            distortion.distortion_profile(G, H, 0)

    def test_csv_format(self):
        G, H = _z_in_z2()
        p = distortion.distortion_profile(G, H, 4)
        buf = io.StringIO()
        p.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,delta,exact,witness_key,witness_word,dH"
        assert len(lines) == 5
        assert lines[1].startswith("1,1,exact,")


class TestClassifyGrowth:
    def test_linear_sequence(self):
        verdict = distortion.classify_growth(
            distortion.profile_from_values([1, 2, 3, 4, 5, 6])
        )
        assert str(verdict) == "linear"

    def test_exponential_sequence(self):
        verdict = distortion.classify_growth(
            distortion.profile_from_values([1, 2, 4, 8, 16, 32])
        )
        assert str(verdict) == "exponential"

    def test_quadratic_sequence(self):
        verdict = distortion.classify_growth(
            distortion.profile_from_values([n * n for n in range(1, 9)])
        )
        assert str(verdict) == "polynomial(2)"

    def test_bounded_sequence(self):
        verdict = distortion.classify_growth(
            distortion.profile_from_values([1, 2, 2, 2, 2, 2, 2])
        )
        assert str(verdict) == "bounded"

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            distortion.classify_growth(distortion.profile_from_values([1, 2, 3]))

    def test_bs12_profile_is_exponential(self):
        G, H = _a_in_bs12()
        p = distortion.distortion_profile(G, H, 17)
        assert str(distortion.classify_growth(p)) == "exponential"


class TestUndistortedCheck:
    def test_z_in_z2_true_with_k_one(self):
        G, H = _z_in_z2()
        verdict = distortion.undistorted_check(distortion.distortion_profile(G, H, 12))
        assert verdict.verdict is True
        assert verdict.K == Fraction(1)

    def test_self_subgroup_true(self):
        G = get_group("free2")
        p = distortion.distortion_profile(G, AmbientAsSubgroup(G, 8), 8)
        verdict = distortion.undistorted_check(p)
        assert verdict.verdict is True
        assert verdict.K == Fraction(1)

    def test_bs12_false_with_growing_ratio(self):
        G, H = _a_in_bs12()
        verdict = distortion.undistorted_check(distortion.distortion_profile(G, H, 17))
        assert verdict.verdict is False
        tail = verdict.ratios[-3:]
        assert tail == sorted(tail)  # strictly climbing ratios

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            distortion.undistorted_check(distortion.profile_from_values([1, 2]))
