import pytest
from hypothesis import given, strategies as st

from groupgeo import surfaces
from groupgeo.errors import InadmissiblePair, NotNonorientable
from groupgeo.groups import verify_presentation
from groupgeo.surfaces import SurfaceSig


class TestSignatures:
    @pytest.mark.parametrize(
        "text,orientable,g,p,b",
        [
            ("S0", True, 0, 0, 0),
            ("S2,1", True, 2, 1, 0),
            ("S0^2", True, 0, 0, 2),
            ("N3,1^2", False, 3, 1, 2),
            ("N1,1^1", False, 1, 1, 1),
        ],
    )
    def test_parse(self, text, orientable, g, p, b):
        s = SurfaceSig.parse(text)
        assert (s.orientable, s.genus, s.punctures, s.boundary) == (orientable, g, p, b)

    def test_format_roundtrip(self):
        for text in ("S0", "S1", "S0,2", "S0^2", "N3,1^2", "N2^1", "S0,1^1"):
            assert str(SurfaceSig.parse(text)) == text

    @given(
        st.booleans(),
        st.integers(0, 10),
        st.integers(0, 10),
        st.integers(0, 10),
    )
    def test_roundtrip_property(self, orientable, g, b, p):
        if not orientable and g == 0:
            g = 1
        s = SurfaceSig(orientable=orientable, genus=g, boundary=b, punctures=p)
        assert SurfaceSig.parse(str(s)) == s

    def test_rejects_garbage(self):
        for bad in ("", "T1", "S-1", "S1,", "N0x"):
            with pytest.raises(ValueError):
                SurfaceSig.parse(bad)

    def test_rejects_nonorientable_genus_zero(self):
        with pytest.raises(ValueError):
            SurfaceSig(orientable=False, genus=0)
        with pytest.raises(ValueError):
            SurfaceSig.parse("N0")

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            SurfaceSig(orientable=True, genus=1, boundary=-1)


class TestEulerCharacteristic:
    @pytest.mark.parametrize(
        "text,chi",
        [
            ("S0", 2),
            ("S1", 0),
            ("S2", -2),
            ("S0,3", -1),
            ("S0^2", 0),
            ("N1", 1),
            ("N2", 0),
            ("N3,1^2", -4),
            ("N2^1", -1),
        ],
    )
    def test_values(self, text, chi):
        assert surfaces.euler_characteristic(SurfaceSig.parse(text)) == chi


class TestDoubleCover:
    @pytest.mark.parametrize(
        "nonorientable,cover",
        [
            ("N1", "S0"),
            ("N2", "S1"),
            ("N3,1^2", "S2,2^4"),
            ("N2^1", "S1^2"),
        ],
    )
    def test_cover_signatures(self, nonorientable, cover):
        got = surfaces.orientation_double_cover(SurfaceSig.parse(nonorientable))
        assert str(got) == cover

    def test_chi_doubles(self):
        for s in surfaces.all_nonorientable_signatures(8):
            cover = surfaces.orientation_double_cover(s)
            assert surfaces.euler_characteristic(cover) == 2 * surfaces.euler_characteristic(s)

    def test_rejects_orientable(self):
        with pytest.raises(NotNonorientable):
            surfaces.orientation_double_cover(SurfaceSig.parse("S1"))


class TestExceptionalCases:
    def test_klein_bottle(self):
        assert surfaces.exceptional_case(SurfaceSig.parse("N2")) == "klein_bottle"

    def test_projective_plane(self):
        assert surfaces.exceptional_case(SurfaceSig.parse("N1")) == "projective_plane"

    def test_punctures_disqualify(self):
        assert surfaces.exceptional_case(SurfaceSig.parse("N2,1")) == "none"
        assert surfaces.exceptional_case(SurfaceSig.parse("N1^1")) == "none"
        assert surfaces.exceptional_case(SurfaceSig.parse("N3")) == "none"

    def test_rejects_orientable(self):
        with pytest.raises(NotNonorientable):
            surfaces.exceptional_case(SurfaceSig.parse("S0"))


class TestCatalog:
    def test_lookup_hits(self):
        entry = surfaces.small_mcg_lookup(SurfaceSig.parse("S1"))
        assert entry is not None and entry.group_name == "SL(2,Z)"
        entry = surfaces.small_mcg_lookup(SurfaceSig.parse("N2"))
        assert entry is not None and entry.group_name == "Z2 x Z2"

    def test_lookup_misses(self):
        assert surfaces.small_mcg_lookup(SurfaceSig.parse("S3")) is None
        assert surfaces.small_mcg_lookup(SurfaceSig.parse("N4")) is None

    def test_trivial_entries(self):
        for text in ("S0", "S0,1", "S0^1", "S0,1^1", "N1"):
            entry = surfaces.small_mcg_lookup(SurfaceSig.parse(text))
            assert entry is not None and entry.group_name == "trivial"

    def test_models_satisfy_their_presentations(self):
        for entry in (
            surfaces.small_mcg_lookup(SurfaceSig.parse(t))
            for t in ("S0", "S0,2", "S0^2", "S1", "N1", "N2")
        ):
            G = entry.model()
            assert G is not None
            report = verify_presentation(G, entry.presentation)
            assert report.ok, f"{entry.group_name}: {report}"

    def test_every_entry_reads_its_models_presentation(self):
        relators = {}
        for sig, entry in surfaces._CATALOG.items():
            G, P = entry.model(), entry.presentation
            assert P == G.presentation and P.alphabet == G.alphabet
            relators[sig] = tuple(P.alphabet.format_word(r) for r in P.relators)
        assert relators == {
            "S0": (), "S0,1": (), "S0^1": (), "S0,1^1": (), "S0^2": (), "N1": (),
            "S0,2": ("x x",),
            "S1": ("a a a a", "b b b b b b", "a a b^-1 b^-1 b^-1"),
            "N2": ("x x", "y y", "x y x^-1 y^-1"),
        }

    def test_annulus_model_is_infinite_cyclic(self):
        G = surfaces.small_mcg_lookup(SurfaceSig.parse("S0^2")).model()
        t = G.marking[0]
        m = G.model
        assert m.canonical_key(m.power(t, 3)) != m.canonical_key(m.identity)


class TestTwistSubgroups:
    def test_known_cases(self):
        assert surfaces.twist_subgroup_lookup(SurfaceSig.parse("N1,1^1")).group_name == "Z"
        assert surfaces.twist_subgroup_lookup(SurfaceSig.parse("N1^2")).group_name == "Z^2"
        assert surfaces.twist_subgroup_lookup(SurfaceSig.parse("N2^1")).group_name == "Z^2"

    def test_entries_carry_no_presentation(self):
        for text in ("N1,1^1", "N1^2", "N2^1"):
            entry = surfaces.twist_subgroup_lookup(SurfaceSig.parse(text))
            assert entry.presentation is None and entry.model() is None

    def test_misses(self):
        assert surfaces.twist_subgroup_lookup(SurfaceSig.parse("N1")) is None
        assert surfaces.twist_subgroup_lookup(SurfaceSig.parse("N3")) is None


class TestAdmissibility:
    CASES = [
        # orientable, generic complexity -> (a)
        ("S1^1", "a"),
        ("S2", "a"),
        ("S0,4", "a"),
        ("S0,2^2", "a"),
        ("S1,1", "a"),
        # orientable pair of pants -> (b)
        ("S0,3", "b"),
        ("S0^3", "b"),
        ("S0,1^2", "b"),
        # nonorientable, complexity >= 4 -> (c)
        ("N4", "c"),
        ("N2,2", "c"),
        ("N1,3", "c"),
        ("N2^2", "c"),
        # nonorientable, complexity exactly 3 -> (d)
        ("N3", "d"),
        ("N1,2", "d"),
        ("N2^1", "d"),
        ("N1,1^1", "d"),
    ]

    @pytest.mark.parametrize("text,case", CASES)
    def test_negative_components_classify(self, text, case):
        F = SurfaceSig.parse("N7")
        report = surfaces.admissible_pair_check(F, [SurfaceSig.parse(text)])
        [verdict] = report.components
        assert verdict.chi < 0
        assert verdict.negative
        assert verdict.case == case
        assert report.admissible

    def test_nonnegative_component_blocks(self):
        F = SurfaceSig.parse("N5")
        report = surfaces.admissible_pair_check(
            F, [SurfaceSig.parse("S0,3"), SurfaceSig.parse("S0^2")]
        )
        assert not report.admissible
        annulus = report.components[1]
        assert annulus.chi == 0 and annulus.case is None


class TestExcessRank:
    def test_zero_when_nothing_contributes(self):
        r = surfaces.excess_rank(
            SurfaceSig.parse("N5"),
            SurfaceSig.parse("N3^1"),
            [SurfaceSig.parse("N2,2")],
            boundary_outside=0,
        )
        assert r == 0

    def test_counts_one_holed_klein_bottles(self):
        r = surfaces.excess_rank(
            SurfaceSig.parse("N7"),
            SurfaceSig.parse("N3^2"),
            [SurfaceSig.parse("N2^1"), SurfaceSig.parse("N2^1")],
            boundary_outside=0,
        )
        assert r == 2

    def test_adds_outside_boundary(self):
        r = surfaces.excess_rank(
            SurfaceSig.parse("N6^1"),
            SurfaceSig.parse("N3^1"),
            [SurfaceSig.parse("N2^1")],
            boundary_outside=2,
        )
        assert r == 3

    def test_inadmissible_raises(self):
        with pytest.raises(InadmissiblePair):
            surfaces.excess_rank(
                SurfaceSig.parse("N5"),
                SurfaceSig.parse("N3^1"),
                [SurfaceSig.parse("S0^2")],
                boundary_outside=0,
            )

    def test_negative_outside_boundary_rejected(self):
        with pytest.raises(ValueError):
            surfaces.excess_rank(
                SurfaceSig.parse("N5"),
                SurfaceSig.parse("N3^1"),
                [SurfaceSig.parse("N2^1")],
                boundary_outside=-1,
            )


class TestSignatureEnumeration:
    def test_counts(self):
        sigs = surfaces.all_nonorientable_signatures(3)
        # complexity 1: N1; complexity 2: three; complexity 3: six
        assert len(sigs) == 1 + 3 + 6
        assert str(sigs[0]) == "N1"
        assert len(set(sigs)) == len(sigs)

    def test_all_within_bound(self):
        for s in surfaces.all_nonorientable_signatures(6):
            assert s.genus + s.boundary + s.punctures <= 6
            assert not s.orientable
