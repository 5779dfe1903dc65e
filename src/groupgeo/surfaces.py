"""Surface signature arithmetic and the small mapping-class-group catalog.

A signature records orientability, genus, boundary components and punctures.
This module does no topology: it computes Euler characteristics, the
orientation double cover of a nonorientable signature, the two exceptional
low-genus cases, and table lookups for the surfaces whose mapping class
groups are small enough to carry explicit presentations and models.
Complement components for the admissibility checks are caller-supplied data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import InadmissiblePair, NotNonorientable
from .groups import (
    FreeGroupModel,
    IntegerMatrixGroup,
    MarkedGroup,
    TableGroup,
)
from .words import Alphabet, Presentation

_SIG_RE = re.compile(r"^([SN])(\d+)(?:,(\d+))?(?:\^(\d+))?$")


@dataclass(frozen=True)
class SurfaceSig:
    """orientable genus-g surface with b boundary components and p punctures
    (S g,p^b), or its nonorientable counterpart (N g,p^b, g >= 1)."""

    orientable: bool
    genus: int
    boundary: int = 0
    punctures: int = 0

    def __post_init__(self):
        if min(self.genus, self.boundary, self.punctures) < 0:
            raise ValueError("signature counts must be non-negative")
        if not self.orientable and self.genus < 1:
            raise ValueError("nonorientable surfaces have genus >= 1")

    def __str__(self) -> str:
        s = ("S" if self.orientable else "N") + str(self.genus)
        if self.punctures:
            s += f",{self.punctures}"
        if self.boundary:
            s += f"^{self.boundary}"
        return s

    @classmethod
    def parse(cls, text: str) -> "SurfaceSig":
        m = _SIG_RE.match(text.strip())
        if not m:
            raise ValueError(f"bad surface signature {text!r}")
        kind, g, p, b = m.groups()
        return cls(
            orientable=kind == "S",
            genus=int(g),
            punctures=int(p or 0),
            boundary=int(b or 0),
        )


def euler_characteristic(s: SurfaceSig) -> int:
    if s.orientable:
        return 2 - 2 * s.genus - s.boundary - s.punctures
    return 2 - s.genus - s.boundary - s.punctures


def orientation_double_cover(n: SurfaceSig) -> SurfaceSig:
    """The orientable double cover of N g,p^b, namely S (g-1),2p^2b."""
    if n.orientable:
        raise NotNonorientable(f"{n} is orientable")
    return SurfaceSig(
        orientable=True,
        genus=n.genus - 1,
        boundary=2 * n.boundary,
        punctures=2 * n.punctures,
    )


def exceptional_case(n: SurfaceSig) -> str:
    """'klein_bottle' for N2, 'projective_plane' for N1, else 'none'.

    These are the closed low-genus surfaces where the usual lift of mapping
    classes to the double cover is unavailable or fails to embed.
    """
    if n.orientable:
        raise NotNonorientable(f"{n} is orientable")
    if (n.genus, n.boundary, n.punctures) == (2, 0, 0):
        return "klein_bottle"
    if (n.genus, n.boundary, n.punctures) == (1, 0, 0):
        return "projective_plane"
    return "none"


@dataclass
class CatalogEntry:
    signature: SurfaceSig
    group_name: str
    model_factory: Optional[Callable[[], MarkedGroup]]
    note: str

    def model(self) -> Optional[MarkedGroup]:
        return self.model_factory() if self.model_factory else None

    @property
    def presentation(self) -> Optional[Presentation]:
        """The model's presentation, built on each access; None without a
        model."""
        G = self.model()
        return None if G is None else G.presentation


def trivial_marked_group(name: str = "trivial") -> MarkedGroup:
    return MarkedGroup(
        model=TableGroup(("1",), ((0,),)),
        alphabet=Alphabet(()),
        marking=(),
        presentation=Presentation(Alphabet(())),
        name=name,
    )


def cyclic_two_marked_group() -> MarkedGroup:
    model = TableGroup(("1", "x"), ((0, 1), (1, 0)))
    return MarkedGroup(
        model=model,
        alphabet=Alphabet(("x",)),
        marking=(1,),
        presentation=Presentation.parse(("x",), ("x x",)),
        name="Z2",
    )


def infinite_cyclic_marked_group() -> MarkedGroup:
    model = FreeGroupModel(1)
    return MarkedGroup(
        model=model,
        alphabet=Alphabet(("t",)),
        marking=(model.generator(0),),
        presentation=Presentation(Alphabet(("t",))),
        norm_oracle=len,
        name="Z",
    )


def sl2z_marked_group() -> MarkedGroup:
    """SL(2, Z) marked by the standard torus mapping classes a -> S, b -> U;
    a^4, b^6 and a^2 b^-3 all hold (S^2 = U^3 = -I)."""
    model = IntegerMatrixGroup(2)
    s = model.element([[0, -1], [1, 0]])
    u = model.element([[0, -1], [1, 1]])
    return MarkedGroup(
        model=model,
        alphabet=Alphabet(("a", "b")),
        marking=(s, u),
        presentation=Presentation.parse(
            ("a", "b"),
            ("a a a a", "b b b b b b", "a a b^-1 b^-1 b^-1"),
        ),
        name="sl2z",
    )


def klein_four_marked_group() -> MarkedGroup:
    model = TableGroup.klein_four()
    return MarkedGroup(
        model=model,
        alphabet=Alphabet(("x", "y")),
        marking=(model.index_of("x"), model.index_of("y")),
        presentation=Presentation.parse(
            ("x", "y"), ("x x", "y y", "x y x^-1 y^-1")
        ),
        name="kleinfour",
    )


def _catalog() -> dict[str, CatalogEntry]:
    trivial_sigs = ("S0", "S0,1", "S0^1", "S0,1^1")
    entries = {}
    for sig in trivial_sigs:
        entries[sig] = CatalogEntry(
            SurfaceSig.parse(sig), "trivial", trivial_marked_group,
            "low-complexity orientable surface with trivial mapping class group",
        )
    entries["S0,2"] = CatalogEntry(
        SurfaceSig.parse("S0,2"), "Z2", cyclic_two_marked_group,
        "twice-punctured sphere: the puncture swap generates Z2",
    )
    entries["S0^2"] = CatalogEntry(
        SurfaceSig.parse("S0^2"), "Z", infinite_cyclic_marked_group,
        "annulus: generated by the twist along the core curve",
    )
    entries["S1"] = CatalogEntry(
        SurfaceSig.parse("S1"), "SL(2,Z)", sl2z_marked_group,
        "torus: mapping classes act on first homology",
    )
    entries["N1"] = CatalogEntry(
        SurfaceSig.parse("N1"), "trivial", trivial_marked_group,
        "projective plane has trivial mapping class group",
    )
    entries["N2"] = CatalogEntry(
        SurfaceSig.parse("N2"), "Z2 x Z2", klein_four_marked_group,
        "Klein bottle: Z2 x Z2, never embeds in the torus mapping class group",
    )
    return entries


_CATALOG = _catalog()


def small_mcg_lookup(s: SurfaceSig) -> Optional[CatalogEntry]:
    """Catalog entry for the surfaces with known small mapping class groups,
    or None when the signature is outside the fixed table."""
    return _CATALOG.get(str(s))


_TWIST_TABLE = {
    "N1,1^1": ("Z", ("Dehn twist along the unique peripheral closed curve",)),
    "N1^2": (
        "Z^2",
        (
            "Dehn twist along a curve parallel to one boundary component",
            "Dehn twist along a curve parallel to the other boundary component",
        ),
    ),
    "N2^1": (
        "Z^2",
        (
            "Dehn twist along a peripheral closed curve",
            "Dehn twist along a two-sided generic closed curve",
        ),
    ),
}


def twist_subgroup_lookup(s: SurfaceSig) -> Optional[CatalogEntry]:
    """The twist subgroup for the three low-complexity nonorientable cases."""
    hit = _TWIST_TABLE.get(str(s))
    if hit is None:
        return None
    name, gens = hit
    return CatalogEntry(s, name, None, "; ".join(gens))


@dataclass
class ComponentVerdict:
    signature: SurfaceSig
    chi: int
    negative: bool
    case: Optional[str]  # a | b | c | d, only for negative components


@dataclass
class AdmissibilityReport:
    components: list[ComponentVerdict]

    @property
    def admissible(self) -> bool:
        return all(c.negative for c in self.components)


def _component_case(s: SurfaceSig) -> str:
    if s.orientable:
        if s.genus == 0 and s.boundary + s.punctures == 3:
            return "b"
        return "a"
    if s.genus + s.boundary + s.punctures == 3:
        return "d"
    return "c"


def admissible_pair_check(
    F: SurfaceSig, components: Sequence[SurfaceSig]
) -> AdmissibilityReport:
    """Per-component negative-Euler-characteristic verdicts for a subsurface
    complement, with each negative component classified into the four
    complexity cases: (a) orientable with genus or at least four
    boundary/puncture ends, (b) orientable pair of pants, (c) nonorientable
    of complexity at least four, (d) nonorientable of complexity three."""
    out = []
    for s in components:
        chi = euler_characteristic(s)
        neg = chi < 0
        out.append(ComponentVerdict(s, chi, neg, _component_case(s) if neg else None))
    return AdmissibilityReport(out)


_ONE_HOLED_KLEIN = SurfaceSig(orientable=False, genus=2, boundary=1)


def excess_rank(
    F: SurfaceSig,
    F_prime: SurfaceSig,
    components: Sequence[SurfaceSig],
    boundary_outside: int,
) -> int:
    """Free-abelian excess rank: boundary components of F outside F' plus
    the number of complement components that are one-holed Klein bottles."""
    report = admissible_pair_check(F, components)
    if not report.admissible:
        bad = [str(c.signature) for c in report.components if not c.negative]
        raise InadmissiblePair(f"components with chi >= 0: {', '.join(bad)}")
    if boundary_outside < 0:
        raise ValueError("boundary_outside must be non-negative")
    return boundary_outside + sum(1 for s in components if s == _ONE_HOLED_KLEIN)


def all_nonorientable_signatures(max_complexity: int):
    """Every nonorientable signature with g + b + p <= max_complexity,
    ordered by (complexity, g, b, p)."""
    out = []
    for total in range(1, max_complexity + 1):
        for g in range(1, total + 1):
            for b in range(0, total - g + 1):
                p = total - g - b
                out.append(SurfaceSig(orientable=False, genus=g, boundary=b, punctures=p))
    return out
