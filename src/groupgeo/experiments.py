"""Named end-to-end experiments over a fixed zoo of exactly-solvable groups.

Each experiment returns an ExperimentReport whose verdict is recomputable
from its own CSV tables, and whose tables are byte-identical from run to
run.  The zoo members all carry proven-exact canonical forms:

* ``z2``        free abelian of rank 2 (product of two rank-1 free groups)
* ``free2``     free group of rank 2
* ``sl2z``      SL(2, Z) as integer matrices, marked by torus mapping classes
* ``bs12``      Baumslag-Solitar BS(1,2) as dyadic affine maps
* ``heis3``     integral Heisenberg group (unitriangular 3x3 matrices)
* ``braid3``    braid group on 3 strands in Garside normal form
* ``kleinfour`` Z2 x Z2 as a multiplication table
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import cayley, combing, distortion, surfaces
from .errors import GroupGeoError, MissingPresentation
from .garside import BraidGroup
from .groups import (
    DirectProduct,
    DyadicAffineGroup,
    Element,
    FreeGroupModel,
    IntegerMatrixGroup,
    MarkedGroup,
    MarkedHomomorphism,
    TableGroup,
    evaluate,
    injectivity_on_ball,
    order_of_element,
    verify_homomorphism,
    verify_presentation,
)
from .words import Alphabet, Presentation, Word


# --------------------------------------------------------------------------
# zoo
# --------------------------------------------------------------------------

def _z2_group() -> MarkedGroup:
    f1, f2 = FreeGroupModel(1), FreeGroupModel(1)
    model = DirectProduct((f1, f2))
    x = (f1.generator(0), f2.identity)
    y = (f1.identity, f2.generator(0))
    return MarkedGroup(
        model=model,
        alphabet=Alphabet(("x", "y")),
        marking=(x, y),
        presentation=Presentation.parse(("x", "y"), ("x y x^-1 y^-1",)),
        norm_oracle=lambda g: len(g[0]) + len(g[1]),
        name="z2",
    )


def _free2_group() -> MarkedGroup:
    model = FreeGroupModel(2)
    return MarkedGroup(
        model=model,
        alphabet=Alphabet(("x", "y")),
        marking=(model.generator(0), model.generator(1)),
        presentation=Presentation(Alphabet(("x", "y"))),
        norm_oracle=len,
        name="free2",
    )


def _bs12_group() -> MarkedGroup:
    model = DyadicAffineGroup()
    a = model.element(0, 1)   # x -> x + 1
    t = model.element(1, 0)   # x -> 2x
    return MarkedGroup(
        model=model,
        alphabet=Alphabet(("a", "t")),
        marking=(a, t),
        presentation=Presentation.parse(("a", "t"), ("t a t^-1 a^-1 a^-1",)),
        name="bs12",
    )


def _heis3_group() -> MarkedGroup:
    model = IntegerMatrixGroup(3)
    a = model.element([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = model.element([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    return MarkedGroup(
        model=model,
        alphabet=Alphabet(("a", "b")),
        marking=(a, b),
        presentation=Presentation.parse(
            ("a", "b"),
            (
                # both generators commute with the commutator z = [a, b]
                "a a b a^-1 b^-1 a^-1 b a b^-1 a^-1",
                "b a b a^-1 b^-1 a b^-1 a^-1",
            ),
        ),
        name="heis3",
    )


def _braid3_group() -> MarkedGroup:
    model = BraidGroup(3)
    return MarkedGroup(
        model=model,
        alphabet=Alphabet(("s1", "s2")),
        marking=(model.generator(0), model.generator(1)),
        presentation=Presentation.parse(
            ("s1", "s2"), ("s1 s2 s1 s2^-1 s1^-1 s2^-1",)
        ),
        name="braid3",
    )


_ZOO: dict[str, Callable[[], MarkedGroup]] = {
    "z2": _z2_group,
    "free2": _free2_group,
    "sl2z": surfaces.sl2z_marked_group,
    "bs12": _bs12_group,
    "heis3": _heis3_group,
    "braid3": _braid3_group,
    "kleinfour": surfaces.klein_four_marked_group,
}


def zoo_names() -> list[str]:
    return sorted(_ZOO)


def get_group(name: str) -> MarkedGroup:
    try:
        return _ZOO[name]()
    except KeyError:
        raise KeyError(f"unknown group {name!r}; known: {', '.join(zoo_names())}")


# --------------------------------------------------------------------------
# JSON group configs (user-supplied groups)
# --------------------------------------------------------------------------

def _required(config: dict, key: str):
    if key not in config:
        raise KeyError(f"missing field {key!r}")
    return config[key]


def group_from_config(config: dict) -> MarkedGroup:
    """Build a MarkedGroup from a JSON config.

    Schema: ``{"kind": "table"|"matrix"|"dyadic_affine"|"free"|"braid"|
    "product", "alphabet": [names...], "marking": {name: kind-specific...},
    "presentation": {"relators": ["a a a a", ...]}}``, plus kind-specific
    fields: ``names``/``table`` for tables, ``dim`` for matrix groups
    (entries may be decimal integer strings of any width), ``strands`` for
    braids (marking entries are Artin generator indices), ``factors`` for
    products (sub-configs; their alphabets concatenate and the marking is
    implicit).  Free groups take the standard generators and no
    ``marking``; braids may omit it.  A missing field, a generator with no
    marking, or a ``marking`` on a free or product config raises KeyError
    naming it.
    """
    kind = _required(config, "kind")
    if kind in ("free", "product") and "marking" in config:
        raise KeyError(f"unexpected field 'marking' for kind {kind!r}")
    name = config.get("name")
    names = tuple(config.get("alphabet", ()))
    marking_data: dict = config.get("marking", {})

    def marked(fn):
        for n in names:
            if n not in marking_data:
                raise KeyError(f"generator {n!r} has no marking")
        return tuple(fn(marking_data[n]) for n in names)

    if kind == "table":
        model = TableGroup(
            _required(config, "names"), _required(config, "table"), config.get("identity", 0)
        )
        marking = marked(model.index_of)
    elif kind == "matrix":
        model = IntegerMatrixGroup(_required(config, "dim"))
        marking = marked(lambda rows: model.element([[int(v) for v in r] for r in rows]))
    elif kind == "dyadic_affine":
        model = DyadicAffineGroup()
        marking = marked(lambda triple: model.element(*(int(v) for v in triple)))
    elif kind == "free":
        model = FreeGroupModel(len(names))
        marking = tuple(model.generator(i) for i in range(len(names)))
    elif kind == "braid":
        model = BraidGroup(_required(config, "strands"))
        if not names:
            names = tuple(f"s{i + 1}" for i in range(config["strands"] - 1))
        if marking_data:
            marking = marked(model.generator)
        else:
            marking = tuple(model.generator(i) for i in range(len(names)))
    elif kind == "product":
        factors = [group_from_config(c) for c in _required(config, "factors")]
        model = DirectProduct(tuple(f.model for f in factors))
        parts = []
        marking_list = []
        for i, f in enumerate(factors):
            parts.extend(f.alphabet.generators)
            for g in f.marking:
                marking_list.append(
                    tuple(
                        g if j == i else factors[j].model.identity
                        for j in range(len(factors))
                    )
                )
        names = tuple(parts)
        marking = tuple(marking_list)
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    alphabet = Alphabet(names)
    presentation = None
    if "presentation" in config:
        presentation = Presentation(
            alphabet,
            tuple(alphabet.parse_word(r) for r in _required(config["presentation"], "relators")),
        )
    return MarkedGroup(
        model=model, alphabet=alphabet, marking=marking,
        presentation=presentation, name=name,
    )


def resolve_group(spec: str) -> MarkedGroup:
    """A zoo name, or a path to a JSON group config; a KeyError from the
    config names the file."""
    if spec in _ZOO:
        return _ZOO[spec]()
    try:
        fh = open(spec, "r", encoding="utf-8")
    except FileNotFoundError:
        raise KeyError(f"unknown group {spec!r}: not a zoo name "
                       f"({', '.join(zoo_names())}) and no such file") from None
    with fh:
        config = json.load(fh)
    try:
        return group_from_config(config)
    except KeyError as exc:
        raise KeyError(f"group config {spec}: {exc.args[0]}") from None


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    name: str
    inputs: dict
    expected: str
    observed: str
    tables: dict[str, str] = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    runtime: float = 0.0

    @property
    def verdict(self) -> bool:
        return self.expected == self.observed

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "expected": self.expected,
            "observed": self.observed,
            "verdict": self.verdict,
            "tables": self.tables,
            "witnesses": self.witnesses,
            "runtime_seconds": round(self.runtime, 3),
        }


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# --------------------------------------------------------------------------
# experiments
# --------------------------------------------------------------------------

_ORDER_CAP = 12  # covers every finite order in SL(2, Z): 1, 2, 3, 4, 6


def run_klein_check(
    radius: int,
    max_elements: int = cayley.DEFAULT_MAX_ELEMENTS,
) -> ExperimentReport:
    """Census of element orders in a ball of SL(2, Z).

    Exactly one element of order 2 exists (-I), so any homomorphism from
    Z2 x Z2 must send two of x, y, xy to the same element; no injective
    homomorphism Z2 x Z2 -> SL(2, Z) exists, and in particular the Klein
    bottle mapping class group does not embed into the torus one.
    """
    if radius < 2:
        raise ValueError("radius must be >= 2 to reach -I")
    start = time.perf_counter()
    G = get_group("sl2z")
    idx = cayley.ball(G, radius, max_elements=max_elements)
    census: dict[Optional[int], int] = {}
    order2_witnesses = []
    for v, g in enumerate(idx.elements):
        order = order_of_element(g, G.model, cap=_ORDER_CAP)
        census[order] = census.get(order, 0) + 1
        if order == 2:
            order2_witnesses.append(G.alphabet.format_word(idx.vertex_word(v)))
    rows = sorted(
        ((o if o is not None else "infinite_or_above_cap"), c)
        for o, c in census.items()
        if o is not None
    )
    rows.append(("infinite_or_above_cap", census.get(None, 0)))
    finite_orders = sorted(o for o in census if o is not None)
    observed = (
        "unique_order_2"
        if census.get(2, 0) == 1 and all(o in (1, 2, 3, 4, 6) for o in finite_orders)
        else "order_2_count=%d" % census.get(2, 0)
    )
    return ExperimentReport(
        name="klein-check",
        inputs={"group": "sl2z", "radius": radius},
        expected="unique_order_2",
        observed=observed,
        tables={"order_census": _csv_text(["order", "count"], rows)},
        witnesses={
            "order_2_elements": order2_witnesses,
            "conclusion": "no injective homomorphism Z2 x Z2 -> SL(2, Z)",
        },
        runtime=time.perf_counter() - start,
    )


def _exponent_in_free_rank1(codes: tuple) -> Optional[int]:
    if not codes:
        return 0
    if all(c == 0 for c in codes):
        return len(codes)
    if all(c == 1 for c in codes):
        return -len(codes)
    return None


def _bs12_axis_exponent(g) -> Optional[int]:
    k, num, exp = g
    return num if k == 0 and exp == 0 else None


def _bs12_axis_rows(rows):
    """The row form of ``_bs12_axis_exponent``'s test on packed (k, num, exp)."""
    return (rows[:, 0] == 0) & (rows[:, 2] == 0)


def _heis_center_exponent(m) -> Optional[int]:
    return m[0][2] if m[0][1] == 0 and m[1][2] == 0 else None


def _heis_center_rows(rows):
    """The row form of ``_heis_center_exponent``'s test on packed 3 x 3 rows."""
    return (rows[:, 1] == 0) & (rows[:, 5] == 0)


class AmbientAsSubgroup(distortion.SubgroupModel):
    """H = G with the identical marking; d_H is the ambient word length,
    read from G's norm oracle, which is required."""

    def __init__(self, ambient: MarkedGroup, cap: int):
        if ambient.norm_oracle is None:
            raise ValueError(
                f"AmbientAsSubgroup needs a norm oracle; group {ambient.name!r} has none"
            )
        self.ambient = ambient
        self.cap = cap

    def contains(self, g) -> bool:
        return True

    def length_in_H(self, g) -> Optional[int]:
        norm = self.ambient.norm_oracle(g)
        return norm if norm <= self.cap else None


def _suite_cases() -> list[dict]:
    return [
        {
            "name": "z-in-z2",
            "group": "z2",
            "n_max": 12,
            "expect": "linear",
            "subgroup": lambda G: distortion.DirectFactor(G, 0, lambda c: len(c)),
        },
        {
            "name": "a-in-bs12",
            "group": "bs12",
            "n_max": 17,
            "expect": "exponential",
            "subgroup": lambda G: distortion.CyclicExact(
                G, G.marking[0], _bs12_axis_exponent, row_filter=_bs12_axis_rows
            ),
        },
        {
            "name": "center-in-heis3",
            "group": "heis3",
            "n_max": 24,
            "expect": "polynomial(2)",
            "subgroup": lambda G: distortion.CyclicExact(
                G,
                G.model.element([[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
                _heis_center_exponent,
                row_filter=_heis_center_rows,
            ),
        },
        {
            "name": "diagonal-in-z2",
            "group": "z2",
            "n_max": 12,
            "expect": "linear",
            "subgroup": lambda G: distortion.CyclicExact(
                G,
                (G.model.factors[0].generator(0), G.model.factors[1].generator(0)),
                lambda g: (
                    _exponent_in_free_rank1(g[0])
                    if _exponent_in_free_rank1(g[0]) == _exponent_in_free_rank1(g[1])
                    else None
                ),
            ),
        },
        {
            "name": "self-free2",
            "group": "free2",
            "n_max": 8,
            "expect": "linear",
            "subgroup": lambda G: AmbientAsSubgroup(G, cap=8),
        },
    ]


def run_distortion_suite(
    max_elements: int = cayley.DEFAULT_MAX_ELEMENTS,
) -> list[ExperimentReport]:
    """Profiles and classifications for the built-in subgroup pairs; errors
    in one run are recorded and the suite continues."""
    reports = []
    for case in _suite_cases():
        start = time.perf_counter()
        inputs = {"group": case["group"], "subgroup": case["name"], "n_max": case["n_max"]}
        try:
            G = get_group(case["group"])
            H = case["subgroup"](G)
            profile = distortion.distortion_profile(
                G, H, case["n_max"], max_elements=max_elements,
                subgroup_name=case["name"],
            )
            growth = distortion.classify_growth(profile)
            und = distortion.undistorted_check(profile)
            buf = io.StringIO()
            profile.write_csv(buf)
            reports.append(
                ExperimentReport(
                    name=f"distortion:{case['name']}",
                    inputs=inputs,
                    expected=case["expect"],
                    observed=str(growth),
                    tables={"profile": buf.getvalue()},
                    witnesses={
                        "undistorted": und.verdict,
                        "K": str(und.K),
                        "residuals": {k: round(v, 6) for k, v in growth.residuals.items()},
                    },
                    runtime=time.perf_counter() - start,
                )
            )
        except GroupGeoError as exc:
            reports.append(
                ExperimentReport(
                    name=f"distortion:{case['name']}",
                    inputs=inputs,
                    expected=case["expect"],
                    observed=f"error:{type(exc).__name__}",
                    witnesses={"error": str(exc)},
                    runtime=time.perf_counter() - start,
                )
            )
    return reports


_CENTRALIZER_WORDS = {
    "free2": "x y",
    "z2": "x",
    "sl2z": "a",
    "bs12": "t",
    "heis3": "a b a^-1 b^-1",
    "braid3": "s1 s2",
    "kleinfour": "x",
}

_EQUIVARIANCE_TRIPLES = 1000


def run_combing_report(
    group_name: str,
    radius: int,
    max_elements: int = cayley.DEFAULT_MAX_ELEMENTS,
    seed: int = 0,
) -> ExperimentReport:
    """Shortlex bicombing constants for one zoo group.

    Measures (lambda, epsilon) over all lines from the identity into the
    ball, k2 at k1 = 1 exhaustively over common-basepoint pairs, an
    equivariance spot check on seeded random triples, and the quasi-convexity
    constant of the centralizer of a configured element.
    """
    start = time.perf_counter()
    G = get_group(group_name)
    sigma = combing.shortlex_bicombing(
        G, radius, index=cayley.ball(G, radius, max_elements=max_elements)
    )
    idx = sigma.index
    # check_bounded's cap depends on |B(r)| alone: test it before any work
    combing.check_dense_cap(len(idx), radius)
    ident = G.model.identity
    sample = [(ident, g) for g in idx.elements]
    qg = combing.check_quasi_geodesic(sigma, sample)
    bounded = combing.check_bounded(sigma, G, radius)
    rng = random.Random(seed)
    elements = idx.elements
    # random triples (g, x, y); x is kept whenever x^-1 y stays in the ball,
    # otherwise the line is anchored at the identity
    triples = []
    for _ in range(_EQUIVARIANCE_TRIPLES):
        g = rng.choice(elements)
        x = rng.choice(elements)
        y = rng.choice(elements)
        u_key = G.model.canonical_key(G.model.multiply(G.model.invert(x), y))
        if u_key not in idx.index:
            x = ident
        triples.append((g, x, y))
    equivariant = combing.check_equivariance(sigma, triples)
    a = evaluate(G.alphabet.parse_word(_CENTRALIZER_WORDS[group_name]), G)
    central = combing.centralizer_quasiconvexity_report(G, a, sigma, radius)
    rows = [
        ("lambda", str(qg.lam)),
        ("epsilon", str(qg.epsilon)),
        ("k1", str(bounded.k1)),
        ("k2", str(bounded.k2)),
        ("k2_family", bounded.family),
        ("centralizer_k", str(central.k)),
        ("psi_max_length", str(central.witnesses["psi_max_length"])),
        ("equivariant", str(equivariant)),
        ("distance_mode", bounded.distance_mode),
        ("lines", str(len(sample))),
    ]
    observed = (
        "geodesic_equivariant"
        if qg.lam == 1 and qg.epsilon == 0 and equivariant
        else "constants=(%s,%s),equivariant=%s" % (qg.lam, qg.epsilon, equivariant)
    )
    return ExperimentReport(
        name=f"combing:{group_name}",
        inputs={"group": group_name, "radius": radius,
                "centralizer_of": _CENTRALIZER_WORDS[group_name], "seed": seed},
        expected="geodesic_equivariant",
        observed=observed,
        tables={"constants": _csv_text(["constant", "value"], rows)},
        witnesses={
            "k2_pair": bounded.witnesses.get("k2_pair"),
            "centralizer_witness": central.witnesses.get("k_member"),
        },
        runtime=time.perf_counter() - start,
    )


def run_cover_table(max_complexity: int) -> ExperimentReport:
    """Orientation double covers for all nonorientable signatures with
    g + b + p <= max_complexity, with the 2-chi check and exceptional flags."""
    start = time.perf_counter()
    rows = []
    all_ok = True
    for sig in surfaces.all_nonorientable_signatures(max_complexity):
        cover = surfaces.orientation_double_cover(sig)
        chi, chi_cover = surfaces.euler_characteristic(sig), surfaces.euler_characteristic(cover)
        ok = chi_cover == 2 * chi
        all_ok = all_ok and ok
        rows.append(
            (str(sig), str(cover), chi, chi_cover, "ok" if ok else "FAIL",
             surfaces.exceptional_case(sig))
        )
    return ExperimentReport(
        name="cover-table",
        inputs={"max_complexity": max_complexity},
        expected="all_doubled",
        observed="all_doubled" if all_ok else "mismatch",
        tables={
            "covers": _csv_text(
                ["base", "cover", "chi_base", "chi_cover", "doubling", "exceptional"],
                rows,
            )
        },
        runtime=time.perf_counter() - start,
    )


_SOURCE_GROUPS: dict[str, Callable[[], MarkedGroup]] = {
    "trivial": surfaces.trivial_marked_group,
    "cyclic2": surfaces.cyclic_two_marked_group,
    "kleinfour": surfaces.klein_four_marked_group,
}


def run_iota_verification(lift_data: dict) -> ExperimentReport:
    """Verify a lift homomorphism into a zoo group against an involution J.

    ``lift_data``: source_group (trivial | cyclic2 | kleinfour), target_group
    (zoo name), images (one serialized target word per source generator),
    J (serialized target word, must have order 2), radius (injectivity ball).
    Checks: (i) relators map to the identity, (ii) every generator image
    commutes with J, (iii) injectivity on the ball (exact when the source is
    exhausted).
    """
    start = time.perf_counter()
    source_name = lift_data["source_group"]
    if source_name in _SOURCE_GROUPS:
        source = _SOURCE_GROUPS[source_name]()
    else:
        source = get_group(source_name)
    target = get_group(lift_data["target_group"])
    if source.presentation is None:
        raise MissingPresentation(f"source {source_name} carries no presentation")
    images = tuple(target.alphabet.parse_word(w) for w in lift_data["images"])
    hom = MarkedHomomorphism(source=source, target=target, images=images)
    radius = int(lift_data.get("radius", 4))
    relator_report = verify_homomorphism(hom)
    model = target.model
    j_word = target.alphabet.parse_word(lift_data["J"])
    J = evaluate(j_word, target)
    j_order = order_of_element(J, model, cap=_ORDER_CAP)
    commute = []
    for name, w in zip(source.alphabet.generators, images):
        img = evaluate(w, target)
        lhs = model.multiply(img, J)
        rhs = model.multiply(J, img)
        commute.append((name, model.canonical_key(lhs) == model.canonical_key(rhs)))
    inj = injectivity_on_ball(hom, radius)
    checks = [
        ("relators_to_identity", relator_report.ok),
        ("J_has_order_2", j_order == 2),
        ("images_commute_with_J", all(ok for _, ok in commute)),
        ("injective_on_ball", inj.injective_on_ball),
        ("injectivity_exhaustive", inj.exhaustive),
    ]
    observed = "pass" if all(ok for _, ok in checks[:4]) else "fail"
    return ExperimentReport(
        name="verify-hom",
        inputs={k: lift_data[k] for k in
                ("source_group", "target_group", "images", "J")} | {"radius": radius},
        expected=lift_data.get("expect", "pass"),
        observed=observed,
        tables={"checks": _csv_text(["check", "ok"], checks)},
        witnesses={
            "collisions": inj.collisions,
            "commute": commute,
            "J_order": j_order,
        },
        runtime=time.perf_counter() - start,
    )
