"""Bicombings by shortlex geodesics and measurement of their constants.

A bicombing assigns a discrete Cayley-graph path to every ordered vertex
pair.  The shortlex bicombing sends (x, y) to x translated along the
shortlex-least geodesic of x^-1 y; it is equivariant by construction and its
lines are geodesics.  This module measures, over explicit finite families:

* the quasi-geodesic constants (lambda, epsilon) of sampled lines,
* the fellow-traveling constant k2 at k1 = 1 over all common-basepoint line
  pairs in a ball (any configuration translates to that family by
  equivariance),
* quasi-convexity constants k for subgroups, including centralizers, with
  per-vertex conjugator witnesses.

Vertex distances for the exhaustive checks are graph distances inside the
enumerated ball.  They equal the word metric whenever geodesics between ball
points stay in the ball (trees, abelian groups, exhausted finite groups);
reports carry distance_mode so this is never silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from . import cayley
from ._kernel import ops
from ._kernel._ops_py import multi_source_distances
from .distortion import SubgroupModel
from .errors import CapExceeded, MemoryCapExceeded, TooFewPoints
from .groups import Element, MarkedGroup
from .words import Word


@dataclass(frozen=True)
class DiscretePath:
    """A nonempty vertex sequence; evaluation past the end stays at the end."""

    vertices: tuple[Element, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a discrete path has at least one vertex")

    def at(self, t: int) -> Element:
        return self.vertices[min(t, len(self.vertices) - 1)]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self) -> Element:
        return self.vertices[0]

    @property
    def end(self) -> Element:
        return self.vertices[-1]

    def validate_steps(self, G: MarkedGroup) -> bool:
        """Each consecutive pair differs by one marked letter."""
        canonical_key = G.model.canonical_key
        for a, b in zip(self.vertices, self.vertices[1:]):
            key = canonical_key(b)
            if not any(canonical_key(act(a)) == key for act in G.letter_actions):
                return False
        return True


@dataclass
class Bicombing:
    """A rule assigning a path to every vertex pair, with start x and end y."""

    group: MarkedGroup
    rule: Callable[[Element, Element], DiscretePath]
    distance_fn: Optional[Callable[[Element, Element], int]] = None

    def line(self, x: Element, y: Element) -> DiscretePath:
        return self.rule(x, y)

    def distance(self, g: Element, h: Element) -> int:
        if self.distance_fn is None:
            raise CapExceeded("bicombing carries no distance function")
        return self.distance_fn(g, h)


class ShortlexBicombing(Bicombing):
    """sigma(x, y) = x * (shortlex geodesic path of x^-1 y), from one ball."""

    def __init__(
        self,
        G: MarkedGroup,
        cap: int,
        max_elements: int = cayley.DEFAULT_MAX_ELEMENTS,
        threads: int = 1,
        index: Optional[cayley.BallIndex] = None,
    ):
        self.cap = cap
        if index is not None and index.group is G and index.radius >= cap:
            self.index = index
        else:
            self.index = cayley.ball(G, cap, max_elements=max_elements, threads=threads)
        super().__init__(group=G, rule=self._rule, distance_fn=self._distance)

    def _lookup(self, u: Element) -> int:
        v = self.index.index.get(self.group.model.canonical_key(u))
        if v is None:
            raise CapExceeded(f"element beyond the combing cap {self.cap}")
        return v

    def _rule(self, x: Element, y: Element) -> DiscretePath:
        model = self.group.model
        u = model.multiply(model.invert(x), y)
        word = self.index.vertex_word(self._lookup(u))
        letter_key, actions = self.group.alphabet.letter_key, self.group.letter_actions
        vertices = [x]
        acc = x
        for letter in word:
            acc = actions[letter_key(letter)](acc)
            vertices.append(acc)
        return DiscretePath(tuple(vertices))

    def _distance(self, g: Element, h: Element) -> int:
        model = self.group.model
        u = model.multiply(model.invert(g), h)
        return int(self.index.depth[self._lookup(u)])


def shortlex_bicombing(
    G: MarkedGroup,
    cap: int,
    max_elements: int = cayley.DEFAULT_MAX_ELEMENTS,
    threads: int = 1,
    index: Optional[cayley.BallIndex] = None,
) -> ShortlexBicombing:
    """The shortlex bicombing of (G, X), valid for pairs within the cap."""
    return ShortlexBicombing(G, cap, max_elements=max_elements, threads=threads, index=index)


@dataclass
class ConstantsReport:
    """Measured bicombing constants; every constant has a recorded witness."""

    lam: Optional[Fraction] = None
    epsilon: Optional[Fraction] = None
    k1: Optional[Fraction] = None
    k2: Optional[Fraction] = None
    k: Optional[Fraction] = None
    radius: Optional[int] = None
    exhaustive: bool = False
    family: str = ""
    distance_mode: str = "word_metric"
    witnesses: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def enc(v):
            if isinstance(v, Fraction):
                return {"num": v.numerator, "den": v.denominator}
            return v

        return {
            "lambda": enc(self.lam),
            "epsilon": enc(self.epsilon),
            "k1": enc(self.k1),
            "k2": enc(self.k2),
            "k": enc(self.k),
            "radius": self.radius,
            "exhaustive": self.exhaustive,
            "family": self.family,
            "distance_mode": self.distance_mode,
            "witnesses": {key: str(v) for key, v in self.witnesses.items()},
        }


def check_quasi_geodesic(
    sigma: Bicombing, sample: Iterable[tuple[Element, Element]]
) -> ConstantsReport:
    """Least (lambda, epsilon) over all subsegments of the sampled lines.

    lambda is minimized first, then epsilon given lambda, so the answer is
    well defined; for true geodesics both are (1, 0).
    """
    segments = []  # (span, distance, pair index, s, t)
    n_pairs = 0
    for p_idx, (x, y) in enumerate(sample):
        n_pairs += 1
        path = sigma.line(x, y)
        verts = path.vertices
        for s in range(len(verts)):
            for t in range(s + 1, len(verts)):
                segments.append((t - s, sigma.distance(verts[s], verts[t]), p_idx, s, t))
    if n_pairs == 0:
        raise TooFewPoints("empty sample")
    lam, lam_witness, eps, eps_witness = _quasi_geodesic_constants(segments)
    return ConstantsReport(
        lam=lam,
        epsilon=eps,
        witnesses={"lambda": lam_witness, "epsilon": eps_witness},
    )


def _quasi_geodesic_constants(segments: list[tuple]) -> tuple:
    """(lambda, its witness, epsilon, its witness) over segments (span,
    distance, pair index, s, t) with span > 0.

    lambda = ln / ld and epsilon = en / ed are kept as integer pairs with
    positive denominators and compared by cross-multiplying; a witness is
    the first segment that strictly raises its constant."""
    ln, ld = 1, 1
    lam_witness = None
    for span, d, p_idx, s, t in segments:
        # the ratios span / d (for d > 0), then d / span
        if d and span * ld > ln * d:
            ln, ld = span, d
            lam_witness = (p_idx, s, t)
        if d * ld > ln * span:
            ln, ld = d, span
            lam_witness = (p_idx, s, t)
    en, ed = 0, 1
    eps_witness = None
    for span, d, p_idx, s, t in segments:
        # the slacks d - lambda * span = (d ld - ln span) / ld, then
        # span / lambda - d = (span ld - d ln) / ln
        num = d * ld - ln * span
        if num * ed > en * ld:
            en, ed = num, ld
            eps_witness = (p_idx, s, t)
        num = span * ld - d * ln
        if num * ed > en * ln:
            en, ed = num, ln
            eps_witness = (p_idx, s, t)
    return Fraction(ln, ld), lam_witness, Fraction(en, ed), eps_witness


def check_equivariance(
    sigma: Bicombing, sample: Iterable[tuple[Element, Element, Element]]
) -> bool:
    """Vertexwise: g * sigma(x, y) equals sigma(gx, gy) on every triple."""
    model = sigma.group.model
    for g, x, y in sample:
        p = sigma.line(x, y)
        q = sigma.line(model.multiply(g, x), model.multiply(g, y))
        span = max(p.length, q.length)
        for t in range(span + 1):
            lhs = model.multiply(g, p.at(t))
            if model.canonical_key(lhs) != model.canonical_key(q.at(t)):
                return False
    return True


_DENSE_DISTANCE_LIMIT = 50_000  # n^2 uint8 distance matrix cap (2.5 GB)


def _ball_distance_mode(G: MarkedGroup, idx: cayley.BallIndex) -> str:
    """Graph distance inside the ball equals the word metric when the group
    was exhausted; otherwise it is an upper bound and the report says so."""
    return "word_metric" if idx.sphere_sizes[-1] == 0 else "ball_graph"


def check_dense_cap(n: int, radius: int) -> None:
    """Raise MemoryCapExceeded, naming check_bounded, when an n-vertex
    radius ball is past the dense distance-matrix cap."""
    if n > _DENSE_DISTANCE_LIMIT:
        raise MemoryCapExceeded(
            _DENSE_DISTANCE_LIMIT, radius,
            f"check_bounded: the radius-{radius} ball has {n} vertices, more "
            f"than the dense distance-matrix cap of {_DENSE_DISTANCE_LIMIT}",
        )


def check_bounded(
    sigma: Bicombing,
    G: MarkedGroup,
    radius: int,
    max_elements: int = cayley.DEFAULT_MAX_ELEMENTS,
    threads: int = 1,
) -> ConstantsReport:
    """Least k2 with k1 = 1 for d(p(t), q(t)) <= k1*max{d(x,x'), d(y,y')} + k2.

    Exhausts the family of line pairs with a common basepoint: by
    equivariance, every pair of lines sigma(x,y), sigma(x,y') with both far
    endpoints at distance <= radius translates to lines from the identity, so
    quantifying over all ordered pairs of ball elements is exhaustive for
    that family.
    """
    if isinstance(sigma, ShortlexBicombing) and sigma.index.radius == radius:
        idx = sigma.index
    else:
        idx = cayley.ball(G, radius, max_elements=max_elements, threads=threads)
    n = len(idx)
    check_dense_cap(n, radius)
    indptr, nbrs = idx.graph_csr()
    dist = ops.all_pairs_bfs(indptr, nbrs, n)
    paths = idx.prefix_matrix()
    defect, a, b = ops.max_bounded_defect(paths, dist)
    fmt = G.alphabet.format_word
    return ConstantsReport(
        k1=Fraction(1),
        k2=Fraction(max(0, defect)),
        radius=radius,
        exhaustive=True,
        family="common_basepoint",
        distance_mode=_ball_distance_mode(G, idx),
        witnesses={
            "k2_pair": (fmt(idx.vertex_word(a)), fmt(idx.vertex_word(b)))
        },
    )


def _quasiconvexity_over_members(
    G: MarkedGroup, idx: cayley.BallIndex, members: list[int], radius: int
) -> ConstantsReport:
    """k = max over member vertices h and times t of d(line(1,h)(t), member
    set), distances taken in the ball graph of idx.  The members lie in
    ball(radius), which may be smaller than idx's ball."""
    to_H = multi_source_distances(idx._neighbour_table(), members)
    paths = idx.prefix_matrix()
    best = -1
    witness = None
    for h in members:
        for t, v in enumerate(paths[h]):
            d = int(to_H[v])
            if d > best:
                best = d
                witness = (h, t)
    fmt = G.alphabet.format_word
    return ConstantsReport(
        k=Fraction(best),
        radius=radius,
        exhaustive=True,
        family="subgroup_members_in_ball",
        distance_mode=_ball_distance_mode(G, idx),
        witnesses={
            "k_member": fmt(idx.vertex_word(witness[0])),
            "k_time": witness[1],
        },
    )


def quasiconvexity_constant(
    sigma: Bicombing,
    H: SubgroupModel,
    radius: int,
    max_elements: int = cayley.DEFAULT_MAX_ELEMENTS,
    threads: int = 1,
) -> ConstantsReport:
    """sigma-quasi-convexity constant of H over its members in ball(radius)."""
    G = sigma.group
    if isinstance(sigma, ShortlexBicombing) and sigma.index.radius == radius:
        idx = sigma.index
    else:
        idx = cayley.ball(G, radius, max_elements=max_elements, threads=threads)
    vertices, elements = idx.select(H.row_filter)
    members = [v for v, g in zip(vertices, elements) if H.contains(g)]
    return _quasiconvexity_over_members(G, idx, members, radius)


def _conjugators_in_ball(
    G: MarkedGroup, idx: cayley.BallIndex, a: Element, gamma: Element, n: int
) -> Iterator[int]:
    """Vertices psi of ball(n) with psi gamma psi^-1 = a, in shortlex order.

    The test is psi gamma = a psi, the same identity with no inverse: two
    products and two keys per vertex."""
    multiply, canonical_key = G.model.multiply, G.model.canonical_key
    for v, psi in zip(range(sum(idx.sphere_sizes[: n + 1])), idx.elements):
        if canonical_key(multiply(psi, gamma)) == canonical_key(multiply(a, psi)):
            yield v


def centralizer_ball(
    G: MarkedGroup,
    a: Element,
    n: int,
    max_elements: int = cayley.DEFAULT_MAX_ELEMENTS,
    threads: int = 1,
    index: Optional[cayley.BallIndex] = None,
) -> list[Element]:
    """{g in ball(n) : g a g^-1 = a}, in shortlex order."""
    idx = index if index is not None and index.radius >= n else cayley.ball(
        G, n, max_elements=max_elements, threads=threads
    )
    return [idx.elements[v] for v in _conjugators_in_ball(G, idx, a, a, n)]


def conjugator_search(
    G: MarkedGroup,
    a: Element,
    gamma: Element,
    cap: int,
    max_elements: int = cayley.DEFAULT_MAX_ELEMENTS,
    index: Optional[cayley.BallIndex] = None,
) -> Optional[Word]:
    """Shortlex-least word psi with psi gamma psi^-1 = a and |psi| <= cap,
    or None when no conjugator exists within the cap."""
    idx = index if index is not None and index.radius >= cap else cayley.ball(
        G, cap, max_elements=max_elements
    )
    v = next(_conjugators_in_ball(G, idx, a, gamma, cap), None)
    return None if v is None else idx.vertex_word(v)


def centralizer_quasiconvexity_report(
    G: MarkedGroup,
    a: Element,
    sigma: Bicombing,
    radius: int,
    max_elements: int = cayley.DEFAULT_MAX_ELEMENTS,
    threads: int = 1,
) -> ConstantsReport:
    """Quasi-convexity constant of the centralizer Z(a) over ball(radius),
    plus, for every vertex v on a combing line of a member, the conjugate
    gamma = v^-1 a v and its shortlex-least conjugator psi back to a.

    Since v gamma v^-1 = a, v itself is a conjugator of length |v| <= |member|,
    so the per-vertex searches never miss; a miss raises CapExceeded.
    """
    model = G.model
    if isinstance(sigma, ShortlexBicombing) and sigma.index.radius >= radius:
        idx = sigma.index
    else:
        idx = cayley.ball(G, radius, max_elements=max_elements, threads=threads)
    members = list(_conjugators_in_ball(G, idx, a, a, radius))
    report = _quasiconvexity_over_members(G, idx, members, radius)
    fmt = G.alphabet.format_word
    conjugators = []
    psi_max = 0
    for h in members:
        member = fmt(idx.vertex_word(h))
        line = sigma.line(model.identity, idx.elements[h])
        for t, v in enumerate(line.vertices):
            gamma = model.multiply(model.multiply(model.invert(v), a), v)
            psi = conjugator_search(G, a, gamma, cap=int(idx.depth[h]), index=idx)
            if psi is None:  # v itself conjugates gamma back to a
                raise CapExceeded(
                    f"no conjugator of gamma back to a within |member| for member "
                    f"{member} at t={t}"
                )
            psi_max = max(psi_max, len(psi))
            conjugators.append(
                {
                    "member": member,
                    "t": t,
                    "gamma": model.describe(gamma),
                    "psi": fmt(psi),
                }
            )
    report.family = "centralizer"
    report.witnesses["conjugators"] = conjugators
    report.witnesses["psi_max_length"] = psi_max
    return report
