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

The quasi-geodesic and equivariance checks read any bicombing's lines; the
other three checks read a ``ShortlexBicombing``'s lines off its ball's prefix
matrix, enumerate no ball, and raise TypeError for any other bicombing and
ValueError for a ball of the wrong radius.  Given the vertex pairs or
triples of a shortlex bicombing's packed ball, those two checks read its
lines off the prefix matrix too and batch every product and lookup over the
ball's rows; any other sample runs the element loop, their reference.

Where a ball comes from: the shortlex bicombing and ``conjugator_search``
reuse the ``index`` they are given when it is a ball of G of at least the
radius they need, and otherwise enumerate ``cayley.ball(G, n)``.  The
element cap is set where the ball is built, so a caller that wants one
passes ``index=cayley.ball(G, n, max_elements=m)``.  The centralizer's
members are the report's ``member_vertices``.

Vertex distances for the exhaustive checks are graph distances inside the
enumerated ball.  They equal the word metric whenever geodesics between ball
points stay in the ball (trees, abelian groups, exhausted finite groups);
reports carry distance_mode so this is never silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

import numpy as np

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
        multiply, canonical_key = G.model.multiply, G.model.canonical_key
        for a, b in zip(self.vertices, self.vertices[1:]):
            key = canonical_key(b)
            if not any(canonical_key(multiply(a, y)) == key for y in G.letter_images):
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
    """sigma(x, y) = x * (shortlex geodesic path of x^-1 y), from one ball:
    ``index`` or ``ball(G, cap)`` (see the module docstring)."""

    def __init__(self, G: MarkedGroup, cap: int, index: Optional[cayley.BallIndex] = None):
        self.cap = cap
        self.index = _ball_of(G, cap, index)
        super().__init__(group=G, rule=self._rule, distance_fn=self._distance)

    def _lookup(self, u: Element) -> int:
        v = self.index.index.get(self.group.model.canonical_key(u))
        if v is None:
            raise CapExceeded(f"element beyond the combing cap {self.cap}")
        return v

    def _rule(self, x: Element, y: Element) -> DiscretePath:
        model = self.group.model
        multiply = model.multiply
        u = multiply(model.invert(x), y)
        word = self.index.vertex_word(self._lookup(u))
        letter_key, images = self.group.alphabet.letter_key, self.group.letter_images
        vertices = [x]
        acc = x
        for letter in word:
            acc = multiply(acc, images[letter_key(letter)])
            vertices.append(acc)
        return DiscretePath(tuple(vertices))

    def _distance(self, g: Element, h: Element) -> int:
        model = self.group.model
        u = model.multiply(model.invert(g), h)
        return int(self.index.depth[self._lookup(u)])


def _ball_of(G: MarkedGroup, n: int, index: Optional[cayley.BallIndex]):
    """index if it is a ball of G with radius >= n, else ball(G, n)."""
    if index is not None and index.group is G and index.radius >= n:
        return index
    return cayley.ball(G, n)


def _shortlex_ball(check: str, sigma: Bicombing, radius: int, at_least: bool = False):
    """sigma's ball, whose radius is radius (at least radius if at_least)."""
    if not isinstance(sigma, ShortlexBicombing):
        raise TypeError(f"{check} reads a ShortlexBicombing's ball, not a {type(sigma).__name__}")
    r = sigma.index.radius
    if r < radius or (r > radius and not at_least):
        want = f">= {radius}" if at_least else radius
        raise ValueError(f"{check} needs a ball of radius {want}, not {r}")
    return sigma.index


def shortlex_bicombing(
    G: MarkedGroup, cap: int, index: Optional[cayley.BallIndex] = None
) -> ShortlexBicombing:
    """The shortlex bicombing of (G, X), valid for pairs within the cap;
    ``index`` as for ``ShortlexBicombing``."""
    return ShortlexBicombing(G, cap, index=index)


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
    # the members' ball vertices, for a caller that lists them; not serialized
    member_vertices: list[int] = field(default_factory=list)

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


def check_quasi_geodesic(sigma: Bicombing, sample) -> ConstantsReport:
    """Least (lambda, epsilon) over all subsegments of the sampled lines.

    ``sample`` holds pairs (x, y) of elements, or is an integer array of
    shape (k, 2) of vertex pairs of a ``ShortlexBicombing``'s ball.  lambda
    is minimized first, then epsilon given lambda, so the answer is well
    defined; for true geodesics both are (1, 0).  CapExceeded is raised
    when a line or a segment leaves the combing ball.  Vertex pairs on a
    packed ball are measured on its rows (``_segments_on_rows``), the same
    segments in the same order; any other sample, and vertex pairs whose
    products raise OverflowError (no int64 proof), run the element loop,
    which is the reference.
    """
    on_rows = isinstance(sample, np.ndarray)
    try:
        segments = _segments_on_rows(sigma, sample) if on_rows else None
    except OverflowError:  # the element loop measures every pair
        segments = None
    n_pairs = len(sample) if segments is not None else 0
    if segments is None:
        if on_rows:
            flat = iter(sigma.index.elements_at(sample.ravel().tolist()))
            sample = zip(flat, flat)
        segments = []  # (span, distance, pair index, s, t)
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


_SEGMENT_BLOCK = 1 << 16  # bounds the segments that one pass of _segments_on_rows holds


def _runs(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, one run after another."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _shortlex_rows(sigma: Bicombing) -> Optional[tuple]:
    """(batch action, rows) of a shortlex bicombing's packed ball; None for
    any other bicombing and for a ball held element by element."""
    return sigma.index.rows() if type(sigma) is ShortlexBicombing else None


def _segments_on_rows(sigma: Bicombing, pairs: np.ndarray) -> Optional[list]:
    """The element loop's segments of vertex pairs (x, y) of sigma's ball,
    in its order, from the ball's rows: with X and Y the pairs' rows, u the
    vertex of X^-1 Y and P the prefix matrix, line i has the vertices
    V_t = X * R[P[u, t]] for t <= |u|, and X cancels from V_s^-1 V_t, so
    segment (s, t) has the distance depth[vertex of R[P[u, s]]^-1 R[P[u, t]]].
    The pairs are measured in blocks of under about ``_SEGMENT_BLOCK``
    segments, so that no pass holds every segment's rows.  Raises
    CapExceeded where a u or a segment is outside the ball, OverflowError
    where a product has no int64 proof; None as ``_shortlex_rows`` is."""
    packed = _shortlex_rows(sigma)
    if packed is None:
        return None
    idx, rows = sigma.index, packed[1]
    u = idx.quotient_vertices(rows[pairs[:, 0]], rows[pairs[:, 1]])
    if (u < 0).any():
        raise CapExceeded(f"element beyond the combing cap {sigma.cap}")
    P, depth = idx.prefix_matrix(), idx.depth
    lengths = depth[u].astype(np.int64)
    # a line has at most radius * (radius + 1) / 2 segments
    step = _SEGMENT_BLOCK // (idx.radius + 1) ** 2 + 1
    segments = []
    for start in range(0, len(pairs), step):
        # the block's line vertices, line after line: vertex[a] is line[a]'s
        # vertex at time at[a], and each segment runs from a vertex[a] to a
        # later vertex[b] on its line
        L = lengths[start:start + step]
        line, at = np.repeat(np.arange(start, start + len(L)), L + 1), _runs(L + 1)
        vertex = P[u[line], at]
        reach = lengths[line] - at
        a = np.repeat(np.arange(len(line)), reach)
        b = a + 1 + _runs(reach)
        d = idx.quotient_vertices(rows[vertex[a]], rows[vertex[b]])
        if (d < 0).any():
            raise CapExceeded(f"element beyond the combing cap {sigma.cap}")
        s, t = at[a], at[b]
        segments += zip((t - s).tolist(), depth[d].tolist(), line[a].tolist(), s.tolist(), t.tolist())
    return segments


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


def check_equivariance(sigma: Bicombing, sample) -> bool:
    """Vertexwise: g * sigma(x, y) equals sigma(gx, gy) on every triple.

    ``sample`` holds triples (g, x, y) of elements, or is an integer array
    of shape (k, 3) whose rows are triples of vertices of a
    ``ShortlexBicombing``'s ball.  The triples are checked in order: the
    answer is False at the first one whose lines differ, and CapExceeded is
    raised at the first one whose line leaves the combing ball.  Vertex
    triples on a packed ball are checked on its rows, all at once
    (``_equivariance_on_rows``); any other sample, and vertex triples whose
    products raise OverflowError (no int64 proof), run the element loop,
    which is the reference."""
    if isinstance(sample, np.ndarray):
        try:
            status = _equivariance_on_rows(sigma, sample)
        except OverflowError:  # the element loop checks every triple
            status = None
        if status is not None:
            failed = np.flatnonzero(status != 1)
            if not len(failed):
                return True
            if status[failed[0]] < 0:
                raise CapExceeded(f"element beyond the combing cap {sigma.cap}")
            return False
        flat = iter(sigma.index.elements_at(sample.ravel().tolist()))
        sample = zip(flat, flat, flat)
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


def _equivariance_on_rows(sigma: Bicombing, triples: np.ndarray) -> Optional[np.ndarray]:
    """Per vertex triple (g, x, y) of sigma's ball: 1 when g * sigma(x, y)
    equals sigma(gx, gy) vertex by vertex, 0 when they differ, -1 when
    x^-1 y or (gx)^-1 gy has no vertex in the ball (the element loop raises
    CapExceeded there).  With G, X, Y the triples' rows, u the vertex of
    X^-1 Y, u' that of (GX)^-1 GY and P the prefix matrix, the lines'
    vertices at time t are X * R[P[u, t]] and GX * R[P[u', t]], padded with
    their ends as ``DiscretePath.at`` pads, so the comparison at every t of
    the ball's radius is the element loop's.  Every packing is canonical,
    so equal rows are equal elements.  Raises OverflowError where a product
    has no int64 proof; None as ``_shortlex_rows`` is."""
    packed = _shortlex_rows(sigma)
    if packed is None:
        return None
    idx = sigma.index
    batch, rows = packed
    multiply, invert = batch.multiply, batch.invert
    G, X, Y = rows[triples[:, 0]], rows[triples[:, 1]], rows[triples[:, 2]]
    GX, GY = multiply(G, X), multiply(G, Y)
    U, U2 = multiply(invert(X), Y), multiply(invert(GX), GY)
    k = len(triples)
    u = idx.vertices_of(np.concatenate((U, U2)))
    outside = (u[:k] < 0) | (u[k:] < 0)
    P = idx.prefix_matrix()
    T = P.shape[1]
    # row i * T + t holds triple i at time t
    at = P[np.maximum(u, 0)].reshape(2, k * T)
    lhs = multiply(np.repeat(G, T, axis=0), multiply(np.repeat(X, T, axis=0), rows[at[0]]))
    rhs = multiply(np.repeat(GX, T, axis=0), rows[at[1]])
    same = (lhs == rhs).all(axis=1).reshape(k, T).all(axis=1)
    return np.where(outside, -1, same.astype(np.int8))


_DENSE_DISTANCE_LIMIT = 50_000  # n^2 uint8 distance matrix cap (2.5 GB)


def _ball_distance_mode(idx: cayley.BallIndex) -> str:
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
    sigma: ShortlexBicombing, G: MarkedGroup, radius: int
) -> ConstantsReport:
    """Least k2 with k1 = 1 for d(p(t), q(t)) <= k1*max{d(x,x'), d(y,y')} + k2.

    Exhausts the family of line pairs with a common basepoint: by
    equivariance, every pair of lines sigma(x,y), sigma(x,y') with both far
    endpoints at distance <= radius translates to lines from the identity, so
    quantifying over all ordered pairs of ball elements is exhaustive for
    that family: the prefix-matrix rows of sigma's ball of this radius.
    Raises TypeError and ValueError as the module docstring says, and
    MemoryCapExceeded past the dense distance-matrix cap.
    """
    idx = _shortlex_ball("check_bounded", sigma, radius)
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
        distance_mode=_ball_distance_mode(idx),
        witnesses={
            "k2_pair": (fmt(idx.vertex_word(a)), fmt(idx.vertex_word(b)))
        },
    )


def _quasiconvexity_over_members(
    G: MarkedGroup, idx: cayley.BallIndex, members: list[int], radius: int, paths
) -> ConstantsReport:
    """k = max over member vertices h and times t of d(line(1,h)(t), member
    set), distances taken in the ball graph of idx and lines read off its
    prefix matrix ``paths``.  The members lie in ball(radius), which may be
    smaller than idx's ball."""
    to_H = multi_source_distances(idx._neighbour_table(), members)
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
        distance_mode=_ball_distance_mode(idx),
        witnesses={
            "k_member": fmt(idx.vertex_word(witness[0])),
            "k_time": witness[1],
        },
    )


def quasiconvexity_constant(
    sigma: ShortlexBicombing, H: SubgroupModel, radius: int
) -> ConstantsReport:
    """sigma-quasi-convexity constant of H over its members in ball(radius),
    read off sigma's ball of this radius; raises TypeError and ValueError as
    the module docstring says."""
    G = sigma.group
    idx = _shortlex_ball("quasiconvexity_constant", sigma, radius)
    vertices, elements = idx.select(H.row_filter)
    members = [v for v, g in zip(vertices, elements) if H.contains(g)]
    return _quasiconvexity_over_members(G, idx, members, radius, idx.prefix_matrix())


def _conjugators_in_ball(
    G: MarkedGroup, idx: cayley.BallIndex, a: Element, gamma: Element, n: int
) -> Iterator[int]:
    """Vertices psi of ball(n) with psi gamma psi^-1 = a, in shortlex order.

    The test is psi gamma = a psi, the same identity with no inverse.  On a
    packed ball (``BallIndex.rows``), decoded or not, every layer after the
    identity is tested at once on its rows: the packings are canonical, so
    the conjugators are the rows whose two products are equal, and none is
    decoded.  Only a layer whose packings or products raise OverflowError
    (gamma or a past int64, or no int64 proof) is decoded and tested vertex
    by vertex, two products and two keys per vertex, as is every vertex of
    a ball held element by element.  A search that stops at the identity, as
    every search for a central a does, runs no array operation."""
    multiply, canonical_key = G.model.multiply, G.model.canonical_key

    def by_element(vertices, elements):
        for v, psi in zip(vertices, elements):
            if canonical_key(multiply(psi, gamma)) == canonical_key(multiply(a, psi)):
                yield v

    packed = idx.rows()
    if packed is None:
        yield from by_element(range(sum(idx.sphere_sizes[: n + 1])), idx.elements)
        return
    yield from by_element([0], [G.model.identity])
    batch, rows = packed
    start = 1
    for count in idx.sphere_sizes[1: n + 1]:
        layer = rows[start:start + count]
        try:
            same = (
                batch.multiply(layer, batch.pack(gamma)) == batch.multiply(batch.pack(a), layer)
            ).all(axis=1)
        except OverflowError:  # gamma or a has no row, or no int64 proof: this layer by elements
            yield from by_element(range(start, start + count), batch.unpack(layer))
        else:
            yield from (start + same.nonzero()[0]).tolist()
        start += count


def conjugator_search(
    G: MarkedGroup,
    a: Element,
    gamma: Element,
    cap: int,
    index: Optional[cayley.BallIndex] = None,
) -> Optional[Word]:
    """Shortlex-least word psi with psi gamma psi^-1 = a and |psi| <= cap,
    or None when no conjugator exists within the cap; searched on ``index``
    or ``ball(G, cap)`` (see the module docstring)."""
    idx = _ball_of(G, cap, index)
    v = next(_conjugators_in_ball(G, idx, a, gamma, cap), None)
    return None if v is None else idx.vertex_word(v)


def centralizer_quasiconvexity_report(
    G: MarkedGroup, a: Element, sigma: ShortlexBicombing, radius: int
) -> ConstantsReport:
    """Quasi-convexity constant of the centralizer Z(a) over ball(radius),
    plus, for every vertex v on a combing line of a member, the conjugate
    gamma = v^-1 a v and its shortlex-least conjugator psi back to a.

    Members, k and the witnesses' vertices are read off sigma's ball, whose
    radius must be >= radius: the vertices of sigma.line(1, h) are h's row
    of the prefix matrix up to |h|, and only their elements are decoded.
    Raises TypeError and ValueError as the module docstring says.  The
    members' vertices are kept on ``member_vertices``.  Since v gamma v^-1 =
    a, v itself is a conjugator of length |v| <= |member|, so the per-vertex
    searches never miss; a miss raises CapExceeded.
    """
    model = G.model
    idx = _shortlex_ball("centralizer_quasiconvexity_report", sigma, radius, at_least=True)
    members = list(_conjugators_in_ball(G, idx, a, a, radius))
    paths = idx.prefix_matrix()
    report = _quasiconvexity_over_members(G, idx, members, radius, paths)
    # sigma.line(1, h) walks the vertices of h's prefix-matrix row up to |h|;
    # their elements are decoded together
    depths = idx.depth[members].tolist()
    lines = [paths[h, : d + 1].tolist() for h, d in zip(members, depths)]
    vertices = iter(idx.elements_at([v for line in lines for v in line]))
    fmt = G.alphabet.format_word
    conjugators = []
    psi_max = 0
    for h, d in zip(members, depths):
        member = fmt(idx.vertex_word(h))
        for t in range(d + 1):
            v = next(vertices)
            gamma = model.multiply(model.multiply(model.invert(v), a), v)
            psi = conjugator_search(G, a, gamma, cap=d, index=idx)
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
    report.member_vertices = members
    report.witnesses["conjugators"] = conjugators
    report.witnesses["psi_max_length"] = psi_max
    return report
