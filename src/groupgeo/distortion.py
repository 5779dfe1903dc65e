"""Subgroup distortion profiles, growth classification and undistortedness.

delta(n) is the largest intrinsic subgroup length among members of the
radius-n ball of the ambient group.  Profiles are computed over exact BFS
balls; subgroup oracles must say when their answers are capped, and such
entries are flagged as lower bounds in every serialization.

A subgroup oracle may carry a ``row_filter``: a map from the ball's packed
int64 rows, in the layout of ``_packed`` (row-major matrix entries, or the
dyadic columns (k, num, exp)), to a boolean mask that is a necessary
condition for membership.  The profile then decodes only the rows that pass
(``cayley.BallIndex.select``); ``contains`` stays the exact decider.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Callable, Optional, Sequence

from . import cayley
from .errors import TooFewPoints
from .groups import Element, MarkedGroup, MarkedHomomorphism
from .words import Alphabet, Word


class SubgroupModel(ABC):
    """Exact membership plus exact intrinsic word length for a subgroup.

    ``row_filter``, when not None, maps an int64 array of packed ball rows
    (``_packed`` layout) to a boolean mask that every member's row passes: a
    necessary condition, a superset of the members.  Rows it rejects are
    never decoded; ``contains`` still decides each row it passes."""

    ambient: MarkedGroup
    row_filter: Optional[Callable] = None

    @abstractmethod
    def contains(self, g: Element) -> bool: ...

    @abstractmethod
    def length_in_H(self, g: Element) -> Optional[int]:
        """d_H(1, g) in the subgroup's fixed generating set; None when a cap
        binds (only inexact oracles may return None)."""

    @property
    def is_exact(self) -> bool:
        return True


class CyclicExact(SubgroupModel):
    """Infinite cyclic subgroup with analytic exponent extraction.

    ``exponent_of`` maps an ambient element to the integer m with g = z^m, or
    None for non-members; d_H(1, z^m) = |m|.  ``row_filter`` is the optional
    packed-row screen of ``SubgroupModel``.
    """

    def __init__(self, ambient: MarkedGroup, generator: Element,
                 exponent_of: Callable[[Element], Optional[int]],
                 row_filter: Optional[Callable] = None):
        self.ambient = ambient
        self.generator = generator
        self.exponent_of = exponent_of
        self.row_filter = row_filter

    def contains(self, g: Element) -> bool:
        return self.exponent_of(g) is not None

    def length_in_H(self, g: Element) -> Optional[int]:
        m = self.exponent_of(g)
        if m is None:
            raise ValueError("length_in_H called on a non-member")
        return abs(m)


class DirectFactor(SubgroupModel):
    """A factor of a direct-product ambient group, with its own norm."""

    def __init__(self, ambient: MarkedGroup, factor_index: int,
                 factor_norm: Callable[[Element], int]):
        self.ambient = ambient
        self.factor_index = factor_index
        self.factor_norm = factor_norm
        self._models = ambient.model.factors  # type: ignore[attr-defined]

    def contains(self, g: Element) -> bool:
        return all(
            m.canonical_key(c) == m.canonical_key(m.identity)
            for i, (m, c) in enumerate(zip(self._models, g))
            if i != self.factor_index
        )

    def length_in_H(self, g: Element) -> Optional[int]:
        return self.factor_norm(g[self.factor_index])


class HomImage(SubgroupModel):
    """Image of a verified marked homomorphism; d_H by BFS in the source."""

    def __init__(self, hom: MarkedHomomorphism, source_radius: int,
                 max_elements: int = cayley.DEFAULT_MAX_ELEMENTS):
        self.ambient = hom.target
        self.hom = hom
        idx = cayley.ball(hom.source, source_radius, max_elements=max_elements)
        self._lengths: dict[bytes, int] = {}
        tmodel = hom.target.model
        for v, d in enumerate(idx.depth.tolist()):
            tkey = tmodel.canonical_key(
                hom.map_element_of_word(idx.vertex_word(v))
            )
            if tkey not in self._lengths or d < self._lengths[tkey]:
                self._lengths[tkey] = d
        self._exhausted = idx.sphere_sizes[-1] == 0

    @property
    def is_exact(self) -> bool:
        return self._exhausted

    def contains(self, g: Element) -> bool:
        return self.ambient.model.canonical_key(g) in self._lengths

    def length_in_H(self, g: Element) -> Optional[int]:
        return self._lengths.get(self.ambient.model.canonical_key(g))


class EnumeratedWithCap(SubgroupModel):
    """Subgroup listed by its Cayley ball over given subgroup generators, up
    to a cap radius.

    Membership and lengths are exact inside the enumerated ball; outside it
    answers are capped, so profiles built on this oracle are lower bounds
    unless the subgroup was exhausted.
    """

    def __init__(self, ambient: MarkedGroup, sub_generators: Sequence[Element],
                 cap_radius: int, max_elements: int = cayley.DEFAULT_MAX_ELEMENTS):
        self.ambient = ambient
        gens = tuple(sub_generators)
        H = MarkedGroup(
            model=ambient.model,
            alphabet=Alphabet(f"h{i}" for i in range(len(gens))),
            marking=gens,
        )
        idx = cayley.ball(H, cap_radius, max_elements=max_elements)
        self._index = idx.index
        self._depth = idx.depth.tolist()
        self._exhausted = idx.sphere_sizes[-1] == 0

    @property
    def is_exact(self) -> bool:
        return self._exhausted

    def contains(self, g: Element) -> bool:
        return self.ambient.model.canonical_key(g) in self._index

    def length_in_H(self, g: Element) -> Optional[int]:
        v = self._index.get(self.ambient.model.canonical_key(g))
        return None if v is None else self._depth[v]


@dataclass
class ProfileEntry:
    n: int
    delta: int
    exact: bool
    witness_key: bytes
    witness_word: str
    witness_dh: int


@dataclass
class DistortionProfile:
    entries: list[ProfileEntry]
    group_name: str = ""
    subgroup_name: str = ""

    @property
    def exact_entries(self) -> list[ProfileEntry]:
        return [e for e in self.entries if e.exact]

    def values(self) -> list[int]:
        return [e.delta for e in self.entries]

    def write_csv(self, fileobj: IO[str]) -> None:
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["n", "delta", "exact", "witness_key", "witness_word", "dH"])
        for e in self.entries:
            writer.writerow(
                [e.n, e.delta, "exact" if e.exact else "lower_bound",
                 e.witness_key.hex(), e.witness_word, e.witness_dh]
            )


def distortion_profile(
    G: MarkedGroup,
    H: SubgroupModel,
    n_max: int,
    max_elements: int = cayley.DEFAULT_MAX_ELEMENTS,
    threads: int = 1,
    subgroup_name: str = "",
) -> DistortionProfile:
    """delta(n) for n = 1..n_max over the exact radius-n_max ball of G."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    idx = cayley.ball(G, n_max, max_elements=max_elements, threads=threads)
    # best (dh, key, vertex) per exact distance; ties resolve to the
    # canonical-least key, so the witness is deterministic.  Keys are taken
    # for subgroup members only, and only rows passing H's filter are decoded.
    best: dict[int, tuple[int, bytes, int]] = {}
    capped_at: Optional[int] = None
    canonical_key = G.model.canonical_key
    vertices, elements = idx.select(H.row_filter)
    depth = idx.depth.tolist()
    for v, g in zip(vertices, elements):
        d = depth[v]
        if not H.contains(g):
            continue
        dh = H.length_in_H(g)
        if dh is None:
            if capped_at is None or d < capped_at:
                capped_at = d
            continue
        cur = best.get(d)
        if cur is None or dh >= cur[0]:
            key = canonical_key(g)
            if cur is None or dh > cur[0] or key < cur[1]:
                best[d] = (dh, key, v)
    entries = []
    run_delta, run_key, run_v = 0, G.identity_key, 0
    for n in range(1, n_max + 1):
        cand = best.get(n)
        if cand is not None and cand[0] > run_delta:
            run_delta, run_key, run_v = cand
        exact = H.is_exact and (capped_at is None or n < capped_at)
        entries.append(
            ProfileEntry(
                n=n,
                delta=run_delta,
                exact=exact,
                witness_key=run_key,
                witness_word=G.alphabet.format_word(idx.vertex_word(run_v)),
                witness_dh=run_delta,
            )
        )
    return DistortionProfile(entries, G.name or "", subgroup_name)


def profile_from_values(values: Sequence[int]) -> DistortionProfile:
    """A synthetic all-exact profile from raw delta values (n starts at 1)."""
    return DistortionProfile(
        [ProfileEntry(n, v, True, b"", "", v) for n, v in enumerate(values, start=1)]
    )


@dataclass
class GrowthVerdict:
    kind: str  # bounded | linear | polynomial | exponential | inconclusive
    degree: Optional[int] = None
    residuals: dict = field(default_factory=dict)

    def __str__(self) -> str:
        if self.kind == "polynomial":
            return f"polynomial({self.degree})"
        return self.kind


def _rel_residual(pred, ys) -> float:
    return math.sqrt(
        sum(((p - y) / max(y, 1.0)) ** 2 for p, y in zip(pred, ys)) / len(ys)
    )


def classify_growth(p: DistortionProfile, margin: float = 0.2) -> GrowthVerdict:
    """Growth classification on the exact entries.

    Bounded is structural: the profile is nondecreasing, so it is bounded
    exactly when it stabilizes (constant over the trailing half).  The other
    models (c*n, c*n^2, c*n^3, c*2^(alpha*n)) compete by weighted
    least-squares relative residual; the winner must beat the runner-up by
    the margin, else inconclusive.
    """
    pts = [(e.n, e.delta) for e in p.exact_entries]
    if len(pts) < 4:
        raise TooFewPoints(f"need >= 4 exact entries, got {len(pts)}")
    ns = [float(n) for n, _ in pts]
    ys = [float(y) for _, y in pts]

    half = (len(ys) + 1) // 2
    if len(set(ys[-half:])) == 1 and ys[-1] == max(ys):
        return GrowthVerdict("bounded", residuals={"bounded": 0.0})

    residuals: dict[str, float] = {}

    for name, d in (("linear", 1), ("polynomial(2)", 2), ("polynomial(3)", 3)):
        ws = [max(y, 1.0) for y in ys]
        num = sum((n ** d) * y / w ** 2 for n, y, w in zip(ns, ys, ws))
        den = sum((n ** d) ** 2 / w ** 2 for n, w in zip(ns, ws))
        c = num / den if den else 0.0
        residuals[name] = _rel_residual([c * n ** d for n in ns], ys)

    pos = [(n, y) for n, y in zip(ns, ys) if y > 0]
    if len(pos) >= 4:
        xs = [n for n, _ in pos]
        ls = [math.log2(y) for _, y in pos]
        mean_x, mean_l = sum(xs) / len(xs), sum(ls) / len(ls)
        sxx = sum((x - mean_x) ** 2 for x in xs)
        alpha = sum((x - mean_x) * (l - mean_l) for x, l in zip(xs, ls)) / sxx if sxx else 0.0
        beta = mean_l - alpha * mean_x
        if alpha > 0.05:
            # fitted on the positive entries, scored on all of them
            residuals["exponential"] = _rel_residual(
                [2.0 ** (alpha * n + beta) for n in ns], ys
            )

    ranked = sorted(residuals.items(), key=lambda kv: kv[1])
    best_name, best_res = ranked[0]
    second_res = ranked[1][1] if len(ranked) > 1 else math.inf
    wins = best_res < 1e-9 or best_res <= (1.0 - margin) * second_res
    if not wins:
        return GrowthVerdict("inconclusive", residuals=residuals)
    if best_name.startswith("polynomial"):
        return GrowthVerdict("polynomial", degree=int(best_name[-2]), residuals=residuals)
    return GrowthVerdict(best_name, residuals=residuals)


@dataclass
class UndistortedVerdict:
    verdict: bool
    K: Optional[Fraction]
    ratios: list[Fraction]

    def as_tuple(self):
        return self.verdict, self.K


def undistorted_check(p: DistortionProfile, stability_fraction: float = 1 / 3) -> UndistortedVerdict:
    """Finite-ball diagnostic for the linear-bound criterion.

    True iff the ratio delta(n)/n is non-increasing over the trailing
    stability window (last ceil(n_max * fraction) entries); K is the maximal
    ratio.  This is a heuristic on a finite ball, never an asymptotic proof.
    """
    entries = p.exact_entries
    if len(entries) < 4:
        raise TooFewPoints(f"need >= 4 exact entries, got {len(entries)}")
    ratios = [Fraction(e.delta, e.n) for e in entries]
    K = max(ratios)
    window = max(2, math.ceil(len(entries) * stability_fraction))
    tail = ratios[-window:]
    stable = all(b <= a for a, b in zip(tail, tail[1:]))
    return UndistortedVerdict(verdict=stable, K=K, ratios=ratios)
