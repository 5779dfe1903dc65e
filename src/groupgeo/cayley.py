"""Breadth-first enumeration of Cayley balls with canonical-key deduplication.

The ball is built layer by layer.  The frontier is kept in shortlex order of
its geodesic words and expanded letter by letter, so the first discovery of
each new element is its (parent shortlex rank, letter)-least one: each
entry's parent chain spells the shortlex-least geodesic word for that
element, and the ball, parent assignments included, is deterministic.

Enumeration runs on one thread.  ``threads`` is accepted, and output is
identical for every value, but it is not parallel: expanding a frontier is
Python work bound by the GIL.  A process-based split comes back only with a
benchmark gain of at least 1.5x.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Optional

import numpy as np

from .errors import CapExceeded, MemoryCapExceeded
from .groups import Element, MarkedGroup, evaluate
from .words import Word

DEFAULT_MAX_ELEMENTS = 10_000_000


@dataclass
class BallEntry:
    element: Element
    distance: int
    parent_key: Optional[bytes]
    letter_code: Optional[int]
    ordinal: int


@dataclass
class BallIndex:
    """A complete radius-n ball with exact distances and geodesic witnesses."""

    group: MarkedGroup
    radius: int
    entries: dict[bytes, BallEntry]
    sphere_sizes: list[int]
    layers: list[list[bytes]]
    _key_list: Optional[list[bytes]] = field(default=None, repr=False)
    _index_of: Optional[dict[bytes, int]] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.entries)

    def distance_of(self, key: bytes) -> int:
        return self.entries[key].distance

    def iter_keys_shortlex(self) -> Iterator[bytes]:
        for layer in self.layers:
            yield from layer

    @property
    def keys_shortlex(self) -> list[bytes]:
        if self._key_list is None:
            self._key_list = [k for layer in self.layers for k in layer]
        return self._key_list

    def vertex_index(self, key: bytes) -> int:
        if self._index_of is None:
            self._index_of = {k: i for i, k in enumerate(self.keys_shortlex)}
        return self._index_of[key]

    def geodesic_word(self, key: bytes) -> Word:
        """The shortlex-least geodesic word of the entry, from parent pointers."""
        codes = []
        e = self.entries[key]
        while e.parent_key is not None:
            codes.append(e.letter_code)
            e = self.entries[e.parent_key]
        letters = tuple(
            (c >> 1, 1 if c % 2 == 0 else -1) for c in reversed(codes)
        )
        return Word(letters)

    def graph_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected Cayley adjacency restricted to the ball, CSR over the
        shortlex vertex order."""
        keys = self.keys_shortlex
        idx = {k: i for i, k in enumerate(keys)}
        model = self.group.model
        adj: list[list[int]] = [[] for _ in keys]
        m = 2 * len(self.group.alphabet)
        for i, k in enumerate(keys):
            g = self.entries[k].element
            for code in range(m):
                h = model.multiply(g, self.group.letter_image_by_code(code))
                j = idx.get(model.canonical_key(h))
                if j is not None:
                    adj[i].append(j)
        indptr = np.zeros(len(keys) + 1, dtype=np.int64)
        for i, row in enumerate(adj):
            indptr[i + 1] = indptr[i] + len(row)
        nbrs = np.empty(int(indptr[-1]), dtype=np.int32)
        for i, row in enumerate(adj):
            nbrs[indptr[i]:indptr[i + 1]] = row
        return indptr, nbrs

    def prefix_matrix(self) -> np.ndarray:
        """int32 matrix: row v, column t holds the vertex index of the
        geodesic prefix of v at time t, padded with v itself beyond its
        distance (endpoint-constant evaluation)."""
        keys = self.keys_shortlex
        n = len(keys)
        T = self.radius + 1
        P = np.empty((n, T), dtype=np.int32)
        for i, k in enumerate(keys):
            e = self.entries[k]
            if e.parent_key is None:
                P[i, :] = i
            else:
                p = self.vertex_index(e.parent_key)
                d = e.distance
                P[i, :d] = P[p, :d]
                P[i, d:] = i
        return P

    def write_csv(self, fileobj: IO[str]) -> None:
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["key", "distance", "witness_word"])
        fmt = self.group.alphabet.format_word
        for key in self.iter_keys_shortlex():
            writer.writerow(
                [key.hex(), self.entries[key].distance, fmt(self.geodesic_word(key))]
            )


def ball(
    G: MarkedGroup,
    n: int,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    threads: int = 1,
    _stop_key: Optional[bytes] = None,
) -> BallIndex:
    """Enumerate the complete radius-n ball of (G, X).

    Raises MemoryCapExceeded once more than ``max_elements`` entries would be
    stored; enumeration failure is never a silent truncation.  ``threads`` is
    accepted but not parallel (see the module docstring).
    """
    if n < 0:
        raise ValueError("radius must be >= 0")
    model = G.model
    ident = model.identity
    id_key = model.canonical_key(ident)
    entries = {id_key: BallEntry(ident, 0, None, None, 0)}
    layers = [[id_key]]
    sphere_sizes = [1]
    keys_by_ordinal = [id_key]
    frontier = [(0, ident)]
    codes = range(2 * len(G.alphabet))
    next_ordinal = 1
    for r in range(1, n + 1):
        if _stop_key is not None and _stop_key in entries:
            break
        # the frontier is in shortlex order, so the first discovery of an
        # element is its least (parent shortlex rank, letter) candidate, and
        # the candidates come out in the shortlex order of the new layer
        candidates: dict[bytes, tuple[int, int, Element]] = {}
        for ordinal, g in frontier:
            for code in codes:
                h = model.multiply(g, G.letter_image_by_code(code))
                hk = model.canonical_key(h)
                if hk not in entries and hk not in candidates:
                    candidates[hk] = (ordinal, code, h)
        if len(entries) + len(candidates) > max_elements:
            raise MemoryCapExceeded(max_elements, r)
        layer = []
        frontier = []
        for hk, (parent_ord, code, h) in candidates.items():
            entries[hk] = BallEntry(h, r, keys_by_ordinal[parent_ord], code, next_ordinal)
            keys_by_ordinal.append(hk)
            layer.append(hk)
            frontier.append((next_ordinal, h))
            next_ordinal += 1
        layers.append(layer)
        sphere_sizes.append(len(layer))
        if not layer:
            # group exhausted; remaining spheres are empty
            sphere_sizes.extend([0] * (n - r))
            for _ in range(n - r):
                layers.append([])
            break
    return BallIndex(G, len(layers) - 1, entries, sphere_sizes, layers)


def word_length_of(
    g: Element,
    G: MarkedGroup,
    cap: int,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> Optional[int]:
    """Exact word length of g if <= cap, else None."""
    if G.norm_oracle is not None:
        norm = G.norm_oracle(g)
        return norm if norm <= cap else None
    model = G.model
    target = model.canonical_key(g)
    seen = {model.canonical_key(model.identity)}
    if target in seen:
        return 0
    frontier = [model.identity]
    codes = range(2 * len(G.alphabet))
    for r in range(1, cap + 1):
        nxt = []
        for h in frontier:
            for code in codes:
                e = model.multiply(h, G.letter_image_by_code(code))
                ek = model.canonical_key(e)
                if ek in seen:
                    continue
                if ek == target:
                    return r
                seen.add(ek)
                nxt.append(e)
        if len(seen) > max_elements:
            raise MemoryCapExceeded(max_elements, r)
        if not nxt:
            return None
        frontier = nxt
    return None


def distance(
    g: Element,
    h: Element,
    G: MarkedGroup,
    cap: int,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> Optional[int]:
    """d(g, h) = ||g^-1 h||, exact up to the cap."""
    rel = G.model.multiply(G.model.invert(g), h)
    return word_length_of(rel, G, cap, max_elements)


def geodesic_shortlex(
    g: Element,
    G: MarkedGroup,
    cap: int,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> Word:
    """The shortlex-least geodesic word evaluating to g."""
    key = G.model.canonical_key(g)
    idx = ball(G, cap, max_elements=max_elements, _stop_key=key)
    if key not in idx.entries:
        raise CapExceeded(f"element not found within radius {cap}")
    return idx.geodesic_word(key)


def growth_series(
    G: MarkedGroup,
    n: int,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    threads: int = 1,
) -> list[int]:
    """Sphere sizes for radii 0..n."""
    return ball(G, n, max_elements=max_elements, threads=threads).sphere_sizes
