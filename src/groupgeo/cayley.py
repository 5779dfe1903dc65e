"""Breadth-first enumeration of Cayley balls with canonical-key deduplication.

The ball is built layer by layer.  The frontier is kept in shortlex order of
its geodesic words and expanded letter by letter, so the first discovery of
each new element is its (parent shortlex rank, letter)-least one: each
vertex's parent chain spells the shortlex-least geodesic word for that
element, and the ball, parent assignments included, is deterministic.
Enumeration multiplies through ``MarkedGroup.letter_actions``, the model's
right action of each letter (see ``groups``), never a general product.

Layout.  A ball of n elements is stored once, in shortlex vertex order: each
element gets its vertex number when it is first discovered, which is already
its shortlex rank.  ``keys_shortlex`` and ``elements`` are lists indexed by
vertex, ``index`` is the one dict from canonical key to vertex, and
``parent`` (int32, -1 at the identity), ``letter`` (int8 letter code of the
last letter, -1 at the identity) and ``depth`` (the smallest unsigned dtype
holding the radius) are numpy arrays.  Together parent and letter are the
geodesic tree of the shortlex word acceptor (Epstein et al., *Word
Processing in Groups*, 1992, ch. 2-3).  Enumeration also fills a flat
neighbour table with m = 2|X| columns, row v column c holding the vertex of
v * letter(c), or -1 outside the ball.  Each edge is multiplied once: letter
codes c and c ^ 1 are mutually inverse, so computing v * letter(c) = w also
fills w's slot c ^ 1 with v, the way coset enumeration records the inverse
entry of every entry it defines (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005, ch. 5).  A row is reserved when its
vertex is discovered and expansion skips the slots already filled; a filled
slot points into the index, so skipping it never skips a first discovery.
The rows of the last layer are never expanded by enumeration, though their
slots towards the layer before are already filled; ``graph_csr`` fills the
rest on first use, and the CSR graph is a mask over the table.

Enumeration runs on one thread.  ``threads`` is accepted, and output is
identical for every value, but it is not parallel: expanding a frontier is
Python work bound by the GIL.  A process-based split comes back only with a
benchmark gain of at least 1.5x.
"""

from __future__ import annotations

import csv
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import IO, Iterator, NamedTuple, Optional

import numpy as np

from .errors import CapExceeded, MemoryCapExceeded
from .groups import Element, MarkedGroup
from .words import Word

DEFAULT_MAX_ELEMENTS = 10_000_000
_UNKNOWN = -2  # a neighbour-table slot whose product is not computed yet


@dataclass
class BallIndex:
    """A complete radius-n ball with exact distances and geodesic witnesses,
    all fields in shortlex vertex order (see the module docstring)."""

    group: MarkedGroup
    radius: int
    sphere_sizes: list[int]
    keys_shortlex: list[bytes]
    elements: list[Element]
    index: dict[bytes, int]
    parent: np.ndarray
    letter: np.ndarray
    depth: np.ndarray
    # flat neighbour table, m entries per row, reserved as _UNKNOWN when the
    # vertex is discovered; rows from _open on may still hold _UNKNOWN slots,
    # which the first graph_csr call fills
    _nbr: array = field(repr=False)
    _open: int = field(repr=False)

    def __len__(self) -> int:
        return len(self.keys_shortlex)

    @property
    def entries(self) -> "_EntryView":
        """Read-only key -> (element, distance) view, kept for the benchmark's
        checks; library code reads the fields directly."""
        return _EntryView(self)

    def geodesic_word(self, key: bytes) -> Word:
        """The shortlex-least geodesic word of the element, from parent pointers."""
        # memoryviews index to Python ints, faster than numpy scalars
        parent, letter = self.parent.data, self.letter.data
        codes = []
        v = self.index[key]
        while v:
            codes.append(letter[v])
            v = parent[v]
        letters = tuple(
            (c >> 1, 1 if c % 2 == 0 else -1) for c in reversed(codes)
        )
        return Word(letters)

    def _neighbour_table(self) -> np.ndarray:
        """The n x m neighbour table, filling the last layer's open slots on
        first use."""
        m = 2 * len(self.group.alphabet)
        nbr = self._nbr
        if self._open < len(self):
            canonical_key = self.group.model.canonical_key
            actions = self.group.letter_actions
            get = self.index.get
            for v in range(self._open, len(self)):
                g = self.elements[v]
                row = v * m
                for code, act in enumerate(actions):
                    if nbr[row + code] == _UNKNOWN:
                        w = get(canonical_key(act(g)), -1)
                        nbr[row + code] = w
                        if w >= 0:
                            nbr[w * m + (code ^ 1)] = v
            self._open = len(self)
        return np.frombuffer(nbr, dtype=np.int32).reshape(len(self), m)

    def graph_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected Cayley adjacency restricted to the ball, CSR over the
        shortlex vertex order: row v lists v * letter(c) for c = 0..m-1 that
        lie in the ball, duplicates and self-loops included."""
        table = self._neighbour_table()
        inside = table >= 0
        indptr = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum(inside.sum(axis=1), out=indptr[1:])
        return indptr, table[inside]

    def prefix_matrix(self) -> np.ndarray:
        """int32 matrix: row v, column t holds the vertex index of the
        geodesic prefix of v at time t, padded with v itself beyond its
        distance (endpoint-constant evaluation)."""
        n = len(self)
        T = self.radius + 1
        # first vertex of each layer; cur[v] has depth <= t, and depth t
        # exactly when cur[v] >= starts[t]
        starts = np.cumsum([0] + self.sphere_sizes[:-1])
        P = np.empty((n, T), dtype=np.int32)
        cur = np.arange(n, dtype=np.int32)
        for t in range(T - 1, -1, -1):
            P[:, t] = cur
            if t:
                cur = np.where(cur >= starts[t], self.parent[cur], cur)
        return P

    def write_csv(self, fileobj: IO[str]) -> None:
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["key", "distance", "witness_word"])
        fmt = self.group.alphabet.format_word
        for key, d in zip(self.keys_shortlex, self.depth.tolist()):
            writer.writerow([key.hex(), d, fmt(self.geodesic_word(key))])


class _Entry(NamedTuple):
    element: Element
    distance: int


class _EntryView(Mapping):
    """key -> (element, distance), built on each access from the
    ball's fields; nothing per element is stored."""

    def __init__(self, idx: BallIndex):
        self._idx = idx

    def __getitem__(self, key: bytes) -> _Entry:
        v = self._idx.index[key]
        return _Entry(self._idx.elements[v], int(self._idx.depth[v]))

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._idx.keys_shortlex)

    def __len__(self) -> int:
        return len(self._idx)


def ball(
    G: MarkedGroup,
    n: int,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    threads: int = 1,
    _stop_key: Optional[bytes] = None,
) -> BallIndex:
    """Enumerate the complete radius-n ball of (G, X).

    Raises MemoryCapExceeded, naming the radius being enumerated, as soon as
    a new element would make more than ``max_elements``; enumeration failure
    is never a silent truncation.  With ``_stop_key``, enumeration stops
    after the layer that holds that key.  ``threads`` is accepted but not
    parallel (see the module docstring).
    """
    if n < 0:
        raise ValueError("radius must be >= 0")
    model = G.model
    canonical_key, actions = model.canonical_key, G.letter_actions
    ident = model.identity
    keys = [canonical_key(ident)]
    elements = [ident]
    index = {keys[0]: 0}
    get = index.get
    parent = array("i", [-1])
    letter = array("b", [-1])
    m = len(actions)
    blank = array("i", [_UNKNOWN]) * m
    nbr = blank[:]
    sphere_sizes = [1]
    size = 1
    layer_start = 0
    for r in range(1, n + 1):
        if _stop_key is not None and _stop_key in index:
            break
        # vertices are numbered in discovery order: the frontier is in
        # shortlex order, so the first discovery of an element is its least
        # (parent shortlex rank, letter) one, and the new layer comes out in
        # shortlex order
        layer_end = size
        for v in range(layer_start, layer_end):
            g = elements[v]
            row = v * m
            for code, act in enumerate(actions):
                if nbr[row + code] != _UNKNOWN:
                    continue
                h = act(g)
                hk = canonical_key(h)
                j = get(hk)
                if j is None:
                    if size >= max_elements:
                        raise MemoryCapExceeded(max_elements, r)
                    j = size
                    size += 1
                    index[hk] = j
                    keys.append(hk)
                    elements.append(h)
                    parent.append(v)
                    letter.append(code)
                    nbr += blank
                nbr[row + code] = j
                # codes c and c ^ 1 are mutually inverse: j * letter(c ^ 1) = v
                nbr[j * m + (code ^ 1)] = v
        sphere_sizes.append(size - layer_end)
        layer_start = layer_end
        if size == layer_end:
            # group exhausted; remaining spheres are empty
            sphere_sizes.extend([0] * (n - r))
            break
    radius = len(sphere_sizes) - 1
    depth = np.repeat(
        np.arange(radius + 1, dtype=np.min_scalar_type(radius)), sphere_sizes
    )
    return BallIndex(
        G, radius, sphere_sizes, keys, elements, index,
        np.frombuffer(parent, dtype=np.int32), np.frombuffer(letter, dtype=np.int8),
        depth, nbr, layer_start,
    )


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
    key = G.model.canonical_key(g)
    idx = ball(G, cap, max_elements=max_elements, _stop_key=key)
    v = idx.index.get(key)
    return None if v is None else int(idx.depth[v])


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
    if key not in idx.index:
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
