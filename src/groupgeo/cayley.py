"""Breadth-first enumeration of Cayley balls, one whole layer at a time.

The ball is built layer by layer.  The frontier is kept in shortlex order of
its geodesic words and expanded letter by letter, so the first discovery of
each new element is its (parent shortlex rank, letter)-least one: each
vertex's parent chain spells the shortlex-least geodesic word for that
element, and the ball, parent assignments included, is deterministic.

Layout.  ``ball`` is one loop over layers; each layer is expanded by the
marked group's batch action on all of the frontier's open neighbour-table
slots at once.  Vertices are numbered in discovery order, which is already
shortlex order.  ``parent`` (int32, -1 at the identity), ``letter`` (int8
letter code of the last letter, -1 at the identity) and ``depth`` (the
smallest unsigned dtype holding the radius) are numpy arrays; together
parent and letter are the geodesic tree of the shortlex word acceptor
(Epstein et al., *Word Processing in Groups*, 1992, ch. 2-3).  A flat
neighbour table has m = 2|X| columns, row v column c holding the vertex of
v * letter(c), or -1 outside the ball.  Letter codes c and c ^ 1 are
mutually inverse, so finding v * letter(c) = w also fills w's slot c ^ 1
with v, the way coset enumeration records the inverse entry of every entry
it defines (Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, 2005, ch. 5).  The state behind a ball is one of two kinds:

* Packed (``_PackedLayers``), for models with a packed batch action
  (``IntegerMatrixGroup``, ``DyadicAffineGroup``; see ``groups``): the
  elements are the rows of one int64 array.  A layer's products are
  deduplicated by one ``np.unique`` over int64 row keys of the frontier and
  the candidates, new vertices kept in first-occurrence order.  This is
  frontier search (Korf, Zhang, Thayer and Hohwald, J. ACM 52(5), 2005): the
  marking is symmetric, so the open slots of layer r - 1 lead only into
  layers r - 1 and r, every edge towards r - 2 having been filled from the
  other side.  An edge between two frontier rows is open at both ends and
  computed from both; an edge into layer r is computed once.  ``elements``,
  ``keys_shortlex`` and ``index`` are decoded from the rows on first use.
  ``select(row_filter)`` decodes only the rows that a filter on the int64
  rows passes, so a scan for a few subgroup members decodes those alone.
  A stop-key search (``word_length_of``, ``geodesic_shortlex``) decodes and
  keys each layer once, and keeps the vertex it finds.
  Where a layer cannot prove that its products fit in int64, it and the
  rest of the enumeration run element by element on Python integers.
* Element by element (``_ElementLayers``), the default batch action: a list
  of elements, their canonical keys and a dict from key to vertex, each
  open slot multiplied through ``MarkedGroup.letter_actions`` and its
  reverse slot filled at once, so that an edge found from one end is never
  multiplied from the other.

The rows of the last layer are never expanded by enumeration, though their
slots towards the layer before are already filled; ``graph_csr`` fills the
rest on first use, through the same batch action, and the CSR graph is a
mask over the table.

Enumeration runs on one thread.  ``threads`` is accepted, and output is
identical for every value, but it is not parallel.  A process-based split
comes back only with a benchmark gain of at least 1.5x.
"""

from __future__ import annotations

import csv
from array import array
from collections.abc import Mapping
from typing import IO, Iterator, NamedTuple, Optional

import numpy as np

from .errors import CapExceeded, MemoryCapExceeded
from .groups import Element, MarkedGroup
from .words import Word

DEFAULT_MAX_ELEMENTS = 10_000_000
_UNKNOWN = -2  # a neighbour-table slot whose product is not computed yet


class BallIndex:
    """A complete radius-n ball with exact distances and geodesic witnesses,
    all fields in shortlex vertex order (see the module docstring)."""

    def __init__(
        self, group: MarkedGroup, radius: int, sphere_sizes: list[int], layers,
        stop_vertex: Optional[int] = None,
    ):
        self.group = group
        self.radius = radius
        # the vertex of ``ball``'s _stop_key, None when it is not in the ball
        self.stop_vertex = stop_vertex
        self.sphere_sizes = sphere_sizes
        self._layers = layers
        self.parent, self.letter = layers.tree()
        self.depth = np.repeat(
            np.arange(radius + 1, dtype=np.min_scalar_type(radius)), sphere_sizes
        )

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def elements(self) -> list[Element]:
        return self._layers.elements()

    @property
    def keys_shortlex(self) -> list[bytes]:
        return self._layers.keys()

    @property
    def index(self) -> dict[bytes, int]:
        """Canonical key -> vertex."""
        return self._layers.index()

    def select(self, row_filter=None) -> tuple:
        """(vertices, elements) of the vertices whose packed rows pass
        ``row_filter``, a map from an int64 row array in the batch action's
        layout (see ``_packed``) to a boolean mask; only those rows are
        decoded.  Every vertex and ``elements`` when the filter is None or
        the ball is not packed."""
        layers = self._layers
        if row_filter is None or not isinstance(layers, _PackedLayers):
            return range(len(self)), self.elements
        rows = layers.seal().rows[0]
        vs = np.flatnonzero(row_filter(rows))
        return vs.tolist(), layers.batch.unpack(rows[vs])

    @property
    def entries(self) -> "_EntryView":
        """Read-only key -> (element, distance) view, kept for the benchmark's
        checks; library code reads the fields directly."""
        return _EntryView(self)

    def vertex_word(self, v: int) -> Word:
        """The shortlex-least geodesic word of vertex v, from parent pointers."""
        # memoryviews index to Python ints, faster than numpy scalars
        parent, letter = self.parent.data, self.letter.data
        codes = []
        while v:
            codes.append(letter[v])
            v = parent[v]
        letters = tuple(
            (c >> 1, 1 if c % 2 == 0 else -1) for c in reversed(codes)
        )
        return Word(letters)

    def geodesic_word(self, key: bytes) -> Word:
        """The shortlex-least geodesic word of the element with this key."""
        return self.vertex_word(self.index[key])

    def _neighbour_table(self) -> np.ndarray:
        """The n x m neighbour table, filling the last layer's open slots on
        first use."""
        if self._layers.lo < len(self):
            self._layers = self._layers.close()
        return self._layers.table()

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
        for v, (key, d) in enumerate(zip(self.keys_shortlex, self.depth.tolist())):
            writer.writerow([key.hex(), d, fmt(self.vertex_word(v))])


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


class _ElementLayers:
    """The default batch action: elements, their canonical keys and a dict
    from key to vertex, expanded one element and one letter at a time.
    ``lo`` is the first row that may still hold open slots."""

    def __init__(self, G, elements, keys, index, parent, letter, nbr, lo):
        self.G = G
        self._elements, self._keys, self._index = elements, keys, index
        self.parent, self.letter, self.nbr = parent, letter, nbr
        self.lo = lo

    @classmethod
    def start(cls, G: MarkedGroup) -> "_ElementLayers":
        ident = G.model.identity
        key = G.model.canonical_key(ident)
        m = len(G.letter_actions)
        return cls(
            G, [ident], [key], {key: 0}, array("i", [-1]), array("b", [-1]),
            array("i", [_UNKNOWN]) * m, 0,
        )

    @classmethod
    def from_packed(cls, packed: "_PackedLayers") -> "_ElementLayers":
        """The same ball, re-held on Python integers."""
        packed.seal()
        keys = packed.keys()
        return cls(
            packed.G, packed.elements(), keys, packed.index(),
            array("i", packed.parents[0].tobytes()), array("b", packed.letters[0].tobytes()),
            array("i", packed.tables[0].tobytes()), packed.lo,
        )

    def elements(self) -> list:
        return self._elements

    def keys(self) -> list[bytes]:
        return self._keys

    def index(self) -> dict[bytes, int]:
        return self._index

    def find(self, key: bytes) -> Optional[int]:
        """The vertex with this key, or None."""
        return self._index.get(key)

    def expand(self, r: int, max_elements: int) -> int:
        """Append layer r; the number of new vertices."""
        return self._expand(True, r, max_elements)

    def close(self) -> "_ElementLayers":
        """Fill the last layer's open slots, -1 outside the ball."""
        self._expand(False)
        return self

    def _expand(self, grow: bool, r: int = 0, max_elements: int = 0) -> int:
        canonical_key, actions = self.G.model.canonical_key, self.G.letter_actions
        elements, keys, index, parent, letter, nbr = (
            self._elements, self._keys, self._index, self.parent, self.letter, self.nbr
        )
        get = index.get
        m = len(actions)
        blank = array("i", [_UNKNOWN]) * m
        start = size = len(elements)
        for v in range(self.lo, start):
            g = elements[v]
            row = v * m
            for code, act in enumerate(actions):
                if nbr[row + code] != _UNKNOWN:
                    continue
                h = act(g)
                hk = canonical_key(h)
                j = get(hk)
                if j is None:
                    if not grow:
                        nbr[row + code] = -1
                        continue
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
        self.lo = start
        return size - start

    def tree(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.letter, dtype=np.int8),
        )

    def table(self) -> np.ndarray:
        m = len(self.G.letter_actions)
        return np.frombuffer(self.nbr, dtype=np.int32).reshape(len(self._elements), m)


class _PackedLayers:
    """Packed state: per-layer blocks of int64 element rows, neighbour-table
    rows, parents and letters, joined into one array each by ``seal``.
    ``lo`` is the first row that may still hold open slots."""

    def __init__(self, G: MarkedGroup, batch):
        self.G = G
        self.batch = batch
        m = len(G.letter_actions)
        self.rows = [batch.pack(G.model.identity)]
        self.tables = [np.full((1, m), _UNKNOWN, dtype=np.int32)]
        self.parents = [np.array([-1], dtype=np.int32)]
        self.letters = [np.array([-1], dtype=np.int8)]
        self.lo, self.size = 0, 1
        self._elements = self._keys = self._index = None

    @classmethod
    def start(cls, G: MarkedGroup) -> Optional["_PackedLayers"]:
        batch = G.batch_action()
        return None if batch is None else cls(G, batch)

    def elements(self) -> list:
        if self._elements is None:
            self._elements = self.batch.unpack(self.seal().rows[0])
        return self._elements

    def keys(self) -> list[bytes]:
        if self._keys is None:
            self._keys = list(map(self.G.model.canonical_key, self.elements()))
        return self._keys

    def index(self) -> dict[bytes, int]:
        if self._index is None:
            self._index = dict(zip(self.keys(), range(self.size)))
        return self._index

    def find(self, key: bytes) -> Optional[int]:
        """The vertex in the last layer with this key, or None; the layers
        before it were searched on earlier calls."""
        canonical_key = self.G.model.canonical_key
        for v, g in enumerate(self.batch.unpack(self.rows[-1]), self.lo):
            if canonical_key(g) == key:
                return v
        return None

    def _link(self, rows_f: np.ndarray, table_f: np.ndarray):
        """The products on the open slots of frontier rows ``rows_f`` (whose
        table rows are ``table_f``) and their dedup against the frontier:
        (src, code, candidates, first, inverse) from one ``np.unique`` over
        frontier rows then candidates, or None when the batch action cannot
        prove that a product fits in int64."""
        from ._packed import row_keys  # loaded with the batch action

        m = table_f.shape[1]
        slots = np.flatnonzero(table_f.ravel() == _UNKNOWN)
        src, code = np.divmod(slots, m)
        cand = np.empty((len(slots), rows_f.shape[1]), dtype=np.int64)
        for c in range(m):
            sel = np.flatnonzero(code == c)
            if len(sel):
                out = self.batch.act(rows_f[src[sel]], c)
                if out is None:
                    return None
                cand[sel] = out
        keys = row_keys(np.concatenate((rows_f, cand)))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        return src, code, cand, first, inverse

    def expand(self, r: int, max_elements: int) -> Optional[int]:
        """Append layer r; the number of new vertices, or None, with nothing
        changed, when the batch action cannot prove its products fit."""
        rows_f, table_f = self.rows[-1], self.tables[-1]
        linked = self._link(rows_f, table_f)
        if linked is None:
            return None
        src, code, cand, first, inverse = linked
        k = len(rows_f)
        new = first >= k
        count = int(np.count_nonzero(new))
        if self.size + count > max_elements:
            raise MemoryCapExceeded(max_elements, r)
        # a new element is numbered by its first candidate, which is its
        # least (parent rank, letter) discovery
        is_found = np.zeros(len(cand), dtype=bool)
        is_found[first[new] - k] = True
        found = np.flatnonzero(is_found)
        target = first + self.lo
        target[new] = self.size - 1 + np.cumsum(is_found)[first[new] - k]
        target = target[inverse[k:]]
        table_f[src, code] = target
        # only an edge into the new layer needs its reverse slot filled: a
        # slot between two frontier rows is open at both ends, so both are
        # computed here
        into_new = target >= self.size
        table_new = np.full((count, table_f.shape[1]), _UNKNOWN, dtype=np.int32)
        table_new[target[into_new] - self.size, code[into_new] ^ 1] = self.lo + src[into_new]
        self.rows.append(cand[found])
        self.tables.append(table_new)
        self.parents.append((self.lo + src[found]).astype(np.int32))
        self.letters.append(code[found].astype(np.int8))
        self.lo, self.size = self.size, self.size + count
        return count

    def close(self):
        """Fill the last layer's open slots, -1 outside the ball."""
        self.seal()
        rows_f, table_f = self.rows[0][self.lo:], self.tables[0][self.lo:]
        linked = self._link(rows_f, table_f)
        if linked is None:
            return _ElementLayers.from_packed(self).close()
        src, code, _, first, inverse = linked
        k = len(rows_f)
        # every product is a frontier row or outside the ball, and a slot
        # between two frontier rows is open at both ends
        table_f[src, code] = np.where(first < k, first + self.lo, -1)[inverse[k:]]
        self.lo = self.size
        return self

    def seal(self) -> "_PackedLayers":
        """Join the per-layer blocks; enumeration appends no more layers."""
        for blocks in (self.rows, self.tables, self.parents, self.letters):
            if len(blocks) > 1:
                blocks[:] = [np.concatenate(blocks)]
        return self

    def tree(self) -> tuple[np.ndarray, np.ndarray]:
        self.seal()
        return self.parents[0], self.letters[0]

    def table(self) -> np.ndarray:
        return self.seal().tables[0]


def ball(
    G: MarkedGroup,
    n: int,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    threads: int = 1,
    _stop_key: Optional[bytes] = None,
) -> BallIndex:
    """Enumerate the complete radius-n ball of (G, X).

    Raises MemoryCapExceeded, naming the radius being enumerated, as soon
    as a layer would make more than ``max_elements``: a packed layer before
    it is stored, an element-by-element one at its first element past the
    cap.  Enumeration failure is never a silent truncation.  With ``_stop_key``, enumeration
    stops after the layer that holds that key, each layer searched once, and
    the index's ``stop_vertex`` is its vertex.  ``threads`` is accepted but
    not parallel (see the module docstring).
    """
    if n < 0:
        raise ValueError("radius must be >= 0")
    layers = _PackedLayers.start(G) or _ElementLayers.start(G)
    sphere_sizes = [1]
    found = None
    for r in range(1, n + 1):
        if _stop_key is not None:
            found = layers.find(_stop_key)
            if found is not None:
                break
        count = layers.expand(r, max_elements)
        if count is None:
            # no int64 proof for this layer: it and the rest run on Python ints
            layers = _ElementLayers.from_packed(layers)
            count = layers.expand(r, max_elements)
        sphere_sizes.append(count)
        if not count:
            # group exhausted; remaining spheres are empty
            sphere_sizes.extend([0] * (n - r))
            break
    if _stop_key is not None and found is None:
        found = layers.find(_stop_key)
    return BallIndex(G, len(sphere_sizes) - 1, sphere_sizes, layers, found)


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
    idx = ball(G, cap, max_elements=max_elements, _stop_key=G.model.canonical_key(g))
    v = idx.stop_vertex
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
    idx = ball(G, cap, max_elements=max_elements, _stop_key=G.model.canonical_key(g))
    if idx.stop_vertex is None:
        raise CapExceeded(f"element not found within radius {cap}")
    return idx.vertex_word(idx.stop_vertex)


def growth_series(
    G: MarkedGroup,
    n: int,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    threads: int = 1,
) -> list[int]:
    """Sphere sizes for radii 0..n."""
    return ball(G, n, max_elements=max_elements, threads=threads).sphere_sizes
