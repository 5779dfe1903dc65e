"""Computable-group contract and concrete models.

Every model answers the word problem exactly through ``canonical_key``:
two elements are equal in the group iff their keys are equal bytes.  All
arithmetic is exact (Python integers never wrap), so keys are collision-free
by construction.

Letter products.  Enumeration, the ball's neighbour table and the combing
lines only ever multiply by a marked letter.  ``MarkedGroup.letter_images``
holds the image of each letter code, built once with the marking, and
every such product is ``multiply(x, letter_images[c])``: a model has one
product per element, as a packed batch has one row product
(Epstein et al., *Word Processing in Groups*, 1992, ch. 2-3).

Batch actions.  Ball enumeration expands a whole layer at once through the
model's ``batch_action()``, which depends on the model alone, not on the
marking.  Five models have a packed one (module ``_packed``), acting on
int64 rows, one row per element:

* ``IntegerMatrixGroup``: the d*d entries in row-major order; a product by
  one elementary matrix on the right is one column operation on the whole
  array, any other product one batched matmul, and the inverse the exact
  adjugate (determinant +-1) on columns.
* ``DyadicAffineGroup``: the columns (k, num, exp); a product or inverse
  is a few vectorised shifts, and normalisation counts trailing zeros on
  ``num & -num`` with exact integer operations.
* ``FreeGroupModel``: a leading 1 bit, then one fixed-width code per
  letter; a product by one word drops the last code or appends one, once
  per letter of the word, and a product of two arrays cancels where the
  words meet in one masked step per cancelled code.
* ``TableGroup``: the element index; a product or inverse is a table read.
* ``DirectProduct``, when every factor has a batch (as z2's two rank-1 free
  groups do): the factor rows side by side, each operation one call of
  each factor's batch on its columns.

Every packing is canonical, so equal rows are equal elements.  A packed
batch action has one product, ``multiply(A, B)``, on row arrays of one
length or with either one a single row that is broadcast, and one inverse,
``invert(A)``; ``pack(y)`` makes an element a row.  Enumeration passes
``multiply`` the letter images' rows, a scan tests a whole layer of a ball
at once, and the equivariance and quasi-geodesic checks multiply the rows
of their triples and segments pairwise.

The int64 bound rule: before each product or inverse, a batch action proves
from the largest |entry| of its inputs that no result or intermediate
overflows, with |result| <= 2M for an elementary matrix and
<= d * M_A * M_B for a matmul, and d! * M^d for a matrix inverse
(``DyadicBatch`` states its bound on num, ``FreeBatch`` on the bit length;
a table product cannot overflow, and a direct product has a proof when
each factor has one).
When the proof fails, as it does at once for an element with an entry of
-2^63, it raises OverflowError, as ``pack`` does for an entry past int64;
only the element-by-element references catch it and go on over Python
integers, so no wrapped integer is ever stored.  Every other model
(Garside braids, and a product with such a factor) returns None from
``batch_action()``: its batch action is the default, one ``multiply`` call
per open slot.

General products.  ``multiply`` and ``invert`` of arbitrary elements (the
combing checks, conjugacy tests, every product by a letter image) cost what
the algebra costs:

* ``IntegerMatrixGroup`` runs straight-line code generated from the
  dimension alone and compiled once per dimension (``_straight_line``): the
  product unpacks both matrices and returns the d^2 dot products; the
  inverse is the adjugate by Laplace expansion with every subdeterminant
  computed once, about d^2 * 2^d terms, and the determinant is row 0 of x
  times column 0 of the adjugate.
* ``FreeGroupModel`` elements are freely reduced, so x * y cancels only
  where x meets y and never reduces the whole word again.

No product, inverse or key is memoised per element.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import BadCosetRep, MissingPresentation
from .words import Alphabet, Presentation, Word

Element = Any


class GroupModel(ABC):
    """A group with exact multiplication, inversion and canonical keys."""

    @property
    @abstractmethod
    def identity(self) -> Element: ...

    @abstractmethod
    def multiply(self, x: Element, y: Element) -> Element: ...

    @abstractmethod
    def invert(self, x: Element) -> Element: ...

    @abstractmethod
    def canonical_key(self, x: Element) -> bytes: ...

    def batch_action(self):
        """The packed batch action of this model's elements, or None: ball
        enumeration then expands each layer element by element through
        ``multiply``."""
        return None

    def power(self, x: Element, n: int) -> Element:
        if n < 0:
            return self.power(self.invert(x), -n)
        acc = self.identity
        base = x
        while n:
            if n & 1:
                acc = self.multiply(acc, base)
            base = self.multiply(base, base)
            n >>= 1
        return acc

    def describe(self, x: Element) -> str:
        return repr(x)


class TableGroup(GroupModel):
    """A finite group given by its multiplication table; elements are indices."""

    def __init__(self, names: Sequence[str], table: Sequence[Sequence[int]], identity_index: int = 0):
        if not isinstance(names, (list, tuple)) or not all(isinstance(x, str) for x in names):
            raise ValueError(f"names must be a list of element names, got {names!r}")
        if not isinstance(table, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in table):
            raise ValueError(f"table must be a list of rows, got {table!r}")
        n = len(names)
        self.names = tuple(names)
        self.table = tuple(tuple(row) for row in table)
        self._identity = identity_index
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table must be square over the element list")
        # type(x) is int: a bool, float or string is no element index
        if type(identity_index) is not int or not 0 <= identity_index < n:
            raise ValueError(f"identity {identity_index!r} is not an element index in range({n})")
        bad = [x for row in self.table for x in row if type(x) is not int or not 0 <= x < n]
        if bad:
            raise ValueError(f"table entry {bad[0]!r} is not an element index in range({n})")
        for i in range(n):
            if self.table[identity_index][i] != i or self.table[i][identity_index] != i:
                raise ValueError("identity row/column malformed")
        self._inverses = []
        for i in range(n):
            inv = [j for j in range(n) if self.table[i][j] == identity_index]
            if len(inv) != 1:
                raise ValueError(f"element {names[i]} lacks a unique inverse")
            self._inverses.append(inv[0])

    @property
    def identity(self) -> int:
        return self._identity

    def multiply(self, x: int, y: int) -> int:
        return self.table[x][y]

    def invert(self, x: int) -> int:
        return self._inverses[x]

    def canonical_key(self, x: int) -> bytes:
        return b"t%d" % x

    def batch_action(self):
        from ._packed import TableBatch

        return TableBatch(self.table, self._inverses)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown element {name!r}") from None

    def describe(self, x: int) -> str:
        return self.names[x]

    def __len__(self) -> int:
        return len(self.names)

    @classmethod
    def klein_four(cls) -> "TableGroup":
        # Z2 x Z2 with elements 1, x, y, xy.
        names = ("1", "x", "y", "xy")
        table = [
            [0, 1, 2, 3],
            [1, 0, 3, 2],
            [2, 3, 0, 1],
            [3, 2, 1, 0],
        ]
        return cls(names, table)


# dim -> (multiply, adjugate_and_det), straight-line code for that dimension
_STRAIGHT_LINE: dict = {}


def _straight_line(dim: int):
    """Straight-line ``multiply(x, y)`` and ``adjugate_and_det(x)`` for
    dim x dim matrices of Python ints, generated from the dimension alone and
    compiled once per dimension.

    The adjugate is a Laplace expansion along the first remaining row of
    every minor, each subdeterminant computed once and kept in a local,
    keyed by its row set and column set: about dim^2 * 2^dim terms where the
    plain recursion takes dim!.  The determinant is row 0 of x times
    column 0 of the adjugate."""
    fns = _STRAIGHT_LINE.get(dim)
    if fns is not None:
        return fns
    d = range(dim)
    x = [[f"x{i}_{j}" for j in d] for i in d]
    y = [[f"y{i}_{j}" for j in d] for i in d]

    def matrix(entries):
        # a tuple-of-row-tuples display, a target or a value; the trailing
        # commas keep a 1 x 1 matrix a tuple of tuples
        return "(" + "".join("(" + "".join(e + ", " for e in row) + "), " for row in entries) + ")"

    lines = ["def multiply(x, y):", f"    {matrix(x)} = x", f"    {matrix(y)} = y"]
    lines.append("    return " + matrix(
        [[" + ".join(f"{x[i][k]}*{y[k][j]}" for k in d) for j in d] for i in d]
    ))
    lines += ["def adjugate_and_det(x):", f"    {matrix(x)} = x"]
    names: dict = {}

    def det(rows, cols):
        # the determinant of x restricted to rows x cols, as a local's name
        if not rows:
            return "1"
        if len(rows) == 1:
            return x[rows[0]][cols[0]]
        name = names.get((rows, cols))
        if name is None:
            terms = [
                f"{'- ' if k % 2 else '+ '}{x[rows[0]][c]}*{det(rows[1:], cols[:k] + cols[k + 1:])}"
                for k, c in enumerate(cols)
            ]
            name = names[rows, cols] = f"m{len(names)}"
            lines.append(f"    {name} = " + " ".join(terms)[2:])
        return name

    def cofactor(i, j):
        # (-1)^(i+j) times the minor without row i and column j
        minor = det(tuple(r for r in d if r != i), tuple(c for c in d if c != j))
        return f"-{minor}" if (i + j) % 2 else minor

    # adj(x)[i][j] is the (j, i) cofactor
    adj = [[cofactor(j, i) for j in d] for i in d]
    det_x = " + ".join(f"{x[0][k]}*{adj[k][0]}" for k in d)
    lines.append(f"    return {matrix(adj)}, {det_x}")
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<IntegerMatrixGroup({dim})>", "exec"), namespace)
    fns = _STRAIGHT_LINE[dim] = (namespace["multiply"], namespace["adjugate_and_det"])
    return fns


class IntegerMatrixGroup(GroupModel):
    """Square matrices over arbitrary-precision integers with determinant +-1.

    Elements are tuples of tuples of Python ints; equality is entrywise, so the
    canonical key is just the flattened entry list.
    """

    def __init__(self, dim: int):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ValueError(f"matrix dimension must be an integer >= 1, got {dim!r}")
        self.dim = dim
        self._multiply, self._adjugate_and_det = _straight_line(dim)
        self._identity = tuple(
            tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
        )
        self._key_format = b"m" + b",".join([b"%d"] * (dim * dim))

    @property
    def identity(self):
        return self._identity

    def element(self, rows: Iterable[Iterable[int]]):
        m = tuple(tuple(int(v) for v in row) for row in rows)
        if len(m) != self.dim or any(len(r) != self.dim for r in m):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix")
        if self._adjugate_and_det(m)[1] not in (1, -1):
            raise ValueError("matrix is not invertible over the integers")
        return m

    def multiply(self, x, y):
        return self._multiply(x, y)

    def invert(self, x):
        adj, det = self._adjugate_and_det(x)
        if det == 1:
            return adj
        if det == -1:
            return tuple(tuple(-v for v in row) for row in adj)
        raise ValueError("matrix is not invertible over the integers")

    def batch_action(self):
        from ._packed import MatrixBatch

        return MatrixBatch(self.dim)

    def canonical_key(self, x) -> bytes:
        return self._key_format % sum(x, ())


class DyadicAffineGroup(GroupModel):
    """Maps x -> 2^k x + m with k an integer and m a dyadic rational.

    An element is a triple ``(k, num, exp)`` meaning m = num / 2^exp with num
    odd or zero (zero forces exp = 0).  Composition is exact integer
    arithmetic, so equality of affine maps is trivially exact.  The marking
    a: x -> x+1, t: x -> 2x models the Baumslag-Solitar group BS(1,2).
    """

    @property
    def identity(self):
        return (0, 0, 0)

    @staticmethod
    def _normal(k: int, num: int, exp: int):
        if num == 0:
            return (k, 0, 0)
        while num % 2 == 0 and exp > 0:
            num //= 2
            exp -= 1
        if exp < 0:
            num <<= -exp
            exp = 0
        return (k, num, exp)

    def element(self, k: int, num: int, exp: int = 0):
        return self._normal(k, num, exp)

    def multiply(self, x, y):
        # (x then y as maps applied right-to-left): (x*y)(v) = x(y(v))
        k1, p1, e1 = x
        k2, p2, e2 = y
        # m = 2^k1 * p2/2^e2 + p1/2^e1, over the common denominator 2^E
        e2k = e2 - k1
        E = max(e2k, e1, 0)
        num = (p2 << (E - e2k)) + (p1 << (E - e1))
        return self._normal(k1 + k2, num, E)

    def invert(self, x):
        k, p, e = x
        return self._normal(-k, -p, e + k)

    def canonical_key(self, x) -> bytes:
        return b"d%d,%d,%d" % x

    def batch_action(self):
        from ._packed import DyadicBatch

        return DyadicBatch()

    def apply(self, x, value):
        from fractions import Fraction

        k, p, e = x
        return Fraction(2) ** k * value + Fraction(p, 2 ** e)


class FreeGroupModel(GroupModel):
    """Free group of finite rank; elements are freely reduced letter-code tuples.

    Letter codes follow the words module: 2*i for the i-th generator and
    2*i + 1 for its inverse.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self._byte_codes = 2 * rank <= 256

    @property
    def identity(self):
        return ()

    def generator(self, i: int):
        if not 0 <= i < self.rank:
            raise ValueError(f"generator index {i} out of range")
        return (2 * i,)

    def multiply(self, x, y):
        # x and y are reduced, so letters cancel only where they meet: drop
        # the k last codes of x that are inverse to the k first codes of y
        if not x or not y or x[-1] != y[0] ^ 1:
            return x + y
        k, n = 1, min(len(x), len(y))
        while k < n and x[-1 - k] == y[k] ^ 1:
            k += 1
        return x[:len(x) - k] + y[k:]

    def invert(self, x):
        return tuple([c ^ 1 for c in reversed(x)])

    def batch_action(self):
        from ._packed import FreeBatch

        return FreeBatch(self.rank)

    def canonical_key(self, x) -> bytes:
        if self._byte_codes:
            return b"f" + bytes(x)
        return b"f" + b",".join(b"%d" % c for c in x)


class DirectProduct(GroupModel):
    """Componentwise direct product of group models."""

    def __init__(self, factors: Sequence[GroupModel]):
        self.factors = tuple(factors)
        self._factor_keys = tuple(f.canonical_key for f in self.factors)
        # each factor's key after its length: b"%d:%s|%d:%s|..."
        self._key_format = b"|".join([b"%d:%s"] * len(self.factors))

    @property
    def identity(self):
        return tuple(f.identity for f in self.factors)

    def multiply(self, x, y):
        return tuple([f.multiply(a, b) for f, a, b in zip(self.factors, x, y)])

    def invert(self, x):
        return tuple(f.invert(a) for f, a in zip(self.factors, x))

    def batch_action(self):
        batches = [f.batch_action() for f in self.factors]
        if not batches or any(b is None for b in batches):
            return None  # the product of no factors has no columns to pack
        from ._packed import ProductBatch

        widths = [b.pack(f.identity).shape[1] for b, f in zip(batches, self.factors)]
        return ProductBatch(batches, widths)

    def canonical_key(self, x) -> bytes:
        args = []
        for key, a in zip(self._factor_keys, x):
            p = key(a)
            args += (len(p), p)
        return self._key_format % tuple(args)


@dataclass
class MarkedGroup:
    """A group model with an ordered marking of an alphabet by elements.

    ``norm_oracle`` may supply exact word lengths analytically for markings
    where that is possible (standard free and free-abelian markings); BFS is
    used otherwise.
    """

    model: GroupModel
    alphabet: Alphabet
    marking: tuple[Element, ...]
    presentation: Optional[Presentation] = None
    norm_oracle: Optional[Callable[[Element], int]] = None
    name: Optional[str] = None
    # the image of each letter code: 2*i is marking[i], 2*i + 1 its inverse
    letter_images: tuple = field(init=False, repr=False, default=())

    def __post_init__(self):
        if len(self.marking) != len(self.alphabet):
            raise ValueError("marking length must equal generator count")
        images = []
        for g in self.marking:
            images.append(g)
            images.append(self.model.invert(g))
        self.letter_images = tuple(images)

    @property
    def identity_key(self) -> bytes:
        return self.model.canonical_key(self.model.identity)


def evaluate(w: Word, G: MarkedGroup) -> Element:
    """The monoid map from words to the group: left-to-right product of
    marked images, inverse letters through ``invert``."""
    acc = G.model.identity
    multiply, letter_key, images = G.model.multiply, G.alphabet.letter_key, G.letter_images
    for letter in w:
        acc = multiply(acc, images[letter_key(letter)])
    return acc


@dataclass
class RelatorCheck:
    relator: str
    ok: bool
    value: str


@dataclass
class PresentationReport:
    checks: list[RelatorCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_presentation(G: MarkedGroup, P: Presentation) -> PresentationReport:
    """Check that every relator of ``P`` evaluates to the identity of ``G``.

    Failures are report content, never exceptions.
    """
    checks = []
    for r in P.relators:
        val = evaluate(r, G)
        checks.append(
            RelatorCheck(
                relator=P.alphabet.format_word(r),
                ok=G.model.canonical_key(val) == G.identity_key,
                value=G.model.describe(val),
            )
        )
    return PresentationReport(checks)


@dataclass
class MarkedHomomorphism:
    """Generator-to-word data for a homomorphism between marked groups.

    Images are target words (not elements) so every verification step stays
    inspectable in reports.
    """

    source: MarkedGroup
    target: MarkedGroup
    images: tuple[Word, ...]

    def __post_init__(self):
        if len(self.images) != len(self.source.alphabet):
            raise ValueError("one image word per source generator required")
        for w in self.images:
            self.target.alphabet.validate(w)

    def map_word(self, w: Word) -> Word:
        out: list = []
        for idx, sign in w:
            img = self.images[idx] if sign > 0 else self.images[idx].inverse()
            out.extend(img.letters)
        return Word(tuple(out))

    def map_element_of_word(self, w: Word) -> Element:
        return evaluate(self.map_word(w), self.target)


def verify_homomorphism(h: MarkedHomomorphism) -> PresentationReport:
    """Well-definedness check: every source relator maps to the target identity."""
    if h.source.presentation is None:
        raise MissingPresentation("source group carries no presentation")
    checks = []
    for r in h.source.presentation.relators:
        val = h.map_element_of_word(r)
        checks.append(
            RelatorCheck(
                relator=h.source.alphabet.format_word(r),
                ok=h.target.model.canonical_key(val) == h.target.identity_key,
                value=h.target.model.describe(val),
            )
        )
    return PresentationReport(checks)


@dataclass
class InjectivityReport:
    radius: int
    ball_size: int
    collisions: list[tuple[str, str]]
    exhaustive: bool

    @property
    def injective_on_ball(self) -> bool:
        return not self.collisions


def injectivity_on_ball(h: MarkedHomomorphism, n: int) -> InjectivityReport:
    """Map the source ball of radius ``n`` (enumerated by ``cayley.ball``
    under its default element cap) and report any collision pair.

    When the source ball closes up (the group is finite and exhausted), the
    verdict is an exact injectivity verdict, flagged ``exhaustive``.
    """
    from .cayley import ball

    # one layer beyond n so a group that closes up exactly at radius n is
    # still recognized as exhausted
    idx = ball(h.source, n + 1)
    seen: dict[bytes, int] = {}
    collisions = []
    for v in range(sum(idx.sphere_sizes[: n + 1])):
        word = idx.vertex_word(v)
        tkey = h.target.model.canonical_key(h.map_element_of_word(word))
        if tkey in seen and seen[tkey] != v:
            collisions.append(
                (
                    h.source.alphabet.format_word(idx.vertex_word(seen[tkey])),
                    h.source.alphabet.format_word(word),
                )
            )
        else:
            seen.setdefault(tkey, v)
    return InjectivityReport(
        radius=n,
        ball_size=sum(idx.sphere_sizes[: n + 1]),
        collisions=collisions,
        exhaustive=idx.sphere_sizes[-1] == 0,
    )


def order_of_element(g: Element, model: GroupModel, cap: int) -> Optional[int]:
    """Least k <= cap with g^k = 1, or None when the cap binds."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    ident = model.canonical_key(model.identity)
    acc = g
    for k in range(1, cap + 1):
        if model.canonical_key(acc) == ident:
            return k
        acc = model.multiply(acc, g)
    return None


def index_two_retraction(
    G: MarkedGroup,
    member: Callable[[Element], bool],
    j: Element,
) -> Callable[[Element], Element]:
    """The retraction onto an index-two subgroup H: fix H, multiply the other
    coset by ``j``.  ``j`` must lie outside H with j^2 inside."""
    model = G.model
    if member(j) or not member(model.multiply(j, j)):
        raise BadCosetRep("j must lie outside H with j^2 in H")

    def retraction(phi: Element) -> Element:
        out = phi if member(phi) else model.multiply(j, phi)
        if not member(out):
            raise BadCosetRep("membership predicate does not describe an index-two subgroup")
        return out

    return retraction
