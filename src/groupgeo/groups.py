"""Computable-group contract and concrete models.

Every model answers the word problem exactly through ``canonical_key``:
two elements are equal in the group iff their keys are equal bytes.  All
arithmetic is exact (Python integers never wrap), so keys are collision-free
by construction.

Right actions.  Enumeration, the ball's neighbour table and the combing
lines only ever multiply by a marked letter, so ``GroupModel.right_action(y)``
returns a callable x -> x * y that a model may specialise to y
(Epstein et al., *Word Processing in Groups*, 1992, ch. 2-3).
``MarkedGroup.letter_actions`` holds one per letter code, built once with
the marking.  The default calls ``multiply``.  The overrides are:

* ``IntegerMatrixGroup``: for an elementary image y = I + s e_ij (i != j,
  s = +-1), x * y adds s times column i to column j, reusing every row whose
  entry i is 0.
* ``FreeGroupModel``: for a one-letter image c, x * c drops the last code
  of x when it is c^-1 and appends c otherwise.
* ``DirectProduct``: for an image that differs from the identity in one
  factor only, x * y replaces that component through the factor's own
  action.

Any other image falls back to ``multiply``.  None of the actions caches
anything, so they cost O(|X|) closures per marked group.

Batch actions.  Ball enumeration expands a whole layer at once through
``MarkedGroup.batch_action()``, which the model builds from the letter
images on first use (``GroupModel.batch_action``) and the marked group
keeps.  Two models have a packed one (module ``_packed``), acting on int64
rows, one row per element:

* ``IntegerMatrixGroup``: the d*d entries in row-major order; an elementary
  letter is one column operation on the whole array, any other letter one
  batched matmul.
* ``DyadicAffineGroup``: the columns (k, num, exp); a product is a few
  vectorised shifts, and normalisation counts trailing zeros on
  ``num & -num`` with exact integer operations.

The int64 bound rule: before acting, a batch action proves from the
largest |entry| M of its input rows that no result overflows, with
|result| <= 2M for an elementary letter and <= d * M * max|y| for a matmul
(``DyadicBatch`` states its bound on num).  When the proof fails it
returns None and enumeration goes on element by element over Python
integers, so no wrapped integer is ever stored.  Every other model returns
None from the start: its batch action is the default, one ``right_action``
call per open slot.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from ._kernel import ops
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

    def right_action(self, y: Element) -> Callable[[Element], Element]:
        """The map x -> x * y.  Models override it for images they can apply
        faster than a general product; the default looks ``multiply`` up on
        each call."""
        return lambda x: self.multiply(x, y)

    def batch_action(self, images: Sequence[Element]):
        """The packed batch action for these letter images, or None: ball
        enumeration then expands each layer element by element through
        ``right_action``."""
        return None

    def equal(self, x: Element, y: Element) -> bool:
        return self.canonical_key(x) == self.canonical_key(y)

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
        n = len(names)
        self.names = tuple(names)
        self.table = tuple(tuple(row) for row in table)
        self._identity = identity_index
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table must be square over the element list")
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

    def index_of(self, name: str) -> int:
        return self.names.index(name)

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


def _det(m: tuple[tuple[int, ...], ...]) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _adjugate(m: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    n = len(m)
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i
            )
            cof[i][j] = (-1) ** (i + j) * (_det(minor) if n > 1 else 1)
    return tuple(tuple(cof[j][i] for j in range(n)) for i in range(n))


class IntegerMatrixGroup(GroupModel):
    """Square matrices over arbitrary-precision integers with determinant +-1.

    Elements are tuples of tuples of Python ints; equality is entrywise, so the
    canonical key is just the flattened entry list.
    """

    def __init__(self, dim: int):
        self.dim = dim
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
        if _det(m) not in (1, -1):
            raise ValueError("matrix is not invertible over the integers")
        return m

    def multiply(self, x, y):
        n = self.dim
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    def invert(self, x):
        d = _det(x)
        adj = _adjugate(x)
        if d == 1:
            return adj
        if d == -1:
            return tuple(tuple(-v for v in row) for row in adj)
        raise ValueError("matrix is not invertible over the integers")

    def right_action(self, y):
        elementary = self._elementary(y)
        if elementary is None:
            return super().right_action(y)
        i, j, s = elementary

        def act(x):
            # column j += s * column i; a row with entry i zero is unchanged
            return tuple([
                row[:j] + (row[j] + s * row[i],) + row[j + 1:] if row[i] else row
                for row in x
            ])

        return act

    def batch_action(self, images):
        from ._packed import MatrixBatch

        return MatrixBatch.build(self.dim, images, [self._elementary(y) for y in images])

    def _elementary(self, y) -> Optional[tuple[int, int, int]]:
        """(i, j, s) when y = I + s e_ij with i != j and s = +-1, else None."""
        off = [
            (i, j, v)
            for i, row in enumerate(y)
            for j, v in enumerate(row)
            if v != (i == j)
        ]
        if len(off) == 1 and off[0][0] != off[0][1] and off[0][2] in (1, -1):
            return off[0]
        return None

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

    def batch_action(self, images):
        from ._packed import DyadicBatch

        return DyadicBatch.build(images)

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
        if not x:
            return y
        if not y:
            return x
        if x[-1] != y[0] ^ 1:
            return x + y
        return tuple(ops.free_reduce(x + y))

    def right_action(self, y):
        if len(y) != 1:
            return super().right_action(y)
        (c,) = y
        inv = c ^ 1
        return lambda x: x[:-1] if x and x[-1] == inv else x + y

    def invert(self, x):
        return tuple(c ^ 1 for c in reversed(x))

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
        return tuple(f.multiply(a, b) for f, a, b in zip(self.factors, x, y))

    def right_action(self, y):
        # a component equal to the factor's identity as a value is the
        # identity; any other counts as moved, which at worst falls back
        moved = [k for k, (f, b) in enumerate(zip(self.factors, y)) if b != f.identity]
        if len(moved) != 1:
            return super().right_action(y)
        (k,) = moved
        act = self.factors[k].right_action(y[k])
        return lambda x: x[:k] + (act(x[k]),) + x[k + 1:]

    def invert(self, x):
        return tuple(f.invert(a) for f, a in zip(self.factors, x))

    def canonical_key(self, x) -> bytes:
        args = []
        for key, a in zip(self._factor_keys, x):
            p = key(a)
            args += (len(p), p)
        return self._key_format % tuple(args)


_UNBUILT = object()


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
    _letter_images: tuple = field(init=False, repr=False, default=())
    # x -> x * letter_image_by_code(c), one per letter code c
    letter_actions: tuple = field(init=False, repr=False, compare=False, default=())
    _batch: Any = field(init=False, repr=False, compare=False, default=_UNBUILT)

    def __post_init__(self):
        if len(self.marking) != len(self.alphabet):
            raise ValueError("marking length must equal generator count")
        images = []
        for g in self.marking:
            images.append(g)
            images.append(self.model.invert(g))
        self._letter_images = tuple(images)
        self.letter_actions = tuple(self.model.right_action(a) for a in images)

    def letter_image_by_code(self, code: int) -> Element:
        return self._letter_images[code]

    def batch_action(self):
        """The model's packed batch action on the letter images, or None;
        built on first use, so a marked group costs nothing until a ball is
        enumerated."""
        if self._batch is _UNBUILT:
            self._batch = self.model.batch_action(self._letter_images)
        return self._batch

    @property
    def identity_key(self) -> bytes:
        return self.model.canonical_key(self.model.identity)


def evaluate(w: Word, G: MarkedGroup) -> Element:
    """The monoid map from words to the group: left-to-right product of
    marked images, inverse letters through ``invert``."""
    acc = G.model.identity
    letter_key, actions = G.alphabet.letter_key, G.letter_actions
    for letter in w:
        acc = actions[letter_key(letter)](acc)
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


def injectivity_on_ball(h: MarkedHomomorphism, n: int, max_elements: int = 10_000_000) -> InjectivityReport:
    """Map the source ball of radius ``n`` and report any collision pair.

    When the source ball closes up (the group is finite and exhausted), the
    verdict is an exact injectivity verdict, flagged ``exhaustive``.
    """
    from .cayley import ball

    # one layer beyond n so a group that closes up exactly at radius n is
    # still recognized as exhausted
    idx = ball(h.source, n + 1, max_elements=max_elements)
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
