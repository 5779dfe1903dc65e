"""Braid groups with the left-greedy (Garside) normal form as canonical key.

An element of the braid group on n strands is stored as ``(d, factors)``:
the power of the half twist followed by a left-weighted sequence of
permutation braids, none of which is trivial or the half twist.  This normal
form is unique, so byte-encoding it yields an exact word-problem key.

Permutation braids are encoded as permutations of ``range(n)`` mapping a
strand's starting position to its ending position; braids compose left to
right.  Starting and finishing sets are the descent sets of the permutation
and its inverse.

Caches.  ``_inv``, ``_descents`` and ``_tau`` are memoised per permutation,
at most n! entries each for n strands, and ``_left_weighted`` per pair of
simple braids, at most n!^2 entries: 36 at 3 strands, 576 at 4.  They fill
lazily as products meet new permutations, so building a model costs
nothing, and every product, not only a product by a generator, reuses them.
A product by a generator is a general ``multiply``, renormalised through
the cached pairs.
"""

from __future__ import annotations

from functools import lru_cache

from .groups import GroupModel

Perm = tuple[int, ...]


def _comp(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(q[v] for v in p)


@lru_cache(maxsize=None)
def _inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


@lru_cache(maxsize=None)
def _descents(p: Perm) -> frozenset[int]:
    return frozenset(i for i in range(len(p) - 1) if p[i] > p[i + 1])


@lru_cache(maxsize=None)
def _transposition(n: int, i: int) -> Perm:
    out = list(range(n))
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


@lru_cache(maxsize=None)
def _half_twist(n: int) -> Perm:
    return tuple(range(n - 1, -1, -1))


@lru_cache(maxsize=None)
def _tau(p: Perm) -> Perm:
    """Conjugation by the half twist, Delta^-1 p Delta, on a simple braid."""
    w0 = _half_twist(len(p))
    return _comp(w0, _comp(p, w0))


@lru_cache(maxsize=None)
def _left_weighted(a: Perm, b: Perm) -> tuple[Perm, Perm]:
    """Slide head crossings of b into a until S(b) is contained in F(a)."""
    n = len(a)
    while True:
        movable = _descents(b) - _descents(_inv(a))
        if not movable:
            return a, b
        # move one crossing at a time; the descent sets shift after each slide
        i = min(movable)
        s = _transposition(n, i)
        a = _comp(a, s)
        b = _comp(s, b)


class BraidGroup(GroupModel):
    """The braid group on ``n`` strands (Artin generators s1 .. s_{n-1})."""

    def __init__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise ValueError(f"strands must be an integer >= 2, got {n!r}")
        self.n = n
        self._id_perm = tuple(range(n))
        self._delta = _half_twist(n)

    # -- normal form machinery -------------------------------------------

    def _normalize(self, d: int, factors: list[Perm]) -> tuple[int, tuple[Perm, ...]]:
        ident = self._id_perm
        delta = self._delta
        factors = [f for f in factors if f != ident]
        changed = True
        while changed:
            changed = False
            for i in range(len(factors) - 1):
                a, b = _left_weighted(factors[i], factors[i + 1])
                if (a, b) != (factors[i], factors[i + 1]):
                    factors[i], factors[i + 1] = a, b
                    changed = True
            if changed:
                factors = [f for f in factors if f != ident]
        lo = 0
        while lo < len(factors) and factors[lo] == delta:
            lo += 1
            d += 1
        return d, tuple(factors[lo:])

    # -- GroupModel contract ----------------------------------------------

    @property
    def identity(self):
        return (0, ())

    def generator(self, i: int):
        """The Artin generator crossing strands i and i+1 (0-based)."""
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < self.n - 1:
            raise ValueError(f"generator index {i!r} out of range")
        return (0, (_transposition(self.n, i),))

    def generator_inverse_factor(self, i: int) -> Perm:
        # sigma_i^-1 = Delta^-1 * (Delta sigma_i^-1); the second factor is simple.
        return _comp(self._delta, _transposition(self.n, i))

    def multiply(self, x, y):
        d1, f1 = x
        d2, f2 = y
        if d2 % 2:
            f1 = tuple(_tau(p) for p in f1)
        return self._normalize(d1 + d2, list(f1) + list(f2))

    def invert(self, x):
        d, factors = x
        acc = (0, ())
        for p in reversed(factors):
            # p^-1 = Delta^-1 * (Delta p^-1)
            acc = self.multiply(acc, (-1, (_comp(self._delta, _inv(p)),)))
        return self.multiply(acc, (-d, ()))

    def canonical_key(self, x) -> bytes:
        d, factors = x
        body = b";".join(bytes(p) for p in factors)
        return b"B%d:%d:" % (self.n, d) + body

    def describe(self, x) -> str:
        d, factors = x
        return f"Delta^{d} * {list(factors)}"

    # -- helpers -----------------------------------------------------------

    def from_artin_word(self, letters):
        """Build a braid from (index, sign) Artin letters."""
        acc = self.identity
        for i, sign in letters:
            if sign > 0:
                acc = self.multiply(acc, self.generator(i))
            else:
                acc = self.multiply(acc, (-1, (self.generator_inverse_factor(i),)))
        return acc

    def is_normal_form(self, x) -> bool:
        d, factors = x
        ident, delta = self._id_perm, self._delta
        if any(f in (ident, delta) for f in factors):
            return False
        for a, b in zip(factors, factors[1:]):
            if not _descents(b) <= _descents(_inv(a)):
                return False
        return True
