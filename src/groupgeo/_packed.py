"""Batch products on packed int64 elements (see ``groups``, *Batch
actions*).

A packed model stores a set of elements as the rows of one C-contiguous
int64 array: ``IntegerMatrixGroup`` as the d*d entries of a matrix in
row-major order, ``DyadicAffineGroup`` as the columns (k, num, exp),
``FreeGroupModel`` as one column holding a leading 1 bit followed by one
code per letter, ``TableGroup`` as one column holding the element index,
and a ``DirectProduct`` of such models as its factors' rows side by side.
Every packing is canonical: equal rows are equal elements.  A batch is
built from the model alone and has one product and one inverse:
``multiply(A, B)`` multiplies row arrays A and B of one length row by row,
or broadcasts either one when it is a single row, so a product by a letter
image and the pairwise products of the combing checks are the same call;
``invert(A)`` inverts every row.  ``pack`` turns one element into a single
row, and raises OverflowError when an entry does not fit int64.  Before it
computes anything each product and inverse proves, from the largest |entry|
of its inputs, that no result and no intermediate overflows int64; when the
proof fails it raises OverflowError, and the caller that catches it
continues on Python integers.  So no wrapped integer is ever returned.

``groups`` imports this module only when a model builds its batch action,
on the first ball enumeration.  numpy is loaded with the package anyway (by
the kernel fallback), so what the deferral saves is compiling this module
in runs that build no packed ball, such as balls of braid group configs.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .groups import _straight_line

INT64_MAX = (1 << 63) - 1
_DECODE_BLOCK = 4096  # free words decoded per shift-and-mask matrix


def max_abs(rows: np.ndarray) -> int:
    """The largest |entry| as a Python int (0 for no rows), taken from the
    extremes so that an entry of -2**63 cannot wrap as under ``np.abs``."""
    if not rows.size:
        return 0
    return max(int(rows.max()), -int(rows.min()))


def row_keys(pool: np.ndarray) -> np.ndarray:
    """One key per row, equal exactly when the rows are equal.  A pool of
    one column is its own key.  Otherwise only the columns that vary in
    ``pool`` count: each is offset by its minimum and given the bits of its
    range, and they are packed into one int64 when the widths add up to at
    most 63 bits, else kept as raw bytes."""
    if pool.shape[1] == 1:
        return pool[:, 0]
    lows, highs = pool.min(axis=0).tolist(), pool.max(axis=0).tolist()
    cols = [j for j, (a, b) in enumerate(zip(lows, highs)) if a != b]
    widths = [(highs[j] - lows[j]).bit_length() for j in cols]
    if sum(widths) > 63:
        varying = np.ascontiguousarray(pool[:, cols])
        return varying.view(np.dtype((np.void, varying.itemsize * len(cols)))).ravel()
    key = np.zeros(len(pool), dtype=np.int64)
    for j, bits in zip(cols, widths):
        key <<= bits
        key |= pool[:, j] - lows[j]
    return key


def _pack(values) -> np.ndarray:
    """One int64 row of these Python ints; OverflowError past int64."""
    return np.array([values], dtype=np.int64)


def _elementary(row: list, d: int) -> Optional[tuple[int, int, int]]:
    """(i, j, s) when the d x d matrix with these row-major entries is
    I + s e_ij with i != j and s = +-1, else None."""
    off = [(k // d, k % d, v) for k, v in enumerate(row) if v != (k // d == k % d)]
    if len(off) == 1 and off[0][0] != off[0][1] and off[0][2] in (1, -1):
        return off[0]
    return None


class MatrixBatch:
    """Products and inverses of d x d integer matrices packed as int64 rows.

    A product by one elementary row B = I + s e_ij (i != j, s = +-1) adds s
    times column i of A to column j, |result| <= 2M for A bounded by M.
    Any other product is one batched matmul, |result| <= d * M_A * M_B, and
    every partial sum obeys the same bound.  The inverse of a determinant
    +-1 matrix is its adjugate times the determinant, from the straight-line
    Laplace expansion of ``groups`` applied to whole columns: a k x k minor
    and each of its partial sums is at most k! * M^k, so d! * M^d bounds
    every intermediate.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def pack(self, x) -> np.ndarray:
        return _pack(sum(x, ()))

    def multiply(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A * B row by row: one column operation when B is one elementary
        row, else one batched matmul."""
        d = self.dim
        elementary = _elementary(B[0].tolist(), d) if len(B) == 1 else None
        if elementary is None:
            if d * max_abs(A) * max_abs(B) > INT64_MAX:
                raise OverflowError("matrix product past int64")
            return np.matmul(A.reshape(-1, d, d), B.reshape(-1, d, d)).reshape(-1, d * d)
        i, j, s = elementary
        if 2 * max_abs(A) > INT64_MAX:
            raise OverflowError("column operation past int64")
        out = A.copy()
        col = out[:, j::d]
        (np.add if s > 0 else np.subtract)(col, A[:, i::d], out=col)
        return out

    def invert(self, A: np.ndarray) -> np.ndarray:
        """The exact inverse of every row: adjugate times determinant."""
        d = self.dim
        if math.factorial(d) * max_abs(A) ** d > INT64_MAX:
            raise OverflowError("matrix inverse past int64")
        cols = [A[:, k] for k in range(d * d)]
        adj, det = _straight_line(d)[1](tuple(tuple(cols[i * d:(i + 1) * d]) for i in range(d)))
        out = np.empty_like(A)
        for i, row in enumerate(adj):
            for j, v in enumerate(row):
                np.multiply(v, det, out=out[:, i * d + j])
        return out

    def unpack(self, rows: np.ndarray) -> list:
        """Tuples of row tuples of Python ints.  Equal matrix rows are one
        shared tuple: each block of d columns gets one tuple per distinct
        row, found by ``np.unique`` over ``row_keys``, so n elements keep n
        outer tuples plus the distinct rows instead of (d + 1) * n tuples."""
        d = self.dim
        if not len(rows):
            return []
        matrix_rows = []
        for i in range(d):
            block = rows[:, i * d:(i + 1) * d]
            _, first, inverse = np.unique(row_keys(block), return_index=True, return_inverse=True)
            distinct = list(zip(*(block[first, j].tolist() for j in range(d))))
            matrix_rows.append(map(distinct.__getitem__, inverse.tolist()))
        return list(zip(*matrix_rows))


class DyadicBatch:
    """Products and inverses of dyadic affine maps packed as int64 rows
    (k, num, exp).

    The product x * y of x = (k1, p1, e1) and y = (k2, p2, e2) has exp
    E = max(e2 - k1, e1, 0) and num = (p2 << (E - e2 + k1)) + (p1 << (E - e1)),
    normalised by exact integer operations: the trailing zeros of num are
    counted on its lowest set bit ``num & -num``, and min(trailing zeros, E)
    are shifted out.  With |k1| <= K, |p1| <= P1, e1 <= X1, |p2| <= P2 and
    e2_lo <= e2 <= X2, E is at most S = max(X2 + K, X1, 0), so
    |num| <= (P1 << S) + (P2 << (S - e2_lo + K)).  The inverse of (k, p, e)
    is (-k, -p, e + k), its num shifted left by -(e + k) where that is
    positive and normalised as a product's.
    """

    def pack(self, x) -> np.ndarray:
        return _pack(x)

    def multiply(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return _compose((A[:, 0], A[:, 1], A[:, 2]), (B[:, 0], B[:, 1], B[:, 2]))

    def invert(self, A: np.ndarray) -> np.ndarray:
        k, p, e = A[:, 0], A[:, 1], A[:, 2]
        (k_lo, k_hi), (p_lo, p_hi), (e_lo, e_hi) = _extremes(k), _extremes(p), _extremes(e)
        up = max(-(k_lo + e_lo), 0)  # the largest left shift of num
        if (min(k_lo, p_lo) < -INT64_MAX or e_hi + k_hi > INT64_MAX or up > 62
                or max(-p_lo, p_hi) << up > INT64_MAX):  # up <= 62 bounds this shift
            raise OverflowError("dyadic inverse past int64")
        E = e + k
        out = _normalised(np.left_shift(-p, np.maximum(-E, 0)), np.maximum(E, 0))
        np.negative(k, out=out[:, 0])
        return out

    def unpack(self, rows: np.ndarray) -> list:
        return list(zip(*(rows[:, j].tolist() for j in range(3))))


def _extremes(v: np.ndarray) -> tuple[int, int]:
    """(min, max) of an int64 column as Python ints, (0, 0) when empty."""
    return (int(v.min()), int(v.max())) if len(v) else (0, 0)


def _compose(x, y) -> np.ndarray:
    """The dyadic products x * y of column triples, either one a single row
    that is broadcast, as new rows; OverflowError without the bound of
    ``DyadicBatch``."""
    k1, p1, e1 = x
    k2, p2, e2 = y
    K = max(map(abs, _extremes(k1)))
    P1 = max(map(abs, _extremes(p1)))
    P2 = max(map(abs, _extremes(p2)))
    e2_lo, e2_hi = _extremes(e2)
    S = max(e2_hi + K, _extremes(e1)[1], 0)
    if S > 62:  # then K <= S keeps the shifts below small
        raise OverflowError("dyadic product past int64")
    bound = P1 << S
    if P2:
        bound += P2 << (S - e2_lo + K)
    if bound > INT64_MAX or K + max(map(abs, _extremes(k2))) > INT64_MAX:
        raise OverflowError("dyadic product past int64")
    e2k = e2 - k1
    E = np.maximum(np.maximum(e2k, e1), 0)
    num = np.left_shift(p1, E - e1)
    if P2:
        num += np.left_shift(p2, E - e2k)
    out = _normalised(num, E)
    np.add(k1, k2, out=out[:, 0])
    return out


def _normalised(num: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Rows (k, num, E), k left for the caller to fill, with min(trailing
    zeros of num, E) shifted out of num and E, and E = 0 where num = 0;
    E >= 0."""
    shift = np.minimum(np.bitwise_count((num & -num) - 1), E)
    out = np.empty((len(num), 3), dtype=np.int64)
    np.right_shift(num, shift, out=out[:, 1])
    np.subtract(E, shift, out=out[:, 2])
    out[num == 0, 2] = 0
    return out


class FreeBatch:
    """Products and inverses of reduced words of a free group packed as
    int64 rows.

    A row is one column: a leading 1 bit, then the word's letter codes, the
    first letter highest, b = (2 * rank - 1).bit_length() bits each, so a
    word of length L takes 1 + b * L bits and the identity is 1.  A product
    a * b of reduced words cancels the last k codes of a against the first
    k codes of b, c against c ^ 1.  By a single row b it is one masked step
    per code c of b, which drops a's last code where it is c ^ 1 and
    otherwise appends c.  Else k is found by comparing b's first j codes
    with those of a^-1, one masked step per j up to 63 // b and none after
    the last pair stops cancelling, and the product is a without k codes
    shifted over b without k.  The product has at most the bit lengths of a
    and b added less one, so it is proved from the largest rows: it raises
    OverflowError when that sum is past 64.  The inverse reverses the codes
    and flips each code's low bit, one masked step per code, and is no
    longer than its row.
    """

    def __init__(self, rank: int):
        self.bits = (2 * rank - 1).bit_length()
        self._mask = (1 << self.bits) - 1

    def pack(self, x) -> np.ndarray:
        row = 1
        for c in x:
            row = row << self.bits | c
        return _pack([row])

    def multiply(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        b, mask = self.bits, self._mask
        a_max = int(A.max()) if len(A) else 1
        b_max = int(B.max()) if len(B) else 1
        if a_max.bit_length() + b_max.bit_length() > 64:
            raise OverflowError("free product past int64")
        if len(B) == 1:
            # one code c of b at a time: drop a's last code where it is
            # c ^ 1, else append c; a row above the mask holds a code
            out = A
            for c in self._codes(b_max):
                cancel = ((out & mask) == c ^ 1) & (out > mask)
                out = np.where(cancel, out >> b, (out << b) | c)
            return out if out is not A else A.copy()
        # k codes cancel where b's first k codes are those of a^-1: the
        # shifts keep each word's leading bit, so a b shorter than j never
        # matches, and tail_a >= bj rules out an a shorter than j
        tail_a, tail_b = _bit_length(A) - 1, _bit_length(B) - 1  # the bits of the codes
        inverse = self.invert(A)
        k = np.zeros(np.broadcast_shapes(A.shape, B.shape), dtype=np.int64)
        live = np.ones(k.shape, dtype=bool)
        for j in range(1, 63 // b + 1):
            bj = b * j
            live &= (tail_a >= bj) & (
                (B >> np.maximum(tail_b - bj, 0)) == (inverse >> np.maximum(tail_a - bj, 0))
            )
            if not live.any():
                break
            k += live
        kept = tail_b - b * k  # the bits of b's codes that stay
        return ((A >> (b * k)) << kept) | (B & ((np.int64(1) << kept) - 1))

    def _codes(self, row: int) -> list[int]:
        """The letter codes of one row, first letter first."""
        codes = []
        while row > 1:
            codes.append(row & self._mask)
            row >>= self.bits
        return codes[::-1]

    def invert(self, A: np.ndarray) -> np.ndarray:
        b, mask = self.bits, self._mask
        out = np.ones_like(A)
        for j in range(1, 63 // b + 1):
            # the j-th code from the end, where a has one
            has = (A >> (b * j)) > 0
            if not has.any():
                break
            code = ((A >> (b * (j - 1))) & mask) ^ 1
            out = np.where(has, (out << b) | code, out)
        return out

    def unpack(self, rows: np.ndarray) -> list:
        """Tuples of letter codes as Python ints, decoded one word length
        at a time with a shift-and-mask matrix per block of at most
        ``_DECODE_BLOCK`` rows, so that the lists of codes that become the
        tuples are never all held at once.  Rows already in order of length,
        as a ball's are, need no permutation at the end."""
        words = rows[:, 0]
        b = self.bits
        lengths = (_bit_length(words) - 1) // b
        order = np.argsort(lengths, kind="stable")
        ordered: list = []
        start = 0
        for length, count in zip(*np.unique(lengths, return_counts=True)):
            shifts = np.arange(b * (int(length) - 1), -1, -b, dtype=np.int64)
            for lo in range(start, start + count, _DECODE_BLOCK):
                group = words[order[lo:min(lo + _DECODE_BLOCK, start + count)]]
                ordered += map(tuple, ((group[:, None] >> shifts) & self._mask).tolist())
            start += count
        if (lengths[1:] >= lengths[:-1]).all():
            return ordered
        back = np.empty_like(order)
        back[order] = np.arange(len(order))
        return list(map(ordered.__getitem__, back.tolist()))


class TableBatch:
    """Products and inverses of a ``TableGroup``'s elements packed as one
    column of element indices: a product reads the multiplication table and
    an inverse the inverse table, so no result can overflow."""

    def __init__(self, table, inverses):
        self.table = np.array(table, dtype=np.int64)
        self.inverses = np.array(inverses, dtype=np.int64)

    def pack(self, x) -> np.ndarray:
        return _pack([x])

    def multiply(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return self.table[A[:, 0], B[:, 0]][:, None]

    def invert(self, A: np.ndarray) -> np.ndarray:
        return self.inverses[A[:, 0]][:, None]

    def unpack(self, rows: np.ndarray) -> list:
        return rows[:, 0].tolist()


class ProductBatch:
    """Products and inverses in a direct product, a row being the factor
    rows side by side (``widths`` columns each): every operation passes
    each factor's batch a view of its columns, and so raises OverflowError
    when one factor does."""

    def __init__(self, factors: list, widths: list[int]):
        self.factors = factors
        ends = np.cumsum(widths).tolist()
        self._parts = [(f, slice(end - w, end)) for f, end, w in zip(factors, ends, widths)]

    def pack(self, x) -> np.ndarray:
        return np.concatenate([f.pack(a) for f, a in zip(self.factors, x)], axis=1)

    def multiply(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return np.concatenate([f.multiply(A[:, c], B[:, c]) for f, c in self._parts], axis=1)

    def invert(self, A: np.ndarray) -> np.ndarray:
        return np.concatenate([f.invert(A[:, c]) for f, c in self._parts], axis=1)

    def unpack(self, rows: np.ndarray) -> list:
        return list(zip(*(f.unpack(rows[:, c]) for f, c in self._parts)))


def _bit_length(x: np.ndarray) -> np.ndarray:
    """The bit length of each positive int64, exactly: the float exponent,
    less one where rounding to float carried into the next power of two."""
    _, e = np.frexp(x.astype(np.float64))
    e = e.astype(np.int64)
    e -= (x >> (e - 1)) == 0
    return e
