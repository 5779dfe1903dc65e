"""Batch products on packed int64 elements (see ``groups``, *Batch
actions*).

A packed model stores a set of elements as the rows of one C-contiguous
int64 array: ``IntegerMatrixGroup`` as the d*d entries of a matrix in
row-major order, ``DyadicAffineGroup`` as the columns (k, num, exp), and
``FreeGroupModel`` as one column holding a leading 1 bit followed by one
code per letter.  Every packing is canonical: equal rows are equal
elements.  A batch is built from the model alone (the dimension or the
rank) and has one product per side: ``right_multiply(rows, y)`` and
``left_multiply(rows, y)`` multiply every row by an arbitrary element y,
a letter image or any other.  Before it computes anything each proves,
from y and the largest |entry| of its input, that no result and no
intermediate overflows int64; when the proof fails it returns None and the
caller continues on Python integers.  So no wrapped integer is ever
returned, and no y needs checking in advance.

``groups`` imports this module only when a model builds its batch action,
on the first ball enumeration.  numpy is loaded with the package anyway (by
the kernel fallback), so what the deferral saves is compiling this module
in runs that build no packed ball, such as balls of Z^2 and braid groups.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

INT64_MAX = (1 << 63) - 1
_DECODE_BLOCK = 4096  # free words decoded per shift-and-mask matrix


def max_abs(rows: np.ndarray) -> int:
    """The largest |entry| as a Python int (0 for no rows), taken from the
    extremes so that an entry of -2**63 cannot wrap as under ``np.abs``."""
    if not rows.size:
        return 0
    return max(int(rows.max()), -int(rows.min()))


def row_keys(pool: np.ndarray) -> np.ndarray:
    """One key per row, equal exactly when the rows are equal.  Only the
    columns that vary in ``pool`` count: each is offset by its minimum and
    given the bits of its range, and they are packed into one int64 when
    the widths add up to at most 63 bits, else kept as raw bytes."""
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


def _elementary(y) -> Optional[tuple[int, int, int]]:
    """(i, j, s) when the matrix y is I + s e_ij with i != j and s = +-1,
    else None."""
    off = [(i, j, v) for i, row in enumerate(y) for j, v in enumerate(row) if v != (i == j)]
    if len(off) == 1 and off[0][0] != off[0][1] and off[0][2] in (1, -1):
        return off[0]
    return None


class MatrixBatch:
    """x -> x * y and y * x for d x d integer matrices packed as int64 rows.

    An elementary y = I + s e_ij (i != j, s = +-1) on the right adds s
    times column i to column j, |result| <= 2M for inputs bounded by M.
    Any other product is one batched matmul, |result| <= d * M * max|y|,
    and every partial sum obeys the same bound.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def pack(self, x) -> np.ndarray:
        return np.array([sum(x, ())], dtype=np.int64)

    def right_multiply(self, rows: np.ndarray, y) -> Optional[np.ndarray]:
        """x -> x * y for any matrix y: one column operation when y is
        elementary, else one batched matmul."""
        elementary = _elementary(y)
        if elementary is None:
            Y = self._operand(rows, y)
            return None if Y is None else np.matmul(rows.reshape(-1, self.dim, self.dim), Y).reshape(rows.shape)
        i, j, s = elementary
        if 2 * max_abs(rows) > INT64_MAX:
            return None
        d = self.dim
        out = rows.copy()
        col = out[:, j::d]
        (np.add if s > 0 else np.subtract)(col, rows[:, i::d], out=col)
        return out

    def left_multiply(self, rows: np.ndarray, y) -> Optional[np.ndarray]:
        """x -> y * x for any matrix y, one batched matmul bounded as
        ``right_multiply``'s."""
        Y = self._operand(rows, y)
        return None if Y is None else np.matmul(Y, rows.reshape(-1, self.dim, self.dim)).reshape(rows.shape)

    def _operand(self, rows: np.ndarray, y) -> Optional[np.ndarray]:
        """y as an int64 array, or None when d * M * max|y| is past int64."""
        y_max = max(abs(v) for row in y for v in row)
        if y_max > INT64_MAX or self.dim * max_abs(rows) * y_max > INT64_MAX:
            return None
        return np.array(y, dtype=np.int64)

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
    """x -> x * y and y * x for dyadic affine maps packed as int64 rows
    (k, num, exp).

    The product x * y of x = (k1, p1, e1) and y = (k2, p2, e2) has exp
    E = max(e2 - k1, e1, 0) and num = (p2 << (E - e2 + k1)) + (p1 << (E - e1)),
    normalised by exact integer operations: the trailing zeros of num are
    counted on its lowest set bit ``num & -num``, and min(trailing zeros, E)
    are shifted out.  Either factor may be the rows and the other one
    element.  With |k1| <= K, |p1| <= P1, e1 <= X1, |p2| <= P2 and
    e2_lo <= e2 <= X2, E is at most S = max(X2 + K, X1, 0), so
    |num| <= (P1 << S) + (P2 << (S - e2_lo + K)).
    """

    def pack(self, x) -> np.ndarray:
        return np.array([x], dtype=np.int64)

    def right_multiply(self, rows: np.ndarray, y) -> Optional[np.ndarray]:
        """x -> x * y for any dyadic map y."""
        return _compose((rows[:, 0], rows[:, 1], rows[:, 2]), y, rows)

    def left_multiply(self, rows: np.ndarray, y) -> Optional[np.ndarray]:
        """x -> y * x for any dyadic map y."""
        return _compose(y, (rows[:, 0], rows[:, 1], rows[:, 2]), rows)

    def unpack(self, rows: np.ndarray) -> list:
        return list(zip(*(rows[:, j].tolist() for j in range(3))))


def _extremes(v) -> tuple[int, int]:
    """(min, max) of an int64 column or a Python int, as Python ints."""
    if isinstance(v, np.ndarray):
        return (int(v.min()), int(v.max())) if len(v) else (0, 0)
    return v, v


def _compose(x, y, rows: np.ndarray) -> Optional[np.ndarray]:
    """The dyadic products x * y, one factor the columns of ``rows`` and the
    other one element, as new rows; None without the bound of
    ``DyadicBatch``."""
    k1, p1, e1 = x
    k2, p2, e2 = y
    K = max(map(abs, _extremes(k1)))
    P1 = max(map(abs, _extremes(p1)))
    P2 = max(map(abs, _extremes(p2)))
    e2_lo, e2_hi = _extremes(e2)
    S = max(e2_hi + K, _extremes(e1)[1], 0)
    if S > 62:  # then K <= S keeps the shifts below small
        return None
    bound = P1 << S
    if P2:
        bound += P2 << (S - e2_lo + K)
    if bound > INT64_MAX or K + max(map(abs, _extremes(k2))) > INT64_MAX:
        return None
    k1, p1, e1, k2, p2, e2 = (v if isinstance(v, np.ndarray) else np.int64(v) for v in (k1, p1, e1, k2, p2, e2))
    e2k = e2 - k1
    E = np.maximum(np.maximum(e2k, e1), 0)
    num = np.left_shift(p1, E - e1)
    if P2:
        num += np.left_shift(p2, E - e2k)
    zero = num == 0
    shift = np.minimum(np.bitwise_count((num & -num) - 1), E)
    out = np.empty_like(rows)
    np.add(k1, k2, out=out[:, 0])
    np.right_shift(num, shift, out=out[:, 1])
    np.subtract(E, shift, out=out[:, 2])
    out[zero, 2] = 0
    return out


class FreeBatch:
    """x -> x * y and y * x for reduced words of a free group packed as
    int64 rows.

    A row is one column: a leading 1 bit, then the word's letter codes, the
    first letter highest, b = (2 * rank - 1).bit_length() bits each, so a
    word of length L takes 1 + b * L bits and the identity is 1.  A product
    by a reduced word y takes one step per code c of y: x * c drops the
    last code of x when it is c ^ 1 and otherwise shifts x left and appends
    c; c * x cancels or inserts a code just below the leading bit.  Each
    step lengthens a row by at most b bits, so it is proved from the largest
    row: it returns None when that row's bit length plus b is past 63.
    """

    def __init__(self, rank: int):
        self.bits = (2 * rank - 1).bit_length()
        self._mask = (1 << self.bits) - 1

    def pack(self, x) -> np.ndarray:
        row = 1
        for c in x:
            row = row << self.bits | c
        return np.array([[row]], dtype=np.int64)

    def _fits(self, rows: np.ndarray) -> bool:
        return (int(rows.max()) if len(rows) else 1).bit_length() + self.bits <= 63

    def _append(self, rows: np.ndarray, c: int) -> Optional[np.ndarray]:
        if not self._fits(rows):
            return None
        b = self.bits
        # a row above the mask holds at least one code
        cancel = ((rows & self._mask) == c ^ 1) & (rows > self._mask)
        return np.where(cancel, rows >> b, (rows << b) | c)

    def _prepend(self, rows: np.ndarray, c: int) -> Optional[np.ndarray]:
        if not self._fits(rows):
            return None
        b = self.bits
        top = _bit_length(rows) - 1  # the leading bit's position
        below = np.maximum(top - b, 0)  # the first code's lowest bit
        cancel = (((rows >> below) & self._mask) == c ^ 1) & (top >= b)
        one = np.int64(1)
        shortened = (rows & ((one << below) - 1)) | (one << below)
        return np.where(cancel, shortened, rows + (np.int64((1 << b | c) - 1) << top))

    def right_multiply(self, rows: np.ndarray, y) -> Optional[np.ndarray]:
        """x -> x * y for a reduced word y, one code at a time."""
        for c in y:
            rows = self._append(rows, c)
            if rows is None:
                return None
        return rows

    def left_multiply(self, rows: np.ndarray, y) -> Optional[np.ndarray]:
        """x -> y * x for a reduced word y, one code at a time from its end."""
        for c in reversed(y):
            rows = self._prepend(rows, c)
            if rows is None:
                return None
        return rows

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


def _bit_length(x: np.ndarray) -> np.ndarray:
    """The bit length of each positive int64, exactly: the float exponent,
    less one where rounding to float carried into the next power of two."""
    _, e = np.frexp(x.astype(np.float64))
    e = e.astype(np.int64)
    e -= (x >> (e - 1)) == 0
    return e
