"""Batch right actions on packed int64 elements (see ``groups``, *Batch
actions*).

A packed model stores a set of elements as the rows of one C-contiguous
int64 array: ``IntegerMatrixGroup`` as the d*d entries of a matrix in
row-major order, ``DyadicAffineGroup`` as the columns (k, num, exp).
``act(rows, code)`` multiplies every row on the right by one letter image at
once.  Before it computes anything it proves, from the largest |entry| of
its input, that no result and no intermediate overflows int64; when the
proof fails it returns None and the caller continues on Python integers.
So no wrapped integer is ever returned.

``groups`` imports this module only when a model builds its batch action,
on the first ball enumeration.  numpy is loaded with the package anyway (by
the kernel fallback), so what the deferral saves is compiling this module
in runs that build no packed ball, such as balls of free groups and of Z^2.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

INT64_MAX = (1 << 63) - 1


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


class MatrixBatch:
    """x -> x * y for d x d integer matrices packed as int64 rows.

    An elementary image y = I + s e_ij (i != j, s = +-1) adds s times
    column i to column j, |result| <= 2M for inputs bounded by M.  Any other
    image is one batched matmul, |result| <= d * M * max|y|, and every
    partial sum obeys the same bound.
    """

    def __init__(self, dim: int, images: Sequence[tuple], elementary: Sequence[Optional[tuple]]):
        self.dim = dim
        # per letter code: (i, j, s) or None, the image, max |image entry|
        self._letters = []
        for y, el in zip(images, elementary):
            Y = np.array(y, dtype=np.int64)
            self._letters.append((el, Y, max_abs(Y)))

    @classmethod
    def build(cls, dim: int, images: Sequence[tuple], elementary: Sequence[Optional[tuple]]):
        """None when an image has an entry beyond int64."""
        if any(abs(v) > INT64_MAX for y in images for row in y for v in row):
            return None
        return cls(dim, images, elementary)

    def pack(self, x) -> np.ndarray:
        return np.array([sum(x, ())], dtype=np.int64)

    def act(self, rows: np.ndarray, code: int) -> Optional[np.ndarray]:
        d = self.dim
        elementary, Y, y_max = self._letters[code]
        M = max_abs(rows)
        if elementary is not None:
            i, j, s = elementary
            if 2 * M > INT64_MAX:
                return None
            out = rows.copy()
            col = out[:, j::d]
            (np.add if s > 0 else np.subtract)(col, rows[:, i::d], out=col)
            return out
        if d * M * y_max > INT64_MAX:
            return None
        return np.matmul(rows.reshape(-1, d, d), Y).reshape(-1, d * d)

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
    """x -> x * y for dyadic affine maps packed as int64 rows (k, num, exp).

    With y = (k2, p2, e2) the product has exp E = max(e2 - k1, e1, 0) and
    num = (p2 << (E - e2 + k1)) + (p1 << (E - e1)), normalised by exact
    integer operations: the trailing zeros of num are counted on its lowest
    set bit ``num & -num``, and min(trailing zeros, E) are shifted out.
    For inputs with |k1| <= K, |p1| <= P and 0 <= e1 <= X, E is at most
    S = max(e2 + K, X, 0), so |num| <= (P << S) + (|p2| << (S - e2 + K)).
    """

    def __init__(self, images: Sequence[tuple]):
        self._images = tuple(images)

    @classmethod
    def build(cls, images: Sequence[tuple]):
        """None when an image has a component beyond int64."""
        if any(abs(v) > INT64_MAX for y in images for v in y):
            return None
        return cls(images)

    def pack(self, x) -> np.ndarray:
        return np.array([x], dtype=np.int64)

    def act(self, rows: np.ndarray, code: int) -> Optional[np.ndarray]:
        k2, p2, e2 = self._images[code]
        k1, p1, e1 = rows[:, 0], rows[:, 1], rows[:, 2]
        K = max_abs(k1)
        S = max(e2 + K, int(e1.max()) if len(e1) else 0, 0)
        bound = max_abs(p1) << S
        if p2:
            bound += abs(p2) << (S - e2 + K)
        if bound > INT64_MAX or S > 62 or K + abs(k2) > INT64_MAX:
            return None
        e2k = e2 - k1
        E = np.maximum(np.maximum(e2k, e1), 0)
        num = np.left_shift(p1, E - e1)
        if p2:
            num += np.left_shift(np.int64(p2), E - e2k)
        zero = num == 0
        shift = np.minimum(np.bitwise_count((num & -num) - 1), E)
        out = np.empty_like(rows)
        np.add(k1, k2, out=out[:, 0])
        np.right_shift(num, shift, out=out[:, 1])
        np.subtract(E, shift, out=out[:, 2])
        out[zero, 2] = 0
        return out

    def unpack(self, rows: np.ndarray) -> list:
        return list(zip(*(rows[:, j].tolist() for j in range(3))))
