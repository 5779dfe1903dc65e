"""The kernel's Python/numpy functions.

``free_reduce``, ``max_bounded_defect`` and the CSR check ``check_csr`` are
the only implementations and serve both kernels.  ``multi_source_distances``
is the library's BFS over a ball's neighbour table, which the
quasi-convexity checks call.  The fallback ``all_pairs_bfs`` is the numpy
form of the compiled bit-parallel BFS in ``_bfs.c``, with sweeps of 128
sources instead of 512; the tests check both against a BFS per source.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

UNREACHED = 255
BLOCK_ROWS = 16  # rows of the defect recurrence filled per numpy step
SWEEP_WORDS = 2  # uint64 words per bitset of the fallback BFS: 128 sources a sweep


def free_reduce(codes):
    """Free reduction over letter codes (2*gen for a generator, 2*gen+1 for
    its inverse).  Returns the reduced code list."""
    out = []
    for c in codes:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return out


def check_csr(indptr, nbrs, n):
    """``(indptr, nbrs)`` as C-contiguous int64 and int32 arrays.  Raises
    ValueError unless they are a CSR graph on n vertices: indptr has n + 1
    nondecreasing entries from 0 to len(nbrs), and every neighbour is in
    range.  Both kernels check their input here."""
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    nbrs = np.ascontiguousarray(nbrs, dtype=np.int32)
    if (
        n < 0 or indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != len(nbrs)
        or (np.diff(indptr) < 0).any() or (nbrs < 0).any() or (nbrs >= n).any()
    ):
        raise ValueError("malformed CSR graph")
    return indptr, nbrs


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, sorted.  Unlike ``np.unique`` it does
    not import ``numpy.ma``."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def multi_source_distances(table: np.ndarray, sources: Sequence[int]) -> np.ndarray:
    """Graph distance from every vertex to the nearest source (-1 when none
    is reachable), by a level-synchronous BFS over the n x m neighbour
    table; -1 entries (products outside the ball) are skipped."""
    dist = np.full(len(table), -1, dtype=np.int64)
    frontier = _distinct(np.asarray(sources, dtype=np.int64))
    dist[frontier] = 0
    d = 0
    while frontier.size:
        d += 1
        reached = table[frontier].ravel()
        reached = reached[reached >= 0]
        frontier = _distinct(reached[dist[reached] < 0])
        dist[frontier] = d
    return dist


def all_pairs_bfs(indptr, nbrs, n):
    """All-pairs BFS distances on an unweighted graph in CSR form.

    Row ``v`` holds the distances along out-edges from ``v``, so directed
    graphs are handled.  Returns a uint8 matrix; unreachable pairs hold 255.
    Distances above 254 are not representable and raise.

    The numpy form of ``_bfs.c``'s bit-parallel BFS: a sweep runs the
    searches from ``SWEEP_WORDS * 64`` sources at once as little-endian
    uint64 bitsets, one row per vertex plus a zero row n that the padded
    out-neighbour table points at.  A level ORs ``cur`` over each vertex's
    out-neighbours and keeps the bits not yet seen, so bit i new in row v
    at level d says d(v, s0 + i) = d.  Each level unpacks the new bits to
    one byte per vertex and source, the largest array besides the matrix:
    the width of a sweep sets the working memory, not only its speed.
    """
    indptr, nbrs = check_csr(indptr, nbrs, n)
    # out-neighbour table, one row per column slot: entry (j, v) is v's j-th
    # out-neighbour, or n when v has fewer than j + 1
    deg = np.diff(indptr)
    table = np.full((int(deg.max(initial=0)), n), n, dtype=np.intp)
    table[np.arange(len(nbrs)) - indptr[:-1].repeat(deg), np.arange(n).repeat(deg)] = nbrs
    dist = np.full((n, n), UNREACHED, dtype=np.uint8)
    cur = np.zeros((n + 1, SWEEP_WORDS), dtype="<u8")
    nxt = np.zeros_like(cur)
    seen = np.empty((n, SWEEP_WORDS), dtype="<u8")
    tmp = np.empty((n, SWEEP_WORDS), dtype="<u8")
    for s0 in range(0, n, 64 * SWEEP_WORDS):
        m = min(64 * SWEEP_WORDS, n - s0)
        bit = np.arange(m, dtype=np.uint64)
        cur[:n] = 0
        cur[s0 + bit, bit // 64] = 1 << (bit % 64)
        seen[:] = cur[:n]
        dist[s0 + bit, s0 + bit] = 0
        cols = dist[:, s0:s0 + m]
        for d in range(1, UNREACHED + 1):
            new = nxt[:n]
            new[:] = 0
            for col in table:
                # in range by check_csr; "clip" lets take write to out unbuffered
                np.take(cur, col, axis=0, out=tmp, mode="clip")
                new |= tmp
            np.invert(seen, out=tmp)
            new &= tmp
            if not new.any():
                break
            if d >= UNREACHED:
                raise ValueError("graph diameter exceeds uint8 range")
            seen |= new
            # the mask is a temporary, so that two levels' masks never coexist
            np.copyto(cols, np.uint8(d), where=np.unpackbits(
                new.view(np.uint8), axis=1, count=m, bitorder="little").view(bool))
            cur, nxt = nxt, cur
    return dist


def max_bounded_defect(paths, dist):
    """Max fellow-traveling defect over all pairs of lines of a rooted tree.

    ``paths`` is the tree's prefix matrix: row ``a`` lists the vertices of
    the root-to-``a`` line at times 0..T-1, padded with ``a`` once it is
    reached, and the rows are in order of nondecreasing depth.  ``dist`` is
    the uint8 vertex distance matrix.  Returns ``(defect, a, b)`` where
    ``defect`` is ``max over a, b, t of d(p_a(t), p_b(t)) - d(a, b)`` and
    (a, b) is the lexicographically least pair achieving it.

    ``dist`` is overwritten.  With M(a, b) = max_t d(p_a(t), p_b(t)), the
    geodesic-tree recurrence M(a, b) = max(M(par a, b), d(a, b)) for
    depth b < depth a and max(M(par a, par b), d(a, b)) for equal depths
    fills each row's columns up to the end of its own layer, in blocks of
    ``BLOCK_ROWS`` rows, and writes M there in place of d.  Both M and d are
    symmetric, so this covers every pair at O(n^2) instead of O(n^2 T).
    """
    paths = np.asarray(paths)
    n = paths.shape[0]
    if dist.dtype != np.uint8 or dist.shape != (n, n):
        raise ValueError("dist must be an n x n uint8 matrix")
    if not (paths[:, -1] == np.arange(n)).all():
        raise ValueError("paths row a must end at vertex a")
    depth = (paths != paths[:, -1:]).sum(axis=1)
    if depth[0] != 0 or (depth[1:] == 0).any() or (np.diff(depth) < 0).any():
        raise ValueError("paths must list the root first, then rows by nondecreasing depth")
    parent = paths[np.arange(n), np.maximum(depth - 1, 0)].astype(np.intp)
    bounds = [*(np.flatnonzero(np.diff(depth)) + 1).tolist(), n]

    best, witness = 0, (0, 0)  # the root with itself: M = d = 0
    for ls, le in zip(bounds, bounds[1:]):
        layer_parents = parent[ls:le]
        for s in range(ls, le, BLOCK_ROWS):
            e = min(s + BLOCK_ROWS, le)
            block = dist[s:e, :le]  # d(a, b) on entry, M(a, b) on exit
            m = np.empty_like(block)
            m[:, :ls] = dist[parent[s:e], :ls]
            np.take(m[:, :ls], layer_parents, axis=1, out=m[:, ls:])
            np.maximum(m, block, out=m)
            np.subtract(m, block, out=block)  # the defects, all >= 0
            top = int(block.max())
            if top >= best:
                # a pair (a, b) and its mirror (b, a) share a defect, so the
                # least ordered witness is the least (min, max) over the
                # block's rows.  At a tie only columns up to the current
                # witness's smaller vertex can improve on it.
                cols = le if top > best else witness[0] + 1
                hit = block[:, :cols] == top
                first = hit.argmax(axis=1)
                found = hit[np.arange(e - s), first]
                if found.any():
                    a = np.arange(s, e)[found]
                    b = first[found]
                    lo, hi = np.minimum(a, b), np.maximum(a, b)
                    k = np.lexsort((hi, lo))[0]
                    pair = (int(lo[k]), int(hi[k]))
                    if top > best or pair < witness:
                        best, witness = top, pair
            np.copyto(block, m)
    return best, witness[0], witness[1]
