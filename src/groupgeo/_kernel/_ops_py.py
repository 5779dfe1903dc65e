"""The kernel's Python/numpy functions.

``free_reduce``, ``max_bounded_defect`` and the CSR check ``check_csr`` are
the only implementations and serve both kernels.  ``multi_source_distances``
is the library's one Python BFS: the quasi-convexity checks call it on a
ball's neighbour table, and the fallback ``all_pairs_bfs`` calls it once per
source.  The fallback and the compiled BFS in ``_bfs.c`` are tested against
each other.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

UNREACHED = 255
BLOCK_ROWS = 16  # rows of the defect recurrence filled per numpy step


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

    Row ``src`` holds the distances along out-edges from ``src``, so
    directed graphs are handled.  Returns a uint8 matrix; unreachable pairs
    hold 255.  Distances above 254 are not representable and raise.
    """
    indptr, nbrs = check_csr(indptr, nbrs, n)
    # out-neighbour table: row u lists nbrs[indptr[u]:indptr[u+1]], padded with -1
    deg = np.diff(indptr)
    table = np.full((n, int(deg.max(initial=0))), -1, dtype=np.int32)
    table[np.arange(n).repeat(deg), np.arange(len(nbrs)) - indptr[:-1].repeat(deg)] = nbrs
    dist = np.empty((n, n), dtype=np.uint8)
    for src in range(n):
        row = multi_source_distances(table, [src])
        if row.max() >= UNREACHED:
            raise ValueError("graph diameter exceeds uint8 range")
        row[row < 0] = UNREACHED
        dist[src] = row
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
