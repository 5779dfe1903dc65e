"""The kernel's Python/numpy functions.

``free_reduce`` and ``max_bounded_defect`` are the only implementations and
serve both kernels; ``all_pairs_bfs`` is the fallback BFS and the reference
for the compiled one in ``_bfs.c``.
"""

from __future__ import annotations

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


def all_pairs_bfs(indptr, nbrs, n):
    """All-pairs BFS distances on an unweighted graph in CSR form.

    Returns a uint8 matrix; unreachable pairs hold 255.  Distances above 254
    are not representable and raise.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    nbrs = np.asarray(nbrs, dtype=np.int32)
    dist = np.full((n, n), UNREACHED, dtype=np.uint8)
    for src in range(n):
        row = dist[src]
        row[src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            if d >= UNREACHED:
                raise ValueError("graph diameter exceeds uint8 range")
            nxt = []
            for u in frontier:
                for v in nbrs[indptr[u]:indptr[u + 1]]:
                    if row[v] == UNREACHED:
                        row[v] = d
                        nxt.append(v)
            frontier = nxt
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
