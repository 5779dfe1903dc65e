"""Compiled kernel: the C all-pairs BFS of ``_bfs.c`` next to the shared
``free_reduce`` and ``max_bounded_defect`` of ``_ops_py``.

Importing this module raises ImportError when the extension is not built.
"""

import numpy as np

from . import _bfs
from ._ops_py import free_reduce, max_bounded_defect

__all__ = ["all_pairs_bfs", "free_reduce", "max_bounded_defect"]


def all_pairs_bfs(indptr, nbrs, n):
    """Same contract as ``_ops_py.all_pairs_bfs``.  A malformed CSR graph
    raises ValueError here, before the C loop indexes with it."""
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    nbrs = np.ascontiguousarray(nbrs, dtype=np.int32)
    if (
        n < 0 or indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != len(nbrs)
        or (np.diff(indptr) < 0).any() or (nbrs < 0).any() or (nbrs >= n).any()
    ):
        raise ValueError("malformed CSR graph")
    return np.frombuffer(_bfs.all_pairs_bfs(indptr, nbrs, n), dtype=np.uint8).reshape(n, n)
