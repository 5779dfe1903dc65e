"""Compiled kernel: the C all-pairs BFS of ``_bfs.c`` next to the shared
``free_reduce``, ``max_bounded_defect`` and CSR check of ``_ops_py``.

The C loop is a bit-parallel BFS that fills 512 columns of the distance
matrix per sweep, writing into an n x n uint8 array allocated here.

Importing this module raises ImportError when the extension is not built.
"""

import numpy as np

from . import _bfs
from ._ops_py import check_csr, free_reduce, max_bounded_defect

__all__ = ["all_pairs_bfs", "free_reduce", "max_bounded_defect"]


def all_pairs_bfs(indptr, nbrs, n):
    """Same contract as ``_ops_py.all_pairs_bfs``.  ``check_csr`` rejects a
    malformed CSR graph before the C loop indexes with it."""
    indptr, nbrs = check_csr(indptr, nbrs, n)
    dist = np.empty((n, n), dtype=np.uint8)
    _bfs.all_pairs_bfs(indptr, nbrs, n, dist)
    return dist
