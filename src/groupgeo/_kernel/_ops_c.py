"""Compiled kernel: the C all-pairs BFS of ``_bfs.c`` next to the shared
``free_reduce``, ``max_bounded_defect`` and CSR check of ``_ops_py``.

The C loop is the bit-parallel BFS that ``_ops_py.all_pairs_bfs`` runs in
numpy, with sweeps of 512 sources instead of 128 and one pass per vertex
in place of whole-array steps.  It fills the columns of each sweep in an
n x n uint8 array allocated here.

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
