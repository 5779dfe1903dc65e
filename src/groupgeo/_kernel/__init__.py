"""Kernel selection: the compiled all-pairs BFS when it is built, the numpy
fallback otherwise.  Both BFS kernels are bit-parallel: each sweep runs its
searches as vertex bitsets and fills that many columns of an n x n uint8
matrix.  The compiled loop (``_bfs.c``) runs 512 searches a sweep, the
numpy fallback (``_ops_py.all_pairs_bfs``) 128.  Both kernels share the
Python ``free_reduce``, the CSR check and the numpy ``max_bounded_defect``.

Set ``GROUPGEO_PURE_PYTHON=1`` to force the fallback (used by the benchmark
and by tests that compare the two implementations).
"""

import os

from . import _ops_py

if os.environ.get("GROUPGEO_PURE_PYTHON") == "1":
    ops = _ops_py
    HAVE_COMPILED = False
else:
    try:
        from . import _ops_c as ops  # type: ignore[no-redef]

        HAVE_COMPILED = True
    except ImportError:
        ops = _ops_py
        HAVE_COMPILED = False

__all__ = ["ops", "HAVE_COMPILED"]
