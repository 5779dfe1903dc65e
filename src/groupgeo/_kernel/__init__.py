"""Kernel selection: the compiled all-pairs BFS when it is built, the numpy
fallback otherwise.  The compiled BFS (``_bfs.c``) is bit-parallel: each
sweep runs 512 searches as 512-bit vertex sets and fills 512 columns of a
numpy matrix that ``_ops_c`` allocates.  Both kernels share the Python
``free_reduce``, the CSR check and the numpy ``max_bounded_defect``; the
fallback BFS runs the library's one Python BFS,
``_ops_py.multi_source_distances``, per source.

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
