"""Build script: compiles the optional C kernel ``groupgeo._kernel._bfs``.

The kernel is one hand-written C file, ``src/groupgeo/_kernel/_bfs.c``: the
all-pairs BFS over a ball graph.  It uses only the Python C API and the
buffer protocol, so building it needs GCC or Clang (for ``__builtin_ctzll``)
and the Python headers, not numpy's headers or Cython.

The package works without the extension (the pure fallback BFS is selected
at import time), so any failure here downgrades to a pure build instead of
aborting the install: the extension is marked ``optional``, which turns a
compiler error inside ``build_ext`` into a warning.

Offline, build in place with ``python setup.py build_ext --inplace`` and run
with ``PYTHONPATH=src``; ``pip install`` also needs the ``wheel`` package.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("groupgeo._kernel._bfs", ["src/groupgeo/_kernel/_bfs.c"], optional=True)
    ],
)
