"""Kernel tests: both all-pairs BFS kernels against a numpy BFS per source,
and the shared defect recurrence against the O(n^2 T) definition."""

import os
import shutil
import sysconfig
import tracemalloc

import numpy as np
import pytest

from groupgeo import cayley
from groupgeo._kernel import HAVE_COMPILED, _ops_py, ops
from groupgeo.experiments import get_group, zoo_names

if HAVE_COMPILED:
    from groupgeo._kernel import _bfs, _ops_c
else:  # pragma: no cover - exercised only in fallback-only environments
    _bfs = _ops_c = None

needs_compiled = pytest.mark.skipif(
    not HAVE_COMPILED, reason="compiled kernel not built"
)
KERNELS = (_ops_py, _ops_c) if HAVE_COMPILED else (_ops_py,)


def _have_c_toolchain():
    """True when the C compiler Python was built with and ``Python.h`` exist."""
    cc = (sysconfig.get_config_var("CC") or "").split()
    header = os.path.join(sysconfig.get_paths()["include"], "Python.h")
    return bool(cc) and shutil.which(cc[0]) is not None and os.path.isfile(header)


def reference_all_pairs_bfs(indptr, nbrs, n):
    """The distance matrix by one level-synchronous numpy BFS per source:
    row v is ``multi_source_distances`` from v over the out-neighbour table,
    with -1 (unreachable) read as 255."""
    deg = np.diff(indptr)
    table = np.full((n, int(deg.max(initial=0))), -1, dtype=np.int32)
    table[np.arange(n).repeat(deg), np.arange(len(nbrs)) - indptr[:-1].repeat(deg)] = nbrs
    dist = np.empty((n, n), dtype=np.int64)
    for src in range(n):
        dist[src] = _ops_py.multi_source_distances(table, [src])
    assert dist.max(initial=0) < 255
    dist[dist < 0] = 255
    return dist.astype(np.uint8)


def reference_max_bounded_defect(paths, dist):
    """The definition, in O(n^2 T): max over a, b, t of
    d(p_a(t), p_b(t)) - d(end_a, end_b), with the lexicographically least
    pair (a, b) achieving it.  Any paths, tree or not."""
    paths = np.asarray(paths, dtype=np.int64)
    dist = np.asarray(dist, dtype=np.int16)
    ends = paths[:, -1]
    best, best_a, best_b = None, 0, 0
    for a in range(len(paths)):
        # row b, column t: d(p_a(t), p_b(t))
        defect = dist[paths[a][None, :], paths].max(axis=1) - dist[ends[a], ends]
        b = int(defect.argmax())
        if best is None or defect[b] > best:
            best, best_a, best_b = int(defect[b]), a, b
    return best, best_a, best_b


def _csr(adj):
    """CSR form of neighbour collections; a list keeps repeated edges."""
    indptr = np.zeros(len(adj) + 1, dtype=np.int64)
    nbrs = []
    for i, row in enumerate(adj):
        nbrs.extend(sorted(row))
        indptr[i + 1] = len(nbrs)
    return indptr, np.asarray(nbrs, dtype=np.int32)


def _path_csr(n, directed=False, first=0):
    """The path first - ... - (n-1) on vertices 0 .. n-1, the vertices below
    ``first`` isolated; only its forward edges when directed."""
    return _csr([{u for u in (v - 1, v + 1) if first <= u < n and (u > v or not directed)}
                 if v >= first else set() for v in range(n)])


def _rotated_path_csr(n, last):
    """The one-way path through all n vertices in the order last + 1, last +
    2, ... (mod n), so that it ends at ``last``."""
    return _csr([{(v + 1) % n} if v != last else set() for v in range(n)])


def _random_multigraph(rng, n):
    """Random directed out-neighbour lists with self-loops and repeated
    edges."""
    adj = [rng.integers(0, n, size=int(rng.integers(0, 4))).tolist() for _ in range(n)]
    for v in range(0, n, 3):
        adj[v] += [v, v]
    if n > 1:
        adj[0] += [1, 1, 1]
    return adj


def _random_adjacency(rng, n, extra_edges):
    """Neighbour sets of a random connected undirected graph."""
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = int(rng.integers(0, v))
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(extra_edges):
        u, v = rng.integers(0, n, size=2).tolist()
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _two_components(rng, n, extra_edges):
    """Neighbour sets of a random undirected graph with two connected
    components on a random split of the vertices."""
    order = rng.permutation(n)
    k = int(rng.integers(1, n))
    adj = [set() for _ in range(n)]
    for part, m in ((order[:k], k), (order[k:], n - k)):
        for v, row in enumerate(_random_adjacency(rng, m, extra_edges * m // n)):
            adj[part[v]] = {int(part[u]) for u in row}
    return adj


def _directed(rng, adj):
    """Each undirected edge of ``adj`` kept in one direction at random."""
    out = [set() for _ in adj]
    for u, row in enumerate(adj):
        for v in row:
            if u < v:
                a, b = (u, v) if rng.integers(0, 2) else (v, u)
                out[a].add(b)
    return out


def _random_geodesic_tree(rng, n, extra_edges):
    """A random connected graph relabelled so that a random BFS tree from
    vertex 0 lists its vertices by nondecreasing depth (shuffled within each
    layer), with the graph's distance matrix and the tree's prefix matrix."""
    adj = _random_adjacency(rng, n, extra_edges)
    depth = {0: 0}
    layers = [[0]]
    while True:
        nxt = sorted({v for u in layers[-1] for v in adj[u] if v not in depth})
        if not nxt:
            break
        for v in nxt:
            depth[v] = len(layers)
        layers.append([int(v) for v in rng.permutation(nxt)])
    order = [v for layer in layers for v in layer]
    label = {v: i for i, v in enumerate(order)}
    new_adj = [{label[u] for u in adj[v]} for v in order]
    dist = _ops_py.all_pairs_bfs(*_csr(new_adj), n)
    T = len(layers) + int(rng.integers(0, 3))  # padded beyond the deepest vertex
    paths = np.empty((n, T), dtype=np.int32)
    paths[0, :] = 0
    for i in range(1, n):
        d = depth[order[i]]
        # any neighbour one layer up is a geodesic parent
        parent = int(rng.choice(sorted(u for u in new_adj[i] if dist[0, u] == d - 1)))
        paths[i, :d] = paths[parent, :d]
        paths[i, d:] = i
    return paths, dist


class TestFreeReduce:
    def test_reference_cancels(self):
        assert _ops_py.free_reduce([0, 1]) == []
        assert _ops_py.free_reduce([0, 2, 3, 1]) == []
        assert _ops_py.free_reduce([0, 0, 1]) == [0]

    def test_one_implementation(self):
        assert ops.free_reduce is _ops_py.free_reduce


def _assert_kernels_agree(indptr, nbrs, n):
    """Every kernel here, the fallback always, gives the reference matrix."""
    want = reference_all_pairs_bfs(indptr, nbrs, n)
    for kernel in KERNELS:
        got = kernel.all_pairs_bfs(indptr, nbrs, n)
        assert got.dtype == np.uint8 and got.shape == (n, n)
        assert (got == want).all()
    return want


class TestAllPairsBfs:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        adj = _random_adjacency(rng, n, extra_edges=n)
        _assert_kernels_agree(*_csr(adj), n)
        _assert_kernels_agree(*_csr(_directed(rng, adj)), n)

    @pytest.mark.parametrize("seed", range(3))
    def test_self_loops_and_repeated_edges(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 150))
        _assert_kernels_agree(*_csr(_random_multigraph(rng, n)), n)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_graphs(self, n):
        d = _assert_kernels_agree(*_csr([set() for _ in range(n)]), n)
        assert (d == np.zeros((n, n))).all()
        d = _assert_kernels_agree(*_csr([[v, v] for v in range(n)]), n)
        assert (d == np.zeros((n, n))).all()

    def test_isolated_vertices(self):
        rng = np.random.default_rng(7)
        n = 140
        adj = _random_adjacency(rng, n, extra_edges=n)
        isolated = set(rng.choice(n, size=20, replace=False).tolist())
        adj = [set() if v in isolated else row - isolated for v, row in enumerate(adj)]
        for graph in (adj, _directed(rng, adj)):
            d = _assert_kernels_agree(*_csr(graph), n)
            for v in isolated:
                assert d[v, v] == 0 and (np.delete(d[v], v) == 255).all()
                assert (np.delete(d[:, v], v) == 255).all()

    @pytest.mark.parametrize("name", zoo_names())
    def test_matches_reference_on_zoo_balls(self, name):
        idx = cayley.ball(get_group(name), 4)
        _assert_kernels_agree(*idx.graph_csr(), len(idx))

    @pytest.mark.parametrize("n", [127, 128, 129, 257, 511, 512, 513, 1025])
    def test_matches_reference_across_batches(self, n):
        # the fallback fills 128 columns per sweep, the C loop 512
        rng = np.random.default_rng(n)
        adj = _two_components(rng, n, extra_edges=n // 2)
        for graph in (adj, _directed(rng, adj)):
            assert (_assert_kernels_agree(*_csr(graph), n) == 255).any()

    def test_reference_on_a_path_graph(self):
        indptr = np.array([0, 1, 3, 4], dtype=np.int64)
        nbrs = np.array([1, 0, 2, 1], dtype=np.int32)
        d = _ops_py.all_pairs_bfs(indptr, nbrs, 3)
        assert d[0, 2] == 2 and d[2, 0] == 2 and d[1, 1] == 0

    def test_unreachable_is_255(self):
        indptr = np.array([0, 0, 0], dtype=np.int64)
        nbrs = np.array([], dtype=np.int32)
        d = _ops_py.all_pairs_bfs(indptr, nbrs, 2)
        assert d[0, 1] == 255
        if HAVE_COMPILED:
            assert (_ops_c.all_pairs_bfs(indptr, nbrs, 2) == d).all()

    def test_diameter_overflow_raises(self):
        n = 300  # path graph longer than uint8 range
        indptr, nbrs = _path_csr(n)
        with pytest.raises(ValueError):
            _ops_py.all_pairs_bfs(indptr, nbrs, n)
        if HAVE_COMPILED:
            with pytest.raises(ValueError, match="diameter"):
                _ops_c.all_pairs_bfs(indptr, nbrs, n)

    def test_diameter_boundary(self):
        # a one-way path: 254 is the largest distance a uint8 row holds
        for kernel in KERNELS:
            d = kernel.all_pairs_bfs(*_path_csr(255, directed=True), 255)
            assert d[0, 254] == 254 and d[254, 0] == 255
            with pytest.raises(ValueError, match="diameter"):
                kernel.all_pairs_bfs(*_path_csr(256, directed=True), 256)

    def test_diameter_boundary_in_the_fallback_second_sweep(self):
        # a one-way path ending at vertex 128, the first column of the
        # fallback's second sweep
        for kernel in KERNELS:
            d = kernel.all_pairs_bfs(*_rotated_path_csr(255, last=128), 255)
            assert d[129, 128] == 254 and d[128, 129] == 255 and d[0, 128] == 128
            with pytest.raises(ValueError, match="diameter"):
                kernel.all_pairs_bfs(*_rotated_path_csr(256, last=128), 256)

    def test_fallback_working_memory(self):
        # The traced peak beyond the returned n x n matrix: 238 bytes per
        # vertex measured at 128 sources a sweep (one level's n x 128 mask
        # of new bits, the bitsets and the neighbour table), 430 at 256
        # sources, and 366 when one level's mask outlives the next.
        idx = cayley.ball(get_group("free2"), 6)
        indptr, nbrs = idx.graph_csr()
        n = len(idx)
        tracemalloc.start()
        try:
            dist = _ops_py.all_pairs_bfs(indptr, nbrs, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dist.nbytes == n * n == 1457 ** 2
        assert peak - dist.nbytes <= 320 * n

    def test_diameter_boundary_in_the_second_batch(self):
        # a one-way path ending at vertex 512, the first column of the
        # compiled loop's second sweep
        for kernel in KERNELS:
            d = kernel.all_pairs_bfs(*_path_csr(513, directed=True, first=258), 513)
            assert d[258, 512] == 254 and d[512, 258] == 255 and d[0, 512] == 255
            with pytest.raises(ValueError, match="diameter"):
                kernel.all_pairs_bfs(*_path_csr(513, directed=True, first=257), 513)

    @needs_compiled
    @pytest.mark.parametrize(
        "make_out",
        [
            lambda n: np.full(n * n + 1, 7, dtype=np.uint8),  # one byte too many
            lambda n: np.full((n, n - 1), 7, dtype=np.uint8),  # one column short
        ],
        ids=["long", "short"],
    )
    def test_wrong_size_output_raises_before_writing(self, make_out):
        indptr, nbrs = _path_csr(4)
        out = make_out(4)
        with pytest.raises(ValueError, match="sizes"):
            _bfs.all_pairs_bfs(indptr, nbrs, 4, out)
        assert (out == 7).all()

    @needs_compiled
    def test_read_only_output_raises_before_writing(self):
        indptr, nbrs = _path_csr(4)
        out = np.full((4, 4), 7, dtype=np.uint8)
        view = out.view()
        view.flags.writeable = False
        with pytest.raises(TypeError, match="read-write"):
            _bfs.all_pairs_bfs(indptr, nbrs, 4, view)
        with pytest.raises(TypeError, match="read-write"):
            _bfs.all_pairs_bfs(indptr, nbrs, 4, bytes(16))
        assert (out == 7).all()

    @pytest.mark.parametrize(
        "indptr,nbrs,n",
        [
            ([0, 1, 2], [1, 2], 2),   # neighbour out of range
            ([0, 1, 2], [1, -1], 2),  # negative neighbour
            ([0, 2, 1], [1, 0], 2),   # indptr decreasing
            ([0, 1], [1, 0], 2),      # indptr too short for n
            ([0, 1, 3], [1, 0], 2),   # indptr end past nbrs
        ],
    )
    def test_malformed_csr_raises(self, indptr, nbrs, n):
        for kernel in KERNELS:
            with pytest.raises(ValueError, match="malformed"):
                kernel.all_pairs_bfs(
                    np.array(indptr, dtype=np.int64), np.array(nbrs, dtype=np.int32), n
                )


class TestMaxBoundedDefect:
    @pytest.mark.parametrize(
        "group,radius",
        [
            ("braid3", 3), ("braid3", 4), ("bs12", 4), ("bs12", 6),
            ("free2", 3), ("free2", 5), ("heis3", 3), ("heis3", 4),
            ("kleinfour", 1), ("kleinfour", 3), ("sl2z", 4), ("sl2z", 6),
            ("z2", 4), ("z2", 8),
        ],
    )
    def test_matches_reference_on_real_balls(self, group, radius):
        idx = cayley.ball(get_group(group), radius)
        indptr, nbrs = idx.graph_csr()
        dist = ops.all_pairs_bfs(indptr, nbrs, len(idx))
        paths = idx.prefix_matrix()
        want = reference_max_bounded_defect(paths, dist)
        assert ops.max_bounded_defect(paths, dist.copy()) == want

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_on_random_trees(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 60))
        paths, dist = _random_geodesic_tree(rng, n, extra_edges=int(rng.integers(0, 2 * n)))
        want = reference_max_bounded_defect(paths, dist)
        assert _ops_py.max_bounded_defect(paths, dist.copy()) == want

    def test_writes_the_line_maximum_into_dist(self):
        idx = cayley.ball(get_group("z2"), 3)
        dist = ops.all_pairs_bfs(*idx.graph_csr(), len(idx))
        paths = idx.prefix_matrix()
        out = dist.copy()
        ops.max_bounded_defect(paths, out)
        a, b = 0, len(idx) - 1  # the root and a vertex of the last layer
        line_max = max(int(dist[paths[b, t], paths[a, t]]) for t in range(paths.shape[1]))
        assert out[b, a] == line_max

    def test_one_implementation(self):
        assert ops.max_bounded_defect is _ops_py.max_bounded_defect

    def test_rejects_rows_out_of_depth_order(self):
        paths = np.array([[0, 1], [0, 0]], dtype=np.int32)  # row 1 ends at 0
        dist = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(ValueError):
            _ops_py.max_bounded_defect(paths, dist)
        paths = np.array([[0, 0, 0], [0, 1, 1], [0, 1, 2], [0, 3, 3]], dtype=np.int32)
        dist = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="depth"):
            _ops_py.max_bounded_defect(paths, dist)

    def test_reference_zero_defect_for_identical_lines(self):
        paths = np.array([[0, 1, 2], [0, 1, 2]], dtype=np.int32)
        dist = np.array(
            [[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.uint8
        )
        defect, a, b = reference_max_bounded_defect(paths, dist)
        assert defect == 0


class TestSelection:
    @pytest.mark.skipif(
        not _have_c_toolchain(), reason="no C compiler or Python.h to build the kernel"
    )
    def test_compiled_kernel_is_built_here(self, kernel_build_log):
        assert HAVE_COMPILED, kernel_build_log

    def test_fallback_env_var(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c",
             "from groupgeo._kernel import HAVE_COMPILED; print(HAVE_COMPILED)"],
            env={**os.environ, "GROUPGEO_PURE_PYTHON": "1"},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"
