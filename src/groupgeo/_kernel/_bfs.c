/* All-pairs BFS on an unweighted graph in CSR form: the one compiled loop.
 *
 * all_pairs_bfs(indptr, nbrs, n, out) takes C-contiguous int64 indptr and
 * int32 nbrs buffers, which _ops_py.check_csr has checked to be a valid CSR
 * graph on n vertices, and a writable buffer of n*n bytes owned by the
 * caller (_ops_c passes a numpy array).  It fills out[v*n + s] with the
 * distance along out-edges from v to s, 255 where s is unreachable from v,
 * and raises when a distance is above 254.  It has the contract of the numpy
 * fallback _ops_py.all_pairs_bfs, which runs the same sweep with whole-array
 * steps and 128 searches at a time, and the tests check both against a
 * numpy BFS per source.
 *
 * The BFS is bit-parallel (Then et al., "The More the Merrier: Efficient
 * Multi-Source Graph Traversal", PVLDB 8(4), 2014).  One sweep runs BATCH =
 * 64*W searches at once, from s0 .. s0+BATCH-1 in the reversed graph: every
 * vertex holds W-word bitsets seen, cur and next, bit i standing for s0 + i.
 * A level is a pull over out-neighbours, next[v] = (OR of cur[w] over edges
 * v -> w) & ~seen[v], so a bit i new at level d says d(v, s0 + i) = d.  The
 * pull skips neighbours whose cur is empty.  A sweep fills columns s0 ..
 * s0+BATCH-1, and each new bit is one byte store into row v.  The working
 * memory is 3*n*8*W bytes of bitsets and 2*n bytes of flags; out is filled
 * with 255 first.  Building it needs GCC or Clang (__builtin_ctzll). */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define UNREACHED 255
#define W 8            /* 64-bit words per bitset */
#define BATCH (64 * W) /* searches per sweep */

/* One sweep from s0: fills columns s0 .. s0+BATCH-1 (those below n) of out.
 * live[v] says cur[v] has a bit, live_next[v] the same of next[v]; cur and
 * next of a vertex that is not live are never read.  Returns -1 when a
 * distance exceeds 254, 0 otherwise. */
static int sweep(const int64_t *indptr, const int32_t *nbrs, Py_ssize_t n, Py_ssize_t s0,
                 uint8_t *out, uint64_t *seen, uint64_t *cur, uint64_t *next,
                 uint8_t *live, uint8_t *live_next)
{
    Py_ssize_t m = n - s0 < BATCH ? n - s0 : BATCH;
    memset(seen, 0, (size_t)n * W * 8);
    memset(live, 0, (size_t)n);
    for (Py_ssize_t i = 0; i < m; i++) {
        Py_ssize_t s = s0 + i;
        memset(cur + s * W, 0, W * 8);
        seen[s * W + i / 64] = cur[s * W + i / 64] = (uint64_t)1 << (i % 64);
        live[s] = 1;
        out[s * n + s] = 0;
    }
    for (int d = 1;; d++) {
        int any = 0;
        for (Py_ssize_t v = 0; v < n; v++) {
            uint64_t acc[W] = {0}, fresh_any = 0;
            uint64_t *sv = seen + v * W, *nv = next + v * W;
            int hit = 0;
            for (int64_t j = indptr[v]; j < indptr[v + 1]; j++) {
                if (!live[nbrs[j]])
                    continue;
                const uint64_t *cw = cur + (Py_ssize_t)nbrs[j] * W;
                for (int k = 0; k < W; k++)
                    acc[k] |= cw[k];
                hit = 1;
            }
            live_next[v] = 0;
            if (!hit)
                continue;
            for (int k = 0; k < W; k++) {
                nv[k] = acc[k] & ~sv[k];
                sv[k] |= nv[k];
                fresh_any |= nv[k];
            }
            if (!fresh_any)
                continue;
            if (d >= UNREACHED)
                return -1;
            live_next[v] = 1;
            any = 1;
            uint8_t *row = out + v * n + s0;
            for (int k = 0; k < W; k++)
                for (uint64_t f = nv[k]; f; f &= f - 1)
                    row[64 * k + __builtin_ctzll(f)] = (uint8_t)d;
        }
        if (!any)
            return 0;
        uint64_t *t = cur;
        cur = next;
        next = t;
        uint8_t *l = live;
        live = live_next;
        live_next = l;
    }
}

static PyObject *all_pairs_bfs(PyObject *self, PyObject *args)
{
    Py_buffer ip, nb, ob;
    Py_ssize_t n, s0;
    uint64_t *bits = NULL;
    PyObject *result = NULL;
    if (!PyArg_ParseTuple(args, "y*y*nw*", &ip, &nb, &n, &ob))
        return NULL;
    if (n < 0 || n >= INT32_MAX || ip.len != (n + 1) * 8 || nb.len % 4 || ob.len != n * n) {
        PyErr_SetString(PyExc_ValueError, "buffer sizes do not match n");
        goto done;
    }
    bits = PyMem_Malloc((size_t)n * (3 * W * 8 + 2) + 1);
    if (bits == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    uint8_t *out = ob.buf, *flags = (uint8_t *)(bits + 3 * n * W);
    memset(out, UNREACHED, (size_t)n * n);
    for (s0 = 0; s0 < n; s0 += BATCH) {
        if (sweep(ip.buf, nb.buf, n, s0, out, bits, bits + n * W, bits + 2 * n * W,
                  flags, flags + n) < 0) {
            PyErr_SetString(PyExc_ValueError, "graph diameter exceeds uint8 range");
            goto done;
        }
    }
    Py_INCREF(Py_None);
    result = Py_None;
done:
    PyMem_Free(bits);
    PyBuffer_Release(&ip);
    PyBuffer_Release(&nb);
    PyBuffer_Release(&ob);
    return result;
}

static PyMethodDef methods[] = {
    {"all_pairs_bfs", all_pairs_bfs, METH_VARARGS, "all_pairs_bfs(indptr, nbrs, n, out) -> None"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_bfs", NULL, -1, methods};

PyMODINIT_FUNC PyInit__bfs(void)
{
    return PyModule_Create(&module);
}
