/* All-pairs BFS on an unweighted graph in CSR form: the one compiled loop.
 * all_pairs_bfs(indptr, nbrs, n) takes C-contiguous int64 indptr and int32
 * nbrs buffers, which _ops_py.check_csr has checked to be a valid CSR graph
 * on n vertices, and returns an n*n bytearray of uint8 distances, 255 where
 * unreachable; a distance above 254 raises.  It has the contract of the
 * numpy fallback _ops_py.all_pairs_bfs, and the tests compare the two. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define UNREACHED 255

static PyObject *all_pairs_bfs(PyObject *self, PyObject *args)
{
    Py_buffer ip, nb;
    Py_ssize_t n, src, head, tail, j;
    PyObject *out = NULL;
    int32_t *queue = NULL;
    if (!PyArg_ParseTuple(args, "y*y*n", &ip, &nb, &n))
        return NULL;
    const int64_t *indptr = ip.buf;
    const int32_t *nbrs = nb.buf;
    if (n < 0 || n >= INT32_MAX || ip.len != (n + 1) * 8 || nb.len % 4) {
        PyErr_SetString(PyExc_ValueError, "buffer sizes do not match n");
        goto done;
    }
    out = PyByteArray_FromStringAndSize(NULL, n * n);
    queue = PyMem_Malloc((n + 1) * sizeof(int32_t));
    if (out == NULL || queue == NULL) {
        Py_CLEAR(out);
        PyErr_NoMemory();
        goto done;
    }
    uint8_t *dist = (uint8_t *)PyByteArray_AS_STRING(out);
    memset(dist, UNREACHED, (size_t)n * n);
    for (src = 0; src < n; src++) {
        uint8_t *row = dist + src * n;
        row[src] = 0;
        queue[0] = (int32_t)src;
        for (head = 0, tail = 1; head < tail; head++) {
            int32_t u = queue[head];
            int d = row[u] + 1;
            for (j = indptr[u]; j < indptr[u + 1]; j++) {
                if (row[nbrs[j]] == UNREACHED) {
                    if (d >= UNREACHED) {
                        PyErr_SetString(PyExc_ValueError, "graph diameter exceeds uint8 range");
                        Py_CLEAR(out);
                        goto done;
                    }
                    row[nbrs[j]] = (uint8_t)d;
                    queue[tail++] = nbrs[j];
                }
            }
        }
    }
done:
    PyMem_Free(queue);
    PyBuffer_Release(&ip);
    PyBuffer_Release(&nb);
    return out;
}

static PyMethodDef methods[] = {
    {"all_pairs_bfs", all_pairs_bfs, METH_VARARGS, "all_pairs_bfs(indptr, nbrs, n) -> bytearray"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_bfs", NULL, -1, methods};

PyMODINIT_FUNC PyInit__bfs(void)
{
    return PyModule_Create(&module);
}
