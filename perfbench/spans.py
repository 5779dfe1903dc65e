"""Per-layer spans recorded from the benchmark's side of each call into
groupgeo.

``Tracer.install`` replaces the traced functions and methods of groupgeo's
modules with wrappers and ``Tracer.uninstall`` puts the originals back, so
the timed passes run the program untouched.  A span records calls and self
time: its duration minus the time covered by the spans it caused.  Model
methods (multiply, invert, canonical_key) are counted only at the outermost
call of their layer, so a product's calls into its factors are part of the
product.  Layers are named by module; ``kernel`` is groupgeo's ``_kernel``
package (a metric name has to start with a letter).
"""

from __future__ import annotations

import sys
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, attribute path) of the traced callable
FUNCTIONS = {
    "cayley.ball": ("groupgeo.cayley", "ball"),
    "cayley.word_length_of": ("groupgeo.cayley", "word_length_of"),
    "cayley.graph_csr": ("groupgeo.cayley", "BallIndex.graph_csr"),
    "cayley.prefix_matrix": ("groupgeo.cayley", "BallIndex.prefix_matrix"),
    "cayley.geodesic_word": ("groupgeo.cayley", "BallIndex.geodesic_word"),
    "combing.check_bounded": ("groupgeo.combing", "check_bounded"),
    "combing.check_quasi_geodesic": ("groupgeo.combing", "check_quasi_geodesic"),
    "combing.check_equivariance": ("groupgeo.combing", "check_equivariance"),
    "combing.centralizer_quasiconvexity_report": ("groupgeo.combing", "centralizer_quasiconvexity_report"),
    "combing.conjugator_search": ("groupgeo.combing", "conjugator_search"),
    "distortion.distortion_profile": ("groupgeo.distortion", "distortion_profile"),
    "distortion.classify_growth": ("groupgeo.distortion", "classify_growth"),
    "words.format_word": ("groupgeo.words", "Alphabet.format_word"),
}
MODEL_CLASSES = {
    "groups": ("groupgeo.groups", ("TableGroup", "IntegerMatrixGroup", "DyadicAffineGroup",
                                   "FreeGroupModel", "DirectProduct")),
    "garside": ("groupgeo.garside", ("BraidGroup",)),
}
MODEL_METHODS = ("multiply", "invert", "canonical_key")
KERNEL_FUNCTIONS = ("all_pairs_bfs", "max_bounded_defect", "free_reduce")

# per-layer metrics reported by the traced run: name -> unit
METRICS = {
    "cayley.ball.s": "s",
    "cayley.ball.calls": "count",
    "cayley.ball.elements": "count",
    "cayley.ball.us_per_element": "us",
    "cayley.ball.bytes_per_element": "B",
    "cayley.graph_csr.s": "s",
    "cayley.graph_csr.edges": "count",
    "cayley.prefix_matrix.s": "s",
    "cayley.geodesic_word.calls": "count",
    "cayley.word_length_of.calls": "count",
    "groups.multiply.calls": "count",
    "groups.multiply.s": "s",
    "groups.canonical_key.calls": "count",
    "groups.canonical_key.s": "s",
    "groups.invert.calls": "count",
    "garside.multiply.calls": "count",
    "garside.multiply.s": "s",
    "garside.invert.calls": "count",
    "kernel.all_pairs_bfs.s": "s",
    "kernel.all_pairs_bfs.edge_visits": "count",
    "kernel.all_pairs_bfs.bytes": "B",
    "kernel.max_bounded_defect.s": "s",
    "kernel.max_bounded_defect.pair_steps": "count",
    "kernel.free_reduce.calls": "count",
    "kernel.free_reduce.s": "s",
    "combing.check_bounded.s": "s",
    "combing.check_quasi_geodesic.s": "s",
    "combing.check_quasi_geodesic.segments": "count",
    "combing.check_equivariance.s": "s",
    "combing.centralizer_quasiconvexity_report.s": "s",
    "combing.conjugator_search.calls": "count",
    "combing.conjugator_search.s": "s",
    "distortion.distortion_profile.s": "s",
    "distortion.classify_growth.s": "s",
    "words.format_word.calls": "count",
    "words.format_word.s": "s",
    "experiments.run.s": "s",
}


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # the largest ball built while tracing: (elements, group, radius, sphere sizes)
        self.largest_ball = None
        self._children = [0.0]  # child time of each open span; [0] is the root
        self._undo = []

    # ---------------------------------------------------------------- spans

    def _enter(self):
        self._children.append(0.0)
        return perf_counter()

    def _exit(self, name, t0):
        total = perf_counter() - t0
        children = self._children.pop()
        self.calls[name] += 1
        self.self_s[name] += total - children
        self._children[-1] += total

    @contextmanager
    def span(self, name):
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(name, t0)

    def _wrap(self, name, fn, on_call=None, guard=None):
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            if guard is not None:
                if guard[0]:
                    return fn(*args, **kwargs)
                guard[0] = True
            t0 = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(name, t0)
                if guard is not None:
                    guard[0] = False
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------- counters

    def _on_ball(self, args, kwargs, idx):
        n = len(idx)
        self.counts["cayley.ball.elements"] += n
        if self.largest_ball is None or n > self.largest_ball[0]:
            self.largest_ball = (n, args[0], idx.radius, list(idx.sphere_sizes))

    def _on_graph_csr(self, args, kwargs, result):
        self.counts["cayley.graph_csr.edges"] += len(result[1])

    def _on_all_pairs_bfs(self, args, kwargs, dist):
        n = int(args[2])
        self.counts["kernel.all_pairs_bfs.edge_visits"] += n * len(args[1])
        self.counts["kernel.all_pairs_bfs.bytes"] += n * n

    def _on_max_bounded_defect(self, args, kwargs, result):
        lines, T = args[0].shape
        self.counts["kernel.max_bounded_defect.pair_steps"] += lines * lines * T

    # --------------------------------------------------------- installation

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        """Rebind every groupgeo module global that names ``original``."""
        for modname, module in list(sys.modules.items()):
            if modname == "groupgeo" or modname.startswith("groupgeo."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, replacement)

    def install(self):
        import groupgeo._kernel
        from groupgeo import combing

        hooks = {
            "cayley.ball": self._on_ball,
            "cayley.graph_csr": self._on_graph_csr,
        }
        for name, (modname, path) in FUNCTIONS.items():
            owner, attr = _resolve(sys.modules[modname], path)
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, on_call=hooks.get(name))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                self._replace_everywhere(fn, wrapper)

        for layer, (modname, classes) in MODEL_CLASSES.items():
            guard = [False]  # shared by the layer's methods: outermost call only
            module = sys.modules[modname]
            for cls_name in classes:
                cls = getattr(module, cls_name)
                for method in MODEL_METHODS:
                    if method in vars(cls):
                        self._set(cls, method, self._wrap(f"{layer}.{method}", vars(cls)[method], guard=guard))

        real_ops = groupgeo._kernel.ops
        kernel_hooks = {
            "all_pairs_bfs": self._on_all_pairs_bfs,
            "max_bounded_defect": self._on_max_bounded_defect,
        }
        traced_ops = types.SimpleNamespace(**{
            name: self._wrap(f"kernel.{name}", getattr(real_ops, name), on_call=kernel_hooks.get(name))
            for name in KERNEL_FUNCTIONS
        })
        self._replace_everywhere(real_ops, traced_ops)

        # combing.check_quasi_geodesic measures one distance per segment
        distance = combing.Bicombing.distance

        def counted_distance(sigma, g, h):
            self.counts["combing.check_quasi_geodesic.segments"] += 1
            return distance(sigma, g, h)

        self._set(combing.Bicombing, "distance", counted_distance)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -------------------------------------------------------------- metrics

    def metrics(self, bytes_per_element: float) -> dict[str, float]:
        values = {}
        for name in METRICS:
            base, _, kind = name.rpartition(".")
            if kind == "s":
                values[name] = self.self_s.get(base, 0.0)
            elif kind == "calls":
                values[name] = self.calls.get(base, 0)
            else:
                values[name] = self.counts.get(name, 0)
        elements = values["cayley.ball.elements"]
        values["cayley.ball.us_per_element"] = 1e6 * values["cayley.ball.s"] / elements if elements else 0.0
        values["cayley.ball.bytes_per_element"] = bytes_per_element
        return values
