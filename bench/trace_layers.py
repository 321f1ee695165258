"""Outside-in layer tracing: spans around su11pct's public entry points.

Nothing inside ``src/`` is changed.  ``Tracer.install`` replaces module and
class attributes of su11pct with wrappers that record one span per call
(name, parent span, start, end); ``uninstall`` puts the originals back.
Calls made inside the package go through the same attributes, so nested
calls become child spans.  Counts (Sturm sweeps, quadrature levels, points,
degree x points) are taken by the wrappers at the same boundaries.

Two functions are wrapped as counters only, without spans: the private
``oracle._count_below`` (one Sturm sweep over the tridiagonal matrix) and
``measures.quadrature_rule`` (one quadrature level of an inner product).
Results of ``DiffOperator2.apply`` and ``pct.map_state`` are functions
evaluated later; their evaluations get spans named after the producer.

A layer's self time is its spans' duration minus the time covered by
their child spans.  Metrics are reported per operation of the workload.
"""

import statistics
import time
from array import array

import numpy as np

from su11pct import algebra, cli, measures, operators, oracle, pct, specfun, systems

ORDER_BUCKET = {0: "o0", 1: "o2", 2: "o2", 3: "o4", 4: "o4"}

# (metric, unit); every one is printed for every workload, 0 where unused
METRICS = [
    ("oracle.lowest_eigenvalues.self_s", "s/op"),
    ("oracle.sturm_sweeps", "count/op"),
    ("oracle.sturm_rows", "count/op"),
    ("oracle.discretize.self_s", "s/op"),
    ("oracle.discretize.nodes", "count/op"),
    ("oracle.default_grid.self_s", "s/op"),
    ("measures.inner_product.calls", "count/op"),
    ("measures.inner_product.self_s", "s/op"),
    ("measures.quadrature_levels", "count/op"),
    ("measures.quadrature_nodes", "count/op"),
    ("measures.products_per_level", "ratio"),
    *[
        (f"systems.derivs.{what}.{bucket}", unit)
        for what, unit in (("calls", "count/op"), ("points", "count/op"), ("self_s", "s/op"))
        for bucket in ("o0", "o2", "o4")
    ],
    ("systems.bound_state.calls", "count/op"),
    ("systems.bound_state.self_s", "s/op"),
    ("specfun.calls", "count/op"),
    ("specfun.self_s", "s/op"),
    ("specfun.degree_points", "count/op"),
    ("operators.composed.calls", "count/op"),
    ("operators.composed.self_s", "s/op"),
    ("algebra.apply_generator.calls", "count/op"),
    ("algebra.apply_generator.self_s", "s/op"),
    ("algebra.casimir_apply.self_s", "s/op"),
    ("algebra.commutator_residuals.self_s", "s/op"),
    ("algebra.matrix_element_numeric.self_s", "s/op"),
    ("pct.map_state.self_s", "s/op"),
    ("cli.build_report.self_s", "s/op"),
    ("trace.overhead", "%"),
]


class Tracer:
    """Span store plus the attribute patches that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = [-1]
        self._patches = self._build_patches()

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, nid):
        i = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn):
        """fn wrapped so that every call records one span named `name`."""
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return wrapper

    def _build_patches(self):
        t = self
        patches = []

        def add(owner, attr, make):
            patches.append((owner, attr, getattr(owner, attr), make))

        add(cli, "build_report", lambda f: t.span("cli.build_report", f))
        for attr in ("default_grid", "lowest_eigenvalues"):
            add(oracle, attr, lambda f, a=attr: t.span(f"oracle.{a}", f))

        def discretize(f):
            traced = t.span("oracle.discretize", f)

            def wrapper(spec, member_n, grid):
                t._count("oracle.discretize.nodes", grid.count)
                return traced(spec, member_n, grid)

            return wrapper

        add(oracle, "discretize", discretize)

        def count_below(f):
            def wrapper(diag, off2, x):
                t._count("oracle.sturm_sweeps", 1)
                t._count("oracle.sturm_rows", len(diag))
                return f(diag, off2, x)

            return wrapper

        add(oracle, "_count_below", count_below)
        add(measures, "inner_product", lambda f: t.span("measures.inner_product", f))

        def quadrature_rule(f):
            def wrapper(measure, level):
                rule = f(measure, level)
                t._count("measures.quadrature_levels", 1)
                t._count("measures.quadrature_nodes", rule.nodes.size)
                return rule

            return wrapper

        add(measures, "quadrature_rule", quadrature_rule)
        add(systems, "bound_state", lambda f: t.span("systems.bound_state", f))

        def derivs(f):
            nids = {b: t._name_id(f"systems.derivs.{b}") for b in ("o0", "o2", "o4")}

            def wrapper(self, point, order=2):
                bucket = ORDER_BUCKET.get(order, "o4")
                t._count(f"systems.derivs.points.{bucket}", np.size(point))
                i = t._open(nids[bucket])
                try:
                    return f(self, point, order)
                finally:
                    t._close(i)

            return wrapper

        add(systems.BoundState, "derivs", derivs)

        def poly(where):
            # `where`: position of the argument array in the call
            def make(f):
                traced = t.span("specfun", f)

                def wrapper(*args):
                    t._count("specfun.degree_points", args[0] * np.size(args[where]))
                    return traced(*args)

                return wrapper

            return make

        for attr, where in (
            ("laguerre", 2),
            ("jacobi", 3),
            ("laguerre_derivs", 2),
            ("jacobi_derivs", 3),
        ):
            add(specfun, attr, poly(where))

        def traced_result(name):
            def make(f):
                traced = t.span(name, f)

                def wrapper(*args, **kwargs):
                    out = traced(*args, **kwargs)
                    out._derivs_fn = t.span(name, out._derivs_fn)
                    return out

                return wrapper

            return make

        add(operators.DiffOperator2, "apply", traced_result("operators.composed"))
        add(pct, "map_state", traced_result("pct.map_state"))
        add(algebra, "apply_generator_fn", lambda f: t.span("algebra.apply_generator", f))
        for attr in ("casimir_apply", "commutator_residuals", "matrix_element_numeric"):
            add(algebra, attr, lambda f, a=attr: t.span(f"algebra.{a}", f))
        return [(owner, attr, orig, make(orig)) for owner, attr, orig, make in patches]

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def metrics(self, ops, pass_times):
        """The per-layer metrics, per operation, plus the tracing overhead."""
        names = np.frombuffer(self.name, dtype=np.int64)
        self_s = self.self_times()
        calls = np.bincount(names, minlength=len(self.names))
        busy = np.bincount(names, weights=self_s, minlength=len(self.names))
        total = {}
        for i, name in enumerate(self.names):
            if name.startswith("systems.derivs."):  # metric names put the bucket last
                bucket = name.rsplit(".", 1)[1]
                total[f"systems.derivs.calls.{bucket}"] = calls[i]
                total[f"systems.derivs.self_s.{bucket}"] = busy[i]
            else:
                total[f"{name}.calls"] = calls[i]
                total[f"{name}.self_s"] = busy[i]
        total.update(self.counts)
        out = {}
        for metric, unit in METRICS:
            if metric == "measures.products_per_level":
                levels = total.get("measures.quadrature_levels", 0)
                value = total.get("measures.inner_product.calls", 0) / levels if levels else 0.0
            elif metric == "trace.overhead":
                value = 100.0 * statistics.median(tr / un - 1.0 for un, tr in pass_times)
            else:
                value = float(total.get(metric, 0)) / ops
            out[metric] = {"value": float(value), "unit": unit}
        return out

    def save(self, path):
        """Write the spans (name, parent, start, end) as a compressed .npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
