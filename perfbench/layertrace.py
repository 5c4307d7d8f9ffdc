"""Outside-in layer trace of spnil, installed from the benchmark's own files.

install() rebinds the public functions and methods of each layer module to
wrappers that open a span on entry and close it on exit.  A span has a name,
a start, an end and a parent (the span open when it started).  Spans are
folded into per-name totals as they close, because a traced census opens
about 10^5 of them: calls, inclusive time (outermost span of a name only, so
recursion is not counted twice) and self time (duration minus the part its
child spans cover).  Scalar arithmetic in `field` gets counters only, since a
span per scalar operation would cost more than the operation.

A name imported with `from .x import f` is rebound in every spnil module that
holds it, not only where it is defined, so `varieties.coords_of` is traced
like `splie.coords_of`.  Nothing inside the package is edited.
"""

import functools
import inspect
import sys
import time
from importlib import import_module

LAYERS = ("field", "poly", "linalg", "splie", "weylosc", "orbits", "varieties", "cherednik", "cli")

# Operator methods count as public: they are how callers reach the layer.
OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__matmul__", "__neg__", "__pow__", "__truediv__",
})

DENSE = ("linalg.dense_rank", "linalg.solve", "linalg.nullspace", "linalg.inverse")

ALL = ("census", "tangent", "symbolic")

# Per-layer metric -> (unit, better, end-to-end metrics it should move, workloads
# on which it should move them).  A metric mapped to a workload must read
# nonzero there (perfbench/selftest.py checks it).
METRICS = {
    "field.mul": ("count", "lower", ("wall_s",), ALL),
    "field.add": ("count", "lower", ("wall_s",), ALL),
    "field.inverse": ("count", "lower", ("wall_s",), ALL),
    "field.irrational_share": ("ratio", "lower", ("wall_s",), ("tangent", "symbolic")),
    "splie.matmul.calls": ("count", "lower", ("wall_s",), ALL),
    "splie.matmul.products": ("count", "lower", ("wall_s",), ALL),
    "splie.matmul.s": ("s", "lower", ("wall_s",), ALL),
    "splie.matmul.zero_share": ("ratio", "lower", ("wall_s",), ALL),
    "splie.coords_of.calls": ("count", "lower", ("wall_s",), ALL),
    "splie.coords_of.s": ("s", "lower", ("wall_s",), ALL),
    "splie.centralizer_dim.s": ("s", "lower", ("wall_s",), ("census",)),
    "splie.dual_basis.s": ("s", "lower", ("wall_s",), ALL),
    "splie.self_s": ("s", "lower", ("wall_s",), ALL),
    "orbits.sl2_complete.s": ("s", "lower", ("wall_s",), ("census", "tangent")),
    "orbits.nilpotent_rep.s": ("s", "lower", ("wall_s",), ("census", "tangent")),
    "orbits.self_s": ("s", "lower", ("wall_s",), ("census", "tangent", "symbolic")),
    "linalg.dense.calls": ("count", "lower", ("wall_s",), ALL),
    "linalg.dense.cells": ("count", "lower", ("wall_s",), ALL),
    "linalg.dense.s": ("s", "lower", ("wall_s",), ("tangent",)),
    "linalg.sparse.rows": ("count", "lower", ("wall_s",), ("symbolic",)),
    "linalg.sparse.s": ("s", "lower", ("wall_s",), ("symbolic",)),
    "linalg.self_s": ("s", "lower", ("wall_s",), ALL),
    "poly.eval.calls": ("count", "lower", ("wall_s",), ("tangent",)),
    "poly.eval.s": ("s", "lower", ("wall_s",), ("tangent",)),
    "poly.mul.calls": ("count", "lower", ("wall_s",), ("symbolic",)),
    "poly.mul.s": ("s", "lower", ("wall_s",), ("symbolic",)),
    "poly.subst.s": ("s", "lower", ("wall_s",), ("symbolic",)),
    "poly.self_s": ("s", "lower", ("wall_s",), ("tangent", "symbolic")),
    "weylosc.theta1.s": ("s", "lower", ("wall_s",), ("symbolic",)),
    "weylosc.theta0.s": ("s", "lower", ("wall_s",), ("symbolic",)),
    "weylosc.weyl_mul.calls": ("count", "lower", ("wall_s",), ("symbolic",)),
    "weylosc.weyl_mul.s": ("s", "lower", ("wall_s",), ("symbolic",)),
    "weylosc.field_commutator.s": ("s", "lower", ("wall_s",), ("symbolic",)),
    "weylosc.self_s": ("s", "lower", ("wall_s",), ("symbolic",)),
    "varieties.sample_point.s": ("s", "lower", ("wall_s",), ("tangent",)),
    "varieties.lagrangian_check.s": ("s", "lower", ("wall_s",), ("tangent",)),
    "varieties.stratum_check.s": ("s", "lower", ("wall_s",), ("tangent",)),
    "varieties.ideal_generators.s": ("s", "lower", ("wall_s",), ("symbolic",)),
    "varieties.self_s": ("s", "lower", ("wall_s",), ("tangent", "symbolic")),
    "cherednik.dunkl_apply.calls": ("count", "lower", ("wall_s",), ("symbolic",)),
    "cherednik.dunkl_apply.s": ("s", "lower", ("wall_s",), ("symbolic",)),
    "cherednik.hc_relation.s": ("s", "lower", ("wall_s",), ("symbolic",)),
    "cherednik.self_s": ("s", "lower", ("wall_s",), ("symbolic",)),
    "cli.self_s": ("s", "lower", ("wall_s",), ALL),
    "trace.overhead_s": ("s", "lower", (), ()),
}

# lru_cache tables found on the layer modules when the benchmark was defined,
# read through cache_info().  One a later change removes reads 0, so the
# metric set stays fixed; one it adds needs a line here to be reported.
CACHES = (
    ("splie.sp_basis", ("census", "tangent", "symbolic")),
    ("splie.dual_basis", ("census", "tangent")),
    ("varieties._nil_system", ("tangent",)),
    ("weylosc._datum", ("symbolic",)),
    ("cherednik._datum", ("symbolic",)),
)
for _name, _workloads in CACHES:
    METRICS[f"cache.{_name}.hits"] = ("count", "higher", ("wall_s", "peak_rss_mb"), _workloads)
    METRICS[f"cache.{_name}.misses"] = ("count", "lower", ("wall_s", "peak_rss_mb"), _workloads)

# Span names summed into one timed metric (inclusive seconds) or call count.
TIMED = {
    "splie.matmul": ("splie.MatF.__matmul__",),
    "splie.coords_of": ("splie.coords_of",),
    "splie.centralizer_dim": ("splie.centralizer_dim",),
    "splie.dual_basis": ("splie.dual_basis",),
    "orbits.sl2_complete": ("orbits.sl2_complete",),
    "orbits.nilpotent_rep": ("orbits.nilpotent_rep",),
    "linalg.dense": DENSE,
    "linalg.sparse": ("linalg.sparse_rank",),
    "poly.eval": ("poly.MultiPoly.eval",),
    "poly.mul": ("poly.MultiPoly.__mul__",),
    "poly.subst": ("poly.MultiPoly.subst",),
    "weylosc.theta1": ("weylosc.theta1",),
    "weylosc.theta0": ("weylosc.theta0",),
    "weylosc.weyl_mul": ("weylosc.WeylElement.__mul__",),
    "weylosc.field_commutator": ("weylosc.LinearVectorField.commutator",),
    "varieties.sample_point": ("varieties.sample_xnil_point",),
    "varieties.lagrangian_check": ("varieties.lagrangian_check",),
    "varieties.stratum_check": ("varieties.stratum_tangent_check",),
    "varieties.ideal_generators": ("varieties.ideal_generators",),
    "cherednik.dunkl_apply": ("cherednik.dunkl_apply",),
    "cherednik.hc_relation": ("cherednik.check_hc_relation",),
}


class Tracer:
    """Span totals and work counters of one traced process."""

    def __init__(self):
        self.spans = {}  # name -> [calls, inclusive s, self s, open depth]
        self.counts = dict.fromkeys(
            ("field.mul", "field.mul_irrational", "field.add", "field.inverse",
             "splie.matmul.products", "splie.matmul.zero_products",
             "linalg.dense.cells", "linalg.sparse.rows"), 0)
        self.cache_totals = {}  # table name -> (hits, misses) summed over clears
        self._stack = []

    def span(self, name, fn, work=None):
        """Wrap fn so that each call records a span called name."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                work(*args)
            stat[3] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stat[0] += 1
                stat[2] += dur - stack.pop()
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += dur
                if stack:
                    stack[-1] += dur

        return traced

    def install(self):
        """Trace every layer module of the imported spnil package."""
        modules = {layer: import_module(f"spnil.{layer}") for layer in LAYERS}
        holders = [m for name, m in sys.modules.items()
                   if name == "spnil" or name.startswith("spnil.")]
        self._count_field(modules["field"].FieldScalar)
        rebind = {}
        for layer in LAYERS[1:]:
            mod = modules[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{name}", obj)
                elif callable(obj) and not inspect.isgeneratorfunction(obj):
                    rebind[id(obj)] = self.span(f"{layer}.{name}", obj, self._work(f"{layer}.{name}"))
        for mod in holders:
            for name, obj in list(vars(mod).items()):
                if id(obj) in rebind:
                    setattr(mod, name, rebind[id(obj)])

    def _wrap_class(self, prefix, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.span(name, raw.__func__)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, attr, self.span(name, raw, self._work(name)))

    def _work(self, name):
        counts = self.counts
        if name == "splie.MatF.__matmul__":
            def work(a, b):
                size = a.size
                # a_ik * b_kj has no zero factor for each nonzero a_ik in column
                # k of a and each nonzero b_kj in row k of b
                useful = sum(
                    sum(1 for row in a.entries if row[k]) * sum(1 for v in b.entries[k] if v)
                    for k in range(size))
                counts["splie.matmul.products"] += size ** 3
                counts["splie.matmul.zero_products"] += size ** 3 - useful
            return work
        if name in DENSE:
            def work(mat, *rest):
                if mat:
                    counts["linalg.dense.cells"] += len(mat) * len(mat[0])
            return work
        if name == "linalg.sparse_rank":
            def work(rows, *rest):
                counts["linalg.sparse.rows"] += len(rows)
            return work
        return None

    def _count_field(self, scalar):
        counts = self.counts

        def counted(key, fn, irrational=False):
            if irrational:
                def op(a, b):
                    counts[key] += 1
                    if a.bn or (b.__class__ is scalar and b.bn):
                        counts["field.mul_irrational"] += 1
                    return fn(a, b)
            else:
                def op(*args):
                    counts[key] += 1
                    return fn(*args)
            return functools.wraps(fn)(op)

        # __rsub__ and __truediv__ reach the counted operators through them.
        for attr, key in (("__add__", "field.add"), ("__radd__", "field.add"),
                          ("__sub__", "field.add"), ("inverse", "field.inverse")):
            setattr(scalar, attr, counted(key, vars(scalar)[attr]))
        for attr in ("__mul__", "__rmul__"):
            setattr(scalar, attr, counted("field.mul", vars(scalar)[attr], irrational=True))

    def metrics(self):
        """Per-layer numbers of one traced pass, without trace.overhead_s."""
        spans, counts = self.spans, self.counts
        out = {
            "field.mul": counts["field.mul"],
            "field.add": counts["field.add"],
            "field.inverse": counts["field.inverse"],
            "field.irrational_share": _ratio(counts["field.mul_irrational"], counts["field.mul"]),
            "splie.matmul.products": counts["splie.matmul.products"],
            "splie.matmul.zero_share": _ratio(counts["splie.matmul.zero_products"],
                                              counts["splie.matmul.products"]),
            "linalg.dense.cells": counts["linalg.dense.cells"],
            "linalg.sparse.rows": counts["linalg.sparse.rows"],
        }
        for metric, names in TIMED.items():
            stats = [spans[n] for n in names if n in spans]
            calls_key, time_key = f"{metric}.calls", f"{metric}.s"
            if calls_key in METRICS:
                out[calls_key] = sum(s[0] for s in stats)
            if time_key in METRICS:
                out[time_key] = sum(s[1] for s in stats)
        for layer in LAYERS[1:]:
            out[f"{layer}.self_s"] = sum(
                s[2] for n, s in spans.items() if n.startswith(layer + "."))
        for name, _ in CACHES:
            out[f"cache.{name}.hits"], out[f"cache.{name}.misses"] = (
                self.cache_totals.get(name, (0, 0)))
        return out


def lru_tables():
    """The lru_cache tables defined on the layer modules, keyed layer.name.

    Call before Tracer.install(), which rebinds their names to wrappers.
    """
    tables = {}
    for layer in LAYERS:
        mod = import_module(f"spnil.{layer}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__:
                tables[f"{layer}.{name}"] = obj
    return tables


def clear_tables(tables, totals=None):
    """Empty every table, first adding its hits and misses to totals if given."""
    for name, table in tables.items():
        if totals is not None:
            info = table.cache_info()
            hits, misses = totals.get(name, (0, 0))
            totals[name] = (hits + info.hits, misses + info.misses)
        table.cache_clear()


def _ratio(part, whole):
    return part / whole if whole else 0.0
