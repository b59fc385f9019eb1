"""Spans around qcalc's public functions, installed from outside.

``Tracer.install`` wraps every function named in a layer module's
``__all__`` and rebinds the wrapper wherever a qcalc module binds the
original, so calls are caught where the caller looks the name up (verify's
own ``primal_qint_riemann``, funcexpr's ``q_exp``, ...). ``compile`` and
``builtin`` additionally return functions whose ``eval``/``derivative``/
``domain`` are wrapped, so that what qdiff and qquad call on a
``RealFunction`` shows up as funcexpr spans.

A span is (name, start, end, parent), kept in compact arrays in memory
until the run ends. A span's self time is its duration minus the durations
of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import operator
import time
from array import array
from collections import defaultdict

LAYERS = ("qcore", "funcexpr", "qdiff", "qquad", "qgeom", "verify", "cli")
_RF_PARTS = ("eval", "derivative", "domain")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.name)

    def wrap(self, label, fn):
        nid = self._ids.setdefault(label, len(self._ids))
        if nid == len(self.names):
            self.names.append(label)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the public functions of every qcalc layer in place."""
        import qcalc
        from qcalc import funcexpr

        mods = {layer: importlib.import_module(f"qcalc.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for fname in mod.__all__:
                obj = getattr(mod, fname)
                if not inspect.isfunction(obj):
                    continue
                fn = obj
                if mod is funcexpr and fname in ("compile", "builtin"):
                    fn = self._instrumenting(obj, funcexpr.RealFunction)
                wrappers[id(obj)] = self.wrap(f"{layer}.{fname}", fn)
        for mod in (qcalc, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and inspect.isfunction(val):
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])

    def _instrumenting(self, factory, real_function):
        def make(*args, **kwargs):
            f = factory(*args, **kwargs)
            parts = {p: getattr(f, p) for p in _RF_PARTS}
            wrapped = {p: (self.wrap(f"funcexpr.{p}", fn) if fn is not None else None)
                       for p, fn in parts.items()}
            return real_function(label=f.label, **wrapped)

        return make

    def uninstall(self):
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def summary(self, lo=0, hi=None):
        """Per-name aggregates over spans [lo, hi): count, total and self
        time in ns, and the count of direct children per (parent, child)."""
        hi = len(self) if hi is None else hi
        names, parents = self.name[lo:hi], self.parent[lo:hi]
        dur = array("q", map(operator.sub, self.end[lo:hi], self.start[lo:hi]))
        child = array("q", bytes(8 * len(dur)))
        for k, p in enumerate(parents):
            if p >= lo:
                child[p - lo] += dur[k]
        count = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        edges = defaultdict(int)
        label = self.names
        for k, (nid, p) in enumerate(zip(names, parents)):
            n = label[nid]
            count[n] += 1
            total[n] += dur[k]
            self_ns[n] += dur[k] - child[k]
            if p >= lo:
                edges[(label[names[p - lo]], n)] += 1
        return Summary(count, total, self_ns, edges, hi - lo)


class Summary:
    def __init__(self, count, total, self_ns, edges, spans):
        self.count, self.total, self.self_ns, self.edges = count, total, self_ns, edges
        self.spans = spans

    def calls(self, *names):
        return sum(self.count[n] for n in names)

    def mean_ns(self, *names):
        n = self.calls(*names)
        return sum(self.total[x] for x in names) / n if n else 0.0

    def layer(self, prefix):
        """Self time of all spans of one layer."""
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix + "."))

    def layer_calls(self, prefix):
        return sum(v for k, v in self.count.items() if k.startswith(prefix + "."))

    def children(self, parents, child):
        return sum(self.edges[(p, child)] for p in parents)
