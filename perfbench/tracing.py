"""Per-layer tracing from outside the program.

``Tracer.install`` replaces czswap's public functions and methods with
wrappers, wherever a module binds the name (a ``from .x import y`` binding
included).  Wrapped functions record spans (name, start, end, parent) in
memory; ``RingScalar`` arithmetic, called millions of times in a sweep,
records counters with summed time instead.  Wrappers record only while
``Tracer.active`` is set, which the benchmark sets around each operation.
"""

from __future__ import annotations

import importlib
import struct
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, function) pairs recorded as spans, with their span names.  A class
# attribute is named "Class.method".
SPANS = [
    ("czswap.poly", "MultiPoly.evaluate", "poly.evaluate"),
    ("czswap.poly", "MultiPoly.differentiate", "poly.differentiate"),
    ("czswap.poly", "MultiPoly.__mul__", "poly.mul"),
    ("czswap.poly", "transvect", "poly.transvect"),
    ("czswap.states", "phi_state", "states.phi_state"),
    ("czswap.hyperdet", "ground_form", "hyperdet.ground_form"),
    ("czswap.hyperdet", "hyperdet_system_check", "hyperdet.system_check"),
    ("czswap.five_qubit", "class_of", "five_qubit.class_of"),
    ("czswap.five_qubit", "tabulated_solution_5q", "five_qubit.lookup"),
    ("czswap.four_qubit", "invariants4", "four_qubit.invariants4"),
    ("czswap.four_qubit", "quartics", "four_qubit.quartics"),
    ("czswap.four_qubit", "quartics_from_invariants", "four_qubit.quartics"),
    ("czswap.four_qubit", "covariants4", "four_qubit.covariants4"),
    ("czswap.four_qubit", "classify_phi4", "four_qubit.classify_phi4"),
    ("czswap.group", "nf_product", "group.nf_mul"),
    ("czswap.words", "GeneratorWord.evaluate", "words.evaluate"),
    ("czswap.words", "evaluate_letters", "words.evaluate"),
    ("czswap.optimize", "normalize", "optimize.normalize"),
    ("czswap.optimize", "synthesize_complete", "optimize.synthesize_complete"),
    ("czswap.optimize", "dehn_reduce", "optimize.dehn_reduce"),
    ("czswap.optimize", "heuristic_line_reduce", "optimize.heuristic_line_reduce"),
    ("czswap.optimize", "bfs_minimize", "optimize.bfs_minimize"),
    ("czswap.simulate", "signed_perm_of", "simulate.signed_perm_of"),
    ("czswap.simulate", "equivalent", "simulate.equivalent"),
    ("czswap.simulate", "circuit_unitary", "simulate.circuit_unitary"),
    ("czswap.simulate", "enumerate_group", "simulate.enumerate_group"),
    ("czswap.cli", "main", "cli.main"),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._enum_keys: set = set()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
        after = _AFTER.get(name)
        observe = _OBSERVE.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                if observe is not None:
                    observe(tracer, args, kwargs)
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer.span_start.append(perf_counter())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer.span_end[idx] = perf_counter()
                stack.pop()
                if after is not None:
                    after(tracer, idx, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every name in SPANS and the RingScalar operators."""
        for modname, attr, name in SPANS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("czswap"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        self._install_ring()

    def _install_ring(self):
        """Counters for RingScalar arithmetic.  Only the outermost operation
        is counted and timed: a division's inner products and the
        subtraction behind ``__rsub__`` belong to the division and the
        reflected subtraction, so the ring.* times do not overlap."""
        from czswap.ring import RingScalar

        c = self.counters
        tracer = self
        depth = 0
        mul, add, sub = RingScalar.__mul__, RingScalar.__add__, RingScalar.__sub__
        rsub, div, init = RingScalar.__rsub__, RingScalar.__truediv__, RingScalar.__init__

        def outermost(fn, prefix):
            calls_key, time_key = prefix + ".calls", prefix + ".time_s"

            def traced(self, other):
                nonlocal depth
                if depth or not tracer.active:
                    return fn(self, other)
                depth = 1
                t = perf_counter()
                try:
                    r = fn(self, other)
                finally:
                    c[time_key] += perf_counter() - t
                    depth = 0
                if r is not NotImplemented:
                    c[calls_key] += 1
                return r
            return traced

        def t_mul(self, other):
            nonlocal depth
            if depth or not tracer.active:
                return mul(self, other)
            depth = 1
            t = perf_counter()
            try:
                r = mul(self, other)
            finally:
                c["ring.mul.time_s"] += perf_counter() - t
                depth = 0
            if r is NotImplemented:
                return r
            c["ring.mul.calls"] += 1
            if type(other) is RingScalar:
                if self.rb or self.ib or other.rb or other.ib:
                    c["ring.mul.sqrt2_calls"] += 1
                elif self.ia or other.ia:
                    c["ring.mul.gaussian_calls"] += 1
                else:
                    c["ring.mul.rational_calls"] += 1
            elif self.rb or self.ib:
                c["ring.mul.sqrt2_calls"] += 1
            elif self.ia:
                c["ring.mul.gaussian_calls"] += 1
            else:
                c["ring.mul.rational_calls"] += 1
            return r

        def t_init(self, *args, **kwargs):
            if tracer.active:
                c["ring.new.calls"] += 1
            init(self, *args, **kwargs)

        RingScalar.__mul__ = RingScalar.__rmul__ = t_mul
        RingScalar.__add__ = RingScalar.__radd__ = outermost(add, "ring.addsub")
        RingScalar.__sub__ = outermost(sub, "ring.addsub")
        RingScalar.__rsub__ = outermost(rsub, "ring.addsub")
        RingScalar.__truediv__ = outermost(div, "ring.div")
        RingScalar.__init__ = t_init

    # -- results -------------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """Counters plus, per span name, its call count and summed self time
        (duration minus the durations of its direct children)."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = dict(self.counters)
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - child[i]
        return out

    def write_spans(self, path):
        """Binary span dump in the machine's byte order: the span count and
        the byte length of the names (int64 each), the newline-joined span
        names (UTF-8), then four arrays of one entry per span: name id and
        parent index (int32, -1 for none), start and end (float64 seconds
        of perf_counter)."""
        names = "\n".join(self.names).encode()
        with open(path, "wb") as fh:
            fh.write(struct.pack("=qq", len(self.span_name), len(names)))
            fh.write(names)
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def _after_lookup(tracer, idx, args, kwargs, result, exc):
    c = tracer.counters
    if exc is not None:
        if type(exc).__name__ == "WitnessNotFound":
            c["five_qubit.lookup.not_found"] += 1
    elif result.from_fallback:
        c["five_qubit.lookup.fallback"] += 1
    else:
        c["five_qubit.lookup.printed"] += 1


def _after_check(tracer, idx, args, kwargs, result, exc):
    if result:
        tracer.counters["hyperdet.system_check.accepted"] += 1


def _after_evaluate(tracer, idx, args, kwargs, result, exc):
    tracer.counters["poly.evaluate.term_visits"] += len(args[0].terms)


def _after_poly_mul(tracer, idx, args, kwargs, result, exc):
    f, g = args
    tracer.counters["poly.mul.coeff_products"] += len(f.terms) * len(
        g.terms if hasattr(g, "terms") else (g,)
    )


def _after_heuristic(tracer, idx, args, kwargs, result, exc):
    if result is not None:
        tracer.counters["optimize.heuristic_line_reduce.letters_removed"] += len(
            args[0]
        ) - len(result)


def _enum_key(args, kwargs):
    topology = kwargs.get("topology", args[1] if len(args) > 1 else "complete")
    return (args[0], getattr(topology, "value", topology))


def _observe_enumerate(tracer, args, kwargs):
    tracer._enum_keys.add(_enum_key(args, kwargs))


def _after_enumerate(tracer, idx, args, kwargs, result, exc):
    # the first call for a (k, topology) in a process builds the closure;
    # later calls, traced or not, hit the program's cache
    key = _enum_key(args, kwargs)
    if key not in tracer._enum_keys and exc is None:
        tracer._enum_keys.add(key)
        tracer.counters["simulate.enumerate_group.cold_s"] += (
            tracer.span_end[idx] - tracer.span_start[idx]
        )


_AFTER = {
    "five_qubit.lookup": _after_lookup,
    "hyperdet.system_check": _after_check,
    "poly.evaluate": _after_evaluate,
    "poly.mul": _after_poly_mul,
    "optimize.heuristic_line_reduce": _after_heuristic,
    "simulate.enumerate_group": _after_enumerate,
}

_OBSERVE = {"simulate.enumerate_group": _observe_enumerate}
