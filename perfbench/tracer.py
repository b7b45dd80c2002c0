"""Span tracer for the traced benchmark run.

`Tracer.install` replaces chosen public functions of the eqball package by
timing wrappers, in every module namespace that holds them, so that calls
made inside the library are recorded as well as calls made by the
benchmark.  Each span records its name, start, end, parent span and the id
of the pair or job it belongs to.  Spans stay in memory, in flat arrays,
until `save` writes them out.  Untraced runs never construct a Tracer.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name).  The span name is `<module>.<function>`;
# the two certify entry points get the short names the metrics use.
TARGETS = (
    ("certify", "generate_equality_certificate", "certify.generate"),
    ("certify", "check_certificate", "certify.check"),
    ("certify", "certificate_to_json", "certify.certificate_to_json"),
    ("certify", "certificate_from_json", "certify.certificate_from_json"),
    ("certify", "theorem_step_relation", "certify.theorem_step_relation"),
    ("certify", "constant_lemma_relation", "certify.constant_lemma_relation"),
    ("gamma", "gamma1_link", "gamma.gamma1_link"),
    ("gamma", "gamma", "gamma.gamma"),
    ("geometry", "section2d", "geometry.section2d"),
    ("geometry", "orthonormal_complement", "geometry.orthonormal_complement"),
    ("weights", "circuit_geometry", "weights.circuit_geometry"),
    ("weights", "falsify", "weights.falsify"),
    ("weights", "sphere_basis_set", "weights.sphere_basis_set"),
    ("enlarge", "enlarge_to_maximal", "enlarge.enlarge_to_maximal"),
    ("simplex", "cap_extension", "simplex.cap_extension"),
    ("simplex", "canonical_simplex", "simplex.canonical_simplex"),
    ("simplex", "sample_maximal_set", "simplex.sample_maximal_set"),
)
# Evaluators returned by expr.compile_weight_expression are closures, not
# module attributes; the benchmark wraps each one under this name.
EVAL_SPAN = "expr.eval"
SPAN_NAMES = tuple(name for _, _, name in TARGETS) + (EVAL_SPAN,)


class Tracer:
    def __init__(self):
        self.names: list[str] = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def wrap(self, span_name: str, fn):
        nid = self._ids[span_name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        return traced

    def install(self, package) -> None:
        """Wrap every target wherever a module of `package` binds it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for module_name, attr, span_name in TARGETS:
            original = getattr(sys.modules[f"{package.__name__}.{module_name}"], attr)
            self.originals[span_name] = original
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _columns(self):
        return (np.array(self.name, dtype=np.int32), np.array(self.start), np.array(self.end),
                np.array(self.parent, dtype=np.int32), np.array(self.op, dtype=np.int32))

    def per_span(self) -> dict[str, tuple[int, float]]:
        """Call count and summed self time in seconds for every span name.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        name, start, end, parent, _ = self._columns()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child[:dur.size]
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        return {nm: (int(calls[i]), float(self_s[i])) for i, nm in enumerate(self.names)}

    def top_level_seconds(self, span_name: str) -> dict[int, float]:
        """Duration of the named spans that have no parent, keyed by op id."""
        name, start, end, parent, ops = self._columns()
        mask = (name == self._ids[span_name]) & (parent < 0)
        return {int(op): float(d) for op, d in zip(ops[mask], (end - start)[mask])}

    def save(self, path) -> None:
        name, start, end, parent, ops = self._columns()
        origin = float(start.min()) if start.size else 0.0
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start - origin,
                            end=end - origin, parent=parent, op=ops)
