"""Outside-in layer trace: timing shims around each layer's entry points.

The shims are installed from this file, at the name each caller looks
up (``repro.modeling.pipeline.parse``, ``Lowerer.add_unit``, ...), so
the program under test is unchanged.  Spans live in memory; a layer's
self time is its span's duration minus the time its direct child spans
cover.

Some modeling steps build model text of their own and run the frontend
on it: ``load_stdlib`` (the model library), entrypoint synthesis (one
generated root class per entrypoint) and the EJB pass.  Frontend calls
nested inside them are *folded* into that modeling span instead of
opening ``lang.*`` spans, so ``lang.*`` measures the application's
sources only and the modeling spans carry their whole cost, re-parses
included (counted in ``modeling.entrypoints.parse_calls``).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Layer spans whose nested frontend calls are folded into them.
FOLDING = ("modeling.stdlib", "modeling.entrypoints", "modeling.passes")


class Tracer:
    """In-memory span recorder with per-layer work counters."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1].
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self.folding = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        if name in FOLDING:
            self.folding += 1
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]!r} closed out of order")
        if span[0] in FOLDING:
            self.folding -= 1

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - child_time[index]
        return dict(out)

    def wall(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans
                   if n == name)

    def records(self) -> List[dict]:
        return [{"name": name, "start": start, "end": end,
                 "parent": parent}
                for name, start, end, parent in self.spans]


def _spanned(tracer: Tracer, layer: str, original: Callable,
             after: Optional[Callable] = None,
             foldable: bool = False) -> Callable:
    """``original`` wrapped in a ``layer`` span; ``after(args, result)``
    updates counters.  A ``foldable`` shim inside a folding span calls
    straight through."""

    def shim(*args, **kwargs):
        if foldable and tracer.folding:
            return original(*args, **kwargs)
        index = tracer.open(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(args, result)
        return result

    shim.__wrapped__ = original
    shim.__name__ = getattr(original, "__name__", layer)
    return shim


class Shims:
    """Installs the timing shims and restores every original on
    :meth:`remove` (also as a context manager)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, layer: str,
             after: Optional[Callable] = None,
             foldable: bool = False) -> None:
        original = owner.__dict__[attr]
        self._patch(owner, attr, _spanned(self.tracer, layer, original,
                                          after, foldable))

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls to ``owner.attr`` without opening a span."""
        original = owner.__dict__[attr]
        counts = self.tracer.counts

        def shim(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        shim.__wrapped__ = original
        self._patch(owner, attr, shim)

    def install(self) -> "Shims":
        from repro.confirm.oracle import ReplayOracle
        from repro.core import taj
        from repro.interp.interpreter import Interpreter
        from repro.lang import lower, parser
        from repro.lang.lower import Lowerer
        from repro.modeling import (collections_model, exceptions_model,
                                    pipeline, reflection, strings, struts)
        from repro.modeling.ejb import EJBModel
        from repro.pointer.heapgraph import HeapGraph
        from repro.pointer.solver import PointerAnalysis
        from repro.sdg.hsdg import DirectEdges
        from repro.sdg.noheap import NoHeapSDG
        from repro.slicing.cs import CSExtendedSDG
        from repro.ssa.constprop import ConstantValues
        from repro.taint.engine import TaintEngine

        counts = self.tracer.counts

        def bump(name: str, measure: Callable) -> Callable:
            def after(args, result) -> None:
                counts[name] += measure(args, result)
            return after

        # -- lang: lex, parse, lower (application sources only) ----------
        def lexed(args, result) -> None:
            counts["lang.lex.calls"] += 1
            counts["lang.lex.tokens"] += len(result)
            counts["lang.lex.chars"] += len(args[0])

        self.wrap(parser, "tokenize", "lang.lex", lexed, foldable=True)
        for module in (pipeline, lower):
            self.wrap(module, "parse", "lang.parse",
                      bump("lang.parse.calls", lambda a, r: 1),
                      foldable=True)
        self.wrap(Lowerer, "add_unit", "lang.lower",
                  bump("lang.lower.classes", lambda a, r: len(r)),
                  foldable=True)
        self.wrap(Lowerer, "lower_all", "lang.lower", foldable=True)

        # -- modeling ------------------------------------------------------
        self.wrap(pipeline, "load_stdlib", "modeling.stdlib",
                  bump("modeling.stdlib.calls", lambda a, r: 1))
        self.wrap(struts, "synthesize_entrypoints", "modeling.entrypoints",
                  bump("modeling.entrypoints.roots", lambda a, r: len(r)))
        self.count(struts, "parse", "modeling.entrypoints.parse_calls")
        for module in (exceptions_model, strings, reflection,
                       collections_model):
            self.wrap(module, "rewrite_program", "modeling.passes")
        self.wrap(EJBModel, "rewrite_program", "modeling.passes")
        self.wrap(pipeline, "validate_program", "modeling.passes")
        self.wrap(pipeline, "validate_whitelist", "modeling.passes")

        # -- ssa -------------------------------------------------------------
        self.wrap(pipeline, "to_ssa", "ssa",
                  bump("ssa.methods", lambda a, r: 1))
        self.wrap(ConstantValues, "__init__", "ssa")

        # -- pointer, sdg, taint, reporting ------------------------------
        self.wrap(PointerAnalysis, "__init__", "pointer.solve")
        self.wrap(PointerAnalysis, "solve", "pointer.solve")
        for cls in (NoHeapSDG, CSExtendedSDG, DirectEdges, HeapGraph):
            self.wrap(cls, "__init__", "sdg")
        self.wrap(TaintEngine, "__init__", "taint.run")
        self.wrap(TaintEngine, "run", "taint.run")
        self.wrap(taj, "build_report", "reporting")

        # -- confirm / interp ------------------------------------------------
        self.wrap(ReplayOracle, "confirm", "confirm")
        self.wrap(Interpreter, "run", "interp",
                  bump("interp.runs", lambda a, r: 1))
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Shims":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()
