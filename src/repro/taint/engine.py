"""The taint engine: runs every security rule through a slicing strategy.

Resilience (``repro.resilience``): the engine records what its sweep
covered on the run's :class:`~repro.resilience.ResilienceContext` (a
private inert one when none is given).  A slice cut by the
heap-transition bound records ``truncate-slice``, a carrier search cut
by the nested-depth bound ``truncate-carriers``.  When the context is
armed, each rule is sliced behind a cooperative seam check
(``slicing.<strategy>``), and a :class:`~repro.bounds.BudgetExhausted`
or :class:`~repro.resilience.DeadlineExceeded` raised mid-sweep walks
the degradation ladder (cs → hybrid → ci) instead of discarding the
run: flows from completed rules are kept, the tripped rule is re-sliced
with the cheaper strategy, and each step is recorded as a
:class:`~repro.resilience.Degradation`.  With the ladder disabled a
budget trip is the paper's CS out-of-memory failure: the context marks
the run failed — but flows from rules that completed are still
reported, never wiped.

The sweep is serial and rule-ordered; its flows leave in
:func:`~repro.taint.flows.canonical_flows` order, the form everything
downstream (grouping, JSON, the differential harness) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bounds import Budget, BudgetExhausted, StateMeter
from ..obs import DISABLED
from ..pointer.heapgraph import HeapGraph
from ..resilience import (DeadlineExceeded, ResilienceContext,
                          next_strategy, trigger_of)
from ..sdg.hsdg import DirectEdges
from ..sdg.noheap import NoHeapSDG
from ..slicing import CISlicer, CSSlicer, HybridSlicer, Slicer
from ..slicing.base import enumerate_sources
from .flows import TaintFlow, canonical_flows
from .rules import RuleSet


@dataclass
class TaintResult:
    """Flows found by one engine run (all rules).

    Timing note: the engine keeps no clock of its own — the taint
    phase's duration is the ``phase.taint`` tracer span (surfaced as
    ``TAJResult.times.taint``), the single timing source.
    """

    flows: List[TaintFlow] = field(default_factory=list)
    suppressed_by_length: int = 0
    state_units: int = 0              # abstract memory consumed (CS)
    # Rules whose slice ran to completion (under whichever strategy was
    # current at the time); rules missing from this list were cut short.
    completed_rules: List[str] = field(default_factory=list)
    # Strategy in effect when the sweep ended (after any fallbacks).
    final_strategy: Optional[str] = None


def make_slicer(strategy: str, sdg: NoHeapSDG, direct: DirectEdges,
                heap_graph: HeapGraph, budget: Budget,
                meter: Optional[StateMeter] = None,
                resilience: Optional[object] = None,
                carrier_cache: Optional[Dict] = None) -> Slicer:
    if strategy == "hybrid":
        return HybridSlicer(sdg, direct, heap_graph, budget, meter=meter,
                            resilience=resilience,
                            carrier_cache=carrier_cache)
    if strategy == "cs":
        return CSSlicer(sdg, direct, heap_graph, budget, meter=meter,
                        resilience=resilience,
                        carrier_cache=carrier_cache)
    if strategy == "ci":
        return CISlicer(sdg, direct, heap_graph, budget,
                        resilience=resilience,
                        carrier_cache=carrier_cache)
    raise ValueError(f"unknown slicing strategy {strategy!r}")


class TaintEngine:
    """Applies a rule set with one slicing strategy over one SDG."""

    def __init__(self, sdg: NoHeapSDG, direct: DirectEdges,
                 heap_graph: HeapGraph, rules: RuleSet, budget: Budget,
                 strategy: str = "hybrid", obs: Optional[object] = None,
                 resilience: Optional[object] = None) -> None:
        self.sdg = sdg
        self.direct = direct
        self.heap_graph = heap_graph
        self.rules = rules
        self.budget = budget
        self.strategy = strategy
        self.obs = DISABLED if obs is None else obs
        # The run's coverage record; the seams (the per-rule check and
        # the slicers' hot loops) see it only when something is armed.
        self.resilience = ResilienceContext() if resilience is None \
            else resilience
        self.armed = self.resilience if self.resilience.active else None
        # Rule-name → CarrierIndex, shared across every slicer this
        # engine creates: the index is a whole-SDG scan, fixed per
        # (rule, nested-depth bound), so a ladder fallback reuses it.
        self._carrier_cache: Dict = {}

    # -- strategy construction -----------------------------------------------

    def _make(self, strategy: str,
              meter: Optional[StateMeter]) -> Slicer:
        slicer = make_slicer(strategy, self.sdg, self.direct,
                             self.heap_graph, self.budget, meter,
                             resilience=self.armed,
                             carrier_cache=self._carrier_cache)
        modref = getattr(self.sdg, "modref", None)
        if strategy == "cs" and meter is not None and modref is not None:
            # CS thin slicing threads heap dependencies as additional
            # method parameters; each synthetic parameter costs state
            # up front — the paper's scalability bottleneck.
            meter.charge(sum(len(v) for v in modref.values()))
        return slicer

    def _recover(self, strategy: str,
                 exc: Exception) -> Tuple[str, Optional[Slicer]]:
        """One step of the degradation ladder, or abort the sweep.

        Returns ``(strategy, slicer)``; a ``None`` slicer means the
        sweep stops — flows collected so far are kept.
        """
        res = self.resilience
        fallback = next_strategy(strategy) if res.ladder else None
        res.degrade("taint", trigger_of(exc), fallback or "abort", str(exc))
        if fallback is None:
            if not isinstance(exc, DeadlineExceeded):
                # The paper's CS OOM: a budget trip with no rung left.
                # A deadline abort is a *partial* result, not a failure.
                res.fail("taint", exc)
            return strategy, None
        if strategy == "cs" and hasattr(self.sdg, "disable_channels"):
            # Fallback slicers see a plain no-heap SDG: heap channels
            # (and their per-call threading) are a CS-only construct.
            self.sdg.disable_channels()
        # Fresh slicer, no meter: the fallback must not inherit the
        # exhausted state budget or it would trip again instantly.
        return fallback, self._make(fallback, None)

    # -- the sweep -----------------------------------------------------------

    def run(self) -> TaintResult:
        rules = list(self.rules)
        obs = self.obs
        tracer = obs.tracer
        audit = obs.audit
        res = self.resilience
        armed = self.armed
        degradations_before = len(res.degradations)
        result = TaintResult()
        strategy = self.strategy
        meter = StateMeter(self.budget.max_state_units)
        truncated = False
        try:
            slicer: Optional[Slicer] = self._make(strategy, meter)
        except (BudgetExhausted, DeadlineExceeded) as exc:
            # CS's upfront channel charge can exhaust the budget before
            # the first rule runs.
            strategy, slicer = self._recover(strategy, exc)
        progress = getattr(obs, "progress", None)
        index = 0
        while slicer is not None and index < len(rules):
            rule = rules[index]
            if progress is not None:
                progress.update(rule=rule.name,
                                rules=f"{index + 1}/{len(rules)}")
            try:
                if armed is not None:
                    armed.check(f"slicing.{strategy}", phase="taint")
                with tracer.span("taint.rule", rule=rule.name,
                                 strategy=strategy) as span:
                    flows = slicer.slice_rule(rule)
                    span.set(flows=len(flows))
            except (BudgetExhausted, DeadlineExceeded) as exc:
                truncated = truncated or slicer.truncated
                result.suppressed_by_length += slicer.suppressed_by_length
                strategy, slicer = self._recover(strategy, exc)
                continue  # retry the same rule on the fallback rung
            except Exception as exc:
                if armed is None:
                    raise
                # Quarantine the rule: record a diagnostic, keep going.
                res.diagnostics.absorb("taint", exc, rule=rule.name)
                index += 1
                continue
            obs.metrics.record_time("taint.rule_seconds", span.duration)
            obs.metrics.record_value("taint.rule_flows", len(flows))
            if audit.enabled:
                # The witness chain starts at the rule's enumerated
                # source seeds; each surviving flow records what was
                # consulted on its way into the report.
                seeds = len(enumerate_sources(self.sdg, rule))
                audit.record_rule(rule, seeds, len(flows))
                for flow in flows:
                    audit.record_flow(flow, rule, seeds)
            result.flows.extend(flows)
            result.completed_rules.append(rule.name)
            index += 1
        if slicer is not None:
            truncated = truncated or slicer.truncated
            result.suppressed_by_length += slicer.suppressed_by_length
        # The §6.2.1 and §6.2.3 bounds cut coverage; the §6.2.2
        # flow-length bound only filters flows already found.
        if truncated:
            res.degrade("taint", "budget", "truncate-slice",
                        f"max_heap_transitions="
                        f"{self.budget.max_heap_transitions}")
        if any(carriers.truncated
               for carriers in self._carrier_cache.values()):
            res.degrade("taint", "budget", "truncate-carriers",
                        f"max_nested_depth={self.budget.max_nested_depth}")
        result.state_units = meter.used
        result.final_strategy = strategy
        result.flows = canonical_flows(result.flows)
        if progress is not None:
            progress.update(flows=len(result.flows))
            progress.clear("rule", "rules")
        metrics = obs.metrics
        metrics.inc("taint.rules_consulted", len(rules))
        metrics.inc("taint.flows", len(result.flows))
        metrics.inc("taint.suppressed_by_length",
                    result.suppressed_by_length)
        metrics.gauge("taint.state_units", result.state_units)
        degraded = len(res.degradations) - degradations_before
        if degraded:
            metrics.inc("taint.degradations", degraded)
        if res.failed_phase == "taint":
            metrics.inc("taint.budget_failures")
        return result
