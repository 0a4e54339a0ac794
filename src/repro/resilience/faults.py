"""Deterministic fault injection at the pipeline's phase seams.

Every cooperative check point in the pipeline is a named *seam*:

========================  ====================================================
seam                      fired
========================  ====================================================
``frontend.source``       once per application source unit (supports
                          ``corrupt``: the source text is replaced)
``modeling.pass``         once per model pass in :func:`repro.modeling.prepare`
``pointer.solve``         once per call-graph node the solver processes
``sdg.build``             once, before dependence-graph construction
``tabulation.step``       once per tabulation worklist pop (hybrid / CS)
``ci.step``               once per CI-slicer BFS pop
``slicing.hybrid``        once per rule attempted with the hybrid strategy
``slicing.cs``            once per rule attempted with the CS strategy
``slicing.ci``            once per rule attempted with the CI strategy
``reporting.build``       once, before §5 report construction
``confirm.replay``        once, before dynamic confirmation
========================  ====================================================

A :class:`FaultPlan` scripts faults against those seams: *"raise
BudgetExhausted on the 2nd rule sliced"*, *"trip the deadline at
tabulation step 40"*, *"corrupt source unit 0"*.  Firing is purely
counter-driven — the Nth visit to a seam fires the fault — so a plan
replays identically on every run, which is what lets the test suite and
the CI job (``benchmarks/fault_injection.py``) prove that every seam
failure yields a :class:`~repro.core.results.TAJResult` with
diagnostics instead of an unhandled traceback.

Plans serialize to/from plain dicts (the *fault-plan format* of
``docs/robustness.md``) so CI jobs can keep them as JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..bounds import BudgetExhausted
from ..lang.errors import SourceError
from .deadline import Deadline, DeadlineExceeded

SEAMS = ("frontend.source", "modeling.pass", "pointer.solve", "sdg.build",
         "tabulation.step", "ci.step", "slicing.hybrid", "slicing.cs",
         "slicing.ci", "reporting.build", "confirm.replay")
ACTIONS = ("raise", "trip-deadline", "corrupt")
EXCEPTIONS = ("fault", "budget", "deadline", "source")

_CORRUPTION = "class { this is not jlang @@"


class InjectedFault(RuntimeError):
    """The generic scripted failure (``exception: "fault"``)."""


@dataclass
class Fault:
    """One scripted fault.

    ``at`` counts seam visits from 0: the fault fires on the visit whose
    ordinal equals ``at``.  ``action`` is ``raise`` (throw
    ``exception``), ``trip-deadline`` (force the run's deadline to
    expire, so the *next* deadline check raises), or ``corrupt``
    (replace the seam's payload — only meaningful for
    ``frontend.source``).
    """

    seam: str
    at: int = 0
    action: str = "raise"
    exception: str = "fault"
    message: str = ""

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.exception not in EXCEPTIONS:
            raise ValueError(f"unknown fault exception {self.exception!r}")
        if self.seam not in SEAMS:
            raise ValueError(f"unknown fault seam {self.seam!r}")

    def to_dict(self) -> Dict[str, object]:
        return {"seam": self.seam, "at": self.at, "action": self.action,
                "exception": self.exception, "message": self.message}

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "Fault":
        unknown = set(data) - {"seam", "at", "action", "exception",
                               "message"}
        if unknown:
            raise ValueError(f"unknown fault keys {sorted(unknown)}")
        return Fault(seam=str(data["seam"]), at=int(data.get("at", 0)),
                     action=str(data.get("action", "raise")),
                     exception=str(data.get("exception", "fault")),
                     message=str(data.get("message", "")))

    def build_exception(self) -> BaseException:
        message = self.message or f"injected fault at {self.seam}#{self.at}"
        if self.exception == "budget":
            return BudgetExhausted(f"injected:{self.seam}", 0)
        if self.exception == "deadline":
            return DeadlineExceeded(self.seam, 0.0, 0.0)
        if self.exception == "source":
            return SourceError(message)
        return InjectedFault(message)


@dataclass
class FaultPlan:
    """An ordered collection of scripted faults."""

    faults: List[Fault] = field(default_factory=list)

    @staticmethod
    def of(*faults: Fault) -> "FaultPlan":
        return FaultPlan(list(faults))

    @staticmethod
    def from_dicts(rows: Iterable[Dict[str, object]]) -> "FaultPlan":
        return FaultPlan([Fault.from_dict(row) for row in rows])

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        return FaultPlan.from_dicts(json.loads(text))

    def to_dicts(self) -> List[Dict[str, object]]:
        return [fault.to_dict() for fault in self.faults]

    def __bool__(self) -> bool:
        return bool(self.faults)

    def check_deadline(self, armed: bool) -> None:
        """Reject the plan if it holds a ``trip-deadline`` fault but no
        deadline is ``armed``: that fault could never fire."""
        if not armed and any(f.action == "trip-deadline"
                             for f in self.faults):
            raise ValueError("a trip-deadline fault needs a deadline "
                             "(--deadline / deadline_seconds)")


class FaultInjector:
    """Counts seam visits and fires the plan's faults deterministically.

    One injector instance belongs to one analysis run (counters are
    run-local state); build a fresh one per run from the shared plan.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self._by_seam: Dict[str, List[Fault]] = {}
        for fault in plan.faults:
            self._by_seam.setdefault(fault.seam, []).append(fault)
        self._ticks: Dict[str, int] = {}
        self.fired: List[Fault] = []

    def visit(self, seam: str, deadline: Optional[Deadline] = None,
              payload: Optional[str] = None) -> Optional[str]:
        """Count one visit to ``seam`` and fire any scheduled fault.

        Returns the (possibly corrupted) payload; raises for ``raise``
        faults; trips ``deadline`` for ``trip-deadline`` faults.
        """
        faults = self._by_seam.get(seam)
        if faults is None:
            return payload
        tick = self._ticks.get(seam, 0)
        self._ticks[seam] = tick + 1
        for fault in faults:
            if fault.at != tick:
                continue
            self.fired.append(fault)
            if fault.action == "corrupt":
                payload = fault.message or _CORRUPTION
            elif fault.action == "trip-deadline":
                if deadline is not None:
                    deadline.trip()
            else:
                raise fault.build_exception()
        return payload
