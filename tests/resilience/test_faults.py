"""Fault-plan and injector unit tests: firing must be deterministic."""

import pytest

from repro.bounds import BudgetExhausted
from repro.lang.errors import SourceError
from repro.resilience import (SEAMS, Deadline, DeadlineExceeded, Fault,
                              FaultInjector, FaultPlan, InjectedFault,
                              ResilienceContext)


def test_fault_validation():
    with pytest.raises(ValueError):
        Fault("pointer.solve", action="explode")
    with pytest.raises(ValueError):
        Fault("pointer.solve", exception="oom")


def test_unknown_seam_is_rejected():
    """A misspelled seam would never fire; the plan is invalid."""
    with pytest.raises(ValueError, match="slicing.hybird"):
        Fault("slicing.hybird")
    for seam in SEAMS:
        Fault(seam)


def test_unknown_key_is_rejected():
    with pytest.raises(ValueError, match="exceptoin"):
        Fault.from_dict({"seam": "sdg.build", "exceptoin": "budget"})


def test_trip_deadline_needs_a_deadline():
    plan = FaultPlan.of(Fault("pointer.solve", action="trip-deadline"))
    with pytest.raises(ValueError, match="trip-deadline"):
        ResilienceContext(faults=plan)
    ResilienceContext(deadline=Deadline(3600.0), faults=plan)


def test_plan_round_trips_through_dicts():
    plan = FaultPlan.of(
        Fault("tabulation.step", at=3, exception="budget"),
        Fault("frontend.source", action="corrupt", message="junk"))
    clone = FaultPlan.from_dicts(plan.to_dicts())
    assert clone.to_dicts() == plan.to_dicts()
    assert bool(plan) and not bool(FaultPlan())


def test_injector_fires_on_exact_tick_only():
    plan = FaultPlan.of(Fault("pointer.solve", at=2))
    injector = FaultInjector(plan)
    injector.visit("pointer.solve")           # tick 0
    injector.visit("pointer.solve")           # tick 1
    with pytest.raises(InjectedFault):
        injector.visit("pointer.solve")       # tick 2: fires
    injector.visit("pointer.solve")           # tick 3: spent
    assert len(injector.fired) == 1


def test_injector_ticks_are_per_seam():
    plan = FaultPlan.of(Fault("slicing.cs", at=1))
    injector = FaultInjector(plan)
    injector.visit("slicing.cs")
    injector.visit("slicing.hybrid")          # other seams don't advance
    injector.visit("tabulation.step")
    with pytest.raises(InjectedFault):
        injector.visit("slicing.cs")


def test_exception_kinds():
    assert isinstance(Fault("ci.step", exception="budget").build_exception(),
                      BudgetExhausted)
    assert isinstance(Fault("ci.step", exception="deadline").build_exception(),
                      DeadlineExceeded)
    assert isinstance(Fault("ci.step", exception="source").build_exception(),
                      SourceError)
    assert isinstance(Fault("ci.step").build_exception(), InjectedFault)


def test_corrupt_replaces_payload():
    plan = FaultPlan.of(Fault("frontend.source", action="corrupt",
                              message="not jlang"))
    injector = FaultInjector(plan)
    assert injector.visit("frontend.source",
                          payload="class A {}") == "not jlang"


def test_trip_deadline_action():
    plan = FaultPlan.of(Fault("tabulation.step",
                              action="trip-deadline"))
    injector = FaultInjector(plan)
    deadline = Deadline(3600.0)
    injector.visit("tabulation.step", deadline)
    assert deadline.expired(), "scripted trip expires the deadline"


def test_same_plan_replays_identically():
    plan = FaultPlan.of(Fault("ci.step", at=5))
    for _ in range(3):
        injector = FaultInjector(plan)
        for tick in range(5):
            injector.visit("ci.step")
        with pytest.raises(InjectedFault):
            injector.visit("ci.step")
