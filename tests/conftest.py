"""Shared fixtures.

Expensive artifacts (modeled programs, analysis results) are
session-scoped: the underlying objects are never mutated by tests.
"""

from __future__ import annotations

import gc

import pytest

from repro import TAJ, TAJConfig
from repro.bench.micro import MOTIVATING
from repro.ir import Program, validate_program
from repro.lang import lower_source
from repro.modeling import prepare
from repro.ssa import program_to_ssa

MINI_LIB = """
library class Object { }
library class Exception {
  String message;
  String getMessage() { return this.message; }
}
"""


def lower_mini(source: str) -> Program:
    """Lower source against a minimal Object/Exception library."""
    return lower_source(MINI_LIB + source)


def lower_mini_ssa(source: str) -> Program:
    program = lower_mini(source)
    program_to_ssa(program)
    validate_program(program)
    return program


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test that leaves the cyclic collector disabled: every
    analysis entry point must restore it (repro.gcpause)."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("test left the cyclic garbage collector disabled")


@pytest.fixture(scope="session")
def motivating_prepared():
    return prepare([MOTIVATING])


@pytest.fixture(scope="session")
def motivating_hybrid(motivating_prepared):
    return TAJ(TAJConfig.hybrid_unbounded()).analyze_prepared(
        motivating_prepared)


@pytest.fixture(scope="session")
def motivating_ci(motivating_prepared):
    return TAJ(TAJConfig.ci()).analyze_prepared(motivating_prepared)


@pytest.fixture(scope="session")
def motivating_cs(motivating_prepared):
    return TAJ(TAJConfig.cs()).analyze_prepared(motivating_prepared)
