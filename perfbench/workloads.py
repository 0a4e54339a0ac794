"""The benchmark's workloads: seeded inputs and the ground-truth gate.

Every input is generated from the workload seed; the analyzer sees only
the generated sources.  A workload is a stream of *units*; a unit is a
list of :class:`Job` s (one ``analyze_sources`` call each) that the
runner times one by one.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import random
import re
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro import TAJ, TAJConfig
from repro.bench.generator import GeneratedApp, generate_app, scaling_corpus
from repro.bench.oracle import Score, score_run
from repro.bench.suite import CS_COMPLETES, suite_specs
from repro.core.results import TAJResult

CONFIGS: Dict[str, Callable[[], TAJConfig]] = {
    "hybrid-unbounded": TAJConfig.hybrid_unbounded,
    "cs": TAJConfig.cs,
    "ci": TAJConfig.ci,
}


def derive(seed: int, *parts) -> int:
    """A 31-bit seed derived from the workload seed and ``parts``
    (stable across processes, unlike ``hash``)."""
    text = repr((seed,) + parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


def source_lines(sources: List[str]) -> int:
    return sum(len(s.splitlines()) for s in sources)


# -- ground-truth gate --------------------------------------------------------


@dataclass
class Expectation:
    """What one analysis must produce, derived from the planted specs."""

    completeness: str = "complete"
    # Kinds of true-positive plants this configuration may miss.
    may_miss: Set[str] = field(default_factory=set)
    # Every true positive may be missed (an expected budget failure).
    may_miss_all: bool = False


def expectation(app: GeneratedApp, config: str) -> Expectation:
    """The paper's expected outcome: CS exhausts its memory budget on
    every Table-2 app outside ``CS_COMPLETES`` and misses cross-thread
    flows (``tp_thread``) on the apps it completes; every other
    configuration here is complete and reports every planted TP."""
    if config != "cs":
        return Expectation()
    if app.spec.name in CS_COMPLETES:
        return Expectation(may_miss={"tp_thread"})
    return Expectation(completeness="failed", may_miss_all=True)


def check(app: GeneratedApp, config: str, result: TAJResult) -> Tuple[
        Score, Optional[str]]:
    """Score ``result`` with ``score_run``; the error, if any, names why
    the analysis disagrees with the expected outcome."""
    score = score_run(app, result)
    expect = expectation(app, config)
    if result.completeness != expect.completeness:
        return score, (f"{app.spec.name}/{config}: completeness "
                       f"{result.completeness!r}, expected "
                       f"{expect.completeness!r}")
    if not expect.may_miss_all:
        unexpected = [p for p in score.missed
                      if p.kind not in expect.may_miss]
        if unexpected:
            plant = unexpected[0]
            return score, (f"{app.spec.name}/{config}: missed "
                           f"{len(unexpected)} planted flow(s), e.g. "
                           f"{plant.kind} {plant.rule} in "
                           f"{plant.sink_method}")
    return score, None


# -- jobs and workloads ----------------------------------------------------------


@dataclass
class Job:
    """One ``analyze_sources`` call and how to gate it."""

    app: GeneratedApp
    config: str
    taj: TAJ
    sources: List[str]
    # Extra gate: the (tp, fp, fn) this job must score, when known.
    score_must_be: Optional[Tuple[int, int, int]] = None

    def run(self) -> Tuple[float, TAJResult]:
        start = time.perf_counter()
        result = self.taj.analyze_sources(self.sources,
                                          self.app.deployment_descriptor)
        return time.perf_counter() - start, result

    def gate(self, result: TAJResult) -> Tuple[Score, Optional[str]]:
        score, error = check(self.app, self.config, result)
        got = (score.tp, score.fp, score.fn)
        if error is None and self.score_must_be is not None \
                and got != self.score_must_be:
            error = (f"{self.app.spec.name}/{self.config}: score "
                     f"(tp, fp, fn) {got}, expected {self.score_must_be}")
        return score, error


class Workload:
    """A seeded stream of units.  ``fresh`` builds the state a run
    starts from; ``units`` yields the timed loop's units, in order."""

    name = ""
    # The configurations the workload runs, by gate name.
    configs: Dict[str, Callable[[], TAJConfig]] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def fresh(self) -> object:
        return None

    def units(self, state: object) -> Iterator[List[Job]]:
        raise NotImplementedError

    def warm_up(self, state: object) -> None:
        """One untimed analysis per configuration, of a small app of its
        own: lazy set-up finishes, and no timed input is analyzed before
        it is timed."""
        app = scaling_corpus(1, seed=derive(self.seed, self.name,
                                            "warm-up"))
        for make in self.configs.values():
            TAJ(make()).analyze_sources(app.sources)

    def hygiene(self, state: object) -> None:
        """Set-up assertions about the inputs (untimed)."""


class WebApp(Workload):
    """``scaling_corpus(30)`` under hybrid-unbounded, a fresh generator
    seed each iteration."""

    name = "webapp-x30"
    scale = 30
    configs = {"hybrid-unbounded": TAJConfig.hybrid_unbounded}

    def units(self, state: object) -> Iterator[List[Job]]:
        (config, make), = self.configs.items()
        iteration = 0
        while True:
            app = scaling_corpus(self.scale,
                                 seed=derive(self.seed, self.name,
                                             iteration))
            yield [Job(app, config, TAJ(make()), app.sources)]
            iteration += 1


class Confirm(WebApp):
    """``scaling_corpus(10)`` under hybrid-unbounded with the replay
    oracle on."""

    name = "confirm-x10"
    scale = 10
    configs = {"hybrid-unbounded":
               lambda: TAJConfig.hybrid_unbounded().with_confirm()}


class Table2(Workload):
    """The 22 Table-2 apps under hybrid-unbounded, cs and ci.  One unit
    is one round of all 66 analyses in a seeded shuffled order, so host
    speed drifts spread over every app and configuration; each analysis
    gets its own generator seed, so no two analyze the same source."""

    name = "table2-suite"
    configs = CONFIGS

    def units(self, state: object) -> Iterator[List[Job]]:
        specs = suite_specs()
        iteration = 0
        while True:
            pairs = [(config, name) for config in self.configs
                     for name in sorted(specs)]
            random.Random(derive(self.seed, self.name, iteration)).shuffle(
                pairs)
            jobs = []
            for config, name in pairs:
                spec = replace(specs[name],
                               seed=derive(self.seed, self.name, iteration,
                                           name, config))
                app = generate_app(spec)
                jobs.append(Job(app, config, TAJ(self.configs[config]()),
                                app.sources))
            yield jobs
            iteration += 1


# -- rescan: per-class units and in-place edits ------------------------------


def split_classes(source: str) -> List[str]:
    """Split jlang text into one unit per top-level class.

    Each unit keeps the text before its class (separating newlines), so
    ``"".join(split_classes(s)) == s``.  String literals and comments
    are skipped when matching braces.
    """
    units: List[str] = []
    depth = 0
    start = 0
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == '"':
            i += 1
            while i < n and source[i] != '"':
                i += 2 if source[i] == "\\" else 1
        elif source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end < 0 else end
            continue
        elif source.startswith("/*", i):
            end = source.find("*/", i + 2)
            i = n if end < 0 else end + 2
            continue
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                units.append(source[start:i + 1])
                start = i + 1
        i += 1
    tail = source[start:]
    if tail.strip() or depth != 0 or not units:
        raise ValueError("source does not end after a complete class")
    units[-1] += tail
    return units


# A servlet's banner literal: ``render0("page<N>")`` in ``doGet``.
_BANNER = re.compile(r'(render0\(")(page\d+)[^"]*(")')


def edit_literal(unit: str, tag: str) -> str:
    """``unit`` with its banner literal re-tagged: the IR changes (a new
    string constant), the ground truth does not."""
    edited, count = _BANNER.subn(rf"\g<1>\g<2>.{tag}\g<3>", unit, count=1)
    if count != 1:
        raise ValueError("unit has no banner literal to edit")
    return edited


@dataclass
class RescanState:
    app: GeneratedApp
    units: List[str]
    editable: List[int]
    taj: TAJ
    baseline: Tuple[int, int, int] = (0, 0, 0)


class Rescan(Workload):
    """One TAJ instance re-analyzes a scale-10 app given as one source
    unit per class; each iteration edits one servlet's banner literal,
    rotating through the servlets."""

    name = "rescan-x10"
    scale = 10

    def fresh(self) -> RescanState:
        app = scaling_corpus(self.scale, seed=derive(self.seed, self.name))
        units = split_classes("\n".join(app.sources))
        editable = [i for i, unit in enumerate(units)
                    if _BANNER.search(unit)]
        state = RescanState(app, units, editable,
                            TAJ(TAJConfig.hybrid_unbounded()))
        # The cold analysis of the unedited app, through the instance
        # every later iteration reuses; its score is the baseline each
        # edit must keep.
        _, result = Job(app, "hybrid-unbounded", state.taj,
                        list(units)).run()
        score, error = check(app, "hybrid-unbounded", result)
        if error is not None:
            raise AssertionError(f"cold analysis: {error}")
        state.baseline = (score.tp, score.fp, score.fn)
        return state

    def warm_up(self, state: RescanState) -> None:
        """The cold analysis in :meth:`fresh` is the warm-up."""

    def units(self, state: RescanState) -> Iterator[List[Job]]:
        first = derive(self.seed, self.name, "first") % len(state.editable)
        iteration = 0
        while True:
            index = state.editable[(first + iteration) % len(state.editable)]
            tag = f"r{derive(self.seed, self.name, iteration)}"
            state.units[index] = edit_literal(state.units[index], tag)
            yield [Job(state.app, "hybrid-unbounded", state.taj,
                       list(state.units), score_must_be=state.baseline)]
            iteration += 1

    def hygiene(self, state: RescanState) -> None:
        joined = "\n".join(state.app.sources)
        if "".join(state.units) != joined:
            raise AssertionError("per-class split does not round-trip")
        config = TAJConfig.hybrid_unbounded()
        whole = TAJ(config).analyze_sources(state.app.sources)
        split = TAJ(config).analyze_sources(list(state.units))
        if flow_keys(whole) != flow_keys(split):
            raise AssertionError("per-class split changes the flows")
        edited = list(state.units)
        index = state.editable[0]
        edited[index] = edit_literal(edited[index], "hygiene")
        if edited[index] == state.units[index]:
            raise AssertionError("edit leaves the unit unchanged")
        score = score_run(state.app, TAJ(config).analyze_sources(edited))
        if (score.tp, score.fp, score.fn) != state.baseline:
            raise AssertionError("an edit changes the score")


def flow_keys(result: TAJResult) -> List[tuple]:
    return [flow.sort_key() for flow in result.flows]


WORKLOADS = {cls.name: cls for cls in (WebApp, Table2, Rescan, Confirm)}
