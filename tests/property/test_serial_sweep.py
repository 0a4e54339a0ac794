"""Corpus contracts of the serial taint sweep, over the micro +
securibench corpora.

Six contracts, each on every corpus program:

* **rule isolation** — slicing one rule alone finds exactly that rule's
  flows from the full sweep, so nothing one rule leaves behind (the
  engine's shared carrier cache, a slicer's memo tables) reaches the
  next;
* **order and reuse** — a reversed rule set, and a second ``run()`` of
  the same engine, return the identical canonical flow list;
* **precision order** — with no budget, every (rule, source, sink) pair
  CS thin slicing reports is also reported by hybrid, and every hybrid
  pair by CI (the strategies' precision order, CS ⊑ hybrid ⊑ CI);
* **ladder rung** — a CS sweep whose state budget trips at once, with
  the ladder on, ends on hybrid with exactly hybrid's flows;
* **facade** — two ``TAJ`` analyses of one program give identical
  issue lists and SARIF logs, and the SARIF log holds one result per
  issue under a successful, complete invocation;
* **one verdict** — under every preset, a run is ``complete`` exactly
  when it recorded no degradation and no diagnostic, and ``failed``
  exactly when its completeness says so.
"""

import json

import pytest

from repro import TAJ, TAJConfig
from repro.bounds import Budget
from repro.modeling import prepare
from repro.pointer import PointerAnalysis
from repro.pointer.heapgraph import HeapGraph
from repro.reporting import render_sarif
from repro.resilience import COMPLETE, FAILED, ResilienceContext
from repro.sdg.hsdg import DirectEdges
from repro.sdg.noheap import NoHeapSDG
from repro.slicing.cs import CSExtendedSDG
from repro.taint import TaintEngine, default_rules
from repro.taint.rules import RuleSet

from .corpus import CORPUS, CORPUS_IDS, solve_with


def solved(source):
    prepared = prepare([source])
    return prepared, solve_with(PointerAnalysis, prepared)


def engine(prepared, analysis, rules=None, strategy="hybrid",
           budget=None, resilience=None):
    if strategy == "cs":
        sdg = CSExtendedSDG(prepared.program, analysis.call_graph, analysis)
    else:
        sdg = NoHeapSDG(prepared.program, analysis.call_graph)
    return TaintEngine(sdg, DirectEdges(sdg, analysis), HeapGraph(analysis),
                       default_rules() if rules is None else rules,
                       Budget() if budget is None else budget,
                       strategy=strategy, resilience=resilience)


def keys(flows):
    return [flow.sort_key() for flow in flows]


def pairs(flows):
    return {(flow.rule, str(flow.source), str(flow.sink)) for flow in flows}


@pytest.mark.parametrize("name,source", CORPUS, ids=CORPUS_IDS)
def test_each_rule_alone_matches_the_full_sweep(name, source):
    prepared, analysis = solved(source)
    full = engine(prepared, analysis).run()
    for rule in default_rules():
        alone = engine(prepared, analysis, rules=RuleSet([rule])).run()
        assert keys(alone.flows) == \
            [f.sort_key() for f in full.flows if f.rule == rule.name], \
            (name, rule.name)
        assert alone.completed_rules == [rule.name], name


@pytest.mark.parametrize("name,source", CORPUS, ids=CORPUS_IDS)
def test_rule_order_and_rerun_do_not_change_the_flows(name, source):
    prepared, analysis = solved(source)
    forward = engine(prepared, analysis)
    first = forward.run()
    again = forward.run()
    rules = list(default_rules())
    reverse = engine(prepared, analysis, rules=RuleSet(rules[::-1])).run()
    assert keys(again.flows) == keys(first.flows), name
    assert keys(reverse.flows) == keys(first.flows), name
    assert again.completed_rules == first.completed_rules, name
    assert reverse.completed_rules == [r.name for r in rules[::-1]], name


@pytest.mark.parametrize("name,source", CORPUS, ids=CORPUS_IDS)
def test_cs_hybrid_ci_refine_each_other(name, source):
    prepared, analysis = solved(source)
    engines = [engine(prepared, analysis, strategy=strategy)
               for strategy in ("cs", "hybrid", "ci")]
    cs, hybrid, ci = [each.run() for each in engines]
    assert [each.resilience.completeness() for each in engines] == \
        [COMPLETE] * 3, name
    assert pairs(cs.flows) <= pairs(hybrid.flows), name
    assert pairs(hybrid.flows) <= pairs(ci.flows), name


@pytest.mark.parametrize("name,source", CORPUS, ids=CORPUS_IDS)
def test_tripped_cs_falls_back_to_exactly_the_hybrid_flows(name, source):
    prepared, analysis = solved(source)
    hybrid = engine(prepared, analysis).run()
    res = ResilienceContext(ladder=True)
    laddered = engine(prepared, analysis, strategy="cs",
                      budget=Budget(max_state_units=1),
                      resilience=res).run()
    assert laddered.final_strategy == "hybrid", name
    assert res.failed_phase is None, name
    assert [d.fallback for d in res.degradations] == ["hybrid"], name
    assert keys(laddered.flows) == keys(hybrid.flows), name
    assert laddered.completed_rules == hybrid.completed_rules, name


@pytest.mark.parametrize("name,source", CORPUS, ids=CORPUS_IDS)
def test_facade_reports_repeat_and_sarif_mirrors_them(name, source):
    taj = TAJ(TAJConfig.hybrid_unbounded())
    first = taj.analyze_sources([source])
    second = taj.analyze_sources([source])
    assert first.completeness == second.completeness == COMPLETE, name
    assert first.report.to_dicts() == second.report.to_dicts(), name
    logs = [render_sarif(run.report, taj.rules,
                         completeness=run.completeness)
            for run in (first, second)]
    assert logs[0] == logs[1], name
    sarif = json.loads(logs[0])["runs"][0]
    assert len(sarif["results"]) == first.report.count(), name
    assert [r["ruleId"] for r in sarif["results"]] == \
        [issue.rule for issue in first.report.issues], name
    invocation = sarif["invocations"][0]
    assert invocation["executionSuccessful"] is True, name
    assert invocation["properties"]["completeness"] == COMPLETE, name


PRESETS = [TAJConfig.hybrid_unbounded, TAJConfig.hybrid_optimized,
           TAJConfig.hybrid_prioritized, TAJConfig.cs, TAJConfig.ci]


@pytest.mark.parametrize("name,source", CORPUS, ids=CORPUS_IDS)
def test_one_verdict_under_every_preset(name, source):
    for preset in PRESETS:
        result = TAJ(preset()).analyze_sources([source])
        recorded = bool(result.degradations or result.diagnostics)
        assert (result.completeness == COMPLETE) is not recorded, \
            (name, result.config_name)
        assert result.failed is (result.completeness == FAILED), \
            (name, result.config_name)
