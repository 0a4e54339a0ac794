"""Corpus differential: the bitset kernel against the preserved seed
solver, over the micro + securibench corpora.

Two contracts, each on every corpus program:

* **points-to** — the bitset-int kernel
  (:class:`repro.pointer.PointerAnalysis`) computes bit-for-bit the same
  points-to relation as the preserved seed solver
  (:class:`repro.pointer.SeedPointerAnalysis`);
* **per-rule flows** — the full taint pipeline (SDG, direct edges, heap
  graph, hybrid slicing) run over either solver finds the identical
  per-rule flow sets, so the representation change never reaches a
  report.

The hypothesis-driven random-program differential lives in
``test_differential.py``; this file pins the fixed corpora the
benchmarks (and the paper's evaluation) run on.  The serial sweep's
own corpus contracts live in ``test_serial_sweep.py``.
"""

import pytest

from repro.bounds import Budget
from repro.modeling import prepare
from repro.pointer import PointerAnalysis, SeedPointerAnalysis
from repro.pointer.heapgraph import HeapGraph
from repro.sdg.hsdg import DirectEdges
from repro.sdg.noheap import NoHeapSDG
from repro.taint import TaintEngine, default_rules

from .corpus import CORPUS, CORPUS_IDS, solve_with


def canonical_solution(analysis):
    return {str(key): frozenset(str(ik) for ik in pts)
            for key, pts in analysis.iter_pts() if pts}


def flows_by_rule(analysis, prepared):
    sdg = NoHeapSDG(prepared.program, analysis.call_graph)
    engine = TaintEngine(sdg, DirectEdges(sdg, analysis),
                         HeapGraph(analysis), default_rules(), Budget())
    result = engine.run()
    out = {}
    for flow in result.flows:
        out.setdefault(flow.rule, set()).add(
            (str(flow.source), str(flow.sink), flow.sink_display,
             str(flow.lcp), flow.length, flow.via_carrier))
    return out


@pytest.mark.parametrize("name,source", CORPUS, ids=CORPUS_IDS)
def test_bitset_kernel_and_flows_match_seed(name, source):
    prepared = prepare([source])
    seed = solve_with(SeedPointerAnalysis, prepared)
    optimized = solve_with(PointerAnalysis, prepared)
    assert canonical_solution(optimized) == canonical_solution(seed), name
    assert flows_by_rule(optimized, prepared) == \
        flows_by_rule(seed, prepared), name

