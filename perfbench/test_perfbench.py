"""Self-tests of the benchmark's own code.

Run from the repository root with ``python3 perfbench/test_perfbench.py``
(or ``python3 -m pytest perfbench``).  They check that the layer shims
restore every original, that metric names are well formed and match
``BENCHMARK.json``, that the per-class splitter round-trips, that the
ground-truth gate expects the paper's CS outcomes, and that the
reference work is fixed and imports nothing from the program.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
from layertrace import Shims, Tracer  # noqa: E402
from workloads import (WORKLOADS, derive, edit_literal,  # noqa: E402
                       expectation, split_classes)

from repro import TAJ, TAJConfig  # noqa: E402
from repro.bench.generator import scaling_corpus  # noqa: E402
from repro.bench.suite import (CS_COMPLETES, generate_suite,  # noqa: E402
                               suite_specs)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SERVLET = """
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    String banner = "{ not a brace }";
    resp.getWriter().println(req.getParameter("p"));
  }
}"""


def test_shims_restore_originals() -> None:
    shims = Shims(Tracer()).install()
    saved = list(shims._saved)
    assert saved, "no shims installed"
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is not original, (owner, attr)
    shims.remove()
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_shims_restore_after_an_exception() -> None:
    from repro.modeling import pipeline
    original = pipeline.__dict__["parse"]
    try:
        with Shims(Tracer()):
            assert pipeline.__dict__["parse"] is not original
            raise KeyError("boom")
    except KeyError:
        pass
    assert pipeline.__dict__["parse"] is original


def test_traced_analysis_attributes_layers() -> None:
    tracer = Tracer()
    untraced = TAJ(TAJConfig.hybrid_unbounded()).analyze_sources([SERVLET])
    with Shims(tracer):
        index = tracer.open("analyze")
        result = TAJ(TAJConfig.hybrid_unbounded()).analyze_sources(
            [SERVLET])
        tracer.close(index)
    assert [f.sort_key() for f in result.flows] == \
        [f.sort_key() for f in untraced.flows]
    self_times = tracer.self_times()
    for layer in ("lang.lex", "lang.parse", "lang.lower",
                  "modeling.stdlib", "modeling.entrypoints", "ssa",
                  "pointer.solve", "sdg", "taint.run", "reporting"):
        assert layer in self_times, layer
    assert abs(sum(self_times.values()) - tracer.wall("analyze")) < 1e-6
    # The application source is lexed once; the stdlib and the
    # generated entrypoint roots are folded into their modeling spans.
    assert tracer.counts["lang.lex.calls"] == 1
    assert tracer.counts["lang.lex.chars"] == len(SERVLET)
    assert tracer.counts["modeling.entrypoints.parse_calls"] >= 1


def test_metric_names_are_well_formed_and_declared() -> None:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(end_to_end + per_layer)) == len(end_to_end + per_layer)
    emitted = ([f"{layer}.s" for layer in run.PER_LAYER_TIMES] +
               list(run.PER_LAYER_COUNTS) +
               ["confirm.conclusive_share", "trace.overhead_s",
                "analyze.unattributed_s"])
    assert sorted(per_layer) == sorted(emitted)
    assert sorted(end_to_end) == sorted(
        ["analyze_rel.p50", "peak_rss_mb", "recall", "precision", "setup_s"])
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_splitter_round_trips() -> None:
    sources = ["\n".join(scaling_corpus(2).sources), SERVLET,
               "\n".join(generate_suite(["A"])["A"].sources)]
    for source in sources:
        units = split_classes(source)
        assert "".join(units) == source
        for unit in units:
            assert len(re.findall(r"^\s*(library )?class ", unit,
                                  re.MULTILINE)) == 1, unit[:80]


def test_splitter_rejects_trailing_text() -> None:
    for bad in ("class A { ", "class A {} class B {", "class A {} x"):
        try:
            split_classes(bad)
        except ValueError:
            continue
        raise AssertionError(f"accepted {bad!r}")


def test_edit_changes_only_the_banner_literal() -> None:
    units = split_classes("\n".join(scaling_corpus(1).sources))
    servlet = next(u for u in units if 'render0("page' in u)
    edited = edit_literal(servlet, "r7")
    assert edited != servlet
    assert edited.replace(".r7", "", 1) == servlet
    again = edit_literal(edited, "r8")
    assert ".r7" not in again and again.replace(".r8", "", 1) == servlet


def test_seeds_are_derived_and_stable() -> None:
    assert derive(1, "webapp-x30", "loop", 0) == \
        derive(1, "webapp-x30", "loop", 0)
    assert derive(1, "webapp-x30", "loop", 0) != \
        derive(2, "webapp-x30", "loop", 0)
    assert derive(1, "webapp-x30", "loop", 0) != \
        derive(1, "webapp-x30", "warm-up", 0)


def test_expectations_follow_the_paper_cs_outcomes() -> None:
    specs = suite_specs()
    apps = generate_suite(sorted(specs))
    assert len([n for n in specs if n not in CS_COMPLETES]) == 16
    for name, app in apps.items():
        cs = expectation(app, "cs")
        if name in CS_COMPLETES:
            assert cs.completeness == "complete"
            assert cs.may_miss == {"tp_thread"}
        else:
            assert cs.completeness == "failed" and cs.may_miss_all
        for config in ("hybrid-unbounded", "ci"):
            plain = expectation(app, config)
            assert plain.completeness == "complete"
            assert not plain.may_miss and not plain.may_miss_all


def test_reference_work_is_fixed_and_program_free() -> None:
    expected = reference.ROUNDS * reference.STEPS_PER_ROUND
    assert reference.reference_work() == expected
    assert reference.reference_work() == expected
    assert reference.time_reference() > 0
    text = (HERE / "reference.py").read_text(encoding="utf-8")
    assert "repro" not in text and "workloads" not in text


if __name__ == "__main__":
    failures = 0
    for test_name, test in sorted(globals().items()):
        if test_name.startswith("test_") and callable(test):
            try:
                test()
                print(f"ok   {test_name}")
            except Exception as exc:  # report every failing test
                failures += 1
                print(f"FAIL {test_name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)
