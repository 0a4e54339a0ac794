"""Oracle scoring tests."""

from repro.bench import AppSpec, Score, aggregate, generate_app, score_run
from repro.core.results import TAJResult
from repro.reporting import Report
from repro.reporting.report import Issue


def make_issue(rule, sink_method_qname):
    return Issue(rule=rule, remediation="r",
                 source="X.src/0@1", sink=f"{sink_method_qname}@9",
                 lcp=f"{sink_method_qname}@9",
                 sink_method="PrintWriter.println", source_line=1,
                 sink_line=2, via_carrier=False, flow_length=3,
                 grouped_flows=1)


def make_result(issues, failed=False, config="test"):
    report = Report(issues=issues, raw_flow_count=len(issues))
    result = TAJResult(config_name=config, report=report,
                       completeness="failed" if failed else "complete")
    return result


def simple_app():
    return generate_app(AppSpec(
        name="o", seed=1, tp_direct=1, tp_string=0, tp_map=0, tp_heap=0,
        tp_helper=0, tp_carrier=0, tp_sql=0, tp_leak=0, sanitized=1,
        trap_context=0, trap_factory=0, trap_xentry=0, trap_logger=0,
        cold_classes=0, lib_classes=0))


def test_matched_tp_counts():
    app = simple_app()
    tp = next(p for p in app.planted if p.is_true_positive)
    result = make_result([make_issue(tp.rule, tp.sink_method)])
    score = score_run(app, result)
    assert score.tp == 1 and score.fp == 0 and score.fn == 0


def test_report_on_sanitized_flow_is_fp():
    app = simple_app()
    san = next(p for p in app.planted if p.kind == "san")
    result = make_result([make_issue(san.rule, san.sink_method)])
    score = score_run(app, result)
    assert score.fp == 1
    assert score.false_kinds == {"san": 1}


def test_unmatched_report_is_fp():
    app = simple_app()
    result = make_result([make_issue("XSS", "Nowhere.doGet/2")])
    score = score_run(app, result)
    assert score.fp == 1
    assert score.false_kinds == {"unplanted": 1}


def test_missing_tp_is_fn():
    app = simple_app()
    score = score_run(app, make_result([]))
    assert score.fn == 1
    assert score.missed


def test_failed_run_counts_all_tp_as_fn():
    app = simple_app()
    score = score_run(app, make_result([], failed=True))
    assert score.failed
    assert score.fn == 1
    assert score.tp == 0


def test_accuracy_score():
    score = Score(app="a", config="c", tp=3, fp=1)
    assert score.accuracy == 0.75
    assert Score(app="a", config="c").accuracy == 0.0


def test_aggregate_excludes_failures():
    scores = [Score(app="a", config="c", tp=2, fp=2, seconds=1.0),
              Score(app="b", config="c", failed=True, fn=5)]
    agg = aggregate(scores)
    assert agg["tp"] == 2 and agg["fp"] == 2
    assert agg["failures"] == 1
    assert agg["accuracy"] == 0.5
    assert agg["mean_seconds"] == 1.0
