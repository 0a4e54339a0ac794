"""SARIF export tests."""

import json

from repro import TAJ, TAJConfig, default_rules
from repro.reporting import render_sarif, to_sarif

APP = """
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("p"));
  }
}
"""


def make_report():
    return TAJ(TAJConfig.hybrid_unbounded()).analyze_sources([APP]).report


def test_sarif_structure():
    log = to_sarif(make_report(), default_rules(), completeness="complete")
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-taj"
    assert len(run["results"]) == 1


def test_sarif_result_fields():
    log = to_sarif(make_report(), default_rules(), completeness="complete")
    result = log["runs"][0]["results"][0]
    assert result["ruleId"] == "XSS"
    assert result["level"] == "error"
    assert "PrintWriter.println" in result["message"]["text"]
    related = result["relatedLocations"]
    labels = [loc["message"]["text"] for loc in related]
    assert any("source" in label for label in labels)
    assert any("LCP" in label for label in labels)


def test_sarif_rules_include_defaults():
    log = to_sarif(make_report(), default_rules(), completeness="complete")
    ids = {r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]}
    assert {"XSS", "SQLI", "MALICIOUS_FILE", "INFO_LEAK"} <= ids


def test_render_sarif_is_valid_json():
    text = render_sarif(make_report(), default_rules(),
                        completeness="complete")
    payload = json.loads(text)
    assert payload["runs"][0]["results"]


def test_empty_report():
    from repro.reporting import Report
    log = to_sarif(Report(), completeness="complete")
    assert log["runs"][0]["results"] == []


def test_invocation_states_completeness():
    complete = to_sarif(make_report(), completeness="complete")
    invocation = complete["runs"][0]["invocations"][0]
    assert invocation["executionSuccessful"] is True
    assert invocation["properties"]["completeness"] == "complete"
    partial = to_sarif(make_report(), completeness="partial-budget")
    invocation = partial["runs"][0]["invocations"][0]
    assert invocation["executionSuccessful"] is False
    assert invocation["properties"]["completeness"] == "partial-budget"
    assert len(partial["runs"][0]["results"]) == 1


def test_missing_report_has_no_results():
    log = to_sarif(None, default_rules(), completeness="partial-deadline")
    run = log["runs"][0]
    assert run["results"] == []
    assert run["invocations"][0]["executionSuccessful"] is False


def test_cli_sarif_flag(tmp_path, capsys):
    from repro.cli import main
    path = tmp_path / "app.jlang"
    path.write_text(APP)
    main(["--sarif", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    assert payload["runs"][0]["invocations"][0] == {
        "executionSuccessful": True,
        "properties": {"completeness": "complete"}}


def test_cli_sarif_run_that_ends_before_reporting(tmp_path, capsys):
    """A deadline that expires before reporting leaves no report; the
    SARIF log then has zero results and says the run was partial, and
    the exit code follows the partial-run rule."""
    from repro.cli import main
    path = tmp_path / "app.jlang"
    path.write_text(APP)
    code = main(["--config", "unbounded", "--sarif", "--deadline",
                 "0.001", str(path)])
    payload = json.loads(capsys.readouterr().out)
    run = payload["runs"][0]
    assert run["results"] == []
    invocation = run["invocations"][0]
    assert invocation["executionSuccessful"] is False
    assert invocation["properties"]["completeness"] == "partial-deadline"
    assert code == 1
