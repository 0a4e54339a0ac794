"""CLI behaviour on broken inputs: structured diagnostics, no tracebacks.

The corpus covers all three frontend failure stages — lexing, parsing,
and lowering — plus the ``--keep-going`` / ``--deadline`` resilience
flags and the 0/1/2 exit-code contract.
"""

import json

import pytest

from repro.cli import main

GOOD = """
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("p"));
  }
}
"""

# One broken source per frontend stage.
CORPUS = {
    "lex": 'class L { void m() { String s = "unterminated; } }',
    "parse": "class P { void m( { } }",
    "lower": "class W { void m() { break; } }",
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("stage", sorted(CORPUS))
def test_broken_source_exits_two_with_diagnostic(stage, tmp_path,
                                                 capsys):
    path = write(tmp_path, f"{stage}.jlang", CORPUS[stage])
    code = main([path])
    captured = capsys.readouterr()
    assert code == 2
    assert "[frontend]" in captured.err
    assert path in captured.err, "diagnostic names the offending file"
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("stage", sorted(CORPUS))
def test_keep_going_quarantines_and_analyzes_the_rest(stage, tmp_path,
                                                      capsys):
    broken = write(tmp_path, f"{stage}.jlang", CORPUS[stage])
    good = write(tmp_path, "good.jlang", GOOD)
    code = main(["--keep-going", broken, good])
    captured = capsys.readouterr()
    assert code == 1, "partial run with issues exits 1, not 2"
    assert "XSS" in captured.out, "the healthy file is still analyzed"
    assert broken in captured.err and "[frontend]" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_keep_going_json_payload_carries_resilience_record(tmp_path,
                                                           capsys):
    broken = write(tmp_path, "broken.jlang", CORPUS["parse"])
    good = write(tmp_path, "good.jlang", GOOD)
    code = main(["--keep-going", "--json", broken, good])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 1
    assert payload["completeness"] == "partial-fault"
    assert payload["diagnostics"], "quarantine leaves a diagnostic"
    assert payload["diagnostics"][0]["phase"] == "frontend"
    assert payload["issues"][0]["rule"] == "XSS"


def test_deadline_flag_on_healthy_run(tmp_path, capsys):
    good = write(tmp_path, "good.jlang", GOOD)
    code = main(["--deadline", "3600", good])
    out = capsys.readouterr().out
    assert code == 1
    assert "XSS" in out


def test_expired_deadline_exits_one_as_partial(tmp_path, capsys):
    good = write(tmp_path, "good.jlang", GOOD)
    code = main(["--deadline", "0", good])
    captured = capsys.readouterr()
    assert code == 1, "a partial (deadline) run is not a failure"
    assert "partial-deadline" in captured.out
    assert "Traceback" not in captured.err + captured.out


# -- --fault-plan (docs/robustness.md) ----------------------------------------

def test_fault_plan_malformed_file_exits_two(tmp_path, capsys):
    good = write(tmp_path, "good.jlang", GOOD)
    plan = write(tmp_path, "plan.json", "{not json")
    code = main(["--fault-plan", plan, good])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid fault plan" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_fault_plan_missing_file_exits_two(tmp_path, capsys):
    good = write(tmp_path, "good.jlang", GOOD)
    code = main(["--fault-plan", str(tmp_path / "absent.json"), good])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid fault plan" in captured.err


def test_fault_plan_unknown_action_exits_two(tmp_path, capsys):
    good = write(tmp_path, "good.jlang", GOOD)
    plan = write(tmp_path, "plan.json",
                 json.dumps([{"seam": "worker.shard",
                              "action": "explode"}]))
    code = main(["--fault-plan", plan, good])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid fault plan" in captured.err


@pytest.mark.parametrize("action", ["kill-worker", "hang-worker",
                                    "corrupt-outcome"])
def test_fault_plan_removed_process_action_exits_two(tmp_path, capsys,
                                                     action):
    """The process-crash actions went with the worker pool: a plan that
    still names one is invalid, not silently ignored."""
    good = write(tmp_path, "good.jlang", GOOD)
    plan = write(tmp_path, "plan.json",
                 json.dumps([{"seam": "worker.shard", "at": 0,
                              "action": action}]))
    code = main(["--fault-plan", plan, good])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid fault plan" in captured.err
    assert action in captured.err


def test_non_decimal_digit_is_a_positioned_frontend_error(tmp_path, capsys):
    """``²`` passes ``str.isdigit`` but is not a decimal digit: it is an
    unexpected character at its position, not a crash in ``int()``."""
    path = write(tmp_path, "digit.jlang",
                 "class A { void f() { int x = ²; } }")
    code = main([path])
    captured = capsys.readouterr()
    assert code == 2
    assert "[frontend] LexError: unexpected character '²' at 1:30" \
        in captured.err
    assert "Traceback" not in captured.err + captured.out
