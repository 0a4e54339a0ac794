"""CI smoke for the observability layer.

Runs the SecuriBench-style suite through the real CLI with ``--trace``,
``--metrics``, ``--audit``, ``--profile``, and ``--ledger``, then
validates every artifact:

* the Chrome trace is non-empty, schema-valid, and contains all five
  top-level ``phase.*`` spans per analyzed case;
* the metrics snapshot carries the solver counters, timer percentile
  summaries, the peak-memory gauge, and a ``gc.collections`` gauge of
  0 (no cyclic collection ran during the analysis);
* the audit payload is well-formed (and non-empty whenever the run
  actually reported issues, i.e. the CLI exited 1);
* the collapsed-stack profile parses (``stack count`` lines whose
  stacks are rooted in a known phase);
* the run ledger accumulates one well-formed ``kind="analysis"``
  record per case.

Exit status is non-zero on any failure, so CI can gate on it directly:

    PYTHONPATH=src python benchmarks/obs_smoke.py
    PYTHONPATH=src python benchmarks/obs_smoke.py --max-cases 6  # quicker
    PYTHONPATH=src python benchmarks/obs_smoke.py --keep artifacts/

``--keep DIR`` writes the artifacts into ``DIR`` (created if missing)
instead of a throwaway tempdir, so CI can upload them.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script mode
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.securibench import CASES
from repro.cli import main as cli_main

PHASES = {"phase.modeling", "phase.pointer_analysis", "phase.sdg",
          "phase.taint", "phase.reporting"}


def check_trace(path: Path, case: str) -> None:
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    assert events, f"{case}: empty trace"
    names = set()
    for event in events:
        assert event["ph"] == "X", f"{case}: bad phase type {event}"
        assert event["ts"] >= 0 and event["dur"] >= 0, \
            f"{case}: negative timestamp {event}"
        names.add(event["name"])
    missing = PHASES - names
    assert not missing, f"{case}: phases missing from trace: {missing}"


def check_metrics(path: Path, case: str) -> None:
    snap = json.loads(path.read_text())
    counters = snap["counters"]
    assert counters.get("pointer.propagations", 0) > 0, \
        f"{case}: no solver counters in metrics"
    solving = snap["timers"]["pointer.constraint_solving"]
    for field in ("count", "total", "p50", "p95", "max"):
        assert field in solving, f"{case}: timer summary missing {field}"
    assert snap["gauges"].get("memory.peak_bytes", 0) > 0, \
        f"{case}: no peak-memory gauge"
    # Analyses run with automatic cyclic collection paused
    # (repro.gcpause); a collection mid-run means a path escaped it.
    assert snap["gauges"].get("gc.collections") == 0, \
        f"{case}: gc.collections {snap['gauges'].get('gc.collections')}"


def check_audit(path: Path, case: str, expect_flows: bool) -> None:
    payload = json.loads(path.read_text())
    assert "flows" in payload and "rules_consulted" in payload, \
        f"{case}: malformed audit payload"
    if expect_flows:
        assert payload["flows"], f"{case}: expected a flow witness"
        for witness in payload["flows"]:
            assert witness["rule"], f"{case}: witness without a rule"
            assert "grouping" in witness, \
                f"{case}: witness without a grouping decision"


def check_profile(path: Path, case: str) -> None:
    lines = path.read_text().splitlines()
    phases = {p[len("phase."):] for p in PHASES}
    for line in lines:
        stack, _, count = line.rpartition(" ")
        assert stack and count.isdigit() and int(count) > 0, \
            f"{case}: malformed collapsed-stack line {line!r}"
        root = stack.split(";", 1)[0]
        assert root in phases or root in ("confirm", "untracked"), \
            f"{case}: profile stack rooted outside a phase: {root!r}"


def check_ledger(path: Path, case: str, expected: int) -> None:
    from repro.obs.ledger import read_ledger
    records = read_ledger(str(path))
    assert len(records) == expected, \
        f"{case}: ledger has {len(records)} records, expected {expected}"
    newest = records[-1]
    assert newest["kind"] == "analysis", f"{case}: wrong ledger kind"
    assert newest["phases"], f"{case}: ledger record without phases"
    assert newest["config"]["fingerprint"], \
        f"{case}: ledger record without a config fingerprint"


def _run_cases(tmpdir: Path, cases, failures: int = 0) -> int:
    ledger = tmpdir / "ledger.jsonl"
    for index, (case, source) in enumerate(cases):
        app = tmpdir / f"case{index}.jlang"
        app.write_text(source)
        trace = tmpdir / f"trace{index}.json"
        metrics = tmpdir / f"metrics{index}.json"
        audit = tmpdir / f"audit{index}.json"
        profile = tmpdir / f"profile{index}.collapsed"
        # Exit code 1 just means "issues found" — not a failure.
        code = cli_main(["--trace", str(trace),
                         "--metrics", str(metrics),
                         "--audit", str(audit),
                         "--profile", str(profile),
                         "--ledger", str(ledger), str(app)])
        try:
            check_trace(trace, case)
            check_metrics(metrics, case)
            check_audit(audit, case, expect_flows=code == 1)
            check_profile(profile, case)
            check_ledger(ledger, case, expected=index + 1)
        except AssertionError as exc:
            print(f"FAIL {case}: {exc}")
            failures += 1
    return failures


def run(max_cases: int = 0, keep: str = None) -> int:
    cases = [(f"{category}/{name}", source)
             for category, members in CASES.items()
             for name, (source, _truth) in members.items()]
    if max_cases:
        cases = cases[:max_cases]
    if keep:
        outdir = Path(keep)
        outdir.mkdir(parents=True, exist_ok=True)
        failures = _run_cases(outdir, cases)
        print(f"artifacts kept in {outdir}")
    else:
        with tempfile.TemporaryDirectory(prefix="obs-smoke-") as tmp:
            failures = _run_cases(Path(tmp), cases)
    print(f"obs smoke: {len(cases) - failures}/{len(cases)} cases ok")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate --trace/--metrics/--audit/--profile/"
                    "--ledger artifacts over the securibench suite.")
    parser.add_argument("--max-cases", type=int, default=0,
                        help="only run the first N cases (0 = all)")
    parser.add_argument("--keep", metavar="DIR",
                        help="write artifacts into DIR (for CI upload) "
                             "instead of a throwaway tempdir")
    args = parser.parse_args(argv)
    return run(max_cases=args.max_cases, keep=args.keep)


if __name__ == "__main__":
    sys.exit(main())
