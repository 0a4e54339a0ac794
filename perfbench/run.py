"""End-to-end analysis benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload webapp-x30 --seed 1 --seconds 45 \\
        --trace 0

``--trace 0`` times ``TAJ.analyze_sources`` with nothing installed and
prints the end-to-end metrics; ``--trace 1`` installs the layer shims of
``perfbench/layertrace.py`` and prints the per-layer metrics.  Either way
every analysis is scored against the generator's planted ground truth,
and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when the run completed; a gate failure still prints its result
(``"correct": false``) and exits 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

# Set-up time starts before the imports, which it includes.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

from reference import time_reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

# Set-up runs this many times per run (this process plus child
# processes, half of them before the timed loop and half after), and
# ``setup_s`` is their median.
SETUP_RUNS = 11
# The tail is the highest percentile with at least this many samples
# beyond it, so every run times at least TAIL_BEYOND + 1 analyses.
TAIL_BEYOND = 10

PER_LAYER_TIMES = (
    "lang.lex", "lang.parse", "lang.lower", "modeling.stdlib",
    "modeling.entrypoints", "modeling.passes", "ssa", "pointer.solve",
    "sdg", "taint.run", "reporting", "confirm", "interp",
)
PER_LAYER_COUNTS = (
    "lang.lex.calls", "lang.lex.tokens", "lang.lex.chars",
    "lang.parse.calls", "lang.lower.classes", "modeling.stdlib.calls",
    "modeling.entrypoints.roots", "modeling.entrypoints.parse_calls",
    "ssa.methods", "pointer.cg_nodes", "pointer.cg_edges",
    "sdg.call_sites", "taint.flows", "taint.state_units",
    "reporting.issues", "interp.runs",
)


def _import_repro() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources under "
                         f"{ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _set_up(workload_name: str, seed: int):
    """Imports, input generation and one warm-up analysis."""
    _import_repro()
    from workloads import WORKLOADS
    workload = WORKLOADS[workload_name](seed)
    state = workload.fresh()
    workload.warm_up(state)
    return workload, state


def _setup_in_child(args) -> float:
    """Set-up seconds of a fresh interpreter, as it reports them."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- the timed loop ---------------------------------------------------------------


class Tally:
    """Gate results over every analysis of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: List[str] = []
        self.tp = self.fp = self.fn = 0

    def add(self, job, result, exc: Optional[BaseException]) -> None:
        self.attempted += 1
        if exc is not None:
            self.errors.append(f"{job.app.spec.name}/{job.config}: "
                               f"raised {type(exc).__name__}: {exc}")
            self.fn += sum(1 for p in job.app.planted
                           if p.is_true_positive)
            return
        score, error = job.gate(result)
        self.tp += score.tp
        self.fp += score.fp
        self.fn += score.fn
        if error is not None:
            self.errors.append(error)


class RelativeTimes:
    """Each analysis wall time divided by the mean of the reference
    times measured just before and just after it."""

    def __init__(self) -> None:
        self.references = [time_reference()]
        self.values: List[float] = []

    def add(self, seconds: float) -> None:
        self.references.append(time_reference())
        self.values.append(seconds / statistics.fmean(self.references[-2:]))


def _run_unit(jobs, tally: Tally, times: List[float],
              results: Optional[list] = None,
              relative: Optional[RelativeTimes] = None) -> int:
    """Run and gate one unit; returns its source lines."""
    from workloads import source_lines
    lines = 0
    for job in jobs:
        try:
            seconds, result = job.run()
        except Exception as exc:  # an analysis that raises is an error
            tally.add(job, None, exc)
            continue
        times.append(seconds)
        lines += source_lines(job.app.sources)
        tally.add(job, result, None)
        if results is not None:
            results.append(result)
        if relative is not None:
            # The analysis's garbage goes first, so that the reference
            # work neither pays for collecting it nor adds to peak RSS.
            del result
            gc.collect()
            relative.add(seconds)
    return lines


def measure(workload, state, seconds: float) -> Tuple[Dict, Tally]:
    """The timed loop, untraced: end-to-end metrics over whole units.

    The bounded timing is the median of each analysis's wall time
    relative to the reference work around it (``perfbench/reference.py``),
    which a host's slow phases move far less than wall time.  The wall
    time median, tail and throughput are printed as comments, not as
    metrics: on a shared host they move by more than any bound the
    benchmark may set (see perfbench/README.md)."""
    tally = Tally()
    times: List[float] = []
    relative = RelativeTimes()
    lines = 0
    units = workload.units(state)
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or (len(times) <= TAIL_BEYOND and not tally.errors)):
        jobs = next(units)
        gc.collect()
        lines += _run_unit(jobs, tally, times, relative=relative)
    if len(times) <= TAIL_BEYOND:
        raise SystemExit(f"perfbench: {len(times)} analyses completed; "
                         f"first error: {tally.errors[0]}")
    ranked = sorted(times)
    tail_index = len(ranked) - TAIL_BEYOND - 1
    metrics = {
        "analyze_rel.p50": (statistics.median(relative.values), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                        .ru_maxrss / 1024.0, "MB"),
        "recall": (_ratio(tally.tp, tally.tp + tally.fn), "ratio"),
        "precision": (_ratio(tally.tp, tally.tp + tally.fp), "ratio"),
    }
    print(f"# samples {len(ranked)}; reference_s p50 "
          f"{statistics.median(relative.references):.4f}; analyze_s min "
          f"{ranked[0]:.4f}, p50 {statistics.median(ranked):.4f}, tail "
          f"p{100.0 * (tail_index + 1) / len(ranked):.0f} "
          f"{ranked[tail_index]:.4f} (sample {tail_index + 1} of "
          f"{len(ranked)}, {TAIL_BEYOND} beyond); kloc_per_s "
          f"{lines / 1000.0 / sum(ranked):.4f}; "
          f"tp {tally.tp} fp {tally.fp} fn {tally.fn}")
    return metrics, tally


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- the traced run -----------------------------------------------------------------


def _layer_counts(counts: Dict[str, int], results: list) -> Dict[str, float]:
    out = {name: counts.get(name, 0) for name in PER_LAYER_COUNTS}
    for result in results:
        out["pointer.cg_nodes"] += result.cg_nodes
        out["pointer.cg_edges"] += result.cg_edges
        out["sdg.call_sites"] += result.metrics.get("gauges", {}).get(
            "sdg.call_sites", 0)
        out["taint.flows"] += len(result.flows)
        out["taint.state_units"] += result.stats.get("state_units", 0)
        out["reporting.issues"] += result.issues
    confirmed = [result.confirmation.counts() for result in results
                 if result.confirmation is not None]
    total = sum(sum(c.values()) for c in confirmed)
    conclusive = sum(c.get("confirmed", 0) + c.get("refuted", 0)
                     for c in confirmed)
    out["confirm.conclusive_share"] = _ratio(conclusive, total)
    return out


def _flows(results: list) -> List[list]:
    from workloads import flow_keys
    return [flow_keys(result) for result in results]


def _traced_once(workload, tally: Tally, tracer) -> list:
    """One traced run of the workload's first unit; returns results."""
    from layertrace import Shims
    results: list = []
    jobs = next(workload.units(workload.fresh()))
    with Shims(tracer):
        for job in jobs:
            index = tracer.open("analyze")
            try:
                _run_unit([job], tally, [], results)
            finally:
                tracer.close(index)
    return results


def traced(workload, args) -> Tuple[Dict, Tally]:
    """Untraced and traced runs of the workload's first unit, each from
    a fresh state: per-layer self times are medians over the traced
    runs, and every count must repeat exactly across them."""
    from layertrace import Tracer
    tally = Tally()
    untraced_walls: List[float] = []
    traced_walls: List[float] = []
    unattributed: List[float] = []
    self_times: Dict[str, List[float]] = {name: [] for name in
                                          PER_LAYER_TIMES}
    untraced_flows = first_counts = None
    first_spans: List[dict] = []
    # Untraced, then traced twice (the determinism check), then
    # alternating while time remains.
    plan = [False, True, True]
    started = time.perf_counter()
    while plan:
        tracing = plan.pop(0)
        if not plan and time.perf_counter() - started < args.seconds:
            plan.append(not tracing)
        gc.collect()
        if not tracing:
            times: List[float] = []
            results: list = []
            _run_unit(next(workload.units(workload.fresh())), tally,
                      times, results)
            untraced_walls.append(sum(times))
            if untraced_flows is None:
                untraced_flows = _flows(results)
            elif _flows(results) != untraced_flows:
                raise AssertionError("untraced flows differ between "
                                     "runs of one seed")
            continue
        tracer = Tracer()
        results = _traced_once(workload, tally, tracer)
        if _flows(results) != untraced_flows:
            raise AssertionError("traced flows differ from untraced flows")
        traced_walls.append(tracer.wall("analyze"))
        layer_self = tracer.self_times()
        unattributed.append(layer_self.get("analyze", 0.0))
        for name in PER_LAYER_TIMES:
            self_times[name].append(layer_self.get(name, 0.0))
        counts = _layer_counts(tracer.counts, results)
        if first_counts is None:
            first_counts = counts
            first_spans = tracer.records()
        elif counts != first_counts:
            changed = sorted(k for k in counts
                             if counts[k] != first_counts[k])
            raise AssertionError(f"per-layer counts differ between traced "
                                 f"runs of one seed: {changed}")
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in PER_LAYER_TIMES:
        metrics[f"{name}.s"] = (statistics.median(self_times[name]), "s")
    for name, value in first_counts.items():
        unit = "ratio" if name.endswith("_share") else "count"
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) -
                                   statistics.median(untraced_walls), "s")
    metrics["analyze.unattributed_s"] = (statistics.median(unattributed),
                                         "s")
    wall = statistics.median(traced_walls)
    print(f"# traced runs {len(traced_walls)}, untraced runs "
          f"{len(untraced_walls)}; traced analyze wall {wall:.3f} s; "
          f"layers cover "
          f"{100.0 * (1 - metrics['analyze.unattributed_s'][0] / wall):.1f}%")
    _write_spans(args, first_spans)
    return metrics, tally


def _write_spans(args, spans: List[dict]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-s{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spans, handle)
    print(f"# spans: {path.relative_to(ROOT)} ({len(spans)} spans)")


# -- main -------------------------------------------------------------------------------


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("webapp-x30", "table2-suite",
                                 "rescan-x10", "confirm-x10"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    workload, state = _set_up(args.workload, args.seed)
    setup_seconds = time.perf_counter() - _STARTED
    if args.setup_probe:
        print(repr(setup_seconds))
        return 0
    workload.hygiene(state)
    if args.trace:
        metrics, tally = traced(workload, args)
    else:
        children = SETUP_RUNS - 1
        setups = [setup_seconds] + [_setup_in_child(args)
                                    for _ in range(children // 2)]
        metrics, tally = measure(workload, state, args.seconds)
        setups += [_setup_in_child(args)
                   for _ in range(children - children // 2)]
        metrics["setup_s"] = (statistics.median(setups), "s")
    failed = len(tally.errors)
    for error in tally.errors[:20]:
        print(f"# GATE: {error}")
    print(f"# error_share {_ratio(failed, tally.attempted)} "
          f"({failed} of {tally.attempted} analyses)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
