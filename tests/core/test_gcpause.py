"""The collector pause around every analysis (repro.gcpause).

Each test ends with the collector back where its caller left it; the
suite-wide guard in tests/conftest.py checks that too."""

import gc
import threading

import pytest

import repro.core.taj as taj_module
from repro import TAJ, TAJConfig
from repro.gcpause import collections_during_pause, gc_paused
from repro.lang.errors import ParseError
from repro.resilience import DeadlineExceeded

APP = """
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("p"));
  }
}
"""


def test_pause_nests():
    assert gc.isenabled()
    with gc_paused():
        assert not gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_decorated_function_runs_paused():
    @gc_paused()
    def probe():
        return gc.isenabled()

    assert probe() is False
    assert probe() is False
    assert gc.isenabled()


def test_caller_that_disabled_gc_keeps_it_disabled():
    gc.disable()
    try:
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        TAJ(TAJConfig.hybrid_unbounded()).analyze_sources([APP])
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_pause_restores_on_exception():
    with pytest.raises(KeyError):
        with gc_paused():
            raise KeyError("x")
    assert gc.isenabled()


def test_analysis_that_raises_parse_error_restores_gc():
    taj = TAJ(TAJConfig.hybrid_unbounded())
    assert not taj.config.resilient
    with pytest.raises(ParseError):
        taj.analyze_sources(["class S { void m( }"])
    assert gc.isenabled()


def test_analysis_that_raises_deadline_exceeded_restores_gc(monkeypatch):
    def expire(self):
        raise DeadlineExceeded("pointer.solve", 0.0, 0.0)

    monkeypatch.setattr(taj_module.PointerAnalysis, "solve", expire)
    with pytest.raises(DeadlineExceeded):
        TAJ(TAJConfig.hybrid_unbounded()).analyze_sources([APP])
    assert gc.isenabled()


def test_analysis_runs_paused_and_reports_no_collections(monkeypatch):
    seen = []
    real = taj_module.build_report

    def build_report(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(taj_module, "build_report", build_report)
    result = TAJ(TAJConfig.hybrid_unbounded()).analyze_sources([APP])
    assert seen == [False]
    assert result.metrics["gauges"]["gc.collections"] == 0
    assert gc.isenabled()


def test_collection_inside_pause_is_counted():
    assert collections_during_pause() == 0
    with gc_paused():
        gc.collect()
        assert collections_during_pause() == 1  # one full collection
    assert collections_during_pause() == 0


def test_two_threads_analyzing_concurrently(monkeypatch):
    """The first analysis to finish must not re-enable the collector
    under the second, and the last one out restores it.  The heavy work
    is kept sequential (the second analysis starts while the first waits
    in reporting); only the pauses overlap."""
    second_may_start = threading.Event()
    second_in_report = threading.Event()
    first_done = threading.Event()
    enabled_in_second = []
    errors = []
    real = taj_module.build_report

    def build_report(*args, **kwargs):
        if threading.current_thread() is threads[0]:
            second_may_start.set()
            assert second_in_report.wait(60)
        else:
            second_in_report.set()
            assert first_done.wait(60)
            enabled_in_second.append(gc.isenabled())
        return real(*args, **kwargs)

    def run(first):
        try:
            if not first:
                assert second_may_start.wait(60)
            result = TAJ(TAJConfig.hybrid_unbounded()).analyze_sources([APP])
            assert result.issues == 1
        except BaseException as exc:  # surfaced to the main thread
            errors.append(exc)
        finally:
            if first:
                second_may_start.set()
                first_done.set()

    monkeypatch.setattr(taj_module, "build_report", build_report)
    threads = [threading.Thread(target=run, args=(first,))
               for first in (True, False)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert not errors
    assert enabled_in_second == [False]
    assert gc.isenabled()
