"""Suite-definition and harness tests (cheap subset of the full run)."""

import pytest

from repro.bench import (CS_COMPLETES, FIGURE4_APPS, benign_lib_classes,
                         compute_stats, format_figure4, format_table2,
                         format_table3, generate_suite, run_suite,
                         suite_specs)
from repro.core import TAJConfig


def test_suite_has_the_22_paper_benchmarks():
    specs = suite_specs()
    assert len(specs) == 22
    for name in ("A", "B", "I", "S", "ST", "Webgoat", "GridSphere",
                 "PersonalBlog", "Blojsom", "SnipSnap"):
        assert name in specs


def test_figure4_apps_are_in_the_suite():
    specs = suite_specs()
    assert all(name in specs for name in FIGURE4_APPS)
    assert len(FIGURE4_APPS) == 9


def test_cs_fn_traits_match_paper():
    """BlueBlog/I/SBM carry 2/1/2 cross-thread flows (the paper's CS
    false-negative counts); BlueBlog carries the one deep-nested flow."""
    specs = suite_specs()
    assert specs["BlueBlog"].tp_thread == 2
    assert specs["I"].tp_thread == 1
    assert specs["SBM"].tp_thread == 2
    assert specs["BlueBlog"].tp_deep == 1


def test_relative_sizes_follow_table2():
    """GridSphere and ST are the largest applications; I and BlueBlog
    among the smallest, mirroring the paper's Table 2 ordering."""
    stats = {}
    for name in ("I", "BlueBlog", "GridSphere", "ST", "Webgoat"):
        app = generate_suite([name])[name]
        stats[name] = compute_stats(app).app_methods
    assert stats["GridSphere"] > stats["Webgoat"] > stats["BlueBlog"]
    assert stats["ST"] > stats["Webgoat"]
    assert stats["I"] <= stats["BlueBlog"]


def test_benign_lib_classes_enumerated():
    app = generate_suite(["A"])["A"]
    libs = benign_lib_classes(app)
    assert libs
    assert all(lib in app.sources[0] for lib in libs)


@pytest.fixture(scope="module")
def small_results():
    apps = generate_suite(["I", "BlueBlog"])
    return apps, run_suite(apps)


def test_run_suite_covers_all_cells(small_results):
    _, results = small_results
    assert len(results.records) == 2 * 5
    assert results.cell("I", "cs") is not None
    assert results.cell("I", "nope") is None


def test_cs_completes_on_small_apps(small_results):
    _, results = small_results
    for app in ("I", "BlueBlog"):
        assert app in CS_COMPLETES
        assert not results.cell(app, "cs").failed


def test_cs_thread_false_negatives(small_results):
    _, results = small_results
    assert results.cell("I", "cs").score.fn == 1
    assert results.cell("BlueBlog", "cs").score.fn == 2
    assert results.cell("I", "hybrid-unbounded").score.fn == 0


def test_optimized_deep_nesting_fn_on_blueblog(small_results):
    _, results = small_results
    assert results.cell("BlueBlog", "hybrid-optimized").score.fn == 1
    assert results.cell("BlueBlog", "hybrid-unbounded").score.fn == 0


def test_sound_configs_agree_on_tp(small_results):
    _, results = small_results
    for app in ("I", "BlueBlog"):
        unb = results.cell(app, "hybrid-unbounded").score.tp
        ci = results.cell(app, "ci").score.tp
        assert unb == ci


def test_table_renderers_produce_rows(small_results):
    _, results = small_results
    t3 = format_table3(results)
    assert "BlueBlog" in t3 and "mean time" in t3
    f4 = format_figure4(results, apps=["I", "BlueBlog"])
    assert "accuracy" in f4


def test_tables_star_cells_a_bound_cut():
    from repro.bench import RunRecord, Score, SuiteResults

    def record(config, completeness):
        return RunRecord(app="X", config=config, issues=4, seconds=0.5,
                         failed=completeness == "failed", cg_nodes=9,
                         score=Score(app="X", config=config, tp=3, fp=1),
                         completeness=completeness)

    results = SuiteResults([record("ci", "complete"),
                            record("hybrid-optimized", "partial-budget"),
                            record("cs", "failed")])
    configs = ["ci", "hybrid-optimized", "cs"]
    t3 = format_table3(results, configs).splitlines()
    row = t3[2].split()
    assert row == ["X", "4", "0.50", "4*", "0.50", "-", "-"]
    assert t3[-1].startswith("* partial-budget")
    f4 = format_figure4(results, apps=["X"], configs=configs)
    assert f4.splitlines()[3].split() == \
        ["X", "3/1/0", "3/1/0*", "(out", "of", "budget)"]
    assert f4.splitlines()[-1].startswith("* partial-budget")
    clean = SuiteResults([record("ci", "complete")])
    assert "partial-budget" not in format_table3(clean, ["ci"])


def test_table2_renderer():
    apps = generate_suite(["I"])
    stats = [compute_stats(apps["I"])]
    text = format_table2(stats)
    assert "I" in text and "Classes" in text
