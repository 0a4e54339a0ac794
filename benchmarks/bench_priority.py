"""§6.1 ablation — priority-driven vs chaotic call-graph construction
under a node budget.

"Our experiments show that it enables the detection of a significantly
larger number of taint vulnerabilities than chaotic iteration when TAJ
runs in a constrained time or memory budget."
"""


from repro.bench import score_run
from repro.core import TAJ, TAJConfig
from repro.modeling import prepare

APP = "Webgoat"   # the budget-pressured benchmark


def _tp_under_budget(prepared, app, budget_nodes, prioritized):
    config = TAJConfig(
        name="ablate", slicing="hybrid", prioritized=prioritized)
    config = config.with_budget(max_cg_nodes=budget_nodes)
    result = TAJ(config).analyze_prepared(prepared)
    return score_run(app, result).tp


def test_priority_beats_chaotic_under_budget(benchmark, suite_apps,
                                             capsys):
    app = suite_apps[APP]
    prepared = prepare(app.sources, app.deployment_descriptor)
    total_tp = sum(1 for p in app.planted if p.is_true_positive)

    def sweep():
        rows = []
        for budget in (120, 200, 320, None):
            chaotic = _tp_under_budget(prepared, app, budget, False)
            priority = _tp_under_budget(prepared, app, budget, True)
            rows.append((budget, chaotic, priority))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print("=" * 62)
        print(f"Priority-driven vs chaotic under a CG-node budget "
              f"({APP}, {total_tp} planted TPs)")
        print("=" * 62)
        print(f"{'budget':<10}{'chaotic TP':>12}{'priority TP':>13}")
        for budget, chaotic, priority in rows:
            print(f"{str(budget):<10}{chaotic:>12}{priority:>13}")

    # Unbounded: both find everything.
    assert rows[-1][1] == rows[-1][2] == total_tp
    # Under at least one constrained budget, priority finds strictly
    # more true positives than chaotic iteration.
    constrained = rows[:-1]
    assert any(priority > chaotic for _, chaotic, priority in constrained)
    assert all(priority >= chaotic for _, chaotic, priority in constrained)


def test_priority_overhead_is_moderate(benchmark, prepared_cache):
    """Priority bookkeeping must not dominate analysis time."""
    prepared = prepared_cache("SBM")

    def run_prioritized():
        return TAJ(TAJConfig.hybrid_prioritized()).analyze_prepared(
            prepared)

    result = benchmark(run_prioritized)
    assert not result.failed
