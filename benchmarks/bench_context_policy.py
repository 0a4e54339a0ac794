"""§3.1 ablation — the custom context-sensitivity policy.

The paper motivates three custom policy ingredients: object sensitivity
for most methods, collection cloning, and call-string contexts for
library factories and taint APIs.  This bench flips each off on a
benchmark rich in the corresponding patterns and shows the precision it
buys (false positives reappear when an ingredient is removed).
"""


from repro.bench import score_run
from repro.core import TAJ, TAJConfig
from repro.modeling import prepare

APP = "S"   # ejb + containers + factory traps


def _fp_with(prepared, app, **flags):
    config = TAJConfig(name="ablate", slicing="hybrid")
    for key, value in flags.items():
        setattr(config, key, value)
    result = TAJ(config).analyze_prepared(prepared)
    return score_run(app, result).fp


def test_context_policy_ingredients(benchmark, suite_apps, capsys):
    app = suite_apps[APP]
    prepared = prepare(app.sources, app.deployment_descriptor)

    def sweep():
        return {
            "full policy": _fp_with(prepared, app),
            "no factory call-strings": _fp_with(
                prepared, app, factory_call_strings=False),
            "no object sensitivity": _fp_with(
                prepared, app, object_sensitive=False),
            "fully insensitive": _fp_with(
                prepared, app, object_sensitive=False,
                collections_unlimited=False, factory_call_strings=False,
                taint_api_call_strings=False),
        }

    fps = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print("=" * 56)
        print(f"Context-policy ablation on benchmark {APP} "
              f"(false positives)")
        print("=" * 56)
        for label, fp in fps.items():
            print(f"{label:<28}{fp:>6}")

    assert fps["no factory call-strings"] > fps["full policy"], \
        "factory call-strings remove allocation-site conflation FPs"
    assert fps["fully insensitive"] >= fps["no factory call-strings"]
    assert fps["fully insensitive"] > fps["full policy"]


def test_taint_api_call_strings_disambiguate_sources(benchmark, capsys):
    """§3.1: the two getParameter calls on one receiver are separated by
    the 1-call-string context on taint APIs.  (With the string-carrier
    model both are precise anyway; this bench asserts the call-graph
    level separation.)"""
    source = """
class C extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    String a = req.getParameter("first");
    String b = req.getParameter("second");
    resp.getWriter().println(URLEncoder.encode(a));
    resp.getWriter().println(URLEncoder.encode(b));
  }
}"""
    prepared = prepare([source])

    def count_source_nodes():
        config = TAJConfig(name="ablate", slicing="hybrid")
        result = TAJ(config).analyze_prepared(prepared)
        return result

    result = benchmark.pedantic(count_source_nodes, rounds=1,
                                iterations=1)
    assert result.issues == 0  # both flows sanitized
    with capsys.disabled():
        print(f"\ncall-graph nodes with taint-API call-strings: "
              f"{result.cg_nodes}")
