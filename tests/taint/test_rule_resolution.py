"""Rules match a call by its resolved target, never by bare method name.

An application method that shares a name with a library source, sink or
sanitizer is none of those: ``Pretty.println`` is no XSS sink,
``Escaper.encode`` no sanitizer, and a Struts ``Action.execute`` call no
SQL ``Statement.execute`` sink.
"""

import pytest

from repro import TAJ, TAJConfig
from repro.modeling import default_natives, prepare
from repro.pointer import ContextPolicy, PointerAnalysis, PolicyConfig
from repro.sdg.noheap import NoHeapSDG
from repro.taint import default_rules

CONFIGS = [TAJConfig.hybrid_unbounded, TAJConfig.ci, TAJConfig.cs]

# println on an application class: no sink, no flow.
APP_PRINTLN = """
class Pretty {
  void println(String s) { }
}
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    Pretty p = new Pretty();
    p.println(req.getParameter("a"));
  }
}
"""

# encode on an application identity method: no sanitizer, the XSS stands.
APP_ENCODE = """
class Escaper {
  String encode(String s) { return s; }
}
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    Escaper c = new Escaper();
    resp.getWriter().println(c.encode(req.getParameter("a")));
  }
}
"""

# The synthesized Struts root calls action.execute(...): not a SQL sink,
# so slicing descends into the action and finds the real SQLi there.
APP_STRUTS = """
class UserForm extends ActionForm { String name; }
class FindAction extends Action {
  ActionForward execute(ActionMapping mapping, ActionForm form,
                        HttpServletRequest req, HttpServletResponse resp) {
    UserForm f = (UserForm) form;
    Connection c = DriverManager.getConnection("db");
    c.createStatement().executeQuery("select " + f.name);
    return null;
  }
}
"""


def flows(config, source):
    result = TAJ(config()).analyze_sources([source])
    return [(f.rule, f.sink_display, f.sink.method) for f in result.flows]


@pytest.mark.parametrize("config", CONFIGS)
def test_application_println_is_not_a_sink(config):
    assert flows(config, APP_PRINTLN) == []


@pytest.mark.parametrize("config", CONFIGS)
def test_application_encode_is_not_a_sanitizer(config):
    assert flows(config, APP_ENCODE) == [
        ("XSS", "PrintWriter.println", "S.doGet/2")]


@pytest.mark.parametrize("config", CONFIGS)
def test_struts_action_sqli_is_found(config):
    assert flows(config, APP_STRUTS) == [
        ("SQLI", "Statement.executeQuery", "FindAction.execute/4")]


def test_action_execute_call_is_not_a_sql_sink():
    prepared = prepare([APP_STRUTS])
    analysis = PointerAnalysis(prepared.program,
                               ContextPolicy(PolicyConfig()),
                               natives=default_natives())
    analysis.solve()
    sdg = NoHeapSDG(prepared.program, analysis.call_graph)
    rule = default_rules().by_name("SQLI")
    displays = set()
    sinks = set()
    for sites in sdg.call_sites.values():
        for site in sites:
            for display in list(site.native_targets) + [
                    target.rsplit("/", 1)[0] for target in site.targets]:
                displays.add(display)
                if rule.sink_match(site.call, display) is not None:
                    sinks.add(display)
    assert "FindAction.execute" in displays
    assert sinks == {"Statement.executeQuery"}
