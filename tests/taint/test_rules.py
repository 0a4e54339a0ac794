"""Security-rule matching tests."""

from repro.ir import Call, StringOp
from repro.taint import RuleSet, SecurityRule, default_rules


def make_call(cls, name, kind="virtual"):
    return Call("r", kind, cls, name, "recv" if kind != "static" else None,
                ["a"])


def test_default_rules_cover_four_vectors():
    rules = default_rules()
    assert {r.name for r in rules} == {"XSS", "SQLI", "MALICIOUS_FILE",
                                       "INFO_LEAK"}


def test_source_match_by_resolved_display():
    rule = default_rules().by_name("XSS")
    call = make_call("", "getParameter")
    assert rule.source_match(call, "HttpServletRequest.getParameter")


def test_source_match_syntactic():
    rule = default_rules().by_name("XSS")
    call = make_call("HttpServletRequest", "getParameter")
    assert rule.source_match(call) is not None


def test_no_bare_name_match_for_receiver_call():
    rule = default_rules().by_name("XSS")
    call = make_call("", "getParameter")
    # A receiver call names no class: only its resolved target matches.
    assert rule.source_match(call) is None
    assert rule.source_match(call, "AppRequest.getParameter") is None


def test_no_bare_name_match_when_class_known():
    rule = default_rules().by_name("XSS")
    call = make_call("NotARequest", "getParameter")
    # class is known and doesn't match: only resolved display can match
    assert rule.source_match(call) is None


def test_sink_match_and_params():
    rule = default_rules().by_name("SQLI")
    call = make_call("Statement", "executeQuery")
    display = rule.sink_match(call)
    assert display == "Statement.executeQuery"
    assert rule.sink_params(display) == (0,)


def test_sanitizer_match_call():
    rule = default_rules().by_name("XSS")
    call = make_call("URLEncoder", "encode", kind="static")
    assert rule.sanitizer_match_call(call) is not None


def test_sanitizer_match_stringop():
    rule = SecurityRule(name="T", sanitizers={"String.scrub"})
    op = StringOp("x", "String.scrub", ["a"])
    assert rule.sanitizer_match_strop(op) == "String.scrub"
    other = StringOp("x", "String.concat", ["a"])
    assert rule.sanitizer_match_strop(other) is None


def test_sanitizers_are_rule_specific():
    rules = default_rules()
    xss, sqli = rules.by_name("XSS"), rules.by_name("SQLI")
    call = make_call("URLEncoder", "encode", kind="static")
    assert xss.sanitizer_match_call(call) is not None
    assert sqli.sanitizer_match_call(call) is None


def test_ref_source_match():
    rule = default_rules().by_name("XSS")
    call = make_call("RandomAccessFile", "readFully")
    display = rule.ref_source_match(call)
    assert display == "RandomAccessFile.readFully"
    assert rule.ref_sources[display] == (0,)


def test_ruleset_indexes():
    rules = default_rules()
    assert "HttpServletRequest.getParameter" in rules.all_source_methods()
    assert "PrintWriter.println" in rules.all_sink_methods()
    assert "URLEncoder.encode" in rules.all_sanitizer_methods()
    apis = rules.taint_api_methods()
    assert apis >= rules.all_source_methods()
    assert apis >= rules.all_sink_methods()


def test_ruleset_by_name_raises_on_unknown():
    import pytest
    with pytest.raises(KeyError):
        default_rules().by_name("NOPE")


def test_remediations_distinct_per_rule():
    rules = default_rules()
    remediations = {r.remediation for r in rules}
    assert len(remediations) == len(rules)


def test_custom_ruleset():
    rule = SecurityRule(name="CUSTOM", sources={"A.src"},
                        sinks={"B.snk": None}, remediation="fix")
    rules = RuleSet([rule])
    assert len(rules) == 1
    call = make_call("B", "snk")
    assert rule.sink_match(call) == "B.snk"
    assert rule.sink_params("B.snk") is None  # all params vulnerable
