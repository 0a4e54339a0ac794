"""Frontend exactness differential: the one-pass lexer and the
precedence-climbing parser against the frontend they replaced.

``tests/lang/oracle_frontend.py`` keeps the replaced lexer and parser
verbatim.  For every input below, the tokens (kind, text, line, column),
the AST (every node and its ``line``) and any error (type, message, line,
column) must be identical.  The one deliberate deviation is a
non-decimal digit such as ``²``, which used to crash the parser with a
bare ValueError; there the oracle with that fix (``DecimalLexer``) is
the reference.

Inputs: the 63 programs of the corpus differential
(``tests/property/test_parallel_differential.py``), the generator apps
at scale 1, 3, 10 and 30, the 22 Table-2 suite apps, the model texts
the modeling passes parse (stdlib, entrypoint roots, EJB homes), the
resilience tests' broken inputs, hand-written quirk cases, and every
prefix of a few files, which ends inside every string, comment and
token they contain.
"""

from __future__ import annotations

import pytest

from repro.bench.generator import scaling_corpus
from repro.bench.micro import MICRO_CASES, MOTIVATING
from repro.bench.securibench import CASES
from repro.bench.suite import generate_suite
from repro.lang import parse, tokenize
from repro.modeling import ejb, prepare, struts
from repro.modeling.stdlib import STDLIB_SOURCE
from repro.resilience.faults import _CORRUPTION
from tests.lang import oracle_frontend as oracle
from tests.resilience.test_cli_robustness import CORPUS as CLI_BROKEN
from tests.resilience.test_pipeline import BROKEN


def new_outcomes(source):
    return (oracle.lex_outcome(tokenize, source),
            oracle.parse_outcome(parse, source))


def assert_same(source):
    expected = oracle.expected_outcomes(source)
    actual = new_outcomes(source)
    assert actual[0] == expected[0], "tokens or lex error differ"
    assert actual[1] == expected[1], "AST or parse error differ"


# -- corpora ---------------------------------------------------------------

def corpus_programs():
    programs = [("micro:motivating", MOTIVATING)]
    programs += [(f"micro:{name}", src)
                 for name, (src, _) in MICRO_CASES.items()]
    for cat, cases in CASES.items():
        programs += [(f"securibench:{cat}:{name}", src)
                     for name, (src, _) in cases.items()]
    return programs


CORPUS = corpus_programs()


@pytest.mark.parametrize("name,source", CORPUS,
                         ids=[name for name, _ in CORPUS])
def test_corpus_program(name, source):
    assert_same(source)


@pytest.mark.parametrize("scale", [1, 3, 10, 30])
def test_scaling_corpus(scale):
    for source in scaling_corpus(scale).sources:
        assert_same(source)


def test_table2_suite_apps():
    apps = generate_suite()
    assert len(apps) == 22
    for app in apps.values():
        for source in app.sources:
            assert_same(source)


def recorded_model_texts(app):
    """Every text the entrypoint and EJB passes hand to ``parse`` while
    ``prepare`` models ``app``."""
    texts = []

    def recording(source, filename="<string>"):
        texts.append(source)
        return parse(source, filename)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(struts, "parse", recording)
        patch.setattr(ejb, "parse", recording)
        prepare(app.sources, app.deployment_descriptor)
    return texts


def test_model_texts():
    assert_same(STDLIB_SOURCE)
    roots = recorded_model_texts(scaling_corpus(10))
    ejb_app = generate_suite(["B"])["B"]
    ejb_texts = [text for text in recorded_model_texts(ejb_app)
                 if "$EJBHome$" in text]
    assert len(roots) > 30 and ejb_texts
    for text in roots + ejb_texts:
        assert_same(text)


BROKEN_INPUTS = sorted(CLI_BROKEN.values()) + [BROKEN, _CORRUPTION]


@pytest.mark.parametrize("source", BROKEN_INPUTS)
def test_resilience_broken_input(source):
    assert_same(source)


# -- hand-written quirks -----------------------------------------------------

QUIRKS = [
    # layout: \r is not a newline, a tab is one column
    "class A {\r\n\tint x;\r}\n",
    "class\rA\t{ }",
    # identifiers: non-ASCII letters, $, and x² as one identifier
    "class Ä$1 { int x²; String ñame; }",
    "class A { void f() { int é = 1; } }",
    # numbers: decimal digits of any script
    "class A { void f() { int x = ١٢; int y = 007; } }",
    # strings: escapes, multi-line bodies, symbol-like text
    'class A { String s = "a\\n\\t\\"\\\\b"; }',
    'class A { void f() { String s = "line one\nline two\n"; int y; } }',
    'class A { void f() { g("(", ")", "+", "int", "public"); } }',
    # comments
    "class A { /* block\n comment */ int x; // tail\n int y; }",
    "class A { /*/ still open */ int x; /**/ }",
    "class A { int x; } //",
    # string tokens where the parser compares text only
    'class A { void f() { "int" x = 1; } }',
    'class A { "public" int x; }',
    # precedence and associativity
    "class A { void f() { x = a || b && c || !d == e != f < g + h * i "
    "- j / k % l >= m; } }",
    "class A { void f() { x = a - b - c; y = (a - (b - c)) * -d; } }",
    # postfix nodes take the line of the token after them
    "class A { void f() {\n a\n .b\n .c(\n 1\n )\n [\n 2\n ]\n ;\n } }",
    # casts and arrays
    "class A { void f() { Object o = (String) x; String[] a = "
    "new String[] { \"p\", q }; int[] b = new int[3]; o = (B[]) (c); } }",
    # statements and desugaring
    "class A { void f() { for (int i = 0; i < 3; i++) { i += 2; } "
    "while (true) { break; } try { g(); } catch (E e) { continue; } "
    "finally { return; } throw e; } }",
    # constructors, interfaces, modifiers
    "library interface I extends J, K { void m(); } "
    "public final class A implements I { public A(int x) throws E, F "
    "{ super.m(); } static native int n(); }",
]

ERRORS = [
    # lex errors
    "class A { # }",
    "class A {\n  int x = @;\n}",
    "class A { \f }",
    "class A { ½ }",
    "class A { void f() { int x = ²; } }",
    "class A { void f() { int x = 1²; } }",
    'class A { String s = "abc',
    'class A { String s = "abc\\',
    'class A { String s = "a\nb\\q"; }',
    'class A { String s = "\\\n"; }',
    "class A { /* never\n closed ",
    "/*",
    '"',
    # parse errors, including the column-0 ones
    "class A { void f() { 1 = x; } }",
    "class A { void f() { a.b() = x; } }",
    "class A { void f() {\n  try { g(); }\n} }",
    "class A { void f() { x++ ; 1++; } }",
    "class A { void f( { } }",
    "class A { void f() { x = ; } }",
    "class A { void f() { x = a +",
    "class A",
    "",
    "   \n\t ",
]


@pytest.mark.parametrize("source", QUIRKS + ERRORS)
def test_quirk(source):
    assert_same(source)


# -- every prefix ------------------------------------------------------------

LEXICAL_TOUR = """// every token class, trivia and escape in one file
library class Tour extends Object {
  /* a block comment
     over two lines */ String s = "tab\\there \\"quoted\\" back\\\\slash
and a second line\\n";
  int n;\r
  int m(int a, boolean b) {\t// tab before the comment
    if (a <= 10 && !b || a != -1) { return a % 3 + n * 2; }
    while ((Object) x[1].f != null) { x = new T[n]; }
    return (a >= 1) == b;
  }
}
"""


PREFIX_FILES = {
    "motivating": MOTIVATING,
    "securibench": CASES["aliasing"][sorted(CASES["aliasing"])[0]][0],
    "lexical-tour": LEXICAL_TOUR,
}


@pytest.mark.parametrize("name", sorted(PREFIX_FILES))
def test_every_prefix(name):
    source = PREFIX_FILES[name]
    for end in range(len(source) + 1):
        assert_same(source[:end])
