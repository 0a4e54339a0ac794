"""Property-based tests for the lexer, and fuzzing of the frontend
against the frontend it replaced (``tests/lang/oracle_frontend.py``)."""

import string

from hypothesis import given, settings, strategies as st

from repro.lang import LexError, parse, tokenize
from repro.lang.lexer import KEYWORDS
from tests.lang import oracle_frontend as oracle

identifiers = st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]{0,10}",
                            fullmatch=True).filter(
                                lambda s: s not in KEYWORDS)
numbers = st.integers(min_value=0, max_value=10 ** 9).map(str)
string_bodies = st.text(
    alphabet=st.characters(
        codec="ascii", exclude_characters='"\\\n\r'),
    max_size=20)


@given(identifiers)
def test_identifier_round_trips(name):
    toks = tokenize(name)
    assert toks[0].kind == "id"
    assert toks[0].text == name
    assert toks[1].kind == "eof"


@given(numbers)
def test_number_round_trips(text):
    toks = tokenize(text)
    assert toks[0].kind == "int"
    assert toks[0].text == text


@given(string_bodies)
def test_string_literal_round_trips(body):
    toks = tokenize(f'"{body}"')
    assert toks[0].kind == "string"
    assert toks[0].text == body


@given(st.lists(identifiers, min_size=1, max_size=8))
def test_whitespace_variations_do_not_change_tokens(names):
    tight = " ".join(names)
    loose = "\n\t ".join(names)
    assert [t.text for t in tokenize(tight)] == \
        [t.text for t in tokenize(loose)]


@given(st.text(alphabet=string.printable, max_size=40))
@settings(max_examples=200)
def test_lexer_terminates_on_arbitrary_input(text):
    """The lexer either tokenizes or raises LexError — never hangs or
    crashes with an unexpected exception.  (Regression: identifiers at
    EOF used to loop forever.)"""
    try:
        toks = tokenize(text)
        assert toks[-1].kind == "eof"
    except LexError:
        pass


@given(st.lists(st.sampled_from(sorted(KEYWORDS)), min_size=1,
                max_size=6))
def test_keywords_always_lex_as_keywords(words):
    toks = tokenize(" ".join(words))
    assert all(t.kind == "kw" for t in toks[:-1])


@given(identifiers, identifiers)
def test_comments_are_invisible(a, b):
    toks = tokenize(f"{a} /* {b} */ // {b}\n")
    assert [t.text for t in toks[:-1]] == [a]


# -- differential fuzz against the replaced frontend -------------------------

def assert_matches_oracle(source):
    """Tokens, AST and error position equal the replaced frontend's; a
    non-decimal digit (``²``) is the one allowed difference."""
    expected = oracle.expected_outcomes(source)
    assert oracle.lex_outcome(tokenize, source) == expected[0]
    assert oracle.parse_outcome(parse, source) == expected[1]


NON_ASCII = ["é", "Ä", "ñ", "λ", "中", "²", "١", "½", "\u00a0"]
SOUP_CHARS = string.printable + "".join(NON_ASCII)
PIECES = (sorted(KEYWORDS) + oracle.SYMBOLS + NON_ASCII +
          ["/*", "*/", "//", '"', "\\", "\r", "\t", "\n", " ", "x", "x²",
           "$a", "_b", "0", "42", "١٢", '"s"', '"a\\n\\t\\"\\\\"',
           '"multi\nline"', '"\\q"'])
soup = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)


@given(st.text(alphabet=SOUP_CHARS, max_size=60))
@settings(max_examples=300, deadline=None)
def test_character_soup_matches_oracle(text):
    assert_matches_oracle(text)


@given(soup)
@settings(max_examples=300, deadline=None)
def test_token_soup_matches_oracle(text):
    assert_matches_oracle(text)


@given(soup)
@settings(max_examples=200, deadline=None)
def test_token_soup_in_a_method_body_matches_oracle(text):
    assert_matches_oracle(f"class A {{ void f() {{ {text} }} }}")


OPERATORS = ["&&", "||", "==", "!=", "<", ">", "<=", ">=", "+", "-", "*",
             "/", "%"]
atoms = st.sampled_from(["a", "b", "1", "23", '"s"', "true", "false",
                         "null", "this", "new T()", "f()"])


def _compose(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(OPERATORS), children).map(
            " ".join),
        children.map(lambda e: f"({e})"),
        children.map(lambda e: f"-{e}"),
        children.map(lambda e: f"!{e}"),
        children.map(lambda e: f"(T) {e}"),
        children.map(lambda e: f"{e}.g({e})"),
        children.map(lambda e: f"{e}.f"),
        children.map(lambda e: f"{e}[{e}]"),
    )


expressions = st.recursive(atoms, _compose, max_leaves=12)
layouts = st.sampled_from([" ", "\n", "\n\t", "\r\n"])


@given(expressions, layouts)
@settings(max_examples=300, deadline=None)
def test_expressions_match_oracle(expr, layout):
    """Precedence, associativity, postfix lines and casts, spread over
    lines so each node's ``line`` is checked too."""
    body = expr.replace(" ", layout)
    assert_matches_oracle(f"class A {{ void f() {{ x = {body}; }} }}")
