"""Lexer unit tests."""

import pytest

from repro.lang import LexError, tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


def test_empty_source_yields_only_eof():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind == "eof"


def test_identifiers_and_keywords():
    assert kinds("class Foo extends Bar") == [
        ("kw", "class"), ("id", "Foo"), ("kw", "extends"), ("id", "Bar")]


def test_identifier_with_dollar_and_underscore():
    assert kinds("$Root$X _a b$2") == [
        ("id", "$Root$X"), ("id", "_a"), ("id", "b$2")]


def test_integer_literal():
    assert kinds("42 0 123") == [("int", "42"), ("int", "0"),
                                 ("int", "123")]


def test_string_literal():
    assert kinds('"hello"') == [("string", "hello")]


def test_string_escapes():
    assert kinds(r'"a\nb\t\"c\\"') == [("string", 'a\nb\t"c\\')]


def test_bad_escape_rejected():
    with pytest.raises(LexError):
        tokenize(r'"\q"')


def test_unterminated_string_rejected():
    with pytest.raises(LexError):
        tokenize('"abc')


def test_symbols_longest_match():
    assert kinds("== = <= < ++ + &&") == [
        ("sym", "=="), ("sym", "="), ("sym", "<="), ("sym", "<"),
        ("sym", "++"), ("sym", "+"), ("sym", "&&")]


def test_line_comment_skipped():
    assert kinds("a // comment\nb") == [("id", "a"), ("id", "b")]


def test_block_comment_skipped():
    assert kinds("a /* x\ny */ b") == [("id", "a"), ("id", "b")]


def test_unterminated_block_comment_rejected():
    with pytest.raises(LexError):
        tokenize("/* never ends")


def test_line_and_column_tracking():
    toks = tokenize("a\n  b")
    assert toks[0].line == 1 and toks[0].col == 1
    assert toks[1].line == 2 and toks[1].col == 3


def test_unexpected_character_rejected():
    with pytest.raises(LexError):
        tokenize("a # b")


def test_keywords_are_not_identifiers():
    toks = tokenize("returnx return")
    assert toks[0].kind == "id"
    assert toks[1].kind == "kw"


def test_string_position_reported_at_opening_quote():
    toks = tokenize('  "x"')
    assert toks[0].col == 3


def test_mixed_program_token_stream():
    source = 'class C { void m() { int x = 1 + 2; } }'
    texts = [t.text for t in tokenize(source)[:-1]]
    assert texts == ["class", "C", "{", "void", "m", "(", ")", "{", "int",
                     "x", "=", "1", "+", "2", ";", "}", "}"]


def test_int_tokens_take_any_decimal_digit():
    toks = tokenize("١٢ 7")
    assert [(t.kind, t.text) for t in toks[:-1]] == [
        ("int", "١٢"), ("int", "7")]


def test_non_decimal_digit_at_token_start_is_a_lex_error():
    with pytest.raises(LexError) as info:
        tokenize("int x =\n  ²;")
    assert info.value.message == "unexpected character '²'"
    assert (info.value.line, info.value.col) == (2, 3)


def test_non_decimal_digit_ends_an_int_token():
    with pytest.raises(LexError) as info:
        tokenize("x = 12²;")
    assert info.value.message == "unexpected character '²'"
    assert (info.value.line, info.value.col) == (1, 7)


def test_non_decimal_digit_continues_an_identifier():
    assert kinds("x² été") == [("id", "x²"), ("id", "été")]


def test_carriage_return_is_not_a_newline_and_tab_is_one_column():
    toks = tokenize("a\r\tb\nc")
    assert [(t.text, t.line, t.col) for t in toks[:-1]] == [
        ("a", 1, 1), ("b", 1, 4), ("c", 2, 1)]


def test_multi_line_string_moves_the_line_count():
    toks = tokenize('"one\ntwo" x')
    assert toks[0].text == "one\ntwo"
    assert (toks[1].line, toks[1].col) == (2, 6)


def test_error_positions():
    cases = [
        ('"abc', "unterminated string literal", 1, 5),
        ('x = "a\\q"', "bad escape \\q", 1, 8),
        ('"\\', "bad escape \\", 1, 3),
        ("a\n/* open\n  ", "unterminated block comment", 3, 3),
    ]
    for source, message, line, col in cases:
        with pytest.raises(LexError) as info:
            tokenize(source)
        assert (info.value.message, info.value.line, info.value.col) == \
            (message, line, col), source


def test_token_is_a_tuple_with_the_old_repr():
    tok = tokenize("foo")[0]
    assert tuple(tok) == ("id", "foo", 1, 1)
    assert repr(tok) == "Token(id,'foo'@1:1)"
