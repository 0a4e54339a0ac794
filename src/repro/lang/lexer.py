"""One-pass lexer for jlang, the Java-like surface language.

jlang covers the subset of Java that TAJ's motivating examples and the
synthetic benchmark suite need: classes, interfaces, fields, methods,
arrays, strings, control flow, try/catch, casts, and `new`.

The source is scanned once with a single compiled master pattern; the
alternative that matched (``lastgroup``) picks the token class.  Lines
and columns come from newline offsets, not from a per-character walk.
docs/jlang.md ("Lexical structure") states the exact rules.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple

from .errors import LexError

KEYWORDS = frozenset({
    "class", "interface", "extends", "implements", "library",
    "static", "native", "new", "return", "if", "else", "while", "for",
    "break", "continue", "try", "catch", "finally", "throw", "throws",
    "this", "null", "true", "false", "void", "int", "boolean",
    "public", "private", "protected", "final",
})

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


class Token(NamedTuple):
    kind: str          # "id", "kw", "int", "string", "sym", "eof"
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind},{self.text!r}@{self.line}:{self.col})"


# Blanks before a token are folded into its match; a newline is a match
# of its own, so the line count needs no scan.  The alternatives are
# ordered by frequency.  Where two could match at one offset the first
# is the right one: ``sym`` tries two-character symbols before single
# characters (longest match) and its ``/`` excludes comment starts;
# ``str`` (no escape, no newline) is a special case of ``esc``; ``int``
# takes non-ASCII decimal digits before ``uni``; and ``open`` catches
# the comments and strings the earlier alternatives could not close.
# ``uni`` is an identifier only if its first character is a letter
# (``str.isalpha`` has no regex class); ``open`` and ``bad`` always raise.
_MASTER = re.compile(r"""[ \t\r]*(?:
    (?P<id>[A-Za-z_$][\w$]*)
  | (?P<sym>==|!=|<=|>=|&&|\|\||\+=|\+\+|--|-=|[{}()\[\];,.=+\-*%<>!&|]
      |/(?![/*]))
  | (?P<nl>\n)
  | (?P<str>"[^"\\\n]*")
  | (?P<int>\d+)
  | (?P<line>//[^\n]*)
  | (?P<block>/\*[\s\S]*?\*/)
  | (?P<esc>"[^"\\]*(?:\\[nt"\\][^"\\]*)*")
  | (?P<eof>\Z)
  | (?P<uni>[^\x00-\x7f][\w$]*)
  | (?P<open>/\*|")
  | (?P<bad>[\s\S])
)""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")


def _position(source: str, offset: int) -> Tuple[int, int]:
    """1-based (line, col) of ``offset``; only ``\\n`` ends a line."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def _error(source: str, message: str, offset: int) -> LexError:
    return LexError(message, *_position(source, offset))


def _open_error(source: str, start: int) -> LexError:
    """The error for the block comment or string opening at ``start``
    that the master pattern could not close: an unterminated comment or
    string is reported at the end of the input, a bad escape at the
    character after its backslash."""
    if source.startswith("/*", start):
        return _error(source, "unterminated block comment", len(source))
    pos = start + 1
    end = len(source)
    while pos < end:
        ch = source[pos]
        if ch == "\\":
            pos += 1
            esc = source[pos] if pos < end else ""
            if esc not in _ESCAPES:
                return _error(source, f"bad escape \\{esc}", pos)
        pos += 1
    return _error(source, "unterminated string literal", end)


def tokenize(source: str, filename: str = "<string>") -> List[Token]:
    """Tokenize jlang source; the last token is always ``eof``."""
    out: List[Token] = []
    append = out.append
    new = tuple.__new__
    match = _MASTER.match
    keywords = KEYWORDS
    pos = 0
    line = 1
    line_start = 0              # offset of the current line's first char
    while True:
        found = match(source, pos)
        pos = found.end()
        kind = found.lastgroup
        if kind == "id":
            text = found.group(kind)
            append(new(Token, ("kw" if text in keywords else "id", text,
                               line, pos - len(text) - line_start + 1)))
        elif kind == "sym" or kind == "int":
            text = found.group(kind)
            append(new(Token, (kind, text, line,
                               pos - len(text) - line_start + 1)))
        elif kind == "nl":
            line += 1
            line_start = pos
        elif kind == "str" or kind == "esc":
            start = found.start(kind)
            raw = found.group(kind)
            text = raw[1:-1]
            if kind == "esc":
                text = _ESCAPE.sub(lambda m: _ESCAPES[m.group(1)], text)
            append(new(Token, ("string", text, line,
                               start - line_start + 1)))
            breaks = raw.count("\n")
            if breaks:
                line += breaks
                line_start = start + raw.rfind("\n") + 1
        elif kind == "line":
            pass
        elif kind == "block":
            raw = found.group(kind)
            breaks = raw.count("\n")
            if breaks:
                line += breaks
                line_start = found.start(kind) + raw.rfind("\n") + 1
        elif kind == "eof":
            append(new(Token, ("eof", "", line, pos - line_start + 1)))
            return out
        elif kind == "uni":
            start = found.start(kind)
            text = found.group(kind)
            if not text[0].isalpha():
                raise LexError(f"unexpected character {text[0]!r}", line,
                               start - line_start + 1)
            append(new(Token, ("id", text, line, start - line_start + 1)))
        elif kind == "open":
            raise _open_error(source, found.start(kind))
        elif kind == "bad":
            start = found.start(kind)
            raise LexError(f"unexpected character {source[start]!r}", line,
                           start - line_start + 1)
