"""Test-only oracle: the character-at-a-time lexer and the seven-level
recursive-descent parser that the one-pass frontend in ``repro.lang``
replaced, kept verbatim so the differential tests can hold the new
frontend to the old one token for token, AST for AST and error position
for error position.

Not used by the program; do not edit except to mirror a deliberate,
documented deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.lang import ast
from repro.lang.errors import LexError, ParseError

# -- lexer ------------------------------------------------------------
KEYWORDS = frozenset({
    "class", "interface", "extends", "implements", "library",
    "static", "native", "new", "return", "if", "else", "while", "for",
    "break", "continue", "try", "catch", "finally", "throw", "throws",
    "this", "null", "true", "false", "void", "int", "boolean",
    "public", "private", "protected", "final",
})

# Longest-match first.
SYMBOLS = [
    "==", "!=", "<=", ">=", "&&", "||", "+=", "++", "--", "-=",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "=", "+", "-", "*",
    "/", "%", "<", ">", "!", "&", "|",
]


@dataclass(frozen=True)
class Token:
    kind: str          # "id", "kw", "int", "string", "sym", "eof"
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind},{self.text!r}@{self.line}:{self.col})"


class Lexer:
    """Converts jlang source text into a token list."""

    def __init__(self, source: str, filename: str = "<string>") -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1

    def _error(self, message: str) -> LexError:
        return LexError(message, self.line, self.col)

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source) and not (
                        self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                if self.pos >= len(self.source):
                    raise self._error("unterminated block comment")
                self._advance(2)
            else:
                return

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            tok = self._next_token()
            out.append(tok)
            if tok.kind == "eof":
                return out

    def _next_token(self) -> Token:
        self._skip_trivia()
        line, col = self.line, self.col
        if self.pos >= len(self.source):
            return Token("eof", "", line, col)
        ch = self._peek()
        if ch.isalpha() or ch == "_" or ch == "$":
            start = self.pos
            while self._peek() and (self._peek().isalnum() or
                                    self._peek() in "_$"):
                self._advance()
            text = self.source[start:self.pos]
            kind = "kw" if text in KEYWORDS else "id"
            return Token(kind, text, line, col)
        if ch.isdigit():
            start = self.pos
            while self._peek().isdigit():
                self._advance()
            return Token("int", self.source[start:self.pos], line, col)
        if ch == '"':
            return self._string(line, col)
        for sym in SYMBOLS:
            if self.source.startswith(sym, self.pos):
                self._advance(len(sym))
                return Token("sym", sym, line, col)
        raise self._error(f"unexpected character {ch!r}")

    def _string(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            ch = self._peek()
            if ch == "":
                raise self._error("unterminated string literal")
            if ch == '"':
                self._advance()
                return Token("string", "".join(chars), line, col)
            if ch == "\\":
                self._advance()
                esc = self._peek()
                mapping = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
                if esc not in mapping:
                    raise self._error(f"bad escape \\{esc}")
                chars.append(mapping[esc])
                self._advance()
            else:
                chars.append(ch)
                self._advance()


def tokenize(source: str, filename: str = "<string>") -> List[Token]:
    """Tokenize jlang source with the oracle lexer."""
    return Lexer(source, filename).tokens()


# -- parser -----------------------------------------------------------

_PRIMITIVE_TYPES = {"int", "boolean", "void"}
# Tokens that can start an expression: used by the cast heuristic.
_EXPR_START_SYMS = {"(", "!", "-"}


class Parser:
    """Parses a token stream into an AST."""

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self._peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def _at_sym(self, text: str) -> bool:
        return self._at("sym", text)

    def _at_kw(self, text: str) -> bool:
        return self._at("kw", text)

    def _advance(self) -> Token:
        tok = self._peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self._peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(
                f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return self._advance()

    def _accept_sym(self, text: str) -> bool:
        if self._at_sym(text):
            self._advance()
            return True
        return False

    def _accept_kw(self, text: str) -> bool:
        if self._at_kw(text):
            self._advance()
            return True
        return False

    # -- types ---------------------------------------------------------------

    def _at_type_start(self) -> bool:
        return self._peek().kind == "id" or self._peek().text in _PRIMITIVE_TYPES

    def _parse_type(self) -> str:
        tok = self._peek()
        if tok.kind == "id" or tok.text in _PRIMITIVE_TYPES:
            self._advance()
            name = tok.text
            while self._at_sym("[") and self._peek(1).text == "]":
                self._advance()
                self._advance()
                name += "[]"
            return name
        raise ParseError(f"expected a type, found {tok.text!r}",
                         tok.line, tok.col)

    # -- declarations ----------------------------------------------------------

    def parse_unit(self) -> ast.CompilationUnit:
        unit = ast.CompilationUnit(line=1)
        while not self._at("eof"):
            unit.classes.append(self._parse_class())
        return unit

    def _parse_class(self) -> ast.ClassDeclNode:
        line = self._peek().line
        is_library = self._accept_kw("library")
        while self._peek().text in ("public", "final"):
            self._advance()
        is_interface = False
        if self._accept_kw("interface"):
            is_interface = True
        else:
            self._expect("kw", "class")
        name = self._expect("id").text
        node = ast.ClassDeclNode(line=line, name=name,
                                 is_interface=is_interface,
                                 is_library=is_library)
        if self._accept_kw("extends"):
            node.super_name = self._expect("id").text
            if is_interface:
                # Interface extension list; treat extras as more interfaces.
                node.interfaces.append(node.super_name)
                node.super_name = None
                while self._accept_sym(","):
                    node.interfaces.append(self._expect("id").text)
        if self._accept_kw("implements"):
            node.interfaces.append(self._expect("id").text)
            while self._accept_sym(","):
                node.interfaces.append(self._expect("id").text)
        if node.super_name is None and not is_interface and name != "Object":
            node.super_name = "Object"
        self._expect("sym", "{")
        while not self._accept_sym("}"):
            self._parse_member(node)
        return node

    def _parse_member(self, cls: ast.ClassDeclNode) -> None:
        line = self._peek().line
        is_static = False
        is_native = False
        while True:
            if self._peek().text in ("public", "private", "protected", "final"):
                self._advance()
            elif self._accept_kw("static"):
                is_static = True
            elif self._accept_kw("native"):
                is_native = True
            else:
                break
        # Constructor: ClassName followed by '('.
        if self._at("id", cls.name) and self._peek(1).text == "(":
            self._advance()
            method = ast.MethodDeclNode(line=line, name="<init>",
                                        return_type="void",
                                        is_constructor=True)
            method.params = self._parse_params()
            self._skip_throws()
            method.body = self._parse_block()
            cls.methods.append(method)
            return
        type_name = self._parse_type()
        name_tok = self._expect("id")
        if self._at_sym("("):
            method = ast.MethodDeclNode(line=line, name=name_tok.text,
                                        return_type=type_name,
                                        is_static=is_static,
                                        is_native=is_native)
            method.params = self._parse_params()
            self._skip_throws()
            if self._accept_sym(";"):
                method.body = None
                method.is_native = True if not cls.is_interface else False
            else:
                method.body = self._parse_block()
            cls.methods.append(method)
        else:
            self._expect("sym", ";")
            cls.fields.append(ast.FieldDeclNode(
                line=line, type_name=type_name, name=name_tok.text,
                is_static=is_static))

    def _skip_throws(self) -> None:
        if self._accept_kw("throws"):
            self._expect("id")
            while self._accept_sym(","):
                self._expect("id")

    def _parse_params(self) -> List[ast.ParamNode]:
        self._expect("sym", "(")
        params: List[ast.ParamNode] = []
        if not self._at_sym(")"):
            while True:
                line = self._peek().line
                type_name = self._parse_type()
                name = self._expect("id").text
                params.append(ast.ParamNode(line=line, type_name=type_name,
                                            name=name))
                if not self._accept_sym(","):
                    break
        self._expect("sym", ")")
        return params

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> List[ast.Stmt]:
        self._expect("sym", "{")
        stmts: List[ast.Stmt] = []
        while not self._accept_sym("}"):
            stmts.append(self._parse_stmt())
        return stmts

    def _parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        if self._at_sym("{"):
            return ast.Block(line=tok.line, body=self._parse_block())
        if self._at_kw("if"):
            return self._parse_if()
        if self._at_kw("while"):
            return self._parse_while()
        if self._at_kw("for"):
            return self._parse_for()
        if self._at_kw("try"):
            return self._parse_try()
        if self._accept_kw("return"):
            value = None if self._at_sym(";") else self._parse_expr()
            self._expect("sym", ";")
            return ast.Return(line=tok.line, value=value)
        if self._accept_kw("throw"):
            value = self._parse_expr()
            self._expect("sym", ";")
            return ast.Throw(line=tok.line, value=value)
        if self._accept_kw("break"):
            self._expect("sym", ";")
            return ast.Break(line=tok.line)
        if self._accept_kw("continue"):
            self._expect("sym", ";")
            return ast.Continue(line=tok.line)
        if self._looks_like_var_decl():
            stmt = self._parse_var_decl()
            self._expect("sym", ";")
            return stmt
        stmt = self._parse_expr_or_assign()
        self._expect("sym", ";")
        return stmt

    def _looks_like_var_decl(self) -> bool:
        """Disambiguate ``Type name ...`` from an expression statement."""
        tok = self._peek()
        if tok.text in _PRIMITIVE_TYPES and tok.text != "void":
            return True
        if tok.kind != "id":
            return False
        # ID ID            -> decl (e.g. ``String s``)
        # ID [ ] ID        -> array decl
        nxt = self._peek(1)
        if nxt.kind == "id":
            return True
        if nxt.text == "[" and self._peek(2).text == "]":
            return self._peek(3).kind == "id"
        return False

    def _parse_var_decl(self) -> ast.Stmt:
        line = self._peek().line
        type_name = self._parse_type()
        name = self._expect("id").text
        init = None
        if self._accept_sym("="):
            init = self._parse_expr()
        return ast.VarDecl(line=line, type_name=type_name, name=name,
                           init=init)

    def _parse_expr_or_assign(self) -> ast.Stmt:
        line = self._peek().line
        expr = self._parse_expr()
        if self._at_sym("=") or self._at_sym("+=") or self._at_sym("-="):
            op = self._advance().text
            value = self._parse_expr()
            if op != "=":
                value = ast.Binary(line=line, op=op[0], left=expr, right=value)
            if not isinstance(expr, (ast.NameRef, ast.FieldAccess,
                                     ast.IndexAccess)):
                raise ParseError("invalid assignment target", line, 0)
            return ast.Assign(line=line, target=expr, value=value)
        if self._at_sym("++") or self._at_sym("--"):
            op = self._advance().text
            if not isinstance(expr, ast.NameRef):
                raise ParseError("invalid ++/-- target", line, 0)
            one = ast.Literal(line=line, value=1)
            return ast.Assign(
                line=line, target=expr,
                value=ast.Binary(line=line, op=op[0], left=expr, right=one))
        return ast.ExprStmt(line=line, expr=expr)

    def _parse_if(self) -> ast.Stmt:
        line = self._expect("kw", "if").line
        self._expect("sym", "(")
        cond = self._parse_expr()
        self._expect("sym", ")")
        then_body = self._stmt_as_body()
        else_body: List[ast.Stmt] = []
        if self._accept_kw("else"):
            else_body = self._stmt_as_body()
        return ast.If(line=line, cond=cond, then_body=then_body,
                      else_body=else_body)

    def _parse_while(self) -> ast.Stmt:
        line = self._expect("kw", "while").line
        self._expect("sym", "(")
        cond = self._parse_expr()
        self._expect("sym", ")")
        return ast.While(line=line, cond=cond, body=self._stmt_as_body())

    def _parse_for(self) -> ast.Stmt:
        """Desugar ``for (init; cond; update) body`` into a while loop."""
        line = self._expect("kw", "for").line
        self._expect("sym", "(")
        init: Optional[ast.Stmt] = None
        if not self._at_sym(";"):
            if self._looks_like_var_decl():
                init = self._parse_var_decl()
            else:
                init = self._parse_expr_or_assign()
        self._expect("sym", ";")
        cond: ast.Expr = ast.Literal(line=line, value=True)
        if not self._at_sym(";"):
            cond = self._parse_expr()
        self._expect("sym", ";")
        update: Optional[ast.Stmt] = None
        if not self._at_sym(")"):
            update = self._parse_expr_or_assign()
        self._expect("sym", ")")
        body = self._stmt_as_body()
        if update is not None:
            body = body + [update]
        loop = ast.While(line=line, cond=cond, body=body)
        outer: List[ast.Stmt] = []
        if init is not None:
            outer.append(init)
        outer.append(loop)
        return ast.Block(line=line, body=outer)

    def _parse_try(self) -> ast.Stmt:
        line = self._expect("kw", "try").line
        body = self._parse_block()
        node = ast.Try(line=line, body=body)
        while self._at_kw("catch"):
            cline = self._advance().line
            self._expect("sym", "(")
            exc_type = self._parse_type()
            var = self._expect("id").text
            self._expect("sym", ")")
            cbody = self._parse_block()
            node.catches.append(ast.CatchClause(
                line=cline, exc_type=exc_type, var_name=var, body=cbody))
        if self._accept_kw("finally"):
            node.finally_body = self._parse_block()
        if not node.catches and not node.finally_body:
            raise ParseError("try without catch or finally", line, 0)
        return node

    def _stmt_as_body(self) -> List[ast.Stmt]:
        stmt = self._parse_stmt()
        if isinstance(stmt, ast.Block):
            return stmt.body
        return [stmt]

    # -- expressions ----------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_logic()

    def _parse_logic(self) -> ast.Expr:
        left = self._parse_equality()
        while self._at_sym("&&") or self._at_sym("||"):
            tok = self._advance()
            right = self._parse_equality()
            left = ast.Binary(line=tok.line, op=tok.text, left=left,
                              right=right)
        return left

    def _parse_equality(self) -> ast.Expr:
        left = self._parse_relational()
        while self._at_sym("==") or self._at_sym("!="):
            tok = self._advance()
            right = self._parse_relational()
            left = ast.Binary(line=tok.line, op=tok.text, left=left,
                              right=right)
        return left

    def _parse_relational(self) -> ast.Expr:
        left = self._parse_additive()
        while self._peek().text in ("<", ">", "<=", ">=") and \
                self._peek().kind == "sym":
            tok = self._advance()
            right = self._parse_additive()
            left = ast.Binary(line=tok.line, op=tok.text, left=left,
                              right=right)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while (self._at_sym("+") or self._at_sym("-")):
            tok = self._advance()
            right = self._parse_multiplicative()
            left = ast.Binary(line=tok.line, op=tok.text, left=left,
                              right=right)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._peek().text in ("*", "/", "%") and \
                self._peek().kind == "sym":
            tok = self._advance()
            right = self._parse_unary()
            left = ast.Binary(line=tok.line, op=tok.text, left=left,
                              right=right)
        return left

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if self._at_sym("!") or self._at_sym("-"):
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(line=tok.line, op=tok.text, operand=operand)
        if self._is_cast():
            self._expect("sym", "(")
            type_name = self._parse_type()
            self._expect("sym", ")")
            operand = self._parse_unary()
            return ast.Cast(line=tok.line, type_name=type_name,
                            operand=operand)
        return self._parse_postfix()

    def _is_cast(self) -> bool:
        """Heuristic: ``( Id )`` or ``( Id[] )`` followed by an expression
        start is a cast.  Casts to primitives are not supported (jlang has
        no narrowing conversions worth modeling)."""
        if not self._at_sym("("):
            return False
        if self._peek(1).kind != "id":
            return False
        idx = 2
        while self._peek(idx).text == "[" and self._peek(idx + 1).text == "]":
            idx += 2
        if self._peek(idx).text != ")":
            return False
        after = self._peek(idx + 1)
        if after.kind in ("id", "string", "int"):
            return True
        if after.kind == "kw" and after.text in ("this", "new", "null",
                                                 "true", "false"):
            return True
        return after.kind == "sym" and after.text in _EXPR_START_SYMS

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self._at_sym("."):
                self._advance()
                name = self._expect("id").text
                if self._at_sym("("):
                    args = self._parse_args()
                    expr = ast.MethodCall(line=self._peek().line,
                                          target=expr, method_name=name,
                                          args=args)
                else:
                    expr = ast.FieldAccess(line=self._peek().line,
                                           target=expr, field_name=name)
            elif self._at_sym("["):
                self._advance()
                index = self._parse_expr()
                self._expect("sym", "]")
                expr = ast.IndexAccess(line=self._peek().line, target=expr,
                                       index=index)
            else:
                return expr

    def _parse_args(self) -> List[ast.Expr]:
        self._expect("sym", "(")
        args: List[ast.Expr] = []
        if not self._at_sym(")"):
            while True:
                args.append(self._parse_expr())
                if not self._accept_sym(","):
                    break
        self._expect("sym", ")")
        return args

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == "string":
            self._advance()
            return ast.Literal(line=tok.line, value=tok.text)
        if tok.kind == "int":
            self._advance()
            return ast.Literal(line=tok.line, value=int(tok.text))
        if self._accept_kw("true"):
            return ast.Literal(line=tok.line, value=True)
        if self._accept_kw("false"):
            return ast.Literal(line=tok.line, value=False)
        if self._accept_kw("null"):
            return ast.Literal(line=tok.line, value=None)
        if self._accept_kw("this"):
            return ast.ThisRef(line=tok.line)
        if self._at_kw("new"):
            return self._parse_new()
        if tok.kind == "id":
            self._advance()
            if self._at_sym("("):
                args = self._parse_args()
                return ast.MethodCall(line=tok.line, target=None,
                                      method_name=tok.text, args=args)
            return ast.NameRef(line=tok.line, name=tok.text)
        if self._accept_sym("("):
            expr = self._parse_expr()
            self._expect("sym", ")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    def _parse_new(self) -> ast.Expr:
        line = self._expect("kw", "new").line
        type_name = self._parse_type()
        if type_name.endswith("[]"):
            # ``new T[] { a, b }`` — array literal.
            self._expect("sym", "{")
            elems: List[ast.Expr] = []
            if not self._at_sym("}"):
                while True:
                    elems.append(self._parse_expr())
                    if not self._accept_sym(","):
                        break
            self._expect("sym", "}")
            return ast.NewArrayExpr(line=line, element_type=type_name[:-2],
                                    initializer=elems)
        if self._at_sym("["):
            self._advance()
            length = self._parse_expr()
            self._expect("sym", "]")
            return ast.NewArrayExpr(line=line, element_type=type_name,
                                    length=length)
        args = self._parse_args()
        return ast.NewObject(line=line, class_name=type_name, args=args)


def parse(source: str, filename: str = "<string>") -> ast.CompilationUnit:
    """Parse jlang source text with the oracle lexer and parser."""
    return Parser(tokenize(source, filename)).parse_unit()


# -- the one deliberate deviation ---------------------------------------------
#
# The replaced lexer started an ``int`` token at any ``str.isdigit``
# character, so ``²`` reached ``int()`` in the parser and crashed with a
# bare ValueError.  The new lexer takes Unicode decimal digits only
# (``str.isdecimal``) and reports any other digit at a token start as an
# unexpected character.  ``DecimalLexer`` is the oracle with exactly that
# change; the differential tests hold the new frontend to it everywhere
# and to the verbatim oracle on every input without a non-decimal digit.


class DecimalLexer(Lexer):
    """The oracle lexer with ``int`` tokens limited to decimal digits."""

    def _next_token(self) -> Token:
        self._skip_trivia()
        ch = self._peek()
        if not ch.isdigit():
            return super()._next_token()
        if not ch.isdecimal():
            raise self._error(f"unexpected character {ch!r}")
        line, col = self.line, self.col
        start = self.pos
        while self._peek().isdecimal():
            self._advance()
        return Token("int", self.source[start:self.pos], line, col)


def has_non_decimal_digit(source: str) -> bool:
    """True if ``source`` holds a digit the two lexers treat differently."""
    return any(ch.isdigit() and not ch.isdecimal() for ch in source)


# -- comparable outcomes -------------------------------------------------------

def _failure(exc: Exception) -> tuple:
    return (type(exc).__name__, str(exc), getattr(exc, "line", None),
            getattr(exc, "col", None))


def lex_outcome(lex, source: str) -> tuple:
    """``("ok", tokens as plain tuples)`` or the exception's type,
    message, line and column, for any tokenizer ``lex``."""
    try:
        toks = lex(source)
    except Exception as exc:    # the verbatim oracle may raise ValueError
        return _failure(exc)
    return ("ok", [(t.kind, t.text, t.line, t.col) for t in toks])


def parse_outcome(parse_fn, source: str) -> tuple:
    """``("ok", repr of the AST)`` or the exception's type, message, line
    and column.  ``repr`` keeps ``1`` and ``True`` literals apart."""
    try:
        unit = parse_fn(source)
    except Exception as exc:
        return _failure(exc)
    return ("ok", repr(unit))


def _parse_decimal(source: str) -> ast.CompilationUnit:
    return Parser(DecimalLexer(source).tokens()).parse_unit()


def _tokenize_decimal(source: str) -> List[Token]:
    return DecimalLexer(source).tokens()


def oracle_outcomes(source: str) -> tuple:
    """(lex outcome, parse outcome) of the verbatim oracle."""
    return lex_outcome(tokenize, source), parse_outcome(parse, source)


def decimal_outcomes(source: str) -> tuple:
    """(lex outcome, parse outcome) of the oracle with the deviation."""
    return (lex_outcome(_tokenize_decimal, source),
            parse_outcome(_parse_decimal, source))


def expected_outcomes(source: str) -> tuple:
    """What the new frontend must produce: the verbatim oracle's
    outcomes, or the deviation's where a non-decimal digit occurs."""
    if has_non_decimal_digit(source):
        return decimal_outcomes(source)
    return oracle_outcomes(source)
