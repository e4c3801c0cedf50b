"""The reference MiniGo lexer: a character-at-a-time scanner.

``repro.golang.lexer`` lexes with one compiled master regex. This is the
lexer it replaced, kept only as the oracle of ``tests/test_lexer_parity.py``:
on every input the two must yield the same ``(kind, text, line, col)``
stream, or raise the same ``LexError`` at the same position. It changed
once since, in step with the scanner: integer literals are ASCII digits
only (Go's ``decimal_digit``), where ``str.isdigit`` also took ``²``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.golang.lexer import KEYWORDS, LexError, Token

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<-",
    ":=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "...",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
    "|",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ";",
    ":",
    ".",
]


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


class Lexer:
    """Converts MiniGo source text into a token stream.

    Implements Go's automatic semicolon insertion rule: a newline after an
    identifier, literal, ``return``/``break``/``continue``, ``++``/``--``, or
    a closing bracket inserts a ``;`` token. This lets the parser treat
    statements uniformly, as Go's own scanner does.
    """

    def __init__(self, source: str, filename: str = "<minigo>"):
        self.source = source
        self.filename = filename
        self._pos = 0
        self._line = 1
        self._col = 1
        self._last_significant: Optional[Token] = None

    def tokens(self) -> List[Token]:
        """Lex the whole input, returning the token list ending with EOF."""
        out: List[Token] = []
        for token in self._iter_tokens():
            out.append(token)
        return out

    # ------------------------------------------------------------------
    # internals

    def _iter_tokens(self) -> Iterator[Token]:
        while True:
            inserted = self._skip_blank()
            if inserted is not None:
                self._last_significant = None
                yield inserted
                continue
            if self._pos >= len(self.source):
                if self._needs_semicolon():
                    self._last_significant = None
                    yield Token("op", ";", self._line, self._col)
                yield Token("eof", "", self._line, self._col)
                return
            token = self._next_token()
            self._last_significant = token
            yield token

    def _skip_blank(self) -> Optional[Token]:
        """Skip whitespace and comments; return an inserted ';' if ASI fires."""
        while self._pos < len(self.source):
            ch = self.source[self._pos]
            if ch == "\n":
                if self._needs_semicolon():
                    token = Token("op", ";", self._line, self._col)
                    self._advance()
                    return token
                self._advance()
            elif ch in " \t\r":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._pos < len(self.source) and self.source[self._pos] != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._skip_block_comment()
            else:
                return None
        return None

    def _skip_block_comment(self) -> None:
        start_line, start_col = self._line, self._col
        self._advance()
        self._advance()
        while self._pos < len(self.source):
            if self.source[self._pos] == "*" and self._peek(1) == "/":
                self._advance()
                self._advance()
                return
            self._advance()
        raise LexError("unterminated block comment", start_line, start_col)

    def _needs_semicolon(self) -> bool:
        last = self._last_significant
        if last is None:
            return False
        if last.kind in ("ident", "int", "string"):
            return True
        if last.kind == "keyword":
            return last.text in ("return", "break", "continue", "true", "false", "nil")
        if last.kind == "op":
            return last.text in (")", "}", "]", "++", "--")
        return False

    def _next_token(self) -> Token:
        ch = self.source[self._pos]
        line, col = self._line, self._col
        if _is_ident_start(ch):
            return self._lex_ident(line, col)
        if _is_digit(ch):
            return self._lex_number(line, col)
        if ch == '"':
            return self._lex_string(line, col)
        for op in _OPERATORS:
            if self.source.startswith(op, self._pos):
                for _ in op:
                    self._advance()
                return Token("op", op, line, col)
        raise LexError(f"unexpected character {ch!r}", line, col)

    def _lex_ident(self, line: int, col: int) -> Token:
        start = self._pos
        while self._pos < len(self.source) and _is_ident_char(self.source[self._pos]):
            self._advance()
        text = self.source[start : self._pos]
        kind = "keyword" if text in KEYWORDS else "ident"
        return Token(kind, text, line, col)

    def _lex_number(self, line: int, col: int) -> Token:
        start = self._pos
        while self._pos < len(self.source) and _is_digit(self.source[self._pos]):
            self._advance()
        return Token("int", self.source[start : self._pos], line, col)

    def _lex_string(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            if self._pos >= len(self.source):
                raise LexError("unterminated string literal", line, col)
            ch = self.source[self._pos]
            if ch == "\n":
                raise LexError("newline in string literal", line, col)
            if ch == '"':
                self._advance()
                return Token("string", "".join(chars), line, col)
            if ch == "\\":
                self._advance()
                if self._pos >= len(self.source):
                    raise LexError("unterminated escape", line, col)
                esc = self.source[self._pos]
                chars.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                self._advance()
            else:
                chars.append(ch)
                self._advance()

    def _peek(self, offset: int) -> str:
        idx = self._pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self) -> None:
        if self.source[self._pos] == "\n":
            self._line += 1
            self._col = 1
        else:
            self._col += 1
        self._pos += 1


def tokenize(source: str, filename: str = "<minigo>") -> List[Token]:
    """The oracle's token list for ``source``, ending in EOF."""
    return Lexer(source, filename).tokens()
