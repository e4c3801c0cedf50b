"""Tokenizer for MiniGo, the Go subset analyzed by this reproduction.

MiniGo keeps Go's surface syntax for everything GCatch/GFix care about:
goroutines, channels, ``select``, ``defer``, mutexes, struct types, and the
``testing`` idioms. Every token carries a precise source position so that
detector reports and GFix patches can refer back to source lines, exactly as
the paper's tooling does via ``go/ast``.

The scanner is one compiled master regex matched over the whole source:
each alternative is a named group (newline, blanks, comments, identifiers,
integers, strings, operators), and one loop dispatches on the group that
matched. Lines and columns come from a running line-start offset, so no
code runs per character. ``tests/lexer_oracle.py`` keeps the
character-at-a-time lexer this one replaced; the parity suite holds the
two token streams, and their errors, identical.
"""

from __future__ import annotations

import re
from typing import List

KEYWORDS = frozenset(
    [
        "package",
        "import",
        "func",
        "type",
        "struct",
        "interface",
        "var",
        "const",
        "chan",
        "go",
        "defer",
        "select",
        "case",
        "default",
        "if",
        "else",
        "for",
        "range",
        "return",
        "break",
        "continue",
        "switch",
        "map",
        "nil",
        "true",
        "false",
    ]
)

# keyword -> whether a newline after it inserts ";"
_KEYWORD_ENDS_LINE = {
    word: word in ("return", "break", "continue", "true", "false", "nil")
    for word in KEYWORDS
}

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# Alternatives are tried in order at each offset, and every offset matches
# one of them (``bad`` takes any single character), so consecutive matches
# tile the source. Comments precede the operators so that ``//`` and ``/*``
# never lex as ``/``; operators are longest first, for maximal munch. The
# closers are the operators after which a newline inserts ";". A ``word``
# starts with a non-ASCII word character and is an identifier only when
# that character is a letter (``str.isalpha``): ``[^\W\d]`` would also
# start one at ``²`` or ``Ⅻ``.
_MASTER = re.compile(
    r"""
    (?P<ident>[A-Za-z_]\w*)
  | (?P<blank>[ \t\r]+)
  | (?P<nl>\n[ \t\r]*)
  | (?P<closer>[)}\]]|\+\+|--)
  | (?P<comment>//[^\n]*)
  | (?P<block>/\*[\s\S]*?\*/)
  | (?P<unclosed>/\*)
  | (?P<op><-|:=|==|!=|<=|>=|&&|\|\||\+=|-=|\.\.\.|[-+*/%<>=!&|({\[,;:.])
  | (?P<int>[0-9]+)
  | (?P<string>"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*")
  | (?P<word>\w+)
  | (?P<bad>[\s\S])
    """,
    re.VERBOSE,
)

# The body of a string literal up to its first fault: end of input, a raw
# newline, or a backslash with nothing after it.
_STRING_BODY = re.compile(r'[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*')
_ESCAPE = re.compile(r"\\([\s\S])")


def _unescape(match: "re.Match[str]") -> str:
    char = match.group(1)
    return _ESCAPES.get(char, char)


class LexError(Exception):
    """Raised when the source contains a character sequence MiniGo cannot lex."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Token:
    """A single lexical token with its source position (1-based line/col).

    Tokens are values: two are equal when their four fields are, and
    nothing changes a token once the scanner has made it. A ``__slots__``
    class, because it is smaller than a frozen dataclass or a named tuple
    and builds at least as fast, and a large file's tokens are all live
    while the parser runs.
    """

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # 'ident', 'int', 'string', 'keyword', 'op', 'eof'
        self.text = text
        self.line = line
        self.col = col

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (self.kind, self.text, self.line, self.col) == (
            other.kind, other.text, other.line, other.col
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.line, self.col))

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word

    def is_op(self, op: str) -> bool:
        return self.kind == "op" and self.text == op

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind!r}, {self.text!r}, {self.line}:{self.col})"


def _string_error(source: str, start: int) -> str:
    """Why the string literal opening at ``start`` does not close."""
    end = _STRING_BODY.match(source, start + 1).end()
    if end == len(source):
        return "unterminated string literal"
    if source[end] == "\n":
        return "newline in string literal"
    return "unterminated escape"


def tokenize(source: str, filename: str = "<minigo>") -> List[Token]:
    """Lex ``source`` into a token list ending in EOF.

    Implements Go's automatic semicolon insertion rule: a newline after an
    identifier, literal, ``return``/``break``/``continue``, ``++``/``--``,
    or a closing bracket inserts a ``;`` token. This lets the parser treat
    statements uniformly, as Go's own scanner does. A comment inserts none,
    even one that spans lines.
    """
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of ``line``
    ends_line = False  # would a newline here insert ";"?
    for match in _MASTER.finditer(source):
        group = match.lastgroup
        if group == "ident":
            text = match.group()
            keyword = _KEYWORD_ENDS_LINE.get(text)
            if keyword is None:
                append(Token("ident", text, line, match.start() - line_start + 1))
                ends_line = True
            else:
                append(Token("keyword", text, line, match.start() - line_start + 1))
                ends_line = keyword
        elif group == "blank" or group == "comment":
            pass
        elif group == "nl":
            start = match.start()
            if ends_line:
                append(Token("op", ";", line, start - line_start + 1))
                ends_line = False
            line += 1
            line_start = start + 1
        elif group == "op":
            append(Token("op", match.group(), line, match.start() - line_start + 1))
            ends_line = False
        elif group == "closer":
            append(Token("op", match.group(), line, match.start() - line_start + 1))
            ends_line = True
        elif group == "int":
            append(Token("int", match.group(), line, match.start() - line_start + 1))
            ends_line = True
        elif group == "string":
            start = match.start()
            token_line, col = line, start - line_start + 1
            text = match.group()[1:-1]
            if "\\" in text:
                newlines = text.count("\n")  # each one escaped by a backslash
                if newlines:
                    line += newlines
                    line_start = start + 2 + text.rfind("\n")
                text = _ESCAPE.sub(_unescape, text)
            append(Token("string", text, token_line, col))
            ends_line = True
        elif group == "block":
            text = match.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rfind("\n") + 1
        elif group == "word" and match.group()[0].isalpha():
            # an identifier that starts with a non-ASCII letter
            append(Token("ident", match.group(), line, match.start() - line_start + 1))
            ends_line = True
        else:
            start = match.start()
            col = start - line_start + 1
            if group == "unclosed":
                raise LexError("unterminated block comment", line, col)
            char = source[start]
            if char == '"':
                raise LexError(_string_error(source, start), line, col)
            raise LexError(f"unexpected character {char!r}", line, col)
    col = len(source) - line_start + 1
    if ends_line:
        append(Token("op", ";", line, col))
    append(Token("eof", "", line, col))
    return tokens
