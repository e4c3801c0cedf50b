"""Unit tests for the MiniGo lexer."""

import pytest
from hypothesis import given, strategies as st

from repro.golang.lexer import LexError, Token, tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source) if t.kind != "eof"]


class TestBasicTokens:
    def test_identifiers(self):
        assert kinds("foo bar_baz _x") == [
            ("ident", "foo"),
            ("ident", "bar_baz"),
            ("ident", "_x"),
            ("op", ";"),
        ]

    def test_keywords(self):
        out = kinds("func go chan select defer")
        assert all(kind == "keyword" for kind, _ in out)

    def test_integers(self):
        assert ("int", "42") in kinds("x := 42")

    def test_string_literal(self):
        tokens = tokenize('"hello world"')
        assert tokens[0].kind == "string"
        assert tokens[0].text == "hello world"

    def test_string_escapes(self):
        tokens = tokenize(r'"a\nb\tc\"d"')
        assert tokens[0].text == 'a\nb\tc"d'

    def test_operators_maximal_munch(self):
        assert kinds("a <- b")[1] == ("op", "<-")
        assert kinds("a := b")[1] == ("op", ":=")
        assert kinds("a <= b")[1] == ("op", "<=")
        assert kinds("a < -b")[1] == ("op", "<")

    def test_channel_arrow_vs_less(self):
        out = [t.text for t in tokenize("ch <- 1") if t.kind == "op"]
        assert "<-" in out

    def test_positions_are_one_based(self):
        tokens = tokenize("x\ny")
        assert (tokens[0].line, tokens[0].col) == (1, 1)
        y = [t for t in tokens if t.text == "y"][0]
        assert (y.line, y.col) == (2, 1)

    def test_eof_token_present(self):
        assert tokenize("")[-1].kind == "eof"


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("x // comment\ny") == [
            ("ident", "x"),
            ("op", ";"),
            ("ident", "y"),
            ("op", ";"),
        ]

    def test_block_comment_skipped(self):
        assert kinds("a /* b c */ d")[:2] == [("ident", "a"), ("ident", "d")]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")


class TestSemicolonInsertion:
    def test_inserted_after_ident_at_newline(self):
        out = kinds("x\ny")
        assert out[1] == ("op", ";")

    def test_inserted_after_close_paren(self):
        assert ("op", ";") in kinds("f()\ng()")

    def test_inserted_after_return(self):
        out = kinds("return\nx")
        assert out[1] == ("op", ";")

    def test_not_inserted_after_operator(self):
        out = kinds("a +\nb")
        assert ("op", ";") not in out[:2]

    def test_not_inserted_after_open_brace(self):
        out = kinds("{\nx")
        assert out[1] != ("op", ";")

    def test_inserted_at_eof(self):
        out = kinds("x")
        assert out[-1] == ("op", ";")

    def test_close_brace_else_same_line(self):
        out = kinds("} else {")
        assert ("keyword", "else") in out
        assert ("op", ";") not in out


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a # b")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"line\nbreak"')

    def test_error_carries_position(self):
        try:
            tokenize("ok\n   #")
        except LexError as err:
            assert err.line == 2
        else:  # pragma: no cover
            pytest.fail("expected LexError")


class TestDigits:
    """Integer literals are ASCII digits (Go's ``decimal_digit``).
    ``str.isdigit`` is also true for 778 other code points; ``x := ²``
    once lexed ``²`` as an integer, and ``int("²")`` then raised
    ``ValueError`` out of the parser."""

    @pytest.mark.parametrize("digit", ["²", "٣", "５"])
    def test_non_ascii_digit_is_unexpected(self, digit):
        with pytest.raises(LexError) as excinfo:
            tokenize(f"x := {digit}")
        assert (excinfo.value.line, excinfo.value.col) == (1, 6)
        assert f"unexpected character {digit!r}" in str(excinfo.value)

    def test_non_ascii_digit_ends_an_integer(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("x := 1²")
        assert excinfo.value.col == 7

    def test_front_end_rejects_with_a_lex_error(self):
        from repro.ssa.builder import build_program

        with pytest.raises(LexError):
            build_program("package main\n\nfunc main() {\n\tx := ²\n\tprintln(x)\n}\n")

    def test_non_ascii_digits_and_numerals_continue_an_identifier(self):
        assert kinds("a² bⅫ c٣") == [
            ("ident", "a²"),
            ("ident", "bⅫ"),
            ("ident", "c٣"),
            ("op", ";"),
        ]

    @pytest.mark.parametrize("char", ["Ⅻ", "¼"])
    def test_numerals_cannot_start_an_identifier(self, char):
        with pytest.raises(LexError):
            tokenize(char + "x")

    def test_non_ascii_letter_starts_an_identifier(self):
        assert kinds("été") == [("ident", "été"), ("op", ";")]


class TestPositions:
    def test_backslash_newline_in_a_string_advances_the_line(self):
        tokens = tokenize('s := "a\\\nb" + t')
        string = tokens[2]
        assert (string.kind, string.text, string.line) == ("string", "a\nb", 1)
        t = [tok for tok in tokens if tok.text == "t"][0]
        assert (t.line, t.col) == (2, 6)

    def test_multi_line_block_comment_inserts_no_semicolon(self):
        tokens = tokenize("x /* one\ntwo */ y")
        assert [(t.kind, t.text) for t in tokens] == [
            ("ident", "x"), ("ident", "y"), ("op", ";"), ("eof", ""),
        ]
        assert (tokens[1].line, tokens[1].col) == (2, 8)

    def test_inserted_semicolon_sits_at_the_newline(self):
        tokens = tokenize("f()\n\tg")
        assert tokens[3] == Token("op", ";", 1, 4)
        assert (tokens[4].line, tokens[4].col) == (2, 2)

    def test_eof_position(self):
        assert tokenize("x\n  ")[-1] == Token("eof", "", 2, 3)


class TestTokenValue:
    def test_tokens_compare_by_value(self):
        assert tokenize("go x") == tokenize("go x")
        assert Token("op", ";", 1, 2) != Token("op", ";", 1, 3)

    def test_fields_and_predicates(self):
        token = tokenize("go")[0]
        assert (token.kind, token.text, token.line, token.col) == ("keyword", "go", 1, 1)
        assert token.is_keyword("go") and not token.is_keyword("chan")
        assert not token.is_op("go")


class TestProperties:
    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu")), min_size=1, max_size=12))
    def test_any_alpha_word_lexes_to_one_token(self, word):
        tokens = [t for t in tokenize(word) if t.kind not in ("eof",) and t.text != ";"]
        assert len(tokens) == 1
        assert tokens[0].kind in ("ident", "keyword")

    @given(st.integers(min_value=0, max_value=10**9))
    def test_integers_round_trip(self, value):
        tokens = tokenize(str(value))
        assert tokens[0].kind == "int"
        assert int(tokens[0].text) == value

    @given(
        st.lists(
            st.sampled_from(["foo", "42", "<-", ":=", "(", ")", "{", "}", "chan", "go"]),
            min_size=1,
            max_size=20,
        )
    )
    def test_space_separated_tokens_preserved(self, parts):
        source = " ".join(parts)
        texts = [t.text for t in tokenize(source) if t.kind != "eof" and t.text != ";"]
        assert texts == parts
