"""Tests for the Armada lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import KEYWORDS, PUNCTUATIONS, TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        tokens = tokenize("best_len")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].text == "best_len"

    def test_keyword(self):
        tokens = tokenize("while")
        assert tokens[0].kind is TokenKind.KEYWORD

    def test_identifier_with_prime(self):
        assert texts("x'") == ["x'"]

    def test_decimal_literal(self):
        tokens = tokenize("10000")
        assert tokens[0].kind is TokenKind.INTLIT
        assert int(tokens[0].text) == 10000

    def test_hex_literal(self):
        tokens = tokenize("0xFFFFFFFF")
        assert int(tokens[0].text, 0) == 0xFFFFFFFF

    def test_string_literal(self):
        tokens = tokenize('"s.s.globals.mutex == $me"')
        assert tokens[0].kind is TokenKind.STRINGLIT
        assert "$me" in tokens[0].text

    def test_string_escapes(self):
        tokens = tokenize(r'"a\nb\"c"')
        assert tokens[0].text == 'a\nb"c'

    def test_meta_variable(self):
        tokens = tokenize("$me $sb_empty")
        assert tokens[0].text == "$me"
        assert tokens[1].text == "$sb_empty"
        assert tokens[0].kind is TokenKind.IDENT


class TestPunctuation:
    def test_tso_bypass_assign_is_one_token(self):
        assert texts("x ::= y") == ["x", "::=", "y"]

    def test_ordinary_assign(self):
        assert texts("x := y") == ["x", ":=", "y"]

    def test_implication(self):
        assert texts("a ==> b") == ["a", "==>", "b"]

    def test_shift_operators(self):
        assert texts("a << b >> c") == ["a", "<<", "b", ">>", "c"]

    def test_comparison_greedy(self):
        assert texts("a <= b") == ["a", "<=", "b"]

    def test_logical_operators(self):
        assert texts("a && b || !c") == ["a", "&&", "b", "||", "!", "c"]


class TestComments:
    def test_line_comment(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x */ b") == ["a", "b"]

    def test_block_comment_multiline(self):
        assert texts("a /* x\ny\nz */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].loc.line == 1
        assert tokens[1].loc.line == 2
        assert tokens[1].loc.column == 3

    def test_filename_propagates(self):
        tokens = tokenize("a", filename="test.arm")
        assert tokens[0].loc.filename == "test.arm"


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a ` b")

    def test_identifier_after_number(self):
        with pytest.raises(LexError):
            tokenize("123abc")

    def test_malformed_hex(self):
        with pytest.raises(LexError):
            tokenize("0x")

    def test_bad_escape(self):
        with pytest.raises(LexError):
            tokenize(r'"\q"')

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"never closed')


class TestErrorMessages:
    """Every LexError path, with the message and location the lexer
    has always reported."""

    @pytest.mark.parametrize("source, message, line, column", [
        ("a\n  ` b", "unexpected character '`'", 2, 3),
        ("a\t#", "unexpected character '#'", 1, 3),
        # reported at the `/*` or `"` that opens the construct
        ("x /* never\nclosed", "unterminated block comment", 1, 3),
        ('x := "never\nclosed', "unterminated string literal", 1, 6),
        # reported at the escaped character (or where it is missing)
        ('y\n  "ab\\qc"', "bad escape \\q", 2, 7),
        ('z "\\', "bad escape \\", 1, 5),
        ("0x", "malformed hex literal", 1, 1),
        ("0xg", "malformed hex literal", 1, 1),
        ("\n\n   0x;", "malformed hex literal", 3, 4),
        # reported at the first character after the number
        ("123abc", "identifier immediately after number", 1, 4),
        ("20x02", "identifier immediately after number", 1, 3),
        ("0x1g", "identifier immediately after number", 1, 4),
        ("x := 12_3;", "identifier immediately after number", 1, 8),
        ("x := 1é", "identifier immediately after number", 1, 7),
    ])
    def test_message_and_location(self, source, message, line, column):
        with pytest.raises(LexError) as caught:
            tokenize(source)
        assert caught.value.message == message
        assert (caught.value.loc.line, caught.value.loc.column) == (
            line, column)


class TestLeadingZeros:
    def test_decimal_literal_with_leading_zero_is_an_error(self):
        with pytest.raises(LexError) as caught:
            tokenize("var x: uint32 :=\n   0255;")
        assert caught.value.message == "leading zeros in decimal literal 0255"
        assert (caught.value.loc.line, caught.value.loc.column) == (2, 4)

    @pytest.mark.parametrize("text", ["0", "00", "000", "0x0F", "0X00ff",
                                      "10", "100"])
    def test_literals_python_accepts_stay_valid(self, text):
        token = tokenize(text)[0]
        assert token.kind is TokenKind.INTLIT
        assert token.text == text
        int(token.text, 0)


#: Tokens that lex back to themselves when separated by trivia.
_WORDS = ["x", "best_len", "x'", "_t0", "$me", "$sb_empty", "é", "while",
          "if", "in", "uint32", "ghost"]
_NUMBERS = ["0", "7", "42", "0x1F", "0XAB", "00"]
_STRINGS = [('"p == $me"', "p == $me"), ('"a\\nb"', "a\nb"),
            ('"q\\"\\\\"', 'q"\\'), ('""', "")]
# Comments start with a space, so that none fuses with a `/` before it.
_TRIVIA = [" ", "  ", "\t", "\n", "\r\n", " // note\n", " /* c */",
           " /* two\nlines */ "]


@st.composite
def _token_layout(draw):
    """A source text and the (kind, text, line, column) of each token
    placed in it."""
    pieces = []
    for _ in range(draw(st.integers(0, 12))):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            word = draw(st.sampled_from(_WORDS))
            kind = (TokenKind.KEYWORD if word in KEYWORDS
                    else TokenKind.IDENT)
            pieces.append((word, kind, word))
        elif choice == 1:
            number = draw(st.sampled_from(_NUMBERS))
            pieces.append((number, TokenKind.INTLIT, number))
        elif choice == 2:
            raw, text = draw(st.sampled_from(_STRINGS))
            pieces.append((raw, TokenKind.STRINGLIT, text))
        else:
            punct = draw(st.sampled_from(PUNCTUATIONS))
            pieces.append((punct, TokenKind.PUNCT, punct))
    source, expected = "", []
    line, column = 1, 1
    for raw, kind, text in pieces:
        # Trivia between every pair, so no two tokens can fuse.
        gap = "".join(draw(st.lists(st.sampled_from(_TRIVIA),
                                    min_size=1, max_size=3)))
        for chunk in (gap, raw):
            if chunk is raw:
                expected.append((kind, text, line, column))
            source += chunk
            if "\n" in chunk:
                line += chunk.count("\n")
                column = len(chunk) - chunk.rindex("\n")
            else:
                column += len(chunk)
    return source, expected


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_token_layout())
    def test_tokens_lex_back_where_they_were_placed(self, layout):
        source, expected = layout
        tokens = tokenize(source)
        assert tokens[-1].kind is TokenKind.EOF
        assert [(t.kind, t.text, t.loc.line, t.loc.column)
                for t in tokens[:-1]] == expected
