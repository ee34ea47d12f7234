"""Lexer for the Armada language.

The surface syntax follows Figure 7 of the paper: C-like operators plus
Armada-specific forms (``::=`` for TSO-bypassing assignment, ``$me`` /
``$sb_empty`` meta variables, ``==>`` implication in specifications).
Comments use ``//`` and ``/* ... */``.

The lexer is one compiled regular expression, applied with ``match`` at
each position.  Its alternatives are tried in order, so punctuation is
listed longest first, and the error alternative (the start of an
unterminated comment or string, or of a malformed number) comes before
``/`` can match as punctuation; :func:`_lex_error` diagnoses it.
"""

from __future__ import annotations

import re

from repro.errors import LexError, SourceLoc
from repro.lang.tokens import KEYWORDS, PUNCTUATIONS, Token, TokenKind

# Group numbers of the alternatives below (``match.lastindex``).
_TRIVIA, _WORD, _NUMBER, _STRING, _ERROR, _PUNCT = range(1, 7)

_TOKEN = re.compile(
    r"([ \t\r\n]+|//[^\n]*|/\*.*?\*/)"  # whitespace and comments
    r"|(\$?[^\W\d][\w']*)"  # identifiers, keywords, $meta variables
    r"|(0[xX][0-9a-fA-F]+(?!\w)|[0-9]+(?!\w))"  # integer literals
    r'|"((?:[^"\\]|\\[nt"\\])*)"'  # string literals
    r'|(/\*|"|[0-9])'  # an unterminated comment or string, a bad number
    r"|(" + "".join(re.escape(p) + "|" for p in PUNCTUATIONS if len(p) > 1)
    + "[" + "".join(re.escape(p) for p in PUNCTUATIONS if len(p) == 1)
    + "])",
    re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_LEADING_ZEROS = re.compile(r"0+[1-9]")
_STRING_PREFIX = re.compile(r'"(?:[^"\\]|\\[nt"\\])*')
_NUMBER_PREFIX = re.compile(r"0[xX][0-9a-fA-F]*|[0-9]+")


def tokenize(source: str, filename: str = "<armada>") -> list[Token]:
    """Lex *source* into a token list terminated by an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of `line`
    end = len(source)
    while pos < end:
        m = match(source, pos)
        if m is None:
            raise LexError(
                f"unexpected character {source[pos]!r}",
                SourceLoc(line, pos - line_start + 1, filename),
            )
        group = m.lastindex
        text = m.group()
        if group != _TRIVIA:
            loc = SourceLoc(line, pos - line_start + 1, filename)
            if group == _WORD:
                kind = (TokenKind.KEYWORD if text in KEYWORDS
                        else TokenKind.IDENT)
                append(Token(kind, text, loc))
            elif group == _PUNCT:
                append(Token(TokenKind.PUNCT, text, loc))
            elif group == _NUMBER:
                if _LEADING_ZEROS.match(text):
                    raise LexError(
                        f"leading zeros in decimal literal {text}", loc)
                append(Token(TokenKind.INTLIT, text, loc))
            elif group == _STRING:
                body = m.group(_STRING)
                if "\\" in body:
                    body = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], body)
                append(Token(TokenKind.STRINGLIT, body, loc))
            else:
                _lex_error(source, pos, line, line_start, filename)
        if "\n" in text:  # whitespace, comments and strings span lines
            line += text.count("\n")
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    append(Token(TokenKind.EOF, "", SourceLoc(line, pos - line_start + 1,
                                              filename)))
    return tokens


def _lex_error(source: str, pos: int, line: int, line_start: int,
               filename: str) -> None:
    """Raise the :class:`LexError` for the malformed token at *pos*: an
    unterminated block comment or string, a bad string escape, or a
    malformed number."""

    def at(offset: int) -> SourceLoc:
        text = source[pos:offset]
        if "\n" not in text:
            return SourceLoc(line, offset - line_start + 1, filename)
        return SourceLoc(line + text.count("\n"),
                         offset - (pos + text.rindex("\n")), filename)

    if source.startswith("/*", pos):
        raise LexError("unterminated block comment", at(pos))
    if source[pos] == '"':
        stop = _STRING_PREFIX.match(source, pos).end()
        if stop == len(source):
            raise LexError("unterminated string literal", at(pos))
        # The string stops at a backslash with a bad (or no) escape.
        raise LexError(f"bad escape \\{source[stop + 1:stop + 2]}",
                       at(stop + 1))
    stop = _NUMBER_PREFIX.match(source, pos).end()
    if stop - pos == 2 and source[pos + 1] in "xX":
        raise LexError("malformed hex literal", at(pos))
    raise LexError("identifier immediately after number", at(stop))
