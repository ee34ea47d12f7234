"""Token definitions for the Armada language lexer."""

from __future__ import annotations

import enum

from repro.errors import SourceLoc
from repro.record import Slotted


class TokenKind(enum.Enum):
    """Kinds of tokens produced by :mod:`repro.lang.lexer`."""

    IDENT = "identifier"
    INTLIT = "integer literal"
    STRINGLIT = "string literal"
    KEYWORD = "keyword"
    PUNCT = "punctuation"
    EOF = "end of file"


#: Reserved words of the Armada language (Figure 7 plus proof syntax).
KEYWORDS = frozenset(
    {
        # declarations
        "level", "proof", "method", "var", "ghost", "struct", "refinement",
        # types
        "uint8", "uint16", "uint32", "uint64",
        "int8", "int16", "int32", "int64",
        "int", "bool", "ptr", "seq", "set", "map", "option", "void",
        # statements
        "if", "else", "while", "break", "continue", "return",
        "assert", "assume", "somehow", "yield", "explicit_yield",
        "atomic", "label", "join", "dealloc",
        "malloc", "calloc", "create_thread",
        # specification clauses
        "requires", "ensures", "modifies", "reads", "invariant", "decreases",
        # expressions
        "true", "false", "null", "old", "allocated", "allocated_array",
        "forall", "exists", "in", "then",
        # recipe / strategy names are ordinary identifiers, but these recipe
        # directives are reserved:
        "use_regions", "use_address_invariant", "extern",
    }
)

#: Multi-character punctuation, longest first so the lexer can match greedily.
PUNCTUATIONS = (
    "::=", "==>", "<==", "&&", "||", "==", "!=", "<=", ">=", "<<", ">>",
    ":=", "->", "{:", "..",
    "(", ")", "{", "}", "[", "]", "<", ">", ",", ";", ":", ".",
    "+", "-", "*", "/", "%", "&", "|", "^", "!", "~", "=", "?", "$", "@",
)


class Token(Slotted):
    """A single lexed token.  Immutable by convention."""

    __slots__ = ("kind", "text", "loc")

    def __init__(self, kind: TokenKind, text: str, loc: SourceLoc) -> None:
        self.kind = kind
        self.text = text
        self.loc = loc

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<eof>"
        return self.text
