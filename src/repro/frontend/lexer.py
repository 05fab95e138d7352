"""Tokeniser for the supported C subset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import LexError

KEYWORDS = {
    "void", "int", "double", "float", "for", "if", "else", "return", "const",
}

# Multi-character operators first so maximal munch works.
OPERATORS = [
    "++", "--", "+=", "-=", "*=", "/=", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!",
]

PUNCTUATION = ["(", ")", "[", "]", "{", "}", ",", ";"]


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "keyword", "int", "float", "op", "punct", "eof"
    text: str
    line: int
    column: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


class Lexer:
    """A straightforward hand-rolled scanner with line/column tracking."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- helpers -----------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.pos : self.pos + count]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return text

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
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self.pos >= len(self.source):
                    raise LexError("unterminated block comment", self.line, self.column)
                self._advance(2)
            elif ch == "#":
                # Preprocessor lines are ignored (the subset needs none).
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    # -- scanning ---------------------------------------------------------------

    def tokens(self) -> List[Token]:
        result: List[Token] = []
        while True:
            token = self.next_token()
            result.append(token)
            if token.kind == "eof":
                return result

    def next_token(self) -> Token:
        self._skip_trivia()
        if self.pos >= len(self.source):
            return Token("eof", "", self.line, self.column)
        line, column = self.line, self.column
        ch = self._peek()
        if ch.isalpha() or ch == "_":
            text = self._scan_ident()
            kind = "keyword" if text in KEYWORDS else "ident"
            return Token(kind, text, line, column)
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            text, is_float = self._scan_number()
            return Token("float" if is_float else "int", text, line, column)
        for op in OPERATORS:
            if self.source.startswith(op, self.pos):
                self._advance(len(op))
                return Token("op", op, line, column)
        if ch in PUNCTUATION:
            self._advance()
            return Token("punct", ch, line, column)
        raise LexError(f"unexpected character {ch!r}", line, column)

    def _scan_ident(self) -> str:
        start = self.pos
        while self.pos < len(self.source) and (
            self._peek().isalnum() or self._peek() == "_"
        ):
            self._advance()
        return self.source[start : self.pos]

    def _scan_number(self) -> tuple:
        start = self.pos
        is_float = False
        while self._peek().isdigit():
            self._advance()
        if self._peek() == ".":
            is_float = True
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() in "eE":
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            if not self._peek().isdigit():
                raise LexError("malformed exponent", self.line, self.column)
            while self._peek().isdigit():
                self._advance()
        return self.source[start : self.pos], is_float


def tokenize(source: str) -> List[Token]:
    """All tokens of ``source`` including the trailing EOF token."""
    return Lexer(source).tokens()
