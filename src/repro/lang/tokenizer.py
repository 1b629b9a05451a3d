"""Tokenizer for the entangled-SQL dialect and the IR text syntax.

A single tokenizer serves both surface languages; the parsers simply use
different subsets of token types.  Tokens carry line/column positions so
:class:`repro.errors.ParseError` can point at the offending spot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from ..errors import ParseError

#: Keywords of the SQL dialect (matched case-insensitively).
KEYWORDS = frozenset({
    "SELECT", "INTO", "ANSWER", "WHERE", "CHOOSE", "IN", "AND", "FROM",
    "COUNT", "AS", "TABLE", "BETWEEN",
})

#: Comparison operators of both surface languages (``<>`` lexes as ``!=``).
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


class TokenType(enum.Enum):
    """Lexical category of a token."""

    IDENT = "ident"          # bare identifier (possibly dotted later)
    KEYWORD = "keyword"      # member of KEYWORDS, normalized uppercase
    STRING = "string"        # '...' literal with '' escaping
    NUMBER = "number"        # integer or float literal
    PUNCT = "punct"          # ( ) { } , . * and comparison operators
    ARROW = "arrow"          # <- or :- (IR syntax)
    END = "end"              # end of input sentinel


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token with its source position (1-based)."""

    type: TokenType
    value: object
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word

    def is_punct(self, symbol: str) -> bool:
        return self.type is TokenType.PUNCT and self.value == symbol

    def is_comparison(self) -> bool:
        return self.type is TokenType.PUNCT and self.value in COMPARISON_OPS

    def is_word(self, word: str) -> bool:  # contextual: LIMIT, DISTINCT
        return (self.type is TokenType.IDENT
                and self.value.upper() == word)  # type: ignore[union-attr]

    def __str__(self) -> str:
        if self.type is TokenType.END:
            return "<end of input>"
        return repr(self.value)


_PUNCT_TWO = ("<=", ">=", "!=", "<>")
_PUNCT_ONE = "(){},.*=<>&∧"


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*; raises ParseError on unknown characters.

    Identifier rules: ``[A-Za-z_][A-Za-z0-9_]*``; an identifier matching
    a keyword (case-insensitive) becomes a KEYWORD token with uppercase
    value.  Strings use single quotes with ``''`` as the escape for a
    literal quote.  Numbers are ints unless they contain ``.`` or an
    exponent (``1e+20``, ``5e-324``; ``1e999`` reads as infinity).
    """
    tokens: list[Token] = []
    line = 1
    column = 1
    position = 0
    length = len(text)

    def advance(count: int) -> None:
        nonlocal position, line, column
        for _ in range(count):
            if position < length and text[position] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            position += 1

    while position < length:
        char = text[position]
        if char in " \t\r\n":
            advance(1)
            continue
        if text.startswith("--", position):
            # SQL-style line comment.
            while position < length and text[position] != "\n":
                advance(1)
            continue
        start_line, start_column = line, column
        if text.startswith("<-", position) or text.startswith(":-", position):
            tokens.append(Token(TokenType.ARROW, "<-",
                                start_line, start_column))
            advance(2)
            continue
        two = text[position:position + 2]
        if two in _PUNCT_TWO:
            value = "!=" if two == "<>" else two
            tokens.append(Token(TokenType.PUNCT, value,
                                start_line, start_column))
            advance(2)
            continue
        if char == "'":
            advance(1)
            chunks: list[str] = []
            while True:
                if position >= length:
                    raise ParseError("unterminated string literal",
                                     start_line, start_column)
                if text[position] == "'":
                    if text.startswith("''", position):
                        chunks.append("'")
                        advance(2)
                        continue
                    advance(1)
                    break
                chunks.append(text[position])
                advance(1)
            tokens.append(Token(TokenType.STRING, "".join(chunks),
                                start_line, start_column))
            continue
        if char.isdigit() or (char == "-" and position + 1 < length
                              and text[position + 1].isdigit()):
            end = position + 1
            seen_dot = False
            while end < length and (text[end].isdigit()
                                    or (text[end] == "." and not seen_dot
                                        and end + 1 < length
                                        and text[end + 1].isdigit())):
                if text[end] == ".":
                    seen_dot = True
                end += 1
            exponent = end
            if exponent < length and text[exponent] in "eE":
                exponent += 1
                if exponent < length and text[exponent] in "+-":
                    exponent += 1
                if exponent < length and text[exponent].isdigit():
                    seen_dot = True  # a float, like a fraction
                    end = exponent + 1
                    while end < length and text[end].isdigit():
                        end += 1
            literal = text[position:end]
            value: object = float(literal) if seen_dot else int(literal)
            tokens.append(Token(TokenType.NUMBER, value,
                                start_line, start_column))
            advance(end - position)
            continue
        if char.isalpha() or char == "_":
            end = position + 1
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[position:end]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper,
                                    start_line, start_column))
            else:
                tokens.append(Token(TokenType.IDENT, word,
                                    start_line, start_column))
            advance(end - position)
            continue
        if char in _PUNCT_ONE:
            value = "AND_SYMBOL" if char in "&∧" else char
            if value == "AND_SYMBOL":
                tokens.append(Token(TokenType.KEYWORD, "AND",
                                    start_line, start_column))
            else:
                tokens.append(Token(TokenType.PUNCT, char,
                                    start_line, start_column))
            advance(1)
            continue
        raise ParseError(f"unexpected character {char!r}",
                         start_line, start_column)
    tokens.append(Token(TokenType.END, None, line, column))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._position = 0

    @classmethod
    def of(cls, text: str) -> "TokenStream":
        return cls(tokenize(text))

    def peek(self, ahead: int = 0) -> Token:
        index = min(self._position + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def next(self) -> Token:
        token = self.peek()
        if token.type is not TokenType.END:
            self._position += 1
        return token

    def at_end(self) -> bool:
        return self.peek().type is TokenType.END

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.next()
            return True
        return False

    def accept_punct(self, symbol: str) -> bool:
        if self.peek().is_punct(symbol):
            self.next()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        token = self.peek()
        if not token.is_keyword(word):
            raise ParseError(f"expected {word}, found {token}",
                             token.line, token.column)
        return self.next()

    def expect_punct(self, symbol: str) -> Token:
        token = self.peek()
        if not token.is_punct(symbol):
            raise ParseError(f"expected {symbol!r}, found {token}",
                             token.line, token.column)
        return self.next()

    def expect_ident(self) -> Token:
        token = self.peek()
        if token.type is not TokenType.IDENT:
            raise ParseError(f"expected identifier, found {token}",
                             token.line, token.column)
        return self.next()

    def expect_end(self) -> None:
        token = self.peek()
        if token.type is not TokenType.END:
            raise ParseError(f"unexpected trailing input: {token}",
                             token.line, token.column)
