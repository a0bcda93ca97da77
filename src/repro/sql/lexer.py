"""Tokenizer for the benchmark SQL dialect."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SQLSyntaxError

KEYWORDS = {
    "select", "from", "where", "and", "or", "as", "in", "not", "like",
    "between", "is", "null", "group", "order", "by", "asc", "desc", "limit",
    "min", "max", "count", "sum", "avg", "distinct",
    "join", "inner", "left", "right", "full", "on",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    COMMA = "comma"
    DOT = "dot"
    LPAREN = "lparen"
    RPAREN = "rparen"
    STAR = "star"
    SEMICOLON = "semicolon"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """A lexical token with its position in the original text."""

    ttype: TokenType
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.ttype is TokenType.KEYWORD and self.value == word.lower()


_OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">")


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text, raising :class:`SQLSyntaxError` on unexpected characters."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "'":
            j = i + 1
            buf = []
            while j < n:
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":  # escaped quote
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(text[j])
                j += 1
            if j >= n:
                raise SQLSyntaxError("unterminated string literal", position=i)
            tokens.append(Token(TokenType.STRING, "".join(buf), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit() and _prev_is_value_position(tokens)):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(Token(TokenType.NUMBER, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, lowered, i))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, word, i))
            i = j
            continue
        matched_op = None
        for op in _OPERATORS:
            if text.startswith(op, i):
                matched_op = op
                break
        if matched_op is not None:
            tokens.append(Token(TokenType.OPERATOR, matched_op, i))
            i += len(matched_op)
            continue
        if ch == ",":
            tokens.append(Token(TokenType.COMMA, ch, i))
        elif ch == ".":
            tokens.append(Token(TokenType.DOT, ch, i))
        elif ch == "(":
            tokens.append(Token(TokenType.LPAREN, ch, i))
        elif ch == ")":
            tokens.append(Token(TokenType.RPAREN, ch, i))
        elif ch == "*":
            tokens.append(Token(TokenType.STAR, ch, i))
        elif ch == ";":
            tokens.append(Token(TokenType.SEMICOLON, ch, i))
        else:
            raise SQLSyntaxError(f"unexpected character {ch!r}", position=i)
        i += 1
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _prev_is_value_position(tokens: list[Token]) -> bool:
    """Whether a ``-`` at the current position starts a negative number literal."""
    if not tokens:
        return False
    prev = tokens[-1]
    return prev.ttype in (TokenType.OPERATOR, TokenType.COMMA, TokenType.LPAREN) or prev.is_keyword(
        "between"
    ) or prev.is_keyword("and") or prev.is_keyword("in")
