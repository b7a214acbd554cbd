"""Parsing and printing of multiplicative ratio expressions.

Grammar, with whitespace allowed between tokens:

    expr   := factor (('*' | '/') factor)*
    factor := '(' expr ')' ['^' integer] | name ['^' integer] | '1'
    name   := ident ['[' payload ']'] "'"*

A '/' inverts the whole factor that follows, so a/(b*c) means a * b^-1 *
c^-1, and chains associate left to right: a/b*c == (a/b)*c. Exponents are
nonzero integers, possibly negative. The bracket payload is kept verbatim
(digits, commas, '|', ...), which lets one grammar cover root labels like
x[1,0,1], Plucker coordinates like p[124], and content labels like
q[124|356]. Trailing primes belong to the name: a belt built on a seed
that is not bipartite primes the name of every node that its re-basing
path mutates (a', b''), and such names parse as they are printed.

Names are resolved through a caller-supplied function mapping the full
name string to any hashable key (or None for unknown); parse errors and
unknown names raise RatioSyntaxError carrying the 0-based position in the
input.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

__all__ = ["RatioSyntaxError", "parse_ratio", "render_ratio"]


class RatioSyntaxError(ValueError):
    """Malformed ratio expression or unknown name, with input position."""

    def __init__(self, message: str, position: int, text: str):
        super().__init__(f"{message} (position {position})")
        self.message = message
        self.position = position
        self.text = text

    def annotate(self) -> str:
        """Two-line display: the input and a caret under the bad spot."""
        return f"{self.text}\n{' ' * self.position}^ {self.message}"


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, position); kinds: name op lparen rparen caret int end."""
    out = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "*/":
            out.append(("op", ch, i))
            i += 1
        elif ch == "(":
            out.append(("lparen", ch, i))
            i += 1
        elif ch == ")":
            out.append(("rparen", ch, i))
            i += 1
        elif ch == "^":
            out.append(("caret", ch, i))
            i += 1
        elif ch == "-" or ch.isdigit():
            start = i
            if ch == "-":
                i += 1
            if i >= size or not text[i].isdigit():
                raise RatioSyntaxError("expected digits", i, text)
            while i < size and text[i].isdigit():
                i += 1
            out.append(("int", text[start:i], start))
        elif _is_ident_start(ch):
            start = i
            while i < size and _is_ident_char(text[i]):
                i += 1
            if i < size and text[i] == "[":
                close = text.find("]", i + 1)
                if close < 0:
                    raise RatioSyntaxError("unclosed '['", i, text)
                if close == i + 1:
                    raise RatioSyntaxError("empty brackets", i, text)
                i = close + 1
            while i < size and text[i] == "'":
                i += 1
            out.append(("name", text[start:i], start))
        else:
            raise RatioSyntaxError(f"unexpected character {ch!r}", i, text)
    out.append(("end", "", size))
    return out


def parse_ratio(
    text: str, resolve: Callable[[str], Hashable | None]
) -> dict[Hashable, int]:
    """Exponent dict of a ratio expression; keys come from resolve()."""
    tokens = _tokenize(text)
    pos = 0

    def peek() -> tuple[str, str, int]:
        return tokens[pos]

    def take(kind: str, what: str) -> tuple[str, str, int]:
        nonlocal pos
        tok = tokens[pos]
        if tok[0] != kind:
            raise RatioSyntaxError(f"expected {what}", tok[2], text)
        pos += 1
        return tok

    def exponent() -> int:
        nonlocal pos
        if peek()[0] != "caret":
            return 1
        pos += 1
        tok = take("int", "an integer exponent")
        e = int(tok[1])
        if e == 0:
            raise RatioSyntaxError("zero exponent", tok[2], text)
        return e

    def merge(into: dict, frm: dict, sign: int) -> None:
        for key, e in frm.items():
            new = into.get(key, 0) + sign * e
            if new:
                into[key] = new
            else:
                into.pop(key, None)

    def factor() -> dict:
        nonlocal pos
        tok = peek()
        if tok[0] == "lparen":
            pos += 1
            inner = expr()
            take("rparen", "')'")
            e = exponent()
            if e != 1:
                inner = {k: v * e for k, v in inner.items()}
            return inner
        if tok[0] == "int" and tok[1] == "1":
            pos += 1
            return {}
        if tok[0] != "name":
            raise RatioSyntaxError("expected a variable name or '('", tok[2], text)
        pos += 1
        key = resolve(tok[1])
        if key is None:
            raise RatioSyntaxError(f"unknown name {tok[1]!r}", tok[2], text)
        return {key: exponent()}

    def expr() -> dict:
        out = factor()
        while peek()[0] == "op":
            op = take("op", "an operator")[1]
            nxt = factor()
            merge(out, nxt, 1 if op == "*" else -1)
        return out

    if peek()[0] == "end":
        raise RatioSyntaxError("empty ratio", 0, text)
    result = expr()
    tail = peek()
    if tail[0] != "end":
        raise RatioSyntaxError(f"unexpected {tail[1]!r}", tail[2], text)
    return result


def render_ratio(
    vector: dict, name_of: Callable[[Hashable], str] = str
) -> str:
    """Canonical expression string: parse_ratio(render_ratio(v)) == v.

    Numerator and denominator factors are sorted by name; a denominator
    with more than one factor is parenthesized.
    """

    def side(items: Iterable[tuple[str, int]]) -> str:
        return "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in items
        )

    num = sorted((name_of(k), e) for k, e in vector.items() if e > 0)
    den = sorted((name_of(k), -e) for k, e in vector.items() if e < 0)
    if not num and not den:
        return "1"
    top = side(num) if num else "1"
    if not den:
        return top
    bottom = side(den)
    if len(den) > 1:
        bottom = f"({bottom})"
    return f"{top}/{bottom}"
