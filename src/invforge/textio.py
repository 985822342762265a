"""Polynomial text and JSON formats.

Text grammar (output is bit-exact; parsing is whitespace-insensitive and
also accepts a bare coefficient term and a leading sign):

    poly   := term (('+'|'-') term)*
    term   := [coeff ['*']] factor ('*' factor)* | coeff
    factor := var ['^' uint]
    var    := 'x'uint | 'u'uint | 't' | generator name
    coeff  := int | int '/' uint

't' aliases x0.  Output renders terms in descending canonical order with
explicit '*' separators.  The JSON schema is
{"ring":{"kind":"x|u|gen","n":N},"terms":[{"c":"num[/den]","e":[...]}]}
with the same term order.

Parsing reads one term at a time: one anchored regex match takes a term's
sign, coefficient and factor list, and one findall splits the factors.
Only a text outside the grammar is scanned token by token (kind, value,
position), to name its error: a character no token starts with, anywhere
in the text, is a PolyParseError at its position, and every other error
names the position of the token it stopped at.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, NoReturn

from .rings import Polynomial, VarContext


class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# Every non-space character starts a match, so the matches tile the text up
# to trailing whitespace; group 4 catches any character no token starts with.
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([+\-*/^()])|(\S))")
_KINDS = (None, "int", "name", "op")


def _tokenize(text: str):
    """Yield (kind, value, position) per token, then ("end", None, len(text))."""
    for m in _TOKEN.finditer(text):
        i = m.lastindex
        if i == 4:
            raise PolyParseError(f"unexpected character {m.group(4)!r}", m.start(4))
        val = m.group(i)
        yield _KINDS[i], int(val) if i == 1 else val, m.start(i)
    yield "end", None, len(text)


def _slot_table(ctx: VarContext) -> dict:
    table = {name: i for i, name in enumerate(ctx.names)}
    if "x0" in table:
        table.setdefault("t", table["x0"])
    return table


# One term: sign, then numerator / denominator, then the factor list.  A
# '*' is taken only where a factor follows it, and names and integers are
# maximal, so the matches split the text exactly where the tokens do.
_STAR = r"(?:\s*\*(?=\s*[A-Za-z_]))?"
_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+)(?:\s*/\s*(\d+))?" + _STAR + r")?"
                   r"((?:\s*[A-Za-z_]\w*(?:\s*\^\s*\d+)?" + _STAR + r")*)\s*")
_FACTOR = re.compile(r"([A-Za-z_]\w*)(?:\s*\^\s*(\d+))?")


def parse_poly(text: str, ctx: VarContext) -> Polynomial:
    """Exact parse of the text grammar into the given context.

    One regex match per term.  A text the matches cannot tile, or a term
    with an unknown variable or a zero denominator, is outside the grammar.
    """
    slots = _slot_table(ctx)
    width = ctx.slot_count
    terms = {}
    pos, end = 0, len(text)
    while pos < end or not terms:
        m = _TERM.match(text, pos)
        sign, num, den, factors = m.groups()
        if (sign is None and pos) or not (num or factors) or den and not int(den):
            _raise_parse_error(text, ctx)
        coeff = 1 if num is None else int(num)
        if den is not None:
            coeff = Fraction(coeff, int(den))
        exps = [0] * width
        for name, k in _FACTOR.findall(factors):
            slot = slots.get(name)
            if slot is None:
                _raise_parse_error(text, ctx)
            exps[slot] += int(k) if k else 1
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + (-coeff if sign == "-" else coeff)
        pos = m.end()
    return Polynomial(ctx, terms)


def _raise_parse_error(text: str, ctx: VarContext) -> NoReturn:
    """Walk the tokens of a text outside the grammar and raise its error.

    (kind, val, pos) is always the first token not yet consumed.  A bad
    character anywhere in the text is the error reported, ahead of any
    grammar error, so the rest of the text is scanned before a grammar
    error is raised.
    """
    tokens = _tokenize(text)
    take = tokens.__next__
    slots = _slot_table(ctx)
    try:
        kind, val, pos = take()
        if kind == "op" and val in "+-":
            kind, val, pos = take()
        while True:
            empty = kind != "int"
            if kind == "int":
                kind, val, pos = take()
                if kind == "op" and val == "/":
                    kind, val, pos = take()
                    if kind != "int":
                        raise PolyParseError("expected a denominator", pos)
                    if val == 0:
                        raise PolyParseError("zero denominator", pos)
                    kind, val, pos = take()
                if kind == "op" and val == "*":
                    kind, val, pos = take()
                    if kind != "name":
                        raise PolyParseError("expected a variable after '*'", pos)
            while kind == "name":
                if val not in slots:
                    raise PolyParseError(f"unknown variable {val!r} for this ring", pos)
                empty = False
                kind, val, pos = take()
                if kind == "op" and val == "^":
                    kind, val, pos = take()
                    if kind != "int":
                        raise PolyParseError("expected an exponent", pos)
                    kind, val, pos = take()
                if kind == "op" and val == "*":
                    kind, val, pos = take()
                    if kind != "name":
                        raise PolyParseError("expected a variable after '*'", pos)
            if empty:
                raise PolyParseError("expected a term", pos)
            if kind == "end":
                break
            if kind != "op" or val not in "+-":
                raise PolyParseError(f"unexpected {val!r}", pos)
            kind, val, pos = take()
    except PolyParseError:
        for _ in tokens:
            pass
        raise
    raise RuntimeError("parse_poly rejected a text of the grammar")


def _coeff_str(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def iter_format_text(f: Polynomial) -> Iterator[str]:
    """Stream the text rendering term by term, leading term first."""
    if f.is_zero():
        yield "0"
        return
    names = f.context.names
    first = True
    for e, c in f.sorted_terms():
        neg = c < 0
        mag = -c if neg else c
        if first:
            prefix = "-" if neg else ""
            first = False
        else:
            prefix = " - " if neg else " + "
        factors = [name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k]
        if not factors:
            yield f"{prefix}{_coeff_str(mag)}"
        elif mag == 1:
            yield prefix + "*".join(factors)
        else:
            yield f"{prefix}{_coeff_str(mag)}*" + "*".join(factors)


def _ring_json(ctx: VarContext) -> str:
    return f'{{"kind":"{ctx.kind.value}","n":{ctx.n}}}'


def iter_format_json(f: Polynomial) -> Iterator[str]:
    """Stream the JSON rendering without buffering the whole object."""
    yield f'{{"ring":{_ring_json(f.context)},"terms":['
    first = True
    for e, c in f.sorted_terms():
        sep = "" if first else ","
        first = False
        exps = ",".join(str(k) for k in e)
        yield f'{sep}{{"c":"{_coeff_str(c)}","e":[{exps}]}}'
    yield "]}"


def format_poly(f: Polynomial, style: str = "text") -> str:
    if style == "text":
        return "".join(iter_format_text(f))
    if style == "json":
        return "".join(iter_format_json(f))
    raise ValueError(f"unknown style {style!r}")


def parse_poly_json(data, ctx: VarContext) -> Polynomial:
    """Inverse of the JSON rendering, given the matching context.

    Repeated exponent lists are summed, as in the text format.  Every
    malformed document is a ValueError: text that is not JSON, a ring
    header of another kind or n, a missing key, a value of the wrong type,
    a misfit exponent list or a coefficient that is not a rational string.
    """
    import json as _json
    try:
        if isinstance(data, str):
            data = _json.loads(data)
        ring = data.get("ring")
        if ring is not None and (ring.get("kind"), ring.get("n")) != (ctx.kind.value, ctx.n):
            raise ValueError(f"JSON ring {ring} is not the {ctx.kind.value} ring with n={ctx.n}")
        terms = {}
        for t in data["terms"]:
            e = tuple(t["e"])
            if len(e) != ctx.slot_count or any(type(k) is not int or k < 0 for k in e):
                raise ValueError(f"exponent list {list(e)} does not fit {ctx.slot_count} slots")
            c = t["c"]
            terms[e] = terms.get(e, 0) + (Fraction(c) if "/" in c else int(c))
    except (AttributeError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed polynomial JSON: {type(exc).__name__}: {exc}") from exc
    return Polynomial(ctx, terms)
