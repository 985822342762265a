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

Parsing is linear in the text and holds one token at a time: one regex
scan yields the tokens (kind, value, position), and one loop over them
builds the term dict.  A character no token starts with is a
PolyParseError at its position, and every other error names the position
of the token it stopped at.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator

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
    table = {ctx.slot_name(i): i for i in range(ctx.slot_count)}
    if "x0" in table:
        table.setdefault("t", table["x0"])
    return table


def parse_poly(text: str, ctx: VarContext) -> Polynomial:
    """Exact parse of the text grammar into the given context.

    One pass over the token stream; (kind, val, pos) is always the first
    token not yet consumed.  A bad character anywhere in the text is the
    error reported, ahead of any grammar error, so the rest of the text is
    scanned before a grammar error is raised.
    """
    tokens = _tokenize(text)
    take = tokens.__next__
    slots = _slot_table(ctx)
    width = ctx.slot_count
    terms = {}
    sign = 1
    try:
        kind, val, pos = take()
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            kind, val, pos = take()
        while True:
            coeff = None
            if kind == "int":
                coeff = val
                kind, val, pos = take()
                if kind == "op" and val == "/":
                    kind, val, pos = take()
                    if kind != "int":
                        raise PolyParseError("expected a denominator", pos)
                    if val == 0:
                        raise PolyParseError("zero denominator", pos)
                    coeff = Fraction(coeff, val)
                    kind, val, pos = take()
                if kind == "op" and val == "*":
                    kind, val, pos = take()
                    if kind != "name":
                        raise PolyParseError("expected a variable after '*'", pos)
            exps = [0] * width
            saw_factor = False
            while kind == "name":
                slot = slots.get(val)
                if slot is None:
                    raise PolyParseError(f"unknown variable {val!r} for this ring", pos)
                kind, val, pos = take()
                if kind == "op" and val == "^":
                    kind, val, pos = take()
                    if kind != "int":
                        raise PolyParseError("expected an exponent", pos)
                    exps[slot] += val
                    kind, val, pos = take()
                else:
                    exps[slot] += 1
                saw_factor = True
                if kind == "op" and val == "*":
                    kind, val, pos = take()
                    if kind != "name":
                        raise PolyParseError("expected a variable after '*'", pos)
            if coeff is None:
                if not saw_factor:
                    raise PolyParseError("expected a term", pos)
                coeff = 1
            e = tuple(exps)
            terms[e] = terms.get(e, 0) + sign * coeff
            if kind == "end":
                break
            if kind != "op" or val not in "+-":
                raise PolyParseError(f"unexpected {val!r}", pos)
            sign = -1 if val == "-" else 1
            kind, val, pos = take()
    except PolyParseError:
        for _ in tokens:
            pass
        raise
    return Polynomial(ctx, terms)


def _coeff_str(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def iter_format_text(f: Polynomial) -> Iterator[str]:
    """Stream the text rendering term by term, leading term first."""
    if f.is_zero():
        yield "0"
        return
    ctx = f.context
    first = True
    for e, c in f.sorted_terms():
        neg = c < 0
        mag = -c if neg else c
        if first:
            prefix = "-" if neg else ""
            first = False
        else:
            prefix = " - " if neg else " + "
        factors = []
        for i, k in enumerate(e):
            if k == 0:
                continue
            name = ctx.slot_name(i)
            factors.append(name if k == 1 else f"{name}^{k}")
        if not factors:
            yield f"{prefix}{_coeff_str(mag)}"
        elif mag == 1:
            yield prefix + "*".join(factors)
        else:
            yield f"{prefix}{_coeff_str(mag)}*" + "*".join(factors)


def _ring_json(ctx: VarContext) -> str:
    kind = {"x": "x", "u": "u", "gen": "gen"}.get(ctx.kind.value)
    if kind is None:
        raise ValueError("only x, u and generator rings serialize to JSON")
    return f'{{"kind":"{kind}","n":{ctx.n}}}'


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
    """Inverse of the JSON rendering, given the matching context."""
    import json as _json
    if isinstance(data, str):
        data = _json.loads(data)
    terms = {}
    for t in data["terms"]:
        c = t["c"]
        coeff = Fraction(c) if "/" in c else int(c)
        terms[tuple(t["e"])] = coeff
    return Polynomial(ctx, terms)
