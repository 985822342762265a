import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from invforge import textio
from invforge.fixtures import fixture_root, load_generator_dir
from invforge.rings import Polynomial, gen_ring, u_ring, x_ring
from invforge.textio import (
    PolyParseError,
    _tokenize,
    format_poly,
    iter_format_text,
    parse_poly,
    parse_poly_json,
)

from properties import parse_poly_reference, tokenize_reference

X2, X3, U3, U4, U8 = x_ring(2), x_ring(3), u_ring(3), u_ring(4), u_ring(8)


def test_parse_literal():
    f = parse_poly("4*x0*x2^3 - 3*x1^2*x2^2", X3)
    assert f.terms == {(1, 0, 3, 0): 4, (0, 2, 2, 0): -3}


def test_parse_t_alias():
    assert parse_poly("t*u4 + 3*u2^2", U4) == parse_poly("x0*u4 + 3*u2^2", U4)


def test_parse_unknown_variable():
    with pytest.raises(PolyParseError):
        parse_poly("u9", U8)
    with pytest.raises(PolyParseError):
        parse_poly("x3", X2)


def test_parse_error_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x0 + @", X2)
    assert "position 5" in str(err.value)


def test_parse_flexible_inputs():
    assert parse_poly("-x1^2 + x0*x2", X2) == parse_poly("x0*x2 - x1^2", X2)
    assert parse_poly(" 3 * x0 ", X2) == parse_poly("3*x0", X2)
    assert parse_poly("1/2*x0", X2).terms[(1, 0, 0)] * 2 == 1
    assert parse_poly("7", X2).terms == {(0, 0, 0): 7}
    assert parse_poly("0", X2).is_zero()
    assert parse_poly("2x0", X2) == parse_poly("2*x0", X2)


def test_format_examples():
    assert format_poly(parse_poly("x0*x2 - x1^2", X2)) == "x0*x2 - x1^2"
    assert format_poly(Polynomial.zero(X2)) == "0"
    f4 = parse_poly("4*x0*u2^3 + x0^2*u3^2", U3)
    assert format_poly(f4) == "x0^2*u3^2 + 4*x0*u2^3"


def test_format_constants_and_fractions():
    assert format_poly(parse_poly("-5", X2)) == "-5"
    assert format_poly(parse_poly("1/2*x0 - 1", X2)) == "1/2*x0 - 1"


def test_streaming_chunks_join_to_format():
    f = parse_poly("x0^2*u3^2 + 4*x0*u2^3", U3)
    assert "".join(iter_format_text(f)) == format_poly(f)


def test_json_schema():
    f4 = parse_poly("4*x0*u2^3 + x0^2*u3^2", U3)
    doc = json.loads(format_poly(f4, "json"))
    assert doc == {
        "ring": {"kind": "u", "n": 3},
        "terms": [{"c": "1", "e": [2, 0, 2]}, {"c": "4", "e": [1, 3, 0]}],
    }
    assert parse_poly_json(doc, U3) == f4


def test_json_x_and_gen_kinds():
    f = parse_poly("x0*x2 - x1^2", X2)
    doc = json.loads(format_poly(f, "json"))
    assert doc["ring"] == {"kind": "x", "n": 2}
    gctx = gen_ring([("f2", 2, 2), ("f3", 3, 3)])
    g = parse_poly("2*f2*f3 - f2^3", gctx)
    doc = json.loads(format_poly(g, "json"))
    assert doc["ring"]["kind"] == "gen"
    assert parse_poly_json(doc, gctx) == g


def test_json_sums_repeated_exponents():
    doc = {"ring": {"kind": "x", "n": 2},
           "terms": [{"c": "1", "e": [1, 0, 0]}, {"c": "1/2", "e": [1, 0, 0]}]}
    assert parse_poly_json(doc, X2) == parse_poly("x0 + 1/2*x0", X2)


@pytest.mark.parametrize("doc", [
    {"terms": [{"c": "1", "e": [1, 0]}]},
    {"terms": [{"c": "1", "e": [1, 0, 0, 0]}]},
    {"terms": [{"c": "1", "e": [2, -1, 0]}]},
    {"terms": [{"c": "1", "e": [1.5, 0, 0]}]},
    {"ring": {"kind": "u", "n": 2}, "terms": [{"c": "1", "e": [1, 0, 0]}]},
    {"ring": {"kind": "x", "n": 3}, "terms": [{"c": "1", "e": [1, 0, 0]}]},
], ids=["short", "long", "negative", "fractional", "ring kind", "ring n"])
def test_json_rejects_what_the_ring_cannot_hold(doc):
    with pytest.raises(ValueError):
        parse_poly_json(doc, X2)
    with pytest.raises(ValueError):
        parse_poly_json(json.dumps(doc), X2)


@pytest.mark.parametrize("doc", [
    '{"terms":[{"c":"1/0","e":[0,0,0]}]}',
    '{"terms":[{"c":1,"e":[0,0,0]}]}',
    '{"ring":{"kind":"u","n":3}}',
    '{"terms":[{"e":[0,0,0]}]}',
    '{"terms":[{"c":"1"}]}',
    '[{"c":"1","e":[0,0,0]}]',
    '{"ring":"u","terms":[]}',
    '{"terms":[{"c":"1","e":3}]}',
    '{"terms":[{"c":"x","e":[0,0,0]}]}',
    '{"terms":[',
], ids=["zero-denominator", "int-coefficient", "no-terms", "no-c", "no-e",
        "top-level-list", "ring-not-object", "e-not-list", "bad-coefficient", "not-json"])
def test_malformed_json_is_a_value_error(doc):
    with pytest.raises(ValueError):
        parse_poly_json(doc, U3)


def test_gen_ring_symbols_parse():
    gctx = gen_ring([("f4", 4, 10), ("f8", 8, 20)])
    rel = parse_poly("f4^2 - 3*f8", gctx)
    assert rel.terms == {(2, 0): 1, (0, 1): -3}


coeffs = st.one_of(st.integers(-9, 9),
                   st.fractions(min_value=-5, max_value=5, max_denominator=7))
expts = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=120, deadline=None)
@given(st.dictionaries(expts, coeffs, max_size=6))
def test_round_trip_parse_format(terms):
    f = Polynomial(U3, terms)
    assert parse_poly(format_poly(f), U3) == f
    assert parse_poly_json(format_poly(f, "json"), U3) == f


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except PolyParseError as exc:
        return "error", str(exc), exc.pos


_CONTEXTS = (X3, U4, gen_ring([("f2", 2, 2), ("f3b", 3, 3)]))
# every character class the grammar knows, some it rejects, and whitespace
_ALPHABET = "0123456789xutf_b+-*/^() \t\n@#.é٣ "


@st.composite
def texts(draw):
    """A formatted polynomial, then a few random edits of it."""
    ctx = draw(st.sampled_from(_CONTEXTS))
    expt = st.tuples(*[st.integers(0, 12)] * ctx.slot_count)
    f = Polynomial(ctx, draw(st.dictionaries(expt, coeffs, max_size=5)))
    text = list(format_poly(f))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        ch = draw(st.sampled_from(_ALPHABET))
        if op == "insert":
            text.insert(at, ch)
        elif at < len(text):
            text[at:at + 1] = [] if op == "delete" else [ch]
    return ctx, "".join(text)


@settings(max_examples=400, deadline=None)
@given(st.one_of(texts(), st.tuples(st.sampled_from(_CONTEXTS), st.text(_ALPHABET))))
def test_tokens_and_errors_match_the_reference(case):
    ctx, text = case
    assert _outcome(lambda t: list(_tokenize(t)), text) == _outcome(tokenize_reference, text)
    assert _outcome(parse_poly, text, ctx) == _outcome(parse_poly_reference, text, ctx)


DATA = Path(__file__).parent / "data"
TEXT_FILES = (sorted(fixture_root().glob("n*/*.poly")) + sorted(fixture_root().glob("n*/*.gen"))
              + sorted(DATA.iterdir()))


def _context_of(path: Path):
    """The ring a bundled text is written in, read from its directory or file name."""
    n = int(re.match(r"n(\d+)", path.name if path.parent == DATA else path.parent.name)[1])
    if path.suffix == ".gen":
        return load_generator_dir(n, path.parent).gen_context()
    return x_ring(n) if path.stem.endswith("_x") else u_ring(n)


@pytest.fixture
def token_loop_texts(monkeypatch):
    """The texts parse_poly hands to the token loop during the test."""
    seen, real = [], textio._raise_parse_error
    monkeypatch.setattr(textio, "_raise_parse_error", lambda text, ctx: seen.append(text) or real(text, ctx))
    return seen


@pytest.mark.parametrize("path", TEXT_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_bundled_texts_parse_a_term_at_a_time(path, token_loop_texts):
    ctx = _context_of(path)
    raw = path.read_text()
    for text in (raw, raw.strip()):
        assert parse_poly(text, ctx) == parse_poly_reference(text, ctx)
    assert token_loop_texts == []


@pytest.mark.parametrize("text,message,pos", [
    ("x0 u2", "unknown variable 'u2' for this ring", 3),
    ("3/0*u2", "zero denominator", 2),
    ("x0^", "expected an exponent", 3),
    ("3*", "expected a variable after '*'", 2),
    ("-", "expected a term", 1),
    ("", "expected a term", 0),
    ("x0 + @", "unexpected character '@'", 5),
    ("x0 2", "unexpected 2", 3),
])
def test_term_boundary_errors_match_the_reference(text, message, pos, token_loop_texts):
    expected = ("error", f"{message} (at position {pos})", pos)
    assert _outcome(parse_poly_reference, text, X3) == expected
    assert _outcome(parse_poly, text, X3) == expected
    assert token_loop_texts == [text]
