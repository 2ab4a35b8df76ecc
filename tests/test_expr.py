"""Expression language: lexer, parser, evaluator, canonical renderer."""

import random
from fractions import Fraction

import pytest

from nckit.expr import (
    GradingError,
    ParseError,
    _tokenize,
    evaluate,
    form_to_expr,
    parse_expression,
    poly_to_expr,
    reduce_expression,
    value_to_expr,
)
from nckit.forms import DifferentialForm
from nckit.planewave import PwPoly
from nckit.poly import Poly, t, x1, x2, x3
from nckit.rationals import CRat
from nckit.star import StarContext, ThetaProfile, star

from util import rand_form, rand_fraction, rand_poly, rand_theta

FLAT = StarContext(ThetaProfile.zero())
TW = StarContext(ThetaProfile.constant(t12=t))


def ev(src, ctx=FLAT):
    return evaluate(parse_expression(src), ctx)


def test_atoms():
    assert ev("7/2") == Poly.const(Fraction(7, 2))
    assert ev("5") == Poly.const(5)
    assert ev("i") == Poly.const(CRat(0, 1))
    assert ev("x2") == x2
    assert ev("eps") == Poly.variable("eps")
    assert ev("dt") == DifferentialForm.basis(0)
    assert ev("dx3") == DifferentialForm.basis(3)


def test_precedence_and_unary():
    assert ev("1 + 2*x1") == 1 + 2 * x1
    assert ev("-x1^2") == -(x1 ** 2)
    assert ev("~i") == Poly.const(CRat(0, -1))
    assert ev("2^3 - x2") == 8 - x2
    assert ev("x1^2^2") == x1 ** 4
    assert ev("1/2*x1") == Fraction(1, 2) * x1
    # '-' is left associative across terms
    assert ev("x1 - x2 - x3") == x1 - x2 - x3


def test_star_versus_pointwise():
    assert reduce_expression("x1*x2 - x2*x1", TW) == "i*t"
    assert reduce_expression("x1.x2 - x2.x1", TW) == "0"
    # with a flat context the two products agree
    assert ev("x1*x2", FLAT) == ev("x1.x2", FLAT)
    got = ev("x1*x2", TW)
    assert got == star(x1, x2, TW)


def test_conjugation_reverses_star():
    assert reduce_expression("~(x1*x2)", TW) == "x1.x2 - 1/2*i*t"
    assert ev("~(x1*x2)", TW) == star(x2, x1, TW)


def test_derivative_calls():
    assert ev("D1(x1^2)") == 2 * x1
    assert ev("D0(t.x3)") == x3
    assert ev("D2(x1)") == Poly.zero()
    f = ev("d(x1)")
    assert f == DifferentialForm.basis(1)


def test_exterior_derivative_renders():
    got = reduce_expression("d(x1*x2)", TW)
    assert got == "1/2*i*dt + x2*dx1 + x1*dx2"
    # d of a one-form picks up a two-form
    assert reduce_expression("d(x1*dx2)", FLAT) == "dx1*dx2"
    assert reduce_expression("d(d(x1.x2))", TW) == "0"


def test_wedge_is_antisymmetric():
    assert reduce_expression("dx1*dx2 + dx2*dx1", FLAT) == "0"
    assert reduce_expression("dt*dt", FLAT) == "0"


def test_grading_errors():
    with pytest.raises(GradingError):
        ev("dt.dx1")
    with pytest.raises(GradingError):
        ev("dt^2")
    with pytest.raises(GradingError):
        ev("D1(dt)")
    with pytest.raises(GradingError):
        ev("x1.d(x2)")


def test_evaluate_rejects_a_non_node():
    with pytest.raises(TypeError, match="not a syntax node: None"):
        evaluate(None, FLAT)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_expression("x1 + $")
    assert e.value.line == 1 and e.value.col == 6
    with pytest.raises(ParseError) as e:
        parse_expression("x1 +\n  @")
    assert e.value.line == 2 and e.value.col == 3
    with pytest.raises(ParseError, match="decimal"):
        parse_expression("3.5 + x1")
    with pytest.raises(ParseError, match="unknown symbol"):
        parse_expression("x4")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_expression("1/0")
    with pytest.raises(ParseError, match="trailing"):
        parse_expression("x1 x2")
    with pytest.raises(ParseError):
        parse_expression("d x1")
    with pytest.raises(ParseError):
        parse_expression("(x1 + x2")
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError):
        parse_expression("x1 ^ x2")


def test_rational_rendering():
    p = Fraction(3, 2) * x1 - Poly.const(CRat(Fraction(1, 2), Fraction(3, 4)))
    txt = poly_to_expr(p)
    assert txt == "3/2*x1 - (1/2+3/4*i)"
    assert ev(txt) == p


def test_poly_round_trip_random():
    rng = random.Random(1801)
    for _ in range(60):
        p = rand_poly(rng, max_terms=5, max_t=2, max_spatial=3, max_eps=2)
        assert ev(poly_to_expr(p)) == p


def test_form_round_trip_random():
    rng = random.Random(1802)
    for _ in range(40):
        w = rand_form(rng, max_masks=3, max_terms=2, max_t=1, max_spatial=2)
        ctx = StarContext(rand_theta(rng))
        txt = form_to_expr(w)
        back = evaluate(parse_expression(txt), ctx)
        if isinstance(back, Poly):
            # a vanishing form renders as the scalar "0"
            back = DifferentialForm.from_function(back)
        assert back == w


def _rand_pw_poly(rng):
    n = len(PwPoly.VARS)
    return sum((PwPoly.monomial([rng.randint(0, 2) for _ in range(n)],
                                rand_fraction(rng))
                for _ in range(rng.randint(0, 3))), PwPoly.zero())


def test_reprs_print_the_renderer_text():
    rng = random.Random(1803)
    for k in range(60):
        p = rand_poly(rng, max_terms=4, max_t=2, max_spatial=3, max_eps=2)
        assert repr(p) == f"Poly({poly_to_expr(p)})"
        assert ev(poly_to_expr(p)) == p
        q = _rand_pw_poly(rng)
        assert repr(q) == f"PwPoly({poly_to_expr(q)})"
        # every third form has degree 0, so it renders as a scalar
        w = rand_form(rng, max_masks=3, degrees=(0,) if k % 3 == 0 else None)
        text = form_to_expr(w)
        assert repr(w) == f"DifferentialForm({text})"
        back = evaluate(parse_expression(text), FLAT)
        if isinstance(back, Poly):
            back = DifferentialForm.from_function(back)
        assert back == w
        assert hash(back) == hash(w)
        assert bool(w) is not w.is_zero()
    assert repr(star(x1, x2, TW)) == "Poly(x1.x2 + 1/2*i*t)"
    assert repr(DifferentialForm.zero()) == "DifferentialForm(0)"


def test_render_zero_values():
    assert poly_to_expr(Poly.zero()) == "0"
    assert form_to_expr(DifferentialForm.zero()) == "0"
    assert value_to_expr(Poly.zero()) == "0"


def test_reduce_applies_eps_cutoff():
    ctx = StarContext(ThetaProfile.zero(), eps_cutoff=2)
    assert reduce_expression("eps^3 + eps", ctx) == "eps"
    assert reduce_expression("eps^3*dx1 + dx2", ctx) == "dx2"


def test_deterministic_ordering():
    # graded order, highest total degree first, stable across runs
    p = x3 + x1 * x2 + 2 * t ** 3
    assert poly_to_expr(p) == "2*t^3 + x1.x2 + x3"


# The renderer as it stood when every term built a CRat, and CRat.__str__
# printed its two Fraction parts: the int-pair renderer must match it.

def _crat_text_fraction(re: Fraction, im: Fraction) -> str:
    if not im:
        return str(re)
    if not re:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{im}*i"
    sign = "+" if im >= 0 else "-"
    im = abs(im)
    imtxt = "i" if im == 1 else f"{im}*i"
    return f"({re}{sign}{imtxt})"


def _term_text_fraction(names, exps, c, wedge=""):
    re, im = c.re, c.im
    neg = re < 0 or (re == 0 and im < 0)
    coeff = _crat_text_fraction(-re, -im) if neg else _crat_text_fraction(re, im)
    mono = ".".join(f"{v}^{e}" if e > 1 else v
                    for v, e in zip(names, exps) if e)
    factors = (mono, wedge) if coeff == "1" else (coeff, mono, wedge)
    return neg, "*".join(f for f in factors if f) or "1"


def _join_fraction(terms):
    out = ""
    for neg, text in terms:
        if out:
            out += f" - {text}" if neg else f" + {text}"
        else:
            out = f"-{text}" if neg else text
    return out or "0"


def _poly_text_fraction(p):
    return _join_fraction(_term_text_fraction(type(p).VARS, e, c)
                          for e, c in p.sorted_terms())


def _form_text_fraction(w):
    names = ("dt", "dx1", "dx2", "dx3")

    def terms():
        for mask, f in sorted(w.items(),
                              key=lambda kv: (bin(kv[0]).count("1"), kv[0])):
            wedge = "*".join(names[mu] for mu in range(4) if mask >> mu & 1)
            if not mask or len(f) == 1:
                yield from (_term_text_fraction(Poly.VARS, e, c, wedge)
                            for e, c in f.sorted_terms())
            else:
                yield False, f"({_poly_text_fraction(f)})*{wedge}"

    return _join_fraction(terms())


_UNITS = (CRat(1), CRat(-1), CRat(0, 1), CRat(0, -1))


def _render_coeff(rng):
    """Unit, negative real, purely imaginary or complex, about equally."""
    kind = rng.randrange(4)
    num = Fraction(rng.choice((1, 2, 3, 5)), rng.randint(1, 3))
    if kind == 0:
        return rng.choice(_UNITS)
    if kind == 1:
        return CRat(-num)
    if kind == 2:
        return CRat(0, rng.choice((num, -num)))
    return CRat(rng.choice((num, -num)), rng.choice((1, -1, Fraction(1, 2))))


def _render_poly(rng, n_terms):
    p = Poly.zero()
    while len(p) < n_terms:
        exps = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1),
                rng.randint(0, 1), rng.randint(0, 1))
        p = p + Poly.monomial(exps, _render_coeff(rng))
    return p


def _mixed_coeff(rng):
    """Zero, +-1, +-i, pure real or imaginary, or complex, over mixed
    denominators, now and then with a large numerator."""
    def part():
        if rng.random() < 0.3:
            return Fraction(0)
        top = rng.choice((1, 2, 3, 6, 7, 10 ** rng.randint(1, 30)))
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, top),
                        rng.choice((1, 2, 3, 4, 6, 9, 12, 35)))
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(_UNITS)
    return CRat(part() if kind != 1 else 0, part() if kind != 2 else 0)


def _mixed_poly(cls, rng, n_terms, top):
    n = len(cls.VARS)
    return sum((cls.monomial([rng.randint(0, top) if rng.random() < 0.5
                              else 0 for _ in range(n)], _mixed_coeff(rng))
                for _ in range(n_terms)), cls.zero())


def test_renderers_match_reference_on_seeded_inputs():
    assert poly_to_expr(Poly.zero()) == _poly_text_fraction(Poly.zero()) == "0"
    assert form_to_expr(DifferentialForm()) == "0"
    for c in _UNITS:
        for exps in ((0,) * 5, (1, 0, 2, 0, 1)):
            p = Poly.monomial(exps, c)
            assert poly_to_expr(p) == _poly_text_fraction(p), p
            for mask in (0, 1, 6, 15):
                w = DifferentialForm({mask: p})
                assert form_to_expr(w) == _form_text_fraction(w), w
    rng = random.Random(4242)
    for _ in range(300):
        p = _render_poly(rng, rng.randint(0, 4))
        assert poly_to_expr(p) == _poly_text_fraction(p), p
        masks = rng.sample(range(16), rng.randint(1, 4))
        if rng.random() < 0.5 and 0 not in masks:
            masks.append(0)
        # one-term and multi-term coefficients, the mask-0 part included
        w = DifferentialForm({m: _render_poly(rng, rng.choice((1, 1, 2, 3)))
                              for m in masks})
        assert form_to_expr(w) == _form_text_fraction(w), w


def test_int_pair_renderer_matches_the_fraction_one():
    rng = random.Random(3606)
    for _ in range(250):
        p = _mixed_poly(Poly, rng, rng.randint(0, 6), 3)
        assert poly_to_expr(p) == _poly_text_fraction(p), p
        q = _mixed_poly(PwPoly, rng, rng.randint(0, 4), 2)
        assert poly_to_expr(q) == _poly_text_fraction(q), q
        w = DifferentialForm({m: _mixed_poly(Poly, rng, rng.choice((1, 1, 2, 4)), 2)
                              for m in rng.sample(range(16), rng.randint(1, 5))})
        assert form_to_expr(w) == _form_text_fraction(w), w


def test_crat_str_matches_fraction_formatting():
    values = sorted({Fraction(n, d) for n in range(-13, 14)
                     for d in (1, 2, 3, 4, 6, 7, 12)})
    values += [Fraction(10 ** 25 + 1, 3), Fraction(-(10 ** 25), 7)]
    for re in values:
        for im in values:
            assert str(CRat(re, im)) == _crat_text_fraction(re, im), (re, im)

# The hand-written lexer that the one-regex ``_tokenize`` replaced, kept
# as a reference with its tokens as plain tuples; it differs only on
# non-ASCII input, where its str.isdigit and str.isalpha accept Unicode
# digits and letters.

_PUNCT = set("+-*./()^~")


def _tokenize_reference(src: str) -> list[tuple[str, str, int, int]]:
    toks = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n - 1 and src[j] == "." and src[j + 1].isdigit():
                raise ParseError(
                    "decimal literals are not supported; write p/q", line, start_col)
            toks.append(("NUM", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("NAME", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append((ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    toks.append(("EOF", "", line, col))
    return toks


def _lex_outcome(lexer, src):
    try:
        return lexer(src)
    except ParseError as exc:
        return ("error", str(exc))


def test_tokenize_matches_reference_on_random_ascii():
    rng = random.Random(1717)
    # weighted toward the lexer's edges: digit runs next to '.', names with
    # '_', every kind of whitespace, newlines, and characters no token takes
    alphabet = ("0123456789" * 3 + "xtie_d" * 2 + "aZ" + "+-*./()^~" * 2
                + ".." + " \t\r\n" * 2 + "$@#!,;\x0b\x0c\x7f\x00'\"")
    for _ in range(20000):
        src = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert (_lex_outcome(_tokenize, src)
                == _lex_outcome(_tokenize_reference, src)), repr(src)


@pytest.mark.parametrize("src, col", [("x1^\u00b2", 4), ("\u0661+x1", 1),
                                      ("3\u0663", 2), ("x\u00e9", 2)])
def test_non_ascii_characters_are_unexpected(src, col):
    with pytest.raises(ParseError, match="unexpected character") as e:
        parse_expression(src)
    assert (e.value.line, e.value.col) == (1, col)
