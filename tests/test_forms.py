"""Deformed form calculus: normal ordering, d, products, conjugation."""

import random
from fractions import Fraction

import pytest

from nckit.poly import Poly, t, x1, x2, x3
from nckit.rationals import CRat
from nckit import forms
from nckit.star import StarContext, ThetaProfile, star
from nckit.forms import (
    DifferentialForm,
    d,
    d_leibniz_defect,
    form_conj,
    form_mul,
    left_mul,
    move_left,
)
from util import rand_form, rand_poly, rand_t_poly, rand_theta

I = CRat(0, 1)
HALF_I = CRat(0, Fraction(1, 2))

DT = DifferentialForm.basis(0)
DX1 = DifferentialForm.basis(1)
DX2 = DifferentialForm.basis(2)
DX3 = DifferentialForm.basis(3)


def fn(p) -> DifferentialForm:
    return DifferentialForm.from_function(p if isinstance(p, Poly) else Poly.const(p))


def lin_ctx() -> StarContext:
    return StarContext(ThetaProfile({(1, 2): t}))


def move_left_reference(g: Poly, mask: int, ctx: StarContext) -> DifferentialForm:
    """Independent oracle: pass g through the factors of the monomial one
    at a time, rightmost first, applying
    dx^j g = g dx^j - (1/2) i thetadot^{ij} (d_i g) dt and dt g = g dt to
    every normal-ordered term so far, corrections of corrections included.
    """
    def prepend_sign(mu: int, tail: int) -> int:
        # sign of normal-ordering e_mu ^ (monomial of tail); 0 if absorbed
        if tail >> mu & 1:
            return 0
        return -1 if bin(tail & ((1 << mu) - 1)).count("1") & 1 else 1

    dot = ctx.theta.theta_dot()
    state: dict[int, Poly] = {0: g}
    for mu in range(3, -1, -1):
        if not mask >> mu & 1:
            continue
        nxt: dict[int, Poly] = {}
        for tail, f in state.items():
            terms = [((1 << mu) | tail, f * prepend_sign(mu, tail))]
            if mu:
                corr = Poly.zero()
                for i in (1, 2, 3):
                    corr = corr + dot.entry(i, mu) * f.partial(i)
                terms.append((1 | tail, corr * (HALF_I * -prepend_sign(0, tail))))
            for m, c in terms:
                nxt[m] = nxt.get(m, Poly.zero()) + c
        state = {m: c for m, c in nxt.items() if c}
    return DifferentialForm({m: ctx.reduce(c) for m, c in state.items()})


# -- container behaviour -----------------------------------------------------

def test_form_validation():
    with pytest.raises(ValueError):
        DifferentialForm({16: Poly.one()})
    with pytest.raises(TypeError):
        DifferentialForm({0: 3})
    assert DifferentialForm({3: Poly.zero()}).is_zero()


def test_degrees_and_parts():
    w = DifferentialForm({0b0011: x1, 0b0001: t, 0: Poly.one()})
    assert w.degrees() == {0, 1, 2}
    with pytest.raises(ValueError):
        w.degree()
    assert w.coefficient(0b0011) == x1
    assert (DX1 + DX2).degree() == 1


# -- normal ordering ---------------------------------------------------------

def test_move_left_through_dt_is_free():
    ctx = lin_ctx()
    g = x1 * x2 + t * x3
    assert move_left(g, 0b0001, ctx) == DifferentialForm({0b0001: g})


def test_move_left_basic_correction():
    # dx1 . x2 = x2 . dx1 + (1/2) i dt  when theta^{12} = t
    ctx = lin_ctx()
    got = move_left(x2, 0b0010, ctx)
    assert got == DifferentialForm({0b0010: x2, 0b0001: Poly.const(HALF_I)})
    # no correction when the function does not see the twisted direction
    assert move_left(x1, 0b0010, ctx) == DifferentialForm({0b0010: x1})
    assert move_left(x3, 0b0010, ctx) == DifferentialForm({0b0010: x3})


def test_move_left_static_theta_commutes():
    ctx = StarContext(ThetaProfile.constant(t12=Fraction(5, 2)))
    g = rand_poly(random.Random(1401), max_terms=4)
    for mask in range(16):
        assert move_left(g, mask, ctx) == DifferentialForm({mask: g}) or g.is_zero()


def test_move_left_compound_monomial():
    # dx1^dx2 . x2: the dx2 passage is free for x2, the dx1 passage is not;
    # its correction puts dt in place of dx1, giving dt^dx2.
    ctx = lin_ctx()
    got = move_left(x2, 0b0110, ctx)
    # dx1^dx2 x2 = (dx1 x2)^dx2 = x2 dx1^dx2 + (1/2)i dt^dx2
    assert got == DifferentialForm({0b0110: x2, 0b0101: Poly.const(HALF_I)})


def test_move_left_matches_reference():
    # every mask, every thetadot entry nonzero, eps carried by the operand
    # and truncated at each cutoff
    rng = random.Random(1408)
    for cutoff in (None, 0, 1, 2):
        for _ in range(6):
            th = ThetaProfile({pair: rand_t_poly(rng) * t * t + rng.randint(1, 3) * t
                               for pair in ((1, 2), (1, 3), (2, 3))})
            assert len(th.theta_dot().upper_entries()) == 3
            ctx = StarContext(th, eps_cutoff=cutoff)
            g = rand_poly(rng, max_terms=4, max_t=2, max_spatial=3, max_eps=3)
            for mask in range(16):
                assert move_left(g, mask, ctx) == move_left_reference(g, mask, ctx)


def test_move_left_absorbed_factor_keeps_correction():
    # dx1 . (x2 dx1) has a vanishing main term only in the wedge with dx1,
    # but the dt correction survives: dx1 x2 dx1 = (1/2)i dt^dx1.
    ctx = lin_ctx()
    w = form_mul(DX1, DifferentialForm({0b0010: x2}), ctx)
    assert w == DifferentialForm({0b0011: Poly.const(HALF_I)})


# -- wedge algebra -----------------------------------------------------------

def test_wedge_anticommutes():
    ctx = lin_ctx()
    assert form_mul(DX1, DX2, ctx) == -form_mul(DX2, DX1, ctx)
    assert form_mul(DX1, DX1, ctx).is_zero()
    assert form_mul(DT, DX3, ctx) == -form_mul(DX3, DT, ctx)
    w = form_mul(DX1, form_mul(DX2, DX3, ctx), ctx)
    assert w == DifferentialForm({0b1110: Poly.one()})
    assert form_mul(DT, w, ctx) == DifferentialForm({0b1111: Poly.one()})


def test_form_mul_pinned_example():
    # (x1 dx2)(x2 dx1) = -(x1x2 + (1/2)i t) dx1^dx2 : both passages are
    # correction-free and the star picks up the half-commutator.
    ctx = lin_ctx()
    a = DifferentialForm({0b0100: x1})
    b = DifferentialForm({0b0010: x2})
    got = form_mul(a, b, ctx)
    want = DifferentialForm({0b0110: -(x1 * x2 + HALF_I * t)})
    assert got == want


def test_form_mul_star_on_coefficients():
    # (dx1 . x2) . x3 = dx1 . (x2 * x3): right module structure is the star.
    ctx = StarContext(ThetaProfile({(2, 3): t, (1, 2): 1 + t}))
    lhs = form_mul(move_left(x2, 0b0010, ctx), fn(x3), ctx)
    rhs = move_left(star(x2, x3, ctx), 0b0010, ctx)
    assert lhs == rhs


def test_left_mul_matches_form_mul():
    rng = random.Random(1402)
    for _ in range(20):
        ctx = StarContext(rand_theta(rng))
        f = rand_poly(rng, max_terms=2, max_t=1, max_spatial=2)
        w = rand_form(rng)
        assert left_mul(f, w, ctx) == form_mul(fn(f), w, ctx)


def test_form_mul_associative():
    rng = random.Random(1403)
    for _ in range(40):
        ctx = StarContext(rand_theta(rng))
        a = rand_form(rng)
        b = rand_form(rng)
        c = rand_form(rng)
        assert (form_mul(form_mul(a, b, ctx), c, ctx)
                == form_mul(a, form_mul(b, c, ctx), ctx))


# -- exterior derivative ------------------------------------------------------

def test_d_pinned():
    ctx = lin_ctx()
    got = d(fn(x1 * x1 * x2), ctx)
    assert got == DifferentialForm({0b0010: 2 * x1 * x2, 0b0100: x1 * x1})
    got2 = d(fn(t * x3), ctx)
    assert got2 == DifferentialForm({0b0001: x3, 0b1000: t})
    # degree raises by one, top degree dies
    top = DifferentialForm({0b1111: x1 * t})
    assert d(top, ctx).is_zero()


def test_d_squared_zero():
    rng = random.Random(1404)
    for _ in range(40):
        ctx = StarContext(rand_theta(rng))
        w = rand_form(rng, max_masks=3, max_terms=3, max_t=2, max_spatial=3)
        assert d(d(w, ctx), ctx).is_zero()


def _leibniz_pair(rng):
    """(a, b, ctx) where the dt correction of move_left acts: every entry
    of theta present, thetadot not zero, both forms of degree 0 or 1 and
    not zero."""
    while True:
        entries = {pair: rand_t_poly(rng) for pair in ((1, 2), (1, 3), (2, 3))}
        theta = ThetaProfile(entries)
        if all(entries.values()) and not theta.theta_dot().is_zero():
            break
    a, b = DifferentialForm(), DifferentialForm()
    while a.is_zero():
        a = rand_form(rng, degrees=(0, 1), max_spatial=3)
    while b.is_zero():
        b = rand_form(rng, degrees=(0, 1), max_spatial=3)
    return a, b, StarContext(theta)


def test_d_graded_leibniz():
    rng = random.Random(1405)
    for _ in range(40):
        ctx = StarContext(rand_theta(rng))
        a = rand_form(rng)
        b = rand_form(rng)
        assert d_leibniz_defect(a, b, ctx).is_zero()
    for _ in range(40):
        a, b, ctx = _leibniz_pair(rng)
        assert d_leibniz_defect(a, b, ctx).is_zero()


def _leibniz_by_degree(a, b, ctx):
    """The per-degree formula: d(ab) - d(a) b - sum_p (-1)^p a_p d(b), with
    a_p the degree p part of a, one product per degree."""
    total = d(form_mul(a, b, ctx), ctx) - form_mul(d(a, ctx), b, ctx)
    for p in a.degrees():
        part = DifferentialForm(
            {m: c for m, c in a.items() if bin(m).count("1") == p})
        term = form_mul(part, d(b, ctx), ctx)
        total = total - (-term if p & 1 else term)
    return total


def _without_dt_correction(g, mask, ctx):
    """move_left with its dt correction dropped: W g = g W."""
    return DifferentialForm({mask: ctx.reduce(g)})


@pytest.mark.parametrize("move", ["real", "no-dt-correction"])
def test_signed_product_matches_the_per_degree_formula(move, monkeypatch):
    # form_mul is bilinear whatever move_left does, so the one signed
    # product equals the per-degree sum even where the defect is not zero
    if move != "real":
        monkeypatch.setattr(forms, "move_left", _without_dt_correction)
    rng = random.Random(1408)
    nonzero = mixed = 0
    for _ in range(50):
        theta = rand_theta(rng)
        while theta.theta_dot().is_zero():
            theta = rand_theta(rng)
        ctx = StarContext(theta)
        a, b = (rand_form(rng, max_masks=4, max_terms=3, degrees=(0, 1, 2))
                for _ in range(2))
        got = d_leibniz_defect(a, b, ctx)
        assert got == _leibniz_by_degree(a, b, ctx)
        nonzero += not got.is_zero()
        mixed += len(a.degrees()) > 1
    assert mixed > 0  # a's of several degrees, where the signs differ
    assert (nonzero > 0) == (move != "real")


def test_d_leibniz_functions_reproduce_time_defect():
    # On 0-forms d(fg) - df g - f dg has only a dt part, and that part is
    # the time non-Leibniz correction; it must cancel inside the calculus.
    ctx = lin_ctx()
    f, g = x1, x2
    assert d_leibniz_defect(fn(f), fn(g), ctx).is_zero()
    # sanity: the two routes to d(f*g) agree
    prod = star(f, g, ctx)
    assert d(fn(prod), ctx) == (form_mul(d(fn(f), ctx), fn(g), ctx)
                                + form_mul(fn(f), d(fn(g), ctx), ctx))


# -- conjugation ---------------------------------------------------------------

def test_form_conj_pinned():
    # conj(x2 dx1 + (1/2)i dt) = x2 dx1 : conjugating dx1 . x2 gives x2 . dx1
    ctx = lin_ctx()
    w = move_left(x2, 0b0010, ctx)
    assert form_conj(w, ctx) == DifferentialForm({0b0010: x2})
    assert form_conj(form_conj(w, ctx), ctx) == w


def test_form_conj_involution():
    rng = random.Random(1406)
    for _ in range(30):
        ctx = StarContext(rand_theta(rng))
        w = rand_form(rng, max_masks=3)
        assert form_conj(form_conj(w, ctx), ctx) == w


def test_form_conj_antihomomorphism():
    rng = random.Random(1407)
    for _ in range(30):
        ctx = StarContext(rand_theta(rng))
        a = rand_form(rng)
        b = rand_form(rng)
        lhs = form_conj(form_mul(a, b, ctx), ctx)
        rhs = form_mul(form_conj(b, ctx), form_conj(a, ctx), ctx)
        assert lhs == rhs


def test_form_conj_basis_selfadjoint():
    ctx = lin_ctx()
    for mu in range(4):
        w = DifferentialForm.basis(mu)
        assert form_conj(w, ctx) == w
