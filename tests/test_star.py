"""Star product: pinned examples, the series oracle, and property loops."""

import itertools
import math
import random
import types
from fractions import Fraction

import pytest

from nckit.poly import Poly, t, x1, x2, x3, eps
from nckit.rationals import CRat
from nckit.star import (
    StarContext,
    ThetaProfile,
    dt_leibniz_correction,
    dt_leibniz_defect,
    spatial_derivation_defect,
    star,
    star_commutator,
    star_conj_defect,
    star_exp,
)
from util import (rand_exponents, rand_fraction, rand_imag_poly, rand_poly,
                  rand_theta)

I = CRat(0, 1)
HALF = Fraction(1, 2)


def star_reference(f: Poly, g: Poly, ctx: StarContext) -> Poly:
    """Independent oracle: evaluate the bidifferential series literally.

    Sums (1/n!) (i/2)^n theta^{i1 j1}..theta^{in jn} (d_I f)(d_J g) over all
    index sequences I, J in {1,2,3}^n.  Exponentially slower than the
    production routine and sharing no code with it.
    """
    nmax = min(f.spatial_degree(), g.spatial_degree())
    total = Poly.zero()
    for n in range(nmax + 1):
        pref = (I * HALF) ** n * Fraction(1, math.factorial(n))
        for iseq in itertools.product((1, 2, 3), repeat=n):
            df = f
            for i in iseq:
                df = df.partial(i)
            if df.is_zero():
                continue
            for jseq in itertools.product((1, 2, 3), repeat=n):
                th = Poly.const(pref)
                for i, j in zip(iseq, jseq):
                    th = th * ctx.theta.entry(i, j)
                if th.is_zero():
                    continue
                dg = g
                for j in jseq:
                    dg = dg.partial(j)
                if dg.is_zero():
                    continue
                total = total + th * df * dg
    return ctx.reduce(total)


# -- package layout --------------------------------------------------------

def test_nckit_star_is_the_submodule():
    import nckit
    import nckit.star as m
    assert isinstance(m, types.ModuleType)
    assert nckit.star is m
    assert callable(m.star)
    assert m.star is star


# -- ThetaProfile ----------------------------------------------------------

def test_theta_antisymmetry_and_dot():
    th = ThetaProfile({(1, 2): t, (1, 3): 2, (2, 3): t * t})
    assert th.entry(2, 1) == -t
    assert th.entry(1, 2) == t
    assert th.entry(1, 1).is_zero()
    assert th.entry(3, 1) == Poly.const(-2)
    dot = th.theta_dot()
    assert dot.entry(1, 2) == Poly.one()
    assert dot.entry(1, 3).is_zero()
    assert dot.entry(2, 3) == 2 * t
    assert not th.is_static()
    assert ThetaProfile.constant(t12=Fraction(3, 2)).is_static()
    assert ThetaProfile.zero().is_static()
    # the only t-dependence in one off-diagonal entry, behind a constant
    one_entry = ThetaProfile({(1, 2): 3, (1, 3): Fraction(1, 2), (2, 3): t + 1})
    assert not one_entry.is_static()
    assert not one_entry.theta_dot().is_zero()


def test_theta_dot_is_kept_and_profile_stays_a_value():
    th = ThetaProfile({(1, 2): t, (2, 3): t * t})
    twin = ThetaProfile({(1, 2): t, (2, 3): t * t})
    assert th == twin and hash(th) == hash(twin)
    assert th.theta_dot() is th.theta_dot()
    # filling thetadot in on one of two equal profiles changes neither
    # equality nor hash
    assert th == twin and hash(th) == hash(twin)
    assert twin.theta_dot() == th.theta_dot()
    assert th == twin and hash(th) == hash(twin)
    assert {th: 1}[twin] == 1
    with pytest.raises(AttributeError):
        th._dot = None
    with pytest.raises(AttributeError):
        th.extra = 1


def test_theta_rejects_bad_entries():
    with pytest.raises(ValueError):
        ThetaProfile({(2, 1): t})
    with pytest.raises(ValueError):
        ThetaProfile({(1, 2): x1})
    with pytest.raises(ValueError):
        ThetaProfile({(1, 2): t * CRat(0, 1)})


# -- pinned examples -------------------------------------------------------

def test_star_constant_theta_example():
    ctx = StarContext(ThetaProfile.constant(t12=Fraction(3, 2)))
    assert star(x1, x2, ctx) == x1 * x2 + CRat(0, Fraction(3, 4))
    assert star(x2, x1, ctx) == x1 * x2 - CRat(0, Fraction(3, 4))
    assert star_commutator(x1, x2, ctx) == Poly.const(CRat(0, Fraction(3, 2)))


def test_star_linear_theta_example():
    ctx = StarContext(ThetaProfile({(1, 2): t}))
    assert star(x1, x2, ctx) == x1 * x2 + CRat(0, HALF) * t
    assert star_commutator(x1, x2, ctx) == I * t
    assert star_commutator(x1, t, ctx).is_zero()
    assert star_commutator(x1, x3, ctx).is_zero()


def test_generator_commutators_match_theta():
    th = ThetaProfile({(1, 2): t, (1, 3): 1 + t, (2, 3): t * t - 3})
    ctx = StarContext(th)
    xs = (None, x1, x2, x3)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert star_commutator(xs[i], xs[j], ctx) == I * th.entry(i, j)
        assert star_commutator(xs[i], t, ctx).is_zero()


def test_star_with_unit_and_zero_theta():
    ctx = StarContext(ThetaProfile({(1, 2): t}))
    g = x1 * x2 * x2 + 3 * t * x3 - I
    assert star(Poly.one(), g, ctx) == g
    assert star(g, Poly.one(), ctx) == g
    free = StarContext(ThetaProfile.zero())
    f = x1 + x2 * x3
    assert star(f, g, free) == f * g


def test_star_second_order_term():
    # x1^2 * x2^2 picks up the n=2 contraction: exact closed form.
    ctx = StarContext(ThetaProfile({(1, 2): t}))
    got = star(x1 * x1, x2 * x2, ctx)
    # n=1 term: (i/2) t (2 x1)(2 x2); n=2 term: (1/2)(i/2)^2 t^2 (2)(2).
    expect = (x1 * x1 * x2 * x2
              + 2 * I * t * x1 * x2
              - HALF * t * t)
    assert got == expect
    assert got == star_reference(x1 * x1, x2 * x2, ctx)


def test_star_matches_reference_on_mixed_theta():
    th = ThetaProfile({(1, 3): t * t, (2, 3): 1 + t})
    ctx = StarContext(th)
    f = x1 * x3 + 2 * x2
    g = x3 * x3 - I * x2 * x1
    assert star(f, g, ctx) == star_reference(f, g, ctx)


# -- property loops --------------------------------------------------------

def test_star_matches_reference_randomized():
    rng = random.Random(1301)
    for _ in range(60):
        th = rand_theta(rng)
        ctx = StarContext(th)
        f = rand_poly(rng, max_terms=3, max_t=1, max_spatial=3)
        g = rand_poly(rng, max_terms=3, max_t=1, max_spatial=3)
        assert star(f, g, ctx) == star_reference(f, g, ctx)


def test_star_matches_reference_time_dependent_theta():
    # every theta entry has a nonzero thetadot; denominators reach 7, so the
    # series prefactors (i/2)^n num/den meet coefficients they do not divide
    rng = random.Random(1303)

    def frac(nonzero=False):
        while True:
            v = rand_fraction(rng, -6, 6, max_den=7)
            if v or not nonzero:
                return v

    def poly():
        p = Poly.zero()
        for _ in range(rng.randint(1, 3)):
            c = CRat(frac(), frac())
            exps = rand_exponents(rng, max_t=1, max_spatial=3, max_eps=1)
            p = p + Poly.monomial(exps, c if c else CRat(frac(True)))
        return p

    for k in range(30):
        th = ThetaProfile({pair: frac() + frac(True) * t
                           for pair in ((1, 2), (1, 3), (2, 3))})
        assert all(not th.theta_dot().entry(i, j).is_zero()
                   for i, j in ((1, 2), (1, 3), (2, 3)))
        ctx = StarContext(th, eps_cutoff=None if k % 2 else 1)
        f, g = poly(), poly()
        fg = star(f, g, ctx)
        assert fg == star_reference(f, g, ctx)
        # the one-pass commutator (odd series terms, doubled)
        assert star_commutator(f, g, ctx) == fg - star(g, f, ctx)


def test_star_grouped_operands_match_reference():
    # Several terms share x-exponents, so each x-monomial carries a 2-3 term
    # (t, eps) cofactor that star merges before expanding the monomial pair.
    rng = random.Random(1311)
    thetas = (
        ThetaProfile({(1, 2): 1 + t, (2, 3): Fraction(-1, 2) + 2 * t}),
        ThetaProfile({(1, 2): t, (1, 3): 2 - t, (2, 3): Fraction(1, 3) * t}),
    )
    assert thetas[0].entry(1, 3).is_zero()
    spatial = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0),
               (0, 1, 1), (1, 0, 2), (0, 2, 1)]

    def cofactor():
        c = Poly.zero()
        while len(c) < 2:
            c = c + Poly.monomial((rng.randint(0, 2), 0, 0, 0, rng.randint(0, 2)),
                                  CRat(rand_fraction(rng), rand_fraction(rng)))
        if rng.random() < 0.5:
            c = c + Poly.monomial((rng.randint(0, 2), 0, 0, 0, rng.randint(0, 2)),
                                  CRat(rand_fraction(rng) or 1))
        return c

    def grouped():
        p = Poly.zero()
        for xe in rng.sample(spatial, 2):
            p = p + Poly.monomial((0, *xe, 0)) * cofactor()
        return p

    pairs = [
        (x1 * (1 + t), x2 * (1 - t)),  # the t^1 key of the cofactor cancels
        (x1 * (1 + eps), x2 * (1 - eps)),  # eps^1 cancels, eps^2 is cut at 1
    ]
    pairs += [(grouped(), grouped()) for _ in range(5)]
    assert all(len(p) > len({e[1:4] for e, _ in p.items()}) for pq in pairs
               for p in pq)
    for cutoff in (None, 0, 1, 2):
        for th in thetas:
            ctx = StarContext(th, eps_cutoff=cutoff)
            for f, g in pairs:
                fg = star(f, g, ctx)
                assert fg == star_reference(f, g, ctx)
                assert star_commutator(f, g, ctx) == fg - star(g, f, ctx)
    ctx = StarContext(thetas[0])
    assert star(x1 * (1 + t), x2 * (1 - t), ctx) == (
        (1 - t * t) * (x1 * x2 + CRat(0, HALF) * (1 + t)))


def _assert_canonical(p: Poly):
    """Every stored coefficient is nonzero and in normal form."""
    for _, c in p.items():
        assert c._den > 0 and math.gcd(c._re, c._im, c._den) == 1
        assert not c.is_zero()


def test_star_shared_denominator_matches_reference():
    # theta entries over 2, 3 and 5, operand coefficients over 3, 4, 5, 6,
    # 7 and 9, and x-groups with 2-3 term cofactors, so the call's shared
    # denominator meets every factor and the longer cofactors multiply a
    # finished expansion
    thetas = (
        ThetaProfile({(1, 2): HALF, (1, 3): Fraction(2, 3),
                      (2, 3): Fraction(3, 5) * t}),
        ThetaProfile({(1, 2): Fraction(1, 2) - Fraction(2, 3) * t,
                      (2, 3): Fraction(3, 5) * t}),
    )
    f = (x1 * x2 * (Fraction(1, 3) + Fraction(2, 7) * t)
         + x3 * (I * Fraction(1, 5) + eps * HALF)
         + x1 * x3 * x3 * (1 - I * Fraction(4, 9) * eps - t * eps))
    g = (x2 * x3 * (Fraction(3, 4) - I * Fraction(1, 6) * t)
         + x1 * x1 * (1 + eps * t * Fraction(1, 9))
         + x2 * Fraction(5, 6))
    pairs = [(f, g), (g, f), (f, x1 * x2 * x3 * I), (x2 * x2 * t, g)]
    for th in thetas:
        for cutoff in (None, 0, 1):
            ctx = StarContext(th, eps_cutoff=cutoff)
            for a, b in pairs:
                ab = star(a, b, ctx)
                assert ab == star_reference(a, b, ctx)
                com = star_commutator(a, b, ctx)
                assert com == star_reference(a, b, ctx) - star_reference(b, a, ctx)
                _assert_canonical(ab)
                _assert_canonical(com)
            # every term cancels: the cross pairs of f*f against each other
            assert len(star_commutator(f, f, ctx)) == 0
            # the x1 x2 terms of two monomial pairs cancel, the rest stays
            s = star(x1 + x2, x1 - x2, ctx)
            assert s == star_reference(x1 + x2, x1 - x2, ctx)
            assert s.coefficient((0, 1, 1, 0, 0)).is_zero()
            assert s.coefficient((0, 2, 0, 0, 0)) == 1
            _assert_canonical(s)
            # the t^1 key of the cofactor and the eps^1 key cancel exactly
            q = star(x1 * (1 + t) * (1 + eps), x2 * (1 - t) * (1 - eps), ctx)
            assert q == star_reference(x1 * (1 + t) * (1 + eps),
                                       x2 * (1 - t) * (1 - eps), ctx)
            _assert_canonical(q)


def test_star_hermitian_matches_full_product():
    # f * conj(f) from the x-group pairs b >= a only, weighted 2 off the
    # diagonal and cut to real parts, is the full product: on time-dependent
    # and constant theta, every eps cutoff, one, two and many x-groups,
    # cofactors of 1-3 (t, eps) terms, complex coefficients over up to 7
    rng = random.Random(1321)

    def frac(nonzero=False):
        while True:
            v = rand_fraction(rng, -6, 6, max_den=7)
            if v or not nonzero:
                return v

    def cofactor():
        c = Poly.zero()
        for _ in range(rng.randint(1, 3)):
            c = c + Poly.monomial((rng.randint(0, 2), 0, 0, 0, rng.randint(0, 2)),
                                  CRat(frac(), frac(True)))
        return c

    spatial = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0),
               (0, 1, 1), (1, 0, 2), (0, 2, 1), (1, 1, 1), (0, 0, 0)]

    def operand(groups):
        while True:
            p = Poly.zero()
            for xe in rng.sample(spatial, groups):
                p = p + Poly.monomial((0, *xe, 0)) * cofactor()
            if len({e[1:4] for e, _ in p.items()}) == groups:
                return p

    operands = [operand(n) for n in (1, 1, 2, 2, 2, 5, 5, 7)]
    assert any(len(p) > len({e[1:4] for e, _ in p.items()}) for p in operands)
    thetas = [ThetaProfile({pair: frac() + frac(True) * t
                            for pair in ((1, 2), (1, 3), (2, 3))})
              for _ in range(2)]
    assert all(not th.theta_dot().entry(i, j).is_zero() for th in thetas
               for i, j in ((1, 2), (1, 3), (2, 3)))
    thetas.append(ThetaProfile({(1, 2): Fraction(1, 2), (1, 3): Fraction(-2, 3),
                                (2, 3): Fraction(3, 7)}))
    for cutoff in (None, 0, 1, 2):
        for th in thetas:
            ctx = StarContext(th, eps_cutoff=cutoff)
            for f in operands:
                full = star(f, f.conj(), ctx)
                half = star(f, f.conj(), ctx, hermitian=True)
                assert half == full
                _assert_canonical(half)

    ctx = StarContext(thetas[0], eps_cutoff=1)
    for f in (operands[0], operands[-1]):  # one x-group and seven
        for g in (f, f.conj() + x1, f.conj() * 2):
            with pytest.raises(ValueError):
                star(f, g, ctx, hermitian=True)
        with pytest.raises(ValueError):
            star(f, f.conj(), ctx, commutator=True, hermitian=True)


def test_star_associativity_randomized():
    rng = random.Random(1302)
    for _ in range(80):
        ctx = StarContext(rand_theta(rng))
        f = rand_poly(rng, max_terms=3, max_t=2, max_spatial=4)
        g = rand_poly(rng, max_terms=3, max_t=2, max_spatial=4)
        h = rand_poly(rng, max_terms=3, max_t=2, max_spatial=4)
        assert star(star(f, g, ctx), h, ctx) == star(f, star(g, h, ctx), ctx)


def test_star_bilinearity():
    rng = random.Random(1303)
    for _ in range(30):
        ctx = StarContext(rand_theta(rng))
        f = rand_poly(rng, max_terms=3)
        g = rand_poly(rng, max_terms=3)
        h = rand_poly(rng, max_terms=3)
        c = CRat(Fraction(2, 3), Fraction(-1, 2))
        assert star(f + c * g, h, ctx) == star(f, h, ctx) + c * star(g, h, ctx)
        assert star(h, f + c * g, ctx) == star(h, f, ctx) + c * star(h, g, ctx)


def test_spatial_partials_are_derivations():
    rng = random.Random(1304)
    for _ in range(40):
        ctx = StarContext(rand_theta(rng))
        f = rand_poly(rng, max_terms=3)
        g = rand_poly(rng, max_terms=3)
        for i in (1, 2, 3):
            assert spatial_derivation_defect(f, g, i, ctx).is_zero()
    with pytest.raises(ValueError):
        spatial_derivation_defect(x1, x2, 0, StarContext(ThetaProfile.zero()))


def test_time_partial_defect_closed_form():
    # Pinned: f = x1, g = x2, theta^{12} = t gives defect (1/2) i exactly.
    ctx = StarContext(ThetaProfile({(1, 2): t}))
    d = dt_leibniz_defect(x1, x2, ctx)
    assert d == Poly.const(CRat(0, HALF))
    assert d == dt_leibniz_correction(x1, x2, ctx)

    rng = random.Random(1305)
    for _ in range(40):
        ctx = StarContext(rand_theta(rng))
        f = rand_poly(rng, max_terms=3)
        g = rand_poly(rng, max_terms=3)
        assert dt_leibniz_defect(f, g, ctx) == dt_leibniz_correction(f, g, ctx)


def test_time_partial_is_derivation_for_static_theta():
    ctx = StarContext(ThetaProfile.constant(t12=2, t23=Fraction(-1, 3)))
    rng = random.Random(1306)
    for _ in range(20):
        f = rand_poly(rng, max_terms=3)
        g = rand_poly(rng, max_terms=3)
        assert dt_leibniz_defect(f, g, ctx).is_zero()


def test_conjugation_reverses_star():
    rng = random.Random(1307)
    for _ in range(40):
        ctx = StarContext(rand_theta(rng))
        f = rand_poly(rng, max_terms=3)
        g = rand_poly(rng, max_terms=3)
        assert star_conj_defect(f, g, ctx).is_zero()


def test_linear_phase_subalgebra_is_commutative():
    # Functions of t and u = k.x multiply pointwise: theta^{ij} k_i k_j = 0.
    ctx = StarContext(ThetaProfile({(1, 2): t, (1, 3): 3, (2, 3): t * t}))
    u = x1 + 2 * x2 + 2 * x3
    for a, b in ((1, 1), (2, 3), (4, 2)):
        assert star(u ** a, u ** b, ctx) == u ** (a + b)
    f = t * u ** 2 + 3 * u
    g = u ** 3 - t
    assert star(f, g, ctx) == f * g
    assert star_commutator(f, g, ctx).is_zero()


# -- eps handling ----------------------------------------------------------

def test_eps_cutoff_truncates():
    th = ThetaProfile({(1, 2): t})
    full = StarContext(th)
    cut = StarContext(th, eps_cutoff=1)
    f = 1 + eps * x1
    g = 1 + eps * x2
    assert star(f, g, full) == 1 + eps * (x1 + x2) + eps * eps * star(x1, x2, full)
    assert star(f, g, cut) == 1 + eps * (x1 + x2)
    assert star(f, g, full).truncate_eps(1) == star(f, g, cut)


def test_star_exp_unitary_mod_cutoff():
    th = ThetaProfile({(1, 2): t, (2, 3): 1})
    for order in (1, 2, 3):
        ctx = StarContext(th, eps_cutoff=order)
        lam = I * (x1 * x2 + 2 * x3)
        u = star_exp(lam, order, ctx)
        udag = star_exp(-lam, order, ctx)
        assert udag == u.conj()
        assert star(udag, u, ctx) == Poly.one()
        assert star(u, udag, ctx) == Poly.one()


def test_star_exp_small_order_terms():
    ctx = StarContext(ThetaProfile({(1, 2): t}), eps_cutoff=2)
    lam = I * x1
    u = star_exp(lam, 2, ctx)
    # star powers of x1 alone are plain powers
    assert u == 1 + eps * I * x1 - eps * eps * HALF * x1 * x1


def test_star_exp_validation():
    ctx = StarContext(ThetaProfile({(1, 2): t}))
    with pytest.raises(ValueError):
        star_exp(x1, 2, ctx)  # real valued
    with pytest.raises(ValueError):
        star_exp(I * eps * x1, 2, ctx)  # involves eps
    with pytest.raises(ValueError):
        star_exp(I * x1, -1, ctx)


def test_star_exp_randomized_unitarity():
    rng = random.Random(1308)
    for _ in range(10):
        ctx = StarContext(rand_theta(rng), eps_cutoff=2)
        lam = rand_imag_poly(rng)
        u = star_exp(lam, 2, ctx)
        assert star(u.conj(), u, ctx) == Poly.one()
