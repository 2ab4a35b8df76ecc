"""Star product: pinned examples, the series oracle, and property loops."""

import itertools
import math
import random
import types
from fractions import Fraction

import pytest

import nckit.star
from nckit.forms import DifferentialForm, move_left
from nckit.gauge import (GaugePotential, action_density,
                         complete_time_component, field_strength)
from nckit.scalar import kg_density, metric_pairing
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
    theta_dot_row,
    theta_dot_rows,
)
from nckit.star import _ratio
from util import (assert_canonical, rand_exponents, rand_fraction,
                  rand_imag_poly, rand_poly, rand_t_poly, rand_theta)

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


_ORDERED_PAIRS = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))


def _contraction_product(theta: ThetaProfile, m6: tuple[int, ...]
                         ) -> tuple[tuple[int, int], ...]:
    """Product of theta entry powers over the six ordered pairs, as
    (t-exponent, numerator) int pairs over the denominator
    theta._den ** sum(m6); theta is real, so one numerator suffices."""
    prod = Poly.one()
    for (i, j), m in zip(_ORDERED_PAIRS, m6):
        if m:
            prod = prod * theta.entry(i, j) ** m
    scale = theta._den ** sum(m6)
    return tuple((e[0], c._re * (scale // c._den)) for e, c in prod.items())


def star_pair_reference(f: Poly, g: Poly, ctx: StarContext, *,
                        commutator: bool = False,
                        hermitian: bool = False) -> Poly:
    """The star kernel as it was before the operator-split form: every
    pair of x-groups expanded over its contraction matrices.  Copied from
    the library with one change, a per-call table of theta products in
    place of the profile's cache."""
    if not f or not g:  # theta_dot_sum pairs terms such as F_ii = 0
        return Poly.zero()
    if hermitian and (commutator or g != f.conj()):
        raise ValueError(
            "star: hermitian=True needs g == conj(f) and commutator=False")
    theta = ctx.theta
    cutoff = ctx.eps_cutoff
    if theta.is_zero():
        return Poly.zero() if commutator else ctx.reduce(f * g)
    scale = 2 if commutator else 1

    # Caps for each ordered pair: 0 when the entry vanishes identically.
    # theta^{ij} and theta^{ji} vanish together, and ThetaProfile stores
    # only the nonzero upper entries.
    c12, c13, c23 = (10 ** 9 if pair in theta._upper else 0
                     for pair in ((1, 2), (1, 3), (2, 3)))
    c21, c31, c32 = c12, c13, c23

    # Coefficients are int pairs (re, im) over den, the call's shared
    # denominator f_den g_den n_max! (2 theta._den)^n_max.  A contraction
    # term of order n and matrix m is num (i/2)^n / m! times a theta
    # product over theta._den^n, so over den its numerator is
    # num * weight[n] / m! times the rest, an int.
    f_groups, f_den, f_deg = _x_groups(f)
    if hermitian and len(f_groups) > 1:
        # group a of f meets group a of conj(f) at weight 1 and the
        # groups b > a at weight 2: pair (b, a) is the conjugate of (a, b)
        g_den, g_deg = f_den, f_deg
        once = [_conj_group(group, 1) for group in f_groups]
        twice = [_conj_group(group, 2) for group in f_groups[1:]]
        for a, group in enumerate(f_groups):
            group[3] = [once[a], *twice[a:]]
    else:  # each group meets all of g's; one x-group has no pair to save
        g_groups, g_den, g_deg = _x_groups(g)
        for group in f_groups:
            group[3] = g_groups
    n_max = min(f_deg, g_deg)
    fact = [1]
    for k in range(1, n_max + 1):
        fact.append(fact[-1] * k)
    # weight[n] = n_max! (2 theta._den)^(n_max - n), built from n = n_max
    weight = [fact[n_max]]
    for _ in range(n_max):
        weight.append(weight[-1] * 2 * theta._den)
    weight.reverse()
    den = f_den * g_den * weight[0]
    products = {}
    out: dict[tuple[int, ...], tuple[int, int]] = {}
    for (a1, a2, a3), f_one, f_cof, row in f_groups:
        for (b1, b2, b3), g_one, g_cof, _ in row:
            # The cofactor F_a * G_b of x^a * x^b.  When it is one term
            # (base t^t0 eps^e4), it is folded into every contraction
            # coefficient, straight into out; when longer, x^a * x^b is
            # expanded once into dest and then multiplied by it.
            cof = None
            if f_one is not None and g_one is not None:
                tf, ef, fr, fi = f_one
                tg, eg, gr, gi = g_one
                e4 = ef + eg
                if cutoff is not None and e4 > cutoff:
                    continue
                t0 = tf + tg
                br, bi = fr * gr - fi * gi, fr * gi + fi * gr
            else:
                cof = {}
                for tf, ef, fr, fi in f_cof:
                    for tg, eg, gr, gi in g_cof:
                        e4 = ef + eg
                        if cutoff is not None and e4 > cutoff:
                            continue
                        key = (tf + tg, e4)
                        cr, ci = fr * gr - fi * gi, fr * gi + fi * gr
                        acc = cof.get(key)
                        cof[key] = ((cr, ci) if acc is None
                                    else (acc[0] + cr, acc[1] + ci))
                cof = [(k, v) for k, v in cof.items() if v[0] or v[1]]
                if not cof:
                    continue
                if len(cof) == 1:
                    ((t0, e4), (br, bi)), = cof
                    cof = None
                else:
                    t0, e4, br, bi = 0, 0, 1, 0
            # scale * base * i^n, indexed by n mod 4
            br, bi = br * scale, bi * scale
            rot = ((br, bi), (-bi, br), (-br, -bi), (bi, -br))
            dest = out if cof is None else {}
            for m12 in range(min(a1, b2, c12) + 1):
                for m13 in range(min(a1 - m12, b3, c13) + 1):
                    for m21 in range(min(a2, b1, c21) + 1):
                        for m23 in range(min(a2 - m21, b3 - m13, c23) + 1):
                            for m31 in range(min(a3, b1 - m21, c31) + 1):
                                for m32 in range(min(a3 - m31, b2 - m12, c32) + 1):
                                    n = m12 + m13 + m21 + m23 + m31 + m32
                                    if commutator and not n & 1:
                                        continue
                                    # row sums differentiate f, column sums g
                                    r1, r2, r3 = m12 + m13, m21 + m23, m31 + m32
                                    s1, s2, s3 = m21 + m31, m12 + m32, m13 + m23
                                    num = (math.perm(a1, r1) * math.perm(a2, r2)
                                           * math.perm(a3, r3)
                                           * math.perm(b1, s1) * math.perm(b2, s2)
                                           * math.perm(b3, s3) * weight[n] // (
                                        fact[m12] * fact[m13] * fact[m21]
                                        * fact[m23] * fact[m31] * fact[m32]))
                                    pr, pi = rot[n & 3]
                                    pr *= num
                                    pi *= num
                                    xk = (a1 - r1 + b1 - s1,
                                          a2 - r2 + b2 - s2,
                                          a3 - r3 + b3 - s3)
                                    if not n:  # no theta factor
                                        key = (t0, *xk, e4)
                                        acc = dest.get(key)
                                        dest[key] = ((pr, pi) if acc is None
                                                     else (acc[0] + pr, acc[1] + pi))
                                        continue
                                    m6 = (m12, m21, m13, m31, m23, m32)
                                    tp = products.get(m6)
                                    if tp is None:
                                        tp = products[m6] = _contraction_product(
                                            theta, m6)
                                    for et, tn in tp:
                                        key = (t0 + et, *xk, e4)
                                        acc = dest.get(key)
                                        if acc is None:
                                            dest[key] = (pr * tn, pi * tn)
                                        else:
                                            dest[key] = (acc[0] + pr * tn,
                                                         acc[1] + pi * tn)
            if cof is None:
                continue
            for ex, (xr, xi) in dest.items():
                for (tc, ec), (kr, ki) in cof:
                    key = (ex[0] + tc, ex[1], ex[2], ex[3], ec)
                    cr, ci = xr * kr - xi * ki, xr * ki + xi * kr
                    acc = out.get(key)
                    out[key] = ((cr, ci) if acc is None
                                else (acc[0] + cr, acc[1] + ci))
    terms = {}
    if hermitian:  # the imaginary parts of the weighted pairs cancel
        for key, (r, _) in out.items():
            if r:
                terms[key] = CRat.from_ints(r, 0, den)
    else:
        for key, (r, i) in out.items():
            if r or i:
                terms[key] = CRat.from_ints(r, i, den)
    return Poly(terms)


def _x_groups(p: Poly) -> tuple[list, int, int]:
    """p grouped by x-exponents, the lcm L of its denominators and its
    largest x-degree: ([[x-exponents, the term when it is the only one,
    [(t-exponent, eps-exponent, re, im), ...], row], ...], L, degree),
    each coefficient as the ints (re + im*i) / L.  row is None here;
    ``star`` sets it to the list of the other operand's groups that a
    group of the left operand meets."""
    if len(p) == 1:
        (e, c), = p.items()
        term = (e[0], e[4], c._re, c._im)
        return ([[(e[1], e[2], e[3]), term, [term], None]], c._den,
                e[1] + e[2] + e[3])
    lcm = 1
    for _, c in p.items():
        if lcm % c._den:
            lcm = math.lcm(lcm, c._den)
    groups: dict = {}
    deg = 0
    for e, c in p.items():
        s = lcm // c._den
        term = (e[0], e[4], c._re * s, c._im * s)
        x = (e[1], e[2], e[3])
        group = groups.get(x)
        if group is None:
            groups[x] = [x, term, [term], None]
            deg = max(deg, e[1] + e[2] + e[3])
        else:
            group[1] = None
            group[2].append(term)
    return list(groups.values()), lcm, deg


def _conj_group(group: list, w: int) -> tuple:
    """An x-group of ``_x_groups`` conjugated and times w: the imaginary
    ints negated, every int multiplied by w."""
    x, _, cof, _ = group
    cof = [(te, ee, w * re, -w * im) for te, ee, re, im in cof]
    return (x, cof[0] if len(cof) == 1 else None, cof, None)


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
    assert ThetaProfile.constant(t12=Fraction(3, 2)).theta_dot().is_zero()
    assert ThetaProfile.zero().theta_dot().is_zero()
    # the only t-dependence in one off-diagonal entry, behind a constant
    one_entry = ThetaProfile({(1, 2): 3, (1, 3): Fraction(1, 2), (2, 3): t + 1})
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
                assert_canonical(ab)
                assert_canonical(com)
            # every term cancels: the cross pairs of f*f against each other
            assert len(star_commutator(f, f, ctx)) == 0
            # the x1 x2 terms of two monomial pairs cancel, the rest stays
            s = star(x1 + x2, x1 - x2, ctx)
            assert s == star_reference(x1 + x2, x1 - x2, ctx)
            assert s.coefficient((0, 1, 1, 0, 0)).is_zero()
            assert s.coefficient((0, 2, 0, 0, 0)) == 1
            assert_canonical(s)
            # the t^1 key of the cofactor and the eps^1 key cancel exactly
            q = star(x1 * (1 + t) * (1 + eps), x2 * (1 - t) * (1 - eps), ctx)
            assert q == star_reference(x1 * (1 + t) * (1 + eps),
                                       x2 * (1 - t) * (1 - eps), ctx)
            assert_canonical(q)


def test_star_hermitian_matches_full_product():
    # f * conj(f) from the real part of each series term only is the full
    # product: on time-dependent and constant theta, every eps cutoff, one,
    # two and many x-groups, cofactors of 1-3 (t, eps) terms, eps orders
    # 0..3 holding unequal term counts, complex coefficients over up to 7
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

    def layered(counts):
        # counts[e] terms of eps order e, on distinct x-monomials
        p = Poly.zero()
        for e, count in enumerate(counts):
            for xe in rng.sample(spatial, count):
                p = p + Poly.monomial((rng.randint(0, 2), *xe, e),
                                      CRat(frac(True), frac()))
        return p

    operands = [operand(n) for n in (1, 1, 2, 2, 2, 5, 5, 7)]
    assert any(len(p) > len({e[1:4] for e, _ in p.items()}) for p in operands)
    # the cross blocks (ep, eq) and (eq, ep) of unequal sizes
    for counts in ((1, 3, 2, 4), (4, 1, 3, 2), (2, 0, 5, 1)):
        p = layered(counts)
        assert [sum(1 for e, _ in p.items() if e[4] == k)
                for k in range(4)] == list(counts)
        operands.append(p)
    thetas = [ThetaProfile({pair: frac() + frac(True) * t
                            for pair in ((1, 2), (1, 3), (2, 3))})
              for _ in range(2)]
    assert all(not th.theta_dot().entry(i, j).is_zero() for th in thetas
               for i, j in ((1, 2), (1, 3), (2, 3)))
    thetas.append(ThetaProfile({(1, 2): Fraction(1, 2), (1, 3): Fraction(-2, 3),
                                (2, 3): Fraction(3, 7)}))
    for cutoff in (None, 0, 1, 2, 3):
        for th in thetas:
            ctx = StarContext(th, eps_cutoff=cutoff)
            for f in operands:
                full = star(f, f.conj(), ctx)
                half = star(f, f.conj(), ctx, hermitian=True)
                assert half == full
                assert_canonical(half)

    ctx = StarContext(thetas[0], eps_cutoff=1)
    for f in (operands[0], operands[-1]):  # one x-group and seven
        for g in (f, f.conj() + x1, f.conj() * 2):
            with pytest.raises(ValueError):
                star(f, g, ctx, hermitian=True)
        with pytest.raises(ValueError):
            star(f, f.conj(), ctx, commutator=True, hermitian=True)


def _large_operand(rng: random.Random, terms: int, degree: int) -> Poly:
    """At least `terms` terms over x-monomials of spatial degree <= degree
    (the first exactly degree), each x-monomial with a (t, eps) cofactor of
    1-3 terms and complex coefficients over up to 7."""
    p = Poly.zero()
    total = degree
    while len(p) < terms:
        cuts = sorted(rng.randint(0, total) for _ in range(2))
        xe = (cuts[0], cuts[1] - cuts[0], total - cuts[1])
        for _ in range(rng.randint(1, 3)):
            c = CRat(rand_fraction(rng, -6, 6, 7), rand_fraction(rng, -6, 6, 7))
            p = p + Poly.monomial((rng.randint(0, 2), *xe, rng.randint(0, 2)),
                                  c if c else CRat(1))
        total = rng.randint(0, degree)
    return p


def test_star_matches_pair_reference_on_large_operands():
    # the literal series cannot reach 40-150 term operands of spatial
    # degree 5-9; the pair kernel can, and shares no code with the
    # operator-split one
    rng = random.Random(1331)
    thetas = (
        ThetaProfile({(1, 2): Fraction(1, 2) - t, (1, 3): 2 * t * t,
                      (2, 3): Fraction(-2, 3) + Fraction(1, 5) * t}),
        ThetaProfile({(1, 2): Fraction(3, 2), (2, 3): t}),  # theta^13 = 0
    )
    small = _large_operand(rng, 40, 9)
    large = _large_operand(rng, 150, 5)
    mid = _large_operand(rng, 60, 7)
    # mid with x1 and x2 swapped: as many terms, another polynomial
    twin = Poly({(e[0], e[2], e[1], e[3], e[4]): c for e, c in mid.items()})
    assert 40 <= len(small) < 50 and 150 <= len(large) < 160
    assert len(twin) == len(mid) and twin != mid
    assert [p.spatial_degree() for p in (small, large, mid)] == [9, 5, 7]
    # several terms share each x-monomial: the cofactors have 1-3 terms
    assert all(len(p) > len({e[1:4] for e, _ in p.items()}) + 10
               for p in (small, large, mid))
    for k, cutoff in enumerate((None, 0, 1, 2)):
        ctx = StarContext(thetas[k % 2], eps_cutoff=cutoff)
        for f, g in ((small, large), (large, small), (mid, twin)):
            got = star(f, g, ctx)
            assert got == star_pair_reference(f, g, ctx)
            assert_canonical(got)
        com = star_commutator(small, mid, ctx)
        assert com == star_pair_reference(small, mid, ctx, commutator=True)
        assert_canonical(com)
        ctx = StarContext(thetas[(k + 1) % 2], eps_cutoff=cutoff)
        half = star(mid, mid.conj(), ctx, hermitian=True)
        assert half == star_pair_reference(mid, mid.conj(), ctx)
        assert_canonical(half)


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
    # the index goes through operator.index: bools pass, floats are named
    ctx = StarContext(ThetaProfile({(1, 2): t}))
    assert spatial_derivation_defect(x1 * x2, x2, True, ctx).is_zero()
    for bad in (2.0, 1.5):
        with pytest.raises(TypeError, match=f"index {bad}"):
            spatial_derivation_defect(x1 * x2, x2, bad, ctx)


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


def test_ratio_of_proportional_polynomials():
    c = CRat(Fraction(-2, 3), 1)
    p = x1 + 2 * t * x2 + Fraction(3, 5)
    q = c * p
    assert p._den != q._den
    assert _ratio(p, q) == c and _ratio(q, p) == CRat(1) / c
    assert _ratio(p, p) == 1 and _ratio(p, -p) == -1
    # keys that carry eps: the eps byte is part of the key like any other
    e = eps * x1 - I * eps * eps * t + Fraction(1, 7) * x3
    assert _ratio(e, c * e) == c
    assert _ratio(e, e.truncate_eps(1)) is None
    assert _ratio(eps * x1 + x2, eps * x2 + x1) is None
    rng = random.Random(1307)
    for _ in range(40):
        p = rand_poly(rng, max_terms=4, max_eps=2, allow_zero=False)
        c = CRat(rand_fraction(rng), rand_fraction(rng))
        if c:
            assert _ratio(p, c * p) == c


def test_ratio_rejects_what_is_no_multiple():
    p = x1 + x2 + t
    # the same keys, one numerator off: real, then imaginary; (1 + i) x2
    # against x2 agrees in the real part of the cross-multiplication
    assert _ratio(p, x1 + 2 * x2 + t) is None
    assert _ratio(p, x1 + (1 + I) * x2 + t) is None
    assert _ratio(3 * p, 3 * x1 + 3 * x2 + (3 + I) * t) is None
    # a third of the right multiple, with its denominator
    assert _ratio(p, Fraction(1, 3) * p) == Fraction(1, 3)
    # different key sets: overlapping, disjoint, and of another size
    assert _ratio(p, x1 + x2 + x3) is None
    assert _ratio(x1 + x2, t + x3) is None
    assert _ratio(p, x1 + x2) is None and _ratio(x1 + x2, p) is None
    # a zero partial matches nothing, itself included
    zero = Poly.zero()
    assert _ratio(zero, p) is None and _ratio(p, zero) is None
    assert _ratio(zero, zero) is None


# -- thetadot rows ---------------------------------------------------------

def theta_dot_sum_reference(ctx: StarContext, term) -> Poly:
    """thetadot^{ij} term(i, j) over both indices, as the sum over the
    upper entries of thetadot^{ij} (term(i, j) - term(j, i)), for the
    thetadot of the context's profile."""
    acc = Poly.zero()
    for (i, j), ent in ctx.theta.theta_dot().upper_entries().items():
        acc = acc + ent * (term(i, j) - term(j, i))
    return acc


def test_theta_dot_rows_match_the_sum_formula():
    # time-dependent profiles, thetadot = 0 and one nonzero thetadot entry;
    # operands carry eps and include zero
    rng = random.Random(1310)
    zero = Poly.zero()
    thetas = [rand_theta(rng) for _ in range(8)]
    thetas += [ThetaProfile.constant(t12=2, t23=Fraction(-1, 3)),
               ThetaProfile({(1, 3): 3 * t * t - 1, (2, 3): 2})]
    assert sum(th.theta_dot().is_zero() for th in thetas) >= 2
    for k, th in enumerate(thetas):
        ctx = StarContext(th, eps_cutoff=(None, 0, 1, 2)[k % 4])
        for _ in range(4):
            f, g = (rand_poly(rng, max_terms=3, max_spatial=3, max_eps=3)
                    for _ in range(2))
            ys = (g, zero, rand_poly(rng, max_terms=3, max_eps=3))
            for i in (1, 2, 3):
                want = theta_dot_sum_reference(
                    ctx, lambda a, b: g.partial(b) if a == i else zero)
                assert theta_dot_row(ctx, i, g) == ctx.reduce(want)
                assert theta_dot_row(ctx, i, g) == theta_dot_row(
                    ctx, i, ctx.reduce(g))
                assert theta_dot_row(ctx, i, zero) == zero
                # the dt correction of dx^i g = g dx^i + ... dt
                corr = theta_dot_sum_reference(
                    ctx, lambda a, b: g.partial(a) if b == i else zero)
                assert (move_left(g, 1 << i, ctx).coefficient(1)
                        == ctx.reduce(corr * (CRat(0, HALF) * -1)))
            assert theta_dot_rows(ctx, ys) == [theta_dot_sum_reference(
                ctx, lambda a, b: ys[b - 1] if a == j else zero)
                for j in (1, 2, 3)]
            assert dt_leibniz_correction(f, g, ctx) == ctx.reduce(
                CRat(0, HALF) * theta_dot_sum_reference(
                    ctx, lambda a, b: star(f.partial(a), g.partial(b), ctx)))


def test_time_factor_passes_through_star():
    # the identity every row contraction rests on: the series never
    # differentiates t, so c(t) (X*Y) = X*(c(t) Y) = (c(t) X)*Y
    rng = random.Random(1311)
    for k in range(30):
        ctx = StarContext(rand_theta(rng), eps_cutoff=(None, 1)[k % 2])
        c = rand_t_poly(rng) + (t if k % 3 else 0)
        f = rand_poly(rng, max_terms=3, max_spatial=3, max_eps=2)
        g = rand_poly(rng, max_terms=3, max_spatial=3, max_eps=2)
        fg = star(f, g, ctx)
        assert star(f, c * g, ctx) == c * fg == star(c * f, g, ctx)


def test_theta_dot_rows_keep_the_exponent_limit():
    # thetadot^{12} = 2t lifts the t^127 of the operand to t^128: every
    # route through the rows raises rather than carry into x1's byte
    ctx = StarContext(ThetaProfile({(1, 2): t ** 2}))
    g = t ** 127 * x1
    limit = "an exponent reaches the limit 128"
    with pytest.raises(ValueError, match=limit):
        theta_dot_row(ctx, 2, g)
    with pytest.raises(ValueError, match=limit):
        move_left(g, 0b0100, ctx)
    with pytest.raises(ValueError, match=limit):
        complete_time_component(GaugePotential(Poly.zero(), I * g, Poly.zero()),
                                ctx)
    # one t-degree lower the row reaches t^127 and nothing else
    low = t ** 126 * x1
    assert move_left(low, 0b0100, ctx) == DifferentialForm(
        {0b0100: low, 0b0001: -I * t ** 127})


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


def test_negative_cutoff_keeps_no_order():
    # theta = 0 and a spatially constant operand take the order-0 path, the
    # other pairs the series; a cutoff below 0 keeps no eps order on either
    pairs = ((x1, t), (x1 + eps, 3 + x1 * x2), (t + 1, eps * x3), (x1, x2),
             (x1 * x2 + eps, x3 + t * x1))
    for theta in (ThetaProfile.zero(), ThetaProfile({(1, 2): t, (2, 3): 1})):
        for cutoff in (-2, -1):
            ctx = StarContext(theta, eps_cutoff=cutoff)
            for f, g in pairs:
                assert ctx.reduce(f * g) == Poly.zero()
                assert star(f, g, ctx) == Poly.zero()
                assert star_commutator(f, g, ctx) == Poly.zero()


def test_cutoff_product_is_truncated_full_product():
    # star under a cutoff N equals the full product truncated at N, plain,
    # as a commutator and in hermitian mode; eps orders run to 3, one side
    # often starts at eps^1 or above, and theta = 0 or a spatially constant
    # side sends the product down the order-0 path
    rng = random.Random(4411)
    for trial in range(150):
        theta = ThetaProfile.zero() if trial % 5 == 0 else rand_theta(rng)
        f = rand_poly(rng, max_terms=4, max_t=1,
                      max_spatial=0 if trial % 7 == 3 else 2, max_eps=3)
        g = rand_poly(rng, max_terms=4, max_t=1, max_spatial=2, max_eps=3)
        if trial % 2:  # lowest eps order >= 1 on one side
            low = eps * rand_poly(rng, max_terms=4, max_t=1, max_spatial=2,
                                  max_eps=2)
            f, g = (low, g) if trial % 4 == 1 else (f, low)
        full = StarContext(theta)
        fg, comm, herm = (star(f, g, full), star_commutator(f, g, full),
                          star(f, f.conj(), full))
        # sums of products that return without a truncation of their own,
        # on operands whose eps orders pass the cutoff
        sums = trial % 3 == 0
        if sums:
            pot = GaugePotential(f, g, g.conj(), f.conj())
            one_forms = (DifferentialForm({1: g, 2: f, 8: f.conj()}),
                         DifferentialForm({1: f, 4: g.conj(), 8: g}))
            fs = field_strength(pot, full)

            def sum_values(ctx):
                return (dt_leibniz_correction(f, g, ctx), kg_density(f, ctx),
                        metric_pairing(*one_forms, ctx),
                        action_density(fs, ctx),
                        *field_strength(pot, ctx).tilde.values())

            sums_full = sum_values(full)
        for n in range(-1, 5):
            cut = StarContext(theta, eps_cutoff=n)
            got = (star(f, g, cut), star_commutator(f, g, cut),
                   star(f, f.conj(), cut, hermitian=True))
            for p in got:
                assert_canonical(p)
            assert got == tuple(p.truncate_eps(n) for p in (fg, comm, herm))
            if sums and 0 <= n <= 2:
                assert sum_values(cut) == tuple(p.truncate_eps(n)
                                                for p in sums_full)


def _floor_operands(rng, trial):
    """An eps-carrying pair and a profile; theta = 0 or a spatially
    constant side leaves no contraction, so a floored product runs the
    tree's root node alone and floor 0 takes the order-0 shortcut."""
    theta = ThetaProfile.zero() if trial % 5 == 0 else rand_theta(rng)
    f = rand_poly(rng, max_terms=4, max_t=1,
                  max_spatial=0 if trial % 7 == 3 else 3, max_eps=3)
    g = rand_poly(rng, max_terms=4, max_t=1, max_spatial=3, max_eps=3)
    if trial % 2:  # lowest eps order >= 1 on one side
        g = eps * rand_poly(rng, max_terms=4, max_t=1, max_spatial=2,
                            max_eps=2)
    return theta, f, g


def _floored_products(f, g, ctx, floor):
    return (star(f, g, ctx, eps_floor=floor),
            star(f, g, ctx, commutator=True, eps_floor=floor),
            star(f, f.conj(), ctx, hermitian=True, eps_floor=floor))


def test_eps_floor_drops_the_orders_below_it():
    # star(f, g, ctx, eps_floor=k) is the full product without its eps
    # orders below k, plain, as a commutator and in hermitian mode, at
    # cutoffs 0-3; a floor above the cutoff gives zero
    rng = random.Random(4412)
    for trial in range(120):
        theta, f, g = _floor_operands(rng, trial)
        for cutoff in range(4):
            ctx = StarContext(theta, eps_cutoff=cutoff)
            full = _floored_products(f, g, ctx, 0)
            for floor in range(1, 6):
                got = _floored_products(f, g, ctx, floor)
                for p in got:
                    assert_canonical(p)
                assert got == tuple(p - p.truncate_eps(floor - 1)
                                    for p in full)
                if floor > cutoff:
                    assert not any(got)
        # with no cutoff too
        ctx = StarContext(theta)
        full = _floored_products(f, g, ctx, 0)
        assert (_floored_products(f, g, ctx, 2)
                == tuple(p - p.truncate_eps(1) for p in full))


def test_skipped_nodes_change_no_byte(monkeypatch):
    # a node whose eps blocks all miss [floor, cutoff] is not expanded;
    # expanding every node instead gives the same products
    rng = random.Random(4413)
    cases = [_floor_operands(rng, trial) for trial in range(80)]
    skipped = 0
    real = nckit.star._meets

    def counted(*args):
        nonlocal skipped
        met = real(*args)
        skipped += not met
        return met

    def products():
        return [_floored_products(f, g, StarContext(theta, eps_cutoff=cut),
                                  floor)
                for k, (theta, f, g) in enumerate(cases)
                for cut, floor in ((k % 4, 0), (2, 1), (3, 2), (None, 1))]

    monkeypatch.setattr(nckit.star, "_meets", counted)
    pruned = products()
    monkeypatch.setattr(nckit.star, "_meets", lambda *args: True)
    assert products() == pruned
    assert skipped >= 100


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


def _exp_series(z: Poly, order: int) -> Poly:
    """sum_{n<=order} z^n / n! with plain powers and the test's own
    factorials; exact mod eps^(order+1) when every term of z holds eps."""
    out, power = Poly.one(), Poly.one()
    for n in range(1, order + 1):
        power = power * z
        out = out + power * Fraction(1, math.factorial(n))
    return out


@pytest.mark.parametrize("k, l", [
    ((Fraction(1, 2), -1, Fraction(2, 3)), (2, Fraction(1, 3), -1)),
    ((-1, Fraction(3, 2), 1), (Fraction(-1, 3), 0, Fraction(5, 2))),
])
def test_star_exp_heisenberg_bch(k, l):
    # For linear lam_k = i k.x, k theta k = 0, so star powers are plain
    # powers and exp_*(lam_k) = e^{i eps k.x}; the Heisenberg group's BCH
    # formula then gives
    #   exp_*(lam_k) * exp_*(lam_l) = e^{i eps (k+l).x} e^{-(i/2) eps^2 k theta l}
    # mod eps^{N+1}, with k theta l = k_i theta^{ij}(t) l_j.  Every
    # coefficient 1/n! of star_exp up to n = N enters the left side.
    order = 7
    th = ThetaProfile({(1, 2): Fraction(3, 10) + t, (1, 3): -t * t,
                       (2, 3): HALF})
    ctx = StarContext(th, eps_cutoff=order)
    xs = (x1, x2, x3)
    lam_k = I * sum(c * xi for c, xi in zip(k, xs))
    lam_l = I * sum(c * xi for c, xi in zip(l, xs))
    k_theta_l = sum(k[i - 1] * th.entry(i, j) * l[j - 1]
                    for i in (1, 2, 3) for j in (1, 2, 3))
    assert k_theta_l != 0
    want = ctx.reduce(_exp_series(eps * (lam_k + lam_l), order)
                      * _exp_series(-I * HALF * eps * eps * k_theta_l, order))
    u_k, u_l = star_exp(lam_k, order, ctx), star_exp(lam_l, order, ctx)
    assert u_k == ctx.reduce(_exp_series(eps * lam_k, order))
    assert star(u_k, u_l, ctx) == want


def test_star_exponent_limit_raises():
    ctx = StarContext(ThetaProfile({(1, 2): t ** 30}))
    near = star(t ** 90 * x1, x2, ctx)  # t^120: within the limit
    assert_canonical(near)
    assert near == star_reference(t ** 90 * x1, x2, ctx)
    with pytest.raises(ValueError):  # the result holds t^130
        star(t ** 100 * x1, x2, ctx)
    with pytest.raises(ValueError, match="an exponent reaches"):  # t^230
        star(t ** 100 * x1, t ** 100 * x2, ctx)
    # order 3 of theta^{12} = t^100 would pass t^255 in the kernel and carry
    # t^300 into x1's field, where the final check could not see it
    deep = StarContext(ThetaProfile({(1, 2): t ** 100}))
    with pytest.raises(ValueError, match="t-exponent could reach"):
        star(x1 ** 3, x2 ** 3, deep)
    assert star(x1 ** 3, x2, deep) == star_reference(x1 ** 3, x2, deep)
    with pytest.raises(ValueError):  # x1^128 in the order-0 term
        star(x1 ** 64, x1 ** 64 * x2, ctx)
