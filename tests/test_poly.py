"""Exact polynomial substrate: pinned examples and ring axioms."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest

from nckit.rationals import CRat, I
from nckit.planewave import PwPoly
from nckit.poly import (EXP_LIMIT, BasePoly, Poly, add, conj, mul,
                        partial, truncate_eps, t, x1, x2, x3, eps)

from util import assert_canonical, rand_poly, rand_crat


def test_add_collects_terms():
    assert x1 + x1 == 2 * x1


def test_gaussian_rational_product():
    assert (x1 + I) * (x1 - I) == x1 * x1 + 1


def test_partial_spatial():
    p = x1 * x1 * x2
    assert partial(p, 1) == 2 * x1 * x2


def test_partial_time_and_missing_var():
    assert partial(t * t * x3, 0) == 2 * t * x3
    assert partial(x1, 2) == Poly.zero()


def test_conj_flips_imaginary_coefficient():
    assert conj(I * x1) == -I * x1
    assert conj(Poly.const(CRat(Fraction(2, 3), Fraction(-1, 5)))) == \
        Poly.const(CRat(Fraction(2, 3), Fraction(1, 5)))


def test_truncate_eps():
    lam = x1
    series = Poly.one() + eps * lam + eps * eps * lam * lam * Fraction(1, 2)
    assert truncate_eps(series, 1) == Poly.one() + eps * lam
    assert truncate_eps(series, 0) == Poly.one()
    assert truncate_eps(series, 2) == series


def test_zero_coefficients_never_stored():
    p = x1 - x1
    assert p.is_zero()
    assert len(p) == 0
    q = (x1 + x2) - x2
    assert q.terms_dict() == {(0, 1, 0, 0, 0): CRat(1)}


def test_eps_is_inert_under_partial_and_conj():
    p = eps * I * x1
    assert partial(p, 1) == eps * I
    assert conj(p) == -eps * I * x1
    assert partial(eps, 0).is_zero()


def test_structural_equality_and_hash():
    a = x1 * x2 + Fraction(1, 2) * t
    b = Fraction(1, 2) * t + x2 * x1
    assert a == b
    assert hash(a) == hash(b)


def test_degree_helpers():
    p = t * t * x1 + x2 * x3 * x3 + eps * eps * x1
    assert p.total_degree() == 3
    assert p.spatial_degree() == 3
    assert p.eps_degree() == 2
    assert p.degree_in("t") == 2


def test_spatial_degree_matches_exponent_tuples():
    # exponents up to the limit in every field, t and eps included, so a
    # field read from the wrong byte shows
    rng = random.Random(2121)
    for _ in range(200):
        p = Poly({tuple(rng.choice((0, 1, 2, EXP_LIMIT - 1)) for _ in range(5)):
                  rand_crat(rng) for _ in range(rng.randint(0, 4))})
        want = max((sum(e[1:4]) for e, _ in p.items()), default=0)
        assert p.spatial_degree() == want


def test_total_degree_matches_exponent_tuples():
    # exponents up to the limit in every field, eps (the top byte) included
    rng = random.Random(2221)
    for _ in range(200):
        p = Poly({tuple(rng.choice((0, 1, 2, EXP_LIMIT - 1)) for _ in range(5)):
                  rand_crat(rng) for _ in range(rng.randint(0, 4))})
        want = max((sum(e) for e, _ in p.items()), default=0)
        assert p.total_degree() == want
    top = EXP_LIMIT - 1
    assert Poly.monomial((top,) * 5).total_degree() == 5 * top


def test_power_squares_only_while_bits_remain(monkeypatch):
    p = x1 + x2 + x3 + t
    want = Poly.one()
    for _ in range(16):
        want = want * p
    calls = []
    plain_mul = BasePoly.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return plain_mul(a, b)

    monkeypatch.setattr(BasePoly, "__mul__", counting_mul)
    got = p ** 16
    monkeypatch.undo()
    assert len(calls) <= 5
    assert got == want


def test_power_matches_repeated_multiplication():
    p = x1 - I * t + Fraction(1, 2)
    want = Poly.one()
    for n in range(12):
        assert p ** n == want
        want = want * p


def test_mixed_type_rejected():
    with pytest.raises(ValueError):
        Poly.variable("y")
    with pytest.raises(ValueError):
        partial(x1, 4)


def test_partial_rejects_eps_in_both_spellings():
    p = eps * x1 + eps
    for spelling in (4, "eps"):
        with pytest.raises(ValueError, match="eps"):
            p.partial(spelling)
        with pytest.raises(ValueError, match="eps"):
            partial(p, spelling)
    assert p.partial("x1") == partial(p, 1) == eps
    # the plane-wave ring has no formal parameter: every variable differentiates
    s = PwPoly.variable("s")
    assert (s * s).partial("s") == 2 * s
    assert s.partial(len(PwPoly.VARS) - 1) == PwPoly.zero()


def test_partial_takes_ints_bools_and_numpy_ints_only():
    p = t * x1 * x1 + eps * x3
    for idx in (1, True, np.int64(1), np.uint8(1)):
        assert p.partial(idx) == partial(p, idx) == 2 * t * x1
    assert p.partial(False) == p.partial(np.int32(0)) == x1 * x1
    with pytest.raises(ValueError, match="eps"):
        p.partial(np.int64(4))
    for bad in (1.5, 2.0, 4.0, Fraction(1), None):
        for q in (p, PwPoly.variable("s")):
            with pytest.raises(TypeError, match=re.escape(f"index {bad!r}")):
                q.partial(bad)
        with pytest.raises(TypeError, match=re.escape(f"index {bad!r}")):
            partial(p, bad)


@pytest.mark.parametrize("cls", [Poly, PwPoly])
def test_constants_hash_like_equal_scalars(cls):
    for c in (0, 1, -7, Fraction(3, 4), Fraction(-5, 6), CRat(0, 1),
              CRat(Fraction(1, 2), Fraction(-3, 4)), CRat(2, 5)):
        p = cls.const(c)
        assert p == c and c == p
        assert hash(p) == hash(c)
        assert len({p, c}) == 1
    assert hash(cls.zero()) == hash(0) and len({cls.zero(), 0, cls()}) == 1
    assert len({cls.const(1), cls.one(), CRat(1), Fraction(1), 1}) == 1
    # a non-constant polynomial is never equal to a scalar
    v = cls.variable(cls.VARS[0])
    assert v != 1 and len({v, v + 0, cls.one()}) == 2


def test_ring_axioms_random():
    rng = random.Random(1201)
    for _ in range(120):
        a = rand_poly(rng)
        b = rand_poly(rng)
        c = rand_poly(rng)
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(a, Poly.zero()) == a
        assert mul(a, Poly.one()) == a
        assert (a - a).is_zero()


def test_partial_is_derivation_random():
    rng = random.Random(1202)
    for _ in range(80):
        a = rand_poly(rng)
        b = rand_poly(rng)
        for mu in range(4):
            lhs = partial(mul(a, b), mu)
            rhs = add(mul(partial(a, mu), b), mul(a, partial(b, mu)))
            assert lhs == rhs


def test_partials_commute_random():
    rng = random.Random(1203)
    for _ in range(60):
        a = rand_poly(rng)
        for mu in range(4):
            for nu in range(4):
                assert partial(partial(a, mu), nu) == partial(partial(a, nu), mu)


def test_conj_is_ring_involution_random():
    rng = random.Random(1204)
    for _ in range(80):
        a = rand_poly(rng)
        b = rand_poly(rng)
        assert conj(conj(a)) == a
        assert conj(add(a, b)) == add(conj(a), conj(b))
        assert conj(mul(a, b)) == mul(conj(a), conj(b))


def test_crat_field_axioms_random():
    rng = random.Random(1205)
    for _ in range(200):
        a = rand_crat(rng)
        b = rand_crat(rng)
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        if not b.is_zero():
            assert (a / b) * b == a
    assert I * I == CRat(-1)


# -- packed storage against the CRat-per-term engine ----------------------------
#
# The three functions below are BasePoly's ring operations as they were when
# every term held its own CRat, copied verbatim onto exponent-tuple dicts
# ({exps: CRat}, what ``terms_dict`` returns).  The packed storage must give
# the same dicts.

def ref_combine(terms, o_terms, negate):
    out = dict(terms)
    for exps, c in o_terms.items():
        acc = out.get(exps)
        if acc is None:
            c = -c if negate else c
        else:
            c = acc - c if negate else acc + c
        if c.is_zero():
            out.pop(exps, None)
        else:
            out[exps] = c
    return out


def ref_mul(terms, o_terms):
    out = {}
    for ea, ca in terms.items():
        for eb, cb in o_terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            acc = out.get(key)
            c = c if acc is None else acc + c
            if c.is_zero():
                out.pop(key, None)
            else:
                out[key] = c
    return out


def ref_scale(terms, other):
    c0 = CRat.coerce(other)
    if c0.is_zero():
        return {}
    return {e: c * c0 for e, c in terms.items()}


def _rand_operand(rng, cls, max_terms=5, max_exp=3):
    """A random cls polynomial whose coefficients have mixed denominators
    (up to 12), built through the public constructor."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) if rng.random() < 0.4 else 0
                     for _ in cls.VARS)
        den = rng.choice([1, 2, 3, 4, 6, 12])
        terms[exps] = CRat(Fraction(rng.randint(-5, 5), den),
                           Fraction(rng.randint(-5, 5), den)
                           if rng.random() < 0.5 else 0)
    return cls(terms)


@pytest.mark.parametrize("cls", [Poly, PwPoly])
def test_packed_ops_match_crat_reference(cls):
    rng = random.Random(1206 + len(cls.VARS))
    scalars = [0, 1, -3, 6, Fraction(-2, 3), Fraction(5, 12),
               CRat(Fraction(1, 2), Fraction(-3, 4)), CRat(0, 2)]
    for _ in range(150):
        a, b = _rand_operand(rng, cls), _rand_operand(rng, cls)
        for p in (a, b):
            assert_canonical(p)
        ta, tb = a.terms_dict(), b.terms_dict()
        # b - a again, through a scalar product and a sum
        shifted = b + a * Fraction(-1)
        for got, want in ((a + b, ref_combine(ta, tb, False)),
                          (a - b, ref_combine(ta, tb, True)),
                          (shifted, ref_combine(tb, ta, True)),
                          (a * b, ref_mul(ta, tb)),
                          (-a, ref_scale(ta, -1))):
            assert_canonical(got)
            assert got.terms_dict() == want
        assert (a - a).is_zero() and (a + -a) == cls.zero()
        for c in scalars:
            got = a * c
            assert_canonical(got)
            assert got.terms_dict() == ref_scale(ta, c)
            assert got == c * a
        conj = a.conj()
        assert_canonical(conj)
        assert conj.terms_dict() == {e: c.conjugate() for e, c in ta.items()}
        # Poly.partial rejects eps, its last variable; PwPoly takes every one
        for idx in range(len(cls.VARS) - (cls is Poly)):
            d = a.partial(idx)
            assert_canonical(d)
            want = {}
            for e, c in ta.items():
                if e[idx]:
                    key = e[:idx] + (e[idx] - 1,) + e[idx + 1:]
                    want[key] = c * e[idx]
            assert d.terms_dict() == want


def test_exponent_limit_raises():
    top = EXP_LIMIT - 1
    assert (x1 ** top).degree_in("x1") == top
    assert Poly.monomial((top, 0, 0, 0, top)).total_degree() == 2 * top
    for exps in ((EXP_LIMIT, 0, 0, 0, 0), (0, 0, 0, 0, 300), (0, -1, 0, 0, 0)):
        with pytest.raises(ValueError):
            Poly.monomial(exps)
        with pytest.raises(ValueError):
            Poly({exps: 1})
    with pytest.raises(ValueError):
        x1 ** EXP_LIMIT
    with pytest.raises(ValueError):
        (x1 ** 100 + t) * (x1 ** 28 + x2)
    with pytest.raises(ValueError):
        (eps ** 64) ** 2
    with pytest.raises(ValueError):
        PwPoly.variable("f2") ** 200
    # carrying one field into the next would have made x1^128 into x2
    assert ((x1 ** 64) * (x1 ** 63)).degree_in("x2") == 0


def test_split_and_strip():
    third = Fraction(1, 3)
    dd = 2 * x1 * eps + 4 * x1 * x2 * eps
    p = dd + third * t + 6 * x1 ** 2
    parts = p._split("eps")
    assert parts == {1: dd, 0: third * t + 6 * x1 ** 2}
    for part in parts.values():
        assert_canonical(part)  # dd alone has the common factor 2
    assert parts[1]._strip({"x1": 1, "eps": 1}) == 2 + 4 * x2
    with pytest.raises(ValueError, match="unexpected structure"):
        parts[0]._strip({"x1": 2})
