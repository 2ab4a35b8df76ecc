"""Exact polynomial substrate: pinned examples and ring axioms."""

import random
from fractions import Fraction

import pytest

from nckit.rationals import CRat, I
from nckit.poly import (BasePoly, Poly, add, conj, mul, partial, truncate_eps,
                        t, x1, x2, x3, eps)

from util import rand_poly, rand_crat


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
