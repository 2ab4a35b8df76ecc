"""Gaussian rationals: normal form, Fraction boundary, equality, rendering."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from nckit.rationals import CRat

from util import rand_crat


def assert_normal(c: CRat) -> None:
    assert type(c._re) is int and type(c._im) is int and type(c._den) is int
    assert c._den > 0
    assert math.gcd(c._re, c._im, c._den) == 1


def samples() -> list[CRat]:
    rng = random.Random(1701)
    vals = [rand_crat(rng) for _ in range(40)]
    vals += [CRat(0), CRat(1), CRat(-1), CRat(0, 1), CRat(0, -1),
             CRat(Fraction(6, 4), Fraction(-9, 6)), CRat(7, Fraction(1, 7))]
    return vals


def test_constructor_normalizes():
    for re, im in [(0, 0), (3, 0), (Fraction(2, 4), 0), (0, Fraction(-3, 9)),
                   (Fraction(1, 6), Fraction(1, 4)), (2, Fraction(5, 3)),
                   (Fraction(-4, 6), Fraction(-4, 6))]:
        c = CRat(re, im)
        assert_normal(c)
        assert c.re == Fraction(re) and c.im == Fraction(im)
    assert CRat.from_ints(4, -6, -8) == CRat(Fraction(-1, 2), Fraction(3, 4))
    assert_normal(CRat.from_ints(4, -6, -8))
    assert_normal(CRat.from_ints(0, 0, 12))
    with pytest.raises(ZeroDivisionError):
        CRat.from_ints(1, 1, 0)


def test_operations_keep_normal_form():
    vals = samples()
    for a, b in itertools.product(vals[::3], vals[::2]):
        for c in (a + b, a - b, a * b, a + 1, 2 - a, a * Fraction(3, 5),
                  -a, a.conjugate(), a ** 3):
            assert_normal(c)
        if b:
            assert_normal(a / b)
            assert (a / b) * b == a


def test_operations_match_fraction_arithmetic():
    vals = samples()
    for a, b in itertools.product(vals[::4], vals[::3]):
        ar, ai, br, bi = a.re, a.im, b.re, b.im
        assert (a + b).re == ar + br and (a + b).im == ai + bi
        assert (a - b).re == ar - br and (a - b).im == ai - bi
        assert (a * b).re == ar * br - ai * bi
        assert (a * b).im == ar * bi + ai * br
        if b:
            n = br * br + bi * bi
            assert (a / b).re == (ar * br + ai * bi) / n
            assert (a / b).im == (ai * br - ar * bi) / n


def test_parts_are_fractions():
    for c in samples():
        assert type(c.re) is Fraction and type(c.im) is Fraction
    c = CRat(Fraction(3, 4), Fraction(-5, 6))
    assert c.re == Fraction(3, 4) and c.im == Fraction(-5, 6)
    with pytest.raises(AttributeError):
        c.re = Fraction(1)


def test_equality_and_hash_against_int_and_fraction():
    pairs = [(CRat(3), 3), (CRat(0), 0), (CRat(-7), -7),
             (CRat(Fraction(1, 2)), Fraction(1, 2)),
             (CRat(Fraction(-4, 6)), Fraction(-2, 3)),
             (CRat(5), Fraction(5)),
             (CRat.from_ints(6, 0, 3), 2)]
    for c, v in pairs:
        assert c == v and v == c
        assert hash(c) == hash(v)
        assert c == CRat(v) and hash(c) == hash(CRat(v))
    assert CRat(3) != 4
    assert CRat(3, 1) != 3
    assert CRat(Fraction(1, 2)) != Fraction(1, 3)
    assert CRat(Fraction(1, 2), 1) != Fraction(1, 2)
    assert CRat(1) != 1.0
    assert CRat(1) != "1"


def test_equal_values_hash_equal():
    a = CRat(Fraction(1, 3), Fraction(1, 2))
    b = CRat(Fraction(2, 6), Fraction(3, 6))
    c = CRat.from_ints(-4, -6, -12)
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert len({CRat(2), 2, Fraction(2)}) == 1
    assert CRat(1, 1) != CRat(1, -1)


def test_division_by_complex_and_negative_divisors():
    a = CRat(1, 2)
    assert a / CRat(0, 1) == CRat(2, -1)
    assert a / CRat(3, 4) == CRat(Fraction(11, 25), Fraction(2, 25))
    assert a / -2 == CRat(Fraction(-1, 2), -1)
    assert a / CRat(-1, -1) == CRat(Fraction(-3, 2), Fraction(-1, 2))
    assert a / Fraction(-2, 3) == CRat(Fraction(-3, 2), -3)
    for q in (a / -2, a / CRat(-1, -1), a / Fraction(-2, 3)):
        assert_normal(q)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CRat(1, 1) / CRat(0)
    with pytest.raises(ZeroDivisionError):
        CRat(1) / 0
    with pytest.raises(ZeroDivisionError):
        CRat(0) / Fraction(0)


def test_rejects_float():
    with pytest.raises(TypeError):
        CRat(0.5)
    with pytest.raises(TypeError):
        CRat(1, 0.5)
    with pytest.raises(TypeError):
        CRat.coerce(0.5)
    with pytest.raises(TypeError):
        CRat(1) + 0.5
    with pytest.raises(TypeError):
        CRat(1) * 0.5


def test_power_and_conjugate():
    i = CRat(0, 1)
    assert [i ** n for n in range(5)] == [1, i, -1, -i, 1]
    c = CRat(Fraction(1, 2), Fraction(-1, 3))
    assert c ** 0 == 1
    assert c ** 4 == c * c * c * c
    want = CRat(1)
    for n in range(12):
        assert c ** n == want
        want = want * c
    assert c.conjugate() == CRat(Fraction(1, 2), Fraction(1, 3))
    assert c * c.conjugate() == Fraction(13, 36)  # |c|^2, real
    with pytest.raises(ValueError):
        c ** -1


def test_golden_str_and_repr():
    cases = [
        (CRat(0), "0", "CRat(Fraction(0, 1), Fraction(0, 1))"),
        (CRat(3), "3", "CRat(Fraction(3, 1), Fraction(0, 1))"),
        (CRat(Fraction(-2, 3)), "-2/3",
         "CRat(Fraction(-2, 3), Fraction(0, 1))"),
        (CRat(0, 1), "i", "CRat(Fraction(0, 1), Fraction(1, 1))"),
        (CRat(0, -1), "-i", "CRat(Fraction(0, 1), Fraction(-1, 1))"),
        (CRat(0, Fraction(1, 2)), "1/2*i",
         "CRat(Fraction(0, 1), Fraction(1, 2))"),
        (CRat(0, -7), "-7*i", "CRat(Fraction(0, 1), Fraction(-7, 1))"),
        (CRat(1, 1), "(1+i)", "CRat(Fraction(1, 1), Fraction(1, 1))"),
        (CRat(Fraction(2, 3), Fraction(-1, 2)), "(2/3-1/2*i)",
         "CRat(Fraction(2, 3), Fraction(-1, 2))"),
        (CRat(-5, Fraction(3, 4)), "(-5+3/4*i)",
         "CRat(Fraction(-5, 1), Fraction(3, 4))"),
        (CRat(Fraction(1, 6), -1), "(1/6-i)",
         "CRat(Fraction(1, 6), Fraction(-1, 1))"),
    ]
    for c, s, r in cases:
        assert str(c) == s
        assert repr(c) == r


def test_complex_conversion():
    assert complex(CRat(Fraction(1, 3), Fraction(-2, 7))) == complex(1 / 3, -2 / 7)
    assert complex(CRat(0)) == 0j
