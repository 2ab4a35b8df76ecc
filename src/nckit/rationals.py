"""Exact complex rationals.

``CRat`` is the scalar type of the symbolic layer: a Gaussian rational
(re + im*i) / den held as three ints, normalized so that den > 0 and
gcd(re, im, den) == 1.  Each value has exactly one such form, so equality is
a comparison of three ints, and every ``CRat`` operation is int arithmetic
followed by a single gcd.  Polynomials do not store ``CRat``s: a ``Poly``
holds int pairs (re, im) over one denominator for all its terms (see
``nckit.poly``) and builds a ``CRat`` per term, through ``_norm``, only
when a caller asks for one.  Floats never enter; equality of two symbolic
results is therefore structural, not approximate.

``CRat`` is the boundary type: it is built from ints and
``fractions.Fraction``s, and ``.re`` / ``.im`` return ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

RatLike = Union[int, Fraction]
CRatLike = Union["CRat", int, Fraction]


def _split(v: RatLike) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction."""
    if isinstance(v, int):
        return int(v), 1
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class CRat:
    """Complex number with exact rational real and imaginary parts.

    Immutable: the public parts are read-only properties, and the three
    private ints are never reassigned after construction.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        rn, rd = _split(re)
        im_n, im_d = _split(im)
        den = rd // gcd(rd, im_d) * im_d  # lcm of two reduced denominators
        self._re, self._im, self._den = rn * (den // rd), im_n * (den // im_d), den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_ints(re: int, im: int, den: int) -> "CRat":
        """(re + im*i) / den for ints with den != 0, normalized."""
        if den < 0:
            re, im, den = -re, -im, -den
        elif not den:
            raise ZeroDivisionError("CRat denominator is zero")
        return _norm(re, im, den)

    @staticmethod
    def coerce(v: CRatLike) -> "CRat":
        if isinstance(v, CRat):
            return v
        num, den = _split(v)
        return _norm(num, 0, den)

    @staticmethod
    def _operand(v) -> "CRat | None":
        """CRat view of v, or None when v belongs to another algebra.

        Binary operators must answer NotImplemented in the None case so that
        the reflected method of the other operand (e.g. a polynomial) runs.
        """
        return CRat.coerce(v) if isinstance(v, (CRat, int, Fraction)) else None

    # -- parts -------------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._re and not self._im

    def __bool__(self) -> bool:
        return bool(self._re or self._im)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: CRatLike) -> "CRat":
        o = other if isinstance(other, CRat) else CRat._operand(other)
        if o is None:
            return NotImplemented
        ad, bd = self._den, o._den
        if ad == bd:
            return _norm(self._re + o._re, self._im + o._im, ad)
        return _norm(self._re * bd + o._re * ad, self._im * bd + o._im * ad,
                     ad * bd)

    __radd__ = __add__

    def __sub__(self, other: CRatLike) -> "CRat":
        o = CRat._operand(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other: CRatLike) -> "CRat":
        o = CRat._operand(other)
        return NotImplemented if o is None else o - self

    def __neg__(self) -> "CRat":
        return _norm(-self._re, -self._im, self._den)

    def __mul__(self, other: CRatLike) -> "CRat":
        o = other if isinstance(other, CRat) else CRat._operand(other)
        if o is None:
            return NotImplemented
        ar, ai, br, bi = self._re, self._im, o._re, o._im
        return _norm(ar * br - ai * bi, ar * bi + ai * br, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other: CRatLike) -> "CRat":
        o = CRat._operand(other)
        if o is None:
            return NotImplemented
        br, bi = o._re, o._im
        n = br * br + bi * bi
        if not n:
            raise ZeroDivisionError("division by zero CRat")
        # (a / ad) / (b / bd) = a * conj(b) * bd / (ad * |b|^2)
        ar, ai, bd = self._re, self._im, o._den
        return _norm((ar * br + ai * bi) * bd, (ai * br - ar * bi) * bd,
                     self._den * n)

    def __pow__(self, n: int) -> "CRat":
        if not isinstance(n, int) or n < 0:
            raise ValueError("CRat power must be a nonnegative int")
        return binary_power(self, n, ONE)

    def conjugate(self) -> "CRat":
        return _norm(self._re, -self._im, self._den)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, CRat):
            return (self._re == other._re and self._im == other._im
                    and self._den == other._den)
        if isinstance(other, int):
            return not self._im and self._den == 1 and self._re == other
        if isinstance(other, Fraction):
            return (not self._im and self._den == other.denominator
                    and self._re == other.numerator)
        return NotImplemented

    def __hash__(self) -> int:
        # a real value hashes like the equal int or Fraction
        if not self._im:
            return hash(self._re) if self._den == 1 else hash(self.re)
        return hash((self._re, self._im, self._den))

    def __complex__(self) -> complex:
        return complex(self._re / self._den, self._im / self._den)

    def __repr__(self) -> str:
        return f"CRat({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return _text(self._re, self._im, self._den)


def _part(n: int, den: int) -> str:
    """n / den in lowest terms, as Fraction prints it."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _text(re: int, im: int, den: int) -> str:
    """The text of (re + im*i) / den for den > 0, with no gcd assumed:
    "3/2", "-i", "2*i", "(1/2-i)"."""
    if not im:
        return _part(re, den)
    imtxt = "i" if abs(im) == den else f"{_part(abs(im), den)}*i"
    if not re:
        return "-" + imtxt if im < 0 else imtxt
    return f"({_part(re, den)}{'-' if im < 0 else '+'}{imtxt})"


_new = object.__new__


def _norm(re: int, im: int, den: int) -> CRat:
    """CRat from ints with den > 0, divided through by their gcd."""
    if den != 1:
        g = gcd(re, im, den)
        if g != 1:
            re //= g
            im //= g
            den //= g
    c = _new(CRat)
    c._re = re
    c._im = im
    c._den = den
    return c


ONE = CRat(1)
I = CRat(0, 1)
HALF_I = CRat(0, Fraction(1, 2))


def binary_power(base, n: int, one):
    """base**n for n >= 0 by repeated squaring; one is the unit of base's
    ring.  Squares only while exponent bits remain, so n = 2^k costs k
    squarings and one multiply by one."""
    out = one
    while True:
        if n & 1:
            out = out * base
        n >>= 1
        if not n:
            return out
        base = base * base
