"""Sparse multivariate polynomials over exact complex rationals.

The carrier type for the whole symbolic layer is ``Poly``, a polynomial in
the fixed variables (t, x1, x2, x3, eps).  t is time, x1..x3 are the spatial
coordinates, and eps is the formal expansion parameter used by the gauge
sector; derivatives never act on eps.

A polynomial is one int ``_den`` > 0 and a dict ``_nums`` from packed
exponents to int pairs (re, im), each term (re + im*i) / _den times its
monomial.  Variable j's exponent is byte j of the key, t lowest (Monagan
and Pearce's packed exponent vectors, CASC 2007), so a product of
monomials is one int addition.  Exponents stay below ``EXP_LIMIT`` = 128,
so a sum of two never carries into the next byte: constructors and ``*``
(hence ``**``) raise ValueError rather than reach it.  No zero pair is
stored and gcd(_den, every re, every im) = 1, by one running gcd per
result, so ``==`` is structural equality.  ``items``, ``coefficient`` and
``sorted_terms`` (by total degree, then exponents with t most
significant) build ``CRat`` coefficients and exponent tuples on demand.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import index, or_
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .rationals import CRat, CRatLike, _norm, binary_power

ScalarLike = Union["BasePoly", CRat, int, Fraction]

FIELD_BITS = 8  # one byte per exponent
EXP_LIMIT = 1 << FIELD_BITS - 1
_MASK = (1 << FIELD_BITS) - 1
_GUARD = int("80" * 64, 16)  # the top bit of each of 64 fields
# Poly's eps field: keys below (n + 1) << EPS_SHIFT have eps order <= n
EPS_SHIFT = 4 * FIELD_BITS


def _check_limit(keys: Iterable[int]) -> None:
    """ValueError if an exponent of the packed keys reaches EXP_LIMIT."""
    if reduce(or_, keys, 0) & _GUARD:
        raise ValueError(f"an exponent reaches the limit {EXP_LIMIT}")


class BasePoly:
    """Shared engine; concrete classes fix the variable tuple via VARS."""

    VARS: tuple[str, ...] = ()
    FORMAL: tuple[str, ...] = ()  # variables that no partial acts on
    __slots__ = ("_den", "_nums")

    def __init__(self, terms: Mapping[Sequence[int], CRatLike] | None = None):
        coeffs = {self._pack(exps): c for exps, c in
                  ((e, CRat.coerce(c)) for e, c in (terms or {}).items()) if c}
        # the lcm of reduced denominators leaves no common factor
        den = lcm(*(c._den for c in coeffs.values()))
        _set_den(self, den)
        _set_nums(self, {k: (c._re * (den // c._den), c._im * (den // c._den))
                         for k, c in coeffs.items()})

    @classmethod
    def _raw(cls, nums: dict[int, tuple[int, int]], den: int):
        """Wrap storage that is already canonical, without copying it."""
        res = object.__new__(cls)
        _set_den(res, den)
        _set_nums(res, nums)
        return res

    @classmethod
    def _make(cls, nums: dict[int, tuple[int, int]], den: int):
        """Wrap {key: (re, im)} over den > 0 with no zero pair, divided through
        by the gcd of den and every numerator (usually 1 at the first term)."""
        g = den
        for r, i in nums.values():
            if g == 1:
                break
            g = gcd(g, r, i)
        if g != 1:
            den //= g
            nums = {k: (r // g, i // g) for k, (r, i) in nums.items()}
        return cls._raw(nums, den)

    @classmethod
    def _pack(cls, exps: Sequence[int]) -> int:
        if len(exps) != len(cls.VARS) or not all(0 <= e < EXP_LIMIT
                                                 for e in exps):
            raise ValueError(f"exponent tuple {tuple(exps)} needs "
                             f"{len(cls.VARS)} entries in 0..{EXP_LIMIT - 1}")
        return int.from_bytes(bytes(exps), "little")

    @classmethod
    def _unpack(cls, key: int) -> tuple[int, ...]:
        return tuple(key.to_bytes(len(cls.VARS), "little"))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls):
        return cls._raw({}, 1)

    @classmethod
    def one(cls):
        return cls._raw({0: (1, 0)}, 1)

    @classmethod
    def const(cls, c: CRatLike):
        c = CRat.coerce(c)
        return cls._raw({0: (c._re, c._im)}, c._den) if c else cls.zero()

    @classmethod
    def variable(cls, name: str):
        try:
            idx = cls.VARS.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}; have {cls.VARS}") from None
        return cls._raw({1 << FIELD_BITS * idx: (1, 0)}, 1)

    @classmethod
    def monomial(cls, exps: Sequence[int], c: CRatLike = 1):
        return cls({tuple(exps): c})

    # -- term access ----------------------------------------------------

    def items(self) -> Iterator[tuple[tuple[int, ...], CRat]]:
        den, n = self._den, len(self.VARS)
        return ((tuple(k.to_bytes(n, "little")), _norm(r, i, den))
                for k, (r, i) in self._nums.items())

    def terms_dict(self) -> dict[tuple[int, ...], CRat]:
        return dict(self.items())

    # the exponent-tuple view that perfbench's tracer reads
    _terms = property(terms_dict)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], CRat]]:
        return sorted(self.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                      reverse=True)

    def coefficient(self, exps: Sequence[int]) -> CRat:
        pair = self._nums.get(self._pack(exps))
        return CRat(0) if pair is None else _norm(*pair, self._den)

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def degree_in(self, name: str) -> int:
        shift = FIELD_BITS * type(self).VARS.index(name)
        return max((k >> shift & _MASK for k in self._nums), default=0)

    def uses_only(self, names: Iterable[str]) -> bool:
        allowed = sum(_MASK << FIELD_BITS * type(self).VARS.index(n)
                      for n in names)
        return not reduce(or_, self._nums, 0) & ~allowed

    def _tops(self) -> tuple[int, ...]:
        """Per variable, the OR of its exponents: from their max to twice it."""
        return self._unpack(reduce(or_, self._nums, 0))

    def _split(self, name: str) -> dict:
        """{e: the terms whose exponent of the variable is e}."""
        shift = FIELD_BITS * type(self).VARS.index(name)
        buckets: dict[int, dict] = {}
        for k, v in self._nums.items():
            buckets.setdefault(k >> shift & _MASK, {})[k] = v
        return {e: type(self)._make(nums, self._den)
                for e, nums in buckets.items()}

    def _strip(self, fixed: Mapping[str, int]):
        """Every term divided by the monomial of the given exponents; each
        term must hold exactly those exponents, else ValueError."""
        shifts = [FIELD_BITS * type(self).VARS.index(n) for n in fixed]
        fields = sum(_MASK << s for s in shifts)
        want = sum(e << s for s, e in zip(shifts, fixed.values()))
        for k in self._nums:
            if k & fields != want:
                got = tuple(k >> s & _MASK for s in shifts)
                raise ValueError(f"unexpected structure: exponents {got} "
                                 f"where {tuple(fixed.values())} required")
        return type(self)._raw({k - want: v for k, v in self._nums.items()},
                               self._den)

    # -- ring operations --------------------------------------------------

    def _coerce_operand(self, other: ScalarLike):
        if isinstance(other, (int, Fraction, CRat)):
            return type(self).const(other)
        if isinstance(other, BasePoly) and type(other) is not type(self):
            raise TypeError(f"cannot mix {type(self).__name__} with "
                            f"{type(other).__name__}")
        return other if isinstance(other, BasePoly) else None

    def __add__(self, other: ScalarLike, negate: bool = False):
        o = other if type(other) is type(self) else self._coerce_operand(other)
        if o is None:
            return NotImplemented
        if not o._nums:
            return self
        if not self._nums:
            return -o if negate else o
        return type(self)._sum((self, o), -1 if negate else 1)

    __radd__ = __add__

    @classmethod
    def _sum(cls, polys: Sequence["BasePoly"], sign: int = 1):
        """polys[0] plus sign times each later one, every term added once
        into one dict over the lcm of the denominators."""
        den = lcm(*(p._den for p in polys))
        s = den // polys[0]._den
        out = (dict(polys[0]._nums) if s == 1 else
               {k: (r * s, i * s) for k, (r, i) in polys[0]._nums.items()})
        # without a shared key the result is canonical as it stands: the
        # scale factors den // p._den have no common factor
        merged = False
        for p in polys[1:]:
            s = sign * (den // p._den)
            for k, (r, i) in p._nums.items():
                acc = out.get(k)
                if acc is None:
                    out[k] = (r * s, i * s)
                else:
                    merged = True
                    r, i = acc[0] + r * s, acc[1] + i * s
                    if r or i:
                        out[k] = (r, i)
                    else:
                        del out[k]
        return (cls._make if merged else cls._raw)(out, den)

    def __sub__(self, other: ScalarLike):
        return self.__add__(other, True)

    def __rsub__(self, other: ScalarLike):
        return (-self) + other

    def __neg__(self):
        return type(self)._raw(
            {k: (-r, -i) for k, (r, i) in self._nums.items()}, self._den)

    def __mul__(self, other: ScalarLike):
        cls = type(self)
        if isinstance(other, (int, Fraction, CRat)):
            c = CRat.coerce(other)
            if not c:
                return cls.zero()
            cr, ci = c._re, c._im
            return cls._make({k: (r * cr - i * ci, r * ci + i * cr)
                              for k, (r, i) in self._nums.items()},
                             self._den * c._den)
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return self._times(o)

    __rmul__ = __mul__

    def _times(self, o: "BasePoly"):
        """self * o for a polynomial o, every term pair formed; ValueError
        if an exponent of the product reaches the limit."""
        out: dict[int, tuple[int, int]] = {}
        get = out.get
        for ka, (ar, ai) in self._nums.items():
            for kb, (br, bi) in o._nums.items():
                k = ka + kb
                acc = get(k)
                if acc is None:
                    out[k] = (ar * br - ai * bi, ar * bi + ai * br)
                else:
                    out[k] = (acc[0] + ar * br - ai * bi,
                              acc[1] + ar * bi + ai * br)
        _check_limit(out)
        return type(self)._make({k: v for k, v in out.items() if v[0] or v[1]},
                                self._den * o._den)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power must be a nonnegative int")
        return binary_power(self, n, type(self).one())

    def conj(self):
        """Coefficientwise complex conjugation (variables are selfadjoint)."""
        return type(self)._raw(
            {k: (r, -i) for k, (r, i) in self._nums.items()}, self._den)

    def partial(self, idx_or_name: int | str):
        """Derivative with respect to one variable, by index or name."""
        cls = type(self)
        if isinstance(idx_or_name, str):
            idx = cls.VARS.index(idx_or_name)
        else:
            try:
                idx = index(idx_or_name)
            except TypeError:
                raise TypeError(
                    f"variable index {idx_or_name!r} is not an int") from None
        if not 0 <= idx < len(cls.VARS):
            raise ValueError(f"variable index {idx} out of range")
        if cls.VARS[idx] in cls.FORMAL:
            raise ValueError(f"{cls.VARS[idx]} is a formal parameter; "
                             "partial never acts on it")
        shift = FIELD_BITS * idx
        one = 1 << shift
        out = {k - one: (r * e, i * e) for k, (r, i) in self._nums.items()
               if (e := k >> shift & _MASK)}
        return cls._make(out, self._den) if out else cls.zero()

    # -- comparison -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CRat)):
            other = type(self).const(other)
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        if not any(self._nums):  # a constant hashes like the scalar it equals
            return hash(_norm(*self._nums.get(0, (0, 0)), self._den))
        return hash((self._den, frozenset(self._nums.items())))

    def __repr__(self) -> str:
        from .expr import poly_to_expr  # expr imports this module
        return f"{type(self).__name__}({poly_to_expr(self)})"


# the slot setters, bypassing the immutability guard
_set_den = BasePoly._den.__set__
_set_nums = BasePoly._nums.__set__


class Poly(BasePoly):
    """Polynomial in (t, x1, x2, x3, eps); the public symbolic carrier.

    Index convention for partials: 0 = t (time), 1..3 = x1..x3.  eps (index
    4) is a formal constant: ``partial`` rejects it and conjugation leaves
    it alone.
    """

    VARS = ("t", "x1", "x2", "x3", "eps")
    FORMAL = ("eps",)
    __slots__ = ()

    def eps_degree(self) -> int:
        return max(self._nums, default=0) >> EPS_SHIFT

    def total_degree(self) -> int:
        # t, x1, x2, x3 and eps are bytes 0 to 4 of a key, eps the top one
        return max(((k & 255) + (k >> 8 & 255) + (k >> 16 & 255)
                    + (k >> 24 & 255) + (k >> 32) for k in self._nums),
                   default=0)

    def spatial_degree(self) -> int:
        # x1, x2 and x3 are bytes 1 to 3 of a key
        return max(((k >> 8 & 255) + (k >> 16 & 255) + (k >> 24 & 255)
                    for k in self._nums), default=0)

    def truncate_eps(self, n: int) -> "Poly":
        """Drop every term whose eps-exponent exceeds n."""
        if n < 0:
            return Poly.zero()
        bound = (n + 1) << EPS_SHIFT
        if not self._nums or max(self._nums) < bound:
            return self
        return Poly._make({k: v for k, v in self._nums.items() if k < bound},
                          self._den)

    def is_imaginary_valued(self) -> bool:
        """conj(p) == -p, i.e. all coefficients purely imaginary."""
        return not any(r for r, _ in self._nums.values())

    def is_real_valued(self) -> bool:
        return not any(i for _, i in self._nums.values())


# Ready-made generators for the public carrier.
t = Poly.variable("t")
x1 = Poly.variable("x1")
x2 = Poly.variable("x2")
x3 = Poly.variable("x3")
eps = Poly.variable("eps")
x = (None, x1, x2, x3)  # 1-based spatial lookup


# Thin functional aliases matching the operation contract.

def add(a: Poly, b: Poly) -> Poly:
    return a + b


def mul(a: Poly, b: Poly) -> Poly:
    """Pointwise (undeformed) product."""
    return a * b


def partial(p: Poly, mu: int) -> Poly:
    """d/dx^mu with mu in 0..3 (0 = time)."""
    return p.partial(mu)


def conj(p: Poly) -> Poly:
    return p.conj()


def truncate_eps(p: Poly, n: int) -> Poly:
    return p.truncate_eps(n)
