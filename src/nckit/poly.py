"""Sparse multivariate polynomials over exact complex rationals.

The carrier type for the whole symbolic layer is ``Poly``, a polynomial in
the fixed variables (t, x1, x2, x3, eps).  t is time, x1..x3 are the spatial
coordinates, and eps is the formal expansion parameter used by the gauge
sector; derivatives never act on eps.

Terms live in a dict keyed by exponent tuples; zero coefficients are never
stored, so ``==`` on two Polys is structural equality of canonical forms.
``sorted_terms`` orders terms by graded lexicographic order (total degree
first, then exponents with t most significant) for deterministic rendering.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .rationals import CRat, CRatLike, binary_power

ScalarLike = Union["BasePoly", CRat, int, Fraction]

# raw construction, bypassing __init__'s checks and the immutability guard
_new = object.__new__
_set = object.__setattr__


class BasePoly:
    """Shared engine; concrete classes fix the variable tuple via VARS."""

    VARS: tuple[str, ...] = ()
    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], CRatLike] | None = None):
        nv = len(type(self).VARS)
        clean: dict[tuple[int, ...], CRat] = {}
        if terms:
            for exps, c in terms.items():
                c = CRat.coerce(c)
                if c.is_zero():
                    continue
                if len(exps) != nv:
                    raise ValueError(f"exponent tuple {exps} has wrong arity")
                clean[tuple(exps)] = c
        _set(self, "_terms", clean)

    @classmethod
    def _raw(cls, terms: dict[tuple[int, ...], CRat]):
        """Wrap a term dict that is already canonical (right arity, no
        zero coefficients) without copying or checking it."""
        res = _new(cls)
        _set(res, "_terms", terms)
        return res

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def const(cls, c: CRatLike):
        c = CRat.coerce(c)
        if c.is_zero():
            return cls()
        return cls({(0,) * len(cls.VARS): c})

    @classmethod
    def variable(cls, name: str):
        try:
            idx = cls.VARS.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}; have {cls.VARS}") from None
        exps = [0] * len(cls.VARS)
        exps[idx] = 1
        return cls({tuple(exps): CRat(1)})

    @classmethod
    def monomial(cls, exps: Sequence[int], c: CRatLike = 1):
        return cls({tuple(exps): CRat.coerce(c)})

    # -- term access ----------------------------------------------------

    def items(self) -> Iterator[tuple[tuple[int, ...], CRat]]:
        return iter(self._terms.items())

    def terms_dict(self) -> dict[tuple[int, ...], CRat]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], CRat]]:
        return sorted(self._terms.items(),
                      key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def coefficient(self, exps: Sequence[int]) -> CRat:
        return self._terms.get(tuple(exps), CRat(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(e) for e in self._terms)

    def degree_in(self, name: str) -> int:
        idx = type(self).VARS.index(name)
        if not self._terms:
            return 0
        return max(e[idx] for e in self._terms)

    def uses_only(self, names: Iterable[str]) -> bool:
        allowed = {type(self).VARS.index(n) for n in names}
        for exps in self._terms:
            for idx, e in enumerate(exps):
                if e and idx not in allowed:
                    return False
        return True

    # -- ring operations --------------------------------------------------

    def _coerce_operand(self, other: ScalarLike):
        cls = type(self)
        if isinstance(other, BasePoly):
            if type(other) is not cls:
                raise TypeError(
                    f"cannot mix {cls.__name__} with {type(other).__name__}")
            return other
        if isinstance(other, (int, Fraction, CRat)):
            return cls.const(other)
        return None

    def _combine(self, other: ScalarLike, negate: bool):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for exps, c in o._terms.items():
            acc = out.get(exps)
            if acc is None:
                c = -c if negate else c
            else:
                c = acc - c if negate else acc + c
            if c.is_zero():
                out.pop(exps, None)
            else:
                out[exps] = c
        return type(self)._raw(out)

    def __add__(self, other: ScalarLike):
        return self._combine(other, False)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike):
        return self._combine(other, True)

    def __rsub__(self, other: ScalarLike):
        return (-self) + other

    def __neg__(self):
        return type(self)._raw({e: -c for e, c in self._terms.items()})

    def __mul__(self, other: ScalarLike):
        cls = type(self)
        if isinstance(other, (int, Fraction, CRat)):
            c0 = CRat.coerce(other)
            if c0.is_zero():
                return cls()
            return cls._raw({e: c * c0 for e, c in self._terms.items()})
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, ...], CRat] = {}
        for ea, ca in self._terms.items():
            for eb, cb in o._terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                acc = out.get(key)
                c = c if acc is None else acc + c
                if c.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = c
        return cls._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power must be a nonnegative int")
        return binary_power(self, n, type(self).one())

    def conj(self):
        """Coefficientwise complex conjugation (variables are selfadjoint)."""
        return type(self)._raw({e: c.conjugate() for e, c in self._terms.items()})

    def partial(self, idx_or_name: int | str):
        """Derivative with respect to one variable, by index or name."""
        cls = type(self)
        idx = (cls.VARS.index(idx_or_name)
               if isinstance(idx_or_name, str) else idx_or_name)
        if not 0 <= idx < len(cls.VARS):
            raise ValueError(f"variable index {idx} out of range")
        out: dict[tuple[int, ...], CRat] = {}
        for exps, c in self._terms.items():
            e = exps[idx]
            if not e:
                continue
            key = exps[:idx] + (e - 1,) + exps[idx + 1:]
            c2 = c * e
            acc = out.get(key)
            c2 = c2 if acc is None else acc + c2
            if c2.is_zero():
                out.pop(key, None)
            else:
                out[key] = c2
        return cls._raw(out)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CRat)):
            other = type(self).const(other)
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return f"{type(self).__name__}(0)"
        bits = []
        for exps, c in self.sorted_terms():
            mono = ".".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(type(self).VARS, exps) if e)
            bits.append(f"{c}*{mono}" if mono else str(c))
        return f"{type(self).__name__}({' + '.join(bits)})"


class Poly(BasePoly):
    """Polynomial in (t, x1, x2, x3, eps); the public symbolic carrier.

    Index convention for partials: 0 = t (time), 1..3 = x1..x3.  eps (index
    4) is a formal constant: ``partial`` never touches it and conjugation
    leaves it alone.
    """

    VARS = ("t", "x1", "x2", "x3", "eps")
    __slots__ = ()

    def eps_degree(self) -> int:
        if not self._terms:
            return 0
        return max(e[4] for e in self._terms)

    def spatial_degree(self) -> int:
        if not self._terms:
            return 0
        return max(e[1] + e[2] + e[3] for e in self._terms)

    def truncate_eps(self, n: int) -> "Poly":
        """Drop every term whose eps-exponent exceeds n."""
        if n < 0:
            return Poly()
        if all(e[4] <= n for e in self._terms):
            return self
        return Poly._raw({e: c for e, c in self._terms.items() if e[4] <= n})

    def is_imaginary_valued(self) -> bool:
        """conj(p) == -p, i.e. all coefficients purely imaginary."""
        return all(c.is_imaginary() for c in self._terms.values())

    def is_real_valued(self) -> bool:
        return all(c.is_real() for c in self._terms.values())


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
    if not 0 <= mu <= 3:
        raise ValueError("partial index must be 0..3")
    return p.partial(mu)


def conj(p: Poly) -> Poly:
    return p.conj()


def truncate_eps(p: Poly, n: int) -> Poly:
    return p.truncate_eps(n)
