"""Differential forms over the deformed algebra.

Basis one-forms are dt, dx1, dx2, dx3.  They anticommute with each other,
and a wedge monomial is stored as a 4-bit mask (bit 0 = dt, bit k = dxk)
whose factors are read in increasing bit order.  A form is a mask -> Poly
mapping with every coefficient standing to the LEFT of its monomial; this
"normal order" is a real constraint because the basis one-forms do not
commute with functions:

    dx^j g = g dx^j - (1/2) i thetadot^{ij} (d_i g) dt,        dt g = g dt.

The correction is forced by requiring d to satisfy the graded Leibniz rule
even though the time derivative is not a derivation of the star product:
the dt coefficient picked up while reordering exactly cancels the time
non-Leibniz defect.  Every correction carries a dt and dt ^ dt = 0, so
moving g to the left of a wedge monomial W picks up at most one correction
per term, and none when W already holds dt:

    W g = g W - (1/2) i sum_{dx^j in W} (-1)^{b(j)} thetadot^{ij} (d_i g) W_j

where W_j is the monomial of W with dx^j taken out and dt put in, and b(j)
counts the factors of W below dx^j, which that dt passes on its way to the
front (``move_left``).  Consequences, all tested:

    d(d(w)) = 0
    d(a ^ b) = d(a) ^ b + (-1)^p a ^ d(b)       (p = degree of a)
    conj(a ^ b) = conj(b) ^ conj(a)

For an inhomogeneous a, (-1)^p goes on each term of a by its own degree,
so ``d_leibniz_defect`` forms one signed product a' ^ d(b).

Conjugation of a wedge monomial reverses its factors, hence the
(-1)^{p(p-1)/2} sign, and leaves the conjugated coefficient on the right;
``form_conj`` moves it back into normal order.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .rationals import HALF_I
from .poly import Poly
from .star import StarContext, star, theta_dot_row


def _degree(mask: int) -> int:
    return bin(mask).count("1")


def _accumulate(out: dict[int, Poly], mask: int, p: Poly) -> None:
    """out[mask] += p, dropping the entry when it cancels."""
    acc = out.get(mask)
    p = p if acc is None else acc + p
    if p.is_zero():
        out.pop(mask, None)
    else:
        out[mask] = p


def _wedge_masks(m1: int, m2: int) -> tuple[int, int]:
    """(sign, mask) for (monomial m1) ^ (monomial m2); sign 0 on overlap."""
    if m1 & m2:
        return 0, 0
    inv = 0
    rest = m1
    while rest:
        low = rest & -rest
        inv += _degree(m2 & (low - 1))
        rest ^= low
    return (-1 if inv & 1 else 1), m1 | m2


class DifferentialForm:
    """Normal-ordered form: {mask: coefficient}, coefficient on the left."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Mapping[int, Poly] | None = None):
        store: dict[int, Poly] = {}
        if parts:
            for mask, p in parts.items():
                if not isinstance(mask, int) or not 0 <= mask < 16:
                    raise ValueError(f"wedge mask must be 0..15, got {mask!r}")
                if not isinstance(p, Poly):
                    raise TypeError("form coefficients must be Poly")
                if p:
                    store[mask] = p
        object.__setattr__(self, "_parts", store)

    def __setattr__(self, name, value):
        raise AttributeError("DifferentialForm is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "DifferentialForm":
        return cls()

    @classmethod
    def from_function(cls, f: Poly) -> "DifferentialForm":
        return cls({0: f})

    @classmethod
    def basis(cls, mu: int) -> "DifferentialForm":
        """dt for mu=0, dx1..dx3 for mu=1..3."""
        if not 0 <= mu <= 3:
            raise ValueError("basis index must be 0..3")
        return cls({1 << mu: Poly.one()})

    @classmethod
    def _raw(cls, parts: dict[int, Poly]) -> "DifferentialForm":
        res = cls.__new__(cls)
        object.__setattr__(res, "_parts", parts)
        return res

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterable[tuple[int, Poly]]:
        return self._parts.items()

    def coefficient(self, mask: int) -> Poly:
        return self._parts.get(mask, Poly.zero())

    def is_zero(self) -> bool:
        return not self._parts

    def __bool__(self) -> bool:
        return bool(self._parts)

    def degrees(self) -> set[int]:
        return {_degree(m) for m in self._parts}

    def degree(self) -> int:
        """Degree of a homogeneous form (0 for the zero form)."""
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError("form is not homogeneous")
        return degs.pop()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        return hash(frozenset(self._parts.items()))

    def __repr__(self) -> str:
        from .expr import form_to_expr  # expr imports this module
        return f"DifferentialForm({form_to_expr(self)})"

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        out = dict(self._parts)
        for m, c in other._parts.items():
            _accumulate(out, m, c)
        return DifferentialForm._raw(out)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm._raw({m: -c for m, c in self._parts.items()})


def move_left(g: Poly, mask: int, ctx: StarContext) -> DifferentialForm:
    """Normal-order (monomial of mask) * g, i.e. move g to the far left.

    The closed form of the module docstring: g . W, plus for each dx^j in
    W one term with dt in place of dx^j; nothing more when W holds dt.
    """
    out = {mask: ctx.reduce(g)}
    if not mask & 1:
        for j in (1, 2, 3):
            bit = 1 << j
            if mask & bit:
                # -thetadot^{ij} d_i g is the row Ddot_j g
                sgn = -1 if _degree(mask & (bit - 1)) & 1 else 1
                out[mask ^ bit | 1] = theta_dot_row(ctx, j, g) * (HALF_I * sgn)
    return DifferentialForm._raw({m: c for m, c in out.items() if c})


def left_mul(f: Poly, w: DifferentialForm, ctx: StarContext) -> DifferentialForm:
    """f * w with f acting from the left: star-multiplies each coefficient."""
    out: dict[int, Poly] = {}
    for m, c in w.items():
        p = star(f, c, ctx)
        if p:
            out[m] = p
    return DifferentialForm._raw(out)


def form_mul(a: DifferentialForm, b: DifferentialForm,
             ctx: StarContext) -> DifferentialForm:
    """Product of forms; coefficients multiply by the star product."""
    out: dict[int, Poly] = {}
    for ma, fa in a.items():
        for mb, fb in b.items():
            # (fa . Wa)(fb . Wb): normal-order Wa fb, then glue wedges.
            for mm, g in move_left(fb, ma, ctx).items():
                sgn, mk = _wedge_masks(mm, mb)
                if sgn:
                    c = star(fa, g, ctx)
                    _accumulate(out, mk, c if sgn > 0 else -c)
    return DifferentialForm._raw(out)


def d(w: DifferentialForm, ctx: StarContext) -> DifferentialForm:
    """Exterior derivative: d(f . W) = sum_mu (d_mu f) . (e_mu ^ W)."""
    out: dict[int, Poly] = {}
    for mask, f in w.items():
        for mu in range(4):
            sgn, mk = _wedge_masks(1 << mu, mask)
            if sgn and (p := f.partial(mu)):
                _accumulate(out, mk, p * sgn)
    return DifferentialForm._raw({m: r for m, c in out.items()
                                  if (r := ctx.reduce(c))})


def form_conj(w: DifferentialForm, ctx: StarContext) -> DifferentialForm:
    """Conjugate form.

    On a normal-ordered term f . W the conjugation reverses the monomial,
    giving (-1)^{p(p-1)/2} W . conj(f), and the coefficient is then moved
    back to the left.  The result satisfies
    conj(a b) = conj(b) conj(a) with no extra grading sign.
    """
    out: dict[int, Poly] = {}
    for mask, f in w.items():
        p = _degree(mask)
        sgn = -1 if (p * (p - 1) // 2) & 1 else 1
        for m, c in move_left(f.conj(), mask, ctx).items():
            _accumulate(out, m, c if sgn > 0 else -c)
    return DifferentialForm._raw(out)


def d_leibniz_defect(a: DifferentialForm, b: DifferentialForm,
                     ctx: StarContext) -> DifferentialForm:
    """d(a b) - d(a) b - a' d(b), a' being a with each term f . W signed by
    (-1)^deg(W), so one product covers every degree of a.

    Identically zero: the dt correction in the bimodule relations is exactly
    what the graded Leibniz rule requires.
    """
    signed = DifferentialForm._raw(
        {m: -c if _degree(m) & 1 else c for m, c in a.items()})
    return (d(form_mul(a, b, ctx), ctx) - form_mul(d(a, ctx), b, ctx)
            - form_mul(signed, d(b, ctx), ctx))
