"""The deformed (star) product with time-dependent deformation matrix.

The product of two functions is the exponential bidifferential series

    f * g = sum_n (1/n!) (i/2)^n theta^{i1 j1}(t) ... theta^{in jn}(t)
                  (d_{i1}..d_{in} f) (d_{j1}..d_{jn} g)

with spatial indices only; theta(t) is an antisymmetric 3x3 matrix whose
entries are polynomials in t.  Because no time derivative appears inside the
series, t acts as a parameter: the product is associative fiberwise in t and
terminates on polynomials.

Consequences implemented and tested here:

* spatial partials are derivations of the product;
* the time partial is NOT: its defect is (1/2) i thetadot^{ij} (d_i f)*(d_j g)
  (``dt_leibniz_defect``);
* conjugation is an anti-homomorphism, conj(f*g) = conj(g)*conj(f)
  (``star_conj_defect``);
* the integral trace property (integral of f*g equals integral of fg) is not
  expressible on polynomials and is verified numerically by the grid module.

The derivatives act on the spatial exponents only, and theta depends on t
alone, so x^a * x^b is one fixed expansion whatever (t, eps) cofactors the
two monomials carry.  ``star`` therefore groups each operand by
x-exponents, f = sum_a x^a F_a(t, eps), merges F_a G_b into one cofactor
(dropping eps orders above the cutoff), and expands each distinct pair
(a, b) once per call.  A one-term cofactor is folded into every
contraction coefficient; a longer one multiplies the finished expansion.
Nothing outlives the call except what ``ThetaProfile`` keeps: its thetadot,
and one product of theta entry powers per contraction 6-tuple m.  Those
products are bounded: n = sum(m) never exceeds the smaller operand's
spatial degree, and the expression language's MAX_DEGREE = 16 caps the
degree sum of each product's operands, so there n <= 8 and a profile keeps
at most C(14, 6) = 3,003 products, the 6-tuples with sum at most 8.

A product f * conj(f), the shape of every action density, needs only
about half of its group pairs.  Its pair (b, a) is x^b F_b * x^a conj(F_a),
the conjugate of pair (a, b) since conjugation reverses the product, so

    f * conj(f) = Re[ sum_{a <= b} w_ab (x^a F_a * x^b conj(F_b)) ],
    w_aa = 1,  w_ab = 2 for a < b,

where Re takes the real part of each coefficient (t, x and eps are real).
``star(f, conj(f), ctx, hermitian=True)`` builds conj(f)'s groups from
f's by negating the imaginary ints, expands only the pairs b >= a with
the weight in the ints, and keeps the real part of each output term.
An f of one x-group has no pair to save, so it takes the ordinary route.

The expansion of x^a * x^b is a finite sum over "contraction matrices":
nonnegative integers m[i][j] counting how many derivative pairs hit the
ordered index pair (i, j).  Only the six off-diagonal entries matter, and
each is bounded by the spatial exponents, so the enumeration is exact and
fast.

No coefficient passes through ``CRat`` inside the kernel.  Every term of
one call is a pair of ints (re, im) over one denominator shared by the
whole call: the lcm of f's coefficient denominators, times g's, times
n_max! (2 D)^n_max, where n_max is the smaller operand's spatial degree
(no contraction goes deeper) and D is the lcm of theta's coefficient
denominators.  The contraction coefficient (i/2)^n / m! of order n,
times a theta product over D^n, divides into it.  So every sum, in the
cofactors, the expansions and the output, is a plain int addition with
no gcd, in the fraction-free manner of Bareiss (Math. Comp. 1968).  Each
output term is normalised once at the end, by ``rationals._norm``, and a
term whose sum cancelled to zero is dropped there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Union

from .rationals import CRat, _norm
from .poly import Poly

EntryLike = Union[Poly, CRat, int, Fraction]

_HALF_I = CRat(0, Fraction(1, 2))

_ORDERED_PAIRS = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))


class ThetaProfile:
    """Antisymmetric 3x3 deformation matrix with entries polynomial in t.

    Constructed from the upper triangle: a mapping {(i, j): entry} with
    1 <= i < j <= 3.  Entries may be Poly (in t only), CRat, Fraction or
    int.  The lower triangle is filled by antisymmetry and the diagonal is
    zero.

    The profile is immutable, so it keeps what derives from it: the lcm
    of its entries' coefficient denominators, its thetadot, built on first
    use, and the star expansion's contraction products.  Each product is
    kept as (t-exponent, numerator) int pairs over that lcm to the power
    n, the contraction order; there are at most 3,003 of them (see the
    module docstring).
    """

    __slots__ = ("_upper", "_den", "_dot", "_prod_cache")

    def __init__(self, entries: Mapping[tuple[int, int], EntryLike] | None = None):
        upper: dict[tuple[int, int], Poly] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (1 <= i < j <= 3):
                    raise ValueError(f"theta entry index {(i, j)} must satisfy 1 <= i < j <= 3")
                p = v if isinstance(v, Poly) else Poly.const(v)
                if not p.uses_only(("t",)):
                    raise ValueError(f"theta entry {(i, j)} may only involve t, got {p!r}")
                if not p.is_real_valued():
                    raise ValueError(f"theta entry {(i, j)} must be real")
                if p:
                    upper[(i, j)] = p
        object.__setattr__(self, "_upper", upper)
        # lcm of the entries' coefficient denominators
        object.__setattr__(self, "_den", math.lcm(
            *(c._den for p in upper.values() for _, c in p.items())))
        object.__setattr__(self, "_dot", None)
        object.__setattr__(self, "_prod_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("ThetaProfile is immutable")

    @classmethod
    def zero(cls) -> "ThetaProfile":
        return cls()

    @classmethod
    def constant(cls, t12: EntryLike = 0, t13: EntryLike = 0,
                 t23: EntryLike = 0) -> "ThetaProfile":
        return cls({(1, 2): t12, (1, 3): t13, (2, 3): t23})

    def entry(self, i: int, j: int) -> Poly:
        """Signed entry theta^{ij}; antisymmetry is built in."""
        if i == j:
            return Poly.zero()
        if i < j:
            return self._upper.get((i, j), Poly.zero())
        return -self._upper.get((j, i), Poly.zero())

    def upper_entries(self) -> dict[tuple[int, int], Poly]:
        return dict(self._upper)

    def is_zero(self) -> bool:
        return not self._upper

    def theta_dot(self) -> "ThetaProfile":
        if self._dot is None:
            object.__setattr__(self, "_dot", ThetaProfile(
                {k: v.partial(0) for k, v in self._upper.items()}))
        return self._dot

    def is_static(self) -> bool:
        return self.theta_dot().is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThetaProfile):
            return NotImplemented
        return self._upper == other._upper

    def __hash__(self) -> int:
        return hash(frozenset(self._upper.items()))

    def __repr__(self) -> str:
        return f"ThetaProfile({self._upper!r})"

    def _contraction_product(self, m6: tuple[int, ...]
                             ) -> tuple[tuple[int, int], ...]:
        """Product of theta entry powers over the six ordered pairs, as
        (t-exponent, numerator) int pairs over the denominator
        self._den ** sum(m6); theta is real, so one numerator suffices.
        A theta keeps one per contraction it has met, and a tuple is far
        smaller than a Poly."""
        hit = self._prod_cache.get(m6)
        if hit is None:
            prod = Poly.one()
            for (i, j), m in zip(_ORDERED_PAIRS, m6):
                if m:
                    prod = prod * self.entry(i, j) ** m
            scale = self._den ** sum(m6)
            hit = tuple((e[0], c._re * (scale // c._den))
                        for e, c in prod.items())
            self._prod_cache[m6] = hit
        return hit


@dataclass(frozen=True)
class StarContext:
    """Carries the deformation profile and the eps truncation order.

    eps_cutoff=None keeps all eps orders; an integer N drops every term of
    eps-degree > N as soon as it would be produced, which is both the
    mod-eps^{N+1} semantics of the gauge sector and a large speedup.
    """

    theta: ThetaProfile
    eps_cutoff: int | None = None

    def reduce(self, p: Poly) -> Poly:
        if self.eps_cutoff is None:
            return p
        return p.truncate_eps(self.eps_cutoff)


def star(f: Poly, g: Poly, ctx: StarContext, *,
         commutator: bool = False, hermitian: bool = False) -> Poly:
    """Exact star product of two polynomials (terminating series).

    commutator=True returns f*g - g*f instead.  Swapping f and g flips the
    sign of the n-th series term (theta is antisymmetric), so the
    commutator is twice the odd-n terms of f*g: one pass, no even terms.

    hermitian=True returns the same f*g for g = conj(f), from about half
    the group pairs (see the module docstring): only the pairs b >= a of
    f's x-groups, the off-diagonal ones weighted 2, and only the real part
    of each output term.  It raises ValueError unless g == conj(f), and
    together with commutator=True; a zero operand returns zero first, the
    exact product and commutator whatever the other operand is.

    Each distinct pair of x-monomials of f and g is expanded once, and
    coefficients are summed as unnormalised ints (see the module
    docstring); nothing is kept after the call.
    """
    if not f or not g:  # theta_dot_sum pairs terms such as F_ii = 0
        return Poly.zero()
    if hermitian and (commutator or not _is_conj(f, g)):
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
    # denominator (see the module docstring).  A contraction term of order
    # n and matrix m is num (i/2)^n / m! times a theta product over
    # theta._den^n, so over den its numerator is num * weight[n] / m!
    # times the rest, an int.
    f_groups, f_den, f_deg = _x_groups(f)
    if hermitian and len(f_groups) > 1:
        # group a of f meets group a of conj(f) at weight 1 and the
        # groups b > a at weight 2 (see the module docstring)
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
    products = theta._prod_cache
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
                                        tp = theta._contraction_product(m6)
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
                terms[key] = _norm(r, 0, den)
    else:
        for key, (r, i) in out.items():
            if r or i:
                terms[key] = _norm(r, i, den)
    return Poly._raw(terms)


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


def _is_conj(f: Poly, g: Poly) -> bool:
    """g == conj(f), compared on the coefficient ints without building
    conj(f)."""
    g_terms = g._terms
    if len(f._terms) != len(g_terms):
        return False
    for e, c in f._terms.items():
        d = g_terms.get(e)
        if (d is None or d._re != c._re or d._im != -c._im
                or d._den != c._den):
            return False
    return True


def _conj_group(group: list, w: int) -> tuple:
    """An x-group of ``_x_groups`` conjugated and times w: the imaginary
    ints negated, every int multiplied by w."""
    x, _, cof, _ = group
    cof = [(te, ee, w * re, -w * im) for te, ee, re, im in cof]
    return (x, cof[0] if len(cof) == 1 else None, cof, None)


def star_commutator(f: Poly, g: Poly, ctx: StarContext) -> Poly:
    return star(f, g, ctx, commutator=True)


def dt_leibniz_defect(f: Poly, g: Poly, ctx: StarContext) -> Poly:
    """d_t(f*g) - (d_t f)*g - f*(d_t g).

    Identically equal to (1/2) i thetadot^{ij} (d_i f)*(d_j g); the equality
    is a test contract, this function computes the left side from scratch.
    """
    return (star(f, g, ctx).partial(0)
            - star(f.partial(0), g, ctx)
            - star(f, g.partial(0), ctx))


def theta_dot_sum(ctx: StarContext,
                  term: Callable[[int, int], Poly]) -> Poly:
    """thetadot^{ij} term(i, j) summed over both spatial indices, for the
    thetadot of the context's profile.

    thetadot is antisymmetric, so this is the sum over its nonzero upper
    entries of thetadot^{ij} (term(i, j) - term(j, i)).  Every thetadot
    contraction of the gauge sector, of ``dt_leibniz_correction`` and of
    ``forms.move_left`` is this sum with its own term.
    """
    acc = Poly.zero()
    for (i, j), ent in ctx.theta.theta_dot()._upper.items():
        acc = acc + ent * (term(i, j) - term(j, i))
    return acc


def dt_leibniz_correction(f: Poly, g: Poly, ctx: StarContext) -> Poly:
    """(1/2) i thetadot^{ij} (d_i f)*(d_j g), the closed form of the defect."""
    return ctx.reduce(_HALF_I * theta_dot_sum(
        ctx, lambda i, j: star(f.partial(i), g.partial(j), ctx)))


def star_conj_defect(f: Poly, g: Poly, ctx: StarContext) -> Poly:
    """conj(f*g) - conj(g)*conj(f); identically zero."""
    return star(f, g, ctx).conj() - star(g.conj(), f.conj(), ctx)


def spatial_derivation_defect(f: Poly, g: Poly, i: int, ctx: StarContext) -> Poly:
    """d_i(f*g) - (d_i f)*g - f*(d_i g) for spatial i; identically zero."""
    if not 1 <= i <= 3:
        raise ValueError("spatial index must be 1..3")
    return (star(f, g, ctx).partial(i)
            - star(f.partial(i), g, ctx)
            - star(f, g.partial(i), ctx))


def star_exp(lam: Poly, order: int, ctx: StarContext) -> Poly:
    """Truncated star exponential U = sum_{n<=order} (eps*lam)^{*n} / n!.

    lam must be purely imaginary valued (so that conj(U) is the inverse mod
    eps^{order+1}) and must not itself involve eps.
    """
    if not isinstance(order, int) or order < 0:
        raise ValueError("star_exp order must be a nonnegative int")
    if lam.eps_degree() > 0:
        raise ValueError("star_exp argument must not involve eps")
    if not lam.is_imaginary_valued():
        raise ValueError("star_exp argument must be purely imaginary valued")
    n_max = order
    if ctx.eps_cutoff is not None:
        n_max = min(n_max, ctx.eps_cutoff)
    eps = Poly.variable("eps")
    out = Poly.one()
    power = Poly.one()
    eps_pow = Poly.one()
    fact = 1
    for n in range(1, n_max + 1):
        power = star(power, lam, ctx)
        eps_pow = eps_pow * eps
        fact *= n
        out = out + eps_pow * power * Fraction(1, fact)
    return out
