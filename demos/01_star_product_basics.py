"""Walk through the deformed product on polynomials.

The product of two spatial polynomials picks up corrections weighted by a
time-dependent antisymmetric matrix.  Everything below is exact complex
rational arithmetic: when a line prints 0, the polynomial is identically
zero, not small.

Run:  python3 demos/01_star_product_basics.py
"""

from fractions import Fraction

from nckit import (CRat, Poly, StarContext, ThetaProfile, star_commutator,
                   star_exp, value_to_expr)
from nckit.poly import t, x1, x2, x3
from nckit.star import star


def show(label, value):
    print(f"  {label} = {value_to_expr(value)}")


# A deformation that grows linearly in time in the (1,2) plane and is
# constant in the (2,3) plane.
theta = ThetaProfile({(1, 2): t, (2, 3): Poly.const(CRat(Fraction(1, 2)))})
ctx = StarContext(theta)

print("coordinate commutators reproduce the deformation matrix:")
show("[x1, x2]", star_commutator(x1, x2, ctx))
show("[x2, x3]", star_commutator(x2, x3, ctx))
show("[x1, x3]", star_commutator(x1, x3, ctx))
show("[x1, t] ", star_commutator(x1, t, ctx))

print()
print("products of higher monomials terminate after finitely many terms:")
show("x1^2 * x2^2", star(x1 * x1, x2 * x2, ctx))

# Associativity is structural, not approximate.  Try one triple by hand.
f, g, h = x1 * x2, x2 + x3, x1 * x1 * x3
lhs = star(star(f, g, ctx), h, ctx)
rhs = star(f, star(g, h, ctx), ctx)
print()
print("associativity on a sample triple:")
show("(f*g)*h - f*(g*h)", lhs - rhs)

# Star exponentials of purely imaginary generators are unitary order by
# order in the formal expansion parameter.
lam = Poly.const(CRat(0, 1)) * x1 * x2
u = star_exp(lam, 3, ctx)
udag = u.conj()
print()
print("star exponential of i*x1*x2, truncated at order 3:")
show("u", ctx.reduce(u))
prod = StarContext(theta, eps_cutoff=3).reduce(star(udag, u, ctx))
show("conj(u) * u  (mod eps^4)", prod)
