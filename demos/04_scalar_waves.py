"""Massless scalar solutions that survive the deformation untouched.

Lightlike plane waves solve the flat wave equation, and because the
deformed product of two functions of the same phase is pointwise, every
power of such a wave is again a solution.  The demo checks this for a
family of exact integer null covectors and inspects the subalgebra
structure that makes it work.

Run:  python3 demos/04_scalar_waves.py
"""

from nckit import (StarContext, ThetaProfile, kg_density,
                   kg_density_via_metric, kg_operator, linear_phase,
                   null_quadruples, phase_subalgebra_defects, value_to_expr)
from nckit.poly import t, x1, x2
from nckit.star import star

quads = null_quadruples()
print(f"exact integer null covectors (w, k1, k2, k3): {len(quads)}")
print(f"  first few: {quads[:4]}")

# Pick one, build the linear phase u = w*t - k.x, and watch the wave
# operator annihilate powers of it.
w, k1, k2, k3 = quads[0]
u = linear_phase(w, (k1, k2, k3))
print()
print(f"u = {value_to_expr(u)}")
for n in (1, 2, 5):
    print(f"  wave operator on u^{n}: {value_to_expr(kg_operator(u ** n))}")

# Functions of a common linear phase star-commute and multiply pointwise;
# the four reported defects (two products, commutator, associativity gap)
# vanish identically.
ctx = StarContext(ThetaProfile({(1, 2): t * t}))
defects = phase_subalgebra_defects(u * u, u * u * u, ctx)
print()
print("subalgebra defects for (u^2, u^3):")
print(f"  {[value_to_expr(v) for v in defects]}")
print(f"  u^2 * u^3 == u^5 pointwise: {star(u * u, u * u * u, ctx) == u ** 5}")

# The energy-like density is real however it is assembled: directly or by
# pairing derivatives through the flat metric.
phi = u * u + x1 * x2
direct = kg_density(phi, ctx)
via_metric = kg_density_via_metric(phi, ctx)
print()
print(f"density routes agree exactly: {direct == via_metric}")
print(f"density is real: {direct.is_real_valued()}")
