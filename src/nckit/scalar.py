"""Free scalar field sector.

The scalar kinetic density is built from star products of first
derivatives,

    L = (d_0 F) * conj(d_0 F) - sum_i (d_i F) * conj(d_i F),

and is exactly real for any polynomial F: conjugation reverses the star
factors, which maps each diagonal term to itself.  On the commutative
subalgebra generated by t and a single linear phase u = w t + k.x every
partial derivative is a derivation (the deformation never sees one
direction twice), so the classical plane wave analysis survives: F = u^n
with a null (w; k) solves the wave equation term by term and star powers
of u coincide with pointwise powers.

``null_quadruples`` lists exact rational null directions (w, k1, k2, k3)
with w^2 = k1^2 + k2^2 + k3^2, handy for tests that must stay in integer
arithmetic.
"""

from __future__ import annotations

from typing import Sequence

from .poly import Poly
from .star import StarContext, _leibniz_defect, star
from .forms import DifferentialForm, d, form_conj

MINKOWSKI = (1, -1, -1, -1)

# (w, k1, k2, k3) with w^2 = |k|^2, all integers.
_NULL_QUADRUPLES = (
    (1, 1, 0, 0),
    (3, 1, 2, 2),
    (5, 0, 3, 4),
    (7, 2, 3, 6),
    (9, 1, 4, 8),
    (11, 2, 6, 9),
    (13, 3, 4, 12),
    (15, 2, 5, 14),
    (17, 1, 12, 12),
    (19, 1, 6, 18),
    (21, 4, 5, 20),
    (25, 12, 15, 16),
)


def null_quadruples() -> tuple[tuple[int, int, int, int], ...]:
    """Exact integer null directions (w, k1, k2, k3), w > 0."""
    return _NULL_QUADRUPLES


def linear_phase(omega, k: Sequence) -> Poly:
    """The phase polynomial u = omega t + k1 x1 + k2 x2 + k3 x3."""
    if len(k) != 3:
        raise ValueError("k must have three components")
    return Poly({(1, 0, 0, 0, 0): omega, (0, 1, 0, 0, 0): k[0],
                 (0, 0, 1, 0, 0): k[1], (0, 0, 0, 1, 0): k[2]})


def kg_operator(phi: Poly) -> Poly:
    """The flat wave operator d_0^2 - d_1^2 - d_2^2 - d_3^2 applied to phi."""
    out = phi.partial(0).partial(0)
    for i in (1, 2, 3):
        out = out - phi.partial(i).partial(i)
    return out


def kg_density(phi: Poly, ctx: StarContext) -> Poly:
    """Kinetic density (d_0 phi)*conj(d_0 phi) - sum_i (d_i phi)*conj(d_i phi)."""
    d0 = phi.partial(0)
    # the full products, not hermitian=True: the suite's reality check tests them
    acc = star(d0, d0.conj(), ctx)
    for i in (1, 2, 3):
        di = phi.partial(i)
        acc = acc - star(di, di.conj(), ctx)
    return acc


def metric_pairing(alpha: DifferentialForm, beta: DifferentialForm,
                   ctx: StarContext) -> Poly:
    """Minkowski pairing of two one-forms: sum_mu eta^{mu mu} a_mu * b_mu."""
    for w in (alpha, beta):
        if not w.is_zero() and w.degree() != 1:
            raise ValueError("metric pairing is defined on one-forms")
    acc = Poly.zero()
    for mu in range(4):
        am = alpha.coefficient(1 << mu)
        bm = beta.coefficient(1 << mu)
        if am.is_zero() or bm.is_zero():
            continue
        term = star(am, bm, ctx)
        acc = acc + (term if MINKOWSKI[mu] > 0 else -term)
    return acc


def kg_density_via_metric(phi: Poly, ctx: StarContext) -> Poly:
    """Metric route to the same density: g(d phi, conj(d phi)).

    Equal to ``kg_density`` exactly: the dt correction produced while
    normal-ordering conj(d phi) is (1/2) i thetadot^{ij} d_i d_j conj(phi),
    which dies by antisymmetry.
    """
    dphi = d(DifferentialForm.from_function(phi), ctx)
    return metric_pairing(dphi, form_conj(dphi, ctx), ctx)


def phase_subalgebra_defects(f: Poly, g: Poly,
                             ctx: StarContext) -> list[Poly]:
    """All four Leibniz defects of the pair (f, g): [time, x1, x2, x3].

    Every entry vanishes when f and g live in the subalgebra generated by
    t and one linear phase.  f*g is built once for all four and each
    one-sided product once per partial up to an exact scalar, so a vector
    costs 3 star products on that subalgebra and 9 for a generic pair.
    """
    return _leibniz_defect(f, g, range(4), ctx)
