"""Scalar sector: wave operator, kinetic density, null phases."""

import random
from fractions import Fraction

import pytest

from nckit.poly import Poly, eps, t, x1, x2, x3
from nckit.rationals import CRat
from nckit.star import (StarContext, ThetaProfile, dt_leibniz_defect,
                        spatial_derivation_defect, star, star_commutator)
from nckit.forms import DifferentialForm
from nckit.scalar import (
    MINKOWSKI,
    kg_density,
    kg_density_via_metric,
    kg_operator,
    linear_phase,
    metric_pairing,
    null_quadruples,
    phase_subalgebra_defects,
)
from util import rand_poly, rand_theta

I = CRat(0, 1)


def test_minkowski_signature():
    assert MINKOWSKI == (1, -1, -1, -1)


def test_null_quadruples_are_null():
    quads = null_quadruples()
    assert len(quads) >= 10
    assert len(set(quads)) == len(quads)
    for w, k1, k2, k3 in quads:
        assert w > 0
        assert w * w == k1 * k1 + k2 * k2 + k3 * k3


def test_linear_phase():
    u = linear_phase(3, (1, 2, 2))
    assert u == 3 * t + x1 + 2 * x2 + 2 * x3
    assert linear_phase(Fraction(1, 2), (0, 0, 1)) == Fraction(1, 2) * t + x3
    with pytest.raises(ValueError):
        linear_phase(1, (1, 2))


def test_kg_operator_pinned():
    assert kg_operator(t * t) == Poly.const(2)
    assert kg_operator(x1 * x1) == Poly.const(-2)
    assert kg_operator(t * t + x2 * x2).is_zero()
    u = linear_phase(3, (1, 2, 2))
    for n in range(7):
        assert kg_operator(u ** n).is_zero()


def test_kg_operator_nonnull_phase_fails():
    u = linear_phase(2, (1, 1, 1))  # 4 != 3
    assert kg_operator(u ** 2) == Poly.const(2)


def test_null_powers_solve_wave_equation_for_all_quadruples():
    for w, k1, k2, k3 in null_quadruples():
        u = linear_phase(w, (k1, k2, k3))
        for n in range(7):
            assert kg_operator(u ** n).is_zero()


def test_star_powers_equal_pointwise_on_phase_subalgebra():
    ctx = StarContext(ThetaProfile({(1, 2): t, (1, 3): 1, (2, 3): t + 2}))
    for w, k1, k2, k3 in null_quadruples()[:4]:
        u = linear_phase(w, (k1, k2, k3))
        p = Poly.one()
        for n in range(1, 7):
            p = star(p, u, ctx)
            assert p == u ** n


def test_phase_subalgebra_defects_vanish():
    ctx = StarContext(ThetaProfile({(1, 2): t, (2, 3): t * t}))
    u = linear_phase(5, (0, 3, 4))
    f = t * u ** 2 + u
    g = u ** 3 - 2 * t * t
    assert all(p.is_zero() for p in phase_subalgebra_defects(f, g, ctx))
    # and a pair that leaves the subalgebra does produce a time defect
    assert not all(
        p.is_zero() for p in phase_subalgebra_defects(x1, x2, ctx))
    # the entries are the time and the x1, x2, x3 Leibniz defects, in order
    h, k = t * x1 * x3 + x2, x2 * x3 + t * x1
    assert phase_subalgebra_defects(h, k, ctx) == (
        [dt_leibniz_defect(h, k, ctx)]
        + [spatial_derivation_defect(h, k, i, ctx) for i in (1, 2, 3)])


def test_phase_subalgebra_defects_build_fg_once(monkeypatch):
    # pairs outside the phase subalgebra under a time-dependent theta, so
    # the time defect is nonzero; f*g is built once per vector, 9 calls
    import nckit.star as star_module
    rng = random.Random(2204)
    calls = []
    plain_star = star_module.star

    def counting_star(*args, **kwargs):
        calls.append(1)
        return plain_star(*args, **kwargs)

    for _ in range(10):
        want = [Poly.zero()]
        while want[0].is_zero():  # redraw until the time defect shows
            ctx = StarContext(rand_theta(rng, max_deg=2))
            f = rand_poly(rng, max_terms=3, max_t=2, max_spatial=3)
            g = rand_poly(rng, max_terms=3, max_t=2, max_spatial=3)
            want = [dt_leibniz_defect(f, g, ctx)] + [
                spatial_derivation_defect(f, g, i, ctx) for i in (1, 2, 3)]
        # and from scratch, one direction at a time
        assert want == [star(f, g, ctx).partial(mu) - star(f.partial(mu), g, ctx)
                        - star(f, g.partial(mu), ctx) for mu in range(4)]
        monkeypatch.setattr(star_module, "star", counting_star)
        calls.clear()
        assert phase_subalgebra_defects(f, g, ctx) == want
        assert len(calls) == 9
        monkeypatch.setattr(star_module, "star", plain_star)


@pytest.mark.parametrize("eps_cutoff", [None, 1])
def test_phase_subalgebra_defects_share_products_on_the_subalgebra(
        monkeypatch, eps_cutoff):
    # on functions of one null phase every partial of a factor is a
    # multiple of one polynomial: f*g, (d_0 f)*g and f*(d_0 g) suffice
    import nckit.star as star_module
    ctx = StarContext(ThetaProfile({(1, 2): t, (1, 3): 1, (2, 3): t * t - 2}),
                      eps_cutoff)
    plain_star = star_module.star
    calls = []

    def counting_star(f, g, *args, **kwargs):
        if f and g:
            calls.append(1)
        return plain_star(f, g, *args, **kwargs)

    def vector(f, g):
        # the nine products from scratch, one direction at a time
        want = [star(f, g, ctx).partial(mu) - star(f.partial(mu), g, ctx)
                - star(f, g.partial(mu), ctx) for mu in range(4)]
        monkeypatch.setattr(star_module, "star", counting_star)
        calls.clear()
        got = phase_subalgebra_defects(f, g, ctx)
        monkeypatch.setattr(star_module, "star", plain_star)
        assert got == want
        return got

    for w, k1, k2, k3 in null_quadruples():
        u = linear_phase(w, (k1, k2, k3))
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                f = u ** a if eps_cutoff is None else u ** a * (1 + eps)
                assert all(v.is_zero() for v in vector(f, u ** b))
                assert len(calls) == 3
        # d_t f is no multiple of the spatial partials, which are of each other
        f = t * u ** 2 + u
        assert all(v.is_zero() for v in vector(f, f))
        assert len(calls) == 5
        vector(f, u ** 2)
        assert len(calls) == 4


def test_kg_density_real():
    rng = random.Random(1601)
    for _ in range(25):
        ctx = StarContext(rand_theta(rng))
        phi = rand_poly(rng, max_terms=3, max_t=2, max_spatial=3)
        dens = kg_density(phi, ctx)
        assert dens.conj() == dens


def test_kg_density_classical_limit():
    ctx = StarContext(ThetaProfile.zero())
    phi = x1 * x2 + I * t * x3
    d0 = phi.partial(0)
    want = d0 * d0.conj()
    for i in (1, 2, 3):
        di = phi.partial(i)
        want = want - di * di.conj()
    assert kg_density(phi, ctx) == want


def test_metric_pairing_basics():
    ctx = StarContext(ThetaProfile({(1, 2): t}))
    dt_ = DifferentialForm.basis(0)
    dx1_ = DifferentialForm.basis(1)
    assert metric_pairing(dt_, dt_, ctx) == Poly.one()
    assert metric_pairing(dx1_, dx1_, ctx) == -Poly.one()
    assert metric_pairing(dt_, dx1_, ctx).is_zero()
    with pytest.raises(ValueError):
        metric_pairing(DifferentialForm({0b0011: Poly.one()}), dt_, ctx)


def test_metric_route_matches_density_exactly():
    rng = random.Random(1602)
    for _ in range(25):
        ctx = StarContext(rand_theta(rng))
        phi = rand_poly(rng, max_terms=3, max_t=2, max_spatial=3)
        assert kg_density_via_metric(phi, ctx) == kg_density(phi, ctx)


def test_phase_waves_have_null_density():
    # For F = u^n with null u the density is proportional to
    # (w^2 - |k|^2) (du/du terms) = 0... not quite: the density is
    # (d_0 F)(conj d_0 F) - ... = (w^2 - |k|^2) (n u^{n-1})^2 = 0.
    ctx = StarContext(ThetaProfile({(1, 2): t}))
    for w, k1, k2, k3 in null_quadruples()[:4]:
        u = linear_phase(w, (k1, k2, k3))
        for n in range(1, 4):
            assert kg_density(u ** n, ctx).is_zero()


def test_commutators_vanish_on_phase_subalgebra():
    ctx = StarContext(ThetaProfile({(1, 2): t, (1, 3): 3, (2, 3): t * t}))
    u = linear_phase(7, (2, 3, 6))
    assert star_commutator(u ** 2, u ** 4, ctx).is_zero()
    assert star_commutator(t * u, u ** 3 - u, ctx).is_zero()
