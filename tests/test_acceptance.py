"""Acceptance gate: ten pinned criteria, one pass/fail line each.

Each criterion prints a single verdict line (visible with ``pytest -v -s``
or in the captured output of a failure).  Tolerances and budgets are
pinned here and nowhere else; exact criteria use structural equality of
rational polynomials, never floats.  A stronger gauge test without a
verdict line sits beside criterion 05.
"""

import random
import time
from fractions import Fraction

from nckit.forms import d, d_leibniz_defect
from nckit.gauge import (GaugePotential, complete_time_component,
                         covariance_defect, invariance_witness)
from nckit.grid import (band_limited_field, cross_validate_symbolic,
                        grid_cyclicity_defect, grid_trace_defect,
                        phase_law_defect)
from nckit.planewave import (PlaneWaveSpec, coupling_scalar,
                             effective_action, harmonic_spectrum,
                             is_theta_polarised)
from nckit.poly import Poly, t, x
from nckit.rationals import CRat
from nckit.scalar import kg_operator, linear_phase, null_quadruples
from nckit.star import (StarContext, ThetaProfile, dt_leibniz_correction,
                        dt_leibniz_defect, star, star_commutator,
                        star_conj_defect, star_exp)

from util import rand_form, rand_fraction, rand_imag_poly, rand_poly, rand_theta


def _verdict(num: int, title: str, ok: bool, note: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    tail = f" ({note})" if note else ""
    print(f"[acceptance] {num:02d} {title}: {mark}{tail}")


def test_criterion_01_star_associativity_and_commutators():
    budget = 60.0
    rng = random.Random(2001)
    t0 = time.monotonic()
    failures = 0
    i_unit = Poly.const(CRat(0, 1))
    for _ in range(200):
        ctx = StarContext(rand_theta(rng, max_deg=2))
        f = rand_poly(rng, max_terms=3, max_t=2, max_spatial=4)
        g = rand_poly(rng, max_terms=3, max_t=2, max_spatial=4)
        h = rand_poly(rng, max_terms=3, max_t=2, max_spatial=4)
        if star(star(f, g, ctx), h, ctx) != star(f, star(g, h, ctx), ctx):
            failures += 1
        for i in (1, 2, 3):
            if star_commutator(x[i], t, ctx) != Poly.zero():
                failures += 1
            for j in (1, 2, 3):
                if star_commutator(x[i], x[j], ctx) != i_unit * ctx.theta.entry(i, j):
                    failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed <= budget
    _verdict(1, "star associativity + generator commutators", ok,
             f"200 triples, {elapsed:.1f}s of {budget:.0f}s")
    assert failures == 0
    assert elapsed <= budget


def test_criterion_02_time_derivative_correction():
    budget = 30.0
    t0 = time.monotonic()
    rng = random.Random(2002)
    failures = 0
    for _ in range(200):
        ctx = StarContext(rand_theta(rng, max_deg=2))
        f = rand_poly(rng, max_terms=3, max_t=2, max_spatial=4)
        g = rand_poly(rng, max_terms=3, max_t=2, max_spatial=4)
        if dt_leibniz_defect(f, g, ctx) != dt_leibniz_correction(f, g, ctx):
            failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed <= budget
    _verdict(2, "time-derivative defect equals its closed form", ok,
             f"200 pairs, exact, {elapsed:.1f}s of {budget:.0f}s")
    assert failures == 0
    assert elapsed <= budget


def test_criterion_03_conjugation_antihomomorphism():
    budget = 30.0
    t0 = time.monotonic()
    rng = random.Random(2003)
    failures = 0
    for _ in range(200):
        ctx = StarContext(rand_theta(rng, max_deg=2))
        f = rand_poly(rng, max_terms=3, max_t=2, max_spatial=4)
        g = rand_poly(rng, max_terms=3, max_t=2, max_spatial=4)
        if not star_conj_defect(f, g, ctx).is_zero():
            failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed <= budget
    _verdict(3, "conjugation reverses the star product", ok,
             f"200 pairs, exact, {elapsed:.1f}s of {budget:.0f}s")
    assert failures == 0
    assert elapsed <= budget


def test_criterion_04_calculus_consistency():
    budget = 30.0
    t0 = time.monotonic()
    rng = random.Random(2004)
    failures = 0
    for _ in range(100):
        ctx = StarContext(rand_theta(rng, max_deg=2))
        a = rand_form(rng, max_masks=2, max_terms=2, max_t=1, max_spatial=2)
        b = rand_form(rng, max_masks=2, max_terms=2, max_t=1, max_spatial=2)
        if not d(d(a, ctx), ctx).is_zero():
            failures += 1
        if not d(d(b, ctx), ctx).is_zero():
            failures += 1
        if not d_leibniz_defect(a, b, ctx).is_zero():
            failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed <= budget
    _verdict(4, "exterior derivative squares to zero + graded rule", ok,
             f"100 pairs, exact, {elapsed:.1f}s of {budget:.0f}s")
    assert failures == 0
    assert elapsed <= budget


def test_criterion_05_gauge_covariance():
    budget = 300.0
    rng = random.Random(2005)
    t0 = time.monotonic()
    failures = 0
    for _ in range(50):
        ctx = StarContext(rand_theta(rng, max_deg=1), eps_cutoff=2)
        spatial = GaugePotential(
            rand_imag_poly(rng, max_terms=2, max_t=1, max_spatial=3),
            rand_imag_poly(rng, max_terms=2, max_t=1, max_spatial=3),
            rand_imag_poly(rng, max_terms=2, max_t=1, max_spatial=3))
        pot = complete_time_component(spatial, ctx)
        lam = rand_imag_poly(rng, max_terms=2, max_t=1, max_spatial=3)
        u = star_exp(lam, 2, ctx)
        spatial_defects, time_defects = covariance_defect(pot, u, ctx)
        if not all(v.is_zero() for v in spatial_defects.values()):
            failures += 1
        if not all(v.is_zero() for v in time_defects.values()):
            failures += 1
        witness, remainder = invariance_witness(pot, u, ctx)
        if not remainder.is_zero():
            failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed <= budget
    _verdict(5, "gauge covariance and action invariance at order 2", ok,
             f"50 cases, {elapsed:.1f}s of {budget:.0f}s")
    assert failures == 0
    assert elapsed <= budget


def test_gauge_covariance_with_thetadot_in_every_entry():
    # A stronger companion to criterion 05, which stays pinned: many of its
    # draws have a static theta or a potential too small to reach the
    # thetadot terms of Ftilde_0i.  Here every theta entry has a nonzero
    # thetadot and every potential component has spatial degree 2.
    rng = random.Random(2015)

    def imag_poly(min_spatial):
        while True:
            p = rand_imag_poly(rng, max_terms=2, max_t=1, max_spatial=2)
            if p.spatial_degree() >= min_spatial:
                return p

    for _ in range(8):
        theta = ThetaProfile({pair: rand_fraction(rng) + (rand_fraction(rng) or 1) * t
                              for pair in ((1, 2), (1, 3), (2, 3))})
        assert all(theta.theta_dot().entry(i, j)
                   for i, j in ((1, 2), (1, 3), (2, 3)))
        ctx = StarContext(theta, eps_cutoff=2)
        pot = complete_time_component(
            GaugePotential(imag_poly(2), imag_poly(2), imag_poly(2)), ctx)
        u = star_exp(imag_poly(1), 2, ctx)
        spatial_defects, time_defects = covariance_defect(pot, u, ctx)
        assert all(v.is_zero() for v in spatial_defects.values())
        assert all(v.is_zero() for v in time_defects.values())
        _, remainder = invariance_witness(pot, u, ctx)
        assert remainder.is_zero()


def test_criterion_06_action_coefficients_as_identities():
    budget = 30.0
    t0 = time.monotonic()
    ctx = StarContext(ThetaProfile({(1, 2): t * t, (2, 3): t}))
    spec = PlaneWaveSpec(omega=3, k=(1, 2, 2), p=(1, 2, 0, 1))
    report = effective_action(spec, ctx)
    ok = (report.quad_matches_reference
          and report.quad_coeff == report.reference_quad
          and report.cubic_relative_sign == -1
          and all(report.cubic_coeff[key] == -ref
                  for key, ref in report.reference_cubic.items()))
    structured = all(
        isinstance(diag, dict) and "name" in diag and "detail" in diag
        for diag in report.diagnostics)
    names = {diag["name"] for diag in report.diagnostics}
    ok = ok and structured and "mixed-strength-correction-sign" in names
    elapsed = time.monotonic() - t0
    _verdict(6, "action coefficients equal the printed forms",
             ok and elapsed <= budget,
             "polynomial identity; cubic sign -1 documented in diagnostics, "
             f"{elapsed:.1f}s of {budget:.0f}s")
    assert ok
    assert elapsed <= budget


def test_criterion_07_polarisation_dichotomy():
    budget = 30.0
    t0 = time.monotonic()
    rng = random.Random(2007)
    failures = 0
    # twenty deformation-blind waves: spatial polarization aligned with k
    # in the only active deformation plane
    done = 0
    while done < 20:
        k1, k2 = rng.randint(1, 4), rng.randint(1, 4)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        spec = PlaneWaveSpec(
            omega=rng.randint(1, 6),
            k=(k1, k2, rng.randint(-3, 3)),
            p=(rng.randint(-2, 2), c * k1, c * k2, rng.randint(-3, 3)))
        profile = ThetaProfile({(1, 2): t ** rng.randint(1, 2)})
        ctx = StarContext(profile)
        if not is_theta_polarised(spec, ctx):
            failures += 1
        if not coupling_scalar(spec, ctx).is_zero():
            failures += 1
        if not effective_action(spec, ctx).cubic_contracted.is_zero():
            failures += 1
        done += 1
    # twenty generic waves with both cubic factors alive
    done = 0
    while done < 20:
        ctx = StarContext(rand_theta(rng, max_deg=2))
        spec = PlaneWaveSpec(
            omega=rng.randint(1, 6),
            k=tuple(rng.randint(-4, 4) for _ in range(3)),
            p=tuple(rng.randint(-3, 3) for _ in range(4)))
        pref = (spec.omega * sum(v * v for v in spec.p[1:])
                - spec.p[0] * sum(a * b for a, b in zip(spec.k, spec.p[1:])))
        if coupling_scalar(spec, ctx).is_zero() or pref == 0:
            continue
        if effective_action(spec, ctx).cubic_contracted.is_zero():
            failures += 1
        done += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed <= budget
    _verdict(7, "deformation-blind waves lose the cubic term, generic keep it",
             ok, f"20 + 20 specs, exact, {elapsed:.1f}s of {budget:.0f}s")
    assert failures == 0
    assert elapsed <= budget


def test_criterion_08_null_waves_stay_solutions():
    budget = 30.0
    t0 = time.monotonic()
    rng = random.Random(2008)
    failures = 0
    quads = null_quadruples()[:10]
    for w, k1, k2, k3 in quads:
        u = linear_phase(w, (k1, k2, k3))
        for n in range(1, 7):
            if not kg_operator(u ** n).is_zero():
                failures += 1
        ctx = StarContext(rand_theta(rng, max_deg=2))
        acc = u
        for _ in range(3):
            acc = star(acc, u, ctx)
        if acc != u ** 4:
            failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed <= budget
    _verdict(8, "null plane waves solve the wave equation at every power",
             ok, "10 null covectors, powers up to 6, exact, "
                f"{elapsed:.1f}s of {budget:.0f}s")
    assert failures == 0
    assert elapsed <= budget


def test_criterion_09_grid_oracle():
    budget = 30.0
    t0 = time.monotonic()
    box = 6.283185307179586
    phase = phase_law_defect(256, box, 0.5, (3, -2), (5, 7))
    f = band_limited_field(128, box, 31, seed=2009)
    g = band_limited_field(128, box, 31, seed=2010)
    trace = grid_trace_defect(f, g, 0.7)
    cyclic = grid_cyclicity_defect(f, g, 0.7)
    series = cross_validate_symbolic({(1, 0): 1.0, (0, 1): 0.5},
                                     {(0, 2): 1.0, (0, 0): -0.25})
    elapsed = time.monotonic() - t0
    ok = (phase <= 1e-8 and trace <= 1e-10 and cyclic <= 1e-10
          and series <= 1e-6 and elapsed <= budget)
    _verdict(9, "grid oracle: phase law, trace, cyclicity, series", ok,
             f"phase {phase:.1e}, trace {trace:.1e}, cyclicity {cyclic:.1e}, "
             f"series {series:.1e}, {elapsed:.1f}s of {budget:.0f}s")
    assert phase <= 1e-8
    assert trace <= 1e-10
    assert cyclic <= 1e-10
    assert series <= 1e-6
    assert elapsed <= budget


def test_criterion_10_harmonic_spectrum():
    budget = 30.0
    t0 = time.monotonic()
    ctx = StarContext(ThetaProfile({(1, 2): t * t, (2, 3): t}))
    spec = PlaneWaveSpec(omega=3, k=(1, 2, 2), p=(1, 2, 0, 1), profile="cos")
    spectrum = harmonic_spectrum(spec, effective_action(spec, ctx))
    want = {1: Fraction(1, 4), 3: Fraction(-1, 4)}
    ok = spectrum == want and all(
        abs(float(spectrum[n]) - float(want[n])) <= 1e-12 for n in want)
    elapsed = time.monotonic() - t0
    _verdict(10, "cubic self-interaction lands on harmonics 1 and 3",
             ok and elapsed <= budget,
             "exact rational spectrum {1: 1/4, 3: -1/4}, "
             f"{elapsed:.1f}s of {budget:.0f}s")
    assert ok
    assert elapsed <= budget
