"""Seeded verification suites behind the command surface.

Each suite bundles the invariants of one sector into named properties.
A property runs a number of randomized cases and collects the first few
counterexamples, rendered back through the expression language so a
failing case can be replayed with the `reduce` command.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import grid as gridmod
from .expr import poly_to_expr, value_to_expr
from .forms import (DifferentialForm, d, d_leibniz_defect, form_conj,
                    form_mul, left_mul)
from .gauge import (GaugePotential, complete_time_component,
                    covariance_defect, field_strength, invariance_witness,
                    time_component_defect)
from .planewave import (PlaneWaveSpec, build_ansatz, coupling_scalar,
                        effective_action, harmonic_spectrum,
                        is_theta_polarised)
from .poly import Poly, t, x
from .rationals import CRat
from .scalar import (kg_density, kg_density_via_metric, kg_operator,
                     linear_phase, null_quadruples, phase_subalgebra_defects)
from .star import (StarContext, ThetaProfile, dt_leibniz_correction,
                   dt_leibniz_defect, spatial_derivation_defect, star,
                   star_commutator, star_conj_defect, star_exp)

SUITE_NAMES = ("star", "calculus", "gauge", "scalar", "planewave", "grid")

_MAX_COUNTEREXAMPLES = 3


# -- randomized inputs ---------------------------------------------------------

def _rand_fraction(rng: random.Random, lo=-4, hi=4, max_den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _rand_crat(rng: random.Random) -> CRat:
    return CRat(_rand_fraction(rng), _rand_fraction(rng))


def _rand_poly(rng: random.Random, max_terms=4, max_t=2, max_spatial=4) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        budget = rng.randint(0, max_spatial)
        e1 = rng.randint(0, budget)
        e2 = rng.randint(0, budget - e1)
        e3 = budget - e1 - e2 if rng.random() < 0.5 else rng.randint(0, budget - e1 - e2)
        terms[(rng.randint(0, max_t), e1, e2, e3, 0)] = _rand_crat(rng)
    return Poly(terms)


def _rand_imag_poly(rng: random.Random, max_terms=3, max_t=1, max_spatial=3) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        budget = rng.randint(0, max_spatial)
        e1 = rng.randint(0, budget)
        e2 = rng.randint(0, budget - e1)
        e3 = rng.randint(0, budget - e1 - e2)
        terms[(rng.randint(0, max_t), e1, e2, e3, 0)] = CRat(0, _rand_fraction(rng))
    return Poly(terms)


def _rand_t_poly(rng: random.Random, max_deg=2) -> Poly:
    return Poly({(e, 0, 0, 0, 0): _rand_fraction(rng)
                 for e in range(rng.randint(0, max_deg) + 1)})


def _rand_theta(rng: random.Random, max_deg=2) -> ThetaProfile:
    entries = {}
    for pair in ((1, 2), (1, 3), (2, 3)):
        if rng.random() < 0.75:
            entries[pair] = _rand_t_poly(rng, max_deg)
    return ThetaProfile(entries)


def _rand_form(rng: random.Random, max_masks=2, max_terms=2) -> DifferentialForm:
    total = DifferentialForm.zero()
    for _ in range(rng.randint(1, max_masks)):
        mask = rng.randint(0, 15)
        f = _rand_poly(rng, max_terms=max_terms, max_t=1, max_spatial=2)
        total = total + DifferentialForm({mask: f})
    return total


# -- reporting shell -----------------------------------------------------------

@dataclass(frozen=True)
class PropertyResult:
    name: str
    cases: int
    failures: int
    counterexamples: tuple[str, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    cases: int
    order: int
    theta_text: dict[str, str] | None  # None means per-case random profiles
    properties: tuple[PropertyResult, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def table(self) -> list[str]:
        width = max(len(p.name) for p in self.properties)
        lines = []
        for p in self.properties:
            mark = "PASS" if p.passed else "FAIL"
            lines.append(f"{mark}  {p.name:<{width}}  "
                         f"{p.cases:>4} cases  {p.failures:>3} failures  "
                         f"{p.elapsed:7.2f}s")
            for ce in p.counterexamples:
                lines.append(f"      counterexample: {ce}")
        verdict = "pass" if self.passed else "FAIL"
        lines.append(f"suite {self.suite}: {verdict} "
                     f"({len(self.properties)} properties, {self.elapsed:.2f}s)")
        return lines

    def to_json_dict(self) -> dict:
        return {
            "schema": "nckit-report/1",
            "kind": "verify",
            "suite": self.suite,
            "seed": self.seed,
            "cases": self.cases,
            "order": self.order,
            "theta": self.theta_text if self.theta_text is not None
                     else "random-per-case",
            "passed": self.passed,
            "elapsed": round(self.elapsed, 6),
            "properties": [
                {
                    "name": p.name,
                    "cases": p.cases,
                    "failures": p.failures,
                    "passed": p.passed,
                    "elapsed": round(p.elapsed, 6),
                    "counterexamples": list(p.counterexamples),
                }
                for p in self.properties
            ],
        }


def theta_to_text(theta: ThetaProfile) -> dict[str, str]:
    out = {}
    for (i, j), p in theta.upper_entries().items():
        out[f"t{i}{j}"] = poly_to_expr(p)
    return out


class _Recorder:
    """Case loop helper: counts failures, keeps the first few renderings."""

    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.failures = 0
        self.examples: list[str] = []
        self.t0 = time.perf_counter()

    def record(self, ok: bool, describe) -> None:
        self.cases += 1
        if ok:
            return
        self.failures += 1
        if len(self.examples) < _MAX_COUNTEREXAMPLES:
            self.examples.append(describe())

    def done(self) -> PropertyResult:
        return PropertyResult(self.name, self.cases, self.failures,
                              tuple(self.examples),
                              time.perf_counter() - self.t0)


def _ctx_for(rng: random.Random, theta: ThetaProfile | None) -> StarContext:
    return StarContext(theta if theta is not None else _rand_theta(rng))


def _describe(ctx: StarContext, **values) -> str:
    """A counterexample as `name = expr; ...; t12 = ...`, every value and
    theta entry rendered so that it re-parses (replay with `reduce`)."""
    parts = [f"{k} = {value_to_expr(v)}" for k, v in values.items()]
    for key, text in theta_to_text(ctx.theta).items():
        parts.append(f"{key} = {text}")
    return "; ".join(parts)


# -- star suite ----------------------------------------------------------------

def _prop_associativity(rng, cases, theta):
    rec = _Recorder("star-associativity")
    for _ in range(cases):
        ctx = _ctx_for(rng, theta)
        f = _rand_poly(rng)
        g = _rand_poly(rng)
        h = _rand_poly(rng)
        ok = star(star(f, g, ctx), h, ctx) == star(f, star(g, h, ctx), ctx)
        rec.record(ok, lambda: _describe(ctx, f=f, g=g, h=h))
    return rec.done()


def _prop_generator_commutators(rng, cases, theta):
    rec = _Recorder("generator-commutators")
    i_unit = Poly.const(CRat(0, 1))
    for _ in range(cases):
        ctx = _ctx_for(rng, theta)
        ok = True
        for i in (1, 2, 3):
            if star_commutator(x[i], t, ctx) != Poly.zero():
                ok = False
            for j in (1, 2, 3):
                want = i_unit * ctx.theta.entry(i, j)
                if star_commutator(x[i], x[j], ctx) != want:
                    ok = False
        rec.record(ok, lambda: _describe(ctx))
    return rec.done()


def _prop_non_leibniz(rng, cases, theta):
    rec = _Recorder("time-derivative-correction")
    for _ in range(cases):
        ctx = _ctx_for(rng, theta)
        f = _rand_poly(rng)
        g = _rand_poly(rng)
        ok = dt_leibniz_defect(f, g, ctx) == dt_leibniz_correction(f, g, ctx)
        rec.record(ok, lambda: _describe(ctx, f=f, g=g))
    return rec.done()


def _prop_conj_reversal(rng, cases, theta):
    rec = _Recorder("conjugation-reversal")
    for _ in range(cases):
        ctx = _ctx_for(rng, theta)
        f = _rand_poly(rng)
        g = _rand_poly(rng)
        rec.record(star_conj_defect(f, g, ctx).is_zero(),
                   lambda: _describe(ctx, f=f, g=g))
    return rec.done()


def _prop_spatial_derivations(rng, cases, theta):
    rec = _Recorder("spatial-derivations")
    for _ in range(cases):
        ctx = _ctx_for(rng, theta)
        f = _rand_poly(rng)
        g = _rand_poly(rng)
        i = rng.randint(1, 3)
        rec.record(spatial_derivation_defect(f, g, i, ctx).is_zero(),
                   lambda: _describe(ctx, f=f, g=g))
    return rec.done()


def _suite_star(rng, cases, order, theta):
    return (
        _prop_associativity(rng, cases, theta),
        _prop_generator_commutators(rng, cases, theta),
        _prop_non_leibniz(rng, cases, theta),
        _prop_conj_reversal(rng, cases, theta),
        _prop_spatial_derivations(rng, cases, theta),
    )


# -- calculus suite --------------------------------------------------------------

def _prop_d_squared(rng, cases, theta):
    rec = _Recorder("exterior-derivative-squared")
    for _ in range(cases):
        ctx = _ctx_for(rng, theta)
        w = _rand_form(rng)
        rec.record(d(d(w, ctx), ctx).is_zero(),
                   lambda: _describe(ctx, w=w))
    return rec.done()


def _prop_graded_leibniz(rng, cases, theta):
    rec = _Recorder("graded-leibniz")
    for _ in range(cases):
        ctx = _ctx_for(rng, theta)
        a = _rand_form(rng)
        b = _rand_form(rng)
        rec.record(d_leibniz_defect(a, b, ctx).is_zero(),
                   lambda: _describe(ctx, a=a, b=b))
    return rec.done()


def _prop_form_conj(rng, cases, theta):
    rec = _Recorder("form-conjugation")
    for _ in range(cases):
        ctx = _ctx_for(rng, theta)
        a = _rand_form(rng)
        b = _rand_form(rng)
        invol = form_conj(form_conj(a, ctx), ctx) == a
        anti = (form_conj(form_mul(a, b, ctx), ctx)
                == form_mul(form_conj(b, ctx), form_conj(a, ctx), ctx))
        rec.record(invol and anti, lambda: _describe(ctx, a=a, b=b))
    return rec.done()


def _prop_left_module(rng, cases, theta):
    rec = _Recorder("left-module-consistency")
    for _ in range(cases):
        ctx = _ctx_for(rng, theta)
        f = _rand_poly(rng, max_terms=2, max_t=1, max_spatial=2)
        w = _rand_form(rng)
        ok = (left_mul(f, w, ctx)
              == form_mul(DifferentialForm.from_function(f), w, ctx))
        rec.record(ok, lambda: _describe(ctx, w=w, f=f))
    return rec.done()


def _suite_calculus(rng, cases, order, theta):
    return (
        _prop_d_squared(rng, cases, theta),
        _prop_graded_leibniz(rng, cases, theta),
        _prop_form_conj(rng, cases, theta),
        _prop_left_module(rng, cases, theta),
    )


# -- gauge suite -----------------------------------------------------------------

def _rand_potential(rng, ctx) -> GaugePotential:
    spatial = GaugePotential(
        _rand_imag_poly(rng), _rand_imag_poly(rng), _rand_imag_poly(rng))
    return complete_time_component(spatial, ctx)


def _prop_reality_completion(rng, cases, order, theta):
    rec = _Recorder("time-component-reality")
    for _ in range(cases):
        ctx = StarContext((theta if theta is not None else _rand_theta(rng)),
                          eps_cutoff=order)
        pot = _rand_potential(rng, ctx)
        rec.record(time_component_defect(pot, ctx).is_zero(),
                   lambda: _describe(ctx, a1=pot.a1, a2=pot.a2, a3=pot.a3))
    return rec.done()


def _prop_covariance(rng, cases, order, theta):
    rec = _Recorder("field-strength-covariance")
    for _ in range(cases):
        ctx = StarContext((theta if theta is not None else _rand_theta(rng, max_deg=1)),
                          eps_cutoff=order)
        pot = _rand_potential(rng, ctx)
        lam = _rand_imag_poly(rng, max_terms=2, max_t=1, max_spatial=2)
        u = star_exp(lam, order, ctx)
        spatial_defects, time_defects = covariance_defect(pot, u, ctx)
        ok = (all(v.is_zero() for v in spatial_defects.values())
              and all(v.is_zero() for v in time_defects.values()))
        rec.record(ok, lambda: _describe(
            ctx, a1=pot.a1, a2=pot.a2, a3=pot.a3, **{"lambda": lam}))
    return rec.done()


def _prop_action_invariance(rng, cases, order, theta):
    rec = _Recorder("action-invariance-witness")
    for _ in range(cases):
        ctx = StarContext((theta if theta is not None else _rand_theta(rng, max_deg=1)),
                          eps_cutoff=order)
        pot = _rand_potential(rng, ctx)
        lam = _rand_imag_poly(rng, max_terms=2, max_t=1, max_spatial=2)
        u = star_exp(lam, order, ctx)
        witness, remainder = invariance_witness(pot, u, ctx)
        rec.record(remainder.is_zero(), lambda: _describe(
            ctx, a1=pot.a1, a2=pot.a2, a3=pot.a3, **{"lambda": lam}))
    return rec.done()


def _prop_pure_gauge(rng, cases, order, theta):
    rec = _Recorder("pure-gauge-flatness")
    for _ in range(cases):
        ctx = StarContext((theta if theta is not None else _rand_theta(rng, max_deg=1)),
                          eps_cutoff=order)
        lam = _rand_imag_poly(rng, max_terms=2, max_t=1, max_spatial=2)
        u = star_exp(lam, order, ctx)
        udag = u.conj()
        comps = [star(udag, u.partial(k), ctx) for k in (1, 2, 3)]
        pure = complete_time_component(GaugePotential(*comps), ctx)
        fs = field_strength(pure, ctx)
        ok = all(v.is_zero() for v in fs.spatial.values())
        rec.record(ok, lambda: _describe(
            ctx, a1=pure.a1, a2=pure.a2, a3=pure.a3, **{"lambda": lam}))
    return rec.done()


def _suite_gauge(rng, cases, order, theta):
    return (
        _prop_reality_completion(rng, cases, order, theta),
        _prop_covariance(rng, cases, order, theta),
        _prop_action_invariance(rng, cases, order, theta),
        _prop_pure_gauge(rng, cases, order, theta),
    )


# -- scalar suite ------------------------------------------------------------------

def _prop_null_solutions(rng, cases, theta):
    rec = _Recorder("null-wave-solutions")
    quads = null_quadruples()
    for _ in range(cases):
        w, k1, k2, k3 = quads[rng.randrange(len(quads))]
        n = rng.randint(1, 6)
        u = linear_phase(w, (k1, k2, k3))
        rec.record(kg_operator(u ** n).is_zero(),
                   lambda: f"profile = u^{n}; u = {poly_to_expr(u)}")
    return rec.done()


def _prop_star_power_collapse(rng, cases, theta):
    rec = _Recorder("subalgebra-star-powers")
    quads = null_quadruples()
    for _ in range(cases):
        ctx = _ctx_for(rng, theta)
        w, k1, k2, k3 = quads[rng.randrange(len(quads))]
        u = linear_phase(w, (k1, k2, k3))
        n = rng.randint(2, 4)
        acc = u
        for _ in range(n - 1):
            acc = star(acc, u, ctx)
        rec.record(acc == u ** n,
                   lambda: _describe(ctx, u=u))
    return rec.done()


def _prop_subalgebra_derivations(rng, cases, theta):
    rec = _Recorder("subalgebra-defect-vector")
    quads = null_quadruples()
    for _ in range(cases):
        ctx = _ctx_for(rng, theta)
        w, k1, k2, k3 = quads[rng.randrange(len(quads))]
        u = linear_phase(w, (k1, k2, k3))
        f = u ** rng.randint(1, 3)
        g = u ** rng.randint(1, 3)
        defects = phase_subalgebra_defects(f, g, ctx)
        rec.record(all(v.is_zero() for v in defects),
                   lambda: _describe(ctx, f=f, g=g))
    return rec.done()


def _prop_density_reality(rng, cases, theta):
    rec = _Recorder("energy-density-reality")
    for _ in range(cases):
        ctx = _ctx_for(rng, theta)
        phi = _rand_poly(rng, max_terms=3, max_t=1, max_spatial=3)
        rec.record(kg_density(phi, ctx).is_real_valued(),
                   lambda: _describe(ctx, phi=phi))
    return rec.done()


def _prop_metric_route(rng, cases, theta):
    rec = _Recorder("metric-pairing-route")
    for _ in range(cases):
        ctx = _ctx_for(rng, theta)
        phi = _rand_poly(rng, max_terms=3, max_t=1, max_spatial=3)
        rec.record(kg_density(phi, ctx) == kg_density_via_metric(phi, ctx),
                   lambda: _describe(ctx, phi=phi))
    return rec.done()


def _suite_scalar(rng, cases, order, theta):
    return (
        _prop_null_solutions(rng, cases, theta),
        _prop_star_power_collapse(rng, cases, theta),
        _prop_subalgebra_derivations(rng, cases, theta),
        _prop_density_reality(rng, cases, theta),
        _prop_metric_route(rng, cases, theta),
    )


# -- plane wave suite ---------------------------------------------------------------

def _rand_wave_numbers(rng) -> tuple[Fraction, tuple, tuple]:
    omega = Fraction(rng.randint(1, 6))
    k = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
    p = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
    return omega, k, p


def _spec_text(spec: PlaneWaveSpec) -> str:
    return (f"omega = {spec.omega}; k = {spec.k}; p = {spec.p}; "
            f"profile = {spec.profile}")


def _prop_quad_identity(rng, cases, theta):
    rec = _Recorder("action-quadratic-identity")
    for _ in range(min(cases, 10)):
        ctx = _ctx_for(rng, theta)
        omega, k, p = _rand_wave_numbers(rng)
        spec = PlaneWaveSpec(omega, k, p)
        report = effective_action(spec, ctx)
        ok = (report.quad_matches_reference
              and report.cubic_relative_sign in (None, -1))
        rec.record(ok, lambda: _spec_text(spec))
    return rec.done()


def _prop_polarisation(rng, cases, theta):
    rec = _Recorder("polarisation-split")
    for _ in range(cases):
        ctx = _ctx_for(rng, theta)
        omega, k, p = _rand_wave_numbers(rng)
        spec = PlaneWaveSpec(omega, k, p)
        report = effective_action(spec, ctx)
        # the mixed term factorizes as (scalar prefactor) x (coupling);
        # it vanishes exactly when either factor does
        pref = (omega * sum(v * v for v in p[1:])
                - p[0] * sum(a * b for a, b in zip(k, p[1:])))
        if is_theta_polarised(spec, ctx) or pref == 0:
            ok = report.cubic_contracted.is_zero()
        else:
            ok = not report.cubic_contracted.is_zero()
        rec.record(ok, lambda: _spec_text(spec))
    return rec.done()


def _prop_harmonics(rng, cases, theta):
    rec = _Recorder("harmonic-spectrum")
    want = {1: Fraction(1, 4), 3: Fraction(-1, 4)}
    for _ in range(min(cases, 12)):
        ctx = _ctx_for(rng, theta)
        omega, k, p = _rand_wave_numbers(rng)
        spec = PlaneWaveSpec(omega, k, p, "cos")
        spectrum = harmonic_spectrum(spec, ctx)
        report = effective_action(spec, ctx)
        if report.cubic_contracted.is_zero():
            ok = spectrum == {}
        else:
            ok = spectrum == want
        rec.record(ok, lambda: _spec_text(spec))
    return rec.done()


def _prop_route_equality(rng, cases, theta):
    rec = _Recorder("ansatz-route-equality")
    from .gauge import action_density
    for _ in range(min(cases, 6)):
        ctx = _ctx_for(rng, theta)
        omega, k, p = _rand_wave_numbers(rng)
        spec = PlaneWaveSpec(omega, k, p, (Fraction(0), Fraction(0), Fraction(1)))
        pot = build_ansatz(spec, ctx)
        fs = field_strength(pot, ctx)
        direct = action_density(fs, ctx)
        report = effective_action(spec, ctx)
        contracted = _contract_integrand(report, spec, ctx)
        rec.record(direct == contracted, lambda: _spec_text(spec))
    return rec.done()


def _contract_integrand(report, spec, ctx):
    """Evaluate the symbolic integrand on a concrete spec and profile."""
    from .planewave import _derive_coeffs, _poly_profile, pw_substitute
    u = spec.phase()
    c0 = spec.profile_coefficients()
    c1 = _derive_coeffs(c0)
    c2 = _derive_coeffs(c1)
    dot = ctx.theta.theta_dot()
    mapping = {
        "w": Poly.const(spec.omega),
        "k1": Poly.const(spec.k[0]), "k2": Poly.const(spec.k[1]),
        "k3": Poly.const(spec.k[2]),
        "p0": Poly.const(spec.p[0]), "p1": Poly.const(spec.p[1]),
        "p2": Poly.const(spec.p[2]), "p3": Poly.const(spec.p[3]),
        "d12": dot.entry(1, 2), "d13": dot.entry(1, 3),
        "d23": dot.entry(2, 3),
        "s": Poly.one(),
        "f0": _poly_profile(c0, u),
        "f1": _poly_profile(c1, u),
        "f2": _poly_profile(c2, u),
    }
    return pw_substitute(report.integrand, mapping)


def _suite_planewave(rng, cases, order, theta):
    return (
        _prop_quad_identity(rng, cases, theta),
        _prop_polarisation(rng, cases, theta),
        _prop_harmonics(rng, cases, theta),
        _prop_route_equality(rng, cases, theta),
    )


# -- grid suite ----------------------------------------------------------------------

def _prop_phase_law(rng, cases, order):
    rec = _Recorder("plane-wave-phase-law")
    for _ in range(cases):
        n = rng.choice((32, 64))
        box = rng.choice((1.0, 2.0, 6.283185307179586))
        theta_val = rng.uniform(-1.0, 1.0)
        a = (rng.randint(-5, 5), rng.randint(-5, 5))
        b = (rng.randint(-5, 5), rng.randint(-5, 5))
        defect = gridmod.phase_law_defect(n, box, theta_val, a, b)
        rec.record(defect < 1e-10,
                   lambda: f"n={n} box={box} theta={theta_val} a={a} b={b} "
                           f"defect={defect:.3e}")
    return rec.done()


def _prop_trace(rng, cases, order):
    rec = _Recorder("trace-property")
    for _ in range(cases):
        n = 64
        box = 6.283185307179586
        f = gridmod.band_limited_field(n, box, n // 4 - 1, seed=rng.randrange(1 << 30))
        g = gridmod.band_limited_field(n, box, n // 4 - 1, seed=rng.randrange(1 << 30))
        theta_val = rng.uniform(-1.5, 1.5)
        defect = gridmod.grid_trace_defect(f, g, theta_val)
        rec.record(defect < 1e-10,
                   lambda: f"n={n} theta={theta_val} defect={defect:.3e}")
    return rec.done()


def _prop_cyclicity(rng, cases, order):
    rec = _Recorder("trace-cyclicity")
    for _ in range(cases):
        n = 64
        box = 6.283185307179586
        f = gridmod.band_limited_field(n, box, n // 4 - 1, seed=rng.randrange(1 << 30))
        g = gridmod.band_limited_field(n, box, n // 4 - 1, seed=rng.randrange(1 << 30))
        theta_val = rng.uniform(-1.5, 1.5)
        defect = gridmod.grid_cyclicity_defect(f, g, theta_val)
        rec.record(defect < 1e-10,
                   lambda: f"n={n} theta={theta_val} defect={defect:.3e}")
    return rec.done()


def _prop_series_cross_check(rng, cases, order):
    rec = _Recorder("series-cross-validation")
    pool = (
        ({(0, 0): 1.0}, {(0, 0): 1.0}),
        ({(1, 0): 1.0, (0, 1): 0.5}, {(0, 2): 1.0, (0, 0): -0.25}),
        ({(2, 1): 1.0}, {(1, 1): 1.0, (0, 0): 0.5}),
    )
    for idx in range(min(cases, len(pool))):
        pf, pg = pool[idx]
        defect = gridmod.cross_validate_symbolic(pf, pg)
        rec.record(defect < 1e-6,
                   lambda: f"case {idx} defect={defect:.3e}")
    return rec.done()


def _suite_grid(rng, cases, order, theta):
    return (
        _prop_phase_law(rng, cases, order),
        _prop_trace(rng, min(cases, 20), order),
        _prop_cyclicity(rng, min(cases, 20), order),
        _prop_series_cross_check(rng, cases, order),
    )


# -- entry point ---------------------------------------------------------------------

_SUITES = {
    "star": _suite_star,
    "calculus": _suite_calculus,
    "gauge": _suite_gauge,
    "scalar": _suite_scalar,
    "planewave": _suite_planewave,
    "grid": _suite_grid,
}


def run_suite(name: str, seed: int = 0, cases: int = 50, order: int = 2,
              theta: ThetaProfile | None = None) -> SuiteReport:
    """Run one named verification suite.

    theta=None draws a fresh random profile per case; passing a profile
    pins it for every case.  order is the eps truncation for the gauge
    sector.  Raises ValueError for an unknown suite name.
    """
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    rng = random.Random(seed)
    t0 = time.perf_counter()
    results = _SUITES[name](rng, cases, order, theta)
    elapsed = time.perf_counter() - t0
    return SuiteReport(
        suite=name,
        seed=seed,
        cases=cases,
        order=order,
        theta_text=None if theta is None else theta_to_text(theta),
        properties=tuple(results),
        elapsed=elapsed,
    )
