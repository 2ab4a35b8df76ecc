"""Seeded verification suites behind the command surface.

Each suite bundles the invariants of one sector into named properties,
listed in `_SUITES` as (name, case function, cap on the number of cases
or None).  One loop, `_run_property`, runs every property: it counts the
failures and renders the first few counterexamples.

A case function is `case(rng, theta, order, k) -> (ok, describe)`.  It
draws its random inputs from `rng` in a fixed order (a seed's reports
depend on that order), checks one instance, and returns whether the
instance held together with a zero-argument `describe` that renders it
as a counterexample; `describe` is called only for failures.  `theta` is
the pinned profile, or None for a random one per case; `order` is the
eps truncation of the gauge sector and `k` the index of the case.  Case
functions call the library through this module's globals, so a test can
patch a kernel here.  A new property is one case function plus one row
of `_SUITES`.

Counterexamples are rendered back through the expression language, and
plane-wave ones through the config syntax, so a failing case replays
with the `reduce` command or as a config file.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import grid as gridmod
from .grid import SERIES_TOL, SUITE_PHASE_TOL, TRACE_TOL, _SERIES_POOL
from .config import planewave_items, theta_to_text
from .expr import value_to_expr
from .forms import (DifferentialForm, d, d_leibniz_defect, form_conj,
                    form_mul, left_mul)
from .gauge import (GaugePotential, action_density, complete_time_component,
                    covariance_defect, field_strength,
                    gauge_transform_potential, invariance_witness,
                    time_component_defect)
from .planewave import (PlaneWaveSpec, _derive_coeffs, _poly_profile,
                        build_ansatz, effective_action, harmonic_spectrum,
                        is_theta_polarised, pw_substitute)
from .poly import Poly, t, x
from .rationals import CRat, I
from .scalar import (kg_density, kg_density_via_metric, kg_operator,
                     linear_phase, null_quadruples, phase_subalgebra_defects)
from .star import (PAIRS, StarContext, ThetaProfile, dt_leibniz_correction,
                   dt_leibniz_defect, spatial_derivation_defect, star,
                   star_commutator, star_conj_defect, star_exp)

SUITE_NAMES = ("star", "calculus", "gauge", "scalar", "planewave", "grid")
REPORT_SCHEMA = "nckit-report/1"  # the "schema" of every --json report

_MAX_COUNTEREXAMPLES = 3


# -- randomized inputs ---------------------------------------------------------

def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _rand_poly(rng: random.Random, max_terms=4, max_t=2, max_spatial=4) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        budget = rng.randint(0, max_spatial)
        e1 = rng.randint(0, budget)
        e2 = rng.randint(0, budget - e1)
        e3 = budget - e1 - e2 if rng.random() < 0.5 else rng.randint(0, budget - e1 - e2)
        terms[(rng.randint(0, max_t), e1, e2, e3, 0)] = CRat(
            _rand_fraction(rng), _rand_fraction(rng))
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
    for pair in PAIRS:
        if rng.random() < 0.75:
            entries[pair] = _rand_t_poly(rng, max_deg)
    return ThetaProfile(entries)


def _rand_form(rng: random.Random) -> DifferentialForm:
    total = DifferentialForm.zero()
    for _ in range(rng.randint(1, 2)):
        mask = rng.randint(0, 15)
        f = _rand_poly(rng, max_terms=2, max_t=1, max_spatial=2)
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
            "schema": REPORT_SCHEMA,
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


def _ctx_for(rng: random.Random, theta: ThetaProfile | None, max_deg=2,
             order: int | None = None) -> StarContext:
    """The pinned profile, else a random one of t-degree <= max_deg."""
    return StarContext(theta if theta is not None else _rand_theta(rng, max_deg),
                       eps_cutoff=order)


def _describe(ctx: StarContext | None = None, **values) -> str:
    """A counterexample as `name = expr; ...; t12 = ...`, every value and
    theta entry rendered so that it re-parses (replay with `reduce`).  An
    int value, such as a drawn index or power, renders as itself, a str
    verbatim, and a PlaneWaveSpec as its [planewave] keys:
    `omega = 3; k = 1 -2 0; p = 0 1 0 2; profile = cos; t12 = t`."""
    items = []
    for key, v in values.items():
        if isinstance(v, PlaneWaveSpec):
            items += planewave_items(v)
        else:
            items.append((key, v if isinstance(v, (int, str))
                          else value_to_expr(v)))
    if ctx is not None:
        items += theta_to_text(ctx.theta).items()
    return "; ".join(f"{key} = {text}" for key, text in items)


# -- star suite ----------------------------------------------------------------

def _case_associativity(rng, theta, order, k):
    ctx = _ctx_for(rng, theta)
    f, g, h = _rand_poly(rng), _rand_poly(rng), _rand_poly(rng)
    return (star(star(f, g, ctx), h, ctx) == star(f, star(g, h, ctx), ctx),
            lambda: _describe(ctx, f=f, g=g, h=h))


def _case_generator_commutators(rng, theta, order, k):
    ctx = _ctx_for(rng, theta)
    ok = all(star_commutator(x[i], t, ctx).is_zero()
             and all(star_commutator(x[i], x[j], ctx) == ctx.theta.entry(i, j) * I
                     for j in (1, 2, 3))
             for i in (1, 2, 3))
    return ok, lambda: _describe(ctx)


def _case_time_derivative(rng, theta, order, k):
    ctx, f, g = _ctx_for(rng, theta), _rand_poly(rng), _rand_poly(rng)
    return (dt_leibniz_defect(f, g, ctx) == dt_leibniz_correction(f, g, ctx),
            lambda: _describe(ctx, f=f, g=g))


def _case_conj_reversal(rng, theta, order, k):
    ctx, f, g = _ctx_for(rng, theta), _rand_poly(rng), _rand_poly(rng)
    return (star_conj_defect(f, g, ctx).is_zero(),
            lambda: _describe(ctx, f=f, g=g))


def _case_spatial_derivations(rng, theta, order, k):
    ctx, f, g = _ctx_for(rng, theta), _rand_poly(rng), _rand_poly(rng)
    i = rng.randint(1, 3)
    return (spatial_derivation_defect(f, g, i, ctx).is_zero(),
            lambda: _describe(ctx, f=f, g=g, index=i))


# -- calculus suite --------------------------------------------------------------

def _case_d_squared(rng, theta, order, k):
    ctx, w = _ctx_for(rng, theta), _rand_form(rng)
    return d(d(w, ctx), ctx).is_zero(), lambda: _describe(ctx, w=w)


def _case_graded_leibniz(rng, theta, order, k):
    ctx, a, b = _ctx_for(rng, theta), _rand_form(rng), _rand_form(rng)
    return (d_leibniz_defect(a, b, ctx).is_zero(),
            lambda: _describe(ctx, a=a, b=b))


def _case_form_conj(rng, theta, order, k):
    ctx, a, b = _ctx_for(rng, theta), _rand_form(rng), _rand_form(rng)
    invol = form_conj(form_conj(a, ctx), ctx) == a
    anti = (form_conj(form_mul(a, b, ctx), ctx)
            == form_mul(form_conj(b, ctx), form_conj(a, ctx), ctx))
    return invol and anti, lambda: _describe(ctx, a=a, b=b)


def _case_left_module(rng, theta, order, k):
    ctx = _ctx_for(rng, theta)
    f = _rand_poly(rng, max_terms=2, max_t=1, max_spatial=2)
    w = _rand_form(rng)
    return (left_mul(f, w, ctx)
            == form_mul(DifferentialForm.from_function(f), w, ctx),
            lambda: _describe(ctx, w=w, f=f))


# -- gauge suite -----------------------------------------------------------------

def _rand_potential(rng, ctx) -> GaugePotential:
    spatial = GaugePotential(
        _rand_imag_poly(rng), _rand_imag_poly(rng), _rand_imag_poly(rng))
    return complete_time_component(spatial, ctx)


def _rand_gauge(rng, ctx, order):
    """A random imaginary gauge parameter lambda and u = exp_*(lambda)."""
    lam = _rand_imag_poly(rng, max_terms=2, max_t=1, max_spatial=2)
    return lam, star_exp(lam, order, ctx)


def _describe_gauge(ctx, pot, lam=None) -> str:
    values = {"a1": pot.a1, "a2": pot.a2, "a3": pot.a3}
    if lam is not None:
        values["lambda"] = lam
    return _describe(ctx, **values)


def _case_reality_completion(rng, theta, order, k):
    ctx = _ctx_for(rng, theta, order=order)
    pot = _rand_potential(rng, ctx)
    return (time_component_defect(pot, ctx).is_zero(),
            lambda: _describe_gauge(ctx, pot))


def _case_covariance(rng, theta, order, k):
    ctx = _ctx_for(rng, theta, max_deg=1, order=order)
    pot = _rand_potential(rng, ctx)
    lam, u = _rand_gauge(rng, ctx, order)
    spatial, timelike = covariance_defect(pot, u, ctx)
    ok = all(v.is_zero() for v in (*spatial.values(), *timelike.values()))
    return ok, lambda: _describe_gauge(ctx, pot, lam)


def _case_action_invariance(rng, theta, order, k):
    ctx = _ctx_for(rng, theta, max_deg=1, order=order)
    pot = _rand_potential(rng, ctx)
    lam, u = _rand_gauge(rng, ctx, order)
    witness, remainder = invariance_witness(pot, u, ctx)
    return remainder.is_zero(), lambda: _describe_gauge(ctx, pot, lam)


def _case_pure_gauge(rng, theta, order, k):
    ctx = _ctx_for(rng, theta, max_deg=1, order=order)
    lam, u = _rand_gauge(rng, ctx, order)
    zero = Poly.zero()
    pure = complete_time_component(gauge_transform_potential(
        GaugePotential(zero, zero, zero), u, ctx), ctx)
    ok = all(v.is_zero() for v in field_strength(pure, ctx).spatial.values())
    return ok, lambda: _describe_gauge(ctx, pure, lam)


# -- scalar suite ------------------------------------------------------------------

def _rand_null_phase(rng) -> Poly:
    """The phase u = w t + k.x of a random integer null direction."""
    quads = null_quadruples()
    w, k1, k2, k3 = quads[rng.randrange(len(quads))]
    return linear_phase(w, (k1, k2, k3))


def _case_null_solutions(rng, theta, order, k):
    u = _rand_null_phase(rng)
    n = rng.randint(1, 6)
    return (kg_operator(u ** n).is_zero(),
            lambda: _describe(profile=f"u^{n}", u=u))


def _case_star_power_collapse(rng, theta, order, k):
    ctx = _ctx_for(rng, theta)
    u = _rand_null_phase(rng)
    n = rng.randint(2, 4)
    acc = u
    for _ in range(n - 1):
        acc = star(acc, u, ctx)
    return acc == u ** n, lambda: _describe(ctx, u=u, power=n)


def _case_subalgebra_derivations(rng, theta, order, k):
    ctx = _ctx_for(rng, theta)
    u = _rand_null_phase(rng)
    f, g = u ** rng.randint(1, 3), u ** rng.randint(1, 3)
    return (all(v.is_zero() for v in phase_subalgebra_defects(f, g, ctx)),
            lambda: _describe(ctx, f=f, g=g))


def _case_density_reality(rng, theta, order, k):
    ctx = _ctx_for(rng, theta)
    phi = _rand_poly(rng, max_terms=3, max_t=1, max_spatial=3)
    return kg_density(phi, ctx).is_real_valued(), lambda: _describe(ctx, phi=phi)


def _case_metric_route(rng, theta, order, k):
    ctx = _ctx_for(rng, theta)
    phi = _rand_poly(rng, max_terms=3, max_t=1, max_spatial=3)
    return (kg_density(phi, ctx) == kg_density_via_metric(phi, ctx),
            lambda: _describe(ctx, phi=phi))


# -- plane wave suite ---------------------------------------------------------------

def _rand_wave_numbers(rng) -> tuple[Fraction, tuple, tuple]:
    omega = Fraction(rng.randint(1, 6))
    k = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
    p = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
    return omega, k, p


def _rand_spec(rng, theta, profile="cos") -> tuple[StarContext, PlaneWaveSpec]:
    ctx = _ctx_for(rng, theta)
    return ctx, PlaneWaveSpec(*_rand_wave_numbers(rng), profile)


def _case_quad_identity(rng, theta, order, k):
    ctx, spec = _rand_spec(rng, theta)
    return effective_action(spec, ctx).passed, lambda: _describe(ctx, spec=spec)


def _case_polarisation(rng, theta, order, k):
    ctx, spec = _rand_spec(rng, theta)
    cubic_zero = effective_action(spec, ctx).cubic_contracted.is_zero()
    # the mixed term factorizes as (scalar prefactor) x (coupling);
    # it vanishes exactly when either factor does
    p = spec.p
    pref = (spec.omega * sum(v * v for v in p[1:])
            - p[0] * sum(a * b for a, b in zip(spec.k, p[1:])))
    vanishes = is_theta_polarised(spec, ctx) or pref == 0
    return cubic_zero == vanishes, lambda: _describe(ctx, spec=spec)


def _case_harmonics(rng, theta, order, k):
    ctx, spec = _rand_spec(rng, theta)
    report = effective_action(spec, ctx)
    spectrum = harmonic_spectrum(spec, report)
    if report.cubic_contracted.is_zero():
        want = {}
    else:
        want = {1: Fraction(1, 4), 3: Fraction(-1, 4)}
    return spectrum == want, lambda: _describe(ctx, spec=spec)


def _case_route_equality(rng, theta, order, k):
    ctx, spec = _rand_spec(rng, theta, (0, 0, 1))
    direct = action_density(field_strength(build_ansatz(spec, ctx), ctx), ctx)
    contracted = _contract_integrand(effective_action(spec, ctx), spec, ctx)
    return direct == contracted, lambda: _describe(ctx, spec=spec)


def _contract_integrand(report, spec, ctx):
    """Evaluate the symbolic integrand on a concrete spec and profile."""
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


# -- grid suite ----------------------------------------------------------------------

_TWO_PI = 6.283185307179586


def _case_phase_law(rng, theta, order, k):
    n = rng.choice((32, 64))
    box = rng.choice((1.0, 2.0, _TWO_PI))
    theta_val = rng.uniform(-1.0, 1.0)
    a = (rng.randint(-5, 5), rng.randint(-5, 5))
    b = (rng.randint(-5, 5), rng.randint(-5, 5))
    defect = gridmod.phase_law_defect(n, box, theta_val, a, b)
    return defect < SUITE_PHASE_TOL, lambda: (
        f"n={n} box={box} theta={theta_val} a={a} b={b} defect={defect:.3e}")


def _case_trace(defect_name, rng, theta, order, k):
    """The named `grid` defect (trace or cyclicity) of two band-limited
    fields on a 64-point grid."""
    n = 64
    f = gridmod.band_limited_field(n, _TWO_PI, n // 4 - 1, seed=rng.randrange(1 << 30))
    g = gridmod.band_limited_field(n, _TWO_PI, n // 4 - 1, seed=rng.randrange(1 << 30))
    theta_val = rng.uniform(-1.5, 1.5)
    defect = getattr(gridmod, defect_name)(f, g, theta_val)
    return defect < TRACE_TOL, lambda: f"n={n} theta={theta_val} defect={defect:.3e}"


def _case_series_cross_check(rng, theta, order, k):
    defect = gridmod.cross_validate_symbolic(*_SERIES_POOL[k])
    return defect < SERIES_TOL, lambda: f"case {k} defect={defect:.3e}"


# -- entry point ---------------------------------------------------------------------

_SUITES = {
    "star": (
        ("star-associativity", _case_associativity, None),
        ("generator-commutators", _case_generator_commutators, None),
        ("time-derivative-correction", _case_time_derivative, None),
        ("conjugation-reversal", _case_conj_reversal, None),
        ("spatial-derivations", _case_spatial_derivations, None),
    ),
    "calculus": (
        ("exterior-derivative-squared", _case_d_squared, None),
        ("graded-leibniz", _case_graded_leibniz, None),
        ("form-conjugation", _case_form_conj, None),
        ("left-module-consistency", _case_left_module, None),
    ),
    "gauge": (
        ("time-component-reality", _case_reality_completion, None),
        ("field-strength-covariance", _case_covariance, None),
        ("action-invariance-witness", _case_action_invariance, None),
        ("pure-gauge-flatness", _case_pure_gauge, None),
    ),
    "scalar": (
        ("null-wave-solutions", _case_null_solutions, None),
        ("subalgebra-star-powers", _case_star_power_collapse, None),
        ("subalgebra-defect-vector", _case_subalgebra_derivations, None),
        ("energy-density-reality", _case_density_reality, None),
        ("metric-pairing-route", _case_metric_route, None),
    ),
    "planewave": (
        ("action-quadratic-identity", _case_quad_identity, 10),
        ("polarisation-split", _case_polarisation, None),
        ("harmonic-spectrum", _case_harmonics, 12),
        ("ansatz-route-equality", _case_route_equality, 6),
    ),
    "grid": (
        ("plane-wave-phase-law", _case_phase_law, None),
        ("trace-property", partial(_case_trace, "grid_trace_defect"), 20),
        ("trace-cyclicity", partial(_case_trace, "grid_cyclicity_defect"), 20),
        ("series-cross-validation", _case_series_cross_check, len(_SERIES_POOL)),
    ),
}


def _run_property(name, case, cap, rng, cases, order, theta) -> PropertyResult:
    t0 = time.perf_counter()
    n = cases if cap is None else min(cases, cap)
    failures, examples = 0, []
    for k in range(n):
        ok, describe = case(rng, theta, order, k)
        if not ok:
            failures += 1
            if len(examples) < _MAX_COUNTEREXAMPLES:
                examples.append(describe())
    return PropertyResult(name, n, failures, tuple(examples),
                          time.perf_counter() - t0)


def run_suite(name: str, seed: int = 0, cases: int = 50, order: int = 2,
              theta: ThetaProfile | None = None) -> SuiteReport:
    """Run one named verification suite.

    theta=None draws a fresh random profile per case; passing a profile
    pins it for every case.  order is the eps truncation for the gauge
    sector.  Raises ValueError for an unknown suite name or fewer than
    one case.
    """
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    rng = random.Random(seed)
    t0 = time.perf_counter()
    results = tuple(_run_property(prop, case, cap, rng, cases, order, theta)
                    for prop, case, cap in _SUITES[name])
    elapsed = time.perf_counter() - t0
    return SuiteReport(
        suite=name,
        seed=seed,
        cases=cases,
        order=order,
        theta_text=None if theta is None else theta_to_text(theta),
        properties=results,
        elapsed=elapsed,
    )
