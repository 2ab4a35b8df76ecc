"""Verification suite engine: all six suites, reporting, determinism."""

import hashlib
import json

import pytest

import nckit.suites
from nckit.config import load_config, theta_to_text
from nckit.forms import DifferentialForm, form_mul
from nckit.gauge import (FieldStrength, GaugePotential,
                         complete_time_component, covariance_defect,
                         gauge_transform_potential, time_component_defect)
from nckit.poly import Poly, t
from nckit.star import (ThetaProfile, spatial_derivation_defect, star,
                        star_conj_defect, star_exp)
from nckit.suites import SUITE_NAMES, PropertyResult, SuiteReport, run_suite
from util import replay


def test_all_suites_pass_smoke():
    budgets = {"star": 10, "calculus": 8, "gauge": 2, "scalar": 10,
               "planewave": 4, "grid": 4}
    for name, cases in budgets.items():
        report = run_suite(name, seed=5, cases=cases, order=2)
        assert report.passed, "\n".join(report.table())
        assert report.suite == name
        assert all(p.cases > 0 for p in report.properties)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus", seed=0, cases=1)


@pytest.mark.parametrize("cases", [0, -3])
def test_fewer_than_one_case_rejected(cases):
    # a suite of no cases would pass having checked nothing
    for name in SUITE_NAMES:
        with pytest.raises(ValueError, match="cases must be at least 1"):
            run_suite(name, seed=0, cases=cases)


def test_pinned_theta_is_reported():
    profile = ThetaProfile.constant(t12=t)
    report = run_suite("star", seed=1, cases=5, theta=profile)
    assert report.passed
    doc = report.to_json_dict()
    assert doc["theta"] == {"t12": "t"}
    assert doc["schema"] == "nckit-report/1"
    free = run_suite("star", seed=1, cases=3)
    assert free.to_json_dict()["theta"] == "random-per-case"


def test_json_document_shape():
    report = run_suite("scalar", seed=9, cases=6)
    doc = report.to_json_dict()
    assert doc["kind"] == "verify"
    assert doc["passed"] is True
    for prop in doc["properties"]:
        assert set(prop) == {"name", "cases", "failures", "passed",
                             "elapsed", "counterexamples"}


def test_deterministic_given_seed():
    a = run_suite("star", seed=77, cases=8).to_json_dict()
    b = run_suite("star", seed=77, cases=8).to_json_dict()
    for doc in (a, b):
        doc.pop("elapsed")
        for prop in doc["properties"]:
            prop.pop("elapsed")
    assert a == b


# sha256 of each suite's seed-0 JSON report with every `elapsed` removed.
# A passing report holds names, counts and verdicts, not the drawn inputs,
# so this pins the verdicts, the case caps and the report shape; the draws
# themselves are pinned by PINNED_DRAWS below.
PINNED_REPORTS = {
    ("star", 8): "87515fb4cdbef61f1599f8258163dca18d042919c2e71e156da4d49a6d3168c1",
    ("calculus", 8): "54304ee8f6e884ca3776c0436cbe2a7680cec81b3b1708d9870854be8d7e040c",
    ("gauge", 2): "d2f7572a42f380c355aa51d5631f44514747c1028cdc0ff914de88d03fa859c9",
    ("scalar", 8): "9d14e640ea2466fe4e2bde148eb4a59d86946d628be88d20fe302e89f2581fd7",
    ("planewave", 8): "8b86c51a745eab177ad832d974d6e0522d8ab317363ed426ab69f3ee5227a2fc",
    ("grid", 8): "ac97d10078ea9b4f230008fe26a23edef96657fbed3200f88a09c4b9adcafeec",
}


@pytest.mark.parametrize("name, cases", sorted(PINNED_REPORTS))
def test_reports_are_pinned(name, cases):
    doc = run_suite(name, seed=0, cases=cases).to_json_dict()
    doc.pop("elapsed")
    for prop in doc["properties"]:
        prop.pop("elapsed")
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[name, cases]


def _forced_failure_dump(monkeypatch, name, cases):
    """run_suite(name, seed=0) with every case made to fail and every
    counterexample kept: {property: the replay text of each case}.  The
    checks still run, so the rng stream is the one of a real run; a grid
    text's measured defect is cut off, since it is roundoff, not a draw."""
    def forced(case):
        return lambda *args: (False, case(*args)[1])

    rows = tuple((prop, forced(case), cap)
                 for prop, case, cap in nckit.suites._SUITES[name])
    monkeypatch.setitem(nckit.suites._SUITES, name, rows)
    monkeypatch.setattr(nckit.suites, "_MAX_COUNTEREXAMPLES", 1 << 30)
    report = run_suite(name, seed=0, cases=cases)
    return {p.name: [text.split(" defect=")[0] for text in p.counterexamples]
            for p in report.properties}


# the first 16 hex digits of the sha256 of each property's replay texts at
# seed 0, one line per case, from the forced-failure dump; a change to a
# generator, a draw order or a case cap moves it
DRAW_CASES = {"star": 8, "calculus": 8, "gauge": 4, "scalar": 8,
              "planewave": 8, "grid": 8}
PINNED_DRAWS = {
    ("star", "star-associativity"): "bb2d421bbb72b43c",
    ("star", "generator-commutators"): "83d0b7e42730a437",
    ("star", "time-derivative-correction"): "00fca01213d46ac1",
    ("star", "conjugation-reversal"): "ead29f4ac5e9422f",
    ("star", "spatial-derivations"): "2b9fda4730553df2",
    ("calculus", "exterior-derivative-squared"): "9728a6f1bf0ca7d8",
    ("calculus", "graded-leibniz"): "87a6de1bbdd9adeb",
    ("calculus", "form-conjugation"): "c7759bdf5f17fe77",
    ("calculus", "left-module-consistency"): "335571d8e8f0679b",
    ("gauge", "time-component-reality"): "cb784196b6fdaf59",
    ("gauge", "field-strength-covariance"): "8d08daf922302e89",
    ("gauge", "action-invariance-witness"): "1c573b26f5e23cc6",
    ("gauge", "pure-gauge-flatness"): "59196511258745a4",
    ("scalar", "null-wave-solutions"): "de0c8c2be7f7ee4a",
    ("scalar", "subalgebra-star-powers"): "7c1eeed47d0bcac0",
    ("scalar", "subalgebra-defect-vector"): "992bd2a84b745682",
    ("scalar", "energy-density-reality"): "08e4507f135da064",
    ("scalar", "metric-pairing-route"): "66dd042fc52978f9",
    ("planewave", "action-quadratic-identity"): "a897c868ac8f0ee3",
    ("planewave", "polarisation-split"): "c98321d12a739583",
    ("planewave", "harmonic-spectrum"): "4cd7d4b62922d411",
    ("planewave", "ansatz-route-equality"): "fa2e02593b9a7f93",
    ("grid", "plane-wave-phase-law"): "21013b7cbfe2fe68",
    ("grid", "trace-property"): "8d3e8d268b751619",
    ("grid", "trace-cyclicity"): "74a7b3f6bb5dc4d5",
    ("grid", "series-cross-validation"): "9e8759a763bcd220",
}


@pytest.mark.parametrize("name", sorted(DRAW_CASES))
def test_draws_are_pinned(monkeypatch, name):
    dump = _forced_failure_dump(monkeypatch, name, DRAW_CASES[name])
    assert set(dump) == {prop for suite, prop in PINNED_DRAWS if suite == name}
    for prop, texts in dump.items():
        assert texts and all(texts), prop
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]
        assert digest == PINNED_DRAWS[name, prop], prop


def test_vacuous_gauge_parameter_census(monkeypatch):
    # How many gauge parameters of `nckit verify gauge` (50 cases, order 2)
    # make their case vacuous: lambda = 0 gives U = 1, and a lambda constant
    # in x gives U~ d_k U = 0 and U~ X U = X.  Only the draws are needed,
    # so the checks are stubbed; that consumes no random numbers.
    real = nckit.suites._rand_gauge
    drawn = []

    def recorded(rng, ctx, order):
        lam, u = real(rng, ctx, order)
        drawn.append(lam)
        return lam, u

    zero = Poly.zero()
    monkeypatch.setattr(nckit.suites, "_rand_gauge", recorded)
    for name, stub in (
            ("covariance_defect", lambda pot, u, ctx: ({}, {})),
            ("invariance_witness", lambda pot, u, ctx: (zero, zero)),
            ("gauge_transform_potential", lambda pot, u, ctx: pot),
            ("field_strength", lambda pot, ctx: FieldStrength({}, {}, {}))):
        monkeypatch.setattr(nckit.suites, name, stub)
    census = []
    for seed in (0, 1, 2):
        drawn.clear()
        run_suite("gauge", seed=seed)
        census.append((len(drawn), sum(lam.is_zero() for lam in drawn),
                       sum(lam.spatial_degree() == 0 for lam in drawn)))
    # (draws, lambda = 0, lambda constant in x, zero included) per seed;
    # 24 and 153 of 450 are vacuous, until the generator redraws them
    assert census == [(150, 6, 44), (150, 11, 55), (150, 7, 54)]


def test_vacuous_theta_dot_census(monkeypatch):
    # How many cases leave the thetadot rows nothing to check, for each
    # property of `nckit verify calculus` and for the star suite's
    # time-derivative-correction (50 cases each, order 2): thetadot = 0,
    # where every row is zero, and a zero operand (a zero form; a zero f or
    # g for the star property).  The draws are recorded as the cases make
    # them, so the rng stream is that of a real run.
    suites = nckit.suites
    real_run, real_ctx = suites._run_property, suites._ctx_for
    real_form, real_defect = suites._rand_form, suites.dt_leibniz_defect
    cases = []  # [property, thetadot = 0, a zero operand] per case
    current = []

    def run_property(name, *args):
        current[:] = [name]
        return real_run(name, *args)

    def ctx_for(*args):
        ctx = real_ctx(*args)
        cases.append([current[0], ctx.theta.theta_dot().is_zero(), False])
        return ctx

    def rand_form(rng):
        w = real_form(rng)
        cases[-1][2] |= w.is_zero()
        return w

    def defect(f, g, ctx):
        cases[-1][2] |= f.is_zero() or g.is_zero()
        return real_defect(f, g, ctx)

    for name, wrapper in (("_run_property", run_property), ("_ctx_for", ctx_for),
                          ("_rand_form", rand_form),
                          ("dt_leibniz_defect", defect)):
        monkeypatch.setattr(suites, name, wrapper)
    props = ("time-derivative-correction", "exterior-derivative-squared",
             "graded-leibniz", "form-conjugation", "left-module-consistency")
    census = []
    for seed in (0, 1, 2):
        cases.clear()
        assert run_suite("star", seed=seed).passed
        assert run_suite("calculus", seed=seed).passed
        census.append({prop: (sum(c[0] == prop for c in cases),
                              sum(c[0] == prop and c[1] for c in cases),
                              sum(c[0] == prop and c[2] for c in cases))
                       for prop in props})
    # (cases, thetadot = 0, a zero operand) per property and seed: 107 of
    # 750 cases have thetadot = 0 and 5 a zero operand, until the generators
    # redraw them
    assert census == [
        dict(zip(props, ((50, 13, 1), (50, 8, 0), (50, 4, 0), (50, 6, 0),
                         (50, 9, 0)))),
        dict(zip(props, ((50, 6, 0), (50, 4, 0), (50, 9, 1), (50, 6, 0),
                         (50, 10, 0)))),
        dict(zip(props, ((50, 8, 0), (50, 5, 1), (50, 6, 0), (50, 11, 0),
                         (50, 2, 1))))]


def test_table_rendering_with_failure():
    bad = PropertyResult("always-broken", 5, 2,
                         ("f = x1; g = x2; t12 = t",), 0.01)
    good = PropertyResult("fine", 5, 0, (), 0.02)
    report = SuiteReport("star", 0, 5, 2, None, (bad, good), 0.03)
    assert not report.passed
    text = "\n".join(report.table())
    assert "FAIL" in text and "counterexample: f = x1" in text


def test_theta_text_rendering():
    profile = ThetaProfile({(1, 2): t * t, (2, 3): t})
    assert theta_to_text(profile) == {"t12": "t^2", "t23": "t"}


# -- counterexample replay ---------------------------------------------------------

def _failing(report, name):
    prop, = (p for p in report.properties if p.name == name)
    assert prop.failures > 0 and prop.counterexamples
    return prop.counterexamples


def test_star_counterexamples_replay(monkeypatch):
    def broken(f, g, ctx):  # conj(f*g) against conj(f)*conj(g): wrong order
        return star(f, g, ctx).conj() - star(f.conj(), g.conj(), ctx)

    monkeypatch.setattr(nckit.suites, "star_conj_defect", broken)
    report = run_suite("star", seed=3, cases=6)
    for text in _failing(report, "conjugation-reversal"):
        names, v, ctx = replay(text)
        assert names[:2] == ["f", "g"]
        assert not broken(v["f"], v["g"], ctx).is_zero()
        assert star_conj_defect(v["f"], v["g"], ctx).is_zero()


def test_calculus_counterexamples_replay(monkeypatch):
    def broken(f, w, ctx):  # star-multiplies from the wrong side
        return DifferentialForm({m: star(c, f, ctx) for m, c in w.items()})

    monkeypatch.setattr(nckit.suites, "left_mul", broken)
    report = run_suite("calculus", seed=3, cases=6)
    for text in _failing(report, "left-module-consistency"):
        names, v, ctx = replay(text)
        assert names[:2] == ["w", "f"]
        f, w = v["f"], v["w"]
        assert isinstance(w, DifferentialForm)
        assert broken(f, w, ctx) != form_mul(DifferentialForm.from_function(f), w, ctx)


def test_gauge_counterexamples_replay(monkeypatch):
    def broken(pot, ctx):  # drops the thetadot term of the constraint
        a0 = pot.component(0)
        return ctx.reduce(a0 + a0.conj())

    monkeypatch.setattr(nckit.suites, "time_component_defect", broken)
    report = run_suite("gauge", seed=3, cases=3, order=2)
    for text in _failing(report, "time-component-reality"):
        names, v, ctx = replay(text, order=2)
        assert names[:3] == ["a1", "a2", "a3"]
        pot = complete_time_component(GaugePotential(v["a1"], v["a2"], v["a3"]), ctx)
        assert not broken(pot, ctx).is_zero()
        assert time_component_defect(pot, ctx).is_zero()


def test_gauge_counterexamples_with_lambda_replay(monkeypatch):
    real = nckit.suites.covariance_defect

    def broken(pot, u, ctx):  # reports F_12 one off
        spatial, tilde = real(pot, u, ctx)
        return {**spatial, (1, 2): spatial[(1, 2)] + 1}, tilde

    def not_flat(pot, ctx):  # reports A_1 as F_12
        return FieldStrength({(1, 2): pot.a1}, {}, {})

    def vanishes(defects):
        return all(v.is_zero() for part in defects for v in part.values())

    monkeypatch.setattr(nckit.suites, "covariance_defect", broken)
    monkeypatch.setattr(nckit.suites, "field_strength", not_flat)
    report = run_suite("gauge", seed=3, cases=2, order=2)
    for text in _failing(report, "field-strength-covariance"):
        names, v, ctx = replay(text, order=2)
        assert names[:4] == ["a1", "a2", "a3", "lambda"]
        pot = complete_time_component(GaugePotential(v["a1"], v["a2"], v["a3"]), ctx)
        u = star_exp(v["lambda"], 2, ctx)
        assert not vanishes(broken(pot, u, ctx))
        assert vanishes(covariance_defect(pot, u, ctx))
    for text in _failing(report, "pure-gauge-flatness"):
        names, v, ctx = replay(text, order=2)
        assert names[:4] == ["a1", "a2", "a3", "lambda"]
        zero = Poly.zero()
        pure = gauge_transform_potential(GaugePotential(zero, zero, zero),
                                         star_exp(v["lambda"], 2, ctx), ctx)
        assert pure.spatial() == (v["a1"], v["a2"], v["a3"])


def test_spatial_derivation_counterexamples_print_the_index(monkeypatch):
    drawn = []

    def broken(f, g, i, ctx):  # differentiates g by the next index
        bad = (star(f, g, ctx).partial(i) - star(f.partial(i), g, ctx)
               - star(f, g.partial(i % 3 + 1), ctx))
        drawn.append((i, not bad.is_zero()))
        return bad

    monkeypatch.setattr(nckit.suites, "spatial_derivation_defect", broken)
    report = run_suite("star", seed=3, cases=6)
    failing = [i for i, bad in drawn if bad]
    texts = _failing(report, "spatial-derivations")
    for text, i in zip(texts, failing):
        names, v, ctx = replay(text)
        assert names[:3] == ["f", "g", "index"]
        assert v["index"] == i
        assert not broken(v["f"], v["g"], i, ctx).is_zero()
        assert spatial_derivation_defect(v["f"], v["g"], i, ctx).is_zero()


def test_star_power_counterexamples_print_the_power(monkeypatch):
    calls = []

    def broken(f, g, ctx):  # doubles every product
        calls.append(g)
        return star(f, g, ctx) * 2

    monkeypatch.setattr(nckit.suites, "star", broken)
    report = run_suite("scalar", seed=3, cases=6)
    # one case is power - 1 products by the same drawn u
    drawn = []
    for k, u in enumerate(calls):
        if k and u is calls[k - 1]:
            drawn[-1] += 1
        else:
            drawn.append(2)
    texts = _failing(report, "subalgebra-star-powers")
    for text, n in zip(texts, drawn):
        names, v, ctx = replay(text)
        assert names[:2] == ["u", "power"]
        assert v["power"] == n
        u, acc = v["u"], v["u"]
        for _ in range(n - 1):
            acc = star(acc, u, ctx)
        assert acc == u ** n


def test_planewave_counterexamples_replay(monkeypatch, tmp_path):
    real = nckit.suites.is_theta_polarised
    drawn = []

    def broken(spec, ctx):  # answers the opposite
        drawn.append((spec, ctx.theta))
        return not real(spec, ctx)

    monkeypatch.setattr(nckit.suites, "is_theta_polarised", broken)
    report = run_suite("planewave", seed=3, cases=6)
    for text in _failing(report, "polarisation-split"):
        items = text.split("; ")
        assert [item.split(" = ")[0] for item in items[:4]] == ["omega", "k", "p", "profile"]
        path = tmp_path / "case.ini"
        path.write_text("\n".join(["[planewave]", *items[:4], "[theta]", *items[4:]]),
                        encoding="utf-8")
        cfg = load_config(str(path))
        assert (cfg.planewave, cfg.theta) in drawn
