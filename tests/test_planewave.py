"""Plane wave sector: closed forms, action accounting, harmonics."""

import contextlib
import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from nckit.cli import main
from nckit.poly import Poly, t
from nckit.rationals import CRat
from nckit.star import StarContext, ThetaProfile
from nckit.gauge import action_density, field_strength
from nckit.planewave import (
    _COSINE_CUBIC_HARMONICS,
    ActionReport,
    PlaneWaveSpec,
    PwPoly,
    _WkpValue,
    _accounting,
    _over_one_den,
    _symbolic_strengths,
    build_ansatz,
    coupling_scalar,
    effective_action,
    harmonic_spectrum,
    is_theta_polarised,
    pw_partial,
    pw_substitute,
    reference_cubic_coefficients,
    reference_quad_coefficient,
)
from util import assert_canonical, rand_crat, rand_fraction, rand_poly

I = CRat(0, 1)

W = PwPoly.variable("w")
K = {i: PwPoly.variable(f"k{i}") for i in (1, 2, 3)}
P = {mu: PwPoly.variable(f"p{mu}") for mu in range(4)}
D = {(1, 2): PwPoly.variable("d12"), (1, 3): PwPoly.variable("d13"),
     (2, 3): PwPoly.variable("d23")}
S_MARK = PwPoly.variable("s")
F0, F1, F2 = (PwPoly.variable(n) for n in ("f0", "f1", "f2"))


def s_coupling() -> PwPoly:
    return sum((D[(j, k)] * (K[j] * P[k] - K[k] * P[j])
                for j, k in ((1, 2), (1, 3), (2, 3))), PwPoly.zero())


def spec_and_ctx():
    spec = PlaneWaveSpec(omega=3, k=(1, 2, 2), p=(1, 2, 0, 1),
                         profile=(0, 0, 1))
    ctx = StarContext(ThetaProfile({(1, 2): t * t, (2, 3): t}))
    return spec, ctx


# -- spec container -----------------------------------------------------------

def test_spec_validation():
    spec = PlaneWaveSpec(omega=3, k=(1, 2, 2), p=(0, 1, 0, 0))
    assert spec.is_null()
    assert spec.profile == "cos"
    assert not PlaneWaveSpec(omega=2, k=(1, 1, 1), p=(0,) * 4).is_null()
    with pytest.raises(ValueError):
        PlaneWaveSpec(omega=1, k=(1, 2), p=(0,) * 4)
    with pytest.raises(ValueError):
        PlaneWaveSpec(omega=1, k=(1, 2, 2), p=(0,) * 3)
    with pytest.raises(ValueError):
        PlaneWaveSpec(omega=1, k=(1, 0, 0), p=(0,) * 4, profile="sin")
    with pytest.raises(ValueError):
        spec.profile_coefficients()
    poly_spec = PlaneWaveSpec(omega=1, k=(1, 0, 0), p=(0,) * 4,
                              profile=(0, Fraction(1, 2)))
    assert poly_spec.profile_coefficients() == (0, Fraction(1, 2))


# -- derivative model ---------------------------------------------------------

def test_pw_partial_chain_rule():
    assert pw_partial(F0, 0) == W * F1
    assert pw_partial(F0, 2) == K[2] * F1
    assert pw_partial(F0 * F1, 1) == K[1] * (F1 * F1 + F0 * F2)
    assert pw_partial(P[1] * W, 3).is_zero()
    with pytest.raises(ValueError):
        pw_partial(F2, 0)
    with pytest.raises(ValueError):
        pw_partial(F0, 4)


def pw_partial_reference(p: PwPoly, mu: int) -> PwPoly:
    """The chain rule written term by term: f_n -> factor * f_{n+1}."""
    if not 0 <= mu <= 3:
        raise ValueError("derivative index must be 0..3")
    idx_f = tuple(PwPoly.VARS.index(n) for n in ("f0", "f1", "f2"))
    factor = W if mu == 0 else K[mu]
    out = PwPoly.zero()
    for exps, c in p.items():
        for slot in range(3):
            n = exps[idx_f[slot]]
            if not n:
                continue
            if slot == 2:
                raise ValueError(
                    "profile derivative beyond second order not representable")
            e = list(exps)
            e[idx_f[slot]] -= 1
            e[idx_f[slot + 1]] += 1
            out = out + factor * PwPoly.monomial(tuple(e), c * n)
    return out


def test_pw_partial_matches_reference_on_the_density_build(monkeypatch):
    import nckit.planewave as pw

    seen = []

    def recording(p, mu):
        seen.append((p, mu))
        return pw_partial(p, mu)

    monkeypatch.setattr(pw, "pw_partial", recording)
    _symbolic_strengths()
    assert len(seen) >= 20
    for p, mu in seen:
        assert pw_partial(p, mu) == pw_partial_reference(p, mu), (p, mu)
    for p in (F2, F0 * F2 + W, S_MARK * F1 * F2 * F2):
        for fn in (pw_partial, pw_partial_reference):
            with pytest.raises(ValueError, match="beyond second order"):
                fn(p, 1)


def test_pw_substitute_is_morphism():
    from nckit.poly import x1, x2
    mapping = {"f0": x1 * x2, "k1": Poly.const(2), "w": t}
    a = F0 * K[1] + W
    b = F0 * F0
    got_ab = pw_substitute(a * b, mapping)
    assert got_ab == pw_substitute(a, mapping) * pw_substitute(b, mapping)
    with pytest.raises(KeyError):
        pw_substitute(P[0], mapping)


def test_pw_substitute_folds_constants_and_groups_terms():
    # constant images (zero, negative, one) fold into the coefficients, so
    # 2 w f0 and 3 p0 f0 meet on f0 and cancel; the rest is checked against
    # substitution term by term
    from nckit.poly import x1, x2
    mapping = {"w": Poly.const(Fraction(-3, 2)), "k1": Poly.zero(),
               "k2": x1 + t, "p0": Poly.one(), "f0": x1 * x2 - I,
               "d12": t * t}
    p = (2 * W * F0 + 3 * P[0] * F0 + K[1] * K[2] * F0
         + W * W * K[2] ** 3 * F0 ** 2 + P[0] * D[(1, 2)] * K[2] ** 3
         - I * D[(1, 2)] ** 2 * F0 + Fraction(5, 7))
    want = Poly.zero()
    for exps, c in p.items():
        term = Poly.const(c)
        for name, e in zip(PwPoly.VARS, exps):
            if e:
                term = term * mapping[name] ** e
        want = want + term
    got = pw_substitute(p, mapping)
    assert got == want
    assert got.coefficient((0, 1, 1, 0, 0)).is_zero()  # the f0 terms cancel
    assert pw_substitute(2 * W * F0 + 3 * P[0] * F0, mapping).is_zero()
    with pytest.raises(KeyError):
        pw_substitute(p + S_MARK, mapping)


# pw_substitute as it was first written, folding each constant image into
# the term's CRat coefficient; kept verbatim as the reference for the fold
# over one common int denominator
def _pw_substitute_reference(p: PwPoly, mapping) -> Poly:
    consts = {name: img.coefficient((0,) * len(Poly.VARS))
              for name, img in mapping.items() if not img.total_degree()}
    groups: dict[tuple[tuple[str, int], ...], CRat] = {}
    for exps, c in p.items():
        rest = []
        for name, e in zip(PwPoly.VARS, exps):
            if not e:
                continue
            if name in consts:
                c = c * consts[name] ** e
            elif name in mapping:
                rest.append((name, e))
            else:
                raise KeyError(f"no substitution given for {name}")
        groups[tuple(rest)] = groups.get(tuple(rest), 0) + c
    powers: dict[tuple[str, int], Poly] = {}
    products = [Poly.zero()]
    for rest, c in groups.items():
        if not c:
            continue
        m = Poly.const(c)
        for name, e in rest:
            power = powers.get((name, e))
            if power is None:
                power = powers[(name, e)] = mapping[name] ** e
            m = m * power
        products.append(m)
    return Poly._sum(products)


def _rand_image(rng) -> Poly:
    """A zero, complex rational, non-unit-denominator or non-constant image."""
    kind = rng.randrange(4)
    if kind == 0:
        return Poly.zero()
    if kind == 1:
        return Poly.const(rand_crat(rng))
    if kind == 2:
        return Poly.const(rand_fraction(rng, lo=-9, hi=9, max_den=7))
    return rand_poly(rng, max_terms=2, max_t=1, max_spatial=2)


def test_pw_substitute_matches_crat_reference():
    rng = random.Random(2202)
    unmapped = 0
    for n in range(300):
        p = PwPoly.zero()
        for _ in range(rng.randint(0, 8)):
            exps = [0] * len(PwPoly.VARS)
            for j in rng.sample(range(len(exps)), rng.randint(0, 4)):
                exps[j] = rng.randint(1, 3)
            p = p + PwPoly.monomial(exps, rand_crat(rng))
        mapping = {name: _rand_image(rng) for name in PwPoly.VARS}
        if n % 5 == 0:  # leave out a variable that p may use
            del mapping[rng.choice(PwPoly.VARS)]
        try:
            want = _pw_substitute_reference(p, mapping)
        except KeyError as exc:
            unmapped += 1
            with pytest.raises(KeyError) as got_exc:
                pw_substitute(p, mapping)
            assert got_exc.value.args == exc.args
            continue
        got = pw_substitute(p, mapping)
        assert got == want, (p, mapping)
        assert_canonical(got)
    assert unmapped >= 10


def test_pw_substitute_matches_crat_reference_on_the_integrand():
    # the full integrand, its wave data over non-unit denominators and
    # thetadot constant in one entry, linear in another, zero in the third
    integrand = _accounting()[0].integrand
    rng = random.Random(2203)
    u = t + Poly.const(Fraction(1, 3))
    for _ in range(3):
        mapping = {name: Poly.const(rand_fraction(rng, lo=-5, hi=5, max_den=4))
                   for name in PwPoly.VARS[:8]}
        mapping.update({"d12": Poly.const(rand_crat(rng)), "d13": 3 * t,
                        "d23": Poly.zero(), "s": Poly.one(),
                        "f0": u * u, "f1": 2 * u, "f2": Poly.const(2)})
        got = pw_substitute(integrand, mapping)
        assert got == _pw_substitute_reference(integrand, mapping)
        assert_canonical(got)


# -- closed form field strengths ----------------------------------------------

def test_symbolic_field_strength_closed_forms():
    spatial, time, tilde = _symbolic_strengths()
    s_c = s_coupling()
    quarter = Fraction(1, 4)
    for (i, j), fij in spatial.items():
        c_ij = K[i] * P[j] - P[i] * K[j]
        assert fij == I * c_ij * F1
    for i in (1, 2, 3):
        a_i = W * P[i] - K[i] * P[0]
        want_time = (I * a_i * F1
                     + CRat(0, Fraction(1, 2)) * S_MARK * s_c * P[i] * F0 * F1
                     + quarter * S_MARK * s_c * K[i] * F2)
        assert time[i] == want_time
        want_tilde = (I * a_i * F1
                      + I * S_MARK * s_c * P[i] * F0 * F1
                      + quarter * S_MARK * s_c * K[i] * F2)
        assert tilde[i] == want_tilde


# -- action accounting ---------------------------------------------------------

def test_quadratic_coefficient_matches_reference_identically():
    spec, ctx = spec_and_ctx()
    report = effective_action(spec, ctx)
    assert report.quad_matches_reference
    assert report.quad_coeff == reference_quad_coefficient()
    # and the reference in expanded form, written out by hand
    p_sq = P[1] * P[1] + P[2] * P[2] + P[3] * P[3]
    k_sq = K[1] * K[1] + K[2] * K[2] + K[3] * K[3]
    kp = K[1] * P[1] + K[2] * P[2] + K[3] * P[3]
    want = (W * W * p_sq - 2 * W * P[0] * kp + P[0] * P[0] * k_sq
            - k_sq * p_sq + kp * kp)
    assert report.quad_coeff == want


def test_cubic_coefficient_sign_convention():
    spec, ctx = spec_and_ctx()
    report = effective_action(spec, ctx)
    assert report.cubic_relative_sign == -1
    ref = reference_cubic_coefficients()
    for pair, coeff in report.cubic_coeff.items():
        assert coeff == -ref[pair]
    # derived value, written out: +2 (w |p|^2 - p0 (k.p)) (k_j p_k - k_k p_j)
    p_sq = P[1] * P[1] + P[2] * P[2] + P[3] * P[3]
    kp = K[1] * P[1] + K[2] * P[2] + K[3] * P[3]
    scal = W * p_sq - P[0] * kp
    for (j, k), coeff in report.cubic_coeff.items():
        assert coeff == 2 * scal * (K[j] * P[k] - K[k] * P[j])


def test_report_structure_and_diagnostics():
    spec, ctx = spec_and_ctx()
    report = effective_action(spec, ctx)
    assert isinstance(report, ActionReport)
    assert report.orientation == -1
    assert report.residual_order == 2
    assert not report.residual.is_zero()  # genuine second order remainder
    names = [d["name"] for d in report.diagnostics]
    assert "action-quadratic-orientation" in names
    assert "mixed-strength-correction-sign" in names
    assert "quadratic-reference-mismatch" not in names
    assert "cubic-reference-mismatch" not in names


@pytest.mark.parametrize("change", [
    {"cubic_relative_sign": None},  # matches under neither sign
    {"cubic_relative_sign": 1},
    {"quad_matches_reference": False},
])
def test_report_passes_only_on_the_documented_signs(change):
    spec, ctx = spec_and_ctx()
    report = effective_action(spec, ctx)
    assert report.passed
    assert not dataclasses.replace(report, **change).passed


_MISMATCH_DETAILS = {
    "quadratic-reference-mismatch": "derived quadratic coefficient differs "
                                    "from the reference beyond orientation",
    "cubic-reference-mismatch": "derived cubic coefficients differ from the "
                                "reference beyond an overall sign",
}

# (quadratic reference, cubic reference) put in place of the real ones
_MISMATCHES = {
    "negated-cubic": (
        reference_quad_coefficient,
        lambda: {p: -c for p, c in reference_cubic_coefficients().items()}),
    "one-pair-off": (
        reference_quad_coefficient,
        lambda: {**reference_cubic_coefficients(),
                 (1, 3): -reference_cubic_coefficients()[(1, 3)]}),
    "quadratic-off": (lambda: reference_quad_coefficient() + W * P[0],
                      reference_cubic_coefficients),
}


@contextlib.contextmanager
def _references(monkeypatch, case):
    """Build the accounting against the references of _MISMATCHES[case];
    the real references and a fresh cache come back on exit."""
    import nckit.planewave as pw

    quad, cubic = _MISMATCHES[case]
    monkeypatch.setattr(pw, "reference_quad_coefficient", quad)
    monkeypatch.setattr(pw, "reference_cubic_coefficients", cubic)
    _accounting.cache_clear()
    try:
        yield
    finally:
        monkeypatch.undo()
        _accounting.cache_clear()


@pytest.mark.parametrize("case, sign, quad_ok, names", [
    ("negated-cubic", 1, True, ["action-quadratic-orientation"]),
    ("one-pair-off", None, True,
     ["action-quadratic-orientation", "cubic-reference-mismatch"]),
    ("quadratic-off", -1, False,
     ["action-quadratic-orientation", "mixed-strength-correction-sign",
      "quadratic-reference-mismatch"]),
])
def test_reference_mismatch_fails_the_report(monkeypatch, case, sign,
                                             quad_ok, names):
    with _references(monkeypatch, case):
        report = effective_action(*spec_and_ctx())
    assert report.cubic_relative_sign == sign
    assert report.quad_matches_reference == quad_ok
    assert not report.passed
    assert [d["name"] for d in report.diagnostics] == names
    for diag in report.diagnostics:
        if diag["name"] in _MISMATCH_DETAILS:
            assert diag["detail"] == _MISMATCH_DETAILS[diag["name"]]
    assert effective_action(*spec_and_ctx()).passed


def test_cli_reports_a_reference_mismatch(monkeypatch, tmp_path, capsys):
    path = tmp_path / "wave.ini"
    path.write_text("[planewave]\nomega = 3\nk = 1 2 2\np = 1 2 0 1\n",
                    encoding="utf-8")
    with _references(monkeypatch, "one-pair-off"):
        code = main(["planewave", str(path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "cubic sign          n/a" in out
    assert ("diagnostic          cubic-reference-mismatch: "
            + _MISMATCH_DETAILS["cubic-reference-mismatch"]) in out
    assert out[-1] == "result: FAIL"


def test_contracted_numbers_pinned():
    spec, ctx = spec_and_ctx()
    report = effective_action(spec, ctx)
    # |p|^2 = 5, k.p = 4, |k|^2 = 9, p0 = 1, w = 3:
    # 9*5 - 2*3*1*4 + 1*9 - 9*5 + 16 = 1
    assert report.quad_value == Fraction(1)
    # S(t) = 2t (k1 p2 - k2 p1) + (k2 p3 - k3 p2) = -8t + 2 and the scalar
    # factor is 2 (w |p|^2 - p0 (k.p)) = 22
    assert coupling_scalar(spec, ctx) == -8 * t + 2
    assert report.cubic_contracted == -176 * t + 44
    assert not report.polarised


def test_route_a_equals_route_b_exactly():
    # Full spacetime pipeline (polynomial profile) against the symbolic
    # ring integrand with everything substituted.  Exact equality.
    spec, ctx = spec_and_ctx()
    pot = build_ansatz(spec, ctx)
    dens_b = action_density(field_strength(pot, ctx), ctx)

    u = spec.phase()
    f = u * u
    dot = ctx.theta.theta_dot()
    mapping = {
        "w": Poly.const(Fraction(3)),
        "k1": Poly.const(Fraction(1)), "k2": Poly.const(Fraction(2)),
        "k3": Poly.const(Fraction(2)),
        "p0": Poly.const(Fraction(1)), "p1": Poly.const(Fraction(2)),
        "p2": Poly.const(Fraction(0)), "p3": Poly.const(Fraction(1)),
        "d12": dot.entry(1, 2), "d13": dot.entry(1, 3),
        "d23": dot.entry(2, 3),
        "s": Poly.one(),
        "f0": f, "f1": 2 * u, "f2": Poly.const(2),
    }
    report = effective_action(spec, ctx)
    dens_a = pw_substitute(report.integrand, mapping)
    assert dens_a == dens_b


def test_longitudinal_wave_is_pure_gauge():
    # p proportional to (w, k): every strength component vanishes exactly.
    ctx = StarContext(ThetaProfile({(1, 2): t}))
    spec = PlaneWaveSpec(omega=3, k=(1, 2, 2), p=(3, 1, 2, 2),
                         profile=(0, 1, 2))
    fs = field_strength(build_ansatz(spec, ctx), ctx)
    assert all(p.is_zero() for p in fs.spatial.values())
    assert all(p.is_zero() for p in fs.time.values())
    assert all(p.is_zero() for p in fs.tilde.values())
    report = effective_action(spec, ctx)
    assert report.quad_value == 0
    assert report.cubic_contracted.is_zero()


def _eval_wkp(p: PwPoly, vals) -> Fraction:
    return _WkpValue(p).at(*_over_one_den(vals))


def _eval_wkp_reference(p: PwPoly, vals) -> Fraction:
    """The evaluation in Fractions, term by term, as it was first written."""
    if not p.uses_only(PwPoly.VARS[:len(vals)]):
        raise ValueError("only w, k1..k3 and p0..p3 evaluate numerically")
    total = Fraction(0)
    for k, (r, i) in p._nums.items():
        if i:
            raise ValueError("expected a real coefficient")
        for e, v in zip(p._unpack(k), vals):
            if e:
                r *= v ** e
        total += r
    return total / p._den


def _random_wkp_poly(rng) -> PwPoly:
    """Up to 18 terms in w, k1..k3, p0..p3 of mixed degrees 0..6."""
    terms = {}
    for _ in range(rng.randint(1, 18)):
        exps = [0] * len(PwPoly.VARS)
        for _ in range(rng.randint(0, 6)):
            exps[rng.randrange(8)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-40, 40),
                                      rng.choice((1, 2, 3, 4, 9, 35)))
    return PwPoly(terms)


def test_integer_evaluation_matches_the_fraction_reference():
    rng = random.Random(20)
    polys = [PwPoly.zero(), PwPoly.const(Fraction(-7, 3)), PwPoly.one()]
    polys += [_random_wkp_poly(rng) for _ in range(60)]
    dens = (1, 1, 2, 3, 5, 6, 7, 12)
    for n, p in enumerate(polys):
        for _ in range(4):
            vals = [Fraction(rng.randint(-9, 9), rng.choice(dens))
                    for _ in range(8)]
            if n % 3 == 0:
                vals[rng.randrange(8)] = Fraction(0)
            got = _eval_wkp(p, vals)
            assert type(got) is Fraction
            assert got == _eval_wkp_reference(p, vals), (p, vals)
    # the report's own coefficients at fractional data
    ctx = StarContext(ThetaProfile({(1, 2): t, (1, 3): Fraction(1, 2)}))
    for _ in range(5):
        spec = PlaneWaveSpec(Fraction(rng.randint(-9, 9), rng.choice(dens)),
                             tuple(Fraction(rng.randint(-9, 9), rng.choice(dens))
                                   for _ in range(3)),
                             tuple(Fraction(rng.randint(-9, 9), rng.choice(dens))
                                   for _ in range(4)))
        vals = (spec.omega, *spec.k, *spec.p)
        report = effective_action(spec, ctx)
        assert report.quad_value == _eval_wkp_reference(report.quad_coeff, vals)
        dot = ctx.theta.theta_dot()
        want = sum((dot.entry(j, k) * _eval_wkp_reference(c, vals)
                    for (j, k), c in report.cubic_coeff.items()), Poly.zero())
        assert report.cubic_contracted == want


@pytest.mark.parametrize("p, message", [
    (W * S_MARK + 1, "only w, k1..k3 and p0..p3 evaluate numerically"),
    (F0, "only w, k1..k3 and p0..p3 evaluate numerically"),
    (W * K[1] + I * P[2], "expected a real coefficient"),
    (I * W, "expected a real coefficient"),
])
def test_evaluation_errors_keep_their_messages(p, message):
    vals = [Fraction(v, 3) for v in range(1, 9)]
    for fn in (_eval_wkp, _eval_wkp_reference):
        with pytest.raises(ValueError, match=message):
            fn(p, vals)


def test_accounting_is_built_once_for_every_spec_and_theta():
    _accounting.cache_clear()
    thetas = (ThetaProfile.zero(), ThetaProfile({(1, 2): t * t}),
              ThetaProfile({(1, 3): Fraction(-1, 2), (2, 3): t}))
    specs = (PlaneWaveSpec(3, (1, 2, 2), (1, 2, 0, 1)),
             PlaneWaveSpec(Fraction(1, 2), (0, -1, 3), (2, 0, 1, Fraction(1, 7)),
                           profile=(0, 0, 1)))
    for theta in thetas:
        for spec in specs:
            effective_action(spec, StarContext(theta))
    info = _accounting.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 5, 1)


def test_structural_error_is_raised_on_every_call(monkeypatch):
    import nckit.planewave as pw

    good = pw._symbolic_density
    # an s^0 term with no f'^2 breaks the quadratic strip
    monkeypatch.setattr(pw, "_symbolic_density", lambda: good() + W * F0)
    _accounting.cache_clear()
    spec, ctx = spec_and_ctx()
    for _ in range(2):
        with pytest.raises(ValueError, match="unexpected structure"):
            effective_action(spec, ctx)
    assert _accounting.cache_info().currsize == 0
    monkeypatch.undo()
    _accounting.cache_clear()
    assert effective_action(spec, ctx).quad_matches_reference


def test_reports_do_not_share_mutable_fields():
    spec, ctx = spec_and_ctx()
    first = effective_action(spec, ctx)
    cubic = dict(first.cubic_coeff)
    first.cubic_coeff[(1, 2)] = PwPoly.zero()
    first.reference_cubic.clear()
    first.diagnostics[0]["name"] = "changed"
    second = effective_action(PlaneWaveSpec(1, (1, 0, 0), (0, 0, 1, 0)), ctx)
    assert second.cubic_coeff == cubic
    assert second.reference_cubic == reference_cubic_coefficients()
    assert second.diagnostics[0]["name"] == "action-quadratic-orientation"
    assert second.quad_coeff is first.quad_coeff  # immutable, so shared


# -- polarisation --------------------------------------------------------------

def test_polarisation_condition():
    ctx = StarContext(ThetaProfile({(1, 2): t}))
    # k1 p2 = k2 p1 makes the wave blind to a (1,2)-only deformation
    pol = PlaneWaveSpec(omega=3, k=(1, 2, 2), p=(0, 1, 2, 5))
    gen = PlaneWaveSpec(omega=3, k=(1, 2, 2), p=(0, 1, 3, 5))
    assert is_theta_polarised(pol, ctx)
    assert not is_theta_polarised(gen, ctx)
    assert coupling_scalar(pol, ctx).is_zero()
    assert effective_action(pol, ctx).cubic_contracted.is_zero()
    assert not effective_action(gen, ctx).cubic_contracted.is_zero()


# -- harmonic content ------------------------------------------------------------

def test_cosine_cubic_harmonics_identity():
    # c stands for cos u: cos(n u) = T_n(c) with T_1(c) = c and
    # T_3(c) = 4c^3 - 3c, and cos u sin^2 u = c (1 - c^2)
    c = Poly.variable("x1")
    chebyshev = {1: c, 3: 4 * c * c * c - 3 * c}
    series = Poly.zero()
    for n, w in _COSINE_CUBIC_HARMONICS.items():
        series = series + Poly.const(w) * chebyshev[n]
    assert series == c * (Poly.const(1) - c * c)


def test_cosine_cubic_harmonics_against_quadrature():
    # numerical Fourier coefficients of cos(u) sin(u)^2 on a uniform grid
    n = 4096
    u = np.arange(n) * (2 * np.pi / n)
    g = np.cos(u) * np.sin(u) ** 2
    coeffs = np.fft.rfft(g) / n
    for m in range(8):
        weight = coeffs[m].real * (1 if m == 0 else 2)
        exact = float(_COSINE_CUBIC_HARMONICS.get(m, 0))
        assert abs(weight - exact) < 1e-12
    assert np.max(np.abs(coeffs.imag)) < 1e-12


def test_harmonic_spectrum():
    ctx = StarContext(ThetaProfile({(1, 2): t}))
    gen = PlaneWaveSpec(omega=3, k=(1, 2, 2), p=(0, 1, 3, 5))
    pol = PlaneWaveSpec(omega=3, k=(1, 2, 2), p=(0, 1, 2, 5))
    spectrum = harmonic_spectrum(gen, effective_action(gen, ctx))
    assert spectrum == {1: Fraction(1, 4), 3: Fraction(-1, 4)}
    spectrum[5] = Fraction(1)  # the caller gets a copy of the constant
    assert _COSINE_CUBIC_HARMONICS == {1: Fraction(1, 4), 3: Fraction(-1, 4)}
    assert harmonic_spectrum(pol, effective_action(pol, ctx)) == {}
    # constant profile: no derivative, no correction term
    for profile in ((2,), (2, 0), (2, 0, 0)):
        const = PlaneWaveSpec(omega=3, k=(1, 2, 2), p=(0, 1, 3, 5),
                              profile=profile)
        assert harmonic_spectrum(const, effective_action(const, ctx)) == {}
    # nontrivial polynomial profile has no periodic spectrum
    quad = PlaneWaveSpec(omega=3, k=(1, 2, 2), p=(0, 1, 3, 5),
                         profile=(0, 0, 1))
    with pytest.raises(ValueError):
        harmonic_spectrum(quad, effective_action(quad, ctx))
