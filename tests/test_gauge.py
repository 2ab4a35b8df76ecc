"""Gauge sector: completion constraint, field strengths, covariance."""

import os
import random
from fractions import Fraction

import pytest

import nckit.gauge
from nckit import cli
from nckit.poly import Poly, eps, t, x1, x2, x3
from nckit.rationals import CRat
from nckit.star import (StarContext, ThetaProfile, signed_entry, star,
                         star_commutator, star_exp)
from nckit.gauge import (
    GaugePotential,
    action_density,
    complete_time_component,
    covariance_defect,
    field_strength,
    gauge_transform_potential,
    invariance_witness,
    reality_defect,
    time_component_defect,
    _transformed_strength,
)
from nckit.suites import run_suite
from util import rand_imag_poly, rand_poly, rand_theta, replay

I = CRat(0, 1)
HALF_I = CRat(0, Fraction(1, 2))


def lin_ctx(cutoff=None) -> StarContext:
    return StarContext(ThetaProfile({(1, 2): t}), eps_cutoff=cutoff)


def rand_anti_hermitian_potential(rng, max_terms=2, max_t=1, max_spatial=3):
    comps = [rand_imag_poly(rng, max_terms, max_t, max_spatial)
             for _ in range(3)]
    return GaugePotential(*comps)


def _rand_generator(rng):
    """A gauge parameter that is not constant in x, so U acts."""
    lam = rand_imag_poly(rng, max_terms=2, max_spatial=2)
    while lam.spatial_degree() == 0:
        lam = rand_imag_poly(rng, max_terms=2, max_spatial=2)
    return lam


# -- completion of the time component ---------------------------------------

def test_complete_time_component_pinned():
    ctx = lin_ctx()
    pot = GaugePotential(I * x2, Poly.zero(), Poly.zero())
    done = complete_time_component(pot, ctx)
    # thetadot^{21} d_2 A_1 = -i, so A_0 = (1/4) i (-i) = 1/4
    assert done.a0 == Poly.const(Fraction(1, 4))
    assert time_component_defect(done, ctx).is_zero()
    seeded = complete_time_component(pot, ctx, seed=I * x3)
    assert seeded.a0 == I * x3 + Fraction(1, 4)
    assert time_component_defect(seeded, ctx).is_zero()


def test_complete_time_component_validation():
    ctx = lin_ctx()
    pot = GaugePotential(I * x2, Poly.zero(), Poly.zero())
    with pytest.raises(ValueError):
        complete_time_component(pot, ctx, seed=x3)  # real seed
    bad = GaugePotential(x2, Poly.zero(), Poly.zero())  # hermitian component
    with pytest.raises(ValueError):
        complete_time_component(bad, ctx)
    assert reality_defect(bad, ctx)[0] == 2 * x2
    assert not any(reality_defect(pot, ctx))


def test_completion_randomized():
    rng = random.Random(1501)
    for _ in range(25):
        ctx = StarContext(rand_theta(rng))
        pot = rand_anti_hermitian_potential(rng)
        done = complete_time_component(pot, ctx, seed=rand_imag_poly(rng))
        assert time_component_defect(done, ctx).is_zero()
        assert not any(reality_defect(done, ctx))


def test_completion_raises_exactly_when_the_divergence_is_not_imaginary():
    # A_0's check reads the divergence it adds: anti-hermitian, general and
    # eps-carrying spatial components under cutoffs None, 0, 1 and 2; when
    # it passes, the reality constraint holds on the result
    rng = random.Random(1505)
    outcomes = {True: 0, False: 0}
    for k in range(120):
        ctx = StarContext(rand_theta(rng), eps_cutoff=(None, 0, 1, 2)[k % 4])
        kind = k % 3
        if kind == 0:
            pot = rand_anti_hermitian_potential(rng)
        elif kind == 1:
            pot = GaugePotential(*(rand_poly(rng, max_terms=2, max_t=1,
                                             max_spatial=3, max_eps=3)
                                   for _ in range(3)))
        else:  # anti-hermitian up to terms at eps^1..3
            pot = GaugePotential(*(a + eps ** rng.randint(1, 3) * rand_poly(
                rng, max_terms=1, max_t=1, max_spatial=2)
                for a in rand_anti_hermitian_potential(rng).spatial()))
        seed = rand_imag_poly(rng) * eps ** rng.randint(0, 3)
        raises = not nckit.gauge._theta_dot_div(pot, ctx).is_imaginary_valued()
        outcomes[raises] += 1
        if raises:
            with pytest.raises(ValueError, match="reality constraint"):
                complete_time_component(pot, ctx, seed=seed)
        else:
            done = complete_time_component(pot, ctx, seed=seed)
            assert time_component_defect(done, ctx).is_zero()
    assert min(outcomes.values()) >= 10


def test_completion_bug_is_a_verdict_not_a_crash(monkeypatch):
    # A_0 = seed + (1/2) i div breaks the reality constraint wherever div is
    # nonzero: the gauge suite reports it with counterexamples that replay,
    # and `nckit verify` exits 1, not 2
    monkeypatch.setattr(nckit.gauge, "_QUARTER_I", CRat(0, Fraction(1, 2)))
    report = run_suite("gauge", seed=0, cases=5)
    prop, = (p for p in report.properties if p.name == "time-component-reality")
    assert prop.failures and prop.counterexamples
    replays = [replay(text, order=2) for text in prop.counterexamples]
    for names, v, ctx in replays:
        assert names[:3] == ["a1", "a2", "a3"]
        pot = GaugePotential(v["a1"], v["a2"], v["a3"])
        assert time_component_defect(complete_time_component(pot, ctx), ctx)
    assert cli.main(["verify", "gauge", "--cases", "5"]) == 1
    monkeypatch.undo()
    for names, v, ctx in replays:
        pot = GaugePotential(v["a1"], v["a2"], v["a3"])
        assert not time_component_defect(complete_time_component(pot, ctx), ctx)


def test_component_access():
    pot = GaugePotential(I * x1, I * x2, I * x3)
    with pytest.raises(ValueError):
        pot.component(0)
    with pytest.raises(ValueError):
        pot.component(4)
    assert pot.component(2) == I * x2


# -- field strength ----------------------------------------------------------

def test_field_strength_pinned():
    ctx = lin_ctx()
    pot = complete_time_component(
        GaugePotential(I * x2, Poly.zero(), Poly.zero()), ctx)
    fs = field_strength(pot, ctx)
    assert fs.spatial[(1, 2)] == Poly.const(-I)
    assert fs.spatial[(1, 3)].is_zero()
    assert fs.spatial[(2, 3)].is_zero()
    assert signed_entry(fs.spatial, 2, 1, Poly.zero()) == Poly.const(I)
    # F_01 = -(1/2) i thetadot^{21} A_1 * (d_2 A_1) = -(1/2) i x2
    assert fs.time[1] == -HALF_I * x2
    assert fs.time[2].is_zero() and fs.time[3].is_zero()
    # Ftilde_01 = F_01 - (1/2) i thetadot^{12} F_12 * A_1 = -i x2
    assert fs.tilde[1] == -I * x2
    assert fs.tilde[2].is_zero() and fs.tilde[3].is_zero()


def test_field_strength_static_theta_has_no_dot_terms():
    ctx = StarContext(ThetaProfile.constant(t12=2))
    pot = complete_time_component(
        GaugePotential(I * x2 * x2, I * x3, I * x1), ctx, seed=I * x1 * x2)
    fs = field_strength(pot, ctx)
    for i in (1, 2, 3):
        assert fs.tilde[i] == fs.time[i]
    a0, a = pot.component(0), pot.spatial()
    for i in (1, 2, 3):
        want = (a[i - 1].partial(0) - a0.partial(i)
                + star(a0, a[i - 1], ctx) - star(a[i - 1], a0, ctx))
        assert fs.time[i] == want


def test_maxwell_limit_theta_zero():
    # With theta = 0 everything is classical electromagnetism for A = i a.
    ctx = StarContext(ThetaProfile.zero())
    a = (None, x2 * x2, x3 + t, x1 * x3)
    a0 = x1 * x2
    pot = complete_time_component(
        GaugePotential(I * a[1], I * a[2], I * a[3]), ctx, seed=I * a0)
    assert pot.a0 == I * a0
    fs = field_strength(pot, ctx)
    for (i, j), fij in fs.spatial.items():
        assert fij == I * (a[j].partial(i) - a[i].partial(j))
    for i in (1, 2, 3):
        assert fs.time[i] == I * (a[i].partial(0) - a0.partial(i))
        assert fs.tilde[i] == fs.time[i]
    # direct Maxwell density oracle
    dens = action_density(fs, ctx)
    oracle = Poly.zero()
    for i, j in ((1, 2), (1, 3), (2, 3)):
        c = a[j].partial(i) - a[i].partial(j)
        oracle = oracle + c * c
    for i in (1, 2, 3):
        e = a[i].partial(0) - a0.partial(i)
        oracle = oracle - e * e
    assert dens == oracle


def test_action_density_real():
    # action_density keeps only real parts by construction, so the reality
    # is checked on the full products of the ordinary kernel
    rng = random.Random(1502)
    for _ in range(10):
        ctx = StarContext(rand_theta(rng))
        pot = complete_time_component(
            rand_anti_hermitian_potential(rng), ctx, seed=rand_imag_poly(rng))
        fs = field_strength(pot, ctx)
        full = Poly.zero()
        for fij in fs.spatial.values():
            full = full + star(fij, fij.conj(), ctx)
        for fti in fs.tilde.values():
            full = full - star(fti, fti.conj(), ctx)
        assert full.conj() == full
        assert action_density(fs, ctx) == full


# -- gauge transformations ----------------------------------------------------

def test_transform_leaves_time_unset():
    ctx = lin_ctx(cutoff=2)
    pot = GaugePotential(I * x2, Poly.zero(), Poly.zero())
    u = star_exp(I * x1, 2, ctx)
    moved = gauge_transform_potential(pot, u, ctx)
    assert moved.a0 is None
    with pytest.raises(ValueError):
        moved.component(0)


def test_transformed_potential_nearly_anti_hermitian():
    # A'_k + conj(A'_k) vanishes mod eps^{N+1} but not exactly: the check
    # must run under the cutoff context.
    rng = random.Random(1503)
    for _ in range(10):
        ctx = StarContext(rand_theta(rng), eps_cutoff=2)
        pot = rand_anti_hermitian_potential(rng)
        u = star_exp(rand_imag_poly(rng, max_terms=2, max_spatial=2), 2, ctx)
        moved = gauge_transform_potential(pot, u, ctx)
        assert not any(reality_defect(moved, ctx))


def test_covariance_defect_vanishes():
    rng = random.Random(1504)
    for _ in range(8):
        ctx = StarContext(rand_theta(rng), eps_cutoff=2)
        pot = complete_time_component(
            rand_anti_hermitian_potential(rng, max_terms=2, max_spatial=2),
            ctx, seed=rand_imag_poly(rng, max_terms=1, max_spatial=2))
        lam = rand_imag_poly(rng, max_terms=2, max_spatial=2)
        u = star_exp(lam, 2, ctx)
        dspat, dtilde = covariance_defect(pot, u, ctx)
        assert all(p.is_zero() for p in dspat.values())
        assert all(p.is_zero() for p in dtilde.values())


def test_covariance_defect_first_order_pinned():
    # One concrete case at cutoff 1 for readability.
    ctx = lin_ctx(cutoff=1)
    pot = complete_time_component(
        GaugePotential(I * x2, I * x1 * x3, Poly.zero()), ctx)
    u = star_exp(I * x1 * x2, 1, ctx)
    dspat, dtilde = covariance_defect(pot, u, ctx)
    assert all(p.is_zero() for p in dspat.values())
    assert all(p.is_zero() for p in dtilde.values())


def test_pure_gauge_is_flat():
    # A_k = conj(U) * d_k U has vanishing spatial curvature mod the cutoff.
    rng = random.Random(1505)
    for _ in range(6):
        ctx = StarContext(rand_theta(rng), eps_cutoff=2)
        lam = rand_imag_poly(rng, max_terms=2, max_spatial=2)
        u = star_exp(lam, 2, ctx)
        udag = u.conj()
        comps = [star(udag, u.partial(k), ctx) for k in (1, 2, 3)]
        pure = complete_time_component(GaugePotential(*comps), ctx)
        fs = field_strength(pure, ctx)
        assert all(p.is_zero() for p in fs.spatial.values())


def test_invariance_witness_remainder_vanishes():
    rng = random.Random(1506)
    for _ in range(6):
        ctx = StarContext(rand_theta(rng), eps_cutoff=2)
        pot = complete_time_component(
            rand_anti_hermitian_potential(rng, max_terms=2, max_spatial=2),
            ctx, seed=rand_imag_poly(rng, max_terms=1, max_spatial=2))
        lam = rand_imag_poly(rng, max_terms=2, max_spatial=2)
        u = star_exp(lam, 2, ctx)
        witness, remainder = invariance_witness(pot, u, ctx)
        assert remainder.is_zero()
        # and the witness really is the stated commutator
        dens = action_density(field_strength(pot, ctx), ctx)
        du = star(dens, u, ctx)
        want = star(u.conj(), du, ctx) - star(du, u.conj(), ctx)
        assert witness == ctx.reduce(want)


def test_covariance_and_invariance_at_order_three():
    # redraw trivial inputs, so every case runs the thetadot corrections
    # on a nonzero potential and a nonconstant transformation
    rng = random.Random(1507)
    for _ in range(10):
        theta = rand_theta(rng, max_deg=1, allow_zero_entries=False)
        while theta.theta_dot().is_zero():
            theta = rand_theta(rng, max_deg=1, allow_zero_entries=False)
        ctx = StarContext(theta, eps_cutoff=3)
        spatial = rand_anti_hermitian_potential(rng, max_spatial=2)
        while not any(spatial.spatial()):
            spatial = rand_anti_hermitian_potential(rng, max_spatial=2)
        pot = complete_time_component(
            spatial, ctx, seed=rand_imag_poly(rng, max_terms=1, max_spatial=2))
        u = star_exp(_rand_generator(rng), 3, ctx)
        assert u.eps_degree() == 3
        dspat, dtilde = covariance_defect(pot, u, ctx)
        assert all(p.is_zero() for p in dspat.values())
        assert all(p.is_zero() for p in dtilde.values())
        _, remainder = invariance_witness(pot, u, ctx)
        assert remainder.is_zero()


# -- the adjoint series against the unitary route ---------------------------------

@pytest.mark.parametrize("order", [2, 3, 4])
def test_adjoint_series_matches_products_by_u(order):
    # U~ * X * U and U~ * d_k U by the series in lam, against the products
    # by U = star_exp(lam, N) that the series replaces
    rng = random.Random(f"adjoint-{order}")
    for _ in range(6):
        ctx = StarContext(rand_theta(rng, max_deg=1), eps_cutoff=order)
        lam = _rand_generator(rng)
        x = rand_poly(rng, max_terms=3, max_t=1, max_spatial=3, max_eps=order)
        u = star_exp(lam, order, ctx)
        udag = u.conj()
        assert nckit.gauge._generator(u, ctx) == lam
        conj_x = nckit.gauge._adjoint_series(lam, x, ctx)
        assert conj_x == star(udag, star(x, u, ctx), ctx)
        for k in (1, 2, 3):
            assert (nckit.gauge._adjoint_series(lam, lam.partial(k), ctx, 1)
                    == star(udag, u.partial(k), ctx))


@pytest.mark.parametrize("order", [4, 5, 6])
def test_gauge_identities_at_high_order(order):
    # from order 4 on, a wrong 1/n! in U shows in U~ * U; covariance and
    # invariance run where every coefficient of the series enters
    rng = random.Random(f"high-order-{order}")
    acting = 0
    for _ in range(6):
        ctx = StarContext(rand_theta(rng, max_deg=1), eps_cutoff=order)
        pot = complete_time_component(
            rand_anti_hermitian_potential(rng, max_terms=2, max_spatial=2),
            ctx, seed=rand_imag_poly(rng, max_terms=1, max_spatial=2))
        u = star_exp(_rand_generator(rng), order, ctx)
        assert star(u.conj(), u, ctx) == Poly.one()
        dspat, dtilde = covariance_defect(pot, u, ctx)
        assert all(p.is_zero() for p in dspat.values())
        assert all(p.is_zero() for p in dtilde.values())
        witness, remainder = invariance_witness(pot, u, ctx)
        assert remainder.is_zero()
        acting += not witness.is_zero()
    assert acting >= 3


# -- the truncated witness ----------------------------------------------------

def _full_witness(pot, u, ctx):
    """[conj(U), density(A) * U] with density(A) * U built at full cutoff."""
    dens = action_density(field_strength(pot, ctx), ctx)
    return star_commutator(u.conj(), star(dens, u, ctx), ctx)


@pytest.mark.parametrize("cutoff", [None, 0, 1, 2, 3])
def test_truncated_witness_matches_full_commutator(cutoff):
    rng = random.Random(f"witness-{cutoff}")
    order = 2 if cutoff is None else cutoff
    nonzero = 0
    for _ in range(4):
        ctx = StarContext(rand_theta(rng, max_deg=1), eps_cutoff=cutoff)
        pot = complete_time_component(
            rand_anti_hermitian_potential(rng, max_terms=2, max_spatial=2),
            ctx, seed=rand_imag_poly(rng, max_terms=1, max_spatial=2))
        u = star_exp(_rand_generator(rng), order, ctx)
        if cutoff is None:  # no cutoff N, so u is no star_exp(lam, N)
            with pytest.raises(ValueError, match="star_exp"):
                invariance_witness(pot, u, ctx)
            continue
        witness, remainder = invariance_witness(pot, u, ctx)
        assert witness == _full_witness(pot, u, ctx)
        assert remainder.is_zero()
        nonzero += not witness.is_zero()
    # at cutoff 0 U is 1, which commutes with everything
    assert cutoff is None or nonzero >= (cutoff != 0)


def test_truncated_witness_with_time_only_terms():
    # lam's t-only terms put spatially constant terms into every eps order
    # of U; they do not lower the order at which U starts to act
    ctx = StarContext(ThetaProfile({(1, 2): t, (2, 3): Fraction(1, 3)}),
                      eps_cutoff=2)
    pot = complete_time_component(
        GaugePotential(I * x2, I * x1 * x3, I * t * x1), ctx)
    for lam in (I * t + I * x1 * x2, I * t ** 2 - 2 * I * x3 + I * t * x1):
        u = star_exp(lam, 2, ctx)
        witness, remainder = invariance_witness(pot, u, ctx)
        assert not witness.is_zero() and remainder.is_zero()
        assert witness == _full_witness(pot, u, ctx)
    # a unitary that is no star exponential is refused
    u = 1 + eps * I * t + eps ** 2 * (I * x1 * x2 + t)
    with pytest.raises(ValueError, match="star_exp"):
        invariance_witness(pot, u, ctx)


def test_truncated_witness_drops_nothing_when_eps0_acts():
    ctx = StarContext(ThetaProfile({(1, 2): t, (1, 3): 1}), eps_cutoff=2)
    pot = complete_time_component(
        GaugePotential(I * x2 * x3, I * x1, eps * I * x1 * x2), ctx)
    # A_3 holds eps, so the series truncates density(A) before each order
    u = star_exp(I * x2 * x3 + I * x1, 2, ctx)
    witness, remainder = invariance_witness(pot, u, ctx)
    assert not witness.is_zero() and remainder.is_zero()
    assert witness == _full_witness(pot, u, ctx)
    # an eps^0 term other than 1 makes u no star exponential
    for u in (x1 + eps * I * x2 * x3, 1 + x2 * x3 + eps ** 2 * I * x1):
        with pytest.raises(ValueError, match="star_exp"):
            invariance_witness(pot, u, ctx)


@pytest.mark.parametrize("cutoff", [None, 0, 1, 2])
def test_witness_of_spatially_constant_unitary_is_zero(cutoff):
    ctx = StarContext(ThetaProfile({(1, 2): t, (2, 3): 1}), eps_cutoff=cutoff)
    pot = complete_time_component(
        GaugePotential(I * x2, I * x1 * x3, I * x1 * x2), ctx)
    order = 2 if cutoff is None else cutoff
    u = star_exp(I * t ** 2 - I * t, order, ctx)
    assert _full_witness(pot, u, ctx).is_zero()
    if cutoff is None:  # no cutoff N, so u is no star_exp(lam, N)
        with pytest.raises(ValueError, match="star_exp"):
            invariance_witness(pot, u, ctx)
        return
    witness, remainder = invariance_witness(pot, u, ctx)
    assert witness.is_zero() and remainder.is_zero()
    # a spatial term above the cutoff makes u no star exponential
    u = 1 + eps * I * t + eps ** (cutoff + 1) * I * x1
    with pytest.raises(ValueError, match="star_exp"):
        invariance_witness(pot, u, ctx)


def test_gauge_functions_take_only_star_exponentials():
    ctx = lin_ctx(cutoff=2)
    pot = complete_time_component(
        GaugePotential(I * x2, I * x3, I * x1), ctx)
    lam = I * x1 * x2
    u = star_exp(lam, 2, ctx)
    others = [(u * 2, ctx),  # read as exp(2 lam), which it is not
              (star_exp(lam, 1, ctx), ctx),  # one order short
              (1 + eps * x1, ctx),  # a real generator
              (u, lin_ctx())]  # no cutoff N
    for bad, bad_ctx in others:
        for fn in (gauge_transform_potential, covariance_defect,
                   invariance_witness):
            with pytest.raises(ValueError, match="star_exp"):
                fn(pot, bad, bad_ctx)


def test_gauge_identity_transformation():
    ctx = lin_ctx(cutoff=2)
    pot = complete_time_component(
        GaugePotential(I * x2, I * x3, I * x1), ctx)
    u = star_exp(Poly.zero(), 2, ctx)
    assert u == Poly.one()
    moved = gauge_transform_potential(pot, u, ctx)
    assert moved.spatial() == pot.spatial()


# -- the one-entry (F, F') memo ----------------------------------------------

@pytest.fixture
def cleared_memo():
    _transformed_strength.cache_clear()
    yield _transformed_strength
    _transformed_strength.cache_clear()


def _memo_inputs(cutoff=2, lam=I * x1 * x2):
    """Fresh objects on every call, equal in value for equal arguments."""
    ctx = StarContext(ThetaProfile({(1, 2): t, (2, 3): Fraction(1, 2)}),
                      eps_cutoff=cutoff)
    pot = complete_time_component(
        GaugePotential(I * x2, I * x1 * x3, I * x1 * x2), ctx)
    return pot, star_exp(lam, cutoff, ctx), ctx


def test_strength_memo_builds_once_per_input_value(cleared_memo, monkeypatch):
    calls = []

    def counted(pot, ctx):
        calls.append(1)
        return field_strength(pot, ctx)

    monkeypatch.setattr(nckit.gauge, "field_strength", counted)
    first, second = _memo_inputs(), _memo_inputs()
    assert all(a == b and a is not b for a, b in zip(first, second))
    covariance_defect(*first)
    witness_hit, remainder_hit = invariance_witness(*second)
    assert len(calls) == 1 and cleared_memo.cache_info().hits == 1
    # a different unitary and a different cutoff each miss
    for args in (_memo_inputs(lam=I * x3), _memo_inputs(cutoff=3)):
        covariance_defect(*args)
        assert cleared_memo.cache_info().currsize <= 1
    assert len(calls) == 3
    # a hit returns what a cold recomputation does
    cleared_memo.cache_clear()
    assert invariance_witness(*_memo_inputs()) == (witness_hit, remainder_hit)
    assert len(calls) == 4
    assert not witness_hit.is_zero() and remainder_hit.is_zero()


# -- the witness's helper process ----------------------------------------------

def _criterion_05_cases(count):
    """The first `count` criterion-05 draws: (pot, u, ctx)."""
    rng = random.Random(2005)
    cases = []
    for _ in range(count):
        ctx = StarContext(rand_theta(rng, max_deg=1), eps_cutoff=2)
        spatial = GaugePotential(*(rand_imag_poly(rng, max_terms=2, max_t=1,
                                                  max_spatial=3)
                                   for _ in range(3)))
        pot = complete_time_component(spatial, ctx)
        lam = rand_imag_poly(rng, max_terms=2, max_t=1, max_spatial=3)
        cases.append((pot, star_exp(lam, 2, ctx), ctx))
    return cases


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Counts os.fork calls; the list of pids returned to the caller."""
    pids = []
    real = os.fork

    def counted():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def helper_on(monkeypatch, forks):
    """Every invariance_witness call with a nonzero density forks."""
    if nckit.gauge._fork_warns():
        pytest.skip("os.fork warns in this threaded process")
    monkeypatch.setattr(nckit.gauge, "_FORK_BREAK_EVEN", 0)
    monkeypatch.setattr(nckit.gauge, "_cpus", lambda: 2)
    _transformed_strength.cache_clear()
    yield forks
    _transformed_strength.cache_clear()
    _no_child_left()


def test_helper_results_match_the_serial_ones(helper_on, monkeypatch):
    cases = _criterion_05_cases(10)
    helped = [(covariance_defect(*c), invariance_witness(*c)) for c in cases]
    assert len(helper_on) == 10
    monkeypatch.setattr(nckit.gauge, "_FORK_BREAK_EVEN", 10 ** 12)
    _transformed_strength.cache_clear()
    serial = [(covariance_defect(*c), invariance_witness(*c)) for c in cases]
    assert len(helper_on) == 10 and helped == serial
    for (_, (w1, r1)), (_, (w2, r2)) in zip(helped, serial):
        assert (w1._den, w1._nums, r1._den, r1._nums) == (w2._den, w2._nums,
                                                          r2._den, r2._nums)
        assert r1.is_zero()


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_caller_that_raises_leaves_no_child(helper_on, monkeypatch, exc):
    # the caller raises in its first product while the helper runs its
    # share: the helper is killed and reaped before the exception leaves
    parent, real = os.getpid(), nckit.gauge.star

    def interrupted(*args, **kw):
        if kw.get("hermitian") and os.getpid() == parent:
            raise exc("stop")
        return real(*args, **kw)

    pot, u, ctx = _criterion_05_cases(1)[0]
    covariance_defect(pot, u, ctx)
    monkeypatch.setattr(nckit.gauge, "star", interrupted)
    with pytest.raises(exc, match="stop"):
        invariance_witness(pot, u, ctx)
    assert len(helper_on) == 1
    _no_child_left()


def test_helper_that_fails_raises_in_the_caller(helper_on, monkeypatch):
    parent, real = os.getpid(), nckit.gauge.star

    def failing(*args, **kw):
        if os.getpid() != parent:
            raise ValueError("helper failed")
        return real(*args, **kw)

    monkeypatch.setattr(nckit.gauge, "star", failing)
    with pytest.raises(ValueError, match="helper failed"):
        invariance_witness(*_criterion_05_cases(1)[0])
    assert len(helper_on) == 1
    _no_child_left()


def test_no_helper_on_one_cpu_or_below_the_break_even(monkeypatch, forks):
    # criterion 05's first ten cases all fall below the break-even, and one
    # CPU or a warning fork starts no helper whatever the work
    cases, cpus_of = _criterion_05_cases(10), nckit.gauge._cpus
    for c in cases:
        invariance_witness(*c)
    monkeypatch.setattr(nckit.gauge, "_FORK_BREAK_EVEN", 0)
    for cpus, warns in ((1, False), (2, True)):
        monkeypatch.setattr(nckit.gauge, "_cpus", lambda: cpus)
        monkeypatch.setattr(nckit.gauge, "_fork_warns", lambda: warns)
        _transformed_strength.cache_clear()
        invariance_witness(*cases[1])
    monkeypatch.setattr(nckit.gauge.sys, "platform", "darwin")
    assert cpus_of() == 1
    assert forks == []


def test_wrong_eps0_term_is_computed_in_full(monkeypatch):
    # invariance_witness forms density(A')'s six products from eps^1 up
    # once F' and F agree at eps^0.  Doubling the adjoint series' n = 0
    # term breaks A' = A + O(eps): where F has an eps^0 part the check
    # fails, the products run at floor 0, and the error shows in
    # covariance defects and in the remainder's eps^0 part, which the
    # reused density(A) would have cancelled.  Where F's eps^0 part is
    # zero (A pure gauge at eps^0), F' has none either and the floor stays
    # at 1
    real_series, real_star = nckit.gauge._adjoint_series, nckit.gauge.star
    floors = []

    def recorded(f, g, ctx, **kw):
        if kw.get("hermitian"):
            floors.append((f, kw.get("eps_floor", 0)))
        return real_star(f, g, ctx, **kw)

    def doubled(lam, x, ctx, first=0, lowest=0):
        out = real_series(lam, x, ctx, first, lowest)
        return out if lowest else out + ctx.reduce(eps ** first * x)

    monkeypatch.setattr(nckit.gauge, "star", recorded)
    # a helper process's products would go unrecorded
    monkeypatch.setattr(nckit.gauge, "_FORK_BREAK_EVEN", 10 ** 12)
    cases = _criterion_05_cases(10)
    for mutated in (False, True):
        if mutated:
            monkeypatch.setattr(nckit.gauge, "_adjoint_series", doubled)
        _transformed_strength.cache_clear()
        defects = remainders = in_full = 0
        for pot, u, ctx in cases:
            spatial, tilde = covariance_defect(pot, u, ctx)
            floors.clear()
            _, remainder = invariance_witness(pot, u, ctx)
            _, f, fp, _ = _transformed_strength(pot, u, ctx)
            primed = [x for _, x in nckit.gauge._density_terms(fp)]
            full = mutated and any(x.truncate_eps(0) for _, x
                                   in nckit.gauge._density_terms(f))
            assert len(floors) == 12
            assert ([k for x, k in floors if any(x is y for y in primed)]
                    == [0 if full else 1] * 6)
            in_full += full
            defects += any(spatial.values()) or any(tilde.values())
            remainders += not remainder.truncate_eps(0).is_zero()
        assert (defects >= 3 and remainders >= 6 and in_full >= 6 if mutated
                else defects == remainders == 0)
    _transformed_strength.cache_clear()
