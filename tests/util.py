"""Shared random generators for the property tests.

Everything is driven by seeded random.Random instances so failures are
reproducible from the printed seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from nckit.expr import evaluate, parse_expression
from nckit.rationals import CRat
from nckit.poly import EXP_LIMIT, Poly
from nckit.star import StarContext, ThetaProfile


def rand_fraction(rng: random.Random, lo: int = -4, hi: int = 4,
                  max_den: int = 3) -> Fraction:
    num = rng.randint(lo, hi)
    den = rng.randint(1, max_den)
    return Fraction(num, den)


def rand_crat(rng: random.Random) -> CRat:
    kind = rng.random()
    if kind < 0.4:
        return CRat(rand_fraction(rng))
    if kind < 0.7:
        return CRat(0, rand_fraction(rng))
    return CRat(rand_fraction(rng), rand_fraction(rng))


def rand_exponents(rng: random.Random, max_t: int, max_spatial: int,
                   max_eps: int = 0) -> tuple[int, ...]:
    te = rng.randint(0, max_t)
    total = rng.randint(0, max_spatial)
    cuts = sorted(rng.randint(0, total) for _ in range(2))
    sp = (cuts[0], cuts[1] - cuts[0], total - cuts[1])
    ee = rng.randint(0, max_eps) if max_eps else 0
    return (te, *sp, ee)


def rand_poly(rng: random.Random, max_terms: int = 4, max_t: int = 2,
              max_spatial: int = 4, max_eps: int = 0,
              allow_zero: bool = True) -> Poly:
    n = rng.randint(0 if allow_zero else 1, max_terms)
    p = Poly.zero()
    for _ in range(n):
        c = rand_crat(rng)
        if c.is_zero():
            c = CRat(1)
        p = p + Poly.monomial(rand_exponents(rng, max_t, max_spatial, max_eps), c)
    return p


def rand_imag_poly(rng: random.Random, max_terms: int = 3, max_t: int = 1,
                   max_spatial: int = 3) -> Poly:
    """Random polynomial with purely imaginary coefficients (conj p = -p)."""
    p = Poly.zero()
    for _ in range(rng.randint(0, max_terms)):
        f = rand_fraction(rng)
        if not f:
            f = Fraction(1)
        p = p + Poly.monomial(rand_exponents(rng, max_t, max_spatial), CRat(0, f))
    return p


def rand_t_poly(rng: random.Random, max_deg: int = 2) -> Poly:
    p = Poly.zero()
    for e in range(max_deg + 1):
        if rng.random() < 0.5:
            f = rand_fraction(rng)
            if f:
                p = p + Poly.monomial((e, 0, 0, 0, 0), CRat(f))
    return p


def rand_theta(rng: random.Random, max_deg: int = 2,
               allow_zero_entries: bool = True) -> ThetaProfile:
    entries = {}
    for pair in ((1, 2), (1, 3), (2, 3)):
        if allow_zero_entries and rng.random() < 0.3:
            continue
        e = rand_t_poly(rng, max_deg)
        if e:
            entries[pair] = e
    return ThetaProfile(entries)


def rand_form(rng: random.Random, max_masks: int = 2, max_terms: int = 2,
              max_t: int = 1, max_spatial: int = 2,
              degrees: tuple[int, ...] | None = None):
    """Random differential form with small polynomial coefficients."""
    from nckit.forms import DifferentialForm

    masks = [m for m in range(16)
             if degrees is None or bin(m).count("1") in degrees]
    parts = {}
    for _ in range(rng.randint(0, max_masks)):
        m = rng.choice(masks)
        p = rand_poly(rng, max_terms=max_terms, max_t=max_t,
                      max_spatial=max_spatial)
        if p:
            parts[m] = parts.get(m, Poly.zero()) + p
    return DifferentialForm({m: p for m, p in parts.items() if p})


def assert_canonical(p) -> None:
    """p's storage is in canonical form: int den > 0, gcd(den, every
    numerator) = 1, no zero pair, and every exponent below the limit."""
    assert type(p._den) is int and p._den > 0
    nums = [n for pair in p._nums.values() for n in pair]
    assert all(type(n) is int for n in nums)
    assert math.gcd(p._den, *nums) == 1
    assert all(r or i for r, i in p._nums.values())
    for exps, _ in p.items():
        assert all(0 <= e < EXP_LIMIT for e in exps)
        assert p._pack(exps) in p._nums


def replay(text: str, order: int | None = None):
    """Parse a printed counterexample `name = expr; ...; t12 = ...` back:
    (names in printed order, {name: value}, the context it ran in)."""
    items = [item.split(" = ", 1) for item in text.split("; ")]
    flat = StarContext(ThetaProfile.zero())
    theta = ThetaProfile({(int(k[1]), int(k[2])): evaluate(parse_expression(v), flat)
                          for k, v in items if k[:1] == "t" and len(k) == 3})
    ctx = StarContext(theta, eps_cutoff=order)
    values = {k: evaluate(parse_expression(v), ctx) for k, v in items
              if not (k[:1] == "t" and len(k) == 3)}
    return [k for k, _ in items], values, ctx
