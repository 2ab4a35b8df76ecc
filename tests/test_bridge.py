"""The exact star kernel against the grid oracle.

grid.py imports nothing from star.py, so the two routes meet only here.
They meet through the generating function

    e^{ik.x} * e^{il.x} = sum_{a,b} (ik)^a (il)^b / (a! b!) (x^a * x^b),

whose value at x = 0 is exp(-i phi), phi = (theta/2)(k1 l2 - k2 l1): the
symbolic side sums the constant terms of star(x^a, x^b) exactly, the grid
side divides grid_star of two plane waves by the plane wave of k + l.  For
a time-dependent theta12(t) each constant-in-x coefficient is a polynomial
in t, read exactly at t0 and compared with the grid at theta12(t0).
"""

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from nckit.grid import grid_star, plane_wave
from nckit.poly import Poly, t
from nckit.rationals import CRat
from nckit.star import StarContext, ThetaProfile, star

DEGREE = 14  # |a|, |b| <= DEGREE
N, BOX = 16, 2 * math.pi  # box 2 pi: the grid wavenumber of mode k is k
U = 2.0 ** -53


class Profile(NamedTuple):
    ctx: StarContext
    t0: Fraction
    theta: Fraction  # theta12(t0)


PROFILES = {
    "constant": Profile(
        StarContext(ThetaProfile.constant(t12=Fraction(3, 10))),
        Fraction(0), Fraction(3, 10)),
    # theta12(t) = 1/5 + t^2/5, so theta12(1/2) = 1/4
    "ramp": Profile(
        StarContext(ThetaProfile({(1, 2): (1 + t * t) * Fraction(1, 5)})),
        Fraction(1, 2), Fraction(1, 4)),
}

# negative modes, and 7 next to the Nyquist mode 8 of N = 16
PAIRS = [((1, 2), (-1, 1)), ((2, -1), (1, 3)), ((-3, 1), (2, -2)),
         ((7, -2), (-1, 1))]


def x(a):
    return Poly.monomial((0, *a, 0, 0))


def exponents(degree):
    return [(a1, degree - a1) for a1 in range(degree + 1)]


def constant_term(a, b, profile):
    """The constant-in-x coefficient of x^a * x^b, a polynomial in t, at t0."""
    total = CRat(0)
    for (te, *rest), c in star(x(a), x(b), profile.ctx).items():
        if not any(rest):
            total = total + c * profile.t0 ** te
    return total


def test_only_transposed_pairs_have_a_constant_term():
    # a contraction takes one x1 from x^a with one x2 from x^b and the
    # reverse, so the constant term needs a1 = b2 and a2 = b1; checked on
    # every pair up to degree 6, assumed above it
    profile = PROFILES["constant"]
    for d in range(7):
        for e in range(7):
            for a in exponents(d):
                for b in exponents(e):
                    if a != b[::-1]:
                        assert not constant_term(a, b, profile), (a, b)


@functools.cache
def constants(name):
    """{a: constant term of x^a * x^(a2, a1)} for |a| <= DEGREE."""
    return {a: constant_term(a, a[::-1], PROFILES[name])
            for d in range(DEGREE + 1) for a in exponents(d)}


def series_at_origin(constants, k, l):
    """The generating sum over |a|, |b| <= DEGREE, exact, then rounded once."""
    i = CRat(0, 1)
    total = CRat(0)
    for (a1, a2), c in constants.items():
        weight = (i * k[0]) ** a1 * (i * k[1]) ** a2 * (i * l[0]) ** a2 * (i * l[1]) ** a1
        total = total + weight * c / (math.factorial(a1) * math.factorial(a2)) ** 2
    return complex(total)


def grid_ratio(k, l, theta):
    kl = (k[0] + l[0], k[1] + l[1])
    product = grid_star(plane_wave(N, BOX, *k), plane_wave(N, BOX, *l), theta)
    return product.values / plane_wave(N, BOX, *kl).values


def tolerance(k, l, theta):
    """A priori bound on |series - grid ratio|, fitted to no measurement."""
    phi = abs(theta / 2 * (k[0] * l[1] - k[1] * l[0]))
    # the series drops the orders above DEGREE of exp(-i phi)
    tail = phi ** (DEGREE + 1) / math.factorial(DEGREE + 1) / (1 - phi / (DEGREE + 2))
    # grid_star passes 7 log2 N FFT stages: two 2-d input transforms, two
    # 1-d slice transforms and the 1-d output one.  A stage errs by at most
    # 7u in relative 2-norm (Higham, Accuracy and Stability of Numerical
    # Algorithms, thm 24.2: eta = mu + gamma_4 (sqrt 2 + mu) with mu = u).
    stages = 7 * 7 * math.log2(N)
    # the three plane waves and the twist's two factors are exp(i arg),
    # each off by at most 4u |arg|, with |arg| <= 2 pi |mode|_1 for a
    # plane wave and |theta| max q^2 / 2 for a twist factor
    modes = sum(abs(m) for m in (*k, *l, k[0] + l[0], k[1] + l[1]))
    q_max = max(abs(m) for m in (*k, *l))
    phases = 4 * (2 * math.pi * modes + abs(theta) * q_max ** 2)
    # a relative 2-norm error of N^2 unit-modulus samples is at most N
    # times as large in one sample; the series adds its one rounding
    return tail + N * U * (stages + phases) + U


# the constant profile keeps the ids of its cases from before the ramp
@pytest.mark.parametrize("name, k, l", [
    pytest.param(name, k, l, id=f"{prefix}k{n}-l{n}")
    for name, prefix in (("constant", ""), ("ramp", "ramp-"))
    for n, (k, l) in enumerate(PAIRS)])
def test_star_series_matches_grid_star_at_the_origin(name, k, l):
    profile = PROFILES[name]
    entry = profile.ctx.theta.entry(1, 2)
    at_t0 = sum(c * profile.t0 ** e for (e, *_), c in entry.items())
    assert at_t0 == profile.theta
    series = series_at_origin(constants(name), k, l)
    theta = float(profile.theta)
    tol = tolerance(k, l, theta)
    assert tol < 1e-9
    assert np.max(np.abs(grid_ratio(k, l, theta) - series)) <= tol
    # the opposite sign of theta misses by 2 |sin phi|: the test can fail
    # on a sign flip in either route
    assert np.min(np.abs(grid_ratio(k, l, -theta) - series)) > 1e6 * tol
