"""The exact star kernel against the grid oracle.

grid.py imports nothing from star.py, so the two routes meet only here.
They meet through the generating function

    e^{ik.x} * e^{il.x} = sum_{a,b} (ik)^a (il)^b / (a! b!) (x^a * x^b),

whose value at x = 0 is exp(-i phi), phi = (theta/2)(k1 l2 - k2 l1): the
symbolic side sums the constant terms of star(x^a, x^b) exactly, the grid
side divides grid_star of two plane waves by the plane wave of k + l.  For
a time-dependent theta12(t) each constant-in-x coefficient is a polynomial
in t, read exactly at t0 and compared with the grid at theta12(t0).

Off the origin every monomial pair takes part: the truncated exponentials
P_k = sum_{|a| <= DEGREE} (ik)^a x^a / a! are multiplied in one star
product, which is read at t0 and at grid points near the origin.

The time-dependent sector reaches the grid through theta itself: for
t-independent f and g, d_t(f * g) = thetadot d_theta(f * g), and the
symbolic identity (i/2) thetadot^{ij} (d_i f) * (d_j g) reads on the grid

    d_theta grid_star(f, g) = (i/2) (grid_star(d1 f, d2 g) - grid_star(d2 f, d1 g)),

checked on band limited fields, which the symbolic side cannot hold.
"""

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from nckit.grid import band_limited_field, grid_star, plane_wave
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


def at_t0(p, t0):
    """{(a1, a2): exact coefficient of x1^a1 x2^a2} of p with t = t0."""
    out = {}
    for (te, a1, a2, *_), c in p.items():
        out[a1, a2] = out.get((a1, a2), CRat(0)) + c * t0 ** te
    return out


def constant_term(a, b, profile):
    """The constant-in-x coefficient of x^a * x^b, a polynomial in t, at t0."""
    return at_t0(star(x(a), x(b), profile.ctx), profile.t0).get((0, 0), CRat(0))


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


def taylor_tail(z):
    """An upper bound on sum_{n > DEGREE} z^n / n! for 0 <= z < DEGREE + 2:
    the geometric series with ratio z / (DEGREE + 2) from its first term."""
    return z ** (DEGREE + 1) / math.factorial(DEGREE + 1) / (1 - z / (DEGREE + 2))


def grid_error(k, l, theta):
    """A priori bound on the error of one sample of grid_star of the plane
    waves k and l, also when divided by the plane wave of k + l."""
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
    # times as large in one sample
    return N * U * (stages + phases)


def tolerance(k, l, theta):
    """A priori bound on |series - grid ratio|, fitted to no measurement:
    the series drops the orders above DEGREE of exp(-i phi) and adds its
    one rounding."""
    phi = abs(theta / 2 * (k[0] * l[1] - k[1] * l[0]))
    return taylor_tail(phi) + grid_error(k, l, theta) + U


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


# -- off the origin -------------------------------------------------------------

# small modes only: the tail of P_k grows with |k| |x|, and a mode near
# Nyquist would need a far higher DEGREE
X_PAIRS = [((1, 2), (-1, 1)), ((1, -1), (1, 1)), ((-2, 0), (1, -1))]
# grid steps from the origin; the diagonal ones see every output monomial
STEPS = [(1, 1), (1, -1), (-1, 1), (-1, -1), (2, 0), (0, -2)]


def taylor(k):
    """P_k = sum_{|a| <= DEGREE} (ik)^a x^a / a!, exactly."""
    i = CRat(0, 1)
    return Poly({(0, *a, 0, 0): (i * k[0]) ** a[0] * (i * k[1]) ** a[1]
                 / (math.factorial(a[0]) * math.factorial(a[1]))
                 for d in range(DEGREE + 1) for a in exponents(d)})


def value_at(coeffs, x):
    """The polynomial {(a1, a2): c} at the float point x, exact, rounded
    once."""
    x1, x2 = map(Fraction, x)
    total = CRat(0)
    for (a1, a2), c in coeffs.items():
        total = total + c * (x1 ** a1 * x2 ** a2)
    return complex(total)


def tolerance_at(k, l, theta, x):
    """A priori bound on |P_k * P_l - grid_star| at the grid point x.

    Summed over b, the pairs give x^a * e^{il.x} = (x + s)^a e^{il.x} with
    s = -theta l / 2.  With every sign made positive and read at X = |x|,
    the terms with |a| = n then sum to exp(|l|.X) alpha^n / n!, where
    alpha = |k|.X + c q, c = |theta| / 2 and q = |k1 l2| + |k2 l1|; the
    same holds with k and l swapped.  The pairs that P_k * P_l drops have
    |a| or |b| above DEGREE, so they sum to at most two exponential tails,
    and all pairs together to at most exp(|k|.X + |l|.X + c q).
    """
    big_x = [abs(v) for v in x]
    kx = sum(abs(m) * v for m, v in zip(k, big_x))
    lx = sum(abs(m) * v for m, v in zip(l, big_x))
    cq = abs(theta) / 2 * (abs(k[0] * l[1]) + abs(k[1] * l[0]))
    tail = (math.exp(lx) * taylor_tail(kx + cq)
            + math.exp(kx) * taylor_tail(lx + cq))
    # the float point is off by at most u |x| per coordinate, which moves a
    # term of degree m <= 2 DEGREE by at most 1.01 m u of its size; the
    # sizes sum to at most the majorant, and the exact sum is rounded once
    evaluation = (2 * DEGREE + 1) * 1.01 * U * math.exp(kx + lx + cq)
    return tail + evaluation + grid_error(k, l, theta)


@pytest.mark.parametrize("name, k, l", [
    pytest.param(name, k, l, id=f"{name}-k{n}-l{n}")
    for name in PROFILES for n, (k, l) in enumerate(X_PAIRS)])
def test_taylor_star_matches_grid_star_off_the_origin(name, k, l):
    profile = PROFILES[name]
    product = at_t0(star(taylor(k), taylor(l), profile.ctx), profile.t0)
    theta = float(profile.theta)
    waves = plane_wave(N, BOX, *k), plane_wave(N, BOX, *l)
    grid = grid_star(*waves, theta).values
    flipped = grid_star(*waves, -theta).values
    for step in STEPS:
        x = [j * BOX / N for j in step]
        value = value_at(product, x)
        tol = tolerance_at(k, l, theta, x)
        assert tol < 1e-7
        assert abs(grid[step[0] % N, step[1] % N] - value) <= tol, step
        # the opposite sign of theta misses by 2 |sin phi| here too
        assert abs(flipped[step[0] % N, step[1] % N] - value) > 1e6 * tol


# -- the theta derivative ---------------------------------------------------------

H = 1e-5  # the central difference step in theta


def wavenumbers(field):
    return 2 * np.pi * np.fft.fftfreq(field.n, d=field.box_length / field.n)


def spectral_partial(field, axis):
    q = wavenumbers(field).reshape((-1, 1) if axis == 0 else (1, -1))
    return field.with_values(np.fft.ifft2(1j * q * np.fft.fft2(field.values)))


def moment(field, j, k):
    """sum_a |fhat_a| |q_a1|^j |q_a2|^k over the field's spectrum fhat."""
    q = np.abs(wavenumbers(field))
    hat = np.abs(np.fft.fft2(field.values, norm="forward"))
    return float(np.einsum("ab,a,b->", hat, q ** j, q ** k))


def theta_derivative_tolerance(f, g, theta, step):
    """A priori bound on |central difference - (i/2)(...)| in one sample.

    grid_star(f, g, theta) is sum_{a,b} fhat_a ghat_b exp(-i theta phi / 2)
    e^{i(a+b).x} with phi = q_a1 q_b2 - q_a2 q_b1 and |phi| <= |q_a1 q_b2|
    + |q_a2 q_b1|, so its n-th theta derivative is at most M_n = sum_{a,b}
    |fhat_a| |ghat_b| (|q_a1 q_b2| + |q_a2 q_b1|)^n / 2^n, a sum of products
    of the spectra's moments.  The central difference over step = 2h errs
    by at most h^2 / 6 M_3 (the h^2 truncation term of the twist phases).

    Each grid_star call errs by at most N u (stages + phases) M_0 in one
    sample: the 7 log2 N FFT stages of 7u each (see grid_error), the two
    dropped-row budgets of u log2(N^2) each, and the twist factors
    exp(i arg) with |arg| <= |theta| (N/2)^2 / 2, each off by 4u |arg|.
    The FFT bounds are relative to an output's 2-norm, which the triangle
    inequality splits over the pairs (a, b), each a plane wave of 2-norm
    N.  The difference of two calls divided by step carries that error
    twice over step: the roundoff over h.  The right side adds the
    spectral derivatives' 4 log2 N stages and the (i/2)(... - ...)
    roundings, on the scale M_1; the division rounds once.
    """
    n = f.n
    log_n = math.log2(n)
    phases = 4 * abs(theta) * (n / 2) ** 2
    grid_bound = n * U * (7 * 7 * log_n + 4 * log_n + phases)
    rhs_bound = n * U * (7 * 7 * log_n + 4 * log_n + 7 * 4 * log_n + 3 + phases)
    m0 = moment(f, 0, 0) * moment(g, 0, 0)
    m1 = (moment(f, 1, 0) * moment(g, 0, 1) + moment(f, 0, 1) * moment(g, 1, 0)) / 2
    m3 = sum(math.comb(3, k) * moment(f, k, 3 - k) * moment(g, 3 - k, k)
             for k in range(4)) / 8
    h = step / 2
    return (h * h / 6 * m3 + 2 * grid_bound * m0 / step
            + rhs_bound * m1 + U * m1)


@pytest.mark.parametrize("n, theta", [(32, 0.3), (32, -1.1), (64, 0.3),
                                      (64, -0.7)])
def test_theta_derivative_of_grid_star(n, theta):
    f = band_limited_field(n, BOX, n // 4 - 1, seed=11)
    g = band_limited_field(n, BOX, n // 4 - 1, seed=12)
    d1f, d2f = spectral_partial(f, 0), spectral_partial(f, 1)
    d1g, d2g = spectral_partial(g, 0), spectral_partial(g, 1)
    # hi - lo is exact (Sterbenz), so the difference quotient has no step
    # error of its own
    hi, lo = theta + H, theta - H
    tol = theta_derivative_tolerance(f, g, theta, hi - lo)
    for sign in (1, -1):  # -1 puts -theta into the grid's twist
        def product(a, b, th):
            return grid_star(a, b, sign * th).values
        lhs = (product(f, g, hi) - product(f, g, lo)) / (hi - lo)
        rhs = 0.5j * (product(d1f, d2g, theta) - product(d2f, d1g, theta))
        gap = np.max(np.abs(lhs - rhs))
        if sign == 1:
            assert tol < 1e-4 * np.max(np.abs(rhs))
            assert gap <= tol
        else:
            # the flipped twist turns the left side into minus the right
            assert gap > 1e3 * tol
