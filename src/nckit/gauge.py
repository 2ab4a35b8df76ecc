"""U(1) gauge sector over the deformed algebra.

Components of the gauge potential are anti-hermitian polynomials, A = i a
with a real.  Because the time derivative fails the Leibniz rule, the time
component of the potential is not free: the reality constraint

    A_0 + conj(A_0) = (1/2) i thetadot^{ij} (d_i A_j)

fixes its hermitian part once the spatial components are chosen
(``complete_time_component``).  The same failure puts extra thetadot terms
into the time-space field strength and its gauge transformation rule; the
"improved" combination Ftilde_0i below is the one that transforms
covariantly and enters the action density.

Each thetadot contraction here takes one star product per index, by the
rows of ``star.theta_dot_row`` and ``star.theta_dot_rows`` (thetadot
passes through the product; see ``nckit.star``), and ``_with_tilde`` is
the one place Ftilde_0i is built.

Gauge transformations use unitaries U = star_exp(lam, N) truncated at the
context's eps cutoff N, so every covariance statement here holds modulo
eps^{N+1} and the defects come out as the exact zero polynomial.  The
three functions that take u accept only that U: they read lam as u's
eps^1 coefficient and raise ValueError unless the context has a cutoff N
and u == star_exp(lam, N).  No product by U is then formed.  With
ad_lam X = [lam, X] (a star commutator; lam has no eps):

    U~ * X * U = sum_{n<=N} (-eps)^n / n! ad_lam^n X          (Hadamard)
    U~ * d_k U = sum_{n<N} (-1)^n eps^{n+1} / (n+1)! ad_lam^n (d_k lam)

the second because d_k is a star derivation, theta depending on t only.
The n-th term carries eps^n, so it is formed under cutoff N - n and no
order above N is built (``_adjoint_series``); it is placed at eps^n by a
shift of its keys' eps byte, and all terms are summed at once.  Since
U * U~ = 1 mod eps^{N+1}, U~ * F_ij * d_k U = (U~ * F_ij * U) *
(U~ * d_k U), and the invariance witness [U~, density * U] is
U~ * density * U - density, the same series from n = 1 on.

Eps^0 reuse.  U = 1 + O(eps), so F' has F's eps^0 part, and then
density(A') has density(A)'s (eps is central, so the eps^0 part of a
product is the product of the eps^0 parts).  ``invariance_witness``
checks the first by structural equality and then forms only the blocks
from eps^1 up of density(A')'s six products (``star``'s eps_floor),
taking the eps^0 part from density(A).  A failed check, such as a wrong
n = 0 term of the series would cause, computes in full, so the error
still shows.  F' itself is built in full: on the benchmark's gauge pool
the density floor saves 27,126 of 274,323 kernel term pairs, while
reusing eps^0 in F' too saved only 784 more.

The witness's helper.  density(A')'s six products F * conj(F) are
independent.  When their predicted work pays for a fork, one forked
child computes the heaviest of them, and the caller computes density(A),
the witness series and the rest meanwhile (``_helper_share``,
``_forked``).  Only on Linux with two CPUs in the affinity mask (which
taskset sets), and only where os.fork raises no warning: before Python
3.12, or in a process with one OS thread.  The sums are exact, so the
result has the same bytes either way.

``covariance_defect`` and ``invariance_witness`` both start from the pair
(F, F') of a potential and its transform.  A one-entry memo keyed on the
value of (pot, u, ctx) builds it once when the two are called on equal
inputs, as every caller does; it holds at most one (F, F') pair, with lam
and the conjugated U~ F_ij U that the time sector and the covariance
defect share, and callers treat it as read-only.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .rationals import HALF_I, CRat
from .poly import Poly, _eps_series
from .star import (PAIRS, StarContext, signed_entry, star, star_commutator,
                   star_exp, theta_dot_row, theta_dot_rows)

_QUARTER_I = CRat(0, Fraction(1, 4))

_SPATIAL = (1, 2, 3)

# The witness's helper process predicts work in root term pairs, len(F)^2
# for a product F * conj(F).  On a shared 2-core VM (Python 3.11) forking a
# helper and joining it takes 3-4 ms, and 7-9 ms with a 3,000-term result:
# the time of a product of about 25,000 root term pairs, which the work
# that overlaps must reach.  density(A) and the witness series take about
# 10 times density(A)'s root term pairs (read off criterion 05's case 29,
# the one case of the benchmark's gauge pool that forks).
_FORK_BREAK_EVEN = 25_000
_OWN_WORK_FACTOR = 10


@dataclass(frozen=True)
class GaugePotential:
    """Holder for potential components; a0 is None until completed.

    No reality condition is enforced at construction: gauge-transformed
    potentials satisfy it only modulo the eps cutoff, so validation is a
    separate step (``reality_defect``, ``time_component_defect``).
    """

    a1: Poly
    a2: Poly
    a3: Poly
    a0: Poly | None = None

    def spatial(self) -> tuple[Poly, Poly, Poly]:
        return (self.a1, self.a2, self.a3)

    def component(self, mu: int) -> Poly:
        if mu == 0:
            if self.a0 is None:
                raise ValueError("time component not set; complete it first")
            return self.a0
        if mu in _SPATIAL:
            return self.spatial()[mu - 1]
        raise ValueError("component index must be 0..3")


def reality_defect(pot: GaugePotential, ctx: StarContext) -> list[Poly]:
    """A_k + conj(A_k) for k = 1..3, reduced by the eps cutoff."""
    return [ctx.reduce(a + a.conj()) for a in pot.spatial()]


def _theta_dot_div(pot: GaugePotential, ctx: StarContext) -> Poly:
    """thetadot^{ij} d_i A_j summed over both spatial indices, which is
    -sum_j Ddot_j A_j."""
    acc = Poly.zero()
    for j in _SPATIAL:
        acc = acc - theta_dot_row(ctx, j, pot.component(j))
    return acc


def time_component_defect(pot: GaugePotential, ctx: StarContext) -> Poly:
    """A_0 + conj(A_0) - (1/2) i thetadot^{ij} d_i A_j; zero when consistent."""
    a0 = pot.component(0)
    return ctx.reduce(a0 + a0.conj() - HALF_I * _theta_dot_div(pot, ctx))


def complete_time_component(pot: GaugePotential, ctx: StarContext,
                            seed: Poly | None = None) -> GaugePotential:
    """Fill in A_0 = seed + (1/4) i div, div = thetadot^{ij} d_i A_j.

    seed is the free anti-hermitian part (conj(seed) = -seed, default 0).
    div is truncated at the eps cutoff, as the seed's check is, so the
    reality defect of the result is -(1/4) i (div + conj(div)).  It
    vanishes exactly when div is imaginary valued, as it is for
    anti-hermitian spatial components; a ValueError is raised otherwise.
    """
    if seed is None:
        seed = Poly.zero()
    if ctx.reduce(seed + seed.conj()):
        raise ValueError("time component seed must be anti-hermitian")
    div = _theta_dot_div(pot, ctx)
    if not div.is_imaginary_valued():
        raise ValueError(
            "spatial components violate the reality constraint "
            "(are they anti-hermitian?)")
    return GaugePotential(*pot.spatial(), ctx.reduce(seed + _QUARTER_I * div))


@dataclass(frozen=True)
class FieldStrength:
    """Spatial components F_ij (i<j), time components F_0i, and the
    improved time components Ftilde_0i that transform covariantly."""

    spatial: Mapping[tuple[int, int], Poly]
    time: Mapping[int, Poly]
    tilde: Mapping[int, Poly]


def _spatial_strength(a: tuple[Poly, Poly, Poly], ctx: StarContext
                      ) -> dict[tuple[int, int], Poly]:
    """F_ij of the spatial components a."""
    out = {}
    for i, j in PAIRS:
        ai, aj = a[i - 1], a[j - 1]
        out[(i, j)] = ctx.reduce(aj.partial(i) - ai.partial(j)
                                 + star(ai, aj, ctx, commutator=True))
    return out


def _strength_rows(spatial: Mapping[tuple[int, int], Poly],
                   ys: tuple[Poly, Poly, Poly], ctx: StarContext
                   ) -> list[Poly]:
    """[sum_j F_ij * R_j for i = 1, 2, 3] with R = theta_dot_rows(ctx, ys),
    which is -thetadot^{kj} F_ij * y_k; zero rows are skipped."""
    rows, zero = theta_dot_rows(ctx, ys), Poly.zero()
    return [sum((star(signed_entry(spatial, i, j, zero), rows[j - 1], ctx)
                 for j in _SPATIAL if j != i and rows[j - 1]), zero)
            for i in _SPATIAL]


def _with_tilde(fs: FieldStrength, a: tuple[Poly, Poly, Poly],
                ctx: StarContext) -> FieldStrength:
    """fs completed by Ftilde_0i = F_0i - (1/2) i thetadot^{kj} F_ij * A_k,
    the one place the improved time components are built."""
    corr = _strength_rows(fs.spatial, a, ctx)
    return FieldStrength(fs.spatial, fs.time,
                         {i: fs.time[i] + HALF_I * corr[i - 1]
                          for i in _SPATIAL})


def field_strength(pot: GaugePotential, ctx: StarContext) -> FieldStrength:
    """All field strength components of a completed potential.

    F_ij = d_i A_j - d_j A_i + [A_i, A_j]
    F_0i = d_0 A_i - d_i A_0 + [A_0, A_i]
           - (1/2) i thetadot^{mn} A_n * (d_m A_i)
    Ftilde_0i = F_0i - (1/2) i thetadot^{kj} F_ij * A_k
    """
    a0 = pot.component(0)
    a = pot.spatial()
    spatial = _spatial_strength(a, ctx)
    time = {}
    for i in _SPATIAL:
        ai = a[i - 1]
        # thetadot^{mn} A_n * (d_m A_i) = -sum_n A_n * (Ddot_n A_i)
        corr = sum((star(a[n - 1], theta_dot_row(ctx, n, ai), ctx)
                    for n in _SPATIAL), Poly.zero())
        time[i] = ctx.reduce(ai.partial(0) - a0.partial(i)
                             + star_commutator(a0, ai, ctx) + HALF_I * corr)
    return _with_tilde(FieldStrength(spatial, time, {}), a, ctx)


def _generator(u: Poly, ctx: StarContext) -> Poly:
    """lam with u == star_exp(lam, N, ctx), N the context's eps cutoff,
    read as u's eps^1 coefficient; ValueError for any other u."""
    lam = Poly({(*e[:4], 0): c for e, c in u.items() if e[4] == 1})
    n = ctx.eps_cutoff
    if (n is None or n < 0 or not lam.is_imaginary_valued()
            or u != star_exp(lam, n, ctx)):
        raise ValueError("gauge: u must be star_exp(lam, N, ctx) with N the "
                         "context's eps cutoff")
    return lam


def _adjoint_series(lam: Poly, x: Poly, ctx: StarContext,
                    first: int = 0, lowest: int = 0) -> Poly:
    """sum_n (-1)^n eps^{n+first} / (n+first)! ad_lam^n x over the orders
    n >= lowest, n + first <= N: U~ * x * U for first = 0, U~ * d_k U for
    first = 1 and x = d_k lam (see the module docstring), and
    U~ * x * U - x for lowest = 1.  ad_lam^n x is formed under cutoff
    N - first - n, where eps^{n+first} takes it to order N; each order is
    placed by a shift of its keys' eps byte, and all are summed at once."""
    top = ctx.eps_cutoff - first
    y = x.truncate_eps(top)
    terms, fact = [], 1  # first is 0 or 1, so first! = 1
    for n in range(top + 1):
        if n:
            y = star_commutator(lam, y, StarContext(ctx.theta, top - n))
            if not y:
                break
            fact *= n + first
        if n >= lowest:
            terms.append((n + first, Fraction(-1 if n & 1 else 1, fact), y))
    return _eps_series(terms)


def _transform(pot: GaugePotential, lam: Poly, ctx: StarContext
               ) -> tuple[tuple[Poly, Poly, Poly], tuple[Poly, Poly, Poly]]:
    """(A'_k, U~ * d_k U) for k = 1..3, A'_k = U~ * A_k * U + U~ * d_k U."""
    pure = tuple(_adjoint_series(lam, lam.partial(k), ctx, 1) for k in _SPATIAL)
    return tuple(_adjoint_series(lam, ak, ctx) + g
                 for ak, g in zip(pot.spatial(), pure)), pure


def gauge_transform_potential(pot: GaugePotential, u: Poly,
                              ctx: StarContext) -> GaugePotential:
    """A'_k = U~ * A_k * U + U~ * d_k U with U~ = conj(U).

    u must be star_exp(lam, N, ctx) under the context's eps cutoff N
    (ValueError otherwise; see the module docstring).  Only the spatial
    components transform this simply; the returned potential has no time
    component.  The transformed time sector is reached through the field
    strength rule in ``covariance_defect``.
    """
    return GaugePotential(*_transform(pot, _generator(u, ctx), ctx)[0])


@functools.lru_cache(maxsize=1)
def _transformed_strength(pot: GaugePotential, u: Poly, ctx: StarContext
                          ) -> tuple[Poly, FieldStrength, FieldStrength,
                                     dict[tuple[int, int], Poly]]:
    """(lam, F, F', {(i, j): U~ F_ij U}) where F' is built from A'
    spatially and from the transformation rule in the time sector:

        F'_0i = U~ F_0i U + (1/2) i thetadot^{kj} (U~ F_ij U) * (U~ d_k U)
        Ftilde'_0i = F'_0i - (1/2) i thetadot^{kj} F'_ij * A'_k

    Memoized on the value of (pot, u, ctx), which are immutable and hash
    by value, with room for one entry: ``covariance_defect`` and
    ``invariance_witness`` on equal inputs build it once, any other input
    recomputes and evicts it, and at most one (F, F') pair is held.
    Callers share the result and treat it as read-only.
    """
    lam = _generator(u, ctx)
    f = field_strength(pot, ctx)
    ap, pure = _transform(pot, lam, ctx)
    conj_spatial = {pair: _adjoint_series(lam, f.spatial[pair], ctx)
                    for pair in PAIRS}
    corr = _strength_rows(conj_spatial, pure, ctx)
    time_p = {i: _adjoint_series(lam, f.time[i], ctx) - HALF_I * corr[i - 1]
              for i in _SPATIAL}
    fp = _with_tilde(FieldStrength(_spatial_strength(ap, ctx), time_p, {}),
                     ap, ctx)
    return lam, f, fp, conj_spatial


def covariance_defect(pot: GaugePotential, u: Poly,
                      ctx: StarContext) -> tuple[dict[tuple[int, int], Poly],
                                                 dict[int, Poly]]:
    """How far the transformed strengths are from conjugated originals.

    Returns ({(i,j): F'_ij - U~ F_ij U}, {i: Ftilde'_0i - U~ Ftilde_0i U}).
    Both vanish modulo eps^{N+1}, so under the cutoff N they are exactly
    zero.  u must be star_exp(lam, N, ctx) (ValueError otherwise).
    """
    lam, f, fp, conj_spatial = _transformed_strength(pot, u, ctx)
    spatial = {pair: fp.spatial[pair] - conj_spatial[pair] for pair in PAIRS}
    tilde = {i: fp.tilde[i] - _adjoint_series(lam, f.tilde[i], ctx)
             for i in _SPATIAL}
    return spatial, tilde


def action_density(fs: FieldStrength, ctx: StarContext) -> Poly:
    """sum_{i<j} F_ij * conj(F_ij) - sum_i Ftilde_0i * conj(Ftilde_0i).

    Real valued: conjugation reverses the star product, so each F * conj(F)
    is self-conjugate.  Each is one ``star(F, conj(F), hermitian=True)``
    call, which forms only the real part of each series term.  Under a
    gauge transformation the density shifts by a star commutator only
    (see ``invariance_witness``), so its integral is invariant by the
    trace property.
    """
    return _density(_density_terms(fs), ctx)


def _density_terms(fs: FieldStrength) -> list[tuple[int, Poly]]:
    """The (sign, F) of the density's six products F * conj(F)."""
    return ([(1, fs.spatial[pair]) for pair in PAIRS]
            + [(-1, fs.tilde[i]) for i in _SPATIAL])


def _density(terms: list[tuple[int, Poly]], ctx: StarContext,
             floor: int = 0) -> Poly:
    """sum of sign F * conj(F) over the (sign, F) of terms, from eps^floor
    up."""
    acc = Poly.zero()
    for sign, x in terms:
        prod = star(x, x.conj(), ctx, hermitian=True, eps_floor=floor)
        acc = acc + prod if sign > 0 else acc - prod
    return acc


def invariance_witness(pot: GaugePotential, u: Poly,
                       ctx: StarContext) -> tuple[Poly, Poly]:
    """Split density(A') - density(A) into commutator + remainder.

    Returns (w, r) with w = [conj(U), density(A) * U] and r the rest; r
    vanishes modulo eps^{N+1}, so under the cutoff N it is exactly zero.
    u must be star_exp(lam, N, ctx) (ValueError otherwise).  Since
    U * U~ = 1 mod eps^{N+1}, w = U~ * density(A) * U - density(A), which
    is sum_{n>=1} (-eps)^n / n! ad_lam^n density(A) (see the module
    docstring): a star commutator with lam, so the density change
    integrates to zero by the trace property.
    """
    lam, f, fp, _ = _transformed_strength(pot, u, ctx)
    terms, base_terms = _density_terms(fp), _density_terms(f)
    # density(A')'s eps^0 part is density(A)'s when F' has F's eps^0 part
    floor = int(all(x.truncate_eps(0) == y.truncate_eps(0)
                    for (_, x), (_, y) in zip(terms, base_terms)))
    share, rest = _helper_share(terms, base_terms)

    def own():
        dens = _density(base_terms, ctx)
        return (dens, _adjoint_series(lam, dens, ctx, lowest=1),
                _density(rest, ctx, floor))

    if share:
        theirs, (dens, witness, dens_p) = _forked(
            lambda: _density(share, ctx, floor), own)
        dens_p = dens_p + theirs
    else:
        dens, witness, dens_p = own()
    if floor:
        dens_p = dens_p + dens.truncate_eps(0)
    return witness, dens_p - dens - witness


def _helper_share(terms: list[tuple[int, Poly]],
                  base_terms: list[tuple[int, Poly]]
                  ) -> tuple[list[tuple[int, Poly]], list[tuple[int, Poly]]]:
    """(the helper's share of density(A')'s products, the caller's rest).

    The share takes the largest product, then each next largest that
    keeps its predicted work at most the caller's, which also computes
    density(A) and the witness series.  The share is empty, and no helper
    starts, unless the work that overlaps the caller's reaches
    _FORK_BREAK_EVEN, the process may run on two CPUs and forking would
    raise no warning."""
    cost = [len(x) ** 2 for _, x in terms]
    order = sorted(range(len(terms)), key=cost.__getitem__, reverse=True)
    theirs = cost[order[0]]
    mine = (_OWN_WORK_FACTOR * sum(len(x) ** 2 for _, x in base_terms)
            + sum(cost) - theirs)
    share = {order[0]}
    for i in order[1:]:
        if theirs + cost[i] <= mine - cost[i]:
            share.add(i)
            theirs, mine = theirs + cost[i], mine - cost[i]
    if min(theirs, mine) < _FORK_BREAK_EVEN or _cpus() < 2 or _fork_warns():
        return [], terms
    return ([t for i, t in enumerate(terms) if i in share],
            [t for i, t in enumerate(terms) if i not in share])


def _cpus() -> int:
    """The CPUs this process may run on (its affinity mask, which taskset
    sets), at most 2; 1 off Linux."""
    if not sys.platform.startswith("linux"):
        return 1
    return min(2, len(os.sched_getaffinity(0)))


def _fork_warns() -> bool:
    """Whether os.fork would warn: from Python 3.12 it does in a process
    with more than one OS thread (numpy's BLAS starts some)."""
    return (sys.version_info >= (3, 12)
            and len(os.listdir("/proc/self/task")) > 1)


def _forked(child: Callable[[], Poly],
            own: Callable[[], tuple]) -> tuple[Poly, tuple]:
    """(child(), own()), child run in one forked process while own runs
    here.  The child sends its Poly's storage back over a pipe and leaves
    by os._exit, so it runs no exit handler and flushes no inherited
    buffer.  An exception in the child is raised here.  The child is
    reaped before this returns; if own, the read or the wait raises, the
    child is killed and reaped first, and a reaped pid is never
    signalled.  Signals stay blocked from the fork until each process is
    inside its try, so no handler's exception can leave the child running
    the caller's code, or the caller without a way to kill the child.  If
    the fork itself fails, both run here."""
    r, w = os.pipe()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        pid = os.fork()
    except OSError:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(r)
        os.close(w)
        return child(), own()
    if not pid:  # the child
        code = 1
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(r)
            try:
                p = child()
                data = pickle.dumps((None, p._nums, p._den), -1)
            except BaseException as exc:
                data = pickle.dumps((exc, None, None), -1)
            with open(w, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    reaped = False
    try:
        os.close(w)
        with open(r, "rb") as fh:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            mine = own()
            data = fh.read()
        status = os.waitpid(pid, 0)[1]
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    if status or not data:
        raise RuntimeError(f"gauge helper process ended with status {status}")
    exc, nums, den = pickle.loads(data)
    if exc is not None:
        raise exc
    return Poly._raw(nums, den), mine
