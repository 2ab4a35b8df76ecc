"""The deformed (star) product with time-dependent deformation matrix.

The product of two functions is the exponential bidifferential series

    f * g = sum_n (1/n!) (i/2)^n theta^{i1 j1}(t) ... theta^{in jn}(t)
                  (d_{i1}..d_{in} f) (d_{j1}..d_{jn} g)

with spatial indices only; theta(t) is an antisymmetric 3x3 matrix whose
entries are polynomials in t.  Because no time derivative appears inside the
series, t acts as a parameter: the product is associative fiberwise in t and
terminates on polynomials.

Consequences implemented and tested here:

* spatial partials are derivations of the product;
* the time partial is NOT: its defect is (1/2) i thetadot^{ij} (d_i f)*(d_j g)
  (``dt_leibniz_defect``);
* conjugation is an anti-homomorphism, conj(f*g) = conj(g)*conj(f)
  (``star_conj_defect``);
* the integral trace property (integral of f*g equals integral of fg) is not
  expressible on polynomials and is verified numerically by the grid module.

``star`` sums the series in operator-split form.  With
D_i = sum_j theta^{ij} d_j, which commute with each other and with the d_j
because theta depends on t alone, the index sequences holding each index i
r_i times give one term n!/r! times:

    f * g = sum_r (i/2)^|r| / r! (d^r f) (D^r g),

over multi-indices r = (r_1, r_2, r_3) with |r| <= n_max, the smaller
operand's spatial degree.  The r are visited depth first in non-decreasing
index order, so each node's d^r f and D^r g come from its parent's by one
d_i and one D_i, and D^r g is built once per call for every term of f.

Orientation.  theta is antisymmetric, so D'_j = sum_i theta^{ij} d_i is -D_j
and f * g = sum_s (-i/2)^|s| / s! (D^s f) (d^s g) as well.  D spreads a term
over several t-exponents, so it goes on the operand with fewer terms.

Exact ints.  The kernel works on ``Poly``'s own storage: int numerators
over one denominator per operand, keyed by packed exponents (see
``nckit.poly``).  Every term of one call is an int over f_den g_den n_max!
(2 D)^n_max, D the lcm of theta's coefficient denominators: D^r g holds
ints over g_den D^|r|, and the node weight n_max!/r! (2 D)^(n_max - |r|)
is an int, since r! divides |r|!, which divides n_max!.  So every sum is a
gcd-free int addition, in the manner of Bareiss (Math. Comp. 1968), and
one running gcd normalises the result.  d_i and D_i are real, so real and
imaginary parts are kept apart and a node's product is four real products
routed by i^|r|; an empty part costs nothing.  Terms are grouped by eps
order, the eps byte cleared from their keys.  ValueError is raised before
t's byte could carry (t grows by theta's degree per order) and when the
result reaches the exponent limit.

Eps cutoff and floor.  Under an eps cutoff N, and with an eps floor k
(``eps_floor``, default 0), the kept orders are k..N.  A node's block
loop skips each pair of orders whose sum lies outside them.  d and D
never raise an eps order, so when no block pair of a node lands in k..N
neither does any pair below it: the node loop does not expand that node
(it asks before D is applied and again after, as D can drop an order),
and a call whose operands have no such pair returns zero at once.  The
order-0 shortcut truncates the pointwise product by ``ctx.reduce``, or,
with a floor, forms only the kept blocks by one node product.  The
operand split keeps every term, as an order outside k..N meets only
skips.  A floor is the short product turned round (Hanrot and
Zimmermann, J. Symbolic Comput. 37(3), 2004): a caller that knows a
product's low orders already asks only for the rest.

Commutator.  Swapping f and g flips the sign of the odd |r| terms, so
f*g - g*f is twice the odd nodes.

Hermitian mode.  f * conj(f), the shape of every action density, is real,
since conjugation reverses the product.  ``star(f, conj(f), ctx,
hermitian=True)`` forms at each node only the two real products that land
in the real part.  With f = sum_e f_e eps^e, the cross blocks come in
pairs: conj(f_e * conj f_e') = f_e' * conj f_e, so the two have the same
real part.  So the kernel skips the blocks with ep > eq and adds those
with ep < eq twice, which is exact over the ints.  The pairing holds for
the whole series, not node by node, and every node adds into one
accumulator, so only the sum is used.

The diagonal blocks halve too, at the odd nodes.  Let B_n(a, b) =
sum_{|r|=n} (d^r a)(D^r b) / r!; by the orientation identity above,
B_n(a, b) = (-1)^n B_n(b, a).  In a block ep = eq, f_e = a + i b against
conj(f_e) = a - i b, an odd node's real part comes from Pr Qi + Pi Qr =
-(d^r a)(D^r b) + (d^r b)(D^r a), and over |r| = n the two sums are
-B_n(a, b) = B_n(b, a), equal.  So the kernel forms only Pi Qr, twice.
This too holds for the whole series at a fixed n, not node by node; a
node the tree skips has d^r f_e = 0 or D^r conj(f_e) = 0, so both its
products are zero, and each node's weight depends on r only through 1/r!.

Thetadot rows.  The series never differentiates t, so a factor c(t) in t
alone passes through the product: c(t)(X*Y) = X*(c(t)Y) = (c(t)X)*Y.  A
contraction thetadot^{ij} X_i*Y_j is then sum_i X_i*(sum_j thetadot^{ij}
Y_j), one product per index.  ``theta_dot_row`` forms the row
Ddot_i g = sum_j thetadot^{ij} d_j g by the kernel's own D_i on
thetadot's table, and ``theta_dot_rows`` contracts thetadot with a
vector of three polynomials.

Nothing outlives the call except what ``ThetaProfile`` keeps: its thetadot
and the row table of D, thetadot's own included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .rationals import HALF_I, CRat
from .poly import (EPS_SHIFT, EXP_LIMIT, FIELD_BITS, Poly, _MASK, _check_limit,
                   _eps_series)

_LOW = (1 << EPS_SHIFT) - 1  # the fields of t, x1, x2 and x3

EntryLike = Union[Poly, CRat, int, Fraction]

PAIRS = ((1, 2), (1, 3), (2, 3))  # the upper triangle (i, j), i < j


def signed_entry(upper: Mapping[tuple[int, int], Poly], i: int, j: int,
                 zero: Poly) -> Poly:
    """Entry (i, j) of the antisymmetric matrix whose upper triangle is
    upper; zero on the diagonal and where upper has no entry."""
    if i == j:
        return zero
    if i < j:
        return upper.get((i, j), zero)
    return -upper.get((j, i), zero)


class ThetaProfile:
    """Antisymmetric 3x3 deformation matrix with entries polynomial in t.

    Constructed from the upper triangle: a mapping {(i, j): entry} with
    1 <= i < j <= 3.  Entries may be Poly (in t only), CRat, Fraction or
    int.  The lower triangle is filled by antisymmetry and the diagonal is
    zero.

    The profile is immutable, so it keeps what derives from it: the lcm D
    of its entries' coefficient denominators and, each built on first use,
    its thetadot and the row table of the star kernel's operator
    D_i = theta^{ij} d_j.  Row i lists, for each j with theta^{ij} != 0,
    the pair (j, ((t-exponent, numerator), ...)) of theta^{ij} over D;
    theta is real, so one numerator suffices.  The table has at most six
    entries, whatever the profile meets.  Thetadot is a profile too, so it
    builds its own row table once, for ``theta_dot_row``.
    """

    __slots__ = ("_upper", "_den", "_dot", "_table")

    def __init__(self, entries: Mapping[tuple[int, int], EntryLike] | None = None):
        upper: dict[tuple[int, int], Poly] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (1 <= i < j <= 3):
                    raise ValueError(f"theta entry index {(i, j)} must satisfy 1 <= i < j <= 3")
                p = v if isinstance(v, Poly) else Poly.const(v)
                if not p.uses_only(("t",)):
                    raise ValueError(f"theta entry {(i, j)} may only involve t, got {p!r}")
                if not p.is_real_valued():
                    raise ValueError(f"theta entry {(i, j)} must be real")
                if p:
                    upper[(i, j)] = p
        object.__setattr__(self, "_upper", upper)
        # lcm of the entries' coefficient denominators
        object.__setattr__(self, "_den", math.lcm(
            *(p._den for p in upper.values())))
        object.__setattr__(self, "_dot", None)
        object.__setattr__(self, "_table", None)

    def __setattr__(self, name, value):
        raise AttributeError("ThetaProfile is immutable")

    @classmethod
    def zero(cls) -> "ThetaProfile":
        return cls()

    @classmethod
    def constant(cls, t12: EntryLike = 0, t13: EntryLike = 0,
                 t23: EntryLike = 0) -> "ThetaProfile":
        return cls({(1, 2): t12, (1, 3): t13, (2, 3): t23})

    def entry(self, i: int, j: int) -> Poly:
        """Signed entry theta^{ij}; antisymmetry is built in."""
        return signed_entry(self._upper, i, j, Poly.zero())

    def upper_entries(self) -> dict[tuple[int, int], Poly]:
        return dict(self._upper)

    def is_zero(self) -> bool:
        return not self._upper

    def theta_dot(self) -> "ThetaProfile":
        if self._dot is None:
            object.__setattr__(self, "_dot", ThetaProfile(
                {k: v.partial(0) for k, v in self._upper.items()}))
        return self._dot

    def _star_table(self) -> tuple[int, tuple]:
        """(largest t-exponent, rows) for the star kernel, built on first
        use; rows[i], i = 1..3, is the row of D_i (see the class docstring).
        """
        if self._table is None:
            rows = (None, [], [], [])
            t_deg = 0
            for (i, j), p in self._upper.items():
                # a key of an entry in t alone is its t-exponent
                s = self._den // p._den
                nums = tuple((te, re * s) for te, (re, _) in p._nums.items())
                t_deg = max(t_deg, *p._nums)
                rows[i].append((j, nums))  # theta^{ji} = -theta^{ij}
                rows[j].append((i, tuple((te, -n) for te, n in nums)))
            object.__setattr__(self, "_table", (t_deg, rows))
        return self._table

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThetaProfile):
            return NotImplemented
        return self._upper == other._upper

    def __hash__(self) -> int:
        return hash(frozenset(self._upper.items()))

    def __repr__(self) -> str:
        return f"ThetaProfile({self._upper!r})"


@dataclass(frozen=True)
class StarContext:
    """Carries the deformation profile and the eps truncation order.

    eps_cutoff=None keeps all eps orders; an integer N drops every term of
    eps-degree > N as soon as it would be produced, which is both the
    mod-eps^{N+1} semantics of the gauge sector and a large speedup.
    """

    theta: ThetaProfile
    eps_cutoff: int | None = None

    def reduce(self, p: Poly) -> Poly:
        if self.eps_cutoff is None:
            return p
        return p.truncate_eps(self.eps_cutoff)


def star(f: Poly, g: Poly, ctx: StarContext, *,
         commutator: bool = False, hermitian: bool = False,
         eps_floor: int = 0) -> Poly:
    """Exact star product of two polynomials (terminating series).

    commutator=True returns f*g - g*f instead: twice the odd-order terms
    of f*g, in one pass.

    eps_floor=k returns the result without its eps orders below k, which
    are never formed (see the module docstring); a floor above the
    context's cutoff returns zero.

    hermitian=True returns the same f*g for g = conj(f), forming only the
    real part of each node's product (see the module docstring).  It
    raises ValueError unless g == conj(f), and together with
    commutator=True; a zero operand returns zero first, the exact product
    and commutator whatever the other operand is.

    The series is summed in operator-split form over one shared int
    denominator (see the module docstring); nothing is kept after the call.
    """
    if not f or not g:  # a thetadot row or a partial is often zero
        return Poly.zero()
    if hermitian and (commutator or g != f.conj()):
        raise ValueError(
            "star: hermitian=True needs g == conj(f) and commutator=False")
    # d acts on p and D on q, the operand with fewer terms; with D on f the
    # series runs in -i/2 (see the module docstring)
    flip = len(f) < len(g)
    p, q = (g, f) if flip else (f, g)
    # no contraction goes deeper than either spatial degree
    n_max = min(q.spatial_degree(), p.spatial_degree())
    theta, cutoff = ctx.theta, ctx.eps_cutoff
    if not n_max or theta.is_zero():  # the series is its order-0 term, fg
        if commutator:
            return Poly.zero()
        if not eps_floor:
            return ctx.reduce(p._times(q))
        kept: dict = {}  # only the blocks from the floor up
        _node_product(kept, _by_eps(p), _by_eps(q), 1, 0, eps_floor, cutoff,
                      hermitian)
        return _from_sides(kept, p._den * q._den)
    t_deg, rows = theta._star_table()
    # t grows by at most t_deg per order; a field holds exponents below
    # 2 * EXP_LIMIT, the final check below the limit itself
    p_tops = p._tops()
    if p_tops[0] + q._tops()[0] + n_max * t_deg >= 2 * EXP_LIMIT:
        raise ValueError(f"star: a t-exponent could reach the limit {EXP_LIMIT}")
    # the weight of node r is n_max!/r! (2 D)^(n_max - |r|)
    two_d = 2 * theta._den
    top = math.factorial(n_max)
    scale = 2 * top if commutator else top
    ps, qs = _by_eps(p), _by_eps(q)
    # with an eps bound a node whose blocks all miss it is not expanded
    bounded = eps_floor or cutoff is not None
    if bounded and not _meets(ps, qs, eps_floor, cutoff):
        return Poly.zero()
    out: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    # nodes: (last index, its run length, r!, |r|, d^r p, D^r q)
    stack = [(1, 0, 1, 0, ps, qs)]
    while stack:
        last, run, rfact, n, ps, qs = stack.pop()
        if not commutator or n & 1:
            w = scale * two_d ** (n_max - n) // rfact
            _node_product(out, ps, qs, w, (-n if flip else n) & 3,
                          eps_floor, cutoff, hermitian)
        if n == n_max:
            continue
        for i in range(last, 4):
            # d^r p holds x_i only while r_i stays below p's top exponent
            if p_tops[i] <= (run if i == last else 0):
                continue
            dp = _partial(ps, FIELD_BITS * i)
            if dp and (not bounded or _meets(dp, qs, eps_floor, cutoff)):
                dq = _theta_apply(qs, rows[i])
                if dq and (not bounded or _meets(dp, dq, eps_floor, cutoff)):
                    k = run + 1 if i == last else 1
                    stack.append((i, k, rfact * k, n + 1, dp, dq))
    return _from_sides(out, p._den * q._den * top * two_d ** n_max)


def _from_sides(out: dict, den: int) -> Poly:
    """The Poly of a side, {eps order: (re, im)} over den, its zero entries
    dropped; ValueError if an exponent reaches the limit."""
    nums = {}
    for e, (re, im) in out.items():
        high = e << EPS_SHIFT
        get = im.get
        for k, r in re.items():
            i = get(k, 0)
            if r or i:
                nums[k | high] = (r, i)
        for k, i in im.items():
            if i and k not in re:
                nums[k | high] = (0, i)
    _check_limit(nums)
    return Poly._make(nums, den)


def _by_eps(p: Poly) -> dict:
    """p's numerators as the kernel holds them, {eps order: (re, im)}, re and
    im {key without its eps byte: int} dicts of the nonzero real or imaginary
    numerators over p's denominator; every eps order is kept."""
    sides: dict = {}
    for k, (r, i) in p._nums.items():
        e = k >> EPS_SHIFT
        part = sides.get(e)
        if part is None:
            part = sides[e] = ({}, {})
        k &= _LOW
        if r:
            part[0][k] = r
        if i:
            part[1][k] = i
    return sides


def _meets(ps: dict, qs: dict, floor: int, cutoff: int | None) -> bool:
    """Whether some pair of eps blocks of the two sides sums to an order in
    [floor, cutoff].  d and D never raise an eps order, so a node of
    which this is false has a subtree that adds nothing."""
    top = max(ps) + max(qs) if cutoff is None else cutoff
    for ep in ps:
        for eq in qs:
            if floor <= ep + eq <= top:
                return True
    return False


def _partial(side: dict, shift: int) -> dict:
    """d_i of a side, x_i's exponent in the field at shift."""
    one = 1 << shift
    out = {}
    for e, (re, im) in side.items():
        re = {k - one: c * m for k, c in re.items() if (m := k >> shift & _MASK)}
        im = {k - one: c * m for k, c in im.items() if (m := k >> shift & _MASK)}
        if re or im:
            out[e] = (re, im)
    return out


def _theta_apply(side: dict, row: tuple) -> dict:
    """D_i of a side for row i of theta's table: every numerator gains one
    factor D in its denominator.  A sum that cancels stays as a zero entry,
    which costs less than filtering each dict; the output drops it."""
    out = {}
    for e, parts in side.items():
        new: tuple[dict[int, int], dict[int, int]] = ({}, {})
        for part, d in zip(parts, new):
            get = d.get
            for j, entry in row:
                shift = FIELD_BITS * j
                one = 1 << shift
                for k, c in part.items():
                    m = k >> shift & _MASK
                    if m:
                        base = k - one
                        c *= m
                        for te, num in entry:
                            key = base + te
                            d[key] = get(key, 0) + c * num
        if new[0] or new[1]:
            out[e] = new
    return out


def _node_product(out: dict, ps: dict, qs: dict, w: int, rot: int,
                  floor: int, cutoff: int | None, real_only: bool) -> None:
    """Add w i^rot (d^r p)(D^r q) into out, {eps order: (re, im)}, for the
    pairs of eps blocks whose order lies in [floor, cutoff].

    With P = Pr + i Pi and Q = Qr + i Qi, Re PQ = Pr Qr - Pi Qi and
    Im PQ = Pr Qi + Pi Qr.  An even rot keeps each in its own accumulator,
    an odd one swaps them; rot 1 and 2 negate Im PQ, rot 2 and 3 negate
    Re PQ.  real_only forms only what lands in the real accumulator, and
    only the eps blocks ep <= eq, the ones with ep < eq twice; in a block
    ep == eq of an odd node it forms Pi Qr twice and no Pr Qi (see the
    module docstring)."""
    odd = rot & 1
    w_re = w if rot < 2 else -w
    w_im = -w if rot == 1 or rot == 2 else w
    for ep, (pr, pi) in ps.items():
        for eq, (qr, qi) in qs.items():
            e = ep + eq
            if e < floor or cutoff is not None and e > cutoff:
                continue
            wr, wi = w_re, w_im
            if real_only:
                if ep > eq:
                    continue
                if ep < eq:
                    wr = 2 * w_re  # and block (eq, ep) is skipped
                wi = 2 * w_im  # and so is Pr Qi when ep == eq
            acc = out.get(e)
            if acc is None:
                acc = out[e] = ({}, {})
            to_re, to_im = (acc[1], acc[0]) if odd else acc
            if not (real_only and odd):
                if pr and qr:
                    _mac(to_re, pr, qr, wr)
                if pi and qi:
                    _mac(to_re, pi, qi, -wr)
            if not (real_only and not odd):
                if pr and qi and not (real_only and ep == eq):
                    _mac(to_im, pr, qi, wi)
                if pi and qr:
                    _mac(to_im, pi, qr, wi)


def _mac(dest: dict, a: dict, b: dict, w: int) -> None:
    """dest += w a b for packed-exponent dicts a and b."""
    if len(a) > len(b):
        a, b = b, a
    get = dest.get
    for ka, ca in a.items():
        ca *= w
        for kb, cb in b.items():
            k = ka + kb
            dest[k] = get(k, 0) + ca * cb


def star_commutator(f: Poly, g: Poly, ctx: StarContext) -> Poly:
    return star(f, g, ctx, commutator=True)


def _ratio(p: Poly, q: Poly) -> CRat | None:
    """c with q == c p, or None if there is none or p or q is zero.  The
    storage is canonical, so c exists exactly when q_k p_k0 == q_k0 p_k over
    the Gaussian integers at every key k, k0 p's first: one numerator pair
    fixes c = q_k0 p_den / (p_k0 q_den)."""
    pn, qn = p._nums, q._nums
    if not pn or len(pn) != len(qn) or (k0 := next(iter(pn))) not in qn:
        return None
    (pr0, pi0), (qr0, qi0) = pn[k0], qn[k0]
    for k, (pr, pi) in pn.items():
        qr, qi = qn.get(k, (0, 0))
        if (qr * pr0 - qi * pi0 != qr0 * pr - qi0 * pi
                or qr * pi0 + qi * pr0 != qr0 * pi + qi0 * pr):
            return None
    return CRat.from_ints((qr0 * pr0 + qi0 * pi0) * p._den,
                          (qi0 * pr0 - qr0 * pi0) * p._den,
                          (pr0 * pr0 + pi0 * pi0) * q._den)


def _leibniz_defect(f: Poly, g: Poly, mus: Sequence[int],
                    ctx: StarContext) -> list[Poly]:
    """[d_mu(f*g) - (d_mu f)*g - f*(d_mu g) for mu in mus].

    f*g, the largest product of the check, is built once for every
    direction.  Star is bilinear over Q(i), so a partial that is c times
    an earlier one of its side (``_ratio``) reuses that one-sided product
    times c.  On the phase subalgebra each factor's partials are multiples
    of one polynomial, so a vector of four costs 3 products of nonzero
    operands; a generic pair costs 9, a zero partial's among them, which
    ``star`` returns at once."""
    fg = star(f, g, ctx)
    seen: tuple[list, list] = ([], [])  # per side: (partial, its product)

    def one_sided(side: int, dp: Poly) -> Poly:
        for q, prod in seen[side]:
            c = _ratio(q, dp)
            if c is not None:
                return prod * c
        prod = star(dp, g, ctx) if side == 0 else star(f, dp, ctx)
        seen[side].append((dp, prod))
        return prod

    return [fg.partial(mu) - one_sided(0, f.partial(mu))
            - one_sided(1, g.partial(mu)) for mu in mus]


def dt_leibniz_defect(f: Poly, g: Poly, ctx: StarContext) -> Poly:
    """d_t(f*g) - (d_t f)*g - f*(d_t g).

    Identically equal to (1/2) i thetadot^{ij} (d_i f)*(d_j g); the equality
    is a test contract, this function computes the left side from scratch.
    """
    return _leibniz_defect(f, g, (0,), ctx)[0]


def theta_dot_row(ctx: StarContext, i: int, g: Poly) -> Poly:
    """Ddot_i g = sum_j thetadot^{ij} d_j g, the kernel's D_i for the
    thetadot of the context's profile, of g truncated at its eps cutoff."""
    dot = ctx.theta.theta_dot()
    if not g or dot.is_zero():
        return Poly.zero()
    g = ctx.reduce(g)  # before its denominator is read
    side = _theta_apply(_by_eps(g), dot._star_table()[1][i])
    return _from_sides(side, g._den * dot._den)


def theta_dot_rows(ctx: StarContext, ys: Sequence[Poly]) -> list[Poly]:
    """[sum_k thetadot^{jk} y_k for j = 1, 2, 3]: thetadot of the context's
    profile contracted with the vector ys = (y_1, y_2, y_3)."""
    rows = [Poly.zero()] * 3
    for (j, k), ent in ctx.theta.theta_dot()._upper.items():
        rows[j - 1] = rows[j - 1] + ent * ys[k - 1]
        rows[k - 1] = rows[k - 1] - ent * ys[j - 1]
    return rows


def dt_leibniz_correction(f: Poly, g: Poly, ctx: StarContext) -> Poly:
    """(1/2) i thetadot^{ij} (d_i f)*(d_j g), the closed form of the defect,
    formed as (1/2) i sum_i (d_i f)*(Ddot_i g)."""
    return HALF_I * sum((star(f.partial(i), theta_dot_row(ctx, i, g), ctx)
                         for i in (1, 2, 3)), Poly.zero())


def star_conj_defect(f: Poly, g: Poly, ctx: StarContext) -> Poly:
    """conj(f*g) - conj(g)*conj(f); identically zero."""
    return star(f, g, ctx).conj() - star(g.conj(), f.conj(), ctx)


def spatial_derivation_defect(f: Poly, g: Poly, i: int, ctx: StarContext) -> Poly:
    """d_i(f*g) - (d_i f)*g - f*(d_i g) for spatial i; identically zero."""
    if not 1 <= i <= 3:
        raise ValueError("spatial index must be 1..3")
    return _leibniz_defect(f, g, (i,), ctx)[0]


def star_exp(lam: Poly, order: int, ctx: StarContext) -> Poly:
    """Truncated star exponential U = sum_{n<=order} (eps*lam)^{*n} / n!.

    lam must be purely imaginary valued (so that conj(U) is the inverse mod
    eps^{order+1}) and must not itself involve eps.
    """
    if not isinstance(order, int) or order < 0:
        raise ValueError("star_exp order must be a nonnegative int")
    if lam.eps_degree() > 0:
        raise ValueError("star_exp argument must not involve eps")
    if not lam.is_imaginary_valued():
        raise ValueError("star_exp argument must be purely imaginary valued")
    n_max = order
    if ctx.eps_cutoff is not None:
        n_max = min(n_max, ctx.eps_cutoff)
    terms = [(0, Fraction(1), Poly.one())]
    power, fact = Poly.one(), 1
    for n in range(1, n_max + 1):
        power = star(power, lam, ctx)
        fact *= n
        terms.append((n, Fraction(1, fact), power))
    return _eps_series(terms)
