"""Numerical star product on a periodic grid.

The symbolic layer proves polynomial identities; what it cannot express is
the trace property, that integrating a star product forgets the
deformation.  This module provides the missing oracle: fields sampled on
an N x N periodic grid over [0, box) x [0, box), a fixed time slice and a
fixed coordinate plane (so theta is one number here), and an exact
momentum space implementation of the product from the plane wave law

    e^{i a.x} * e^{i b.x} = exp(-(i/2) theta (a1 b2 - a2 b1)) e^{i (a+b).x}.

The algorithm splits the twist phase into the two rank-one factors,
runs one FFT per input, and for each live first-axis frequency a1 of the
left factor combines the partially transformed slices.  A row of a
spectrum is live unless it sits below the FFT's own roundoff (see
``grid_star``); the right factor's live rows are covered by their
shortest cyclic window of W rows, gathered once.  So a slice costs
W N log N and the product F W N log N for F live rows of the left
factor: N^3 log N for full band inputs, about N^3 log N / 4 for the
band limited fields below (F = W = N/2 - 1) and N log N for plane waves.
Every transform uses numpy's "forward" normalisation, which puts the
1/N^2 on the input FFTs and none on the inverse ones, so no array is
rescaled.  Each slice is built in one reused buffer, and its window row
j lands on first-axis mode (a1 + start + j) mod N, which is two
contiguous slice adds: up to the last row, then the wrapped rest from
row 0.  On one core of a shared 2-core VM, band limited products take
about 0.1 s at N = 256 and 0.7 s at N = 512, full band ones about 0.4 s
and 3 s.

The series cross-check holds each polynomial of its derivative
bookkeeping as a coefficient matrix C.  Differentiating q times the
Gaussian window is one fixed matrix S acting on C (S C along x1, C S^T
along x2), and the grid values are V C V^T with V the Vandermonde matrix
of the grid axis: x1 varies only along rows and x2 only along columns,
so no N^2-sized power table is built.

Frequencies add modulo the grid, so a product of two fields is only
faithful to the continuum when the inputs are band limited: keep all
frequencies at or below N/4 and no aliased pair can reach the zero mode,
which is what the trace and cyclicity measurements rely on.  Aliased
contributions are not numerical noise but honestly twisted wrap-around
modes; the helpers below default to safe bands.

File formats: a 32 byte binary header '<8sI4xdd' holding the magic
NCGRID01, the grid size, the box length and theta, followed by row-major
complex128 samples; and a plain CSV variant for small grids.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"NCGRID01"
_HEADER = struct.Struct("<8sI4xdd")


@dataclass(frozen=True)
class GridField:
    """Complex samples on the periodic square grid.

    values[i1, i2] is the sample at x = (i1, i2) * box_length / N.  The
    time slice and the coordinate plane are the caller's: a field carries
    neither, and theta is passed separately where needed.
    """

    values: np.ndarray
    box_length: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("grid values must be a square 2d array")
        if not self.box_length > 0:
            raise ValueError("box_length must be positive")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def cell_area(self) -> float:
        return (self.box_length / self.n) ** 2

    def axis(self) -> np.ndarray:
        return np.arange(self.n) * (self.box_length / self.n)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    def integral(self) -> complex:
        return complex(self.values.sum() * self.cell_area)

    def l2_norm(self) -> float:
        return float(np.sqrt((np.abs(self.values) ** 2).sum() * self.cell_area))

    def with_values(self, values: np.ndarray) -> "GridField":
        return GridField(values, self.box_length)


def _compatible(f: GridField, g: GridField) -> None:
    if f.n != g.n or f.box_length != g.box_length:
        raise ValueError("grid fields must share size and box length")


def plane_wave(n: int, box_length: float, a1: int, a2: int) -> GridField:
    """The field e^{i (q_{a1} x1 + q_{a2} x2)} with integer mode numbers."""
    idx = np.arange(n)
    phase1 = np.exp(2j * np.pi * a1 * idx / n)
    phase2 = np.exp(2j * np.pi * a2 * idx / n)
    return GridField(np.outer(phase1, phase2), box_length)


def band_limited_field(n: int, box_length: float, max_mode: int,
                       seed: int) -> GridField:
    """Random field whose modes vanish beyond |a| <= max_mode per axis."""
    if not 0 <= max_mode <= n // 2 - 1:
        raise ValueError("max_mode must fit strictly inside the Nyquist band")
    rng = np.random.default_rng(seed)
    spec = np.zeros((n, n), dtype=np.complex128)
    size = 2 * max_mode + 1
    block = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    modes = np.arange(-max_mode, max_mode + 1) % n
    spec[np.ix_(modes, modes)] = block
    return GridField(np.fft.ifft2(spec) * n * n, box_length)


def _live_rows(hat: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of a 2-d spectrum that carry content.

    The rows are sorted by squared 2-norm and the smallest are dropped
    while their summed squared norm stays <= (u log2(N^2))^2 ||hat||^2,
    u = 2^-53 (see ``grid_star`` for why that is below roundoff).  A zero
    spectrum has no live row and a non-finite one keeps them all.
    """
    flat = hat.view(np.float64)  # each row's re and im parts interleaved
    norms = np.einsum("ij,ij->i", flat, flat)
    order = np.argsort(norms)
    budget = (2.0 ** -53 * math.log2(hat.size)) ** 2 * norms.sum()
    if not math.isfinite(budget):
        return np.arange(hat.shape[0])
    dropped = np.searchsorted(np.cumsum(norms[order]), budget, side="right")
    return np.sort(order[dropped:])


def _cyclic_window(rows: np.ndarray, n: int) -> tuple[int, int]:
    """(start, size) of the shortest cyclic run of n rows covering rows."""
    if rows.size == 0:
        return 0, 0
    # gap k is the step into rows[k], the first one wrapping around from
    # the last row; ties go to the first, so a full set starts at row 0
    gaps = np.diff(rows, prepend=rows[-1] - n)
    k = int(np.argmax(gaps))
    return int(rows[k]), n + 1 - int(gaps[k])


def grid_star(f: GridField, g: GridField, theta: float) -> GridField:
    """Star product of two grid fields at deformation value theta.

    Exact (to roundoff) for the grid's own plane wave content; continuum
    fidelity needs band limited inputs (see module docstring).

    Only the spectral rows that carry content are combined: the smallest
    rows of each operand's spectrum hat are treated as zero as long as
    their summed squared norm stays within (u log2(N^2))^2 ||hat||^2,
    u = 2^-53.  What is dropped has norm at most u log2(N^2) ||hat||,
    below the standard a priori error bound of the forward 2-d FFT that
    computed hat (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 24.1).  So the result is the exact twisted product of spectra
    that differ from the computed ones by less than that FFT's own
    worst-case error.  A full band spectrum keeps every row and gives the
    dense kernel's result bit for bit.
    """
    _compatible(f, g)
    n = f.n
    q = 2 * np.pi * np.fft.fftfreq(n, d=f.box_length / n)
    fhat = np.fft.fft2(f.values, norm="forward")
    ghat = np.fft.fft2(g.values, norm="forward")
    f_rows = _live_rows(fhat)
    start, size = _cyclic_window(_live_rows(ghat), n)
    # window row j is g row b1 = (start + j) mod n, gathered once; a full
    # window starts at row 0 and is ghat itself (copying it made full band
    # products 3-4% slower at N = 256)
    window = (start + np.arange(size)) % n
    if size < n:
        ghat = np.take(ghat, window, axis=0)

    # left factor of the twist: exp(+i theta/2 q_{a2} q_{b1}) over the
    # window's b1, hoisted; the right factor exp(-i theta/2 q_{a1} q_{b2})
    # is the conjugate of its row b1 = a1, or of the same formula when a1
    # lies outside the window
    left = np.exp(0.5j * theta * np.outer(q[window], q))  # [j, a2]
    out_modes = np.zeros((n, n), dtype=np.complex128)
    buf = np.empty((size, n), dtype=np.complex128)
    for a1 in f_rows:
        np.multiply(left, fhat[a1, :], out=buf)
        a_slice = np.fft.ifft(buf, axis=1, norm="forward")  # [j, x2]
        row = (a1 - start) % n
        twist = left[row] if row < size else np.exp(0.5j * theta * (q[a1] * q))
        np.multiply(ghat, twist.conj(), out=buf)
        a_slice *= np.fft.ifft(buf, axis=1, norm="forward")
        # row j lands on first-axis mode (a1 + start + j) mod n: rows s..
        # up to the end of the grid, then the wrapped rest from row 0
        s = (a1 + start) % n
        head = min(size, n - s)
        out_modes[s:s + head] += a_slice[:head]
        out_modes[:size - head] += a_slice[head:]
    return f.with_values(np.fft.ifft(out_modes, axis=0, norm="forward"))


def phase_law_defect(n: int, box_length: float, theta: float,
                     a: tuple[int, int], b: tuple[int, int]) -> float:
    """Sup-norm error of the product of two plane waves against the law."""
    fa = plane_wave(n, box_length, *a)
    fb = plane_wave(n, box_length, *b)
    got = grid_star(fa, fb, theta)
    q = 2 * np.pi * np.fft.fftfreq(n, d=box_length / n)
    twist = cmath.exp(-0.5j * theta * (q[a[0] % n] * q[b[1] % n]
                                       - q[a[1] % n] * q[b[0] % n]))
    want = plane_wave(n, box_length, a[0] + b[0], a[1] + b[1]).values * twist
    return float(np.max(np.abs(got.values - want)))


def _normalised_gap(f: GridField, g: GridField, a: complex, b: complex) -> float:
    """|a - b| / (||f|| ||g||), and 0 when either field vanishes."""
    denom = f.l2_norm() * g.l2_norm()
    return abs(a - b) / denom if denom else 0.0


def grid_trace_defect(f: GridField, g: GridField, theta: float) -> float:
    """|integral(f*g) - integral(fg)| / (||f|| ||g||).

    The trace property: integrating a star product erases the twist.
    """
    _compatible(f, g)
    s = grid_star(f, g, theta)
    plain = complex((f.values * g.values).sum() * f.cell_area)
    return _normalised_gap(f, g, s.integral(), plain)


def grid_cyclicity_defect(f: GridField, g: GridField, theta: float) -> float:
    """|integral(f*g) - integral(g*f)| / (||f|| ||g||)."""
    _compatible(f, g)
    return _normalised_gap(f, g, grid_star(f, g, theta).integral(),
                           grid_star(g, f, theta).integral())


# -- independent series evaluator for poly x Gaussian inputs -------------------

def cross_validate_symbolic(poly_f: dict[tuple[int, int], float],
                            poly_g: dict[tuple[int, int], float],
                            n: int = 128,
                            box_length: float = 2.0 * math.pi,
                            theta: float = 0.02,
                            sigma: float | None = None,
                            max_terms: int = 24,
                            series_tol: float = 1e-12) -> float:
    """Compare grid_star against the derivative series on localized fields.

    Both inputs are q(x) w(x) with a shared Gaussian window w centered in
    the box (width sigma, default box/16, small enough that the periodic
    wrap-around sits far below roundoff).  The reference is the 2d
    product series evaluated through exact derivative bookkeeping in the
    polynomial-times-Gaussian family, truncated when a term falls below
    series_tol relative to the leading one.  Returns the relative
    sup-norm disagreement.

    A polynomial q is its coefficient matrix C, C[e1, e2] the coefficient
    of x1^e1 x2^e2.  d/dx1 (q w) = (dq/dx1 - q (x1 - c) / sigma^2) w maps
    C to S C with S = diag(1, 2, ..) above the diagonal, c / sigma^2 on
    it and -1 / sigma^2 below it; d/dx2 maps C to C S^T.  Each derivative
    raises a degree by at most one, so matrices of size deg + max_terms
    + 1 hold every derivative the series takes.

    The series only converges while theta stays small against sigma
    squared; derivatives of the window grow like Hermite functions, so
    terms scale roughly like (2 theta / sigma^2)^order.  The defaults
    keep that ratio near 1/4, which reaches the truncation threshold in
    about twenty orders.
    """
    if sigma is None:
        sigma = box_length / 16.0
    if 2.0 * theta >= sigma * sigma:
        raise ValueError("series diverges: need theta << sigma^2 / 2")
    center = box_length / 2.0
    inv = 1.0 / (sigma * sigma)
    x = np.arange(n) * (box_length / n)
    w = np.exp(-0.5 * inv * (x - center) ** 2)
    window = np.outer(w, w)

    deg = max((e1 + e2 for p in (poly_f, poly_g) for e1, e2 in p), default=0)
    size = deg + max_terms + 1
    cf, cg = np.zeros((2, size, size))
    for c, poly in ((cf, poly_f), (cg, poly_g)):
        for (e1, e2), v in poly.items():
            c[e1, e2] = v
    # x1 varies along rows and x2 along columns, so a polynomial's values
    # are V C V^T with V the axis Vandermonde matrix
    vander = x[:, None] ** np.arange(size)

    def values(c):
        return vander @ c @ vander.T

    product = grid_star(GridField(values(cf) * window, box_length),
                        GridField(values(cg) * window, box_length), theta)
    shift = (np.diag(np.arange(1.0, size), k=1) + center * inv * np.eye(size)
             - inv * np.eye(size, k=-1))
    powers = [np.linalg.matrix_power(shift, k) for k in range(max_terms + 1)]

    series = np.zeros((n, n), dtype=np.complex128)
    win2 = window * window
    scale = None
    quiet = 0
    for order in range(max_terms + 1):
        coeff = (0.5j * theta) ** order / math.factorial(order)
        # f differentiated m times in x1 and order - m in x2, g the reverse
        term = sum((-1) ** (order - m) * math.comb(order, m)
                   * values(powers[m] @ cf @ powers[order - m].T)
                   * values(powers[order - m] @ cg @ powers[m].T)
                   for m in range(order + 1))
        full = coeff * (term * win2)
        series = series + full
        mag = float(np.max(np.abs(full)))
        if scale is None:
            scale = mag if mag > 0 else 1.0
        # equal arguments kill every odd order, so one quiet term
        # proves nothing; stop only after two in a row
        quiet = quiet + 1 if (order and mag < series_tol * scale) else 0
        if quiet >= 2:
            break
    denom = float(np.max(np.abs(series))) or 1.0
    return float(np.max(np.abs(product.values - series)) / denom)


# -- file formats --------------------------------------------------------------

def save_grid(path, field: GridField, theta: float) -> None:
    """Binary format: '<8sI4xdd' header (magic, N, box, theta) + complex128."""
    header = _HEADER.pack(MAGIC, field.n, float(field.box_length),
                          float(theta))
    data = np.ascontiguousarray(field.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def _check_header(n: int, box: float, theta: float) -> None:
    """Reject a grid header before any sample is read or allocated."""
    if n <= 0:
        raise ValueError(f"grid size must be positive, got {n}")
    if not (math.isfinite(box) and box > 0):
        raise ValueError(f"box length must be finite and positive, got {box!r}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")


def _check_samples(values: np.ndarray) -> None:
    """Reject a grid with a NaN or infinite sample."""
    if not np.isfinite(values).all():
        raise ValueError("grid samples must be finite")


def load_grid(path) -> tuple[GridField, float]:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError("truncated grid file header")
        magic, n, box, theta = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"not a grid file (magic {magic!r})")
        _check_header(n, box, theta)
        body = fh.read()
    expect = n * n * 16
    if len(body) != expect:
        raise ValueError(
            f"grid file body has {len(body)} bytes, expected {expect}")
    values = np.frombuffer(body, dtype="<c16").reshape(n, n)
    _check_samples(values)
    return GridField(values.copy(), box), theta


def save_grid_csv(path, field: GridField, theta: float) -> None:
    """CSV variant for small grids: one header line 'n,box_length,theta',
    then one line per row with interleaved re,im samples."""
    lines = [f"{field.n},{field.box_length!r},{float(theta)!r}"]
    for row in field.values:
        cells = []
        for v in row:
            cells.append(repr(float(v.real)))
            cells.append(repr(float(v.imag)))
        lines.append(",".join(cells))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_grid_csv(path) -> tuple[GridField, float]:
    with open(path, "r", encoding="ascii") as fh:
        head = fh.readline().strip()
        try:
            n_txt, box_txt, theta_txt = head.split(",")
            n, box, theta = int(n_txt), float(box_txt), float(theta_txt)
        except ValueError as exc:
            raise ValueError(f"bad grid csv header {head!r}") from exc
        _check_header(n, box, theta)
        rows = fh.read().splitlines()
    while rows and not rows[-1].strip():
        rows.pop()
    if len(rows) != n:
        raise ValueError(f"grid csv has {len(rows)} rows, expected {n}")
    # every row is checked before the n x n array exists, so its size is
    # bounded by the file's
    for i, row in enumerate(rows):
        cells = row.count(",") + 1
        if cells != 2 * n:
            raise ValueError(f"grid csv row {i} has {cells} cells")
    values = np.zeros((n, n), dtype=np.complex128)
    parts = values.view(np.float64)  # each row's re and im interleaved
    for i, row in enumerate(rows):
        parts[i] = [float(c) for c in row.split(",")]
    _check_samples(values)
    return GridField(values, box), theta
