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
row 0.

One loop fills a range of output rows: it walks the live rows a1 in
ascending order and transforms only the window rows that land in its
range, max(1, 2^15 // N) rows at a time.  That is the one bound on every
inverse transform before the last, in the loop and in the zero-mode pass
below alike, so the temporaries stay bounded at any N.  The loop runs
over the whole grid, or, once one slice fills a transform (W N >= 2^15
samples) and the process may run on two CPUs (its affinity mask, which
taskset sets), over two contiguous ranges of output rows: the calling
thread runs one and one helper thread the other.  numpy's FFTs release
the interpreter lock, so the two ranges are transformed at once.  Every
output row adds the same terms in the same order whatever the ranges,
and a row's FFT does not depend on the rows transformed with it, so the
product has the same bytes for one part or two.  For small slices,
handing the interpreter lock back and forth around many small numpy
calls costs more than the second core gains.  On a shared 2-core VM
(Python 3.11, numpy 2.4; two rounds of 21 alternating runs, ratios of
the minima and of the medians) two parts took 1.01-1.27 times the
one-part time at W N = 16384 (full band, N = 128), but 0.73-0.88 at
18240, 0.64-0.98 at 24864 and 0.65-0.89 at 32512 (band limited, N = 192
to 256), 0.62-0.74 at 36864 (full band, N = 192) and 0.60-0.63 at 50880.
Two parts used to cut their window into quarters, and then read
1.62-1.88, 1.34-1.61, 0.99-1.17 and 0.82-1.00 at the first four sizes:
the crossover the threshold was set at.  With one transform per run the
crossover lies between 16384 and 18240.  On that VM band limited
products take 0.06-0.11 s at N = 256, which stays in one part, and
0.28-0.42 s at N = 512 (0.51-0.68 s in one part).  Full band ones take
0.13-0.20 s at N = 256 and 1.1-1.5 s at N = 512 (0.23-0.28 s and
2.1-2.5 s in one part).

The trace and cyclicity defects integrate a product, and summing over x1
keeps only its first-axis mode 0.  So they form output row 0 alone.  That
row takes at most one window row per live row a1, so instead of the row
loop one batched pass stacks the F products of a left row and its window
row, transforms them in chunks of at most 2^15 samples, and adds them
into the row in ascending a1, as the loop would.  A row's FFT does not
depend on the rows transformed with it and the adds keep their order, so
the row has the bytes of the whole grid's row 0.  That is O(F N log N)
after the two input FFTs, O(N^2 log N) in all, at a few numpy calls per
chunk where the loop made about eight per live row.  The cyclicity defect
forms both of its integrals from one spectrum and one set of live rows
per field.  On the shared 2-core VM (Python 3.11, numpy 2.4) the
benchmark's band limited defects took, per case, 0.99-1.27 ms in the loop
and 0.43-0.73 ms batched for trace at N = 64, 0.95-1.01 and 0.39-0.41 ms
for cyclicity at N = 32, and 2.4 and 1.3 ms, 4.8 and 2.0 ms, 7.6 and
5.5 ms for trace and cyclicity at N = 128 and trace at N = 256.

The series cross-check holds each polynomial of its derivative
bookkeeping as a coefficient matrix C.  Differentiating q times the
Gaussian window w is one fixed matrix S acting on C (S C along x1, C S^T
along x2).  x1 varies only along rows and x2 only along columns, so the
windowed grid values of q differentiated m times in x1 and k in x2 are
D_m C D_k^T, with D_k = diag(w) V S^k and V the Vandermonde matrix of the
grid axis: a sum of |q| rank-one outer products D_m[:, e1] D_k[:, e2]^T,
one per term c_e x1^e1 x2^e2.  Only the columns of the exponents in use
are formed, once, as one stack over k <= max_terms.  The pointwise
product of an f and a g factor is then a sum of |f||g| outer products,
so order o of the series, o + 1 factor pairs, is one n x K x n matmul
with K = (o + 1)|f||g|, w^2 folded into the columns.  Evaluating each
factor densely as V C V^T costs 2 n s (n + s) multiply-adds per pair
(s = deg + max_terms + 1) against n^2 |f||g| for the outer products, so
the term-pair form is the cheaper one while |f||g| < 2 (s + s^2/n),
about 68 at n = 128 and s = 28; every caller passes polynomials of at
most 3 terms, |f||g| <= 9.  At the default n = 128 the series takes
2-3 ms of a cross-check of the suite's pairs, against 12-13 ms in the
dense form (shared 2-core VM, Python 3.11, numpy 2.4).  Their grid_star
product takes the rest, 7-29 ms, because the window leaves most spectral
rows live (see cross_validate_symbolic).

Frequencies add modulo the grid, so a product of two fields is only
faithful to the continuum when the inputs are band limited: keep all
frequencies at or below N/4 and no aliased pair can reach the zero mode,
which is what the trace and cyclicity measurements rely on.  Aliased
contributions are not numerical noise but honestly twisted wrap-around
modes; the helpers below default to safe bands.

File format: the one grid container is the binary '.ncg' file, a 32 byte
header '<8sI4xdd' holding the magic NCGRID01, the grid size, the box
length and theta, followed by row-major complex128 samples.
"""

from __future__ import annotations

import cmath
import math
import os
import signal
import struct
import threading
from dataclasses import dataclass
from stat import S_ISREG

import numpy as np

MAGIC = b"NCGRID01"
_HEADER = struct.Struct("<8sI4xdd")

# every inverse transform of grid_star's accumulation holds at most this
# many samples (at least one row), so its temporaries stay bounded at any
# N; a product splits by output row once one slice (W N samples) fills a
# transform (the measured crossover is in the module docstring)
_TRANSFORM_SAMPLES = 2 ** 15


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
        if v.ndim != 2 or v.shape[0] != v.shape[1] or not v.size:
            raise ValueError("grid values must be a non-empty square 2d array")
        # samples may be non-finite (NaN propagates through the product);
        # the box may not, since cell_area and every twist phase read it
        if not (math.isfinite(self.box_length) and self.box_length > 0):
            raise ValueError("box_length must be finite and positive")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def cell_area(self) -> float:
        return (self.box_length / self.n) ** 2

    def integral(self) -> complex:
        return complex(self.values.sum() * self.cell_area)

    def l2_norm(self) -> float:
        return float(np.sqrt((np.abs(self.values) ** 2).sum() * self.cell_area))

    def with_values(self, values: np.ndarray) -> "GridField":
        return GridField(values, self.box_length)


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


def _live_rows(hat: np.ndarray) -> np.ndarray | None:
    """Ascending indices of the rows of a 2-d spectrum that carry content.

    The rows are sorted by squared 2-norm and the smallest are dropped
    while their summed squared norm stays <= (u log2(N^2))^2 ||hat||^2,
    u = 2^-53 (see ``grid_star`` for why that is below roundoff).  A zero
    spectrum has no live row; a non-finite one gives None, because its
    product with anything, zero included, is non-finite everywhere.
    """
    flat = hat.view(np.float64)  # each row's re and im parts interleaved
    norms = np.einsum("ij,ij->i", flat, flat)
    order = np.argsort(norms)
    budget = (2.0 ** -53 * math.log2(hat.size)) ** 2 * norms.sum()
    if not math.isfinite(budget):
        return None
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

    One row loop adds the transformed slices into the output rows, and
    every inverse transform but the last holds at most 2^15 samples.  The
    loop runs once over the whole grid in the calling thread, or, once
    one slice fills a transform (W N >= 2^15 samples, W the right
    factor's window rows) and the process may run on two CPUs, over two
    ranges of output rows, one in the calling thread and one in a helper.
    Each output row adds the same terms in the same order either way, so
    the result has the same bytes.  For small slices the threads'
    hand-offs cost more than the second core gains (see the module
    docstring).  The helper is joined before the call returns or raises.
    """
    # the spectra die with the helper's frame, before this peak transform
    modes = _spectrum_rows(f, g, theta, 0, f.n)
    return f.with_values(np.fft.ifft(modes, axis=0, norm="forward"))


def _spectra(f: GridField, g: GridField):
    """((fhat, f_rows), (ghat, g_rows)): each field's forward spectrum and
    its live rows, every row of both when either spectrum is non-finite
    (0 * nan is nan).  Rejects fields that do not share a grid."""
    if f.n != g.n or f.box_length != g.box_length:
        raise ValueError("grid fields must share size and box length")
    fhat = np.fft.fft2(f.values, norm="forward")
    ghat = np.fft.fft2(g.values, norm="forward")
    f_rows, g_rows = _live_rows(fhat), _live_rows(ghat)
    if f_rows is None or g_rows is None:
        f_rows = g_rows = np.arange(f.n)
    return (fhat, f_rows), (ghat, g_rows)


def _spectrum_rows(f: GridField, g: GridField, theta: float, lo: int,
                   hi: int, spectra=None) -> np.ndarray:
    """Rows lo..hi-1 of grid_star's accumulation: the product's first-axis
    modes c1 = lo..hi-1 over x2, before the last transform.  Each row has
    the bytes it has in the whole grid's accumulation.  `spectra` is
    _spectra(f, g) when the caller has it already.  Every inverse
    transform, in the pass below and in the row loop alike, holds at most
    max(1, _TRANSFORM_SAMPLES // N) rows.

    A single row takes at most one window row per live left row, so it is
    formed in one batched pass rather than the row loop: the F products
    of a left row and its window row are stacked, transformed in chunks of
    that many rows, and added into the row in ascending a1, the loop's
    order.  A row's FFT does not depend on the rows transformed with it,
    so the row keeps its bytes, at a few numpy calls per chunk instead of
    about eight per live row."""
    (fhat, f_rows), (ghat, g_rows) = spectra or _spectra(f, g)
    n = f.n
    q = 2 * np.pi * np.fft.fftfreq(n, d=f.box_length / n)
    start, size = _cyclic_window(g_rows, n)
    # window row j is g row b1 = (start + j) mod n, gathered once; a full
    # window starts at row 0 and is ghat itself (copying it made full band
    # products 3-4% slower at N = 256)
    window = (start + np.arange(size)) % n
    if size < n:
        ghat = np.take(ghat, window, axis=0)

    def twist(qb):  # exp(+i theta/2 q_b q_{a2}) for each q_b of qb, over a2
        return np.exp(0.5j * theta * np.multiply.outer(qb, q))

    # left factor of the twist over the window's b1, hoisted; the right
    # factor exp(-i theta/2 q_{a1} q_{b2}) is the conjugate of its row
    # b1 = a1, or of the same formula when a1 lies outside the window (the
    # formula alone for every a1 gave the same bytes but made band limited
    # products 4-7% slower at N = 32-256)
    left = twist(q[window])  # [j, a2]

    # rows per inverse transform, in the batched pass and the loop alike
    piece = max(1, _TRANSFORM_SAMPLES // n)

    if hi - lo == 1:
        # live row a1 meets window row j = (lo - a1 - start) mod n, if the
        # window has it; the right twist is left's row (a1 - start) mod n
        js = (lo - f_rows - start) % n
        a1s, js = f_rows[js < size], js[js < size]
        row = np.zeros(n, dtype=np.complex128)
        for c in range(0, len(a1s), piece):
            a1, j = a1s[c:c + piece], js[c:c + piece]
            inside = (a1 - start) % n
            hit = inside < size
            right = np.empty((len(a1), n), dtype=np.complex128)
            right[hit] = left[inside[hit]]
            right[~hit] = twist(q[a1[~hit]])
            np.conjugate(right, out=right)
            prod = np.fft.ifft(np.multiply(left[j], fhat[a1]), axis=1,
                               norm="forward")
            prod *= np.fft.ifft(np.multiply(ghat[j], right, out=right),
                                axis=1, norm="forward")
            # the running row first, as the loop adds: out += a_slice
            np.add(row, prod[0], out=prod[0])
            row = np.add.accumulate(prod, axis=0, out=prod)[-1]
        return row[None]

    def right_twist(a1):
        row = (a1 - start) % n
        return (left[row] if row < size else twist(q[a1])).conj()

    out_modes = np.zeros((hi - lo, n), dtype=np.complex128)
    # at most min(W, hi - lo) window rows land in the range per slice
    parts = _parts(min(size, hi - lo) * n) if len(f_rows) else 1

    def add_rows(r0, r1, stop):
        # window row j lands on output row (s + j) mod n, so rows r0..r1-1
        # take j in [r0 - s, r1 - s) and [r0 + n - s, r1 + n - s), clipped
        # to the window; for the whole grid the two runs join into one
        runs = ((r0, r1 + n),) if r1 - r0 == n else ((r0, r1), (r0 + n, r1 + n))
        buf = np.empty((min(piece, size), n), dtype=np.complex128)
        for a1 in f_rows:
            if stop.is_set():
                return
            f_row, twist = fhat[a1, :], right_twist(a1)
            s = (a1 + start) % n
            for j0, j1 in runs:
                j1 = min(j1 - s, size)
                for j in range(max(j0 - s, 0), j1, piece):
                    k = min(j + piece, j1)
                    b = buf[:k - j]
                    np.multiply(left[j:k], f_row, out=b)
                    a_slice = np.fft.ifft(b, axis=1, norm="forward")  # [j, x2]
                    np.multiply(ghat[j:k], twist, out=b)
                    a_slice *= np.fft.ifft(b, axis=1, norm="forward")
                    # rows up to the end of the grid, then the wrapped
                    # rest from row 0 (which only the whole grid has)
                    r = (s + j) % n
                    head = min(k - j, n - r)
                    out_modes[r - lo:r - lo + head] += a_slice[:head]
                    out_modes[:k - j - head] += a_slice[head:]

    _split_rows(lo, hi, parts, add_rows)
    return out_modes


def _parts(work: int) -> int:
    """How many ranges of output rows grid_star's row loop runs over, for
    slices of `work` = W N samples: the CPUs this process may run on, at
    most 2, and one while a slice holds fewer samples than one transform
    may (_TRANSFORM_SAMPLES) or off Linux."""
    if work < _TRANSFORM_SAMPLES:
        return 1
    try:
        return min(2, len(os.sched_getaffinity(0)))
    except AttributeError:  # not Linux: one part
        return 1


def _split_rows(lo: int, hi: int, parts: int, add_rows) -> None:
    """Call add_rows(r0, r1, stop) over the output rows lo..hi-1.  One part
    is the whole range, run in the calling thread with no thread started
    and no signal mask touched.  Two parts run rows lo..mid-1 in the
    calling thread and mid..hi-1 in one helper, mid = (lo + hi) // 2, and
    return when the helper has finished.

    The helper starts with the timer and interrupt signals blocked, so
    those reach the calling thread.  If either half raises, `stop` is set
    and the other returns at its next row.  Once the helper is joined, the
    caller's exception propagates, or else the helper's is raised here.
    """
    stop = threading.Event()
    if parts == 1:  # Windows has no pthread_sigmask
        return add_rows(lo, hi, stop)
    mid, failure = (lo + hi) // 2, None

    def helper():
        nonlocal failure
        try:
            add_rows(mid, hi, stop)
        except BaseException as exc:  # re-raised in the calling thread
            failure = exc
            stop.set()

    thread = threading.Thread(target=helper, name="grid_star")
    try:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {
            signal.SIGALRM, signal.SIGPROF, signal.SIGVTALRM, signal.SIGINT})
        try:
            thread.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        add_rows(lo, mid, stop)
    except BaseException:  # such as a timeout that the caller's alarm raised
        stop.set()
        raise
    finally:
        if thread.is_alive():  # else it never started, or has ended
            thread.join()
    if failure is not None:
        raise failure


# Bounds on the grid defects, for the grid suite and `nckit grid-check`.
# The phase law's 1e-8 covers any N a grid file holds; the suite's phase
# law keeps 1e-10, since its N is at most 64.
PHASE_TOL = 1e-8
SUITE_PHASE_TOL = 1e-10
TRACE_TOL = 1e-10


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


def _occupied_band(values: np.ndarray) -> int:
    """Largest signed mode index carrying more than roundoff weight."""
    n = values.shape[0]
    spec = np.abs(np.fft.fft2(values))
    idx = np.abs(np.fft.fftfreq(n, d=1.0 / n).astype(int))
    live = spec > 1e-12 * spec.max()
    # no live mode (a zero, NaN or infinite spectrum) reads as band 0
    return int(max(idx[live.any(axis=1)].max(initial=0),
                   idx[live.any(axis=0)].max(initial=0)))


def _normalised_gap(f: GridField, g: GridField, a: complex, b: complex) -> float:
    """|a - b| / (||f|| ||g||), and 0 when either field vanishes."""
    denom = f.l2_norm() * g.l2_norm()
    return abs(a - b) / denom if denom else 0.0


def _star_integral(f: GridField, g: GridField, theta: float,
                   spectra=None) -> complex:
    """integral(f*g): summing over x1 keeps only the first-axis mode 0, so
    only output row 0 of grid_star's accumulation is formed, in one batched
    pass (see _spectrum_rows), and summed.  `spectra` is _spectra(f, g)
    when the caller has it already."""
    row = _spectrum_rows(f, g, theta, 0, 1, spectra)
    return complex(f.n * f.cell_area * row.sum())


def grid_trace_defect(f: GridField, g: GridField, theta: float) -> float:
    """|integral(f*g) - integral(fg)| / (||f|| ||g||).

    The trace property: integrating a star product erases the twist.
    """
    s = _star_integral(f, g, theta)  # rejects mismatched grids first
    return _trace_gap(f, g, s)


def _trace_gap(f: GridField, g: GridField, s: complex) -> float:
    """The trace defect of f and g from s = integral(f*g)."""
    plain = complex((f.values * g.values).sum() * f.cell_area)
    return _normalised_gap(f, g, s, plain)


def grid_cyclicity_defect(f: GridField, g: GridField, theta: float) -> float:
    """|integral(f*g) - integral(g*f)| / (||f|| ||g||).

    Both integrals come from one fft2 and one _live_rows per field: each
    spectrum is the left factor of one product and the right factor of
    the other.  Each integral has the bytes of _star_integral's."""
    fs, gs = _spectra(f, g)
    return _normalised_gap(f, g, _star_integral(f, g, theta, (fs, gs)),
                           _star_integral(g, f, theta, (gs, fs)))


def _trace_defects(f: GridField, g: GridField,
                   theta: float) -> tuple[float, float]:
    """(grid_trace_defect, grid_cyclicity_defect) of f and g, each with
    its bytes, from one _spectra and one integral(f*g)."""
    fs, gs = _spectra(f, g)
    fg = _star_integral(f, g, theta, (fs, gs))
    return (_trace_gap(f, g, fg),
            _normalised_gap(f, g, fg, _star_integral(g, f, theta, (gs, fs))))


# -- independent series evaluator for poly x Gaussian inputs -------------------

# The bound on cross_validate_symbolic, and the pairs it is run on
SERIES_TOL = 1e-6
_SERIES_POOL = (
    ({(0, 0): 1.0}, {(0, 0): 1.0}),
    ({(1, 0): 1.0, (0, 1): 0.5}, {(0, 2): 1.0, (0, 0): -0.25}),
    ({(2, 1): 1.0}, {(1, 1): 1.0, (0, 0): 0.5}),
)


def cross_validate_symbolic(poly_f: dict[tuple[int, int], float],
                            poly_g: dict[tuple[int, int], float],
                            n: int = 128,
                            theta: float = 0.02,
                            max_terms: int = 24,
                            series_tol: float = 1e-12) -> float:
    """Compare grid_star against the derivative series on localized fields.

    Both inputs are q(x) w(x) with a shared Gaussian window w centered in
    the box of side 2 pi.  Its width sigma = box/16 puts w at e^-32, about
    1.3e-14, on the box edge, where the suite's fields reach 3.4e-14 to
    1.3e-13 of their peak.  That keeps the periodic wrap-around far below
    the check's tolerance, but not below roundoff: the spectra are not
    band limited, and grid_star keeps 55, 106 and 125 of 128 rows live
    for the left factors 1, x1 + 0.5 x2 and x1^2 x2.  The reference is
    the 2d product series evaluated through exact derivative bookkeeping
    in the polynomial-times-Gaussian family, truncated when a term falls
    below series_tol relative to the leading one.  Returns the relative
    sup-norm disagreement.  Exponents must be non-negative ints, n an int
    >= 1, max_terms an int >= 0 and theta finite; anything else raises
    ValueError before any work.

    A polynomial q is its coefficient matrix C, C[e1, e2] the coefficient
    of x1^e1 x2^e2.  d/dx1 (q w) = (dq/dx1 - q (x1 - c) / sigma^2) w maps
    C to S C with S = diag(1, 2, ..) above the diagonal, c / sigma^2 on
    it and -1 / sigma^2 below it; d/dx2 maps C to C S^T.  Each derivative
    raises a degree by at most one, so matrices of size deg + max_terms
    + 1 hold every derivative the series takes.  On the grid they are sums
    of rank-one outer products, one per term (see the module docstring).

    The series only converges while theta stays small against sigma
    squared: derivatives of the window grow like Hermite functions, and
    on the suite's pairs each order shrinks the terms by about
    theta / (2 sigma^2).  That is 0.065 at the default theta, where the
    series stops after 13 orders, and 0.25 at the guard's edge.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be an int >= 1, got {n!r}")
    if not (isinstance(max_terms, int) and max_terms >= 0):
        raise ValueError(f"max_terms must be an int >= 0, got {max_terms!r}")
    box_length = 2.0 * math.pi
    sigma = box_length / 16.0
    if not 2.0 * abs(theta) < sigma * sigma:  # a NaN or infinite theta fails
        raise ValueError("series diverges: need a finite |theta| << sigma^2 / 2,"
                         f" got {theta!r}")
    if not all(isinstance(e, int) and e >= 0
               for p in (poly_f, poly_g) for key in p for e in key):
        raise ValueError("exponents must be non-negative ints")
    center = box_length / 2.0
    inv = 1.0 / (sigma * sigma)
    x = np.arange(n) * (box_length / n)
    w = np.exp(-0.5 * inv * (x - center) ** 2)

    keys = [(e1, e2) for p in (poly_f, poly_g) for e1, e2 in p]
    size = max(map(sum, keys), default=0) + max_terms + 1
    # each exponent in use gets one column: used[j] is the exponent of
    # column j, and cols holds every term's pair of columns
    used = sorted({e for key in keys for e in key})
    cols = np.array([[used.index(e) for e in key] for key in keys],
                    dtype=np.intp).reshape(-1, 2)
    (f1, f2), (g1, g2) = cols[:len(poly_f)].T, cols[len(poly_f):].T
    fc = np.array(list(poly_f.values()), dtype=float)
    gc = np.array(list(poly_g.values()), dtype=float)
    shift = (np.diag(np.arange(1.0, size), k=1) + center * inv * np.eye(size)
             - inv * np.eye(size, k=-1))
    basis = np.empty((size, max_terms + 1, len(used)))
    basis[:, 0] = np.eye(size)[:, used]
    for k in range(max_terms):
        basis[:, k + 1] = shift @ basis[:, k]
    # d[:, k, j] = diag(w) V S^k e_used[j]: the windowed grid values of
    # x^used[j] differentiated k times, over k = 0..max_terms
    d = (x[:, None] ** np.arange(size)) @ basis.reshape(size, -1)
    d = d.reshape(n, max_terms + 1, len(used)) * w[:, None, None]

    def field(e1, e2, c):  # q w on the grid, one outer product per term
        return GridField((d[:, 0, e1] * c) @ d[:, 0, e2].T, box_length)

    product = grid_star(field(f1, f2, fc), field(g1, g2, gc), theta)
    pair_c = np.outer(fc, gc)  # c_e c_h for each (f term e, g term h)

    # the real part of the series sums the even orders, the imaginary
    # part the odd ones
    series = np.zeros((2, n, n))
    scale = None
    quiet = 0
    for order in range(max_terms + 1):
        # (i theta / 2)^order / order! is coeff times i^order, which is
        # (-1)^(order // 2) at even orders and that times i at odd ones
        coeff = (0.5 * theta) ** order / math.factorial(order)
        weight = [(-1) ** (order // 2 + order - m) * math.comb(order, m) * coeff
                  for m in range(order + 1)]
        # f differentiated m = 0..order times in x1 and order - m in x2, g
        # the reverse: for each m and term pair (e, h) the product is the
        # outer product of rows d_m[e1] d_{order-m}[h1] and columns
        # d_{order-m}[e2] d_m[h2], w^2 included, so the whole order is one
        # matmul over (m, e, h)
        up, down = slice(0, order + 1), slice(order, None, -1)
        rows = (d[:, up, f1, None] * d[:, down, None, g1]
                * np.multiply.outer(weight, pair_c))
        right = d[:, down, f2, None] * d[:, up, None, g2]
        full = rows.reshape(n, -1) @ right.reshape(n, -1).T
        series[order % 2] += full
        mag = max(float(full.max()), -float(full.min()))
        if scale is None:
            scale = mag if mag > 0 else 1.0
        # equal arguments kill every odd order, so one quiet term
        # proves nothing; stop only after two in a row
        quiet = quiet + 1 if (order and mag < series_tol * scale) else 0
        if quiet >= 2:
            break
    denom = float(np.hypot(*series).max()) or 1.0
    return float(np.hypot(product.values.real - series[0],
                          product.values.imag - series[1]).max() / denom)


# -- file format ---------------------------------------------------------------

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


def _check_samples(values: np.ndarray, box: float, theta: float) -> None:
    """Reject a NaN or infinite sample, and a grid whose cell area, squared norm
    or largest twist phase leaves the float range (its defects would be void)."""
    if not np.isfinite(values).all():
        raise ValueError("grid samples must be finite")
    n, cell = len(values), np.float64(box) / len(values)
    with np.errstate(over="ignore", under="ignore"):
        area, phase = cell * cell, abs(theta) * (np.pi / cell) ** 2
        norm2 = (n * np.abs(values).max(initial=0.0)) ** 2 * area  # a bound
    if not (area > 0 and np.isfinite(norm2) and np.isfinite(phase)):
        raise ValueError(f"grid of n = {n}, box length {box!r}, theta "
                         f"{theta!r} overflows its norm or twist phase")


def load_grid(path) -> tuple[GridField, float]:
    """The field and theta of a grid file whose body is exactly N*N samples,
    read in place.  A regular file's size is checked before they are
    allocated, so neither a long tail nor a large N costs memory."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError("truncated grid file header")
        magic, n, box, theta = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"not a grid file (magic {magic!r})")
        _check_header(n, box, theta)
        expect = n * n * 16
        st = os.fstat(fh.fileno())
        body = st.st_size - _HEADER.size if S_ISREG(st.st_mode) else expect
        if body == expect:
            values = np.empty((n, n), dtype="<c16")
            body = fh.readinto(values)
            if body == expect and fh.read(1):
                body = f"more than {expect}"
    if body != expect:
        raise ValueError(f"grid file body has {body} bytes, expected {expect}")
    _check_samples(values, box, theta)
    return GridField(values, box), theta

