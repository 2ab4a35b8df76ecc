"""Grid star product: phase law, trace property, series cross-check, I/O."""

import cmath
import math
import os
import signal
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import nckit.grid
from nckit.cli import SERIES_TOL
from nckit.grid import (
    MAGIC,
    TRACE_TOL,
    GridField,
    _cyclic_window,
    _live_rows,
    _spectrum_rows,
    _star_integral,
    band_limited_field,
    cross_validate_symbolic,
    grid_cyclicity_defect,
    grid_star,
    grid_trace_defect,
    load_grid,
    phase_law_defect,
    plane_wave,
    save_grid,
)
from nckit.suites import _SERIES_POOL


def star_modes_reference(f, g, theta):
    """Direct double sum over mode pairs.  O(N^4), small grids only."""
    n = f.n
    q = 2 * np.pi * np.fft.fftfreq(n, d=f.box_length / n)
    fhat = np.fft.fft2(f.values) / (n * n)
    ghat = np.fft.fft2(g.values) / (n * n)
    hhat = np.zeros((n, n), dtype=np.complex128)
    for a1 in range(n):
        for a2 in range(n):
            if not fhat[a1, a2]:
                continue
            for b1 in range(n):
                for b2 in range(n):
                    if not ghat[b1, b2]:
                        continue
                    twist = cmath.exp(-0.5j * theta
                                    * (q[a1] * q[b2] - q[a2] * q[b1]))
                    hhat[(a1 + b1) % n, (a2 + b2) % n] += (
                        fhat[a1, a2] * ghat[b1, b2] * twist)
    vals = np.fft.ifft2(hhat) * n * n
    return f.with_values(vals)


def star_dense_reference(f, g, theta):
    """The kernel before live-row selection: every row of both spectra."""
    n = f.n
    q = 2 * np.pi * np.fft.fftfreq(n, d=f.box_length / n)
    fhat = np.fft.fft2(f.values, norm="forward")
    ghat = np.fft.fft2(g.values, norm="forward")

    # left factor of the twist: exp(+i theta/2 q_{a2} q_{b1}), hoisted; row
    # a1 conjugated is the right factor exp(-i theta/2 q_{a1} q_{b2})
    left = np.exp(0.5j * theta * np.outer(q, q))  # [b1, a2]
    out_modes = np.zeros((n, n), dtype=np.complex128)
    buf = np.empty((n, n), dtype=np.complex128)
    for a1 in range(n):
        np.multiply(left, fhat[a1, :], out=buf)
        a_slice = np.fft.ifft(buf, axis=1, norm="forward")  # [b1, x2]
        np.multiply(ghat, left[a1, :].conj(), out=buf)
        a_slice *= np.fft.ifft(buf, axis=1, norm="forward")
        # row b1 lands on first-axis mode (a1 + b1) mod n
        out_modes[a1:] += a_slice[:n - a1]
        out_modes[:a1] += a_slice[n - a1:]
    return f.with_values(np.fft.ifft(out_modes, axis=0, norm="forward"))


def rows_field(n, rows, seed):
    """Random field whose spectrum is nonzero on the given rows only."""
    rng = np.random.default_rng(seed)
    spec = np.zeros((n, n), dtype=np.complex128)
    spec[rows, :] = (rng.standard_normal((len(rows), n))
                     + 1j * rng.standard_normal((len(rows), n)))
    return GridField(np.fft.ifft2(spec) * n * n, 2.0)


def random_field(n, seed):
    rng = np.random.default_rng(seed)
    return GridField(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)), 2.5)


def spectrum(field):
    return np.fft.fft2(field.values, norm="forward")


def assert_matches_dense(f, g):
    for theta in (0.37, -1.1):
        got = grid_star(f, g, theta).values
        want = star_dense_reference(f, g, theta).values
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_grid_field_validation():
    with pytest.raises(ValueError):
        GridField(np.zeros((4, 6)), 1.0)
    with pytest.raises(ValueError):
        GridField(np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        GridField(np.zeros((4, 4)), 0.0)
    f = GridField(np.ones((8, 8)), 2.0)
    assert f.n == 8
    assert f.cell_area == pytest.approx(0.0625)
    assert f.integral() == pytest.approx(4.0)
    assert f.l2_norm() == pytest.approx(2.0)


def test_grid_field_rejects_an_empty_grid_and_an_infinite_box():
    # either one constructed and then failed with ZeroDivisionError in
    # cell_area, l2_norm and every product; load_grid rejects both already
    for values, box in ((np.zeros((0, 0)), 1.0), (np.zeros((4, 4)), math.inf),
                        (np.zeros((4, 4)), math.nan)):
        with pytest.raises(ValueError):
            GridField(values, box)
    # non-finite samples stay allowed: NaN propagates through the product
    assert cmath.isnan(GridField(np.full((2, 2), np.nan), 1.0).integral())


def test_plane_wave_values_and_integral():
    n, box = 16, 2 * np.pi
    w = plane_wave(n, box, 2, -3)
    x = np.arange(n) * (box / n)
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    want = np.exp(1j * (2 * x1 - 3 * x2))
    assert np.max(np.abs(w.values - want)) < 1e-12
    # only the zero mode survives integration
    assert abs(w.integral()) < 1e-12
    assert plane_wave(n, box, 0, 0).integral() == pytest.approx(box * box)


def test_phase_law_small_grids():
    for n, box, theta, a, b in [
        (32, 2 * np.pi, 0.3, (3, -2), (5, 7)),
        (32, 2 * np.pi, -0.8, (1, 0), (0, 1)),
        (64, 5.0, 0.7, (1, 4), (-6, 2)),
        (64, 1.0, 0.05, (-3, -5), (2, 9)),
    ]:
        assert phase_law_defect(n, box, theta, a, b) < 1e-11


def test_phase_law_zero_theta_is_pointwise():
    n, box = 32, 2 * np.pi
    f = plane_wave(n, box, 2, 1)
    g = plane_wave(n, box, -1, 3)
    got = grid_star(f, g, 0.0)
    assert np.max(np.abs(got.values - f.values * g.values)) < 1e-12


def test_grid_star_matches_mode_sum_reference():
    n, box, theta = 8, 3.0, 0.45
    f = band_limited_field(n, box, 2, seed=1701)
    g = band_limited_field(n, box, 2, seed=1702)
    got = grid_star(f, g, theta)
    want = star_modes_reference(f, g, theta)
    scale = np.max(np.abs(want.values))
    assert np.max(np.abs(got.values - want.values)) < 1e-12 * scale


@pytest.mark.parametrize("n", [5, 9, 12])
def test_grid_star_matches_reference_full_band(n):
    # unfiltered random samples fill every mode, Nyquist included, so the
    # product aliases and every row of the wrapped accumulation is used
    rng = np.random.default_rng(1720 + n)
    box = 2.5
    f = GridField(rng.standard_normal((n, n))
                  + 1j * rng.standard_normal((n, n)), box)
    g = GridField(rng.standard_normal((n, n))
                  + 1j * rng.standard_normal((n, n)), box)
    for theta in (0.37, -1.1):
        got = grid_star(f, g, theta)
        want = star_modes_reference(f, g, theta)
        scale = np.max(np.abs(want.values))
        assert np.max(np.abs(got.values - want.values)) < 1e-12 * scale


@pytest.mark.parametrize("n", [5, 9, 12, 64, 128, 256])
def test_grid_star_full_band_is_the_dense_kernel_bit_for_bit(n):
    # nothing is below roundoff, so every row is live and the window is
    # the whole grid starting at row 0: the same arithmetic as the dense
    # kernel
    f, g = random_field(n, 1730 + n), random_field(n, 1740 + n)
    assert len(_live_rows(spectrum(f))) == n
    assert _cyclic_window(_live_rows(spectrum(g)), n) == (0, n)
    for theta in (0.37, -1.1):
        got = grid_star(f, g, theta).values
        assert np.array_equal(got, star_dense_reference(f, g, theta).values)


@pytest.mark.parametrize("n", [64, 128])
def test_grid_star_band_limited_matches_dense(n):
    f = band_limited_field(n, 2 * np.pi, n // 4 - 1, seed=1750 + n)
    g = band_limited_field(n, 2 * np.pi, n // 4 - 1, seed=1760 + n)
    assert_matches_dense(f, g)
    assert_matches_dense(g, f)


def test_grid_star_plane_waves_match_dense():
    for n, box, a, b in [(32, 2 * np.pi, (3, -2), (5, 7)),
                         (64, 1.0, (-31, 4), (30, -9)),
                         (27, 5.0, (13, 1), (-13, 0))]:
        assert_matches_dense(plane_wave(n, box, *a), plane_wave(n, box, *b))


def test_grid_star_odd_sizes_match_dense():
    for n in (15, 27):
        f = band_limited_field(n, 3.0, n // 4, seed=1770 + n)
        g = band_limited_field(n, 3.0, n // 4, seed=1780 + n)
        assert_matches_dense(f, g)


def test_grid_star_window_wrapping_across_row_zero():
    for n, rows, window in [(16, [14, 15, 0, 1], (14, 4)),
                            (15, [13, 14, 0, 1, 2], (13, 5))]:
        g = rows_field(n, rows, seed=1790 + n)
        assert _cyclic_window(_live_rows(spectrum(g)), n) == window
        f = band_limited_field(n, 2.0, 3, seed=1795 + n)
        assert_matches_dense(f, g)
        assert_matches_dense(g, f)


def test_grid_star_window_spanning_a_gap():
    # two separated bands: the window covers the gap between them, which
    # holds only dead rows
    n = 16
    g = rows_field(n, [2, 3, 10, 11], seed=1800)
    assert _cyclic_window(_live_rows(spectrum(g)), n) == (2, 10)
    f = rows_field(n, [0, 5, 6, 13], seed=1801)
    assert_matches_dense(f, g)
    assert_matches_dense(g, f)


def test_grid_star_zero_operand():
    n = 12
    f = band_limited_field(n, 2.0, 2, seed=1810)
    zero = f.with_values(np.zeros((n, n)))
    assert len(_live_rows(spectrum(zero))) == 0
    assert _cyclic_window(_live_rows(spectrum(zero)), n) == (0, 0)
    for lhs, rhs in ((zero, f), (f, zero), (zero, zero)):
        assert not np.any(grid_star(lhs, rhs, 0.7).values)
        assert _star_integral(lhs, rhs, 0.7) == 0.0


def test_grid_star_bytes_do_not_depend_on_the_part_count(monkeypatch):
    # each output row adds the same terms in the same order in one part or
    # two, the only counts _parts returns; forcing the count runs the split
    # on any machine and at any size
    n = 256
    nan_field = band_limited_field(n, 2.0, 40, seed=1870)
    values = nan_field.values.copy()
    values[7, 11] = np.nan
    large = [
        (band_limited_field(n, 2 * np.pi, n // 4 - 1, seed=1871),
         band_limited_field(n, 2 * np.pi, n // 4 - 1, seed=1872)),
        (band_limited_field(n, 2.0, 30, seed=1873),
         rows_field(n, list(range(230, n)) + list(range(20)), seed=1874)),
        (rows_field(n, [3, 4, 90, 200], seed=1875),
         rows_field(n, list(range(10, 30)) + list(range(150, 170)), seed=1876)),
        (plane_wave(n, 2.0, 3, -7), plane_wave(n, 2.0, -60, 5)),
        (nan_field.with_values(values), band_limited_field(n, 2.0, 40, seed=1877)),
        # a zero right factor has an empty window, W = 0
        (band_limited_field(n, 2.0, 30, seed=1878), GridField(np.zeros((n, n)), 2.0)),
        # a zero left factor has no live row, F = 0
        (GridField(np.zeros((n, n)), 2.0), band_limited_field(n, 2.0, 30, seed=1881)),
    ]
    # the same shapes at n = 16, where transforms of 40 samples hold two
    # rows (as at the odd n = 15): the batched pass's adds cross chunk
    # boundaries and the loop's pieces straddle the grid's last row
    m = 16
    nan_small = band_limited_field(m, 2.0, 3, seed=1882)
    values = nan_small.values.copy()
    values[7, 11] = np.nan
    small = [
        (band_limited_field(m, 2 * np.pi, m // 4 - 1, seed=1883),
         band_limited_field(m, 2 * np.pi, m // 4 - 1, seed=1884)),
        (band_limited_field(m, 2.0, 3, seed=1885),
         rows_field(m, [13, 14, 15, 0, 1, 2], seed=1886)),
        (rows_field(m, [3, 4, 9, 12], seed=1887),
         rows_field(m, [1, 2, 3, 9, 10, 11], seed=1888)),
        (plane_wave(m, 2.0, 3, -7), plane_wave(m, 2.0, -6, 5)),
        (nan_small.with_values(values), band_limited_field(m, 2.0, 3, seed=1889)),
        (band_limited_field(m, 2.0, 3, seed=1890), GridField(np.zeros((m, m)), 2.0)),
        # an odd grid whose window wraps past row 0
        (band_limited_field(15, 2.0, 3, seed=1879), rows_field(15, [13, 14, 0, 1, 2], seed=1880)),
        (GridField(np.zeros((m, m)), 2.0), band_limited_field(m, 2.0, 3, seed=1891)),
    ]
    for pairs, size in ((large, n), (small, m)):
        assert _cyclic_window(_live_rows(spectrum(pairs[5][1])), size) == (0, 0)
    assert _cyclic_window(_live_rows(spectrum(large[1][1])), n) == (230, 46)
    assert _cyclic_window(_live_rows(spectrum(large[2][1])), n) == (150, 136)
    assert _cyclic_window(_live_rows(spectrum(small[1][1])), m) == (13, 6)
    assert _cyclic_window(_live_rows(spectrum(small[2][1])), m) == (1, 11)
    assert _cyclic_window(_live_rows(spectrum(small[6][1])), 15) == (13, 5)
    # a range of output rows has the bytes of the same rows of the whole
    # grid's accumulation: the first row, the last, and rows across the
    # boundary n // 2 of two parts, and the integral is row 0's sum.  Only
    # a NaN's sign bit may differ: it depends on how many rows numpy's FFT
    # transforms at once
    def ranges(n):
        return ((0, 1), (n - 1, n), (n // 2 - 3, n // 2 + 3))

    def bits(rows):
        flat = rows.view(np.float64).copy()
        flat[np.isnan(flat)] = np.nan
        return flat.tobytes()

    # the large pairs run at the bound alone, where the loop still cuts
    # n = 256 windows into pieces of 128 rows; the 40-sample rounds check
    # the small pairs, the tail of the first round's list
    rounds = ((1, nckit.grid._TRANSFORM_SAMPLES, large + small),
              (1, 40, small), (2, 40, small))
    for k, (parts, samples, pairs) in enumerate(rounds):
        monkeypatch.setattr(nckit.grid, "_parts", lambda work, p=parts: p)
        monkeypatch.setattr(nckit.grid, "_TRANSFORM_SAMPLES", samples)
        with np.errstate(invalid="ignore"):
            got = [bits(grid_star(f, g, 0.37).values) for f, g in pairs]
            rows = [[bits(_spectrum_rows(f, g, 0.37, lo, hi))
                     for lo, hi in ranges(f.n)] for f, g in pairs]
            integrals = [bits(np.array([_star_integral(f, g, 0.37)]))
                         for f, g in pairs]
            if k == 0:
                want = got
                whole = [_spectrum_rows(f, g, 0.37, 0, f.n) for f, g in pairs]
                sums = [bits(np.array([f.n * f.cell_area * w[0].sum()]))
                        for (f, g), w in zip(pairs, whole)]
        assert got == want[-len(pairs):]
        assert rows == [[bits(w[lo:hi]) for lo, hi in ranges(len(w))]
                        for w in whole[-len(pairs):]]
        assert integrals == sums[-len(pairs):]


def test_one_part_starts_no_thread_and_sets_no_signal_mask(monkeypatch):
    # the one-part loop runs in the calling thread, also where there are
    # no threads to start or no pthread_sigmask (Windows)
    def refuse(*args, **kwargs):
        raise AssertionError("one part must not start a thread or mask signals")

    pairs = [(random_field(64, 1886), random_field(64, 1887)),
             (band_limited_field(256, 2.0, 40, seed=1888),
              band_limited_field(256, 2.0, 40, seed=1889))]
    monkeypatch.setattr(nckit.grid, "_parts", lambda work: 2)
    want = [grid_star(f, g, 0.37).values.tobytes() for f, g in pairs]
    monkeypatch.setattr(nckit.grid, "_parts", lambda work: 1)
    monkeypatch.setattr(threading, "Thread", refuse)
    monkeypatch.setattr(signal, "pthread_sigmask", refuse)
    assert [grid_star(f, g, 0.37).values.tobytes() for f, g in pairs] == want


def _grid_threads():
    return [t for t in threading.enumerate() if t.name == "grid_star"]


def test_import_starts_no_thread():
    code = ("import threading; n = threading.active_count(); import nckit; "
            "assert threading.active_count() == n, threading.enumerate()")
    src = os.path.dirname(os.path.dirname(nckit.grid.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                    timeout=60)


def test_split_grid_star_leaves_no_thread(monkeypatch):
    # and its helpers block the signals that must reach the caller
    masks = []
    ifft = np.fft.ifft

    def ifft_noting_masks(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            masks.append(signal.pthread_sigmask(signal.SIG_BLOCK, []))
        return ifft(*args, **kwargs)

    monkeypatch.setattr(nckit.grid, "_parts", lambda work: 2)
    monkeypatch.setattr(np.fft, "ifft", ifft_noting_masks)
    f, g = random_field(64, 1880), random_field(64, 1881)
    before = threading.active_count()
    grid_star(f, g, 0.5)
    assert threading.active_count() == before
    assert masks
    caller = {signal.SIGALRM, signal.SIGPROF, signal.SIGVTALRM, signal.SIGINT}
    assert all(caller <= mask for mask in masks)
    assert not caller & signal.pthread_sigmask(signal.SIG_BLOCK, [])


def test_helper_exception_reaches_the_caller(monkeypatch):
    class Boom(Exception):
        pass

    ifft = np.fft.ifft

    def ifft_off_main(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise Boom()
        return ifft(*args, **kwargs)

    monkeypatch.setattr(nckit.grid, "_parts", lambda work: 2)
    monkeypatch.setattr(np.fft, "ifft", ifft_off_main)
    f, g = random_field(64, 1882), random_field(64, 1883)
    before = threading.active_count()
    with pytest.raises(Boom):
        grid_star(f, g, 0.5)
    assert threading.active_count() == before


def test_alarm_in_the_caller_stops_the_helpers(monkeypatch):
    # the alarm is set as the parts start, so it lands while they run; its
    # handler raises in the calling thread, which joins the helpers
    class Expired(Exception):
        pass

    seen = []

    def expire(signum, frame):
        seen.append(len(_grid_threads()))
        raise Expired()

    split_rows = nckit.grid._split_rows

    def split_with_alarm(*args):
        signal.setitimer(signal.ITIMER_REAL, 0.01)
        split_rows(*args)

    monkeypatch.setattr(nckit.grid, "_parts", lambda work: 2)
    monkeypatch.setattr(nckit.grid, "_split_rows", split_with_alarm)
    f, g = random_field(256, 1884), random_field(256, 1885)
    before = threading.active_count()
    previous = signal.signal(signal.SIGALRM, expire)
    try:
        with pytest.raises(Expired):
            grid_star(f, g, 0.5)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert seen == [1]
    assert threading.active_count() == before
    assert not _grid_threads()


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_live_rows_keep_exactly_the_true_support(n):
    # a silent fall back to every row would keep the roundoff rows too
    band = n // 4 - 1
    f = band_limited_field(n, 2 * np.pi, band, seed=1820 + n)
    rows = _live_rows(spectrum(f))
    assert len(rows) == 2 * band + 1
    assert set(rows) == set(np.arange(-band, band + 1) % n)
    wave = plane_wave(n, 2 * np.pi, 5, -3)
    assert list(_live_rows(spectrum(wave))) == [5]


@pytest.mark.parametrize("bad",
                         [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_grid_star_propagates_non_finite_samples_like_dense(bad):
    # a NaN budget once dropped every row and returned an all-zero product
    n = 16
    for seed in range(4):
        f = band_limited_field(n, 2.5, 3, seed=1840 + seed)
        g = random_field(n, seed=1850 + seed)
        values = f.values.copy()
        values[seed, 2 * seed + 1] = bad
        spoilt = f.with_values(values)
        with np.errstate(invalid="ignore", over="ignore"):
            assert _live_rows(spectrum(spoilt)) is None
            pairs = ((spoilt, f), (f, spoilt), (spoilt, g), (g, spoilt))
            for lhs, rhs in pairs:
                got = grid_star(lhs, rhs, 0.37).values
                want = star_dense_reference(lhs, rhs, 0.37).values
                assert np.isnan(want).any()
                assert np.array_equal(np.isnan(got), np.isnan(want))
                # the integrals are NaN too, so a `defect <= tol` verdict
                # fails rather than passes
                assert cmath.isnan(_star_integral(lhs, rhs, 0.37))
                assert not grid_trace_defect(lhs, rhs, 0.37) <= 1e-10
                assert not grid_cyclicity_defect(lhs, rhs, 0.37) <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_grid_star_zero_times_non_finite_is_non_finite_like_dense(bad):
    # the zero spectrum has no live row, so the product once skipped the
    # non-finite operand and came out all zero
    n = 8
    f = band_limited_field(n, 2.0, 2, seed=1860)
    zero = f.with_values(np.zeros((n, n)))
    values = f.values.copy()
    values[3, 5] = bad
    spoilt = f.with_values(values)
    with np.errstate(invalid="ignore", over="ignore"):
        for lhs, rhs in ((zero, spoilt), (spoilt, zero)):
            got = grid_star(lhs, rhs, 0.7).values
            want = star_dense_reference(lhs, rhs, 0.7).values
            assert np.isnan(want).all()
            assert np.array_equal(np.isnan(got), np.isnan(want))


def test_live_rows_dropped_mass_within_budget():
    for hat in (spectrum(band_limited_field(128, 1.0, 31, seed=1830)),
                spectrum(plane_wave(64, 1.0, -7, 2)),
                spectrum(rows_field(16, [2, 3, 10, 11], seed=1831))):
        n = hat.shape[0]
        norms = np.sum(np.abs(hat) ** 2, axis=1)
        budget = (2.0 ** -53 * math.log2(n * n)) ** 2 * norms.sum()
        dead = np.setdiff1d(np.arange(n), _live_rows(hat))
        assert len(dead) > 0
        assert norms[dead].sum() <= budget


def test_live_rows_budget_boundary():
    # one row of squared norm 1 and two faint ones, at 1/2 and 2 times the
    # budget: only the one below it is dropped
    n = 8
    unit = (2.0 ** -53 * math.log2(n * n)) ** 2
    hat = np.zeros((n, n), dtype=np.complex128)
    hat[0, 0] = 1.0
    hat[3, 1] = math.sqrt(0.5 * unit)
    hat[6, 2] = 1j * math.sqrt(2.0 * unit)
    assert list(_live_rows(hat)) == [0, 6]
    hat[6, 2] = 0.0
    assert list(_live_rows(hat)) == [0]


def test_grid_star_linearity():
    n, box, theta = 16, 2.0, 0.3
    f = band_limited_field(n, box, 3, seed=1703)
    g = band_limited_field(n, box, 3, seed=1704)
    h = band_limited_field(n, box, 3, seed=1705)
    lhs = grid_star(f.with_values(f.values + 2.0 * g.values), h, theta)
    rhs = grid_star(f, h, theta).values + 2.0 * grid_star(g, h, theta).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_grid_star_associative_in_band():
    # keep every intermediate mode inside the Nyquist band so the grid
    # product agrees with the continuum one, which is associative
    n, box, theta = 64, 2 * np.pi, 0.6
    f = band_limited_field(n, box, 8, seed=1706)
    g = band_limited_field(n, box, 8, seed=1707)
    h = band_limited_field(n, box, 8, seed=1708)
    lhs = grid_star(grid_star(f, g, theta), h, theta)
    rhs = grid_star(f, grid_star(g, h, theta), theta)
    scale = np.max(np.abs(lhs.values))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10 * scale


def test_band_limited_field_spectrum_support():
    n, kmax = 32, 5
    f = band_limited_field(n, 1.0, kmax, seed=42)
    spec = np.fft.fft2(f.values)
    idx = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    for a1 in range(n):
        for a2 in range(n):
            if abs(idx[a1]) > kmax or abs(idx[a2]) > kmax:
                assert abs(spec[a1, a2]) < 1e-9
    # deterministic for a fixed seed
    again = band_limited_field(n, 1.0, kmax, seed=42)
    assert np.array_equal(f.values, again.values)
    with pytest.raises(ValueError):
        band_limited_field(n, 1.0, n // 2, seed=1)


@pytest.mark.parametrize("product", [grid_star, grid_trace_defect,
                                     grid_cyclicity_defect])
def test_mismatched_grids_are_rejected(product):
    f = band_limited_field(16, 2.0, 3, seed=1890)
    for g in (band_limited_field(12, 2.0, 3, seed=1891),
              band_limited_field(16, 2.5, 3, seed=1892)):
        for lhs, rhs in ((f, g), (g, f)):
            with pytest.raises(ValueError, match="share size and box length"):
                product(lhs, rhs, 0.5)


def test_trace_and_cyclicity_defects():
    n, box = 64, 2 * np.pi
    f = band_limited_field(n, box, n // 4 - 1, seed=1709)
    g = band_limited_field(n, box, n // 4 - 1, seed=1710)
    for theta in (0.2, 0.9, -1.3):
        assert grid_trace_defect(f, g, theta) < 1e-12
        assert grid_cyclicity_defect(f, g, theta) < 1e-12
    zero = f.with_values(np.zeros_like(f.values))
    assert grid_trace_defect(zero, g, 0.5) == 0.0
    assert grid_cyclicity_defect(zero, g, 0.5) == 0.0


def test_defects_survive_a_norm_that_overflows(monkeypatch):
    # ||f|| squares the samples, so at 1e200 it overflowed to inf and both
    # defects read exactly 0, whatever the integrals were.  Both defects
    # are scale-invariant
    box = 2 * np.pi
    f = band_limited_field(32, box, 7, seed=1)
    g = band_limited_field(32, box, 7, seed=2)
    big = f.with_values(f.values * 1e200)
    defects = (grid_trace_defect, grid_cyclicity_defect)

    def pairs():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return [(d(f, g, 0.5), d(big, g, 0.5)) for d in defects]

    for plain, scaled in pairs():
        assert abs(scaled - plain) <= 1e-12
    # a vanishing field still reads 0 against an overflowing one, not
    # 0 * inf = NaN
    zero = f.with_values(np.zeros_like(f.values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [d(zero, big, 0.5) for d in defects] == [0.0, 0.0]
    # an integral 1% wrong whenever g is the right factor fails either
    # defect at either scale, and reads the same
    integral = nckit.grid._star_integral
    monkeypatch.setattr(nckit.grid, "_star_integral",
                        lambda lhs, rhs, *rest: (1.01 if rhs is g else 1.0)
                        * integral(lhs, rhs, *rest))
    for plain, scaled in pairs():
        assert abs(scaled - plain) <= 1e-9 * plain
        assert plain > TRACE_TOL and scaled > TRACE_TOL


def _integral_pairs():
    """The fixtures of the dense-match tests above, as (f, g) pairs."""
    pairs = [(random_field(n, 1730 + n), random_field(n, 1740 + n))
             for n in (5, 9, 12, 64)]
    pairs += [(band_limited_field(n, 2 * np.pi, n // 4 - 1, seed=1750 + n),
               band_limited_field(n, 2 * np.pi, n // 4 - 1, seed=1760 + n))
              for n in (64, 128)]
    pairs += [(plane_wave(n, box, *a), plane_wave(n, box, *b))
              for n, box, a, b in [(64, 1.0, (-31, 4), (30, -9)),
                                   (27, 5.0, (13, 1), (-13, 0))]]
    pairs += [(band_limited_field(n, 3.0, n // 4, seed=1770 + n),
               band_limited_field(n, 3.0, n // 4, seed=1780 + n))
              for n in (15, 27)]
    pairs += [(band_limited_field(n, 2.0, 3, seed=1795 + n),
               rows_field(n, rows, seed=1790 + n))
              for n, rows in [(16, [14, 15, 0, 1]), (15, [13, 14, 0, 1, 2])]]
    pairs.append((rows_field(16, [0, 5, 6, 13], seed=1801),
                  rows_field(16, [2, 3, 10, 11], seed=1800)))
    return pairs


def test_zero_row_integral_matches_the_whole_product():
    # the defects integrate from output row 0 alone; the whole product,
    # transformed and summed, must give the same integral to roundoff
    for f, g in _integral_pairs():
        for lhs, rhs in ((f, g), (g, f)):
            for theta in (0.37, -1.1):
                got = _star_integral(lhs, rhs, theta)
                want = grid_star(lhs, rhs, theta).integral()
                assert abs(got - want) <= 1e-14 * f.l2_norm() * g.l2_norm()


def test_defects_form_only_output_row_zero(monkeypatch):
    # the cost guard: a defect forms output row 0 of the accumulation alone,
    # in the calling thread, and never the whole product; the cyclicity
    # defect transforms each field once for both of its integrals, and no
    # inverse transform holds more than _TRANSFORM_SAMPLES samples.  _parts
    # splits as on two CPUs, where this window of 201 rows would split the
    # whole grid
    n = 256
    f = band_limited_field(n, 2.0, 100, seed=1960)
    g = band_limited_field(n, 2.0, 100, seed=1961)
    spectrum_rows, rows = nckit.grid._spectrum_rows, []
    fft2, transformed = np.fft.fft2, []
    ifft, inverse = np.fft.ifft, []
    bound = nckit.grid._TRANSFORM_SAMPLES
    monkeypatch.setattr(nckit.grid, "_parts",
                        lambda work: 1 if work < bound else 2)

    def recording(f, g, theta, lo, hi, spectra=None):
        rows.append((lo, hi))
        return spectrum_rows(f, g, theta, lo, hi, spectra)

    def counting(values, *args, **kwargs):
        transformed.append(values.shape)
        return fft2(values, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a defect must not form the whole product "
                             "or start a thread")

    def sizing(values, *args, **kwargs):
        inverse.append(values.size)
        return ifft(values, *args, **kwargs)

    monkeypatch.setattr(nckit.grid, "_spectrum_rows", recording)
    monkeypatch.setattr(nckit.grid, "grid_star", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(np.fft, "fft2", counting)
    monkeypatch.setattr(np.fft, "ifft", sizing)
    assert grid_trace_defect(f, g, 0.37) < 1e-12
    assert rows == [(0, 1)]
    del rows[:], transformed[:]
    assert grid_cyclicity_defect(f, g, 0.37) < 1e-12
    assert rows == [(0, 1)] * 2
    assert transformed == [(n, n)] * 2
    # 201 live rows of 256 samples take two chunks per product
    assert len(inverse) == 3 * 2 * 2
    assert max(inverse) <= bound


def test_no_inverse_transform_exceeds_the_bound(monkeypatch):
    # grid_star's temporaries stay bounded at any N: every inverse
    # transform but the last (n, n) one holds at most _TRANSFORM_SAMPLES
    # samples, in one part or two.  A window of 255 rows at n = 512 once
    # took one transform of 130,560 samples in one part
    ifft, inverse = np.fft.ifft, []

    def sizing(values, *args, **kwargs):
        inverse.append(values.shape)
        return ifft(values, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", sizing)
    band = [band_limited_field(512, 2 * np.pi, 127, seed=1962 + k)
            for k in (0, 1)]
    # the full band pair first, in the parts this process's CPUs give
    cases = [([random_field(256, 1964), random_field(256, 1965)], None),
             (band, 1), (band, 2)]
    for (f, g), parts in cases:
        if parts is not None:
            monkeypatch.setattr(nckit.grid, "_parts", lambda work, p=parts: p)
        del inverse[:]
        grid_star(f, g, 0.37)
        assert inverse.pop() == (f.n, f.n)
        assert inverse
        assert max(map(math.prod, inverse)) <= nckit.grid._TRANSFORM_SAMPLES


def test_star_noncommutative_pointwise():
    # the integrand differs even though its integral does not
    n, box, theta = 32, 2 * np.pi, 0.7
    f = band_limited_field(n, box, 4, seed=1711)
    g = band_limited_field(n, box, 4, seed=1712)
    fg = grid_star(f, g, theta)
    gf = grid_star(g, f, theta)
    assert np.max(np.abs(fg.values - gf.values)) > 1e-3
    assert abs(fg.integral() - gf.integral()) < 1e-12


def _poly_eval(poly: dict[tuple[int, int], float],
               x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x1)
    for (e1, e2), c in poly.items():
        out = out + c * x1 ** e1 * x2 ** e2
    return out


def _poly_shift_derivative(poly: dict[tuple[int, int], float], axis: int,
                           center: float, sigma: float) -> dict:
    """d/dx_axis of q(x) w(x) stays in the family: q -> dq - q (x-c)/s^2."""
    out: dict[tuple[int, int], float] = {}

    def add(key, v):
        out[key] = out.get(key, 0.0) + v
        if out[key] == 0.0:
            del out[key]

    inv = 1.0 / (sigma * sigma)
    for (e1, e2), c in poly.items():
        e = (e1, e2)
        if e[axis]:
            k = list(e)
            k[axis] -= 1
            add(tuple(k), c * e[axis])
        k = list(e)
        k[axis] += 1
        add(tuple(k), -c * inv)
        add(e, c * center * inv)
    return out


def series_defect_reference(poly_f: dict[tuple[int, int], float],
                            poly_g: dict[tuple[int, int], float],
                            n: int = 128,
                            box_length: float = 2.0 * math.pi,
                            theta: float = 0.02,
                            sigma: float | None = None,
                            max_terms: int = 24,
                            series_tol: float = 1e-12) -> float:
    """The series cross-check before it moved to coefficient matrices.

    Derivatives are a memoised recursion over exponent dicts and every
    polynomial is evaluated term by term on an N x N meshgrid; kept as
    the reference for ``cross_validate_symbolic``.
    """
    if sigma is None:
        sigma = box_length / 16.0
    if 2.0 * theta >= sigma * sigma:
        raise ValueError("series diverges: need theta << sigma^2 / 2")
    center = box_length / 2.0
    x = np.arange(n) * (box_length / n)
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    window = np.exp(-((x1 - center) ** 2 + (x2 - center) ** 2)
                    / (2.0 * sigma * sigma))

    f_vals = _poly_eval(poly_f, x1, x2) * window
    g_vals = _poly_eval(poly_g, x1, x2) * window
    f_field = GridField(f_vals, box_length)
    g_field = GridField(g_vals, box_length)
    product = grid_star(f_field, g_field, theta)

    # x1 varies along rows and x2 along columns, so a polynomial's values
    # are V C V^T with V the axis Vandermonde matrix and C its coefficients
    deg = max((e1 + e2 for p in (poly_f, poly_g) for e1, e2 in p), default=0)
    top = deg + max_terms + 1
    vander = x[:, None] ** np.arange(top + 1)

    def eval_fast(poly):
        coeffs = np.zeros((top + 1, top + 1))
        for (e1, e2), c in poly.items():
            coeffs[e1, e2] = c
        return vander @ coeffs @ vander.T

    # mixed derivatives of each factor, keyed by (#d1, #d2)
    derivs_f: dict[tuple[int, int], dict] = {(0, 0): dict(poly_f)}
    derivs_g: dict[tuple[int, int], dict] = {(0, 0): dict(poly_g)}

    def deriv(table, d1, d2):
        key = (d1, d2)
        if key not in table:
            if d1:
                prev = deriv(table, d1 - 1, d2)
                table[key] = _poly_shift_derivative(prev, 0, center, sigma)
            else:
                prev = deriv(table, d1, d2 - 1)
                table[key] = _poly_shift_derivative(prev, 1, center, sigma)
        return table[key]

    series = np.zeros((n, n), dtype=np.complex128)
    win2 = window * window
    scale = None
    quiet = 0
    for order in range(max_terms + 1):
        coeff = (0.5j * theta) ** order / math.factorial(order)
        term = np.zeros((n, n))
        for m in range(order + 1):
            sign = -1.0 if (order - m) % 2 else 1.0
            binom = math.comb(order, m)
            left = eval_fast(deriv(derivs_f, m, order - m))
            right = eval_fast(deriv(derivs_g, order - m, m))
            term = term + (sign * binom) * left * right
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
    denom = float(np.max(np.abs(series)))
    if denom == 0.0:
        denom = 1.0
    return float(np.max(np.abs(product.values - series)) / denom)


def test_cross_validation_poly_gaussian():
    assert cross_validate_symbolic({(1, 0): 1.0, (0, 1): 0.5},
                                 {(0, 2): 1.0, (0, 0): -0.25}) < 1e-9
    assert cross_validate_symbolic({(2, 1): 1.0}, {(2, 1): 1.0}) < 1e-9


def test_cross_validation_asymmetric_pairs_to_roundoff():
    # neither factor is symmetric under x1 <-> x2, so a transposed
    # coefficient matrix in the series evaluator cannot pass
    for pf, pg in [({(1, 0): 1.0, (0, 1): 0.5}, {(0, 2): 1.0, (0, 0): -0.25}),
                   ({(2, 1): 1.0}, {(1, 1): 1.0, (0, 0): 0.5})]:
        assert cross_validate_symbolic(pf, pg) < 1e-12


@pytest.mark.parametrize("max_terms", [0, 1, 4, 24])
def test_cross_validation_matches_dict_reference(max_terms):
    # series_tol=0 runs every order up to max_terms, so a derivative chain
    # cut short by a too small matrix, or a wrong sign in the shift map,
    # changes the defect at orders the default tolerance never reaches
    pairs = [({(0, 0): 1.0}, {(0, 0): 1.0}),
             ({(1, 0): 1.0, (0, 1): 0.5}, {(0, 2): 1.0, (0, 0): -0.25}),
             ({(2, 1): 1.0}, {(1, 1): 1.0, (0, 0): 0.5}),
             ({(3, 0): 1.0, (1, 2): -0.5, (0, 1): 2.0},
              {(0, 3): 0.7, (2, 0): 1.0, (1, 1): 0.25})]
    for pf, pg in pairs:
        got = cross_validate_symbolic(pf, pg, n=64, max_terms=max_terms,
                                      series_tol=0.0)
        want = series_defect_reference(pf, pg, n=64, max_terms=max_terms,
                                       series_tol=0.0)
        assert abs(got - want) <= 1e-9 * abs(want) + 1e-14


@pytest.mark.parametrize("pf, pg, theta", [
    *((pf, pg, 0.02) for pf, pg in _SERIES_POOL),
    (*_SERIES_POOL[1], -0.02),
    ({}, {(1, 0): 1.0}, 0.02),
    ({(1, 0): 1.0, (0, 1): 0.0}, {(0, 2): 1.0, (0, 0): -0.25}, 0.02),
])
def test_cross_validation_matches_dict_reference_at_the_defaults(pf, pg, theta):
    # n = 128 and the default series_tol, so the series stops after two
    # quiet orders in a row; stopping earlier leaves a truncation error
    # far beyond the bound
    got = cross_validate_symbolic(pf, pg, theta=theta)
    want = series_defect_reference(pf, pg, theta=theta)
    assert abs(got - want) <= 1e-9 * abs(want) + 1e-14
    if not pf:
        assert got == want == 0.0


@pytest.mark.parametrize("bad", [{(-1, 0): 1.0}, {(0, -2): 1.0},
                                 {(1.0, 0): 1.0}, {(0, 2.5): 1.0},
                                 {"n": 0}, {"n": 31.5}, {"n": 32.0},
                                 {"max_terms": -1}, {"max_terms": 2.0},
                                 {"theta": math.nan}, {"theta": math.inf}])
def test_cross_validation_rejects_bad_exponents(bad):
    # a negative exponent would index the coefficient matrix from its end
    # and check another monomial, in matrices too small for its
    # derivatives.  Bad arguments are refused before any work: they once
    # raised IndexError or TypeError inside numpy, built a grid of ceil(n)
    # points, or (a NaN theta) passed the divergence guard and returned NaN
    if all(isinstance(key, str) for key in bad):
        with pytest.raises(ValueError, match="int >= |finite"):
            cross_validate_symbolic({(0, 0): 1.0}, {(0, 0): 1.0}, **bad)
        return
    for pf, pg in ((bad, {(0, 0): 1.0}), ({(0, 0): 1.0}, bad)):
        with pytest.raises(ValueError, match="non-negative ints"):
            cross_validate_symbolic(pf, pg)


def test_cross_validation_pure_window():
    # equal Gaussians: every odd order cancels, the even tail must not
    # be mistaken for convergence
    assert cross_validate_symbolic({(0, 0): 1.0}, {(0, 0): 1.0}) < 1e-9


def test_cross_validation_divergence_guard():
    # the series terms grow with |theta|, so the guard holds for either sign
    for theta in (0.5, -0.5):
        with pytest.raises(ValueError):
            cross_validate_symbolic({(0, 0): 1.0}, {(0, 0): 1.0},
                                    theta=theta)
    assert cross_validate_symbolic({(1, 0): 1.0, (0, 1): 0.5},
                                   {(0, 2): 1.0, (0, 0): -0.25},
                                   theta=-0.02) < SERIES_TOL


def _binary(q):
    """(m, s) with the binary rational q == m / 2**s."""
    q = Fraction(q)
    return q.numerator, q.denominator.bit_length() - 1


def _horner(coeffs, y, s):
    """2^(s K) sum_k coeffs[k] (y / 2^s)^k over the first axis, K = its
    length - 1, for integer (object) arrays: exact while y is."""
    acc = coeffs[-1]
    for k in range(1, len(coeffs)):
        acc = acc * y + coeffs[-1 - k] * (1 << s * k)
    return acc


def exact_window_series(n, theta, max_terms):
    """The Moyal series of the pure window pair, _SERIES_POOL[0], up to
    order max_terms on cross_validate_symbolic's n x n grid, summed
    exactly at each point and rounded once, times the float w(x1)^2 w(x2)^2.

    c, 1/sigma^2, theta and the grid points are read as the binary
    rationals their floats are.  With a = 1/sigma^2 and u = x - c, the
    window w = exp(-a u^2 / 2) has k-th derivative H_k w, where H_k(u) =
    sum_i h_k[i] a^((k+i)/2) u^i and h_{k+1}[i] = -h_k[i-1] - k h_{k-1}[i]
    (Hermite).  Order o of w(x1) w(x2) * w(x1) w(x2) is (i theta/2)^o / o!
    sum_m C(o, m) (-1)^(o-m) P_m(x1) P_m(x2) w(x1)^2 w(x2)^2, with P_m =
    H_m H_(o-m), a 1-d polynomial, so each term is a rank-one outer
    product.  Odd orders cancel between m and o - m.  At even o, P_m =
    a^(o/2) sum_i p_i y^i with y = a u^2 and p the even coefficients of
    the convolution of h_m and h_(o-m), so the sum is y1^T Z y2 over the
    powers of y, with Z_ij = sum_o (-1)^(o/2) (a theta/2)^o / o! sum_m
    (-1)^m C(o, m) p_i p_j.  With a theta / 2 = zn / 2^t, Z times
    top! 2^(t top) is an integer matrix (top the largest even order), and
    Horner's rule in y = Y / 2^s keeps the sum one; the final int / int
    division is the one rounding.
    """
    box = 2.0 * math.pi
    sigma = box / 16.0
    center = box / 2.0
    inv = 1.0 / (sigma * sigma)
    x = np.arange(n) * (box / n)
    w = np.exp(-0.5 * inv * (x - center) ** 2)
    h = [np.array([1], dtype=object), np.array([0, -1], dtype=object)]
    for k in range(1, max_terms):
        h.append(np.append(0, -h[k]) - k * np.append(h[k - 1], [0, 0]))
    top = max_terms - max_terms % 2
    zn, t = _binary(Fraction(inv) * Fraction(theta) / 2)  # a theta / 2
    z = np.zeros((top // 2 + 1,) * 2, dtype=object)
    for o in range(0, top + 1, 2):
        gamma = ((-1) ** (o // 2) * zn ** o
                 * (math.factorial(top) // math.factorial(o)) << t * (top - o))
        for m in range(o + 1):
            p = np.convolve(h[m], h[o - m])[::2]
            z[:len(p), :len(p)] += ((-1) ** m * math.comb(o, m) * gamma
                                    * np.outer(p, p))
    ys = [_binary(Fraction(inv) * (Fraction(xj) - Fraction(center)) ** 2)
          for xj in x]
    s = max(e for _, e in ys)
    y = np.array([m << (s - e) for m, e in ys], dtype=object)
    rows = _horner(z.T[:, :, None], y, s)  # [i, j2]: sum_j z_ij y2^j
    total = _horner(rows[:, None, :], y[:, None], s)  # [j1, j2]
    den = math.factorial(top) << t * top + s * top
    return (total / den).astype(float) * np.outer(w * w, w * w)


@pytest.mark.parametrize("theta", [0.05, 0.07, 0.077])
@pytest.mark.parametrize("max_terms", [24, 40])
def test_cross_validation_matches_the_exact_series_near_the_guard(
        theta, max_terms, monkeypatch):
    # the float series_defect_reference loses the high orders to roundoff
    # here (1.006 at theta = 0.07 and max_terms = 40); the exact series
    # does not.  cross_validate_symbolic's float series stops once two
    # orders in a row fall below series_tol = 1e-12 of its leading order,
    # and the orders shrink by about theta / (2 sigma^2) <= 1/4 each, so it
    # stays within series_tol / 3 of the exact sum in sup norm, roundoff
    # included; the two relative defects then differ by less than 1e-12
    products = []

    def capturing(f, g, theta):
        products.append(grid_star(f, g, theta))
        return products[-1]

    monkeypatch.setattr(nckit.grid, "grid_star", capturing)
    got = cross_validate_symbolic(*_SERIES_POOL[0], n=32, theta=theta,
                                  max_terms=max_terms)
    series = exact_window_series(32, theta, max_terms)
    (product,) = products
    exact = np.max(np.abs(product.values - series)) / np.max(np.abs(series))
    assert abs(got - exact) <= 1e-12
    assert exact < SERIES_TOL


def test_binary_round_trip(tmp_path):
    f = band_limited_field(16, 3.5, 4, seed=99)
    path = tmp_path / "field.ncg"
    save_grid(path, f, 0.625)
    back, theta = load_grid(path)
    assert theta == 0.625
    assert back.box_length == 3.5
    assert back.values.tobytes() == f.values.tobytes()


def test_binary_header_layout(tmp_path):
    f = GridField(np.zeros((4, 4)), 2.0)
    path = tmp_path / "h.ncg"
    save_grid(path, f, 1.5)
    raw = path.read_bytes()
    assert len(raw) == 32 + 4 * 4 * 16
    assert raw[:32] == struct.pack("<8sI4xdd", MAGIC, 4, 2.0, 1.5)
    assert raw[:8] == b"NCGRID01"


def test_binary_load_errors(tmp_path):
    bad = tmp_path / "bad.ncg"
    bad.write_bytes(b"NOPE")
    with pytest.raises(ValueError):
        load_grid(bad)
    bad.write_bytes(struct.pack("<8sI4xdd", b"WRONGMAG", 4, 1.0, 0.0))
    with pytest.raises(ValueError):
        load_grid(bad)
    bad.write_bytes(struct.pack("<8sI4xdd", MAGIC, 4, 1.0, 0.0) + b"\0" * 10)
    with pytest.raises(ValueError):
        load_grid(bad)


def test_binary_load_reads_no_more_than_the_body(tmp_path):
    # a 64 MiB sparse tail, and a header whose N would need 16 TiB, are
    # rejected from the file size alone; the short-body message names both
    # sizes
    path = tmp_path / "tail.ncg"
    save_grid(path, band_limited_field(4, 1.0, 1, seed=3), 0.5)
    with open(path, "r+b") as fh:
        fh.truncate(32 + 256 + (64 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"has {256 + (64 << 20)} bytes"):
            load_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    path.write_bytes(struct.pack("<8sI4xdd", MAGIC, 1 << 20, 1.0, 0.0)
                     + b"\0" * 256)
    with pytest.raises(ValueError, match="body has 256 bytes, expected"):
        load_grid(path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_binary_load_from_a_pipe(tmp_path):
    # a stream has no size to check first: the samples are read in place
    # and one byte more tells a long body
    path = tmp_path / "f.ncg"
    f = band_limited_field(4, 2.0, 1, seed=8)
    save_grid(path, f, 0.25)
    data = path.read_bytes()
    for tail, err in ((b"", None), (b"x", "more than 256"),
                      (-56, "has 200 bytes")):
        r, w = os.pipe()
        os.write(w, data[:tail] if isinstance(tail, int) else data + tail)
        os.close(w)
        try:
            if err is None:
                back, theta = load_grid(f"/dev/fd/{r}")
                assert (theta, back.values.tobytes()) == (0.25,
                                                         f.values.tobytes())
            else:
                with pytest.raises(ValueError, match=err):
                    load_grid(f"/dev/fd/{r}")
        finally:
            os.close(r)


def test_binary_load_rejects_bad_header_values(tmp_path):
    bad = tmp_path / "bad.ncg"
    for n, box, theta in [(4, 1.0, math.nan), (4, 1.0, -math.inf),
                          (4, math.inf, 0.5), (4, -1.0, 0.5), (0, 1.0, 0.5)]:
        bad.write_bytes(struct.pack("<8sI4xdd", MAGIC, n, box, theta)
                        + b"\0" * (16 * n * n))
        with pytest.raises(ValueError):
            load_grid(bad)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_loaders_reject_non_finite_samples(tmp_path, bad):
    f = band_limited_field(4, 1.0, 1, seed=6)
    values = f.values.copy()
    values[2, 1] = complex(0.5, float(bad))
    spoilt = f.with_values(values)
    save_grid(tmp_path / "f.ncg", spoilt, 0.25)
    with pytest.raises(ValueError, match="finite"):
        load_grid(tmp_path / "f.ncg")


def test_phase_law_production_size():
    import time
    t0 = time.time()
    defect = phase_law_defect(256, 2 * np.pi, 0.5, (3, -2), (5, 7))
    took = time.time() - t0
    assert defect < 1e-8
    assert took < 30.0
