"""Grid star product: phase law, trace property, series cross-check, I/O."""

import cmath
import math
import struct

import numpy as np
import pytest

from nckit.grid import (
    MAGIC,
    GridField,
    _cyclic_window,
    _live_rows,
    band_limited_field,
    cross_validate_symbolic,
    grid_cyclicity_defect,
    grid_star,
    grid_trace_defect,
    load_grid,
    load_grid_csv,
    phase_law_defect,
    plane_wave,
    save_grid,
    save_grid_csv,
)


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


def test_plane_wave_values_and_integral():
    n, box = 16, 2 * np.pi
    w = plane_wave(n, box, 2, -3)
    x1, x2 = w.meshgrid()
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


@pytest.mark.parametrize("n", [5, 9, 12, 64])
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
            assert len(_live_rows(spectrum(spoilt))) == n
            pairs = ((spoilt, f), (f, spoilt), (spoilt, g), (g, spoilt))
            for lhs, rhs in pairs:
                got = grid_star(lhs, rhs, 0.37).values
                want = star_dense_reference(lhs, rhs, 0.37).values
                assert np.isnan(want).any()
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


def test_cross_validation_pure_window():
    # equal Gaussians: every odd order cancels, the even tail must not
    # be mistaken for convergence
    assert cross_validate_symbolic({(0, 0): 1.0}, {(0, 0): 1.0}) < 1e-9


def test_cross_validation_divergence_guard():
    with pytest.raises(ValueError):
        cross_validate_symbolic({(0, 0): 1.0}, {(0, 0): 1.0},
                              theta=0.5, sigma=0.3)


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


def test_csv_round_trip(tmp_path):
    f = band_limited_field(8, 1.25, 2, seed=5)
    path = tmp_path / "field.csv"
    save_grid_csv(path, f, -0.75)
    back, theta = load_grid_csv(path)
    assert theta == -0.75
    assert back.box_length == 1.25
    assert np.array_equal(back.values, f.values)
    head = path.read_text().splitlines()[0]
    assert head.startswith("8,")
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a\n")
    with pytest.raises(ValueError):
        load_grid_csv(bad)


def test_binary_load_rejects_bad_header_values(tmp_path):
    bad = tmp_path / "bad.ncg"
    for n, box, theta in [(4, 1.0, math.nan), (4, 1.0, -math.inf),
                          (4, math.inf, 0.5), (4, -1.0, 0.5), (0, 1.0, 0.5)]:
        bad.write_bytes(struct.pack("<8sI4xdd", MAGIC, n, box, theta)
                        + b"\0" * (16 * n * n))
        with pytest.raises(ValueError):
            load_grid(bad)


def test_csv_load_checks_header_and_rows_before_allocating(tmp_path):
    bad = tmp_path / "bad.csv"
    for text in ["100000000,1.0,0.5\n0,0\n",
                 "100000,1.0,0.5\n" + "0,0\n" * 100000,
                 "0,1.0,0.5\n", "-3,1.0,0.5\n",
                 "2,nan,0.5\n0,0,0,0\n0,0,0,0\n",
                 "2,1.0,inf\n0,0,0,0\n0,0,0,0\n",
                 "2,1.0,0.5\n0,0,0,0\n",
                 "2,1.0,0.5\n0,0,0,0\n0,0,0,0\n0,0,0,0\n",
                 "2,1.0,0.5\n0,0,0,0\n0,0\n"]:
        bad.write_text(text)
        with pytest.raises(ValueError):
            load_grid_csv(bad)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_loaders_reject_non_finite_samples(tmp_path, bad):
    f = band_limited_field(4, 1.0, 1, seed=6)
    values = f.values.copy()
    values[2, 1] = complex(0.5, float(bad))
    spoilt = f.with_values(values)
    save_grid_csv(tmp_path / "f.csv", spoilt, 0.25)
    save_grid(tmp_path / "f.ncg", spoilt, 0.25)
    with pytest.raises(ValueError, match="finite"):
        load_grid_csv(tmp_path / "f.csv")
    with pytest.raises(ValueError, match="finite"):
        load_grid(tmp_path / "f.ncg")


def test_phase_law_production_size():
    import time
    t0 = time.time()
    defect = phase_law_defect(256, 2 * np.pi, 0.5, (3, -2), (5, 7))
    took = time.time() - t0
    assert defect < 1e-8
    assert took < 30.0
