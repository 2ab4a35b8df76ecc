"""Grid star product: phase law, trace property, series cross-check, I/O."""

import cmath
import math
import struct

import numpy as np
import pytest

from nckit.grid import (
    MAGIC,
    GridField,
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


def test_phase_law_production_size():
    import time
    t0 = time.time()
    defect = phase_law_defect(256, 2 * np.pi, 0.5, (3, -2), (5, 7))
    took = time.time() - t0
    assert defect < 1e-8
    assert took < 30.0
