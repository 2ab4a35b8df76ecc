"""Numerical cross-check of the deformed product on a periodic grid.

The product of two plane-wave modes is the summed mode times a pure phase,
and that law is implemented exactly (to roundoff) by an FFT kernel.  The
demo verifies the phase law, the trace property of the integral, and the
agreement between the grid product and the truncated derivative series of
the symbolic layer.

Run:  python3 demos/06_grid_oracle.py
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from nckit import (band_limited_field, cross_validate_symbolic,
                   grid_cyclicity_defect, grid_star, grid_trace_defect,
                   load_grid, phase_law_defect, save_grid)

BOX = 2.0 * math.pi

# Two modes, one product, one phase.  The defect is the sup-norm distance
# between the grid product and the analytically twisted sum mode.
defect = phase_law_defect(64, BOX, 0.5, (3, -2), (5, 7))
print(f"phase law defect at 64^2, theta=0.5: {defect:.3e}")

# Larger grid, a deformation of order one, still machine precision.
defect = phase_law_defect(256, BOX, 1.3, (11, -9), (-17, 23))
print(f"phase law defect at 256^2, theta=1.3: {defect:.3e}")

# The integral of a product equals the integral of the pointwise product
# when one factor is band-limited to a quarter of the grid, and it is
# insensitive to the order of the factors.
f = band_limited_field(128, BOX, 20, seed=7)
g = band_limited_field(128, BOX, 20, seed=8)
print()
print(f"trace defect: {grid_trace_defect(f, g, 0.7):.3e}")
print(f"cyclicity defect: {grid_cyclicity_defect(f, g, 0.7):.3e}")

# The product itself is far from pointwise even though the integrals agree.
h = grid_star(f, g, 0.7)
pointwise = f.values * g.values
gap = np.abs(h.values - pointwise).max() / np.abs(h.values).max()
print(f"pointwise vs deformed relative sup distance: {gap:.3f}")

# Cross-validation against the symbolic derivative series: polynomials
# under a shared Gaussian window, deformed product computed both ways.
rel = cross_validate_symbolic({(1, 0): 1.0, (0, 1): 0.5},
                              {(0, 2): 1.0, (0, 0): -0.25})
print()
print(f"grid vs derivative series, relative sup error: {rel:.3e}")

# Round-trip through the binary container.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "field.ncg"
    save_grid(path, f, theta=0.7)
    back, theta = load_grid(path)
    print()
    print(f"binary round trip exact: "
          f"{bool((back.values == f.values).all())}, theta={theta}")
