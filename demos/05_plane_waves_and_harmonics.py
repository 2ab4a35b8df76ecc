"""Effective action of a polarised plane wave on the deformed background.

A transverse wave with lightlike wave covector acquires, besides the usual
quadratic action, a cubic self-interaction proportional to one scalar
coupling.  The demo prints the verified coefficient report for a generic
wave, then a deformation-blind wave whose cubic term cancels exactly, and
finally the harmonic content of the interaction for a cosine profile.

Run:  python3 demos/05_plane_waves_and_harmonics.py
"""

from fractions import Fraction

from nckit import (PlaneWaveSpec, StarContext, ThetaProfile, coupling_scalar,
                   effective_action, harmonic_spectrum, is_theta_polarised,
                   value_to_expr)
from nckit.poly import t

theta = ThetaProfile({(1, 2): t * t, (2, 3): t})
ctx = StarContext(theta)

spec = PlaneWaveSpec(omega=3, k=(1, 2, 2), p=(1, 2, 0, 1))
print(f"wave covector null: {spec.is_null()}")

report = effective_action(spec, ctx)
print()
print("coefficient report (generic wave):")
print(f"  quadratic matches closed form: {report.quad_matches_reference}")
print(f"  quadratic value: {report.quad_value}")
print(f"  cubic relative sign: {report.cubic_relative_sign}")
print(f"  contracted cubic coupling: "
      f"{value_to_expr(report.cubic_contracted)}")
for diag in report.diagnostics:
    print(f"  note [{diag['name']}]: {diag['detail']}")

# A wave whose spatial polarization is parallel to the spatial wave vector
# inside the only active deformation plane sees no cubic term at all.
blind = PlaneWaveSpec(omega=2, k=(1, 2, 2), p=(0, 3, 6, 1))
ctx12 = StarContext(ThetaProfile({(1, 2): t}))
print()
print("deformation-blind wave (p parallel to k in the active plane):")
print(f"  polarised: {is_theta_polarised(blind, ctx12)}")
print(f"  coupling scalar: {value_to_expr(coupling_scalar(blind, ctx12))}")
print(f"  contracted cubic: "
      f"{value_to_expr(effective_action(blind, ctx12).cubic_contracted)}")

# For a cosine profile the cubic interaction integrates against cos and
# cos(3 phase) only, with universal rational weights.
spectrum = harmonic_spectrum(spec, report)
print()
print("harmonic spectrum of the cubic term (cos profile):")
for n in sorted(spectrum):
    print(f"  harmonic {n}: {spectrum[n]}")
assert spectrum == {1: Fraction(1, 4), 3: Fraction(-1, 4)}
