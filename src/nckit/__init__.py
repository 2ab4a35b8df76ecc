"""nckit: exact verification toolkit for time-dependent spatial noncommutativity.

The symbolic layer works over exact complex rationals so that algebraic
identities (associativity, derivation defects, gauge covariance) are checked
with structural equality, never tolerances.  A numpy grid oracle provides the
one numerical cross-check of the star product's integral properties.
"""

from .rationals import CRat
from .poly import Poly, add, conj, mul, partial, truncate_eps
from .star import (StarContext, ThetaProfile, dt_leibniz_correction,
                   dt_leibniz_defect, spatial_derivation_defect,
                   star_commutator, star_conj_defect, star_exp)
from .forms import (DifferentialForm, d, d_leibniz_defect, form_conj,
                    form_mul, left_mul)
from .gauge import (FieldStrength, GaugePotential, action_density,
                    complete_time_component, covariance_defect,
                    field_strength, gauge_transform_potential,
                    invariance_witness, reality_defect,
                    time_component_defect)
from .scalar import (MINKOWSKI, kg_density, kg_density_via_metric,
                     kg_operator, linear_phase, metric_pairing,
                     null_quadruples, phase_subalgebra_defects)
from .planewave import (ActionReport, PlaneWaveSpec, PwPoly, build_ansatz,
                        coupling_scalar, effective_action, harmonic_spectrum,
                        is_theta_polarised)
from .grid import (GridField, band_limited_field, cross_validate_symbolic,
                   grid_cyclicity_defect, grid_star, grid_trace_defect,
                   load_grid, phase_law_defect, plane_wave, save_grid)
from .expr import (GradingError, ParseError, evaluate, parse_expression,
                   reduce_expression, value_to_expr)
from .suites import SUITE_NAMES, SuiteReport, run_suite

__all__ = [
    "CRat",
    "Poly",
    "add",
    "mul",
    "partial",
    "conj",
    "truncate_eps",
    "ThetaProfile",
    "StarContext",
    "star_commutator",
    "star_conj_defect",
    "star_exp",
    "dt_leibniz_defect",
    "dt_leibniz_correction",
    "spatial_derivation_defect",
    "DifferentialForm",
    "d",
    "d_leibniz_defect",
    "form_conj",
    "form_mul",
    "left_mul",
    "GaugePotential",
    "FieldStrength",
    "field_strength",
    "reality_defect",
    "time_component_defect",
    "complete_time_component",
    "gauge_transform_potential",
    "covariance_defect",
    "action_density",
    "invariance_witness",
    "MINKOWSKI",
    "null_quadruples",
    "linear_phase",
    "kg_operator",
    "kg_density",
    "metric_pairing",
    "kg_density_via_metric",
    "phase_subalgebra_defects",
    "PwPoly",
    "PlaneWaveSpec",
    "ActionReport",
    "build_ansatz",
    "coupling_scalar",
    "is_theta_polarised",
    "effective_action",
    "harmonic_spectrum",
    "GridField",
    "plane_wave",
    "band_limited_field",
    "grid_star",
    "phase_law_defect",
    "grid_trace_defect",
    "grid_cyclicity_defect",
    "cross_validate_symbolic",
    "save_grid",
    "load_grid",
    "ParseError",
    "GradingError",
    "parse_expression",
    "evaluate",
    "reduce_expression",
    "value_to_expr",
    "SUITE_NAMES",
    "SuiteReport",
    "run_suite",
]

__version__ = "0.1.0"
