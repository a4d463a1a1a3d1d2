"""Cell-complex models of planar and higher point configurations, the integer
obstruction deciding the symmetric sphere-map question, and equal-area /
equal-perimeter power-diagram partitions of convex polygons."""

from .labels import (CellLabel, Configuration, InvalidLabelError, cell_dimension,
                     fox_neuwirth_label, group_action, separator_min,
                     stratum_dimension, vertex_coordinates)
from .poset import (BudgetExceededError, DEFAULT_BUDGET, FacePoset,
                    KIND_COMPLEMENT, KIND_STRATIFICATION, charge, enumerate_cells,
                    enumerate_labels, euler_characteristic, f_vector,
                    is_face_complement, is_face_stratification, resolve_budget,
                    validate_covers)
from .obstruction import (ObstructionReport, RidgeOrbitCochain, binomial_gcd,
                          binomial_valuation, coboundary_witness,
                          expected_incidence_row, obstruction_report, prime_power,
                          verify_coboundary_on_complex)
from .geometry import AREA_EPS, MERGE_EPS, ConvexPolygon
from .powerdiagram import PowerDiagram, Sites, perimeter_spread, power_diagram
from .weights import WeightSolveError, area_jacobian, solve_equal_measure_weights
from .equalize import EqualizeResult, equalize_perimeters
from .svgout import render_power_diagram_svg

__version__ = "0.1.0"
