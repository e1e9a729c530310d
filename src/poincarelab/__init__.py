"""poincarelab: a numerical laboratory for weighted oscillation
inequalities on dyadic grids.

Modules:
  grid           dyadic cube trees and piecewise-constant grid functions
  weights        weight/measure representations and class constants
  operators      maximal operators, fractional integrals, norms, majorants
  functionals    the cube functional a(Q) and D_p / SD_p^s condition checking
  decomposition  stopping-time decomposition and polynomial projections
  inequalities   exponent formulas, inequality catalog, sharpness sweep
  cli            command-line entry point
"""

from .grid import (CubeIndex, GridFunction, RootBox, discrete_gradient,
                   sample)
from .weights import (GridWeight, PowerWeight, WeightConstantsReport,
                      ainf_fujii_wilson, ap1_constant, ap_constant,
                      constants_report, rh_exponent, rh_exponent_and_check,
                      rhinf_constant, two_weight_ap)
from .operators import fractional_integral, rubio_de_francia
from .functionals import DpReport, FractionalFunctional, sdp_check
from .decomposition import (CZDecomposition, PolyBasis, cz_decompose,
                            orthonormal_basis, oscillation, project)
from .inequalities import (CheckResult, SharpnessSweep, check_inequality,
                           poincare_sides, sharpness_sweep, sobolev_exponent)

__version__ = "0.1.0"
