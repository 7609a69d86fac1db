"""Exact verification of U(1) cocycle data on tori.

Line bundles and gerbes on T^d are presented by Z^d-equivariant cocycle data
on R^d; sections, twisting phases, associators and their defining identities
are computed by exact integration of connection forms over simplices and
verified at the level of exponents mod 2*pi.
"""

from .errors import (
    DegreeError,
    DimensionError,
    ExprSyntaxError,
    FrequencyError,
    NonRealExpressionError,
    PathError,
    QuantizationError,
    TorusGaugeError,
)
from .expr import parse_expr, print_expr
from .forms import (
    AffineSimplex,
    Form,
    PLPath,
    integrate_chain,
    integrate_path,
    integrate_simplex,
)
from .polytrig import (
    PolyTrig,
    constant_mod_free,
    shifted_sum,
    translate,
)
from .scalar import Scalar, cos2pi, sin2pi

__all__ = [
    "AffineSimplex",
    "DegreeError",
    "DimensionError",
    "ExprSyntaxError",
    "Form",
    "FrequencyError",
    "NonRealExpressionError",
    "PLPath",
    "PathError",
    "PolyTrig",
    "QuantizationError",
    "Scalar",
    "TorusGaugeError",
    "constant_mod_free",
    "cos2pi",
    "integrate_chain",
    "integrate_path",
    "integrate_simplex",
    "parse_expr",
    "print_expr",
    "shifted_sum",
    "sin2pi",
    "translate",
]

__version__ = "0.1.0"
