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
    PeriodicityError,
    QuantizationError,
    TorusGaugeError,
)
from .expr import parse_expr, print_expr
from .forms import (
    AffineSimplex,
    BilinearCell,
    Form,
    PLPath,
    integrate_cell,
    integrate_path,
    integrate_simplex,
)
from .polytrig import (
    AffineMap,
    PolyTrig,
    U1Function,
    constant_mod,
    constant_mod_free,
    pullback_fn,
    translate,
)
from .scalar import Scalar, cos2pi, sin2pi

__all__ = [
    "AffineMap",
    "AffineSimplex",
    "BilinearCell",
    "DegreeError",
    "DimensionError",
    "ExprSyntaxError",
    "Form",
    "FrequencyError",
    "NonRealExpressionError",
    "PLPath",
    "PathError",
    "PeriodicityError",
    "PolyTrig",
    "QuantizationError",
    "Scalar",
    "TorusGaugeError",
    "U1Function",
    "constant_mod",
    "constant_mod_free",
    "cos2pi",
    "integrate_cell",
    "integrate_path",
    "integrate_simplex",
    "parse_expr",
    "print_expr",
    "pullback_fn",
    "sin2pi",
    "translate",
]

__version__ = "0.1.0"
