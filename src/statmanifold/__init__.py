"""Numerical diagnostics for statistical-manifold geometry.

A statistical structure is entered as a Riemannian metric and a totally
symmetric cubic form on a chart box; the library evaluates the induced dual
connections, curvature tensors, Tchebychev field and operator, tension and
statistical bi-tension fields of the identity maps, and verifies the
structure identities and curvature conditions numerically, with a
finite-difference oracle for every jet-differentiated quantity.
"""

from .catalog import (
    BuiltinInstance,
    builtin_names,
    centroaffine_power_surface,
    flat_constant_cubic,
    get_builtin,
    hyperbolic_ball,
    random_polynomial_cubic,
    random_symmetric_constants,
    sphere_stereographic,
)
from .expr import (
    EvalDomainError,
    ExprError,
    ExprSyntaxError,
    NonConstantExponentError,
    UnknownIdentifierError,
    eval_jet,
    fd_jet,
    parse_expression,
    to_source,
)
from .geometry import DOWN, UP, GeometryFrame, MetricNotPositiveDefinite
from .jets import Jet, JetDomainError, jet_space
from .manifold import CompiledManifold, ManifoldSpec, SampleSpec, SpecValidationError
from .maps import IdentityMapReport
from .pipeline import (
    CrosscheckReport,
    DiagnosticsReport,
    crosscheck,
    evaluate_spec,
    run_diagnostics,
)
from .statistical import CubicFormAsymmetry, StatisticalFrame, cubic_from_difference

__version__ = "0.1.0"

__all__ = [
    "BuiltinInstance",
    "CompiledManifold",
    "CrosscheckReport",
    "CubicFormAsymmetry",
    "DiagnosticsReport",
    "DOWN",
    "EvalDomainError",
    "ExprError",
    "ExprSyntaxError",
    "GeometryFrame",
    "IdentityMapReport",
    "Jet",
    "JetDomainError",
    "ManifoldSpec",
    "MetricNotPositiveDefinite",
    "NonConstantExponentError",
    "SampleSpec",
    "SpecValidationError",
    "StatisticalFrame",
    "UnknownIdentifierError",
    "UP",
    "builtin_names",
    "centroaffine_power_surface",
    "crosscheck",
    "cubic_from_difference",
    "eval_jet",
    "evaluate_spec",
    "fd_jet",
    "flat_constant_cubic",
    "get_builtin",
    "hyperbolic_ball",
    "jet_space",
    "parse_expression",
    "random_polynomial_cubic",
    "random_symmetric_constants",
    "run_diagnostics",
    "sphere_stereographic",
    "to_source",
]
