"""Automatic differentiation of hybrid block-diagram models.

The package differentiates dynamical models given as block diagrams
both graphically (diagram-to-diagram transformation) and analytically
(sensitivity ODEs, implicit-function theorem, truncated Taylor series),
simulates the augmented systems through events, delays and
discontinuities, and cross-validates every derivative against a
finite-difference oracle.
"""

from .errors import (
    DelayOrderExceeded,
    DelayUnderflow,
    DivisionByZeroConstantTerm,
    DomainError,
    EvalDomainError,
    EventStorm,
    FlattenError,
    HybridAdError,
    ImpactSensitivityWarning,
    MaxIterExceeded,
    NonDifferentiablePoint,
    NonTransversal,
    OrderExceeded,
    SchemaError,
    SensitivityAcrossEvent,
    ShapeMismatch,
    SingularJacobian,
    SingularMetric,
    UnknownParameter,
    ValidationError,
)
from .jet import Jet, jet_apply, jet_arith, jet_const, jet_derivative, jet_var
from .ops import ABS, ATAN, COS, EXP, LOG, SIN, SQRT, TAN, ElementaryFn, Pow
from .paramexpr import ParamExpr, parse_expr
from .tape import (
    Tape,
    TapeBuilder,
    audit_branches,
    compile_tape,
    dump,
    forward_gradient,
    hessian,
    jvp_tape,
    op_count,
    parse_dump,
    reverse_gradient,
    tape_eval,
    tape_jet_eval,
    taylor_patch,
)
from .diagram import Block, Diagram, Link, Output, PortRef, make_block, parse_diagram, \
    diagram_to_json, validate
from .agdm import agdm_diff, d_output_name, prune_zero, ss_augment, tf_param_derivative
from .flatten import flatten
from .sim import (
    DelaySlot,
    EventSpec,
    ImpactSurface,
    OdeModel,
    SimConfig,
    Trajectory,
    dde_extend,
    impact_event,
    impact_update,
    integrate,
    sensitivity_extend,
    smooth_heaviside,
)
from .solvers import (
    ImplicitSystem,
    NewtonResult,
    implicit_second_derivative,
    implicit_sensitivity,
    newton,
    newton_jet,
    warm_start_probe,
)
from .analysis import (
    CompareReport,
    FdScheme,
    IdentifiabilityReport,
    compare_report,
    finite_difference,
    identifiability_test,
    sequence_probe,
)

__version__ = "0.1.0"
