"""Exact period spaces of bound quiver representations.

The package computes, entirely in exact arithmetic, the formal period
space attached to a finite-dimensional representation of a bound quiver
algebra: its dimension, its relation subspace, certified lower bounds
obtained from explicit exact sequences, certificates or refutations of
principality, and evaluations at comparison points with number field
values.

Layers, from the bottom up:

- exactlin: matrices, canonical subspaces and number fields over Q
- quivalg: bound quiver algebras, modules, maps, and submodules with
  their two fixpoints: the submodule spun from some vectors and the
  largest submodule inside given vertex spaces
- periods: period spaces, relation realization, depth filtrations,
  evaluation at comparison points
- yoga: admissible exact sequences, universal lifts and extensions as
  those fixpoints on the middle module, saturation certificates,
  principality verdicts
- onemotive: dimension formulas and synthesized matrix models for the
  weight-graded instances
- zoo: the bundled corpus of small algebras and modules
- cli: command line entry points over JSON descriptions
"""

from .exactlin import (
    DimensionMismatch,
    DivisionByZero,
    FieldEmbedding,
    FieldMismatch,
    Matrix,
    NumberField,
    ReduciblePolynomial,
    Subspace,
)
from .quivalg import (
    BoundQuiverAlgebra,
    FdModule,
    ModuleMap,
    NotAdmissible,
    NotAModuleMap,
    NotASubmodule,
    NotFiniteDimensional,
    StructureAlgebra,
    SubmoduleHandle,
    build_algebra,
    direct_sum,
    end_algebra,
    hom_space,
    module_iso,
    module_power,
    projective_module,
    simple_module,
)
from .periods import (
    ComparisonPoint,
    DepthResult,
    EvalReport,
    PeriodSpace,
    Realization,
    RealizationResult,
    depth_space,
    endo_quotient,
    eval_and_conjecture,
    period_space,
    realize_relation,
    verify_realization,
)
from .yoga import (
    AdmissibleSequence,
    HypothesisFailed,
    OrthogonalityFailure,
    PrincipalityVerdict,
    SupportViolation,
    WeightPartition,
    bounded_lift_search,
    certify_principal,
    replay_derivation,
    saturated_check,
    slice_by_weight,
    universal_extension,
    universal_lift,
)
from .onemotive import (
    ModelReport,
    RangeError,
    SaturatedInput,
    baker_dims,
    b_module,
    graded_period_dims,
    rational_input,
    saturated_input,
    synthesize_model,
)
from .serialize import ParseError, ValidationError

__version__ = "0.1.0"
