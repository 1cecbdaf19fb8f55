"""Exact Jacobi sequences of multivariate moment functionals.

The pipeline: a moment functional on R^d (moments module) induces a
graded orthogonal decomposition of the polynomials (orthodecomp), whose
multiplication operators split into creation/preservation/annihilation
blocks (cap_operators); pushing those through the symmetric tensor
chains yields the Jacobi sequence pair (omega, alpha) per level
(jacobi_sequences).  Everything is exact rational arithmetic.  The
closed_forms module carries the explicit diagonal answers for the seven
classical weight families and a verification harness; cli is the
command-line front end.
"""

from .errors import (
    DimensionMismatchError,
    Error,
    InputError,
    InsufficientDepthError,
    InsufficientMomentsError,
    InternalConsistencyError,
    InvalidDimensionError,
    InvalidIndexError,
    NoMassFactorError,
    NotAStateError,
    RepresentationError,
    SingularParameterError,
    UnsupportedParameterError,
)
from .multiindex import ClassBasis, canonical_key, class_count, degree, enumerate_classes
from .polyring import Polynomial, monomial_basis
from .symbolic import GammaProduct
from .moments import (
    AtomicFunctional,
    BetaFunctional,
    GammaFunctional,
    GaussianFunctional,
    MomentFunctional,
    TableFunctional,
    atomic_functional,
    beta_functional,
    functional_from_json,
    gamma_functional,
    gaussian_functional,
    table_functional,
)
from .orthodecomp import Decomposition, Level, decompose
from .cap_operators import (
    AdjointReport,
    CAPSystem,
    QuantumDecompositionReport,
    build,
    verify_adjoints,
    verify_quantum_decomposition,
)
from .jacobi_sequences import (
    AtomDetection,
    JacobiSequencePair,
    compute,
    compute_from_functional,
    detect_atoms,
    rank_profile,
    reconstruct_moment_table,
    reconstruct_moments,
)
from .closed_forms import (
    FAMILIES,
    ClosedFormEntry,
    FamilyReport,
    FamilySpec,
    closed_form_alpha,
    closed_form_omega,
    creation_power,
    family_norm_squared,
    family_polynomial,
    family_spec,
    master_omega,
    stated_omega,
    verify_family,
)

__all__ = [
    "AdjointReport",
    "AtomDetection",
    "AtomicFunctional",
    "BetaFunctional",
    "CAPSystem",
    "ClassBasis",
    "ClosedFormEntry",
    "Decomposition",
    "DimensionMismatchError",
    "Error",
    "FAMILIES",
    "FamilyReport",
    "FamilySpec",
    "GammaFunctional",
    "GammaProduct",
    "GaussianFunctional",
    "InputError",
    "InsufficientDepthError",
    "InsufficientMomentsError",
    "InternalConsistencyError",
    "InvalidDimensionError",
    "InvalidIndexError",
    "JacobiSequencePair",
    "Level",
    "MomentFunctional",
    "NoMassFactorError",
    "NotAStateError",
    "Polynomial",
    "QuantumDecompositionReport",
    "RepresentationError",
    "SingularParameterError",
    "TableFunctional",
    "UnsupportedParameterError",
    "atomic_functional",
    "beta_functional",
    "build",
    "canonical_key",
    "class_count",
    "closed_form_alpha",
    "closed_form_omega",
    "compute",
    "compute_from_functional",
    "creation_power",
    "decompose",
    "degree",
    "detect_atoms",
    "enumerate_classes",
    "family_norm_squared",
    "family_polynomial",
    "family_spec",
    "functional_from_json",
    "gamma_functional",
    "gaussian_functional",
    "master_omega",
    "monomial_basis",
    "rank_profile",
    "reconstruct_moment_table",
    "reconstruct_moments",
    "stated_omega",
    "table_functional",
    "verify_adjoints",
    "verify_family",
    "verify_quantum_decomposition",
]

__version__ = "0.1.0"
