"""Differentially private model selection for bounded linear regression.

Fit every candidate model under an l1 constraint, score it, and release
only a noisy winner.  See the README for the bounds contract the caller
must uphold and for guidance on choosing the radius and penalty.
"""

from .data import (
    Dataset,
    ModelMask,
    SufficientStats,
    load_csv,
    standardize,
    sufficient_stats,
)
from .enumeration import CandidateSet, all_subsets, from_explicit
from .errors import ConfigError, DataError, DpmsError, SolverError
from .mechanisms import (
    PrivacyBudget,
    RngStream,
    ScoredCandidate,
    exponential_mechanism,
    noisy_argmin,
    sample_laplace,
)
from .selection import (
    SelectionConfig,
    SelectionReport,
    pcls_select,
    pcpl_select,
)
from .simulate import (
    BUILTIN_MODELS,
    SweepGrid,
    SweepResult,
    SweepRow,
    SyntheticSpec,
    default_phi_grid,
    generate,
    run_sweep,
)
from .solver import (
    FitResult,
    Fits,
    fit_masks,
    profile_neg2_loglik,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BUILTIN_MODELS",
    "CandidateSet",
    "ConfigError",
    "DataError",
    "Dataset",
    "DpmsError",
    "FitResult",
    "Fits",
    "ModelMask",
    "PrivacyBudget",
    "RngStream",
    "ScoredCandidate",
    "SelectionConfig",
    "SelectionReport",
    "SolverError",
    "SufficientStats",
    "SweepGrid",
    "SweepResult",
    "SweepRow",
    "SyntheticSpec",
    "all_subsets",
    "default_phi_grid",
    "exponential_mechanism",
    "fit_masks",
    "from_explicit",
    "generate",
    "load_csv",
    "noisy_argmin",
    "pcls_select",
    "pcpl_select",
    "profile_neg2_loglik",
    "run_sweep",
    "sample_laplace",
    "standardize",
    "sufficient_stats",
]
