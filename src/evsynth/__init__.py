"""Evidence synthesis for order-constrained hypotheses across studies.

The package parses inequality/equality constraint strings on regression
coefficients, fits Gaussian, logistic, and probit models, scores each
hypothesis with an adjusted fractional Bayes factor, and multiplies the
resulting evidence over studies into posterior model probabilities.
"""

from .bf import (CoefDistribution, EvidenceRecord, FractionSpec, NumericError,
                 bf_between, bf_cu, bf_ic, bf_iu, evaluate)
from .glm import (DataError, Dataset, FitResult, SeparationError,
                  SingularDesignError, add_intercept, dataset_from_csv, fit,
                  fit_csv)
from .hypothesis import (ConstraintSystem, ParseError, parse,
                         transform_constraints)
from .synthesis import (SynthesisState, aggregate_log_bf, new_state, pmps,
                        synthesize_records, update)

__version__ = "0.1.0"

__all__ = [
    "CoefDistribution", "ConstraintSystem", "DataError", "Dataset",
    "EvidenceRecord", "FitResult", "FractionSpec", "NumericError",
    "ParseError", "SeparationError", "SingularDesignError", "SynthesisState",
    "add_intercept", "aggregate_log_bf", "bf_between", "bf_cu", "bf_ic",
    "bf_iu", "dataset_from_csv", "evaluate", "fit", "fit_csv", "new_state",
    "parse", "pmps", "synthesize_records", "transform_constraints", "update",
    "__version__",
]
