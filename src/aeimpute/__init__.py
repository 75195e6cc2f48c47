"""Missing-data imputation via autoencoder reconstruction-error minimization.

Train a narrow-hidden-layer autoencoder on complete records, then estimate
the missing components of new records by minimizing the reconstruction error
over the unknown slots with interchangeable derivative-free optimizers, or
predict them directly with a random forest.  Includes the evaluation metrics
and the benchmark harness tying it all together.
"""

__version__ = "0.1.0"

from .data import (
    ColumnSpec,
    CsvFormatError,
    Dataset,
    ImputationTask,
    MISSING_SENTINEL,
    denormalize,
    load_csv,
    make_tasks,
    normalize,
    split,
)
from .forest import CartTree, Forest, ForestConfig
from .metrics import (
    MethodComparison,
    PredictionScores,
    RocCurve,
    TTestResult,
    comparison_matrix,
    prediction_scores,
    roc_curve,
    welch_t_test,
)
from .network import (
    Autoencoder,
    TrainConfig,
    TrainingError,
    load_model,
    select_hidden_size,
    train,
)
from .objective import MissingDataObjective
from .optimizers import (
    GaConfig,
    NsConfig,
    OptimizerResult,
    PsoConfig,
    SaConfig,
    minimize_ga,
    minimize_ns,
    minimize_pso,
    minimize_sa,
    run,
)

__all__ = [
    "__version__",
    "ColumnSpec",
    "CsvFormatError",
    "Dataset",
    "ImputationTask",
    "MISSING_SENTINEL",
    "denormalize",
    "load_csv",
    "make_tasks",
    "normalize",
    "split",
    "CartTree",
    "Forest",
    "ForestConfig",
    "MethodComparison",
    "PredictionScores",
    "RocCurve",
    "TTestResult",
    "comparison_matrix",
    "prediction_scores",
    "roc_curve",
    "welch_t_test",
    "Autoencoder",
    "TrainConfig",
    "TrainingError",
    "load_model",
    "select_hidden_size",
    "train",
    "MissingDataObjective",
    "GaConfig",
    "NsConfig",
    "OptimizerResult",
    "PsoConfig",
    "SaConfig",
    "minimize_ga",
    "minimize_ns",
    "minimize_pso",
    "minimize_sa",
    "run",
]
