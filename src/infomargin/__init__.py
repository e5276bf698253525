"""Category information amounts from streaming covariance statistics.

The package measures how much embedding volume each category occupies
(half the log-determinant of its shrinkage-clipped covariance), keeps the
required per-category statistics exactly under a bounded-memory streaming
queue, turns the measurements into pairwise angular margins for a cosine
classifier, and plans the queue length that minimizes the storage ratio.
A desk-scale synthetic trainer demonstrates the bias diagnostics end to
end. See the `infomargin` CLI for the file-level workflow.
"""

from .errors import InputError, NumericalError, TrainingDivergedError
from .stats import (
    CategoryStats,
    EpochAccumulator,
    GlobalStats,
    LocalStats,
    local_stats_from_arrays,
    merge_stats,
)
from .info import (
    InfoAmountTable,
    ShrinkageSpec,
    information_amount,
    information_amount_from_embeddings,
    information_amounts_from_stats,
    shrink_covariance,
)
from .loss import (
    CosineClassifier,
    InfoNormalization,
    LossBatch,
    MarginMatrix,
    build_margins,
    ce_batch,
    igam_batch,
    normalize_info,
    normface_batch,
)
from .planner import (
    PlanInput,
    PlanResult,
    memory_report,
    optimal_queue_length,
    storage_ratio,
)
from .trainer import (
    Dataset,
    EpochReport,
    SyntheticSpec,
    TrainConfig,
    TrainResult,
    bias_variance,
    generate_dataset,
    pearson,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "InputError",
    "NumericalError",
    "TrainingDivergedError",
    "LocalStats",
    "CategoryStats",
    "GlobalStats",
    "EpochAccumulator",
    "local_stats_from_arrays",
    "merge_stats",
    "ShrinkageSpec",
    "InfoAmountTable",
    "shrink_covariance",
    "information_amount",
    "information_amount_from_embeddings",
    "information_amounts_from_stats",
    "InfoNormalization",
    "MarginMatrix",
    "CosineClassifier",
    "LossBatch",
    "normalize_info",
    "build_margins",
    "igam_batch",
    "normface_batch",
    "ce_batch",
    "PlanInput",
    "PlanResult",
    "storage_ratio",
    "optimal_queue_length",
    "memory_report",
    "SyntheticSpec",
    "TrainConfig",
    "Dataset",
    "EpochReport",
    "TrainResult",
    "generate_dataset",
    "train",
    "pearson",
    "bias_variance",
    "__version__",
]
