"""Paragraph-level multi-author writing style change detection toolkit."""

from .corpus import (
    Difficulty,
    Document,
    ParagraphPair,
    SplitStats,
    TruthRecord,
    build_pairs,
    compute_stats,
    load_documents,
    load_truth,
    split_directory,
)
from .errors import CoverageError, DataError, FormatError, StyleSeamError, UsageError
from .evaluation import ScoreEntry, f1_per_class, macro_f1, read_solutions, write_solutions
from .model import (
    EnsembleMode,
    LinearModel,
    PredictionRecord,
    TrainConfig,
    ensemble,
    hinge_objective,
    load_external_predictions,
    load_model,
    predict,
    random_baseline,
    save_model,
    save_predictions,
    train_linear_svm,
    train_split,
    warmup_schedule,
)
from .tokenization import (
    PairInput,
    TruncationConfig,
    TruncationStrategy,
    assemble_pair_input,
    tokenize,
    truncate,
    truncate_longest_first,
    truncate_transition,
)

__version__ = "0.1.0"

__all__ = [
    "CoverageError",
    "DataError",
    "Difficulty",
    "Document",
    "EnsembleMode",
    "FormatError",
    "LinearModel",
    "PairFeatures",
    "PairInput",
    "ParagraphTable",
    "ParagraphPair",
    "PredictionRecord",
    "ScoreEntry",
    "SplitStats",
    "StyleSeamError",
    "TrainConfig",
    "TruncationConfig",
    "TruncationStrategy",
    "TruthRecord",
    "UsageError",
    "Vocabulary",
    "assemble_pair_input",
    "build_pairs",
    "compute_stats",
    "ensemble",
    "f1_per_class",
    "fit_vocabulary",
    "hinge_objective",
    "load_documents",
    "load_external_predictions",
    "load_model",
    "load_stopwords",
    "load_truth",
    "load_vocabulary",
    "macro_f1",
    "pair_features",
    "predict",
    "random_baseline",
    "read_solutions",
    "save_model",
    "save_predictions",
    "save_vocabulary",
    "split_directory",
    "tokenize",
    "train_linear_svm",
    "train_split",
    "truncate",
    "truncate_longest_first",
    "truncate_transition",
    "warmup_schedule",
    "write_solutions",
]


def __getattr__(name: str) -> object:
    # The exports not imported above are the `features` names. They load
    # numpy, so they resolve on first use and `import styleseam` stays cheap.
    if name in __all__:
        from . import features

        return getattr(features, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
