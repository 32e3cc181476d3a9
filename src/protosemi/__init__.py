"""Noisy-label learning with prototype-guided correction, in plain numpy.

The pieces compose in pipeline.run_with_artifacts: generate or load a
noisy dataset, warm up a small MLP, split samples by prediction agreement,
correct suspect labels against class prototypes, and finish with
semi-supervised training.  Each stage is importable on its own.
"""

from .data import (
    NoisyDataset,
    generate_blobs,
    inject_ambiguity_noise,
    inject_factual_noise,
    load_dataset,
    round_half_away,
    save_dataset,
    split_heldout,
)
from .errors import (
    DegenerateClassError,
    DegenerateGeometryError,
    FormatError,
    ParameterError,
    ProtoSemiError,
)
from .mixmatch import (
    SemiConfig,
    augment,
    brier_grads,
    guess_labels,
    lambda_ramp,
    mix_rng,
    mixup,
    semi_train_epoch,
    sharpen,
)
from .net import (
    Network,
    TrainConfig,
    cosine_lr,
    cross_entropy_grads,
    epoch_shuffle_rng,
    init_network,
    one_hot,
    softmax,
    train_epoch,
)
from .pipeline import (
    CorrectionEpoch,
    EpochRecord,
    PipelineConfig,
    RunReport,
    RunResult,
    evaluate,
    export_embeddings,
    parse_report,
    repartition_rng,
    run_with_artifacts,
    write_report,
    write_stats_csv,
)
from .select import (
    CorrectionRecord,
    Partition,
    PrototypeMatrix,
    StatsRow,
    Thresholds,
    build_prototypes,
    correction_probability,
    correction_stats,
    load_correction_log,
    repartition,
    save_correction_log,
    split_by_agreement,
)

__version__ = "0.1.0"

__all__ = [
    "CorrectionEpoch", "CorrectionRecord", "DegenerateClassError",
    "DegenerateGeometryError", "EpochRecord", "FormatError", "Network",
    "NoisyDataset", "ParameterError", "Partition", "PipelineConfig",
    "ProtoSemiError", "PrototypeMatrix", "RunReport", "RunResult",
    "SemiConfig", "StatsRow", "Thresholds", "TrainConfig", "augment",
    "brier_grads", "build_prototypes", "correction_probability",
    "correction_stats", "cosine_lr", "cross_entropy_grads",
    "epoch_shuffle_rng", "evaluate", "export_embeddings", "generate_blobs",
    "guess_labels", "init_network", "inject_ambiguity_noise",
    "inject_factual_noise", "lambda_ramp", "load_correction_log",
    "load_dataset", "mix_rng", "mixup", "one_hot", "parse_report",
    "repartition", "repartition_rng", "round_half_away", "run_with_artifacts",
    "save_correction_log", "save_dataset", "semi_train_epoch", "sharpen",
    "softmax", "split_by_agreement", "split_heldout", "train_epoch",
    "write_report", "write_stats_csv",
]
