"""Noisy-label learning with prototype-guided correction, in plain numpy.

The pieces compose in pipeline.run_with_artifacts: generate or load a
noisy dataset, warm up a small MLP, split samples by prediction agreement,
correct suspect labels against class prototypes, and finish with
semi-supervised training.  The package root exports what a run and a
stage-by-stage walkthrough need, plus the error types; every other name
is imported from its module (``protosemi.data``, ``.net``, ``.select``,
``.mixmatch``, ``.pipeline``).
"""

from .data import (
    generate_blobs,
    inject_ambiguity_noise,
    inject_factual_noise,
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
from .net import TrainConfig, init_network, train_epoch
from .pipeline import PipelineConfig, repartition_rng, run_with_artifacts
from .select import (
    Thresholds,
    build_prototypes,
    correction_stats,
    repartition,
    split_by_agreement,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateClassError", "DegenerateGeometryError", "FormatError",
    "ParameterError", "PipelineConfig", "ProtoSemiError", "Thresholds",
    "TrainConfig", "build_prototypes", "correction_stats", "generate_blobs",
    "init_network", "inject_ambiguity_noise", "inject_factual_noise",
    "repartition", "repartition_rng", "run_with_artifacts", "save_dataset",
    "split_by_agreement", "split_heldout", "train_epoch",
]
