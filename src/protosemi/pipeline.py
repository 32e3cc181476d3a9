"""End-to-end orchestration: warm-up, split, correct, semi-train, report.

A run is: supervised warm-up on all working labels, then a main loop
that re-splits the data by prediction agreement each epoch, applies
prototype-based label correction for the first few epochs, and trains
semi-supervised on the resulting labeled/unlabeled views.  The held-out
set is scored after every epoch.  Everything is deterministic in the
run seed; the caller's dataset is never mutated (label corrections act
on an internal copy).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .data import NoisyDataset, read_ascii
from .errors import DegenerateClassError, FormatError, ParameterError
from .mixmatch import SemiConfig, semi_train_epoch
from .net import Network, TrainConfig, init_network, train_epoch
from .select import (
    CorrectionRecord,
    StatsRow,
    Thresholds,
    build_prototypes,
    correction_stats,
    repartition,
    split_by_agreement,
)

REPORT_HEADER = "protosemi-report"
VARIANTS = ("full", "no_repar", "no_semi")

_REPARTITION_STREAM = 2  # rng stream tag; shuffle owns 0, mixing owns 1

_EPOCH_COLUMNS = ("epoch", "phase", "loss_labeled", "loss_unlabeled",
                  "confident", "unconfident", "heldout_accuracy")
_CORRECTION_COLUMNS = ("epoch", "unconfident_size", "small_circle",
                       "corrected", "right", "accuracy_pct")


def _parse_dims(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


class ConfigField(NamedTuple):
    """One run-config key: its text parser and where PipelineConfig keeps it."""

    key: str
    parse: Callable[[str], object]
    part: str | None = None  # None: PipelineConfig itself; else thresholds, train or semi

    def text(self, value) -> str:
        """Config-file text of a value; floats round-trip through repr."""
        if self.parse is _parse_dims:
            return ",".join(str(d) for d in value)
        return repr(value) if self.parse is float else str(value)


# the run-config schema, in report-header order: it drives config-file
# parsing, the config echo, and the report header
CONFIG_FIELDS = (
    ConfigField("hidden_dims", _parse_dims),
    ConfigField("warmup_epochs", int),
    ConfigField("proto_split_epochs", int),
    ConfigField("main_epochs", int),
    ConfigField("alpha", float, "thresholds"),
    ConfigField("beta", float, "thresholds"),
    ConfigField("base_lr", float, "train"),
    ConfigField("batch_size", int, "train"),
    ConfigField("weight_decay", float, "train"),
    ConfigField("k_aug", int, "semi"),
    ConfigField("temperature", float, "semi"),
    ConfigField("mix_alpha", float, "semi"),
    ConfigField("lambda_u", float, "semi"),
    ConfigField("aug_sigma", float, "semi"),
    ConfigField("seed", int),
)


@dataclass(frozen=True)
class PipelineConfig:
    """Full recipe for one run.

    The nested TrainConfig is normalized on construction: its seed is
    replaced by the pipeline seed and its total_epochs by
    warmup_epochs + main_epochs, so one seed and one learning-rate
    schedule govern the whole run.
    """

    hidden_dims: tuple
    warmup_epochs: int
    proto_split_epochs: int
    main_epochs: int
    thresholds: Thresholds
    train: TrainConfig
    semi: SemiConfig
    seed: int = 0

    def __post_init__(self):
        dims = tuple(int(d) for d in self.hidden_dims)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise ParameterError(f"hidden_dims must be positive ints, got {self.hidden_dims}")
        object.__setattr__(self, "hidden_dims", dims)
        if self.warmup_epochs < 1:
            raise ParameterError("warmup_epochs must be at least 1")
        if self.main_epochs < 0:
            raise ParameterError("main_epochs must be nonnegative")
        if not 0 <= self.proto_split_epochs <= self.main_epochs:
            raise ParameterError(
                f"proto_split_epochs must lie in [0, main_epochs], got "
                f"{self.proto_split_epochs} with main_epochs={self.main_epochs}"
            )
        if not isinstance(self.thresholds, Thresholds):
            raise ParameterError("thresholds must be a Thresholds instance")
        object.__setattr__(self, "train", dataclasses.replace(
            self.train,
            total_epochs=self.warmup_epochs + self.main_epochs,
            seed=self.seed,
        ))

    @property
    def total_epochs(self) -> int:
        return self.warmup_epochs + self.main_epochs

    @classmethod
    def from_fields(cls, values: dict) -> "PipelineConfig":
        """Build from parsed values keyed as in CONFIG_FIELDS."""
        parts = {None: {}, "thresholds": {}, "train": {}, "semi": {}}
        for f in CONFIG_FIELDS:
            parts[f.part][f.key] = values[f.key]
        top = parts[None]
        return cls(
            thresholds=Thresholds(**parts["thresholds"]),
            train=TrainConfig(total_epochs=top["warmup_epochs"] + top["main_epochs"],
                              **parts["train"]),
            semi=SemiConfig(**parts["semi"]),
            **top,
        )

    def echo(self) -> dict:
        """Flat key=value view of the effective config, CLI-file style."""
        return {f.key: f.text(getattr(getattr(self, f.part) if f.part else self, f.key))
                for f in CONFIG_FIELDS}


@dataclass(frozen=True)
class EpochRecord:
    """One row of the per-epoch trace."""

    epoch: int
    phase: str  # warmup | semi
    loss_labeled: float
    loss_unlabeled: float
    confident: int
    unconfident: int
    heldout_accuracy: float


@dataclass(frozen=True)
class CorrectionEpoch:
    """Correction summary of one repartition epoch."""

    epoch: int
    stats: StatsRow


@dataclass
class RunReport:
    """Everything measurable about one run; its summary derives from the rows."""

    variant: str
    config_echo: dict  # config-file text by key, as PipelineConfig.echo() gives it
    epochs: list
    corrections: list

    @property
    def seed(self) -> int:
        return int(self.config_echo["seed"])

    @property
    def final_accuracy(self) -> float:
        return self.epochs[-1].heldout_accuracy

    @property
    def best_epoch(self) -> int:
        """Position of the first epoch row with the highest held-out accuracy."""
        return int(np.argmax([r.heldout_accuracy for r in self.epochs]))

    @property
    def best_accuracy(self) -> float:
        return self.epochs[self.best_epoch].heldout_accuracy


@dataclass
class RunResult:
    """A report plus the artifacts the report was computed from."""

    report: RunReport
    net: Network
    dataset: NoisyDataset  # the run's copy, with its corrected working labels
    correction_logs: list  # [(epoch, [CorrectionRecord, ...]), ...]


def repartition_rng(seed: int, epoch: int) -> np.random.Generator:
    """The rng that draws ring-zone correction decisions for an epoch."""
    return np.random.default_rng([seed, _REPARTITION_STREAM, epoch])


def evaluate(net: Network, heldout: NoisyDataset) -> float:
    """Fraction of held-out samples whose predicted class is the true one."""
    if heldout.n == 0:
        raise ParameterError("held-out set must be nonempty")
    preds = np.argmax(net.forward(heldout.features), axis=1)
    return float(np.mean(preds == heldout.true_labels))


def run_with_artifacts(dataset: NoisyDataset, heldout: NoisyDataset,
                       config: PipelineConfig, variant: str = "full") -> RunResult:
    """Run one variant end to end, keeping the net, labels and correction logs.

    Variants: full (the whole method), no_repar (label correction
    disabled), no_semi (warm-up only, stopping before the main loop).
    """
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if dataset.num_classes != heldout.num_classes or dataset.dim != heldout.dim:
        raise ParameterError("dataset and heldout must share classes and dimension")

    proto_epochs = 0 if variant == "no_repar" else config.proto_split_epochs
    main_epochs = 0 if variant == "no_semi" else config.main_epochs

    ds = dataset.copy()  # corrections must not leak into the caller's data
    net = init_network([ds.dim, *config.hidden_dims, ds.num_classes], config.seed)

    epochs: list[EpochRecord] = []
    corrections: list[CorrectionEpoch] = []
    logs: list[tuple[int, list[CorrectionRecord]]] = []

    for epoch in range(config.warmup_epochs):
        loss = train_epoch(net, ds.features, ds.working_labels, config.train, epoch)
        acc = evaluate(net, heldout)
        epochs.append(EpochRecord(epoch, "warmup", loss, 0.0, ds.n, 0, acc))

    for i in range(1, main_epochs + 1):
        epoch = config.warmup_epochs + i - 1
        part = split_by_agreement(net, ds)
        if i <= proto_epochs:
            try:
                part, log = repartition(net, ds, part, config.thresholds,
                                        repartition_rng(config.seed, epoch))
            except DegenerateClassError as err:
                raise DegenerateClassError(
                    f"epoch {epoch}: {err}", class_index=err.class_index
                ) from err
            corrections.append(CorrectionEpoch(epoch, correction_stats(log, ds)))
            logs.append((epoch, log))
        if part.confident_idx.size == 0:
            raise DegenerateClassError(f"epoch {epoch}: no confident samples to train on")
        loss_l, loss_u = semi_train_epoch(
            net,
            (ds.features[part.confident_idx], part.confident_labels),
            ds.features[part.unconfident_idx],
            config.semi, config.train, epoch,
        )
        acc = evaluate(net, heldout)
        epochs.append(EpochRecord(epoch, "semi", loss_l, loss_u,
                                  int(part.confident_idx.size),
                                  int(part.unconfident_idx.size), acc))

    report = RunReport(variant=variant, config_echo=config.echo(),
                       epochs=epochs, corrections=corrections)
    return RunResult(report=report, net=net, dataset=ds, correction_logs=logs)


def export_embeddings(net: Network, dataset: NoisyDataset, path) -> None:
    """CSV of class prototypes and unconfident-sample embeddings.

    The split and prototypes are built from ``net`` and the dataset's
    current working labels, as a next epoch would build them, before
    the file is opened, so a degenerate split writes nothing.  Prototype
    rows come first (label = class index, no true label), then one row
    per unconfident sample in ascending index order with its working
    label and true label.  Floats round-trip.
    """
    partition = split_by_agreement(net, dataset)
    prototypes = build_prototypes(net, dataset, partition)
    m = prototypes.rows.shape[1]
    header = ["row_type", "label", "true_label"] + [f"e{j}" for j in range(m)]
    lines = [",".join(header)]
    for k in range(prototypes.rows.shape[0]):
        coords = [repr(float(v)) for v in prototypes.rows[k]]
        lines.append(",".join(["prototype", str(k), ""] + coords))
    embeddings = net.embed(dataset.features[partition.unconfident_idx])
    for row, i in enumerate(partition.unconfident_idx):
        coords = [repr(float(v)) for v in embeddings[row]]
        lines.append(",".join([
            "sample",
            str(int(dataset.working_labels[i])),
            str(int(dataset.true_labels[i])),
        ] + coords))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _stats_cells(epoch: int, stats: StatsRow) -> list:
    acc = "n/a" if stats.accuracy_pct is None else repr(stats.accuracy_pct)
    return [str(epoch), str(stats.unconfident_size), str(stats.small_circle),
            str(stats.corrected), str(stats.right), acc]


def write_stats_csv(corrections: list, path) -> None:
    """Correction summaries, one row per repartition epoch."""
    lines = [",".join(_CORRECTION_COLUMNS)]
    for entry in corrections:
        lines.append(",".join(_stats_cells(entry.epoch, entry.stats)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report(report: RunReport, path) -> None:
    """Serialize a report: key=value header, then two CSV blocks."""
    lines = [f"{REPORT_HEADER} v1"]
    lines.append(f"variant={report.variant}")
    for f in CONFIG_FIELDS:
        lines.append(f"{f.key}={report.config_echo[f.key]}")
    lines.append(f"final_accuracy={report.final_accuracy!r}")
    lines.append(f"best_accuracy={report.best_accuracy!r}")
    lines.append(f"best_epoch={report.best_epoch}")
    lines.append("")
    lines.append("[epochs]")
    lines.append(",".join(_EPOCH_COLUMNS))
    for r in report.epochs:
        lines.append(",".join([
            str(r.epoch), r.phase, repr(r.loss_labeled), repr(r.loss_unlabeled),
            str(r.confident), str(r.unconfident), repr(r.heldout_accuracy),
        ]))
    lines.append("")
    lines.append("[corrections]")
    lines.append(",".join(_CORRECTION_COLUMNS))
    for entry in report.corrections:
        lines.append(",".join(_stats_cells(entry.epoch, entry.stats)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_report(path) -> RunReport:
    """Read back a report written by :func:`write_report`."""
    lines = read_ascii(path).splitlines()
    if not lines or lines[0] != f"{REPORT_HEADER} v1":
        raise FormatError(f"{path}: not a {REPORT_HEADER} v1 file")

    def take_kv(lineno: int, key: str) -> tuple:
        if lineno >= len(lines) or "=" not in lines[lineno]:
            raise FormatError(f"line {lineno + 1}: expected {key}=...")
        got, _, value = lines[lineno].partition("=")
        if got != key:
            raise FormatError(f"line {lineno + 1}: expected key {key}, got {got}")
        return lineno + 1, value

    pos = 1
    pos, variant = take_kv(pos, "variant")
    echo = {}
    for f in CONFIG_FIELDS:
        pos, echo[f.key] = take_kv(pos, f.key)
    summary = {}  # key -> (1-based line number, text), checked against the epoch rows
    for key in ("final_accuracy", "best_accuracy", "best_epoch"):
        pos, text = take_kv(pos, key)
        summary[key] = (pos, text)

    def expect(lineno: int, value: str) -> int:
        if lineno >= len(lines) or lines[lineno] != value:
            raise FormatError(f"line {lineno + 1}: expected {value!r}")
        return lineno + 1

    try:
        pos = expect(pos, "")
        pos = expect(pos, "[epochs]")
        pos = expect(pos, ",".join(_EPOCH_COLUMNS))
        epochs = []
        while pos < len(lines) and lines[pos] != "":
            cells = lines[pos].split(",")
            if len(cells) != len(_EPOCH_COLUMNS):
                raise FormatError(f"line {pos + 1}: bad epoch row")
            epochs.append(EpochRecord(
                epoch=int(cells[0]), phase=cells[1],
                loss_labeled=float(cells[2]), loss_unlabeled=float(cells[3]),
                confident=int(cells[4]), unconfident=int(cells[5]),
                heldout_accuracy=float(cells[6]),
            ))
            pos += 1
        pos = expect(pos, "")
        pos = expect(pos, "[corrections]")
        pos = expect(pos, ",".join(_CORRECTION_COLUMNS))
        corrections = []
        while pos < len(lines) and lines[pos] != "":
            cells = lines[pos].split(",")
            if len(cells) != len(_CORRECTION_COLUMNS):
                raise FormatError(f"line {pos + 1}: bad correction row")
            corrections.append(CorrectionEpoch(
                epoch=int(cells[0]),
                stats=StatsRow(
                    unconfident_size=int(cells[1]), small_circle=int(cells[2]),
                    corrected=int(cells[3]), right=int(cells[4]),
                    accuracy_pct=None if cells[5] == "n/a" else float(cells[5]),
                ),
            ))
            pos += 1
        if not epochs:
            raise FormatError(f"{path}: no epoch rows")
        report = RunReport(variant=variant, config_echo=echo,
                           epochs=epochs, corrections=corrections)
        int(echo["seed"])  # the seed property must parse
        for key, (lineno, text) in summary.items():
            if (int if key == "best_epoch" else float)(text) != getattr(report, key):
                raise FormatError(f"line {lineno}: {key}={text} disagrees with the epoch rows")
    except FormatError:  # a ValueError too, but it already names its line
        raise
    except ValueError:
        raise FormatError(f"{path}: unparsable numeric field") from None
    return report
