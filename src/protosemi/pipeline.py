"""End-to-end orchestration: warm-up, split, correct, semi-train, report.

A run is: supervised warm-up on all working labels, then a main loop
that re-splits the data by prediction agreement each epoch, applies
prototype-based label correction for the first few epochs, and trains
semi-supervised on the resulting labeled/unlabeled views.  The held-out
set is scored after every epoch and the corrections after the last, so
nothing the epoch loop runs reads a true label.  Everything is
deterministic in the run seed; the caller's dataset is never mutated
(label corrections act on the run's own copy of the labels, and the
features are shared read-only).
"""

import dataclasses
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import takewhile, zip_longest
from typing import Callable, NamedTuple

import numpy as np

from .data import NoisyDataset, csv_line, read_lines, write_lines
from .errors import DegenerateClassError, FormatError, ParameterError
from .mixmatch import SemiConfig, semi_train_epoch
from .net import (
    Network,
    TrainConfig,
    epoch_rng,
    init_network,
    is_int,
    is_real,
    require_int,
    train_epoch,
)
from .select import (
    CorrectionRecord,
    StatsRow,
    Thresholds,
    build_prototypes,
    correction_stats,
    repartition,
    split_by_agreement,
)

VARIANTS = ("full", "no_repar", "no_semi")


def _parse_dims(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


class ConfigField(NamedTuple):
    """One run-config key and its text parser."""

    key: str
    parse: Callable[[str], object]

    def text(self, value) -> str:
        """Config-file text of a normalized value; the str of a float is its repr."""
        return ",".join(map(str, value)) if self.parse is _parse_dims else str(value)

    def normal(self, value):
        """``value`` as its config-file text parses; float keys take integers, no key a bool."""
        if self.parse is _parse_dims:
            ok = isinstance(value, (tuple, list)) and all(map(is_int, value))
        else:
            ok = is_real(value) if self.parse is float else is_int(value)
        if not ok:
            raise ParameterError(f"{self.key} has the wrong type: {value!r}")
        return tuple(map(int, value)) if self.parse is _parse_dims else self.parse(value)

    def read(self, values: dict):
        """This key's value parsed from config-file text."""
        try:
            return self.parse(values[self.key])
        except ValueError:
            raise ParameterError(f"key {self.key!r} has unparsable value "
                                 f"{values[self.key]!r}") from None


@contextmanager
def naming_key_lines(source, linenos: dict[str, int]):
    """Re-raise a ParameterError as a FormatError at the lines of the keys it names."""
    try:
        yield
    except ParameterError as err:
        named = sorted({linenos[w] for w in re.findall(r"\w+", str(err)) if w in linenos})
        where = f"{source} line{'s' if len(named) > 1 else ''} {', '.join(map(str, named))}"
        raise FormatError(f"{where if named else source}: {err}") from None


@dataclass(frozen=True)
class PipelineConfig:
    """Full recipe for one run: the config-file keys, in report-header order.

    Construction turns each key into what its config-file text parses to,
    so the run's report reads back, and derives the stage configs from the
    keys once.  The TrainConfig takes its total_epochs from the schedule
    (warmup_epochs + main_epochs) and its seed from the config's own: one
    seed and one schedule govern the run.
    """

    hidden_dims: tuple
    warmup_epochs: int
    proto_split_epochs: int
    main_epochs: int
    alpha: float
    beta: float
    base_lr: float
    batch_size: int
    weight_decay: float
    k_aug: int
    temperature: float
    mix_alpha: float
    lambda_u: float
    aug_sigma: float
    seed: int
    thresholds: Thresholds = field(init=False, compare=False, repr=False)
    train: TrainConfig = field(init=False, compare=False, repr=False)
    semi: SemiConfig = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for f in CONFIG_FIELDS:
            object.__setattr__(self, f.key, f.normal(getattr(self, f.key)))
        if len(self.hidden_dims) < 1 or min(self.hidden_dims) < 1:
            raise ParameterError(f"hidden_dims must be positive ints, got {self.hidden_dims}")
        require_int("warmup_epochs", self.warmup_epochs, 1)
        require_int("main_epochs", self.main_epochs, 0)
        if not 0 <= self.proto_split_epochs <= self.main_epochs:
            raise ParameterError(
                f"proto_split_epochs must lie in [0, main_epochs], got "
                f"{self.proto_split_epochs} with main_epochs={self.main_epochs}"
            )
        object.__setattr__(self, "thresholds", Thresholds(self.alpha, self.beta))
        object.__setattr__(self, "train", TrainConfig(
            base_lr=self.base_lr, total_epochs=self.total_epochs, batch_size=self.batch_size,
            weight_decay=self.weight_decay, seed=self.seed))
        object.__setattr__(self, "semi", SemiConfig(
            k_aug=self.k_aug, temperature=self.temperature, mix_alpha=self.mix_alpha,
            lambda_u=self.lambda_u, aug_sigma=self.aug_sigma))

    @property
    def total_epochs(self) -> int:
        return len(self.schedule())

    def schedule(self, variant: str = "full") -> list:
        """(epoch, phase, repartitions) for each epoch the variant trains, in order.

        Variants: full (the whole method), no_repar (label correction
        disabled), no_semi (warm-up only, stopping before the main loop).
        """
        if variant not in VARIANTS:
            raise ParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")
        proto_epochs = 0 if variant == "no_repar" else self.proto_split_epochs
        main_epochs = 0 if variant == "no_semi" else self.main_epochs
        return [(epoch, "warmup", False) for epoch in range(self.warmup_epochs)] + [
            (self.warmup_epochs + i, "semi", i < proto_epochs) for i in range(main_epochs)]

    @classmethod
    def from_fields(cls, values: dict) -> "PipelineConfig":
        """Build from config-file text keyed as in CONFIG_FIELDS; other keys are ignored."""
        missing = [f.key for f in CONFIG_FIELDS if f.key not in values]
        if missing:
            raise ParameterError(f"missing required key {', '.join(map(repr, missing))}")
        return cls(**{f.key: f.read(values) for f in CONFIG_FIELDS})

    def echo(self) -> dict:
        """Flat key=value view of the config, CLI-file style."""
        return {f.key: f.text(getattr(self, f.key)) for f in CONFIG_FIELDS}


# the run-config schema, PipelineConfig's init fields in report-header order, each parsed
# by its type (dims by _parse_dims): it drives config parsing, the echo and the report header
CONFIG_FIELDS = tuple(ConfigField(f.name, _parse_dims if f.type is tuple else f.type)
                      for f in dataclasses.fields(PipelineConfig) if f.init)


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


# report CSV columns and cell parsers, from the records the blocks hold: a correction
# row is its epoch, its StatsRow, then accuracy_pct; the schedule gives epoch and phase
_EPOCH_COLUMNS = {f.name: f.type for f in dataclasses.fields(EpochRecord)}
_CORRECTION_COLUMNS = {"epoch": int, **{f.name: f.type for f in dataclasses.fields(StatsRow)},
                       "accuracy_pct": str}


@dataclass
class RunReport:
    """Everything measurable about one run; its summary derives from the rows."""

    variant: str
    config: PipelineConfig
    epochs: list
    corrections: list

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
    dataset: NoisyDataset  # the run's labels, corrected, on the caller's features (read-only)
    correction_logs: list  # [(epoch, [CorrectionRecord, ...]), ...]


def repartition_rng(seed: int, epoch: int) -> np.random.Generator:
    """The rng that draws ring-zone correction decisions for an epoch."""
    return epoch_rng(seed, "repartition", epoch)


def evaluate(net: Network, heldout: NoisyDataset) -> float:
    """Fraction of held-out samples whose predicted class is the true one."""
    preds = np.argmax(net.forward(heldout.features), axis=1)
    return float(np.mean(preds == heldout.true_labels))


def run_with_artifacts(dataset: NoisyDataset, heldout: NoisyDataset,
                       config: PipelineConfig, variant: str = "full") -> RunResult:
    """Train the epochs of ``config.schedule(variant)``, keeping the net, labels and logs."""
    schedule = config.schedule(variant)
    if dataset.num_classes != heldout.num_classes or dataset.dim != heldout.dim:
        raise ParameterError("dataset and heldout must share classes and dimension")

    # corrections write only the working labels, which NoisyDataset copies;
    # the features are the caller's, behind a read-only view
    features = dataset.features.view()
    features.flags.writeable = False
    ds = NoisyDataset(features, dataset.working_labels, dataset.true_labels, dataset.num_classes)
    net = init_network([ds.dim, *config.hidden_dims, ds.num_classes], config.seed)

    epochs: list[EpochRecord] = []
    logs: list[tuple[int, list[CorrectionRecord]]] = []

    for epoch, phase, repartitions in schedule:
        if phase == "warmup":
            losses = (train_epoch(net, ds.features, ds.working_labels, config.train, epoch), 0.0)
            sizes = ds.n, 0
        else:
            part = split_by_agreement(net, ds)
            if repartitions:
                try:
                    part, log = repartition(net, ds, part, config.thresholds,
                                            repartition_rng(config.seed, epoch))
                except DegenerateClassError as err:
                    raise DegenerateClassError(f"epoch {epoch}: {err}") from err
                logs.append((epoch, log))
            confident = part.confident
            sizes = int(np.count_nonzero(confident)), int(np.count_nonzero(~confident))
            if sizes[0] == 0:
                raise DegenerateClassError(f"epoch {epoch}: no confident samples to train on")
            losses = semi_train_epoch(
                net, (ds.features[confident], ds.working_labels[confident]),
                ds.features[~confident], config.semi, config.train, epoch)
        epochs.append(EpochRecord(epoch, phase, *losses, *sizes, evaluate(net, heldout)))

    corrections = [CorrectionEpoch(e, correction_stats(log, ds)) for e, log in logs]
    report = RunReport(variant=variant, config=config,
                       epochs=epochs, corrections=corrections)
    return RunResult(report=report, net=net, dataset=ds, correction_logs=logs)


def export_embeddings(net: Network, dataset: NoisyDataset, path) -> None:
    """CSV of class prototypes and unconfident-sample embeddings.

    The split and prototypes are built from ``net`` and the dataset's
    current working labels, as a next epoch would build them, before
    the file is opened, so a degenerate split writes nothing and raises
    a DegenerateClassError that names ``path``.  Prototype rows come
    first (label = class index, no true label), then one row per
    unconfident sample in ascending index order with its working label
    and true label.  Floats round-trip.
    """
    partition = split_by_agreement(net, dataset)
    try:
        prototypes = build_prototypes(net, dataset, partition)
    except DegenerateClassError as err:
        raise DegenerateClassError(f"cannot export embeddings to {path}: {err}") from err
    m = prototypes.rows.shape[1]
    lines = [csv_line(["row_type", "label", "true_label"] + [f"e{j}" for j in range(m)])]
    for k, row in enumerate(prototypes.rows.tolist()):
        lines.append(csv_line(["prototype", k, ""] + row))
    embeddings = net.embed(dataset.features[partition.unconfident_idx])
    for i, row in zip(partition.unconfident_idx, embeddings.tolist()):
        lines.append(csv_line(["sample", dataset.working_labels[i], dataset.true_labels[i]] + row))
    write_lines(path, lines)


def _stats_lines(corrections: list) -> list:
    """Column names, then one correction-summary row per repartition epoch."""
    lines = [csv_line(_CORRECTION_COLUMNS)]
    for entry in corrections:
        acc = "n/a" if entry.stats.accuracy_pct is None else entry.stats.accuracy_pct
        lines.append(csv_line([entry.epoch, *dataclasses.astuple(entry.stats), acc]))
    return lines


def write_stats_csv(corrections: list, path) -> None:
    """Correction summaries, one row per repartition epoch."""
    write_lines(path, _stats_lines(corrections))


def _report_lines(report: RunReport) -> list:
    """The report file, line by line: key=value header, then two CSV blocks."""
    lines = ["protosemi-report v1"]
    lines.append(f"variant={report.variant}")
    lines.extend(f"{key}={text}" for key, text in report.config.echo().items())
    lines.append(f"final_accuracy={report.final_accuracy!r}")
    lines.append(f"best_accuracy={report.best_accuracy!r}")
    lines.append(f"best_epoch={report.best_epoch}")
    lines.append("")
    lines.append("[epochs]")
    lines.append(csv_line(_EPOCH_COLUMNS))
    lines.extend(csv_line(dataclasses.astuple(r)) for r in report.epochs)
    lines.append("")
    lines.append("[corrections]")
    lines.extend(_stats_lines(report.corrections))
    return lines


def write_report(report: RunReport, path) -> None:
    """Serialize a report; :func:`parse_report` reads it back."""
    write_lines(path, _report_lines(report))


def parse_report(path) -> RunReport:
    """Read a report; accept exactly what :func:`write_report` writes for its run.

    Rows follow ``PipelineConfig.schedule``; a FormatError names the bad line.
    """
    # split at "\n" alone, so that the comparison below is byte-exact
    lines = "".join(read_lines(path)).split("\n")
    head = list(takewhile(bool, lines))  # header line, variant, config echo, summary
    values = dict(line.partition("=")[::2] for line in head[1:])
    with naming_key_lines(path, {line.partition("=")[0]: n for n, line in enumerate(head[1:], 2)}):
        config = PipelineConfig.from_fields(values)
        schedule = config.schedule(values.get("variant"))
    epochs, corrections, ends = [], [], []  # ends: per block, the line after its rows
    fixed = [epoch for epoch, _, repartitions in schedule if repartitions]
    at = len(head) + 3  # past the blank line, the block title and its column names
    for name, columns, rows in (("epoch", _EPOCH_COLUMNS, epochs),
                                ("correction", _CORRECTION_COLUMNS, corrections)):
        for lineno, line in enumerate(takewhile(bool, lines[at:]), at + 1):
            try:  # zip's strict raises ValueError on a wrong cell count
                rows.append([parse(cell) for parse, cell in
                             zip(columns.values(), line.split(","), strict=True)])
            except ValueError:
                raise FormatError(f"{path} line {lineno}: unparsable {name} row") from None
        ends.append(at + len(rows))
        at = ends[-1] + 3
    if not epochs:
        raise FormatError(f"{path} line {ends[0] + 1}: no epoch rows")
    report = RunReport(
        values["variant"], config,
        [EpochRecord(e, p, *cells[2:]) for (e, p, _), cells in zip(schedule, epochs)],
        [CorrectionEpoch(e, StatsRow(*cells[1:-1])) for e, cells in zip(fixed, corrections)])
    written = _report_lines(report) + [""]
    # a scheduled row the file lacks differs from whatever stands in its place
    written[ends[1]:ends[1]] = [f"<row of epoch {e}>" for e in fixed[len(corrections):]]
    written[ends[0]:ends[0]] = [f"<row of epoch {e}>" for e, _, _ in schedule[len(epochs):]]
    for lineno, (got, want) in enumerate(zip_longest(lines, written, fillvalue="<end>"), 1):
        if got != want:
            raise FormatError(f"{path} line {lineno}: {got} disagrees; write_report gives {want!r}")
    return report
