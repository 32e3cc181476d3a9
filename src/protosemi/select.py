"""Agreement-based sample selection and prototype-guided label correction.

The dataset is split into a *confident* set (classifier prediction
agrees with the current working label) and an *unconfident* set (labels
withheld).  Class prototypes are mean embeddings over the confident
set; each unconfident sample is then scored by its best cosine
similarity to any prototype and falls into one of three zones:

  small circle   best similarity >= alpha: take the prototype's class,
                 correcting the label outright if it differs;
  ring           beta <= best similarity < alpha: matching labels are
                 retained, differing labels are corrected with
                 probability rising linearly from 0 at beta to 1 at
                 alpha;
  outside        best similarity < beta: left unconfident, untouched.

Samples in either circle move to the confident set, and corrected
labels are written back to the dataset so later epochs see them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import NoisyDataset, read_lines
from .errors import (
    DegenerateClassError,
    DegenerateGeometryError,
    FormatError,
    ParameterError,
)
from .net import Network, is_real

ZONES = ("small", "ring", "outside")
ACTIONS = ("corrected", "retained", "unmoved")
LOG_COLUMNS = ("index", "d_max", "proto_label", "prior_label",
               "zone", "action", "p_correct", "true_label")


@dataclass(frozen=True)
class Thresholds:
    """Similarity cutoffs: alpha bounds the small circle, beta the ring."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (is_real(self.alpha) and is_real(self.beta)
                and 1.0 >= self.alpha > self.beta >= -1.0):
            raise ParameterError(
                f"thresholds must satisfy 1 >= alpha > beta >= -1, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(eq=False)
class Partition:
    """Index split of a dataset; confident samples carry an assigned label."""

    confident_idx: np.ndarray     # (m,) int64, strictly increasing
    confident_labels: np.ndarray  # (m,) int64
    unconfident_idx: np.ndarray   # (u,) int64, strictly increasing

    def __post_init__(self):
        self.confident_idx = np.asarray(self.confident_idx, dtype=np.int64)
        self.confident_labels = np.asarray(self.confident_labels, dtype=np.int64)
        self.unconfident_idx = np.asarray(self.unconfident_idx, dtype=np.int64)
        if self.confident_idx.shape != self.confident_labels.shape:
            raise ParameterError("confident indices and labels must align")

    def covers_exactly(self, n: int) -> bool:
        """True iff confident and unconfident together tile {0..n-1}."""
        merged = np.concatenate([self.confident_idx, self.unconfident_idx])
        return merged.size == n and np.array_equal(np.sort(merged), np.arange(n))


@dataclass(frozen=True)
class PrototypeMatrix:
    """One mean embedding per class with the confident support counts."""

    rows: np.ndarray            # (K, M)
    support_counts: np.ndarray  # (K,) int64


@dataclass(frozen=True, slots=True)
class CorrectionRecord:
    """Per-sample outcome of one repartition pass."""

    index: int
    d_max: float
    proto_label: int
    prior_label: int
    zone: str    # small | ring | outside
    action: str  # corrected | retained | unmoved
    p_correct: float


@dataclass(frozen=True)
class StatsRow:
    """Correction summary: how many labels moved, and how well."""

    unconfident_size: int
    small_circle: int
    corrected: int
    right: int

    @property
    def accuracy_pct(self) -> float | None:
        """Percent of the corrected labels that are right; None when none was corrected."""
        return 100.0 * self.right / self.corrected if self.corrected else None

    def accuracy_text(self) -> str:
        return "n/a" if self.accuracy_pct is None else f"{self.accuracy_pct:.2f}%"


def split_by_agreement(net: Network, ds: NoisyDataset) -> Partition:
    """Confident = samples whose predicted class matches the working label."""
    preds = np.argmax(net.forward(ds.features), axis=1)
    agree = preds == ds.working_labels
    confident = np.flatnonzero(agree)
    return Partition(
        confident_idx=confident,
        confident_labels=ds.working_labels[confident].copy(),
        unconfident_idx=np.flatnonzero(~agree),
    )


def build_prototypes(net: Network, ds: NoisyDataset, partition: Partition) -> PrototypeMatrix:
    """Mean embedding of the confident samples of each class.

    Raises :class:`DegenerateClassError` if any class has no confident
    samples, since its prototype would be undefined.
    """
    k = ds.num_classes
    counts = np.bincount(partition.confident_labels, minlength=k)
    if np.any(counts == 0):
        empty = int(np.argmin(counts))
        raise DegenerateClassError(
            f"class {empty} has no confident samples; prototype undefined",
            class_index=empty,
        )
    embeddings = net.embed(ds.features[partition.confident_idx])
    rows = np.empty((k, net.embed_dim))
    for c in range(k):
        members = embeddings[partition.confident_labels == c]
        # anchor-plus-mean-deviation keeps the all-identical case an
        # exact fixed point of the mean
        anchor = members[0]
        rows[c] = anchor + (members - anchor).mean(axis=0)
    return PrototypeMatrix(rows=rows, support_counts=counts.astype(np.int64))


def cosine_to_rows(vec: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Cosine similarity of one vector against each row of a matrix."""
    # the expressions np.linalg.norm and np.clip evaluate, without their
    # per-call dispatch; called once per unconfident sample
    vec_norm = np.sqrt(vec.dot(vec))
    row_norms = np.sqrt(np.add.reduce(rows * rows, axis=1))
    if vec_norm == 0.0:
        raise DegenerateGeometryError("cosine undefined for a zero embedding")
    if (row_norms == 0.0).any():
        zero = int(np.argmin(row_norms))
        raise DegenerateGeometryError(f"prototype row {zero} is the zero vector")
    return np.minimum(np.maximum((rows @ vec) / (row_norms * vec_norm), -1.0), 1.0)


def correction_probability(d_max: float | np.ndarray, thresholds: Thresholds):
    """Linear ramp over the ring: 0 at beta, 1 at alpha; scalar or array."""
    if not np.all((thresholds.beta <= d_max) & (d_max <= thresholds.alpha)):
        raise ParameterError(
            f"d_max={d_max} outside the ring [{thresholds.beta}, {thresholds.alpha}]"
        )
    return (d_max - thresholds.beta) / (thresholds.alpha - thresholds.beta)


def repartition(net: Network, ds: NoisyDataset, partition: Partition,
                thresholds: Thresholds, rng: np.random.Generator
                ) -> tuple[Partition, list[CorrectionRecord]]:
    """Resolve every unconfident sample against the class prototypes.

    Prototypes are built once from the incoming partition.  One bulk
    uniform draw covers the ring-zone samples whose prototype class
    differs from their current label, in ascending index order; it gives
    the same values as one draw per such sample, so decisions are
    reproducible from the seed.  Corrected labels are written back into
    ``ds.working_labels`` only after every sample has been scored; the
    returned log records one entry per unconfident sample.
    """
    prototypes = build_prototypes(net, ds, partition)
    unconf = partition.unconfident_idx
    embeddings = net.embed(ds.features[unconf])
    sims = np.array([cosine_to_rows(e, prototypes.rows) for e in embeddings])
    sims = sims.reshape(unconf.size, prototypes.rows.shape[0])

    proto = np.argmax(sims, axis=1)  # ties -> lowest class index
    d_max = sims[np.arange(unconf.size), proto]
    prior = ds.working_labels[unconf]
    small = d_max >= thresholds.alpha
    ring = ~small & (d_max >= thresholds.beta)
    p = np.where(small, 1.0, 0.0)
    p[ring] = correction_probability(d_max[ring], thresholds)

    differs = proto != prior
    corrected = small & differs
    drawn = ring & differs
    corrected[drawn] = rng.random(np.count_nonzero(drawn)) < p[drawn]
    moved = small | ring
    ds.working_labels[unconf[corrected]] = proto[corrected]

    # object arrays that hold the ZONES and ACTIONS strings themselves, so
    # every record shares those objects instead of holding fresh copies
    zone = np.array(ZONES, dtype=object)[np.select([small, ring], [0, 1], 2)]
    action = np.array(ACTIONS, dtype=object)[np.select([corrected, moved], [0, 1], 2)]
    # .tolist() gives Python scalars, whose repr the log CSV relies on
    log = [CorrectionRecord(*fields) for fields in zip(
        unconf.tolist(), d_max.tolist(), proto.tolist(), prior.tolist(),
        zone.tolist(), action.tolist(), p.tolist())]

    new_idx = np.concatenate([partition.confident_idx, unconf[moved]])
    new_labels = np.concatenate([partition.confident_labels,
                                 ds.working_labels[unconf[moved]]])
    order = np.argsort(new_idx)
    return Partition(new_idx[order], new_labels[order], unconf[~moved]), log


def correction_stats(log: list[CorrectionRecord], ds: NoisyDataset) -> StatsRow:
    """Small-circle correction quality, judged against the true labels."""
    for r in log:
        if not 0 <= r.index < ds.n:
            raise FormatError(f"log entry references index {r.index} outside dataset of {ds.n}")
    small = [r for r in log if r.zone == "small"]
    corrected = [r for r in small if r.action == "corrected"]
    right = sum(1 for r in corrected if r.proto_label == ds.true_labels[r.index])
    return StatsRow(
        unconfident_size=len(log),
        small_circle=len(small),
        corrected=len(corrected),
        right=right,
    )


def save_correction_log(log: list[CorrectionRecord], ds: NoisyDataset, path) -> None:
    """CSV export of a repartition log, one row per unconfident sample."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for r in log:
            writer.writerow([
                r.index, repr(r.d_max), r.proto_label, r.prior_label,
                r.zone, r.action, repr(r.p_correct), int(ds.true_labels[r.index]),
            ])


def load_correction_log(path) -> list[CorrectionRecord]:
    """Read a CSV written by :func:`save_correction_log`."""
    records: list[CorrectionRecord] = []
    first_line: dict[int, int] = {}  # index -> line that listed it
    reader = csv.reader(read_lines(path))
    header = next(reader, None)
    if header != list(LOG_COLUMNS):
        raise FormatError(f"{path}: bad header {header!r}")
    for lineno, row in enumerate(reader, start=2):
        where = f"{path} line {lineno}"
        if len(row) != len(LOG_COLUMNS):
            raise FormatError(f"{where}: expected {len(LOG_COLUMNS)} fields")
        try:
            rec = CorrectionRecord(
                index=int(row[0]),
                d_max=float(row[1]),
                proto_label=int(row[2]),
                prior_label=int(row[3]),
                zone=row[4],
                action=row[5],
                p_correct=float(row[6]),
            )
        except ValueError:
            raise FormatError(f"{where}: unparsable field") from None
        # only the outside zone leaves a sample unmoved
        if (rec.zone not in ZONES or rec.action not in ACTIONS
                or (rec.zone == "outside") != (rec.action == "unmoved")):
            raise FormatError(f"{where}: zone {rec.zone} cannot take action {rec.action}")
        if not (0.0 <= rec.p_correct <= 1.0 and -1.0 <= rec.d_max <= 1.0):
            raise FormatError(f"{where}: p_correct or d_max out of range")
        # repartition corrects exactly when the labels differ, except
        # in the ring, where a differing label may also be retained
        if rec.action == "corrected" and rec.proto_label == rec.prior_label:
            raise FormatError(f"{where}: corrected row keeps its label {rec.prior_label}")
        if (rec.zone, rec.action) == ("small", "retained") and rec.proto_label != rec.prior_label:
            raise FormatError(f"{where}: small-circle row retains a label "
                              f"that differs from its prototype's")
        if rec.index < 0:
            raise FormatError(f"{where}: negative index")
        if rec.index in first_line:
            raise FormatError(f"{where}: index {rec.index} repeats line "
                              f"{first_line[rec.index]}")
        first_line[rec.index] = lineno
        records.append(rec)
    return records
