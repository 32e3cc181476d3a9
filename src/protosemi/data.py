"""Synthetic labeled datasets with controllable annotation noise.

A dataset is three parallel arrays: feature vectors, the *working*
labels the learner sees (possibly corrupted, and mutable under label
correction), and the hidden *true* labels kept only for evaluation and
correction statistics.  Two corruption models are provided: factual
noise (uniformly random wrong labels on uniformly chosen samples) and
ambiguity noise (flips concentrated on samples near class boundaries).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError

DATASET_HEADER = "protosemi-dataset"
FLOAT_FMT = "%.17g"  # 17 significant digits round-trips any float64 exactly


def round_half_away(x: float) -> int:
    """Round with halves away from zero (2.5 -> 3), not banker's rounding."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return -int(math.floor(-x + 0.5))


@dataclass(eq=False)
class NoisyDataset:
    """Feature vectors with mutable working labels and fixed true labels."""

    features: np.ndarray        # (n, dim) float64
    working_labels: np.ndarray  # (n,) int64, mutated by label correction
    true_labels: np.ndarray     # (n,) int64, evaluation only
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        # copies: a correction writes working labels in place, and must
        # reach neither the true labels nor the caller's array
        self.working_labels = np.array(self.working_labels, dtype=np.int64)
        self.true_labels = np.array(self.true_labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1 or self.features.shape[1] < 1:
            raise ParameterError("features must be a nonempty (n, dim) array")
        if not np.all(np.isfinite(self.features)):
            raise ParameterError("features must be finite")
        n = self.features.shape[0]
        if self.num_classes < 2:
            raise ParameterError("num_classes must be at least 2")
        for name, labels in (("working", self.working_labels), ("true", self.true_labels)):
            if labels.shape != (n,):
                raise ParameterError(f"{name} labels must have shape ({n},)")
            if labels.min() < 0 or labels.max() >= self.num_classes:
                raise ParameterError(f"{name} labels must lie in [0, {self.num_classes})")
        counts = np.bincount(self.true_labels, minlength=self.num_classes)
        if np.any(counts == 0):
            missing = int(np.argmin(counts))
            raise ParameterError(f"class {missing} has no samples among the true labels")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def noise_rate(self) -> float:
        """Fraction of samples whose working label differs from the true one."""
        return float(np.mean(self.working_labels != self.true_labels))

    def copy(self) -> "NoisyDataset":
        return NoisyDataset(self.features.copy(), self.working_labels,
                            self.true_labels, self.num_classes)

    def __eq__(self, other):
        if not isinstance(other, NoisyDataset):
            return NotImplemented
        return (
            self.num_classes == other.num_classes
            and self.features.shape == other.features.shape
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.working_labels, other.working_labels)
            and np.array_equal(self.true_labels, other.true_labels)
        )


def generate_blobs(num_classes: int, per_class: int, dim: int,
                   separation: float, spread: float, seed: int) -> NoisyDataset:
    """Sample one isotropic Gaussian cluster per class, labels clean.

    Cluster centers are random unit directions rescaled so the closest
    pair of centers is exactly ``separation`` apart; every point of
    class k is ``center_k + spread * g`` with g standard normal.
    Deterministic for a fixed seed.
    """
    if num_classes < 2:
        raise ParameterError("num_classes must be at least 2")
    if per_class < 1:
        raise ParameterError("per_class must be at least 1")
    if dim < 2:
        raise ParameterError("dim must be at least 2")
    if not separation > 0:
        raise ParameterError("separation must be positive")
    if not spread > 0:
        raise ParameterError("spread must be positive")

    rng = np.random.default_rng(seed)
    directions: list[np.ndarray] = []
    while len(directions) < num_classes:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        u = v / norm
        # reject near-duplicates so the rescaling below stays bounded
        if all(np.linalg.norm(u - w) > 1e-3 for w in directions):
            directions.append(u)
    dirs = np.array(directions)
    gaps = [
        np.linalg.norm(dirs[i] - dirs[j])
        for i in range(num_classes)
        for j in range(i + 1, num_classes)
    ]
    centers = dirs * (separation / min(gaps))

    blocks = [
        centers[k] + spread * rng.standard_normal((per_class, dim))
        for k in range(num_classes)
    ]
    true = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return NoisyDataset(
        features=np.vstack(blocks),
        working_labels=true,
        true_labels=true,
        num_classes=num_classes,
    )


def _require_clean(ds: NoisyDataset, rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ParameterError("rate must lie in [0, 1]")
    if np.any(ds.working_labels != ds.true_labels):
        raise ParameterError("noise injection requires a clean dataset (working == true)")


def inject_factual_noise(ds: NoisyDataset, rate: float, seed: int) -> NoisyDataset:
    """Flip exactly round(rate * n) uniformly chosen labels to wrong classes.

    The replacement label is uniform over the other classes.  Flip
    targets are drawn without replacement; the relabel offsets come from
    one bulk draw, which gives the same values as one draw per flipped
    sample in ascending sample-index order.
    """
    _require_clean(ds, rate)
    rng = np.random.default_rng(seed)
    n, k = ds.n, ds.num_classes
    num_flips = round_half_away(rate * n)
    chosen = np.sort(rng.choice(n, size=num_flips, replace=False))
    working = ds.true_labels.copy()
    offsets = rng.integers(k - 1, size=chosen.size)
    working[chosen] = offsets + (offsets >= working[chosen])
    return NoisyDataset(
        features=ds.features.copy(),
        working_labels=working,
        true_labels=ds.true_labels,
        num_classes=k,
    )


def inject_ambiguity_noise(ds: NoisyDataset, rate: float, seed: int) -> NoisyDataset:
    """Flip the round(rate * n) most boundary-ambiguous samples.

    Each sample's margin is its distance to the nearest other-class
    centroid minus the distance to its own true-class centroid
    (centroids from true labels), so low margin means close to, or past,
    a decision boundary.  The lowest-margin samples (ties broken by
    sample index) are relabeled to their nearest other class.
    """
    _require_clean(ds, rate)
    n, k = ds.n, ds.num_classes
    num_flips = round_half_away(rate * n)

    centroids = np.stack([
        ds.features[ds.true_labels == c].mean(axis=0) for c in range(k)
    ])
    dists = np.linalg.norm(ds.features[:, None, :] - centroids[None, :, :], axis=2)
    own = dists[np.arange(n), ds.true_labels]
    others = dists.copy()
    others[np.arange(n), ds.true_labels] = np.inf
    nearest_other = np.argmin(others, axis=1)  # ties -> lowest class index
    margin = others[np.arange(n), nearest_other] - own

    order = np.lexsort((np.arange(n), margin))
    flip = order[:num_flips]
    working = ds.true_labels.copy()
    working[flip] = nearest_other[flip]
    return NoisyDataset(
        features=ds.features.copy(),
        working_labels=working,
        true_labels=ds.true_labels,
        num_classes=k,
    )


def split_heldout(ds: NoisyDataset, fraction: float, seed: int) -> tuple[NoisyDataset, NoisyDataset]:
    """Carve a class-stratified held-out set; returns (train, heldout).

    Every class keeps at least one sample on each side, so both halves
    remain valid datasets.
    """
    if not 0.0 < fraction < 1.0:
        raise ParameterError("fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    held_mask = np.zeros(ds.n, dtype=bool)
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.true_labels == c)
        if len(idx) < 2:
            raise ParameterError(f"class {c} has fewer than 2 samples; cannot split")
        take = min(max(round_half_away(fraction * len(idx)), 1), len(idx) - 1)
        held_mask[rng.permutation(idx)[:take]] = True

    def _subset(mask: np.ndarray) -> NoisyDataset:
        return NoisyDataset(
            features=ds.features[mask],
            working_labels=ds.working_labels[mask],
            true_labels=ds.true_labels[mask],
            num_classes=ds.num_classes,
        )

    return _subset(~held_mask), _subset(held_mask)


def save_dataset(ds: NoisyDataset, path) -> None:
    """Write the line-oriented text format; see ``load_dataset``."""
    # %.17g prints the integer-valued label columns as bare integers
    np.savetxt(path, np.column_stack([ds.features, ds.working_labels, ds.true_labels]),
               fmt=FLOAT_FMT, comments="",
               header=f"{DATASET_HEADER} v1 n={ds.n} d={ds.dim} k={ds.num_classes}")


def _header_field(token: str, key: str) -> int:
    prefix = key + "="
    if not token.startswith(prefix):
        raise FormatError(f"header field {token!r} should look like {key}=<int>")
    try:
        return int(token[len(prefix):])
    except ValueError:
        raise FormatError(f"header field {token!r} is not an integer") from None


def read_ascii(path) -> str:
    """The text of an ASCII file; any other byte is a FormatError naming its line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        # the bad byte ends the last line of this prefix
        line = len(raw[:exc.start + 1].splitlines())
        raise FormatError(
            f"{path} line {line}: non-ASCII byte 0x{raw[exc.start]:02x}") from None


def load_dataset(path) -> NoisyDataset:
    """Read a dataset file.

    Format: header ``protosemi-dataset v1 n=<n> d=<D> k=<K>`` followed by
    n records of D floats, the working label, and the true label, all
    whitespace separated.  Raises :class:`FormatError` naming the
    offending line on any malformed content: the records are parsed in
    one array pass, and line by line only when that pass fails.
    """
    lines = read_ascii(path).splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != DATASET_HEADER or header[1] != "v1":
        raise FormatError(f"line 1: bad header {lines[0]!r}")
    n = _header_field(header[2], "n")
    d = _header_field(header[3], "d")
    k = _header_field(header[4], "k")
    if n < 1 or d < 1 or k < 2:
        raise FormatError(f"line 1: header sizes out of range (n={n} d={d} k={k})")
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} records, found {len(lines) - 1}")

    arrays = _parse_records_at_once(lines[1:], d, k)
    if arrays is None:
        arrays = _parse_records_by_line(lines[1:], d, k)
    try:
        return NoisyDataset(*arrays, num_classes=k)
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _parse_records_at_once(records: list[str], d: int, k: int):
    """(features, working, true) from one ``np.loadtxt`` pass, or None.

    None when the records hold anything the line parser might read
    differently or reject: a token loadtxt refuses, a blank line (which
    loadtxt skips), a non-finite feature or a label out of range.  Both
    parse floats with ``PyOS_string_to_double`` and split on the same
    whitespace, so when this accepts, the line parser gives equal arrays.
    """
    dtype = np.dtype([("features", np.float64, (d,)),
                      ("working", np.int64), ("true", np.int64)])
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 reads a label such as "3.0" with a DeprecationWarning
            warnings.simplefilter("error")
            rows = np.loadtxt(records, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if rows.shape != (len(records),) or not np.isfinite(rows["features"]).all():
        return None
    working, true = rows["working"], rows["true"]
    if min(working.min(), true.min()) < 0 or max(working.max(), true.max()) >= k:
        return None
    return rows["features"].copy(), working, true


def _parse_records_by_line(records: list[str], d: int, k: int):
    """(features, working, true), one token at a time; the FormatError names the line."""
    n = len(records)
    features = np.empty((n, d), dtype=np.float64)
    working = np.empty(n, dtype=np.int64)
    true = np.empty(n, dtype=np.int64)
    for i, line in enumerate(records):
        lineno = i + 2
        parts = line.split()
        if len(parts) != d + 2:
            raise FormatError(f"line {lineno}: expected {d + 2} fields, got {len(parts)}")
        try:
            row = [float(p) for p in parts[:d]]
        except ValueError:
            raise FormatError(f"line {lineno}: unparsable feature value") from None
        if not all(math.isfinite(v) for v in row):
            raise FormatError(f"line {lineno}: non-finite feature value")
        try:
            w, t = int(parts[d]), int(parts[d + 1])
        except ValueError:
            raise FormatError(f"line {lineno}: unparsable label") from None
        if not 0 <= w < k:
            raise FormatError(f"line {lineno}: working label {w} out of range for k={k}")
        if not 0 <= t < k:
            raise FormatError(f"line {lineno}: true label {t} out of range for k={k}")
        features[i] = row
        working[i] = w
        true[i] = t
    return features, working, true
