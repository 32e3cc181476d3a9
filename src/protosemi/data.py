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
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError
from .net import is_real, require_int, seeded_rng

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
        require_int("num_classes", self.num_classes, 2)
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


def generate_blobs(num_classes: int, per_class: int, dim: int,
                   separation: float, spread: float, seed: int) -> NoisyDataset:
    """Sample one isotropic Gaussian cluster per class, labels clean.

    Cluster centers are random unit directions rescaled so the closest
    pair of centers is exactly ``separation`` apart; every point of
    class k is ``center_k + spread * g`` with g standard normal.
    Deterministic for a fixed seed.
    """
    for name, value, low in (("num_classes", num_classes, 2), ("per_class", per_class, 1),
                             ("dim", dim, 2)):
        require_int(name, value, low)
    for name, value in (("separation", separation), ("spread", spread)):
        if not is_real(value) or not value > 0:
            raise ParameterError(f"{name} must be positive, got {value!r}")

    rng = seeded_rng(seed)
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
    if not is_real(rate) or not 0.0 <= rate <= 1.0:
        raise ParameterError(f"rate must lie in [0, 1], got {rate!r}")
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
    rng = seeded_rng(seed)
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
    seeded_rng(seed)  # checks the seed as every seeded function does; the flips draw nothing
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
    if not is_real(fraction) or not 0.0 < fraction < 1.0:
        raise ParameterError(f"fraction must lie strictly between 0 and 1, got {fraction!r}")
    rng = seeded_rng(seed)
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


_SAVE_BLOCK_ROWS = 512


def save_dataset(ds: NoisyDataset, path) -> None:
    """Write the line-oriented text format; see ``load_dataset``.

    The bytes are those of ``np.savetxt`` with ``FLOAT_FMT``, written
    one block of rows per ``%`` call instead of one row per call.
    Blocks keep the Python floats and text held at once small.
    """
    # %.17g prints the integer-valued label columns as bare integers
    table = np.column_stack([ds.features, ds.working_labels, ds.true_labels])
    row = " ".join([FLOAT_FMT] * table.shape[1]) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{DATASET_HEADER} v1 n={ds.n} d={ds.dim} k={ds.num_classes}\n")
        for start in range(0, ds.n, _SAVE_BLOCK_ROWS):
            block = table[start:start + _SAVE_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _header_field(path, token: str, key: str) -> int:
    prefix = key + "="
    if not token.startswith(prefix):
        raise FormatError(f"{path} line 1: header field {token!r} should look like {key}=<int>")
    try:
        return int(token[len(prefix):])
    except ValueError:
        raise FormatError(f"{path} line 1: header field {token!r} is not an integer") from None


# the bytes that read_lines forbids, and the first byte that breaks its rule
_CONTROL = tuple(b for b in range(32) if b not in b"\t\n\r") + (0x7f,)
_BAD_BYTE = re.compile(rb"[^\t\n\r -~]|\r(?!\n)")
_SCAN_CHUNK = 1 << 16


def _chunks(path):
    r"""(bytes, count of "\n") of a file in chunks that keep the rule of ``read_lines``.

    No chunk ends inside "\r\n"; one that fails the fast test is searched for its bad byte.
    """
    line = 1
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_CHUNK):
            if chunk.endswith(b"\r"):
                chunk += fh.read(1)
            if not (chunk.isascii() and not any(b in chunk for b in _CONTROL)
                    and (b"\r" not in chunk or chunk.count(b"\r") == chunk.count(b"\r\n"))):
                at = _BAD_BYTE.search(chunk).start()
                kind = "non-ASCII" if chunk[at] > 0x7f else "control"
                line += chunk.count(b"\n", 0, at)
                raise FormatError(f"{path} line {line}: {kind} byte 0x{chunk[at]:02x}")
            yield chunk, (breaks := chunk.count(b"\n"))
            line += breaks


def read_lines(path):
    r"""Yield the lines of a text file, each with its line ending.

    The one rule for every text file this package reads: it is ASCII, a
    line ends at "\n", optionally after one "\r", and it holds no other
    control byte but tab.  A byte that breaks it is a FormatError naming
    its line, raised before any line of its chunk is yielded.
    """
    tail = ""
    for chunk, _ in _chunks(path):
        # checked text holds no line break but "\n" and "\r\n"
        lines = (tail + chunk.decode("ascii")).splitlines(keepends=True)
        tail = "" if lines[-1].endswith("\n") else lines.pop()
        yield from lines
    if tail:
        yield tail


def _line_count(path) -> int:
    """Lines up to the last non-blank one, from one pass over ``_chunks``."""
    lines = last = 0
    for chunk, breaks in _chunks(path):
        body = len(chunk.rstrip(b" \t\r\n"))
        if body:
            last = lines + breaks - chunk.count(b"\n", body) + 1
        lines += breaks
    return last


def _parse_header(path, line: str, records: int) -> tuple[int, int, int]:
    """(n, d, k) from the first line of file ``path`` with ``records`` lines after it."""
    header = line.split()
    if len(header) != 5 or header[0] != DATASET_HEADER or header[1] != "v1":
        raise FormatError(f"{path} line 1: bad header {line!r}")
    n, d, k = (_header_field(path, token, key) for token, key in zip(header[2:], "ndk"))
    if n < 1 or d < 1 or k < 2:
        raise FormatError(f"{path} line 1: header sizes out of range (n={n} d={d} k={k})")
    if records != n:
        raise FormatError(f"{path}: expected {n} records, found {records}")
    return n, d, k


def load_dataset(path) -> NoisyDataset:
    """Read a dataset file.

    Format: header ``protosemi-dataset v1 n=<n> d=<D> k=<K>`` followed by
    n records of D floats, the working label, and the true label, all
    whitespace separated; trailing blank lines are ignored.  A malformed
    file is a :class:`FormatError` naming its line.  One scan checks the
    bytes (see ``read_lines``) and counts the lines; the file then streams
    into one array pass, and the line parser reads it only if that fails.
    """
    count = _line_count(path)
    if not count:
        raise FormatError(f"{path}: empty file")
    # universal newlines: a CRLF file streams as its LF copy would
    with open(path, encoding="ascii", newline=None) as fh:
        n, d, k = _parse_header(path, fh.readline().removesuffix("\n"), count - 1)
        arrays = _parse_records_at_once(fh, d, k, n)
    if arrays is None:
        lines = read_lines(path)
        next(lines)  # the header
        arrays = _parse_records_by_line(path, lines, d, k, n)
    try:
        return NoisyDataset(*arrays, num_classes=k)
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _parse_records_at_once(fh, d: int, k: int, n: int):
    """(features, working, true) of n records from one ``np.loadtxt`` pass, or None.

    ``fh`` is a text file positioned at the first record.  None when
    the records hold anything the line parser might read differently or
    reject: a token loadtxt refuses, a blank line (which loadtxt skips),
    a non-finite feature or a label out of range.  Both parse floats with
    ``PyOS_string_to_double`` and split at spaces and tabs, the only
    whitespace ``read_lines`` lets through, so when this accepts, the
    line parser gives equal arrays.
    """
    dtype = np.dtype([("features", np.float64, (d,)),
                      ("working", np.int64), ("true", np.int64)])
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 reads a label such as "3.0" with a DeprecationWarning
            warnings.simplefilter("error")
            rows = np.loadtxt(fh, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if rows.shape != (n,) or not np.isfinite(rows["features"]).all():
        return None
    working, true = rows["working"], rows["true"]
    if min(working.min(), true.min()) < 0 or max(working.max(), true.max()) >= k:
        return None
    return rows["features"].copy(), working, true


def _parse_records_by_line(path, lines, d: int, k: int, n: int):
    """(features, working, true) of the n records ``lines`` yields from ``path``, by token."""
    features = np.empty((n, d), dtype=np.float64)
    working = np.empty(n, dtype=np.int64)
    true = np.empty(n, dtype=np.int64)
    for i, line in zip(range(n), lines):
        where = f"{path} line {i + 2}"
        parts = line.split()
        if len(parts) != d + 2:
            raise FormatError(f"{where}: expected {d + 2} fields, got {len(parts)}")
        try:
            row = [float(p) for p in parts[:d]]
        except ValueError:
            raise FormatError(f"{where}: unparsable feature value") from None
        if not all(math.isfinite(v) for v in row):
            raise FormatError(f"{where}: non-finite feature value")
        try:
            w, t = int(parts[d]), int(parts[d + 1])
        except ValueError:
            raise FormatError(f"{where}: unparsable label") from None
        for name, label in (("working", w), ("true", t)):
            if not 0 <= label < k:
                raise FormatError(f"{where}: {name} label {label} out of range for k={k}")
        features[i], working[i], true[i] = row, w, t
    return features, working, true
