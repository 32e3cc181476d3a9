"""Synthetic labeled datasets with controllable annotation noise.

A dataset is three parallel arrays: feature vectors, the *working*
labels the learner sees (possibly corrupted, and mutable under label
correction), and the hidden *true* labels kept only for evaluation and
correction statistics.  ``NOISE_MODELS`` names the two corruption models:
factual noise (uniformly random wrong labels on uniformly chosen samples)
and ambiguity noise (flips on the samples of lowest ``class_margin``).
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError
from .net import require_int, require_labels, require_real, seeded_rng

DATASET_HEADER = "protosemi-dataset"


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
        if self.features.ndim != 2 or self.features.shape[0] < 1 or self.features.shape[1] < 1:
            raise ParameterError("features must be a nonempty (n, dim) array")
        if not np.all(np.isfinite(self.features)):
            raise ParameterError("features must be finite")
        require_int("num_classes", self.num_classes, 2)
        # checked as given, so no float or bool label is truncated; copied, so a correction
        # written in place reaches neither the true labels nor the caller's array
        n, k = self.n, self.num_classes
        self.working_labels = require_labels("working", self.working_labels, n, k).copy()
        self.true_labels = require_labels("true", self.true_labels, n, k).copy()
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
    require_real("separation", separation, 0, math.inf, "()")
    require_real("spread", spread, 0, math.inf, "()")

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
    return NoisyDataset(np.vstack(blocks), true, true, num_classes)


def _require_clean(ds: NoisyDataset, rate: float, seed: int) -> tuple[int, np.random.Generator]:
    """Check the rate, that ``ds`` is clean, and the seed; (round(rate * n), seeded rng)."""
    require_real("rate", rate, 0, 1, "[]")
    if np.any(ds.working_labels != ds.true_labels):
        raise ParameterError("noise injection requires a clean dataset (working == true)")
    return round_half_away(rate * ds.n), seeded_rng(seed)


def _relabeled(ds: NoisyDataset, rows: np.ndarray, labels: np.ndarray) -> NoisyDataset:
    """A copy of the clean ``ds`` whose working labels at ``rows`` are ``labels``."""
    working = ds.true_labels.copy()
    working[rows] = labels
    return NoisyDataset(ds.features.copy(), working, ds.true_labels, ds.num_classes)


def class_margin(ds: NoisyDataset) -> tuple[np.ndarray, np.ndarray]:
    """(margin, nearest other class) of each sample, from the true-label centroids.

    The margin is the distance to the nearest other centroid minus that to its own,
    so low means close to, or past, a boundary; ties go to the lowest class index.
    """
    centroids = np.stack([ds.features[ds.true_labels == c].mean(axis=0)
                          for c in range(ds.num_classes)])
    dists = np.linalg.norm(ds.features[:, None, :] - centroids[None, :, :], axis=2)
    rows = np.arange(ds.n)
    own = dists[rows, ds.true_labels]
    dists[rows, ds.true_labels] = np.inf
    nearest_other = np.argmin(dists, axis=1)
    return dists[rows, nearest_other] - own, nearest_other


def inject_factual_noise(ds: NoisyDataset, rate: float, seed: int) -> NoisyDataset:
    """Flip exactly round(rate * n) uniformly chosen labels to wrong classes.

    The replacement label is uniform over the other classes.  Flip
    targets are drawn without replacement; the relabel offsets come from
    one bulk draw, which gives the same values as one draw per flipped
    sample in ascending sample-index order.
    """
    num_flips, rng = _require_clean(ds, rate, seed)
    chosen = np.sort(rng.choice(ds.n, size=num_flips, replace=False))
    offsets = rng.integers(ds.num_classes - 1, size=chosen.size)
    return _relabeled(ds, chosen, offsets + (offsets >= ds.true_labels[chosen]))


def inject_ambiguity_noise(ds: NoisyDataset, rate: float, seed: int) -> NoisyDataset:
    """Flip the round(rate * n) most boundary-ambiguous samples.

    The samples of lowest ``class_margin`` (ties broken by sample index)
    are relabeled to their nearest other class.
    """
    num_flips, _ = _require_clean(ds, rate, seed)  # the seed is checked; the flips draw nothing
    margin, nearest_other = class_margin(ds)
    flip = np.lexsort((np.arange(ds.n), margin))[:num_flips]
    return _relabeled(ds, flip, nearest_other[flip])


NOISE_MODELS = {"factual": inject_factual_noise, "ambiguity": inject_ambiguity_noise}


def split_heldout(ds: NoisyDataset, fraction: float, seed: int) -> tuple[NoisyDataset, NoisyDataset]:
    """Carve a class-stratified held-out set; returns (train, heldout).

    Every class keeps at least one sample on each side, so both halves
    remain valid datasets.
    """
    require_real("fraction", fraction, 0, 1, "()")
    rng = seeded_rng(seed)
    held_mask = np.zeros(ds.n, dtype=bool)
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.true_labels == c)
        if len(idx) < 2:
            raise ParameterError(f"class {c} has fewer than 2 samples; cannot split")
        take = min(max(round_half_away(fraction * len(idx)), 1), len(idx) - 1)
        held_mask[rng.permutation(idx)[:take]] = True

    def _subset(mask: np.ndarray) -> NoisyDataset:
        return NoisyDataset(ds.features[mask], ds.working_labels[mask], ds.true_labels[mask],
                            ds.num_classes)

    return _subset(~held_mask), _subset(held_mask)


# .npy format 1.0, and the (name, dtype) of each record after a v2 header line
_NPY_MAGIC = b"\x93NUMPY\x01\x00"
_RECORDS = (("features", "<f8"), ("working label", "<i8"), ("true label", "<i8"))


def save_dataset(ds: NoisyDataset, path) -> None:
    """Write ``protosemi-dataset v2``: the header line, then one ``.npy`` record per array.

    See ``load_dataset``.  The features go out as ``<f8`` in C order and
    the labels as ``<i8``, so every value reads back bit for bit.
    """
    with open(path, "wb") as fh:
        fh.write(f"{_header_line('v2', ds.n, ds.dim, ds.num_classes)}\n".encode("ascii"))
        for array, (_, dtype) in zip((ds.features, ds.working_labels, ds.true_labels), _RECORDS):
            np.lib.format.write_array(fh, np.ascontiguousarray(array, dtype), version=(1, 0),
                                      allow_pickle=False)


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


_FLOATS = (float, np.floating)


def csv_line(values) -> str:
    """One CSV row of the package's text rule: a float as its repr, anything else as its str."""
    return ",".join([repr(float(v)) if isinstance(v, _FLOATS) else str(v) for v in values])


def write_lines(path, lines) -> None:
    r"""Write ASCII ``lines``, each ending in "\n": the line end ``read_lines`` reads."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _line_count(path) -> int:
    """Lines up to the last non-blank one, from one pass over ``_chunks``."""
    lines = last = 0
    for chunk, breaks in _chunks(path):
        body = len(chunk.rstrip(b" \t\r\n"))
        if body:
            last = lines + breaks - chunk.count(b"\n", body) + 1
        lines += breaks
    return last


def _header_line(version: str, n: int, d: int, k: int) -> str:
    """The first line of a dataset file, less its line end; its only spelling."""
    return f"{DATASET_HEADER} {version} n={n} d={d} k={k}"


_HEADER_FIELDS = re.compile(r"\S+ (v1|v2) n=(\d+) d=(\d+) k=(\d+)")


def _parse_header(path, line: str) -> tuple[str, int, int, int]:
    """(version, n, d, k) of the first line of file ``path``, if ``_header_line`` spells it so."""
    if found := _HEADER_FIELDS.fullmatch(line):
        version, n, d, k = found[1], *map(int, found.groups()[1:])
    if not found or line != _header_line(version, n, d, k):
        raise FormatError(f"{path} line 1: bad header {line!r}")
    if n < 1 or d < 1 or k < 2:
        raise FormatError(f"{path} line 1: header sizes out of range (n={n} d={d} k={k})")
    return version, n, d, k


def load_dataset(path) -> NoisyDataset:
    """Read a dataset file of either format; its first line names which.

    ``protosemi-dataset v2 n=<n> d=<D> k=<K>``, which ``save_dataset``
    writes, is followed by three ``.npy`` 1.0 records and nothing else:
    the features, ``<f8`` (n, D) in C order, then the working and the true
    labels, each ``<i8`` (n,).  No record is unpickled.  ``protosemi-dataset
    v1``, the text format, is read only: n records follow, one a line, of D
    floats, the working label and the true label; trailing blank lines are
    ignored.  A malformed file is a :class:`FormatError` naming it, and the
    line for v1 or for a first line that ``_header_line`` would not write.
    """
    with open(path, "rb") as fh:
        if not (line := fh.readline(256)):
            raise FormatError(f"{path}: empty file")
        text = line.decode("latin-1").removesuffix("\n").removesuffix("\r")
        version, n, d, k = _parse_header(path, text)
        arrays = (_read_v2_records(path, fh, n, d) if version == "v2"
                  else _read_v1_records(path, n, d, k))
    try:
        return NoisyDataset(*arrays, num_classes=k)
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _read_v2_records(path, fh, n: int, d: int):
    """(features, working, true) of the v2 records after line 1; each record's data is read only
    once its header and the file's size check out, so a forged size allocates nothing."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    arrays = []
    for (name, dtype), shape in zip(_RECORDS, ((n, d), (n,), (n,))):
        want = f"{{'descr': '{dtype}', 'fortran_order': False, 'shape': {shape}, }}"
        lead = fh.read(len(_NPY_MAGIC) + 2)
        if lead[:-2] != _NPY_MAGIC:
            raise FormatError(f"{path}: the {name} record is not a .npy 1.0 record")
        header = fh.read(int.from_bytes(lead[-2:], "little"))
        if (found := header.decode("latin-1").rstrip(" \n")) != want:
            raise FormatError(f"{path}: the {name} record's header is {found[:200]!r}, "
                              f"expected {want}")
        left -= len(lead) + len(header) + 8 * math.prod(shape)
        if left < 0:
            raise FormatError(f"{path}: the {name} record is truncated")
        arrays.append(np.fromfile(fh, dtype, math.prod(shape)).reshape(shape))
    if left:
        raise FormatError(f"{path}: {left} more byte(s) after the true label record")
    return arrays


def _read_v1_records(path, n: int, d: int, k: int):
    """(features, working, true) of the n records of the v1 text file ``path``, by token."""
    if (found := _line_count(path) - 1) != n:
        raise FormatError(f"{path}: expected {n} records, found {found}")
    features = np.empty((n, d), dtype=np.float64)
    working = np.empty(n, dtype=np.int64)
    true = np.empty(n, dtype=np.int64)
    lines = read_lines(path)
    next(lines)  # the header, already parsed
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
