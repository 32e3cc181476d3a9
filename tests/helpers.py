"""Shared test helpers: value equality of the array-holding types, a partition
check, the scripts of ``tools/`` as modules, a one-thread BLAS block, and
dataset files of the read-only v1 format and of broken v2 files.

``NoisyDataset``, ``Partition`` and ``Network`` compare by identity, so
tests that need value equality compare their arrays here.
"""

import contextlib
import dataclasses
import importlib.util
import io
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def same_arrays(a, b) -> bool:
    """True iff a and b have one dataclass type and equal fields, arrays elementwise."""
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))


def params_equal(a, b) -> bool:
    """True iff two networks have the same layer shapes and the same parameter values."""
    params_a, params_b = a.weights + a.biases, b.weights + b.biases
    # np.array_equal is False for arrays of different shapes
    return len(params_a) == len(params_b) and all(
        np.array_equal(x, y) for x, y in zip(params_a, params_b))


def covers_exactly(part, n: int) -> bool:
    """True iff the partition's mask is a read-only ``(n,)`` bool array and its
    confident and unconfident indices are the positions of its True and False."""
    mask = part.confident
    return (isinstance(mask, np.ndarray) and mask.shape == (n,) and mask.dtype == bool
            and not mask.flags.writeable
            and np.array_equal(part.confident_idx, np.flatnonzero(mask))
            and np.array_equal(part.unconfident_idx, np.flatnonzero(~mask)))


def load_tool(name: str):
    """The script ``tools/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def one_blas_thread():
    """numpy's bundled OpenBLAS at one thread inside the block; its count is restored after.

    At two or more threads OpenBLAS may split one product across them,
    which rounds some rows apart from a one-thread pass.  Under another
    BLAS the block runs as it is.
    """
    lib = load_tool("output_digests").openblas()
    if lib is None:
        yield
        return
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)


def write_v1_dataset(ds, path) -> None:
    """Write ``ds`` as a ``protosemi-dataset v1`` text file: ``np.savetxt`` at 17 digits."""
    np.savetxt(path, np.column_stack([ds.features, ds.working_labels, ds.true_labels]),
               fmt="%.17g", comments="",
               header=f"protosemi-dataset v1 n={ds.n} d={ds.dim} k={ds.num_classes}")


UNPICKLED = []  # what unpickling a Witness leaves


def _witness():
    UNPICKLED.append("unpickled")


class Witness:
    """An object whose unpickling appends to ``UNPICKLED``."""

    def __reduce__(self):
        return _witness, ()


def npy_record(array, version=(1, 0), header=None) -> bytes:
    """``array`` as one .npy record, or its data under the record header ``header``."""
    out = io.BytesIO()
    if header is None:
        np.lib.format.write_array(out, array, version=version, allow_pickle=True)
    else:
        np.lib.format.write_array_header_1_0(out, header)
        out.write(array.tobytes())
    return out.getvalue()


def bad_v2_files(ds) -> dict:
    """Name -> bytes of a v2 dataset file made from ``ds`` that breaks one rule."""
    f, w, t = ds.features, ds.working_labels, ds.true_labels
    n, d, k = ds.n, ds.dim, ds.num_classes

    def v2(*records, n=n) -> bytes:
        """The header line, then each record: an array written by numpy, or bytes as given."""
        return b"".join([f"protosemi-dataset v2 n={n} d={d} k={k}\n".encode(),
                         *(r if isinstance(r, bytes) else npy_record(r) for r in records)])

    bad_f, bad_w = f.copy(), w.copy()
    bad_f[-1, -1], bad_w[-1] = np.nan, k
    big = 10 ** 9  # more rows than any test file holds
    claim = {"fortran_order": False, "shape": (big,)}
    return {
        "truncated_record": v2(f, w, t)[:-3],
        "truncated_header": v2(f, w, t)[:len(v2(f)) + 20],
        "trailing_byte": v2(f, w, t) + b"\n",
        "object_dtype": v2(np.full((n, d), Witness(), dtype=object), w, t),
        "big_endian": v2(f.astype(">f8"), w, t),
        "fortran_order": v2(np.asfortranarray(f), w, t),
        "int32_labels": v2(f, w.astype("<i4"), t),
        "short_labels": v2(f, w, t[:-1]),
        "wide_features": v2(np.hstack([f, f[:, :1]]), w, t),
        "npy_version_2": v2(npy_record(f, version=(2, 0)), w, t),
        "n_past_the_file": v2(npy_record(f, header={**claim, "descr": "<f8", "shape": (big, d)}),
                              npy_record(w, header={**claim, "descr": "<i8"}),
                              npy_record(t, header={**claim, "descr": "<i8"}), n=big),
        "nonfinite_feature": v2(bad_f, w, t),
        "label_out_of_range": v2(f, bad_w, t),
    }
