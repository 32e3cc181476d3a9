"""Shared test helpers: value equality of the array-holding types, a partition
check, the scripts of ``tools/`` as modules, and a one-thread BLAS block.

``NoisyDataset``, ``Partition`` and ``Network`` compare by identity, so
tests that need value equality compare their arrays here.
"""

import contextlib
import dataclasses
import importlib.util
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
