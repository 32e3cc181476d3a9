"""Shared test helpers: value equality of the array-holding types, and a partition check.

``NoisyDataset``, ``Partition`` and ``Network`` compare by identity, so
tests that need value equality compare their arrays here.
"""

import dataclasses

import numpy as np


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
    """True iff the partition's confident and unconfident indices together tile {0..n-1}."""
    merged = np.concatenate([part.confident_idx, part.unconfident_idx])
    return merged.size == n and np.array_equal(np.sort(merged), np.arange(n))
