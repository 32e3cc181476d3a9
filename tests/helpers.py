"""Shared test helper: field-by-field equality of the array-holding dataclasses.

``NoisyDataset`` and ``Partition`` compare by identity, so tests that
need value equality compare their fields here.
"""

import dataclasses

import numpy as np


def same_arrays(a, b) -> bool:
    """True iff a and b have one dataclass type and equal fields, arrays elementwise."""
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
