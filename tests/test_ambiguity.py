"""The benchmark ordering and correction quality under ambiguity noise.

Acceptance criteria 4 and 5 run on factual noise (uniform random flips).
The paper's claim is that prototype distance also handles ambiguity
noise, where the flipped samples are the ones closest to a class
boundary.  This reruns their fixture with ``inject_ambiguity_noise``.
Thresholds come from a measurement on seeds 0-4 before any code change:
mean final accuracy 0.9955 full, 0.8480 no_repar, 0.8835 no_semi, and
227 of 233 small-circle corrections right.  Single seeds vary (seed 1
is 43 of 49), so only means and pooled counts are asserted.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from protosemi.cli import parse_config_file
from protosemi.data import generate_blobs, inject_ambiguity_noise, split_heldout
from protosemi.pipeline import run_with_artifacts

BENCHMARK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark.cfg"
SEEDS = (0, 1, 2, 3, 4)
VARIANTS = ("full", "no_repar", "no_semi")


@pytest.fixture(scope="module")
def ambiguity_runs():
    config = parse_config_file(BENCHMARK_CONFIG)
    runs = {}
    for seed in SEEDS:
        clean = generate_blobs(4, 500, 16, 6.0, 1.0, seed)
        train, heldout = split_heldout(clean, 0.2, seed)
        train = inject_ambiguity_noise(train, 0.3, seed)
        seeded = dataclasses.replace(config, seed=seed)
        runs[seed] = {v: run_with_artifacts(train, heldout, seeded, v).report
                      for v in VARIANTS}
    return runs


def mean_final(runs, variant):
    return float(np.mean([r[variant].final_accuracy for r in runs.values()]))


def test_full_beats_supervised_baseline(ambiguity_runs):
    full, no_semi = mean_final(ambiguity_runs, "full"), mean_final(ambiguity_runs, "no_semi")
    assert full >= no_semi + 0.05, f"full={full:.4f} no_semi={no_semi:.4f}"


def test_full_at_least_no_repar(ambiguity_runs):
    full, no_repar = mean_final(ambiguity_runs, "full"), mean_final(ambiguity_runs, "no_repar")
    assert full >= no_repar, f"full={full:.4f} no_repar={no_repar:.4f}"


def test_pooled_small_circle_accuracy(ambiguity_runs):
    stats = [c.stats for r in ambiguity_runs.values() for c in r["full"].corrections]
    right = sum(s.right for s in stats)
    corrected = sum(s.corrected for s in stats)
    assert corrected > 0
    assert right >= 0.9 * corrected, f"{right} of {corrected} right"
