"""Sweep the method over dataset size, noise type, variant and data seed.

    python tools/sweep.py [--sizes N ...] [--noise TYPE ...] [--seeds LIST] [--out PATH]

For every size n (training rows), noise type and data seed, this makes
the dataset ``gen-data --per-class 5n/16 --rate 0.3 --seed SEED --noise
TYPE --heldout-out ...`` writes (4 classes, a clean 20% held out, so n
training rows), and trains variants ``full`` and ``no_repar`` on it with
``configs/benchmark.cfg`` and ``seed`` set to the data seed, in this
process, with BLAS pinned to one thread.

Defaults: sizes 1600 (seeds 0-99) and 10000 (seeds 1-8), every noise
type of ``protosemi.data.NOISE_MODELS``.  ``--seeds`` (e.g. ``0-99`` or
``4,5``) replaces the seeds of every size.

It prints one row per (size, noise, variant) cell: the runs, the runs
that abort (exit code 3 from ``protosemi train``), the runs that finish
below 0.90 held-out accuracy, and the median, mean and quartiles (q1,
q3; inclusive method, none below two runs) of the final accuracy of the
runs that finish.  An abort is counted; it does not stop the sweep.
The first line, ``env numpy=... openblas_kernel=... nproc=...``, names
the numpy version, the OpenBLAS kernel and the CPUs the process may use;
the last line is the same table as JSON, with that environment under
``env``.  ``--out PATH`` also writes that JSON line to PATH, e.g.
``SWEEP_<label>.json`` for comparing two checkouts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
from pathlib import Path

from output_digests import blas_kernel

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "benchmark.cfg"
DEFAULT_SEEDS = {1600: range(0, 100), 10000: range(1, 9)}
VARIANTS = ("full", "no_repar")
LOW = 0.90


def parse_seeds(text: str) -> list:
    """``0-99`` or ``4,5`` or ``1-8,12``: the listed seeds, in order."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        try:
            seeds.extend(range(int(lo), int(hi) + 1) if dash else [int(lo)])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"seed list {text!r} is empty")
    return seeds


def training_rows(text: str) -> int:
    n = int(text)
    if n <= 0 or n % 16:
        raise argparse.ArgumentTypeError(
            f"size must be a positive multiple of 16 (4 classes, 20% held out), got {n}")
    return n


def summarize(n: int, noise: str, variant: str, finals: list) -> dict:
    """One cell of the table; ``finals`` holds None for each aborted run."""
    done = [f for f in finals if f is not None]
    q1, _, q3 = (statistics.quantiles(done, n=4, method="inclusive") if len(done) > 1
                 else (None, None, None))
    return {"n": n, "noise": noise, "variant": variant, "runs": len(finals),
            "exit3": len(finals) - len(done), "below_0.90": sum(f < LOW for f in done),
            "median_final": statistics.median(done) if done else None,
            "mean_final": statistics.fmean(done) if done else None,
            "q1_final": q1, "q3_final": q3}


def row(cell: dict) -> str:
    def acc(x):
        return "-" if x is None else f"{x:.4f}"
    return (f"{cell['n']:<7d}{cell['noise']:<11}{cell['variant']:<10}{cell['runs']:>5d}"
            f"{cell['exit3']:>7d}{cell['below_0.90']:>12d}"
            f"{acc(cell['median_final']):>14}{acc(cell['mean_final']):>12}"
            f"{acc(cell['q1_final']):>10}{acc(cell['q3_final']):>10}")


def environment() -> dict:
    """The numpy version, OpenBLAS kernel and usable CPU count the sweep runs under."""
    import numpy as np

    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count())
    return {"numpy": np.__version__, "openblas_kernel": blas_kernel(), "nproc": len(cpus)}


def sweep(sizes, noises, seeds) -> list:
    from protosemi.cli import parse_config_file
    from protosemi.data import NOISE_MODELS, generate_blobs, split_heldout
    from protosemi.errors import DegenerateClassError, DegenerateGeometryError
    from protosemi.pipeline import run_with_artifacts

    config = parse_config_file(CONFIG)
    print(f"{'n':<7}{'noise':<11}{'variant':<10}{'runs':>5}{'exit3':>7}"
          f"{'below_0.90':>12}{'median_final':>14}{'mean_final':>12}"
          f"{'q1_final':>10}{'q3_final':>10}", flush=True)
    cells = []
    for n in sizes:
        for noise in noises:
            finals = {v: [] for v in VARIANTS}
            for seed in DEFAULT_SEEDS[n] if seeds is None else seeds:
                clean = generate_blobs(4, 5 * n // 16, 16, 6.0, 1.0, seed)
                train, heldout = split_heldout(clean, 0.2, seed)
                train = NOISE_MODELS[noise](train, 0.3, seed)
                seeded = dataclasses.replace(config, seed=seed)
                for variant in VARIANTS:
                    try:
                        report = run_with_artifacts(train, heldout, seeded, variant).report
                    except (DegenerateClassError, DegenerateGeometryError):
                        finals[variant].append(None)  # the CLI's exit code 3
                    else:
                        finals[variant].append(report.final_accuracy)
            for variant in VARIANTS:
                cells.append(summarize(n, noise, variant, finals[variant]))
                print(row(cells[-1]), flush=True)
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=training_rows, nargs="+", default=list(DEFAULT_SEEDS),
                        metavar="N", help="training rows per dataset")
    parser.add_argument("--noise", nargs="+", metavar="TYPE")
    parser.add_argument("--seeds", type=parse_seeds, default=None, metavar="LIST",
                        help="data seeds for every size, e.g. 0-99 or 4,5")
    parser.add_argument("--out", type=Path, default=None, metavar="PATH",
                        help="also write the closing JSON line to PATH")
    args = parser.parse_args(argv)
    missing = [n for n in args.sizes if n not in DEFAULT_SEEDS]
    if missing and args.seeds is None:
        parser.error(f"size {missing[0]} has no default seeds; give --seeds")
    # before numpy loads: a multi-threaded BLAS may sum in another order
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from protosemi.data import NOISE_MODELS

    noises = args.noise or list(NOISE_MODELS)
    if not set(noises) <= NOISE_MODELS.keys():
        parser.error(f"argument --noise: choose from {', '.join(NOISE_MODELS)}")
    env = environment()
    print("env " + " ".join(f"{key}={value}" for key, value in env.items()), flush=True)
    cells = sweep(args.sizes, noises, args.seeds)
    closing = json.dumps({"env": env, "cells": cells})
    print(closing)
    if args.out is not None:
        args.out.write_text(closing + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
