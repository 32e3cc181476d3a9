"""Acceptance gate: six headline checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside the pytest results.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import covers_exactly, params_equal
from protosemi.cli import parse_config_file
from protosemi.data import (
    NoisyDataset,
    generate_blobs,
    inject_factual_noise,
    split_heldout,
)
from protosemi.mixmatch import brier_grads, guess_labels, mixup, sharpen
from protosemi.net import (
    TrainConfig,
    cross_entropy_grads,
    init_network,
    one_hot,
    train_epoch,
)
from protosemi.pipeline import (
    PipelineConfig,
    repartition_rng,
    run_with_artifacts,
    write_report,
)
from protosemi.select import (
    CorrectionRecord,
    Thresholds,
    build_prototypes,
    correction_stats,
    cosine_to_rows,
    repartition,
    split_by_agreement,
)

BENCHMARK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark.cfg"
BENCHMARK_SEEDS = (0, 1, 2, 3, 4)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, detail


# --- criterion 1: stats formula fidelity --------------------------------


def stats_for_counts(right: int, corrected: int):
    """Synthetic small-circle log with exactly the requested counts."""
    labels = np.array([0, 1, 1, 0], dtype=np.int64)
    ds = NoisyDataset(np.eye(4, 3), labels.copy(), labels.copy(), 2)
    log = []
    for j in range(corrected):
        index = j % ds.n
        true = int(ds.true_labels[index])
        proto = true if j < right else 1 - true
        log.append(CorrectionRecord(index, 0.99, proto, 1 - true,
                                    "small", "corrected", 1.0))
    return correction_stats(log, ds)


def test_criterion_1_stats_fidelity():
    first = stats_for_counts(5416, 5703)
    second = stats_for_counts(3846, 3992)
    ok = (
        first.accuracy_text() == "94.97%"
        and second.accuracy_text() == "96.34%"
        and abs(first.accuracy_pct - 94.97) <= 0.01
        and abs(second.accuracy_pct - 96.34) <= 0.01
    )
    verdict(1, ok, f"5416/5703 -> {first.accuracy_text()}, "
                   f"3846/3992 -> {second.accuracy_text()}")


# --- criterion 2: oracle equivalence on 50-sample datasets ---------------


def oracle_forward(net, x):
    """Pure-python forward pass; returns (last hidden, logits)."""
    act = [float(v) for v in x]
    hidden = None
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for j in range(w.shape[1]):
            s = float(b[j])
            for i, a in enumerate(act):
                s += a * float(w[i][j])
            out.append(s)
        if layer < len(net.weights) - 1:
            act = [math.tanh(v) for v in out]
            hidden = act
        else:
            act = out
    return hidden, act


def oracle_split(net, ds):
    confident, labels, unconfident = [], [], []
    for i in range(ds.n):
        _, logits = oracle_forward(net, ds.features[i])
        pred = max(range(len(logits)), key=lambda c: (logits[c], -c))
        if pred == int(ds.working_labels[i]):
            confident.append(i)
            labels.append(pred)
        else:
            unconfident.append(i)
    return confident, labels, unconfident


def oracle_prototypes(net, ds, confident, labels):
    k = ds.num_classes
    sums = [None] * k
    counts = [0] * k
    for i, lab in zip(confident, labels):
        emb, _ = oracle_forward(net, ds.features[i])
        if sums[lab] is None:
            sums[lab] = list(emb)
        else:
            sums[lab] = [s + e for s, e in zip(sums[lab], emb)]
        counts[lab] += 1
    return [[s / counts[c] for s in sums[c]] for c in range(k)], counts


def oracle_repartition(net, ds, unconfident, protos, thresholds, rng):
    """Replays the correction pass with its own arithmetic end to end."""
    decisions = []
    new_labels = {}
    for i in unconfident:
        emb, _ = oracle_forward(net, ds.features[i])
        norm_e = math.sqrt(sum(v * v for v in emb))
        best, d_max = 0, -2.0
        for c, row in enumerate(protos):
            norm_r = math.sqrt(sum(v * v for v in row))
            cos = sum(a * b for a, b in zip(emb, row)) / (norm_e * norm_r)
            cos = max(-1.0, min(1.0, cos))
            if cos > d_max:
                best, d_max = c, cos
        prior = int(ds.working_labels[i])
        if d_max >= thresholds.alpha:
            zone = "small"
            action = "retained" if best == prior else "corrected"
        elif d_max >= thresholds.beta:
            zone = "ring"
            if best == prior:
                action = "retained"
            else:
                p = (d_max - thresholds.beta) / (thresholds.alpha - thresholds.beta)
                action = "corrected" if rng.random() < p else "retained"
        else:
            zone, action = "outside", "unmoved"
        if action == "corrected":
            new_labels[i] = best
        decisions.append((i, zone, action, best))
    return decisions, new_labels


def oracle_scenario(seed):
    # overlapping 2-class blobs: the split stays non-trivial and all
    # three correction zones appear across the seed range
    ds = generate_blobs(2, 25, 8, 4.0, 1.3, seed)
    ds = inject_factual_noise(ds, 0.3, seed)
    net = init_network([8, 16, 8, 2], seed)
    config = TrainConfig(base_lr=0.1, total_epochs=6, batch_size=8, seed=seed)
    for epoch in range(6):
        train_epoch(net, ds.features, ds.working_labels, config, epoch)
    return ds, net


def test_criterion_2_oracle_equivalence():
    start = time.time()
    thresholds = Thresholds(0.8, 0.3)
    for seed in range(5):
        ds, net = oracle_scenario(seed)
        part = split_by_agreement(net, ds)
        confident, labels, unconfident = oracle_split(net, ds)
        assert part.confident_idx.tolist() == confident
        assert ds.working_labels[part.confident].tolist() == labels
        assert part.unconfident_idx.tolist() == unconfident

        protos = build_prototypes(net, ds, part)
        rows, counts = oracle_prototypes(net, ds, confident, labels)
        assert protos.support_counts.tolist() == counts
        assert np.max(np.abs(protos.rows - np.array(rows))) < 1e-9

        oracle_ds = ds.copy()
        decisions, moved = oracle_repartition(
            net, oracle_ds, unconfident, rows, thresholds,
            repartition_rng(seed, 0))
        new_part, log = repartition(net, ds, part, thresholds,
                                    repartition_rng(seed, 0))
        assert [(r.index, r.zone, r.action, r.proto_label) for r in log] == decisions
        for i, lab in moved.items():
            assert int(ds.working_labels[i]) == lab
        assert covers_exactly(new_part, ds.n)
    elapsed = time.time() - start
    verdict(2, elapsed < 10.0,
            f"split/prototype/correction oracles agree on 5 seeds "
            f"({elapsed:.1f}s)")


# --- criterion 3: gradient check -----------------------------------------


def gradients_match(net, batch, targets_or_labels, grad_fn):
    loss0, grads_w, grads_b = grad_fn(net, batch, targets_or_labels)
    step = 1e-5
    for array, grad in list(zip(net.weights, grads_w)) + list(zip(net.biases, grads_b)):
        flat, gflat = array.ravel(), np.asarray(grad).ravel()
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + step
            up = grad_fn(net, batch, targets_or_labels)[0]
            flat[j] = keep - step
            down = grad_fn(net, batch, targets_or_labels)[0]
            flat[j] = keep
            numeric = (up - down) / (2 * step)
            analytic = gflat[j]
            if abs(numeric - analytic) > max(1e-4 * max(abs(numeric), abs(analytic)), 1e-7):
                return False
    return True


def test_criterion_3_gradient_check():
    start = time.time()
    rng = np.random.default_rng(20260814)
    checked = 0
    for trial in range(10):
        dims = [int(rng.integers(2, 6))]
        for _ in range(int(rng.integers(1, 3))):
            dims.append(int(rng.integers(2, 7)))
        dims.append(int(rng.integers(2, 5)))
        net = init_network(dims, int(rng.integers(0, 2**31)))
        batch = rng.standard_normal((int(rng.integers(2, 6)), dims[0]))
        if trial % 2 == 0:
            targets = one_hot(rng.integers(0, dims[-1], size=batch.shape[0]), dims[-1])
            ok = gradients_match(net, batch, targets, cross_entropy_grads)
        else:
            targets = rng.random((batch.shape[0], dims[-1]))
            targets /= targets.sum(axis=1, keepdims=True)
            ok = gradients_match(net, batch, targets, brier_grads)
        assert ok, f"gradient mismatch on trial {trial} dims={dims}"
        checked += 1
    elapsed = time.time() - start
    verdict(3, checked == 10 and elapsed < 10.0,
            f"analytic vs central differences on {checked} networks "
            f"({elapsed:.1f}s)")


# --- criteria 4 and 5: scaled benchmark ----------------------------------


@pytest.fixture(scope="module")
def benchmark_runs():
    config = parse_config_file(BENCHMARK_CONFIG)
    start = time.time()
    results = {}
    for seed in BENCHMARK_SEEDS:
        clean = generate_blobs(4, 500, 16, 6.0, 1.0, seed)
        train, heldout = split_heldout(clean, 0.2, seed)
        train = inject_factual_noise(train, 0.3, seed)
        assert heldout.n == 400
        seeded = dataclasses.replace(config, seed=seed)
        per_variant = {}
        for variant in ("full", "no_repar", "no_semi"):
            report = run_with_artifacts(train, heldout, seeded, variant).report
            per_variant[variant] = report
        results[seed] = per_variant
    return results, time.time() - start


def test_criterion_4_benchmark_ordering(benchmark_runs):
    results, elapsed = benchmark_runs
    full = np.mean([r["full"].final_accuracy for r in results.values()])
    no_repar = np.mean([r["no_repar"].final_accuracy for r in results.values()])
    no_semi = np.mean([r["no_semi"].final_accuracy for r in results.values()])
    gap = 100 * (full - no_semi)
    ok = gap >= 5.0 and full >= no_repar and elapsed < 300.0
    verdict(4, ok,
            f"mean full={full:.4f} no_repar={no_repar:.4f} "
            f"no_semi={no_semi:.4f}; gap={gap:+.2f}pp ({elapsed:.0f}s)")


def test_criterion_5_correction_quality(benchmark_runs):
    results, _ = benchmark_runs
    per_seed = []
    ok = True
    for seed, variants in results.items():
        corrections = variants["full"].corrections
        right = sum(c.stats.right for c in corrections)
        corrected = sum(c.stats.corrected for c in corrections)
        if corrected == 0:
            ok = False
            per_seed.append(f"s{seed}=n/a")
            continue
        accuracy = 100.0 * right / corrected
        ok = ok and accuracy >= 90.0
        per_seed.append(f"s{seed}={accuracy:.1f}%")
    verdict(5, ok, "small-circle accuracy " + " ".join(per_seed))


# --- criterion 6: invariant bundle ---------------------------------------


def invariant_scenario():
    clean = generate_blobs(3, 50, 6, 6.0, 1.0, seed=11)
    train, heldout = split_heldout(clean, 0.2, 11)
    train = inject_factual_noise(train, 0.25, 12)
    config = PipelineConfig(
        hidden_dims=(16, 8), warmup_epochs=4, proto_split_epochs=2,
        main_epochs=3, alpha=0.9, beta=0.2, base_lr=0.1, batch_size=16,
        weight_decay=5e-4, k_aug=2, temperature=0.5, mix_alpha=0.75,
        lambda_u=1.0, aug_sigma=0.05, seed=11,
    )
    return train, heldout, config


def test_criterion_6_invariant_suite(tmp_path):
    start = time.time()
    train, heldout, config = invariant_scenario()
    rng = np.random.default_rng(0)
    checks = {}

    result = run_with_artifacts(train, heldout, config, "full")
    part = split_by_agreement(result.net, train)
    checks["partition"] = covers_exactly(part, train.n)

    p = rng.random((8, 4))
    p /= p.sum(axis=1, keepdims=True)
    sharp = sharpen(p, 0.5)
    guesses = guess_labels(result.net, train.features[:6], 3, 0.5, 0.1, rng)
    checks["simplex"] = (
        np.all(sharp >= 0) and np.allclose(sharp.sum(axis=1), 1.0, atol=1e-9)
        and np.all(guesses >= 0) and np.allclose(guesses.sum(axis=1), 1.0, atol=1e-9)
    )

    x1, x2 = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    p1 = np.eye(3)[rng.integers(0, 3, 5)]
    p2 = np.eye(3)[rng.integers(0, 3, 5)]
    xm, pm = mixup(x1, p1, x2, p2, 0.75, rng)
    checks["mixup"] = (
        np.all(xm >= np.minimum(x1, x2) - 1e-12)
        and np.all(xm <= np.maximum(x1, x2) + 1e-12)
        and np.allclose(pm.sum(axis=1), 1.0, atol=1e-12)
    )

    def moved_and_small(alpha, beta):
        ds = train.copy()
        base = split_by_agreement(result.net, ds)
        _, log = repartition(result.net, ds, base, Thresholds(alpha, beta),
                             repartition_rng(11, 99))
        small = sum(1 for r in log if r.zone == "small")
        moved = sum(1 for r in log if r.zone in ("small", "ring"))
        return small, moved
    small_lo, _ = moved_and_small(0.85, 0.2)
    small_hi, _ = moved_and_small(0.97, 0.2)
    _, moved_lo = moved_and_small(0.97, 0.2)
    _, moved_hi = moved_and_small(0.97, 0.6)
    checks["monotone"] = small_hi <= small_lo and moved_hi <= moved_lo

    protos = build_prototypes(result.net, train, part)
    vec = result.net.embed(train.features[0])
    sims = cosine_to_rows(vec, protos.rows)
    checks["scale"] = all(
        np.array_equal(cosine_to_rows(vec * 2.0 ** k, protos.rows), sims)
        for k in (-30, 1, 10)
    )

    p1_path, p2_path = tmp_path / "a.report", tmp_path / "b.report"
    write_report(run_with_artifacts(train, heldout, config, "full").report, p1_path)
    write_report(run_with_artifacts(train, heldout, config, "full").report, p2_path)
    checks["determinism"] = p1_path.read_bytes() == p2_path.read_bytes()

    shuffled = NoisyDataset(
        train.features.copy(), train.working_labels.copy(),
        np.random.default_rng(1).permutation(train.true_labels),
        train.num_classes,
    )
    other = run_with_artifacts(shuffled, heldout, config, "full")
    checks["hygiene"] = (
        other.report.epochs == result.report.epochs
        and params_equal(other.net, result.net)
    )

    elapsed = time.time() - start
    failed = [name for name, good in checks.items() if not good]
    verdict(6, not failed and elapsed < 30.0,
            f"invariants {'all hold' if not failed else 'FAILED: ' + ','.join(failed)} "
            f"({elapsed:.1f}s)")
