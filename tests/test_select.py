"""Agreement split, prototypes, two-circle repartition, correction stats.

The DERIVED checks here re-decide everything with deliberately separate
code: pure-python cosines, per-sample loops, and replayed uniform draws,
so a regression in the library logic cannot hide in shared helpers.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import covers_exactly, same_arrays
from protosemi.cli import main
from protosemi.data import NoisyDataset, generate_blobs, inject_factual_noise, load_dataset
from protosemi.errors import (
    DegenerateClassError,
    DegenerateGeometryError,
    FormatError,
    ParameterError,
)
from protosemi.net import Network, init_network, train_epoch, TrainConfig
from protosemi.select import (
    ACTIONS,
    LOG_COLUMNS,
    ZONES,
    CorrectionRecord,
    Partition,
    StatsRow,
    Thresholds,
    build_prototypes,
    correction_probability,
    correction_stats,
    cosine_to_rows,
    load_correction_log,
    repartition,
    save_correction_log,
    split_by_agreement,
)

INV_SQRT2 = 0.7071067811865475  # frozen: 1/sqrt(2)


def confident_at(ds, idx, labels):
    """The partition confident exactly at ``idx``, whose working labels become ``labels``."""
    ds.working_labels[idx] = labels
    mask = np.zeros(ds.n, dtype=bool)
    mask[idx] = True
    return Partition(mask)


def small_noisy_setup(seed, n_per_class=10, warm_epochs=15):
    """A warmed-up net plus a noisy dataset, for realistic splits.

    Tuned so that on every seed used below each class keeps at least
    one confident sample and the unconfident set stays nonempty.
    """
    ds = generate_blobs(3, n_per_class, 6, 6.0, 1.0, seed=seed)
    ds = inject_factual_noise(ds, 0.25, seed=seed + 1)
    net = init_network([6, 24, 12, 3], seed=seed)
    config = TrainConfig(base_lr=0.12, total_epochs=warm_epochs, batch_size=8, seed=seed)
    for epoch in range(warm_epochs):
        train_epoch(net, ds.features, ds.working_labels, config, epoch)
    return net, ds


def constant_net(dim, num_classes, winner):
    """Zero network whose final bias makes `winner` the constant argmax."""
    hidden = 3
    bias = np.zeros(num_classes)
    bias[winner] = 1.0
    return Network(
        [np.zeros((dim, hidden)), np.zeros((hidden, num_classes))],
        [np.zeros(hidden), bias],
    )


class TestThresholds:
    def test_valid(self):
        Thresholds(alpha=0.95, beta=0.90)
        Thresholds(alpha=1.0, beta=-1.0)

    @pytest.mark.parametrize("alpha,beta", [
        (0.9, 0.9), (0.8, 0.9), (1.1, 0.5), (0.5, -1.1),
        # a value of the wrong type is a ParameterError, not a TypeError
        ("0.9", 0.5), (0.9, None), (np.bool_(True), 0.5),
    ])
    def test_invalid(self, alpha, beta):
        with pytest.raises(ParameterError):
            Thresholds(alpha=alpha, beta=beta)


class TestSplitByAgreement:
    def test_perfect_net_leaves_nothing_unconfident(self):
        # hand-built net that recovers the (clean) labels of two blobs
        features = np.array([[3.0, 0.0], [2.5, 0.1], [-3.0, 0.0], [-2.7, -0.2]])
        labels = np.array([0, 0, 1, 1])
        net = Network(
            [np.eye(2), np.array([[1.0, -1.0], [0.0, 0.0]])],
            [np.zeros(2), np.zeros(2)],
        )
        ds = NoisyDataset(features, labels.copy(), labels.copy(), num_classes=2)
        part = split_by_agreement(net, ds)
        assert part.unconfident_idx.size == 0
        assert np.array_equal(part.confident_idx, np.arange(4))
        assert np.array_equal(ds.working_labels[part.confident], labels)

    def test_constant_net_collects_one_class(self):
        net, ds = constant_net(4, 3, winner=2), None
        rng = np.random.default_rng(0)
        working = np.array([0, 1, 2, 2, 0, 2, 1, 2])
        true = np.array([0, 1, 2, 0, 1, 2, 0, 2])
        ds = NoisyDataset(rng.standard_normal((8, 4)), working, true, num_classes=3)
        part = split_by_agreement(net, ds)
        assert np.array_equal(part.confident_idx, np.flatnonzero(working == 2))
        assert np.all(ds.working_labels[part.confident] == 2)

    def test_matches_per_sample_oracle(self):
        net, ds = small_noisy_setup(seed=21, n_per_class=7)
        part = split_by_agreement(net, ds)
        confident, unconfident = [], []
        logits = net.forward(ds.features)
        for i in range(ds.n):
            probs = np.exp(logits[i] - logits[i].max())
            probs = probs / probs.sum()
            if int(np.argmax(probs)) == ds.working_labels[i]:
                confident.append(i)
            else:
                unconfident.append(i)
        assert part.confident_idx.tolist() == confident
        assert part.unconfident_idx.tolist() == unconfident
        assert part.confident.tolist() == [i in confident for i in range(ds.n)]

    def test_partition_exactness(self):
        net, ds = small_noisy_setup(seed=5)
        part = split_by_agreement(net, ds)
        assert covers_exactly(part, ds.n)
        both = set(part.confident_idx) & set(part.unconfident_idx)
        assert not both


class TestPartition:
    @pytest.mark.parametrize("mask", [np.array([1, 0, 1]), np.array([[True, False]]),
                                      np.array(True), [0.0, 1.0]],
                             ids=["int", "2-D", "0-D", "float"])
    def test_a_mask_that_is_not_1d_bool_is_a_parameter_error(self, mask):
        with pytest.raises(ParameterError, match="1-D bool mask"):
            Partition(mask)

    def test_mask_is_a_read_only_copy(self):
        mask = np.array([True, False, True])
        part = Partition(mask)
        mask[1] = True  # the caller's array stays its own, and writable
        assert part.confident.tolist() == [True, False, True]
        assert part.confident_idx.tolist() == [0, 2] and part.unconfident_idx.tolist() == [1]
        with pytest.raises(ValueError):
            part.confident[1] = True

    def test_mask_of_another_length_is_a_parameter_error(self):
        net, ds = small_noisy_setup(seed=31)
        with pytest.raises(ParameterError, match=f"partition of {ds.n - 1} for {ds.n} samples"):
            build_prototypes(net, ds, Partition(np.ones(ds.n - 1, dtype=bool)))


class TestBuildPrototypes:
    def test_singleton_class_row_equals_its_embedding(self):
        net, ds = small_noisy_setup(seed=31)
        idx = np.array([0, 10, 20])  # one sample per class, order of classes below
        part = confident_at(ds, idx, [0, 1, 2])
        protos = build_prototypes(net, ds, part)
        embeddings = net.embed(ds.features[idx])
        assert np.array_equal(protos.rows, embeddings)
        assert protos.support_counts.tolist() == [1, 1, 1]

    def test_two_member_mean(self):
        net, ds = small_noisy_setup(seed=32)
        idx = np.array([0, 1, 10, 20])
        part = confident_at(ds, idx, [0, 0, 1, 2])
        protos = build_prototypes(net, ds, part)
        e = net.embed(ds.features[np.array([0, 1])])
        assert protos.rows[0] == pytest.approx((e[0] + e[1]) / 2.0, abs=1e-15)

    def test_matches_accumulate_and_divide_oracle(self):
        net, ds = small_noisy_setup(seed=33, n_per_class=17)
        part = split_by_agreement(net, ds)
        protos = build_prototypes(net, ds, part)
        embeddings = net.embed(ds.features[part.confident_idx])
        for c in range(ds.num_classes):
            acc = np.zeros(net.embed_dim)
            count = 0
            for row, label in zip(embeddings, ds.working_labels[part.confident_idx]):
                if label == c:
                    acc += row
                    count += 1
            assert count == protos.support_counts[c]
            assert protos.rows[c] == pytest.approx(acc / count, abs=1e-9)

    def test_empty_class_raises_naming_it(self):
        net, ds = small_noisy_setup(seed=34)
        keep = np.flatnonzero(ds.working_labels != 1)[:6]
        part = confident_at(ds, keep, ds.working_labels[keep])
        with pytest.raises(DegenerateClassError) as err:
            build_prototypes(net, ds, part)
        assert str(err.value) == "class 1 has no confident samples; prototype undefined"

    def test_identical_embeddings_fixed_point_is_exact(self):
        net = init_network([4, 5, 3], seed=2)
        row = np.array([0.37, -1.2, 0.001, 4.5])
        features = np.vstack([row, row, row, -row, 2 * row])
        labels = np.array([0, 0, 0, 1, 2])
        ds = NoisyDataset(features, labels.copy(), labels.copy(), num_classes=3)
        part = Partition(np.ones(5, dtype=bool))
        protos = build_prototypes(net, ds, part)
        v = net.embed(features[:3])
        assert np.array_equal(v[0], v[1]) and np.array_equal(v[0], v[2])
        assert np.array_equal(protos.rows[0], v[0])  # bitwise, not approximate


class TestSimilarity:
    def test_cosine_known_values(self):
        rows = np.array([[1.0, 1.0], [0.0, 2.0], [3.0, 0.0]])
        sims = cosine_to_rows(np.array([1.0, 0.0]), rows)
        assert sims[0] == pytest.approx(INV_SQRT2, abs=1e-15)
        assert sims[1] == 0.0
        assert sims[2] == pytest.approx(1.0, abs=1e-12)

    def test_equal_vectors_hit_one(self):
        v = np.array([0.3, -0.4, 1.7])
        assert cosine_to_rows(v, v[None, :])[0] == pytest.approx(1.0, abs=1e-12)

    def test_prototype_match_scores_one(self):
        net, ds = small_noisy_setup(seed=36)
        part = confident_at(ds, np.array([0, 10, 20]), [0, 1, 2])
        protos = build_prototypes(net, ds, part)
        sims = cosine_to_rows(net.embed(ds.features[0]), protos.rows)
        assert sims.shape == (3,)
        assert sims[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(sims >= -1.0) and np.all(sims <= 1.0)

    def test_zero_vector_degenerate(self):
        rows = np.array([[1.0, 0.0]])
        with pytest.raises(DegenerateGeometryError,
                           match="^cosine undefined for a zero embedding$"):
            cosine_to_rows(np.zeros(2), rows)
        with pytest.raises(DegenerateGeometryError,
                           match="^prototype row 0 is the zero vector$"):
            cosine_to_rows(np.array([1.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(DegenerateGeometryError,
                           match="^prototype row 1 is the zero vector$"):
            cosine_to_rows(np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_norm_and_clip_form(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((5, 16))
        rows[seed] = rows[(seed + 1) % 5]  # a vector equal to a row scores 1
        for vec in rng.standard_normal((200, 16)):
            for scale in (1.0, 2.0 ** -40, 2.0 ** 3, 2.0 ** 40):
                v, r = vec * scale, rows * scale
                want = np.clip((r @ v) / (np.linalg.norm(r, axis=1) * np.linalg.norm(v)),
                               -1.0, 1.0)
                assert cosine_to_rows(v, r).tobytes() == want.tobytes()
        v = rows[(seed + 1) % 5].copy()
        want = np.clip((rows @ v) / (np.linalg.norm(rows, axis=1) * np.linalg.norm(v)),
                       -1.0, 1.0)
        assert cosine_to_rows(v, rows).tobytes() == want.tobytes()

    def test_scale_invariance_powers_of_two_exact(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(8)
        rows = rng.standard_normal((4, 8))
        base = cosine_to_rows(v, rows)
        for c in (2.0, 0.25, 1024.0, 2.0 ** -30):
            assert np.array_equal(cosine_to_rows(c * v, rows), base)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50)
    def test_scale_invariance_any_positive_scalar(self, c):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(5)
        rows = rng.standard_normal((3, 5))
        assert cosine_to_rows(c * v, rows) == pytest.approx(
            cosine_to_rows(v, rows), abs=1e-12)


class TestCorrectionProbability:
    def test_boundaries_exact(self):
        t = Thresholds(alpha=0.95, beta=0.90)
        assert correction_probability(0.95, t) == 1.0
        assert correction_probability(0.90, t) == 0.0

    def test_midpoint_exact_on_binary_thresholds(self):
        t = Thresholds(alpha=0.75, beta=0.25)
        assert correction_probability(0.5, t) == 0.5

    def test_midpoint_float_thresholds(self):
        t = Thresholds(alpha=0.95, beta=0.90)
        assert correction_probability((0.95 + 0.90) / 2.0, t) == pytest.approx(0.5, abs=1e-12)

    def test_out_of_ring_rejected(self):
        t = Thresholds(alpha=0.95, beta=0.90)
        for d in (0.96, 0.89, -1.0):
            with pytest.raises(ParameterError):
                correction_probability(d, t)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_monotone_in_d_max(self, u1, u2):
        t = Thresholds(alpha=0.8, beta=0.2)
        d1 = 0.2 + 0.6 * min(u1, u2)
        d2 = 0.2 + 0.6 * max(u1, u2)
        p1, p2 = correction_probability(d1, t), correction_probability(d2, t)
        assert 0.0 <= p1 <= p2 <= 1.0


def oracle_repartition(net, ds_before, partition, thresholds, rng_seed_list):
    """Independent replay: python cosines, python zone logic, same draws."""
    rows = []
    counts = {}
    embeddings = net.embed(ds_before.features[partition.confident_idx])
    for e, label in zip(embeddings, ds_before.working_labels[partition.confident_idx]):
        counts.setdefault(int(label), []).append(e)
    protos = {}
    for c, members in counts.items():
        acc = [0.0] * len(members[0])
        for e in members:
            for j, x in enumerate(e):
                acc[j] += x
        protos[c] = [a / len(members) for a in acc]

    def cos(u, v):
        dot = sum(a * b for a, b in zip(u, v))
        nu = math.sqrt(sum(a * a for a in u))
        nv = math.sqrt(sum(b * b for b in v))
        return max(-1.0, min(1.0, dot / (nu * nv)))

    rng = np.random.default_rng(rng_seed_list)
    unconf_embed = net.embed(ds_before.features[partition.unconfident_idx])
    decisions = []
    for pos, i in enumerate(partition.unconfident_idx):
        sims = [cos(unconf_embed[pos], protos[c]) for c in range(ds_before.num_classes)]
        best = max(range(len(sims)), key=lambda c: (sims[c], -c))
        d_max = sims[best]
        prior = int(ds_before.working_labels[i])
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
        decisions.append((int(i), zone, action, best, prior))
    return decisions


class TestRepartition:
    def test_low_alpha_forces_small_circle_correction(self):
        net, ds = small_noisy_setup(seed=40)
        part = split_by_agreement(net, ds)
        assert part.unconfident_idx.size > 0
        before = ds.working_labels.copy()
        thresholds = Thresholds(alpha=-0.5, beta=-0.9)
        new_part, log = repartition(net, ds, part, thresholds,
                                    np.random.default_rng([40, 2, 0]))
        small = [r for r in log if r.zone == "small"]
        assert small, "expected everything in the small circle at alpha=-0.5"
        assert new_part.unconfident_idx.size < part.unconfident_idx.size
        for r in small:
            assert r.p_correct == 1.0
            if r.proto_label != r.prior_label:
                assert r.action == "corrected"
                assert ds.working_labels[r.index] == r.proto_label  # written back
                assert before[r.index] == r.prior_label
            else:
                assert r.action == "retained"

    def test_high_beta_leaves_everything_outside(self):
        net, ds = small_noisy_setup(seed=41)
        part = split_by_agreement(net, ds)
        before = ds.working_labels.copy()
        thresholds = Thresholds(alpha=0.9999995, beta=0.999999)
        new_part, log = repartition(net, ds, part, thresholds,
                                    np.random.default_rng([41, 2, 0]))
        if all(r.zone == "outside" for r in log):
            assert same_arrays(new_part, part)
            assert np.array_equal(ds.working_labels, before)
            assert all(r.action == "unmoved" and r.p_correct == 0.0 for r in log)
        else:  # knife-edge cosine exactly at 1.0 would be a setup bug
            pytest.fail("expected no unconfident sample at similarity >= 0.999999")

    def test_matches_replay_oracle_across_seeds(self):
        for seed in (50, 51, 52, 53, 54):
            net, ds = small_noisy_setup(seed=seed, n_per_class=9)
            part = split_by_agreement(net, ds)
            thresholds = Thresholds(alpha=0.9, beta=0.2)
            ds_before = ds.copy()
            expected = oracle_repartition(net, ds_before, part, thresholds,
                                          [seed, 2, 7])
            _, log = repartition(net, ds, part, thresholds,
                                 np.random.default_rng([seed, 2, 7]))
            got = [(r.index, r.zone, r.action, r.proto_label, r.prior_label) for r in log]
            assert got == expected
            # every record holds the ZONES and ACTIONS strings, not copies of them
            assert all(r.zone is ZONES[ZONES.index(r.zone)]
                       and r.action is ACTIONS[ACTIONS.index(r.action)] for r in log)

    def test_partition_exactness_and_move_semantics(self):
        net, ds = small_noisy_setup(seed=42)
        part = split_by_agreement(net, ds)
        thresholds = Thresholds(alpha=0.8, beta=0.3)
        new_part, log = repartition(net, ds, part, thresholds,
                                    np.random.default_rng([42, 2, 0]))
        assert covers_exactly(new_part, ds.n)
        moved = {r.index for r in log if r.action in ("corrected", "retained")}
        stayed = {r.index for r in log if r.action == "unmoved"}
        assert moved == set(new_part.confident_idx) - set(part.confident_idx)
        assert stayed == set(new_part.unconfident_idx)

    def test_zero_embedding_aborts_before_any_write_back(self):
        # the zero feature row embeds to zero (biases start at zero), so its
        # cosine is undefined; row 0, scored before it, would be corrected
        net = init_network([3, 5, 2], seed=1)
        feats = np.random.default_rng(0).standard_normal((12, 3))
        feats[11] = 0.0
        labels = np.argmax(net.forward(feats), axis=1)
        labels[[0, 11]] = 1 - labels[[0, 11]]
        ds = NoisyDataset(feats, labels.copy(), labels.copy(), 2)
        part = split_by_agreement(net, ds)
        assert part.unconfident_idx.tolist() == [0, 11]
        with pytest.raises(DegenerateGeometryError):
            repartition(net, ds, part, Thresholds(-0.5, -0.9), np.random.default_rng(0))
        assert np.array_equal(ds.working_labels, labels)

    def test_determinism(self):
        net, ds = small_noisy_setup(seed=43)
        part = split_by_agreement(net, ds)
        thresholds = Thresholds(alpha=0.9, beta=0.1)
        ds_a, ds_b = ds.copy(), ds.copy()
        part_a, log_a = repartition(net, ds_a, part, thresholds,
                                    np.random.default_rng([43, 2, 1]))
        part_b, log_b = repartition(net, ds_b, part, thresholds,
                                    np.random.default_rng([43, 2, 1]))
        assert same_arrays(part_a, part_b)
        assert log_a == log_b
        assert np.array_equal(ds_a.working_labels, ds_b.working_labels)

    def test_threshold_monotonicity(self):
        net, ds = small_noisy_setup(seed=44, n_per_class=12)
        part = split_by_agreement(net, ds)

        def zone_counts(alpha, beta):
            _, log = repartition(net, ds.copy(), part, Thresholds(alpha, beta),
                                 np.random.default_rng([44, 2, 0]))
            small = sum(1 for r in log if r.zone == "small")
            moved = sum(1 for r in log if r.action != "unmoved")
            return small, moved

        smalls = [zone_counts(a, 0.0)[0] for a in (0.2, 0.5, 0.8, 0.95)]
        assert all(x >= y for x, y in zip(smalls, smalls[1:]))
        moveds = [zone_counts(0.99, b)[1] for b in (-0.5, 0.0, 0.5, 0.9)]
        assert all(x >= y for x, y in zip(moveds, moveds[1:]))


class TestCorrectionStats:
    @staticmethod
    def _log_with_counts(corrected, right, num_classes=2):
        """Small-circle corrected records hitting exactly the given counts."""
        n = corrected + num_classes  # padding so every class exists
        true = np.zeros(n, dtype=np.int64)
        true[:right] = 1
        true[corrected:corrected + num_classes] = np.arange(num_classes)
        features = np.zeros((n, 2))
        features[:, 0] = np.arange(n)
        ds = NoisyDataset(features, true.copy(), true.copy(), num_classes)
        log = [CorrectionRecord(i, 0.99, 1, 0, "small", "corrected", 1.0)
               for i in range(corrected)]
        return log, ds

    def test_table_shape_rand1_analogue(self):
        log, ds = self._log_with_counts(corrected=5703, right=5416)
        stats = correction_stats(log, ds)
        assert (stats.small_circle, stats.corrected, stats.right) == (5703, 5703, 5416)
        assert f"{stats.accuracy_pct:.2f}" == "94.97"
        assert stats.accuracy_text() == "94.97%"

    def test_table_shape_aggre_analogue(self):
        log, ds = self._log_with_counts(corrected=3992, right=3846)
        stats = correction_stats(log, ds)
        assert f"{stats.accuracy_pct:.2f}" == "96.34"
        assert stats.accuracy_text() == "96.34%"

    def test_all_corrections_right_is_100(self):
        log, ds = self._log_with_counts(corrected=10, right=10)
        assert correction_stats(log, ds).accuracy_pct == 100.0

    def test_empty_log_reports_na(self):
        ds = NoisyDataset(np.zeros((2, 2)), np.array([0, 1]), np.array([0, 1]), 2)
        stats = correction_stats([], ds)
        assert stats == StatsRow(0, 0, 0, 0)
        assert stats.accuracy_text() == "n/a"

    def test_counts_only_small_circle(self):
        ds = NoisyDataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]),
                          np.array([0, 1, 0, 1]), 2)
        log = [
            CorrectionRecord(0, 0.99, 1, 0, "small", "corrected", 1.0),
            CorrectionRecord(1, 0.95, 1, 1, "small", "retained", 1.0),
            CorrectionRecord(2, 0.5, 1, 0, "ring", "corrected", 0.6),
            CorrectionRecord(3, 0.1, 1, 0, "outside", "unmoved", 0.0),
        ]
        stats = correction_stats(log, ds)
        assert stats.unconfident_size == 4
        assert stats.small_circle == 2
        assert stats.corrected == 1
        assert stats.right == 0  # index 0's true label is 0, not 1

    def test_out_of_range_index_rejected(self):
        ds = NoisyDataset(np.zeros((2, 2)), np.array([0, 1]), np.array([0, 1]), 2)
        log = [CorrectionRecord(5, 0.99, 1, 0, "small", "corrected", 1.0)]
        with pytest.raises(FormatError):
            correction_stats(log, ds)


class TestCorrectionLogCsv:
    @pytest.mark.parametrize("index", [-1, 2])  # before the first row, past the last
    def test_save_writes_no_line_for_an_index_outside_the_dataset(self, tmp_path, index):
        ds = NoisyDataset(np.zeros((2, 2)), np.array([0, 1]), np.array([0, 1]), 2)
        log = [CorrectionRecord(0, 0.99, 1, 0, "small", "corrected", 1.0),
               CorrectionRecord(index, 0.99, 0, 1, "small", "corrected", 1.0)]
        path = tmp_path / "log.csv"
        with pytest.raises(FormatError) as info:
            save_correction_log(log, ds, path)
        assert str(info.value) == f"log entry references index {index} outside dataset of 2"
        assert not path.exists()

    def test_round_trip(self, tmp_path):
        net, ds = small_noisy_setup(seed=45)
        part = split_by_agreement(net, ds)
        _, log = repartition(net, ds, part, Thresholds(0.9, 0.1),
                             np.random.default_rng([45, 2, 0]))
        path = tmp_path / "log.csv"
        save_correction_log(log, ds, path)
        assert load_correction_log(path, ds) == log

    def test_stats_survive_round_trip(self, tmp_path):
        net, ds = small_noisy_setup(seed=46)
        part = split_by_agreement(net, ds)
        _, log = repartition(net, ds, part, Thresholds(0.9, -0.2),
                             np.random.default_rng([46, 2, 0]))
        path = tmp_path / "log.csv"
        save_correction_log(log, ds, path)
        assert correction_stats(load_correction_log(path, ds), ds) == correction_stats(log, ds)

    def test_every_log_of_a_benchmark_run_rewrites_byte_for_byte(self, tmp_path):
        data, heldout, report = (str(tmp_path / name) for name in ("d.ds", "h.ds", "run.report"))
        assert main(["gen-data", "--per-class", "500", "--rate", "0.3", "--seed", "0",
                     "--out", data, "--heldout-out", heldout]) == 0
        config = Path(__file__).resolve().parent.parent / "configs" / "benchmark.cfg"
        assert main(["train", "--config", str(config), "--data", data, "--heldout", heldout,
                     "--report", report]) == 0
        ds = load_dataset(data)
        logs = sorted(tmp_path.glob("run.report.corrections-epoch*.csv"))
        assert len(logs) == 10
        for path in logs:
            log = load_correction_log(path, ds)
            save_correction_log(log, ds, tmp_path / "again.csv")
            assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
            # earlier versions ended each log line in "\r\n"
            crlf = tmp_path / "crlf.csv"
            crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            assert load_correction_log(crlf, ds) == log

    _LOGGED = "0,0.95,1,0,small,corrected,1.0,1\n"
    # a dataset whose true labels at indices 0, 1 and 3 are the 1 the rows below log
    _DS = NoisyDataset(np.zeros((4, 2)), [1, 1, 0, 1], [1, 1, 0, 1], 2)

    @pytest.mark.parametrize("body, line, message", [
        (_LOGGED + '"3",0.97,1,0,small,corrected,1.0,1\n', 3, "unparsable field"),
        (_LOGGED + "3, 0.97,1,0,small,corrected,1.0,1\n", 3,
         "'3, 0.97,1,0,small,corrected,1.0,1' disagrees; "
         "save_correction_log gives '3,0.97,1,0,small,corrected,1.0,1'"),
        (_LOGGED + "03,0.97,1,0,small,corrected,1.0,1\n", 3, "disagrees"),
        (_LOGGED + "3,0.97,+1,0,small,corrected,1.0,1\n", 3, "disagrees"),
        (_LOGGED + "3,9.7e-1,1,0,small,corrected,1.0,1\n", 3, "disagrees"),
        (_LOGGED + "3,0.97,1,0,small,corrected,1,1\n", 3, "disagrees"),
        (_LOGGED + "3,0.97,1,0,small,corrected,1.0,banana\n", 3, "unparsable field"),
        # a CSV reader takes lines 2 and 3 as one record of index 3, and
        # counts the repeat on line 4 as its line 3
        ('"3\n",0.97,1,0,small,corrected,1.0,1\n3,0.97,1,0,small,corrected,1.0,1\n', 2,
         "expected 8 fields"),
    ], ids=["quoted", "padded", "leading-zero", "plus-sign", "exponent", "int-for-float",
            "true-label-banana", "quoted-line-break"])
    def test_row_no_run_writes_rejected(self, tmp_path, body, line, message):
        path = tmp_path / "log.csv"
        path.write_text(",".join(LOG_COLUMNS) + "\n" + body)
        with pytest.raises(FormatError) as info:
            load_correction_log(path, self._DS)
        assert str(info.value).startswith(f"{path} line {line}: ")
        assert message in str(info.value) and "\n" not in str(info.value)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("index,zone\n0,small\n")
        with pytest.raises(FormatError):
            load_correction_log(path, self._DS)

    def test_bad_zone_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "index,d_max,proto_label,prior_label,zone,action,p_correct,true_label\n"
            "0,0.5,1,0,nowhere,corrected,1.0,1\n"
        )
        with pytest.raises(FormatError):
            load_correction_log(path, self._DS)

    @pytest.mark.parametrize("row", [
        "1,0.1,1,0,outside,corrected,7.5,1",   # an action outside does not take
        "1,0.1,1,0,outside,retained,0.0,1",
        "1,0.95,1,0,small,unmoved,1.0,1",      # only outside leaves a sample unmoved
        "1,0.5,1,0,ring,unmoved,0.5,1",
        "1,0.95,1,0,small,corrected,1.5,1",    # p_correct outside [0, 1]
        "1,0.5,1,0,ring,retained,-0.5,1",
        "1,0.5,1,0,ring,retained,nan,1",
        "1,1.5,1,0,small,corrected,1.0,1",     # d_max outside [-1, 1]
        "1,-2.0,1,0,outside,unmoved,0.0,1",
    ])
    def test_impossible_row_rejected(self, tmp_path, row):
        path = tmp_path / "log.csv"
        path.write_text(
            "index,d_max,proto_label,prior_label,zone,action,p_correct,true_label\n"
            "0,0.95,1,0,small,corrected,1.0,1\n" + row + "\n"
        )
        with pytest.raises(FormatError, match="line 3:"):
            load_correction_log(path, self._DS)

    @pytest.mark.parametrize("row, message", [
        ("0,0.99,9,0,small,corrected,1.0,0", "proto_label or prior_label outside [0, 2)"),
        ("2,0.5,-4,0,ring,corrected,0.5,0", "proto_label or prior_label outside [0, 2)"),
        ("0,0.99,1,5,small,corrected,1.0,0", "proto_label or prior_label outside [0, 2)"),
        # repartition logs p_correct 1.0 in the small circle and 0.0 outside it
        ("1,0.99,0,1,small,corrected,0.5,1", "small row with p_correct 0.5"),
        ("0,0.1,1,0,outside,unmoved,0.7,0", "outside row with p_correct 0.7"),
        # a draw in [0, 1) never falls below 0.0
        ("2,0.6,1,0,ring,corrected,0.0,0", "ring row corrected with p_correct 0.0"),
    ], ids=["proto-label-9", "proto-label-negative", "prior-label-5", "small-p-0.5",
            "outside-p-0.7", "ring-corrected-p-0"])
    def test_row_repartition_cannot_write_rejected(self, tmp_path, row, message):
        path = tmp_path / "log.csv"
        path.write_text(",".join(LOG_COLUMNS) + "\n" + row + "\n")
        ds = NoisyDataset(np.zeros((3, 2)), [0, 1, 0], [0, 1, 0], 2)
        with pytest.raises(FormatError) as info:
            load_correction_log(path, ds)
        assert str(info.value) == f"{path} line 2: {message}"

    def test_unparsable_number_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "index,d_max,proto_label,prior_label,zone,action,p_correct,true_label\n"
            "0,oops,1,0,small,corrected,1.0,1\n"
        )
        with pytest.raises(FormatError):
            load_correction_log(path, self._DS)

    @staticmethod
    def _written_log(tmp_path):
        """A repartition log on disk holding small, ring and outside rows, and its dataset."""
        net, ds = small_noisy_setup(seed=45)
        part = split_by_agreement(net, ds)
        _, log = repartition(net, ds, part, Thresholds(0.95, 0.5),
                             np.random.default_rng([45, 2, 0]))
        path = tmp_path / "log.csv"
        save_correction_log(log, ds, path)
        return path, ds

    @staticmethod
    def _edit_first(path, zone, action, edit) -> int:
        """Apply ``edit`` to the fields of the first row in (zone, action); its line number."""
        lines = path.read_text().splitlines()
        for lineno, line in enumerate(lines[1:], start=2):
            fields = line.split(",")
            if fields[4:6] == [zone, action]:
                lines[lineno - 1] = ",".join(edit(fields))
                path.write_text("\n".join(lines) + "\n")
                return lineno
        raise AssertionError(f"no {zone},{action} row")

    def test_repeated_index_rejected(self, tmp_path):
        path, ds = self._written_log(tmp_path)
        lines = path.read_text().splitlines()
        first = next(n for n, line in enumerate(lines, start=1) if ",small,corrected," in line)
        path.write_text("\n".join(lines + [lines[first - 1]]) + "\n")
        index = lines[first - 1].split(",")[0]
        with pytest.raises(FormatError) as info:
            load_correction_log(path, ds)
        assert str(info.value) == (
            f"{path} line {len(lines) + 1}: index {index} repeats line {first}")

    @pytest.mark.parametrize("zone, action, edit, message", [
        # a correction that leaves the label as it was
        ("small", "corrected", lambda f: f[:3] + [f[2]] + f[4:], "corrected row keeps"),
        ("ring", "corrected", lambda f: f[:3] + [f[2]] + f[4:], "corrected row keeps"),
        # the small circle corrects every label that differs
        ("small", "corrected", lambda f: f[:5] + ["retained"] + f[6:], "small-circle row retains"),
    ], ids=["small-keeps-label", "ring-keeps-label", "small-retains-differing"])
    def test_labels_contradicting_the_action_rejected(self, tmp_path, zone, action, edit,
                                                      message):
        path, ds = self._written_log(tmp_path)
        lineno = self._edit_first(path, zone, action, edit)
        with pytest.raises(FormatError, match=f"line {lineno}: {message}"):
            load_correction_log(path, ds)

    def test_consistent_labels_accepted(self, tmp_path):
        path, ds = self._written_log(tmp_path)
        # a ring row may retain a differing label; a small one may retain a matching one
        self._edit_first(path, "small", "corrected",
                         lambda f: f[:3] + [f[2]] + ["small", "retained"] + f[6:])
        log = load_correction_log(path, ds)
        assert any(r.zone == "ring" and r.action == "retained"
                   and r.proto_label != r.prior_label for r in log)
        assert correction_stats(log, ds).unconfident_size == len(log)

    @pytest.mark.parametrize("zone, action", [
        ("outside", "unmoved"), ("ring", "retained"), ("small", "corrected")])
    def test_every_index_range_checked(self, tmp_path, zone, action):
        path, ds = self._written_log(tmp_path)
        lineno = self._edit_first(path, zone, action, lambda f: ["99999999"] + f[1:])
        with pytest.raises(FormatError) as info:
            load_correction_log(path, ds)
        assert str(info.value) == f"{path} line {lineno}: index 99999999 outside dataset of 30"
