"""Orchestration: run shapes, determinism, purity, and report files."""

import dataclasses
import re
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest

from helpers import params_equal
from protosemi.cli import parse_config_file
from protosemi.data import (
    NoisyDataset,
    generate_blobs,
    inject_factual_noise,
    split_heldout,
)
from protosemi.errors import DegenerateClassError, FormatError, ParameterError
from protosemi.mixmatch import SemiConfig
from protosemi.net import Network, TrainConfig, init_network, train_epoch
from protosemi.pipeline import (
    CONFIG_FIELDS,
    VARIANTS,
    CorrectionEpoch,
    PipelineConfig,
    evaluate,
    export_embeddings,
    parse_report,
    run_with_artifacts,
    write_report,
    write_stats_csv,
    _parse_dims,
)
from protosemi.select import (
    StatsRow,
    Thresholds,
    build_prototypes,
    split_by_agreement,
)


def noisy_scenario(seed=7, noise=0.25):
    clean = generate_blobs(num_classes=3, per_class=50, dim=6,
                           separation=6.0, spread=1.0, seed=seed)
    train, heldout = split_heldout(clean, 0.2, seed)
    return inject_factual_noise(train, noise, seed + 1), heldout


def small_config(**overrides):
    base = dict(
        hidden_dims=(16, 8),
        warmup_epochs=4,
        proto_split_epochs=2,
        main_epochs=3,
        alpha=0.9,
        beta=0.2,
        base_lr=0.1,
        batch_size=16,
        weight_decay=5e-4,
        k_aug=2,
        temperature=0.5,
        mix_alpha=0.75,
        lambda_u=1.0,
        aug_sigma=0.05,
        seed=7,
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestPipelineConfig:
    def test_stage_configs_derive_from_the_keys(self):
        cfg = small_config()
        # one schedule and one seed govern the run: total_epochs = 4 + 3, seed = 7
        assert cfg.train == TrainConfig(base_lr=0.1, total_epochs=7, batch_size=16,
                                        weight_decay=5e-4, seed=7)
        assert cfg.thresholds == Thresholds(0.9, 0.2)
        assert cfg.semi == SemiConfig(k_aug=2, temperature=0.5, mix_alpha=0.75,
                                      lambda_u=1.0, aug_sigma=0.05)

    def test_train_config_is_frozen(self):
        # an edited stage config would make the run disagree with the keys its report echoes
        cfg = small_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.train.seed = 1

    def test_hidden_dims_becomes_int_tuple(self):
        cfg = small_config(hidden_dims=[np.int64(12), 4])
        assert cfg.hidden_dims == (12, 4)
        assert all(type(d) is int for d in cfg.hidden_dims)

    def test_total_epochs_property(self):
        assert small_config().total_epochs == 7
        assert small_config(main_epochs=0, proto_split_epochs=0).total_epochs == 4

    def test_schedule(self):
        warmup = [(0, "warmup", False), (1, "warmup", False),
                  (2, "warmup", False), (3, "warmup", False)]
        cfg = small_config()
        assert cfg.schedule() == cfg.schedule("full") == warmup + [
            (4, "semi", True), (5, "semi", True), (6, "semi", False)]
        assert cfg.schedule("no_repar") == warmup + [
            (4, "semi", False), (5, "semi", False), (6, "semi", False)]
        assert cfg.schedule("no_semi") == warmup
        with pytest.raises(ParameterError):
            cfg.schedule("bogus")

    @pytest.mark.parametrize("bad", [
        dict(hidden_dims=()),
        dict(hidden_dims=(0,)),
        dict(warmup_epochs=0),
        dict(main_epochs=-1),
        dict(proto_split_epochs=-1),
        dict(proto_split_epochs=4),  # exceeds main_epochs=3
        dict(alpha=0.2),  # not above beta=0.2
    ])
    def test_invalid(self, bad):
        with pytest.raises(ParameterError):
            small_config(**bad)

    @pytest.mark.parametrize("overrides", [
        dict(alpha=1, beta=0.5),
        dict(base_lr=1),
        dict(temperature=1),
        dict(batch_size=np.int64(16)),
        dict(base_lr=np.float64(0.1)),
        dict(k_aug=np.int64(2), mix_alpha=np.float32(0.75), aug_sigma=0),
        dict(hidden_dims=[np.int64(16), 8], warmup_epochs=np.int64(4), seed=np.int32(7)),
    ])
    def test_python_values_become_what_the_report_reads_back(self, tmp_path, overrides):
        config = small_config(**overrides)
        for f in CONFIG_FIELDS:
            value = getattr(config, f.key)
            assert type(value) is {int: int, float: float, _parse_dims: tuple}[f.parse]
        train, heldout = noisy_scenario()
        report = run_with_artifacts(train, heldout, config).report
        write_report(report, tmp_path / "run.report")
        assert parse_report(tmp_path / "run.report").config == config

    @pytest.mark.parametrize("overrides", [
        dict(proto_split_epochs=1.0),
        dict(warmup_epochs=2.0),
        dict(seed=1.5),
        dict(seed=-1),  # numpy seeds only from nonnegative integers
        dict(hidden_dims=(8.5, True)),
        dict(hidden_dims=(8, True)),
        dict(hidden_dims="16,8"),
        dict(warmup_epochs=True),
    ])
    def test_value_its_report_cannot_hold_is_rejected(self, overrides):
        with pytest.raises(ParameterError):
            small_config(**overrides)

    def test_echo_is_flat_strings(self):
        echo = small_config().echo()
        assert echo["hidden_dims"] == "16,8"
        assert echo["seed"] == "7"
        assert echo["alpha"] == "0.9"
        assert len(echo) == 15
        assert all(isinstance(v, str) for v in echo.values())


def test_config_schema_matches_the_config_dataclasses():
    init_fields = [f.name for f in dataclasses.fields(PipelineConfig) if f.init]
    assert init_fields == [f.key for f in CONFIG_FIELDS]
    hints = typing.get_type_hints(PipelineConfig)
    for f in CONFIG_FIELDS:
        assert hints[f.key] is {int: int, float: float, _parse_dims: tuple}[f.parse], f.key
    # a knob without a key would be missing from the report header, so two
    # runs that differ only in it would write the same report; the schedule
    # sets TrainConfig's total_epochs
    for cls in (Thresholds, TrainConfig, SemiConfig):
        assert {f.name for f in dataclasses.fields(cls)} - {"total_epochs"} <= set(init_fields)


def two_class_split_net():
    """Hand net over dim 2 that predicts class 0 iff x0 > 0."""
    return Network([np.eye(2), np.array([[1.0, -1.0], [0.0, 0.0]])],
                   [np.zeros(2), np.zeros(2)])


class TestEvaluate:
    def test_perfect_and_inverted(self):
        feats = np.array([[2.0, 0.3], [1.0, -1.0], [-3.0, 0.2], [-0.5, 2.0]])
        right = np.array([0, 0, 1, 1])
        ds = NoisyDataset(feats, right.copy(), right.copy(), 2)
        assert evaluate(two_class_split_net(), ds) == 1.0
        flipped = NoisyDataset(feats, 1 - right, 1 - right, 2)
        assert evaluate(two_class_split_net(), flipped) == 0.0

    def test_manual_count(self):
        rng = np.random.default_rng(0)
        feats = np.abs(rng.standard_normal((20, 2))) + 0.1  # all x0 > 0, pred 0
        true = np.zeros(20, dtype=int)
        true[:5] = 1  # 5 of 20 disagree with the constant-0 prediction
        ds = NoisyDataset(feats, true.copy(), true.copy(), 2)
        assert evaluate(two_class_split_net(), ds) == 0.75

    def test_constant_net_scores_class_share(self):
        net = Network([np.zeros((2, 2)), np.zeros((2, 3))],
                      [np.zeros(2), np.array([0.0, 5.0, 0.0])])
        feats = np.random.default_rng(1).standard_normal((10, 2))
        true = np.array([0, 1, 1, 1, 2, 2, 0, 1, 2, 1])
        ds = NoisyDataset(feats, true.copy(), true.copy(), 3)
        assert evaluate(net, ds) == 0.5  # five samples of class 1


class TestRunShape:
    def test_full_run_epoch_trace(self):
        train, heldout = noisy_scenario()
        report = run_with_artifacts(train, heldout, small_config()).report
        assert [r.epoch for r in report.epochs] == list(range(7))
        assert [r.phase for r in report.epochs] == ["warmup"] * 4 + ["semi"] * 3
        for r in report.epochs[:4]:
            assert r.confident == train.n and r.unconfident == 0
            assert r.loss_unlabeled == 0.0
        for r in report.epochs[4:]:
            assert r.confident + r.unconfident == train.n

    def test_correction_epochs_match_proto_window(self):
        train, heldout = noisy_scenario()
        report = run_with_artifacts(train, heldout, small_config()).report
        assert [c.epoch for c in report.corrections] == [4, 5]

    def test_no_semi_stops_after_warmup(self):
        train, heldout = noisy_scenario()
        report = run_with_artifacts(train, heldout, small_config(), "no_semi").report
        assert len(report.epochs) == 4
        assert all(r.phase == "warmup" for r in report.epochs)
        assert report.corrections == []

    def test_no_repar_records_no_corrections(self):
        train, heldout = noisy_scenario()
        report = run_with_artifacts(train, heldout, small_config(), "no_repar").report
        assert len(report.epochs) == 7
        assert report.corrections == []

    def test_summary_fields_are_consistent(self):
        train, heldout = noisy_scenario()
        report = run_with_artifacts(train, heldout, small_config()).report
        accs = [r.heldout_accuracy for r in report.epochs]
        assert report.final_accuracy == accs[-1]
        assert report.best_accuracy == max(accs)
        assert report.best_epoch == int(np.argmax(accs))

    def test_unknown_variant_rejected(self):
        train, heldout = noisy_scenario()
        with pytest.raises(ParameterError):
            run_with_artifacts(train, heldout, small_config(), "none")

    def test_mismatched_heldout_rejected(self):
        train, _ = noisy_scenario()
        other_dim = generate_blobs(3, 5, 5, 6.0, 1.0, 0)
        other_k = generate_blobs(4, 5, 6, 6.0, 1.0, 0)
        with pytest.raises(ParameterError):
            run_with_artifacts(train, other_dim, small_config())
        with pytest.raises(ParameterError):
            run_with_artifacts(train, other_k, small_config())

    def test_clean_data_leaves_few_unconfident(self):
        clean = generate_blobs(3, 50, 6, 6.0, 1.0, seed=3)
        train, heldout = split_heldout(clean, 0.2, 3)
        cfg = small_config(warmup_epochs=6, main_epochs=2, proto_split_epochs=0)
        report = run_with_artifacts(train, heldout, cfg).report
        for r in report.epochs[6:]:
            assert r.unconfident <= 0.02 * train.n


class TestDeterminismAndPurity:
    def test_caller_dataset_never_mutated(self):
        train, heldout = noisy_scenario()
        labels_before = train.working_labels.copy()
        feats_before = train.features.copy()
        result = run_with_artifacts(train, heldout, small_config())
        assert sum(c.stats.corrected for c in result.report.corrections) > 0
        assert np.array_equal(train.working_labels, labels_before)
        assert np.array_equal(train.features, feats_before)
        # the run shares the caller's features behind a read-only view
        assert np.shares_memory(result.dataset.features, train.features)
        assert not result.dataset.features.flags.writeable
        assert train.features.flags.writeable

    def test_seeded_rerun_is_identical(self):
        train, heldout = noisy_scenario()
        a = run_with_artifacts(train, heldout, small_config(), "full")
        b = run_with_artifacts(train, heldout, small_config(), "full")
        assert a.report == b.report
        assert params_equal(a.net, b.net)

    def test_report_files_are_byte_identical(self, tmp_path):
        train, heldout = noisy_scenario()
        p1, p2 = tmp_path / "a.report", tmp_path / "b.report"
        write_report(run_with_artifacts(train, heldout, small_config()).report, p1)
        write_report(run_with_artifacts(train, heldout, small_config()).report, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_semi_shares_the_warmup_prefix(self):
        # same seed, same schedule: warm-up epochs must agree bitwise
        train, heldout = noisy_scenario()
        full = run_with_artifacts(train, heldout, small_config()).report
        ablated = run_with_artifacts(train, heldout, small_config(), "no_semi").report
        assert full.epochs[:4] == ablated.epochs

    def test_zero_proto_epochs_equals_no_repar(self):
        train, heldout = noisy_scenario()
        cfg = small_config(proto_split_epochs=0)
        full = run_with_artifacts(train, heldout, cfg).report
        ablated = run_with_artifacts(train, heldout, cfg, "no_repar").report
        assert full.epochs == ablated.epochs
        assert full.final_accuracy == ablated.final_accuracy
        assert full.corrections == ablated.corrections == []

    def test_training_never_reads_train_true_labels(self):
        """Permuting the hidden true labels must not move a single float."""
        train, heldout = noisy_scenario()
        shuffled = NoisyDataset(
            train.features.copy(),
            train.working_labels.copy(),
            np.random.default_rng(0).permutation(train.true_labels),
            train.num_classes,
        )
        a = run_with_artifacts(train, heldout, small_config(), "full")
        b = run_with_artifacts(shuffled, heldout, small_config(), "full")
        assert a.report.epochs == b.report.epochs
        assert a.report.final_accuracy == b.report.final_accuracy
        assert params_equal(a.net, b.net)
        # the correction audit is the one consumer of true labels
        assert [c.stats.small_circle for c in a.report.corrections] == \
            [c.stats.small_circle for c in b.report.corrections]


@pytest.mark.parametrize("variant, bound", [("full", 5.0), ("no_semi", 1.5)])
def test_run_peak_memory_is_bounded(variant, bound):
    # the run shares the caller's features, gathers each batch by index and
    # passes full sets in row blocks, so it holds its data about once
    clean = generate_blobs(4, 3125, 16, 6.0, 1.0, seed=1)
    train, heldout = split_heldout(clean, 0.2, seed=1)
    train = inject_factual_noise(train, 0.3, seed=1)
    config = parse_config_file(Path(__file__).resolve().parent.parent / "configs" / "benchmark.cfg")
    assert train.n == 10_000
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_with_artifacts(train, heldout, config, variant)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= bound * train.features.nbytes


class TestDegenerateAbort:
    def find_fixture(self):
        """Frozen-net setup where class 0 gets no confident samples.

        base_lr = 0 keeps the net at its init state, so predictions are
        known in advance and working labels can be arranged to starve
        one class of agreement.
        """
        seed = 123
        net = init_network([4, 6, 3], seed)
        feats = np.random.default_rng(5).standard_normal((30, 4))
        preds = np.argmax(net.forward(feats), axis=1)
        assert {1, 2} <= set(preds.tolist())
        working = preds.copy()
        working[preds == 0] = 1  # would-be class 0 agreements become disagreements
        starve = np.flatnonzero(preds != 0)[:2]
        working[starve] = 0  # class 0 present but never agreeing
        true = working.copy()
        train = NoisyDataset(feats, working, true, 3)
        heldout = NoisyDataset(feats[:9].copy(), true[:9].copy(), true[:9].copy(), 3)
        cfg = small_config(
            hidden_dims=(6,), warmup_epochs=1, main_epochs=1,
            proto_split_epochs=1, seed=seed, base_lr=0.0, batch_size=8,
        )
        return train, heldout, cfg

    def test_starved_class_aborts_with_context(self):
        train, heldout, cfg = self.find_fixture()
        with pytest.raises(DegenerateClassError) as excinfo:
            run_with_artifacts(train, heldout, cfg)
        assert str(excinfo.value) == (
            "epoch 1: class 0 has no confident samples; prototype undefined")

    def test_no_repar_sidesteps_the_abort(self):
        train, heldout, cfg = self.find_fixture()
        report = run_with_artifacts(train, heldout, cfg, "no_repar").report
        assert len(report.epochs) == 2


class TestExportEmbeddings:
    def trained_artifacts(self):
        train, heldout = noisy_scenario()
        result = run_with_artifacts(train, heldout, small_config(), "full")
        part = split_by_agreement(result.net, result.dataset)
        protos = build_prototypes(result.net, result.dataset, part)
        return result.net, result.dataset, part, protos

    def test_row_layout(self, tmp_path):
        net, ds, part, protos = self.trained_artifacts()
        path = tmp_path / "emb.csv"
        export_embeddings(net, ds, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 3 + part.unconfident_idx.size
        header = lines[0].split(",")
        assert header[:3] == ["row_type", "label", "true_label"]
        assert header[3:] == [f"e{j}" for j in range(8)]
        for k in range(3):
            cells = lines[1 + k].split(",")
            assert cells[0] == "prototype" and cells[1] == str(k) and cells[2] == ""

    def test_floats_round_trip(self, tmp_path):
        net, ds, part, protos = self.trained_artifacts()
        path = tmp_path / "emb.csv"
        export_embeddings(net, ds, path)
        lines = path.read_text().splitlines()
        for k in range(3):
            coords = np.array([float(v) for v in lines[1 + k].split(",")[3:]])
            assert np.array_equal(coords, protos.rows[k])
        embeddings = net.embed(ds.features[part.unconfident_idx])
        for row, i in enumerate(part.unconfident_idx):
            cells = lines[4 + row].split(",")
            assert cells[0] == "sample"
            assert int(cells[1]) == ds.working_labels[i]
            assert int(cells[2]) == ds.true_labels[i]
            coords = np.array([float(v) for v in cells[3:]])
            assert np.array_equal(coords, embeddings[row])

    def test_re_export_is_identical(self, tmp_path):
        net, ds, _, _ = self.trained_artifacts()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_embeddings(net, ds, p1)
        export_embeddings(net, ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_everything_confident_writes_only_prototypes(self, tmp_path):
        clean = generate_blobs(3, 10, 4, 8.0, 0.5, seed=0)
        net = init_network([4, 5, 4, 3], 0)
        config = TrainConfig(base_lr=0.1, total_epochs=20, batch_size=8, seed=0)
        for epoch in range(20):
            train_epoch(net, clean.features, clean.working_labels, config, epoch)
        assert split_by_agreement(net, clean).unconfident_idx.size == 0
        path = tmp_path / "emb.csv"
        export_embeddings(net, clean, path)
        assert len(path.read_text().splitlines()) == 4

    def test_class_without_confident_sample_writes_no_file(self, tmp_path):
        clean = generate_blobs(3, 10, 4, 8.0, 0.5, seed=0)
        net = init_network([4, 5, 4, 3], 0)
        confident = split_by_agreement(net, clean).confident
        assert np.unique(clean.working_labels[confident]).size < 3
        path = tmp_path / "emb.csv"
        with pytest.raises(DegenerateClassError):
            export_embeddings(net, clean, path)
        assert not path.exists()


class TestReportIO:
    def roundtrip(self, tmp_path, variant="full"):
        train, heldout = noisy_scenario()
        report = run_with_artifacts(train, heldout, small_config(), variant).report
        path = tmp_path / "run.report"
        write_report(report, path)
        return report, parse_report(path), path

    def test_round_trip_preserves_everything(self, tmp_path):
        report, parsed, _ = self.roundtrip(tmp_path)
        assert parsed.variant == report.variant
        assert parsed.config == report.config
        assert parsed.epochs == report.epochs
        assert parsed.corrections == report.corrections
        assert parsed.final_accuracy == report.final_accuracy
        assert parsed.best_accuracy == report.best_accuracy
        assert parsed.best_epoch == report.best_epoch

    def test_no_semi_round_trip(self, tmp_path):
        report, parsed, _ = self.roundtrip(tmp_path, "no_semi")
        assert parsed.epochs == report.epochs
        assert parsed.corrections == []

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.report"
        path.write_text("protosemi-report v2\n")
        with pytest.raises(FormatError):
            parse_report(path)

    def test_rejects_non_ascii_byte(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"variant=", b"vari\xe4nt=", 1))
        with pytest.raises(FormatError, match=r"line 2: non-ASCII byte 0xe4"):
            parse_report(path)

    def test_rejects_missing_key(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        lines = path.read_text().splitlines()
        del lines[3]  # one echo key gone, everything after shifts
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            parse_report(path)

    def test_rejects_renamed_key(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        text = path.read_text().replace("alpha=", "gamma=", 1)
        path.write_text(text)
        with pytest.raises(FormatError):
            parse_report(path)

    def test_rejects_short_epoch_row(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        lines = path.read_text().splitlines()
        row = next(i for i, ln in enumerate(lines) if ln.startswith("0,warmup"))
        lines[row] = "0,warmup,0.1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            parse_report(path)

    def test_rejects_unparsable_number(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        lines = path.read_text().splitlines()
        row = next(i for i, ln in enumerate(lines) if ln.startswith("0,warmup"))
        cells = lines[row].split(",")
        cells[2] = "not-a-float"
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            parse_report(path)

    def test_rejects_truncation(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:10]) + "\n")
        with pytest.raises(FormatError):
            parse_report(path)

    @pytest.mark.parametrize("key, value", [
        ("final_accuracy", "0"), ("best_accuracy", "0.5"), ("best_epoch", "0"),
    ])
    def test_rejects_summary_that_disagrees_with_rows(self, tmp_path, key, value):
        report, _, path = self.roundtrip(tmp_path)
        assert str(getattr(report, key)) != value
        lines = path.read_text().splitlines()
        row = lines.index(f"{key}={getattr(report, key)!r}")
        lines[row] = f"{key}={value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=rf"line {row + 1}: {key}={value} disagrees"):
            parse_report(path)

    def test_rejects_report_without_epoch_rows(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        lines = path.read_text().splitlines()
        first = lines.index("[epochs]") + 2
        end = lines.index("", first)
        path.write_text("\n".join(lines[:first] + lines[end:]) + "\n")
        with pytest.raises(FormatError, match="no epoch rows"):
            parse_report(path)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_follow_the_schedule(self, variant):
        config = small_config()
        report = run_with_artifacts(*noisy_scenario(), config, variant).report
        schedule = config.schedule(variant)
        assert [(r.epoch, r.phase) for r in report.epochs] == [(e, p) for e, p, _ in schedule]
        assert [c.epoch for c in report.corrections] == [e for e, _, fix in schedule if fix]

    @pytest.mark.parametrize("block, cell, value", [
        ("[epochs]", 0, "9"),           # an epoch number off the schedule
        ("[epochs]", 1, "bogus"),       # a phase off the schedule
        ("[corrections]", 5, "12.5"),   # not what right and corrected give
    ])
    def test_rejects_edited_row(self, tmp_path, block, cell, value):
        _, _, path = self.roundtrip(tmp_path)
        lines = path.read_text().splitlines()
        row = lines.index(block) + 2  # the block's first row
        cells = lines[row].split(",")
        assert cells[cell] != value
        cells[cell] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        message = f"line {row + 1}: {lines[row]} disagrees"
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_report(path)

    @pytest.mark.parametrize("line, edit, message", [
        # alpha equal to beta: the check reads two keys and names both lines
        ("alpha=0.9", "alpha=0.2", "thresholds must satisfy"),
        ("base_lr=0.1", "base_lr=1e-1", "base_lr=1e-1 disagrees"),
        ("base_lr=0.1", "base_lr=nan", "base_lr must be finite"),
        ("variant=full", "variant=bogus", "variant must be one of"),
    ])
    def test_rejects_edited_header(self, tmp_path, line, edit, message):
        _, _, path = self.roundtrip(tmp_path)
        lines = path.read_text().splitlines()
        row = lines.index(line)
        lines[row] = edit
        path.write_text("\n".join(lines) + "\n")
        where = f"lines {row + 1}, {row + 2}" if message.startswith("thresholds") else (
            f"line {row + 1}")
        with pytest.raises(FormatError, match=rf"{where}: {message}"):
            parse_report(path)

    @pytest.mark.parametrize("extra", [True, False])
    def test_rejects_extra_or_missing_correction_row(self, tmp_path, extra):
        report, _, path = self.roundtrip(tmp_path)
        assert len(report.corrections) == 2
        lines = path.read_text().splitlines()
        last = len(lines) - 1  # the last correction row
        if extra:
            lines.append(lines[last])
        else:
            del lines[last]
        path.write_text("\n".join(lines) + "\n")
        message = f"line {last + 2}: {lines[last]} disagrees" if extra else (
            f"line {last + 1}:  disagrees; write_report gives '<row of epoch 5>'")
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_report(path)

    def test_rejects_unparsable_seed(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        text = path.read_text()
        path.write_text(text.replace("\nseed=7\n", "\nseed=seven\n", 1))
        assert "seed=seven" in path.read_text()
        with pytest.raises(FormatError, match="unparsable"):
            parse_report(path)


class TestStatsCsv:
    def test_written_rows(self, tmp_path):
        corrections = [
            CorrectionEpoch(4, StatsRow(37, 20, 20, 18)),
            CorrectionEpoch(5, StatsRow(12, 0, 0, 0)),
        ]
        path = tmp_path / "stats.csv"
        write_stats_csv(corrections, path)
        assert path.read_text() == (
            "epoch,unconfident_size,small_circle,corrected,right,accuracy_pct\n"
            "4,37,20,20,18,90.0\n"
            "5,12,0,0,0,n/a\n"
        )
