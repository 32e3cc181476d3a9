"""Command-line behavior: outputs, artifact files, and exit codes."""

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from helpers import bad_v2_files, write_v1_dataset
from protosemi.cli import main, parse_config_file
from protosemi.data import load_dataset, round_half_away, save_dataset, NoisyDataset
from protosemi.errors import FormatError
from protosemi.net import init_network
from protosemi.pipeline import parse_report, run_with_artifacts, write_report
from protosemi.select import (
    CorrectionRecord,
    StatsRow,
    correction_stats,
    load_correction_log,
    save_correction_log,
    split_by_agreement,
)

REPO = Path(__file__).resolve().parents[1]

CONFIG_DEFAULTS = {
    "hidden_dims": "16,8",
    "warmup_epochs": "4",
    "proto_split_epochs": "2",
    "main_epochs": "3",
    "alpha": "0.9",
    "beta": "0.2",
    "base_lr": "0.1",
    "batch_size": "16",
    "weight_decay": "0.0",
    "k_aug": "2",
    "temperature": "0.5",
    "mix_alpha": "0.75",
    "lambda_u": "1.0",
    "aug_sigma": "0.05",
    "seed": "7",
}


def write_config(path, **overrides):
    values = dict(CONFIG_DEFAULTS)
    values.update(overrides)
    body = "# run recipe\n" + "\n".join(
        f"{k}={v}" for k, v in values.items() if v is not None)
    path.write_text(body + "\n")
    return path


@pytest.fixture
def dataset_files(tmp_path):
    """Train and held-out files written through the gen-data command."""
    train = tmp_path / "train.ds"
    heldout = tmp_path / "heldout.ds"
    code = main([
        "gen-data", "--classes", "3", "--per-class", "50", "--dim", "6",
        "--sep", "6.0", "--spread", "1.0", "--noise", "factual",
        "--rate", "0.25", "--seed", "7",
        "--out", str(train), "--heldout-out", str(heldout),
    ])
    assert code == 0
    return train, heldout


class TestGenData:
    def test_clean_generation_output(self, tmp_path, capsys):
        out = tmp_path / "clean.ds"
        code = main(["gen-data", "--classes", "3", "--per-class", "10",
                     "--dim", "4", "--rate", "0.0", "--out", str(out)])
        assert code == 0
        assert f"wrote {out}: n=30 classes=3 dim=4 noise_rate=0.000" in capsys.readouterr().out
        ds = load_dataset(out)
        assert np.array_equal(ds.working_labels, ds.true_labels)

    def test_noise_rate_printed_and_applied(self, tmp_path, capsys):
        out = tmp_path / "noisy.ds"
        code = main(["gen-data", "--classes", "4", "--per-class", "25",
                     "--dim", "5", "--rate", "0.3", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        assert "noise_rate=0.300" in capsys.readouterr().out
        ds = load_dataset(out)
        flips = int(np.sum(ds.working_labels != ds.true_labels))
        assert flips == round_half_away(0.3 * 100)

    def test_heldout_is_carved_before_noise(self, dataset_files, capsys):
        train_path, heldout_path = dataset_files
        train, heldout = load_dataset(train_path), load_dataset(heldout_path)
        assert train.n == 120 and heldout.n == 30
        assert np.array_equal(heldout.working_labels, heldout.true_labels)
        assert train.noise_rate() > 0.2
        # no feature row may appear in both files
        train_rows = {row.tobytes() for row in train.features}
        assert all(row.tobytes() not in train_rows for row in heldout.features)

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        out, heldout = tmp_path / "out.ds", tmp_path / "heldout.ds"
        for extra in ([], ["--heldout-out", str(heldout)]):
            code = main(["gen-data", "--classes", "3", "--per-class", "10", "--seed", "-1",
                         "--out", str(out), *extra])
            assert code == 2
            assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
            assert not out.exists() and not heldout.exists()

    def test_missing_out_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen-data", "--classes", "3"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag, name", [("--sep", "separation"), ("--spread", "spread")])
    def test_an_infinite_scale_names_its_parameter(self, tmp_path, capsys, flag, name):
        out = tmp_path / "out.ds"
        code = main(["gen-data", "--classes", "3", "--per-class", "10", flag, "inf",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {name} must be finite and lie in (0, inf), got inf\n")
        assert not out.exists()

    def test_heldout_out_naming_the_out_file_exits_two(self, tmp_path, capsys):
        out = tmp_path / "a.ds"
        out.write_bytes(b"kept")
        (tmp_path / "sub").mkdir()
        other = tmp_path / "sub" / ".." / "a.ds"
        code = main(["gen-data", "--classes", "3", "--per-class", "10",
                     "--out", str(out), "--heldout-out", str(other)])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: --out and --heldout-out name the same file: {other}\n")
        assert out.read_bytes() == b"kept"

    def test_bad_generation_parameters(self, tmp_path, capsys):
        code = main(["gen-data", "--classes", "1", "--out", str(tmp_path / "x.ds")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_full_run_writes_report_and_prints_summary(self, dataset_files, tmp_path, capsys):
        train, heldout = dataset_files
        config = write_config(tmp_path / "run.cfg")
        report_path = tmp_path / "run.report"
        code = main(["train", "--config", str(config), "--data", str(train),
                     "--heldout", str(heldout), "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "variant=full seed=7 epochs=7" in out
        assert "best accuracy" in out and "last accuracy" in out
        assert "corrections (per repartition epoch):" in out
        report = parse_report(report_path)
        assert report.variant == "full"
        assert len(report.epochs) == 7

    def test_no_semi_report_has_only_warmup(self, dataset_files, tmp_path, capsys):
        train, heldout = dataset_files
        config = write_config(tmp_path / "run.cfg")
        report_path = tmp_path / "run.report"
        code = main(["train", "--config", str(config), "--data", str(train),
                     "--heldout", str(heldout), "--variant", "no_semi",
                     "--report", str(report_path)])
        assert code == 0
        report = parse_report(report_path)
        assert [r.phase for r in report.epochs] == ["warmup"] * 4
        assert "corrections" not in capsys.readouterr().out

    def test_repeat_invocations_are_byte_identical(self, dataset_files, tmp_path, capsys):
        train, heldout = dataset_files
        config = write_config(tmp_path / "run.cfg")
        p1, p2 = tmp_path / "a.report", tmp_path / "b.report"
        argv = ["train", "--config", str(config), "--data", str(train),
                "--heldout", str(heldout)]
        assert main(argv + ["--report", str(p1)]) == 0
        assert main(argv + ["--report", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_correction_artifacts_cross_check(self, dataset_files, tmp_path, capsys):
        """Per-epoch logs on disk must reproduce the report's stats rows."""
        train_path, heldout = dataset_files
        config = write_config(tmp_path / "run.cfg")
        report_path = tmp_path / "run.report"
        assert main(["train", "--config", str(config), "--data", str(train_path),
                     "--heldout", str(heldout), "--report", str(report_path)]) == 0
        report = parse_report(report_path)
        dataset = load_dataset(train_path)
        assert [c.epoch for c in report.corrections] == [4, 5]
        for entry in report.corrections:
            log_path = tmp_path / f"run.report.corrections-epoch{entry.epoch}.csv"
            recomputed = correction_stats(load_correction_log(log_path, dataset), dataset)
            assert recomputed == entry.stats
        stats_lines = (tmp_path / "run.report.stats.csv").read_text().splitlines()
        assert len(stats_lines) == 1 + len(report.corrections)

    def test_embedding_export_flag(self, dataset_files, tmp_path, capsys):
        train, heldout = dataset_files
        config = write_config(tmp_path / "run.cfg")
        emb = tmp_path / "emb.csv"
        code = main(["train", "--config", str(config), "--data", str(train),
                     "--heldout", str(heldout), "--report", str(tmp_path / "r"),
                     "--export-embeddings", str(emb)])
        assert code == 0
        lines = emb.read_text().splitlines()
        assert lines[0].startswith("row_type,label,true_label,e0")
        assert sum(1 for ln in lines if ln.startswith("prototype,")) == 3

    def test_embedding_export_uses_the_runs_corrected_labels(
            self, dataset_files, tmp_path, capsys):
        train, heldout = dataset_files
        # a narrow ring leaves a few samples unconfident after correction
        config = write_config(tmp_path / "run.cfg", alpha="0.99", beta="0.9")
        emb = tmp_path / "emb.csv"
        assert main(["train", "--config", str(config), "--data", str(train),
                     "--heldout", str(heldout), "--report", str(tmp_path / "r"),
                     "--export-embeddings", str(emb)]) == 0
        result = run_with_artifacts(load_dataset(train), load_dataset(heldout),
                                    parse_config_file(config))
        final = result.dataset
        unconfident = split_by_agreement(result.net, final).unconfident_idx
        rows = [ln.split(",") for ln in emb.read_text().splitlines()
                if ln.startswith("sample,")]
        assert rows
        assert [int(r[1]) for r in rows] == final.working_labels[unconfident].tolist()
        assert [int(r[2]) for r in rows] == final.true_labels[unconfident].tolist()
        coords = np.array([[float(v) for v in r[3:]] for r in rows])
        assert np.array_equal(coords, result.net.embed(final.features[unconfident]))

    @pytest.mark.parametrize("flags, named", [
        (("--report", "train"), "--data and --report"),
        (("--report", "r.txt", "--export-embeddings", "r.txt"),
         "--report and --export-embeddings")], ids=["data-report", "report-export"])
    def test_an_output_naming_another_file_of_the_run_exits_two(
            self, dataset_files, tmp_path, capsys, flags, named):
        train, heldout = dataset_files
        config = write_config(tmp_path / "run.cfg")
        inputs = (config, train, heldout)
        before = [p.read_bytes() for p in inputs]
        paths = {"train": str(train), "r.txt": str(tmp_path / "r.txt")}
        code = main(["train", "--config", str(config), "--data", str(train),
                     "--heldout", str(heldout), *(paths.get(f, f) for f in flags)])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: {named} name the same file: {paths[flags[-1]]}\n"
        assert [p.read_bytes() for p in inputs] == before
        assert sorted(tmp_path.iterdir()) == sorted(inputs)

    @pytest.mark.parametrize("data, outputs, flag", [
        ("train.ds", ("--report", "r", "--export-embeddings", "r.stats.csv"),
         "--export-embeddings"),
        ("r2.stats.csv", ("--report", "r2"), "--data"),
        ("r3.corrections-epoch4.csv", ("--report", "r3"), "--data"),
    ], ids=["export-stats", "data-stats", "data-log"])
    def test_a_flag_naming_a_file_the_report_derives_exits_two(
            self, dataset_files, tmp_path, capsys, data, outputs, flag):
        train, heldout = dataset_files
        train = train.rename(tmp_path / data)
        config = write_config(tmp_path / "run.cfg")
        inputs = (config, train, heldout)
        before = [p.read_bytes() for p in inputs]
        code = main(["train", "--config", str(config), "--data", str(train),
                     "--heldout", str(heldout),
                     *(f if f.startswith("--") else str(tmp_path / f) for f in outputs)])
        assert code == 2
        named = tmp_path / (data if flag == "--data" else outputs[-1])
        assert capsys.readouterr().err == \
            f"error: {flag} names a file that --report writes: {named}\n"
        assert [p.read_bytes() for p in inputs] == before
        assert sorted(tmp_path.iterdir()) == sorted(inputs)

    def test_a_symlinked_report_derives_names_beside_the_link(
            self, dataset_files, tmp_path, capsys):
        train, heldout = dataset_files
        config = write_config(tmp_path / "run.cfg")
        (tmp_path / "r").symlink_to(tmp_path / "elsewhere")
        data = train.rename(tmp_path / "r.stats.csv")
        before = data.read_bytes()
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--heldout", str(heldout), "--report", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == \
            f"error: --data names a file that --report writes: {data}\n"
        assert data.read_bytes() == before
        assert not (tmp_path / "elsewhere").exists()

    def test_train_and_stats_scorecards_name_every_stats_field(
            self, dataset_files, tmp_path, capsys):
        train, heldout = dataset_files
        config = write_config(tmp_path / "run.cfg")
        report = tmp_path / "run.report"
        assert main(["train", "--config", str(config), "--data", str(train),
                     "--heldout", str(heldout), "--report", str(report)]) == 0
        train_out = capsys.readouterr().out.splitlines()
        assert main(["stats", "--log", f"{report}.corrections-epoch4.csv",
                     "--data", str(train)]) == 0
        stats_out = capsys.readouterr().out.splitlines()
        names = [f.name for f in fields(StatsRow)]
        title = train_out.index("corrections (per repartition epoch):")
        assert train_out[title + 1].split() == ["epoch", *names, "accuracy"]
        assert stats_out[0].split() == [*names, "accuracy"]

    def test_missing_data_file(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.cfg")
        code = main(["train", "--config", str(config),
                     "--data", str(tmp_path / "absent.ds"),
                     "--heldout", str(tmp_path / "absent2.ds"),
                     "--report", str(tmp_path / "r")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_ascii_dataset_exits_two(self, dataset_files, tmp_path, capsys):
        train, heldout = dataset_files
        write_v1_dataset(load_dataset(train), train)
        lines = train.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b" ", b"\xc2\xa0", 1)  # a no-break space
        train.write_bytes(b"\n".join(lines))
        code = main(["train", "--config", str(write_config(tmp_path / "run.cfg")),
                     "--data", str(train), "--heldout", str(heldout),
                     "--report", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {train} line 3: non-ASCII byte 0xc2\n"

    def test_bad_heldout_record_names_its_file(self, dataset_files, tmp_path, capsys):
        train, heldout = dataset_files
        write_v1_dataset(load_dataset(heldout), heldout)
        lines = heldout.read_text().split("\n")
        lines[2] = lines[2].rsplit(" ", 1)[0] + " 9"  # the true label of line 3
        heldout.write_text("\n".join(lines))
        code = main(["train", "--config", str(write_config(tmp_path / "run.cfg")),
                     "--data", str(train), "--heldout", str(heldout),
                     "--report", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {heldout} line 3: true label 9 out of range for k=3\n")

    @pytest.mark.parametrize("bad", list(bad_v2_files(
        NoisyDataset(np.eye(2), np.arange(2), np.arange(2), 2))))
    def test_bad_v2_dataset_exits_two(self, dataset_files, tmp_path, capsys, bad):
        train, heldout = dataset_files
        train.write_bytes(bad_v2_files(load_dataset(train))[bad])
        report = tmp_path / "r"
        code = main(["train", "--config", str(write_config(tmp_path / "run.cfg")),
                     "--data", str(train), "--heldout", str(heldout), "--report", str(report)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {train}: ")
        assert not report.exists()

    def test_heldout_of_another_dimension_exits_two(self, tmp_path, capsys):
        # a usage error: the one ParameterError a parsed config can still reach
        for name, dim in (("t.ds", "16"), ("h.ds", "8")):
            assert main(["gen-data", "--classes", "3", "--per-class", "10", "--dim", dim,
                         "--out", str(tmp_path / name)]) == 0
        report = tmp_path / "r"
        code = main(["train", "--config", str(write_config(tmp_path / "run.cfg")),
                     "--data", str(tmp_path / "t.ds"), "--heldout", str(tmp_path / "h.ds"),
                     "--report", str(report)])
        assert code == 2
        assert "must share classes and dimension" in capsys.readouterr().err
        assert not report.exists()

    def test_negative_seed_exits_two(self, dataset_files, tmp_path, capsys):
        train, heldout = dataset_files
        report = tmp_path / "r"
        code = main(["train", "--config", str(write_config(tmp_path / "run.cfg", seed="-1")),
                     "--data", str(train), "--heldout", str(heldout), "--report", str(report)])
        assert code == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not report.exists()

    def test_negative_noise_seed_exits_two(self, dataset_files, tmp_path, capsys):
        # gen-data --seed -3 exits 2, so no dataset can record noise_seed=-3
        train, heldout = dataset_files
        config, report = write_config(tmp_path / "run.cfg", noise_seed="-3"), tmp_path / "r"
        code = main(["train", "--config", str(config), "--data", str(train),
                     "--heldout", str(heldout), "--report", str(report)])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {config} line {len(CONFIG_DEFAULTS) + 2}: "
                                           "noise_seed must be an integer >= 0, got -3\n")
        assert not report.exists()

    @staticmethod
    def starved_class_run(tmp_path) -> list:
        """Train argv, less --variant and --report, of a run whose class 0 never agrees."""
        # base_lr=0 freezes the net at init, so agreement is predictable
        # and one class can be arranged to never agree
        seed = 123
        net = init_network([4, 6, 3], seed)
        feats = np.random.default_rng(5).standard_normal((30, 4))
        preds = np.argmax(net.forward(feats), axis=1)
        working = preds.copy()
        working[preds == 0] = 1
        working[np.flatnonzero(preds != 0)[:2]] = 0
        ds = NoisyDataset(feats, working, working.copy(), 3)
        heldout = NoisyDataset(feats[:9].copy(), working[:9].copy(),
                               working[:9].copy(), 3)
        train_path, heldout_path = tmp_path / "t.ds", tmp_path / "h.ds"
        save_dataset(ds, train_path)
        save_dataset(heldout, heldout_path)
        config = write_config(
            tmp_path / "run.cfg", hidden_dims="6", warmup_epochs="1",
            proto_split_epochs="1", main_epochs="1", base_lr="0.0",
            batch_size="8", aug_sigma="0.0", seed=str(seed))
        return ["train", "--config", str(config), "--data", str(train_path),
                "--heldout", str(heldout_path)]

    def test_starved_class_exits_three(self, tmp_path, capsys):
        code = main(self.starved_class_run(tmp_path) + ["--report", str(tmp_path / "r")])
        assert code == 3
        err = capsys.readouterr().err
        assert "epoch 1:" in err and "class 0" in err

    def test_failed_export_keeps_the_runs_report(self, tmp_path, capsys):
        # no_repar builds no prototype, so the run ends; the export's does not
        argv = self.starved_class_run(tmp_path) + ["--variant", "no_repar"]
        plain, exported, emb = tmp_path / "plain.report", tmp_path / "r", tmp_path / "e.csv"
        assert main(argv + ["--report", str(plain)]) == 0
        capsys.readouterr()
        code = main(argv + ["--report", str(exported), "--export-embeddings", str(emb)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(emb) in err and "class 0 has no confident samples" in err
        assert exported.read_bytes() == plain.read_bytes()
        assert not emb.exists()

    def test_no_confident_sample_exits_three(self, tmp_path, capsys):
        # base_lr=0 freezes the net at init; labelling every sample one
        # class past its prediction leaves nothing confident after warm-up
        seed = 123
        net = init_network([4, 6, 3], seed)
        feats = np.random.default_rng(5).standard_normal((30, 4))
        working = (np.argmax(net.forward(feats), axis=1) + 1) % 3
        true = np.arange(30) % 3
        save_dataset(NoisyDataset(feats, working, true, 3), tmp_path / "t.ds")
        save_dataset(NoisyDataset(feats[:9].copy(), true[:9].copy(), true[:9].copy(), 3),
                     tmp_path / "h.ds")
        config = write_config(
            tmp_path / "run.cfg", hidden_dims="6", warmup_epochs="1",
            proto_split_epochs="0", main_epochs="1", base_lr="0.0",
            batch_size="8", seed=str(seed))
        report = tmp_path / "r"
        code = main(["train", "--config", str(config), "--data", str(tmp_path / "t.ds"),
                     "--heldout", str(tmp_path / "h.ds"), "--variant", "no_repar",
                     "--report", str(report)])
        assert code == 3
        assert "epoch 1:" in capsys.readouterr().err
        assert not report.exists()


# edits that fail a check reading two keys, and the other key it names
_CHECKED_WITH = {("proto_split_epochs", "4"): ("main_epochs",),
                 ("alpha", "0.2"): ("beta",), ("beta", "0.95"): ("alpha",)}


class TestConfigFile:
    def test_parses_defaults(self, tmp_path):
        cfg = parse_config_file(write_config(tmp_path / "run.cfg"))
        assert cfg.hidden_dims == (16, 8)
        assert cfg.warmup_epochs == 4 and cfg.main_epochs == 3
        assert cfg.thresholds.alpha == 0.9 and cfg.thresholds.beta == 0.2
        assert cfg.train.total_epochs == 7 and cfg.train.seed == 7
        assert cfg.semi.k_aug == 2 and cfg.semi.lambda_u == 1.0

    def test_comments_blanks_and_spacing_are_tolerated(self, tmp_path):
        path = tmp_path / "run.cfg"
        body = "\n".join(f"  {k} = {v}" for k, v in CONFIG_DEFAULTS.items())
        path.write_text("# hello\n\n" + body + "\n\n# bye\n")
        assert parse_config_file(path).seed == 7

    def test_provenance_keys_accepted(self, tmp_path):
        cfg = parse_config_file(write_config(
            tmp_path / "run.cfg", eval_split="0.25", noise_type="factual",
            noise_rate="0.3", noise_seed="11"))
        # provenance never reaches the run config or the report header
        assert cfg == parse_config_file(write_config(tmp_path / "plain.cfg"))
        assert "eval_split" not in cfg.echo()

    @pytest.mark.parametrize("overrides", [
        dict(extra_key="1"),
        dict(seed=None),                 # missing required key
        dict(alpha="high"),              # unparsable float
        dict(noise_type="adversarial"),
        dict(noise_rate="1.5"),
        dict(hidden_dims="16,,8"),
        dict(eval_split="0.0"),          # provenance keys are range-checked
        dict(eval_split="1.0"),
        dict(noise_seed="x"),
        dict(warmup_epochs="0"),         # PipelineConfig and its parts check these
        dict(proto_split_epochs="4"),
        dict(alpha="0.2"),               # alpha no longer above beta
        dict(seed="-1"),
        dict(k_aug="0"),
        dict(beta="0.95"),               # beta no longer below alpha
    ])
    def test_malformed_configs(self, tmp_path, overrides):
        path = write_config(tmp_path / "run.cfg", **overrides)
        with pytest.raises(FormatError) as info:
            parse_config_file(path)
        # the error names the line of each key it is about; write_config
        # writes a comment line, then the keys in CONFIG_DEFAULTS order
        (key, value), = overrides.items()
        keys = [k for k, v in {**CONFIG_DEFAULTS, **overrides}.items() if v is not None]
        named = [] if value is None else [key, *_CHECKED_WITH.get((key, value), ())]
        lines = ", ".join(str(n) for n in sorted(keys.index(k) + 2 for k in named))
        where = f"{path} line{'s' if len(named) > 1 else ''} {lines}" if named else path
        assert str(info.value).startswith(f"{where}: ")

    def test_missing_keys_named_in_table_order(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", seed=None, alpha=None)
        with pytest.raises(FormatError, match="'alpha', 'seed'"):
            parse_config_file(path)

    @pytest.mark.parametrize("name", ["configs/benchmark.cfg",
                                      "perfbench/configs/supervised.cfg"])
    def test_echo_parses_back_to_the_same_config(self, tmp_path, name):
        cfg = parse_config_file(REPO / name)
        path = tmp_path / "echo.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in cfg.echo().items()))
        assert parse_config_file(path) == cfg

    @pytest.mark.parametrize("key, value", [
        ("base_lr", "nan"), ("weight_decay", "nan"), ("temperature", "inf"),
        ("mix_alpha", "inf"), ("lambda_u", "nan"), ("aug_sigma", "inf"),
        # the semi kernels do not re-check these: SemiConfig is the one gate
        ("temperature", "0"), ("mix_alpha", "0"), ("aug_sigma", "-0.1"),
    ])
    def test_non_finite_value_exits_two(self, dataset_files, tmp_path, capsys, key, value):
        train, heldout = dataset_files
        config = write_config(tmp_path / "run.cfg", **{key: value})
        report = tmp_path / "r"
        code = main(["train", "--config", str(config), "--data", str(train),
                     "--heldout", str(heldout), "--report", str(report)])
        assert code == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not report.exists()

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "run.cfg")
        path.write_text(path.read_text() + "seed=8\n")
        with pytest.raises(FormatError):
            parse_config_file(path)

    def test_bare_line_rejected(self, tmp_path):
        path = write_config(tmp_path / "run.cfg")
        path.write_text(path.read_text() + "just-words\n")
        with pytest.raises(FormatError):
            parse_config_file(path)

    def test_non_ascii_config_exits_two(self, dataset_files, tmp_path, capsys):
        train, heldout = dataset_files
        config = write_config(tmp_path / "run.cfg")
        config.write_bytes(b"# caf\xc3\xa9 recipe\n" + config.read_bytes())
        code = main(["train", "--config", str(config), "--data", str(train),
                     "--heldout", str(heldout), "--report", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {config} line 1: non-ASCII byte 0xc3\n"

    def test_unknown_key_exits_two(self, dataset_files, tmp_path, capsys):
        train, heldout = dataset_files
        config = write_config(tmp_path / "run.cfg", mystery="1")
        code = main(["train", "--config", str(config), "--data", str(train),
                     "--heldout", str(heldout), "--report", str(tmp_path / "r")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err


def three_class_dataset(n_per=4):
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((3 * n_per, 5))
    labels = np.repeat(np.arange(3), n_per)
    return NoisyDataset(feats, labels.copy(), labels.copy(), 3)


def synthetic_small_circle_log(ds, corrected, right):
    """Small-circle records with a chosen count of correct relabels."""
    log = []
    for j in range(corrected):
        index = j % ds.n
        true = int(ds.true_labels[index])
        proto = true if j < right else (true + 1) % 3
        log.append(CorrectionRecord(index=index, d_max=0.95, proto_label=proto,
                                    prior_label=(true + 2) % 3, zone="small",
                                    action="corrected", p_correct=1.0))
    return log


class TestStats:
    def test_prints_table_two_headline_number(self, tmp_path, capsys):
        ds = three_class_dataset(n_per=1901)  # one sample per log row: a log lists each once
        log = synthetic_small_circle_log(ds, corrected=5703, right=5416)
        log_path, data_path = tmp_path / "log.csv", tmp_path / "d.ds"
        save_correction_log(log, ds, log_path)
        save_dataset(ds, data_path)
        code = main(["stats", "--log", str(log_path), "--data", str(data_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "unconfident_size" in out
        assert "94.97%" in out

    def test_empty_log_prints_na(self, tmp_path, capsys):
        ds = three_class_dataset()
        log_path, data_path = tmp_path / "log.csv", tmp_path / "d.ds"
        save_correction_log([], ds, log_path)
        save_dataset(ds, data_path)
        assert main(["stats", "--log", str(log_path), "--data", str(data_path)]) == 0
        out = capsys.readouterr().out
        assert "n/a" in out

    def test_out_of_range_index_exits_two(self, tmp_path, capsys):
        ds = three_class_dataset()
        big = three_class_dataset(n_per=40)
        log = synthetic_small_circle_log(big, corrected=60, right=60)
        log_path, data_path = tmp_path / "log.csv", tmp_path / "d.ds"
        save_correction_log(log, big, log_path)
        save_dataset(ds, data_path)  # smaller dataset than the log references
        code = main(["stats", "--log", str(log_path), "--data", str(data_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        # index 1 again: a repartition log lists each unconfident sample once
        ("1,0.95,0,2,small,corrected,1.0,0", "line 5: index 1 repeats line 3"),
        ("4,0.95,2,2,small,corrected,1.0,1", "line 5: corrected row keeps its label 2"),
        ("4,0.95,0,2,small,retained,1.0,1", "line 5: small-circle row retains"),
        ("99999999,0.1,0,2,outside,unmoved,0.0,1", "index 99999999 outside dataset of 12"),
        # no class 9 among k=3: stats would count this as a wrong correction
        ("4,0.95,9,2,small,corrected,1.0,1", "line 5: proto_label or prior_label outside [0, 3)"),
    ], ids=["repeated-index", "corrected-keeps-label", "small-retains-differing",
            "outside-index-out-of-range", "proto-label-out-of-range"])
    def test_impossible_log_row_exits_two(self, tmp_path, capsys, row, message):
        ds = three_class_dataset()
        log = synthetic_small_circle_log(ds, corrected=3, right=2)
        log_path, data_path = tmp_path / "log.csv", tmp_path / "d.ds"
        save_correction_log(log, ds, log_path)
        save_dataset(ds, data_path)
        log_path.write_text(log_path.read_text() + row + "\n")
        code = main(["stats", "--log", str(log_path), "--data", str(data_path)])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_log_is_checked_against_the_dataset_it_is_scored_with(self, tmp_path, capsys):
        ds = three_class_dataset()
        log_path = tmp_path / "log.csv"
        save_correction_log(synthetic_small_circle_log(ds, corrected=3, right=2), ds, log_path)
        labels = np.roll(ds.true_labels, 4)  # index 0 is class 2 here, class 0 in the log
        other = NoisyDataset(ds.features, labels, labels, 3)
        same_labels = NoisyDataset(ds.features + 1.0, ds.working_labels, ds.true_labels, 3)
        outputs = []
        for dataset in (ds, other, same_labels):
            save_dataset(dataset, tmp_path / "d.ds")
            code = main(["stats", "--log", str(log_path), "--data", str(tmp_path / "d.ds")])
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == (0, "unconfident_size  small_circle  corrected  right  accuracy\n"
                                 "3                 3             3          2      66.67%\n", "")
        assert outputs[1] == (2, "", f"error: {log_path} line 2: true_label 0 is not the "
                                     "dataset's true label 2 at index 0\n")
        assert outputs[2] == outputs[0]

    def test_corrupt_log_exits_two(self, tmp_path, capsys):
        ds = three_class_dataset()
        log_path, data_path = tmp_path / "log.csv", tmp_path / "d.ds"
        log_path.write_text("not,a,log\n")
        save_dataset(ds, data_path)
        code = main(["stats", "--log", str(log_path), "--data", str(data_path)])
        assert code == 2

    def test_non_ascii_log_exits_two(self, tmp_path, capsys):
        ds = three_class_dataset()
        log = synthetic_small_circle_log(ds, corrected=3, right=2)
        log_path, data_path = tmp_path / "log.csv", tmp_path / "d.ds"
        save_correction_log(log, ds, log_path)
        save_dataset(ds, data_path)
        log_path.write_bytes(log_path.read_bytes().replace(b"small", b"sm\xe4ll", 2))
        code = main(["stats", "--log", str(log_path), "--data", str(data_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {log_path} line 2: non-ASCII byte 0xe4\n"


def _write_report(path, ds):
    config = parse_config_file(write_config(path.with_suffix(".cfg")))
    write_report(run_with_artifacts(ds, ds, config, "no_semi").report, path)


# each text file this package reads: a writer, then its reader
_TEXT_FILES = {
    "dataset": (lambda path, ds: write_v1_dataset(ds, path), load_dataset),
    "config": (lambda path, ds: write_config(path), parse_config_file),
    "correction_log": (lambda path, ds: save_correction_log(
        synthetic_small_circle_log(ds, corrected=3, right=2), ds, path),
        lambda path: load_correction_log(path, three_class_dataset())),
    "report": (_write_report, parse_report),
}


@pytest.mark.parametrize("bad", [b"\x00", b"\x0b", b"\x0c", b"\x1f", b"\r", b"\xe4"],
                         ids=["nul", "vertical_tab", "form_feed", "unit_separator", "lone_cr",
                              "non_ascii"])
@pytest.mark.parametrize("kind", _TEXT_FILES)
def test_every_reader_names_the_line_of_a_bad_byte(tmp_path, kind, bad):
    # one rule for every text file: ASCII, each line ends at "\n" or
    # "\r\n", and no control byte but tab
    write, read = _TEXT_FILES[kind]
    ds = three_class_dataset()
    path = tmp_path / f"file.{kind}"
    write(path, ds)
    read(path)
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:1] + bad + lines[2][1:]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(FormatError) as info:
        read(path)
    byte = "non-ASCII" if bad[0] > 0x7f else "control"
    assert str(info.value) == f"{path} line 3: {byte} byte 0x{bad[0]:02x}"
