"""Self-test of the benchmark harness on a tiny input.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run
import tracer as tracing
from protosemi import cli

TINY_CONFIG = """\
hidden_dims=16,8
warmup_epochs={warmup}
proto_split_epochs={proto}
main_epochs={main}
alpha=0.95
beta=0.5
base_lr=0.07
batch_size=32
weight_decay=0.0005
k_aug=2
temperature=0.5
mix_alpha=0.75
lambda_u=1.0
aug_sigma=0.1
seed=0
"""


def tiny(tmp_path: Path, name="tiny-full", variant="full", warmup=4, proto=2, main=3) -> run.Workload:
    config = tmp_path / f"{name}.cfg"
    config.write_text(TINY_CONFIG.format(warmup=warmup, proto=proto, main=main), encoding="ascii")
    return run.Workload(name, 100, variant, config, accuracy_floor=0.5)


@pytest.fixture
def out_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(tmp_path, out_dirs, capsys, trace):
    workload = tiny(tmp_path)
    code = run.main(["--workload", workload.name, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace)], workloads={workload.name: workload})
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    end_specs, layer_specs = run.load_metric_specs()
    specs = layer_specs if trace else {**end_specs, "failed_runs": ("share", "lower")}
    printed = {}
    for line in lines[:-1]:
        cells = line.split()
        if len(cells) >= 2 and cells[0] in specs:
            printed[cells[0]] = cells[1]
    assert printed == {name: unit for name, (unit, _) in specs.items()}
    want = layer_specs if trace else end_specs
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, (unit, _) in want.items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_traced_run_restores_originals_and_matches_untraced(tmp_path):
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr in tracing.wrap_targets()}
    originals[(cli, "run_with_artifacts")] = cli.run_with_artifacts
    summary = run.run_workload(tiny(tmp_path), 3, 0.0, tmp_path / "work", traced=True)

    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in originals.items())
    assert summary.failed == 0
    untraced, traced = summary.reps
    assert traced.tracer is not None and untraced.tracer is None
    assert traced.data_digest == untraced.data_digest
    assert traced.report_digest == untraced.report_digest

    nodes = traced.tracer.nodes()
    layers = run.run_self_by_layer(nodes)
    metrics = run.layer_metrics(nodes)
    assert sum(layers.values()) == pytest.approx(metrics["pipeline.run_s"], rel=1e-9)
    assert all(node["self"] >= -1e-9 for node in nodes)
    assert metrics["net.train_epoch_calls"] == 4
    assert metrics["select.cosine_calls"] == metrics["select.unconfident_in"] > 0


def test_budget_for_one_pass_still_compares_outputs(tmp_path):
    workload = dataclasses.replace(tiny(tmp_path), inputs=16)
    summary = run.run_workload(workload, 3, 0.0, tmp_path / "work")
    assert summary.failed == 0
    assert [r.input for r in summary.reps] == [0, 0]
    assert summary.comparisons == 1
    assert summary.reps[0].report_digest == summary.reps[1].report_digest


def test_corrupted_report_counts_as_failure(tmp_path, out_dirs, capsys, monkeypatch):
    real_write = cli.write_report

    def corrupting_write(report, path):
        real_write(report, path)
        text = Path(path).read_text(encoding="ascii")
        Path(path).write_text(text.replace("[epochs]", "[epoch]"), encoding="ascii")

    monkeypatch.setattr(cli, "write_report", corrupting_write)
    workload = tiny(tmp_path)
    code = run.main(["--workload", workload.name, "--seed", "3", "--seconds", "0"],
                    workloads={workload.name: workload})
    assert code == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result == {"correct": False, "attempted": 2, "failed": 2, "metrics": {}}


def test_divergent_repetition_counts_as_failure():
    reps = [run.Rep(wall_s=1.0, input=0, data_digest=d, report_digest=r)
            for d, r in (("d", "a"), ("d", "a"), ("d", "b"), ("e", "a"))]
    reps.append(run.Rep(wall_s=1.0, input=1, data_digest="f", report_digest="g"))
    assert run._mark_divergent(reps) == 3
    assert [r.failure is None for r in reps] == [True, True, False, False, True]


def test_supervised_input_does_no_select_or_mixmatch_work(tmp_path):
    workload = tiny(tmp_path, "tiny-supervised", "no_semi", warmup=5, proto=0, main=0)
    summary = run.run_workload(workload, 3, 0.0, tmp_path / "work", traced=True)
    assert summary.failed == 0
    samples = run.traced_samples(summary)
    idle = {k: v for k, v in samples.items() if k.startswith(("select.", "mixmatch."))}
    assert idle and all(v == [(0, 0)] for v in idle.values()), idle
    assert samples["net.train_epoch_calls"] == [(0, 5)]
    assert samples["data.load_rows"][0][1] > 0
