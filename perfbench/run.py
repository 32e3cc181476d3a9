"""Benchmark of protosemi: ``gen-data`` then ``train``, as a user runs them.

    python3 perfbench/run.py --workload full-10k --seed 1 --seconds 45 --trace 0

One client in a closed loop: this single process runs ``gen-data``,
then ``train``, both in-process through ``protosemi.cli.main``, then the
next repetition, for as long as the next one fits in ``--seconds`` (at
least two).  A workload names a dataset size, a config and a variant
(``perfbench/workloads.json``).  Its inputs are ``inputs`` datasets whose
gen-data seeds derive from ``--seed``; repetitions cycle through them
after the first input has run twice.
Each metric's value is the mean, over the inputs a run reached, of that
input's median, so that runs with different seeds weigh the same mix.
Metric names and units come from ``BENCHMARK.json``.

Every repetition is checked: both commands exit 0, the report
round-trips through ``parse_report``, its ``final_accuracy`` reaches the
workload's floor, and a repeated input writes byte-identical dataset
files and report (the first input always repeats, so every run makes
at least one such comparison).  A repetition that fails a check, raises
or exits non-zero counts as failed.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced repetitions of the first
input and reports the per-layer metrics of the traced ones, plus the
tracing overhead; the spans of the last one go to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``metrics`` is
empty, and the exit code 1, when no repetition produced metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Fixed BLAS thread count, set before numpy loads.  The network's
# matrices are at most 224 x 32, too small for BLAS threads to help, and
# one thread keeps timings independent of what else the machine runs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import protosemi
    from protosemi import cli
    from protosemi.pipeline import parse_report, write_report
except ImportError as err:
    raise SystemExit(f"perfbench: cannot import protosemi from {SRC}: {err}") from None

from tracer import Patches, Tracer, descendants

clock = time.perf_counter

# gen-data defaults plus the noise and held-out split every workload uses
GEN_FLAGS = ("--classes", "4", "--dim", "16", "--sep", "6", "--spread", "1",
             "--noise", "factual", "--rate", "0.3", "--heldout-frac", "0.2")
WARMUP_PER_CLASS = 50


@dataclass(frozen=True)
class Workload:
    name: str
    per_class: int
    variant: str
    config: Path
    accuracy_floor: float
    inputs: int = 1


def load_workloads(path: Path = BENCH_DIR / "workloads.json") -> dict:
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {
        name: Workload(name, w["per_class"], w["variant"], ROOT / w["config"],
                       w["accuracy_floor"], w["inputs"])
        for name, w in spec["workloads"].items()
    }


def load_metric_specs(path: Path = ROOT / "BENCHMARK.json") -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> (unit, better), in file order."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    return ({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]})


def data_seeds(seed: int, inputs: int) -> list:
    """The gen-data seeds of a run's inputs, derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(inputs)]


@dataclass
class Rep:
    """Measurements and verdict of one gen-data + train repetition."""

    wall_s: float
    input: int
    failure: str | None = None
    n: int = 0
    gen_s: float = 0.0
    setup_s: float = 0.0
    train_s: float = 0.0
    total_s: float = 0.0
    samples_per_s: float = 0.0
    final_accuracy: float = 0.0
    data_digest: str = ""
    report_digest: str = ""
    tracer: Tracer | None = None


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def run_repetition(workload: Workload, data_seed: int, input_index: int, workdir: Path,
                   traced: bool = False) -> Rep:
    """gen-data then train in this process; never raises for a program fault."""
    data, heldout, report = workdir / "train.txt", workdir / "heldout.txt", workdir / "report.txt"
    gen_argv = ["gen-data", "--per-class", str(workload.per_class), *GEN_FLAGS,
                "--seed", str(data_seed), "--out", str(data), "--heldout-out", str(heldout)]
    train_argv = ["train", "--config", str(workload.config), "--data", str(data),
                  "--heldout", str(heldout), "--variant", workload.variant, "--report", str(report)]
    tracer = Tracer() if traced else None
    marks = {}
    original_run = cli.run_with_artifacts

    @functools.wraps(original_run)
    def timed_run(dataset, *args, **kwargs):
        marks["start"] = clock()
        result = original_run(dataset, *args, **kwargs)
        marks["end"] = clock()
        marks["n"] = dataset.n
        marks["epochs"] = len(result.report.epochs)
        return result

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    gc.collect()  # every repetition starts from the same collector state
    started = clock()
    rep = Rep(wall_s=0.0, input=input_index, tracer=tracer)
    output = io.StringIO()
    try:
        with Patches() as patches, contextlib.redirect_stdout(output), \
                contextlib.redirect_stderr(output):
            patches.set(cli, "run_with_artifacts", timed_run)
            if tracer:
                tracer.install(patches)
            t0 = clock()
            with span("cli.gen-data"):
                gen_code = cli.main(gen_argv)
            t1 = clock()
            train_code = None
            if gen_code == 0:
                with span("cli.train"):
                    train_code = cli.main(train_argv)
            t2 = clock()
        rep.failure = _check(workload, gen_code, train_code, report, output.getvalue())
        if rep.failure is None:
            rep.gen_s = t1 - t0
            rep.data_digest = _digest(data, heldout)
            rep.setup_s = marks["start"] - t1
            rep.train_s = marks["end"] - marks["start"]
            rep.total_s = t2 - t1
            rep.n = marks["n"]
            rep.samples_per_s = marks["n"] * marks["epochs"] / rep.train_s
            rep.final_accuracy = parse_report(report).final_accuracy
            rep.report_digest = _digest(report)
    except Exception:  # a fault of the program under test: record it, keep measuring
        rep.failure = "raised:\n" + traceback.format_exc()
    rep.wall_s = clock() - started
    return rep


def _check(workload: Workload, gen_code, train_code, report: Path, output: str) -> str | None:
    """Why the repetition's outputs are wrong, or None when they pass."""
    if gen_code != 0 or train_code != 0:
        return f"gen-data exit {gen_code}, train exit {train_code}: {output[-400:]}"
    parsed = parse_report(report)
    roundtrip = report.with_name("report.roundtrip.txt")
    write_report(parsed, roundtrip)
    if roundtrip.read_bytes() != report.read_bytes():
        return "report does not round-trip through parse_report"
    if parsed.variant != workload.variant:
        return f"report variant {parsed.variant!r}, expected {workload.variant!r}"
    if not parsed.final_accuracy >= workload.accuracy_floor:
        return f"final_accuracy {parsed.final_accuracy} below floor {workload.accuracy_floor}"
    return None


@dataclass
class RunSummary:
    reps: list
    peak_rss_mb: float
    rss_before_mb: float  # peak resident memory before the first measured repetition
    data_seeds: list
    comparisons: int  # repetitions whose output bytes were checked against an earlier run

    @property
    def good(self) -> list:
        return [r for r in self.reps if r.failure is None]

    @property
    def trained(self) -> list:
        """Good untraced repetitions that ran train."""
        return [r for r in self.good if r.tracer is None]

    @property
    def failed(self) -> int:
        return len(self.reps) - len(self.good)


def _mark_divergent(reps: list) -> int:
    """Fail repetitions whose outputs differ from the first good one on the same input.

    Returns the number of repetitions compared with an earlier one.
    """
    first = {}
    comparisons = 0
    for i, rep in enumerate(reps, start=1):
        if rep.failure is None and rep.input not in first:
            first[rep.input] = (rep.data_digest, rep.report_digest)
        elif rep.failure is None:
            comparisons += 1
            if first[rep.input] != (rep.data_digest, rep.report_digest):
                rep.failure = (f"repetition {i}: dataset or report bytes differ "
                               f"from an earlier run of input {rep.input}")
    return comparisons


def _input_order(inputs: int):
    """0, 0, 1, 2, ..., inputs-1, 0, 1, ...: the second repetition repeats the first."""
    yield 0
    yield from itertools.cycle(range(inputs))


def run_workload(workload: Workload, seed: int, seconds: float, workdir: Path,
                 traced: bool = False) -> RunSummary:
    """Repeat while the next step fits in ``seconds``.

    Untraced, a step is one repetition of the next input in
    ``_input_order``, and at least two steps run, so the first input is
    always run twice and its outputs compared.  Traced, a step is an
    untraced repetition of the first input followed by a traced one, so
    the two reports can be compared byte for byte; at least one step runs.
    """
    seeds = data_seeds(seed, workload.inputs)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    warmup = dataclasses.replace(workload, per_class=min(workload.per_class, WARMUP_PER_CLASS),
                                 accuracy_floor=0.0)
    run_repetition(warmup, seeds[0], 0, workdir)  # loads lazy code paths; not measured

    rss_before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    min_steps = 1 if traced else 2
    reps = []
    start = clock()
    for i, k in enumerate(itertools.repeat(0) if traced else _input_order(workload.inputs)):
        step = [run_repetition(workload, seeds[k], k, workdir)]
        if traced:
            step.append(run_repetition(workload, seeds[0], 0, workdir, traced=True))
        reps.extend(step)
        if i + 1 >= min_steps and clock() - start + sum(r.wall_s for r in step) > seconds:
            break

    comparisons = _mark_divergent(reps)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return RunSummary(reps, peak_rss_mb, rss_before_mb, seeds, comparisons)


def end_to_end_samples(summary: RunSummary) -> dict:
    """Name -> [(input, value), ...], for every end-to-end metric."""
    untraced = [r for r in summary.good if r.tracer is None]
    trained = summary.trained
    return {
        "gen_s": [(r.input, r.gen_s) for r in untraced],
        "setup_s": [(r.input, r.setup_s) for r in untraced],
        "train_s": [(r.input, r.train_s) for r in trained],
        "total_s": [(r.input, r.total_s) for r in trained],
        "samples_per_s": [(r.input, r.samples_per_s) for r in trained],
        "peak_rss_mb": [(0, summary.peak_rss_mb)],
        "final_accuracy": [(r.input, r.final_accuracy) for r in trained],
    }


def aggregate(samples: list) -> float:
    """Mean over inputs of each input's median."""
    by_input = {}
    for k, value in samples:
        by_input.setdefault(k, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def layer_metrics(nodes: list) -> dict:
    """Per-layer metrics of one traced repetition, from its span tree."""
    def pick(name):
        return [n for n in nodes if n["name"] == name]

    def total(name):
        return sum(n["seconds"] for n in pick(name))

    def self_s(name):
        return sum(n["self"] for n in pick(name))

    def calls(name):
        return sum(n["calls"] for n in pick(name))

    def count(name, key):
        return sum(n["counts"].get(key, 0) for n in pick(name))

    unconfident_in = count("select.repartition", "unconfident_in")
    moved = count("select.repartition", "moved")
    guess_rows = count("mixmatch.guess_labels", "rows")
    pool_rows = count("mixmatch.semi_train_epoch", "pool_rows")
    return {
        "data.gen_s": self_s("cli.gen-data"),
        "data.save_s": total("data.save_dataset"),
        "data.save_bytes": count("data.save_dataset", "bytes"),
        "data.load_s": total("data.load_dataset"),
        "data.load_rows": count("data.load_dataset", "rows"),
        "data.load_bytes": count("data.load_dataset", "bytes"),
        "cli.parse_config_s": total("cli.parse_config_file"),
        "cli.write_s": total("pipeline.write_report") + total("pipeline.write_stats_csv"),
        "cli.self_s": self_s("cli.train"),
        "pipeline.run_s": total("pipeline.run_with_artifacts"),
        "pipeline.self_s": self_s("pipeline.run_with_artifacts"),
        "pipeline.evaluate_s": total("pipeline.evaluate"),
        "pipeline.evaluate_rows": count("pipeline.evaluate", "rows"),
        "net.train_epoch_s": total("net.train_epoch"),
        "net.train_epoch_calls": calls("net.train_epoch"),
        "net.activations_s": total("net.Network.activations"),
        "net.activations_calls": calls("net.Network.activations"),
        "net.activations_rows": count("net.Network.activations", "rows"),
        "net.ce_grads_s": total("net.cross_entropy_grads"),
        "net.backprop_s": total("net.Network.backprop"),
        "net.backprop_calls": calls("net.Network.backprop"),
        "net.sgd_step_s": total("net.Network.sgd_step"),
        "net.sgd_step_calls": calls("net.Network.sgd_step"),
        "select.split_s": total("select.split_by_agreement"),
        "select.split_rows": count("select.split_by_agreement", "rows"),
        "select.prototypes_s": total("select.build_prototypes"),
        "select.repartition_self_s": self_s("select.repartition"),
        "select.cosine_calls": calls("select.cosine_to_rows"),
        "select.unconfident_in": unconfident_in,
        "select.moved": moved,
        "select.moved_ratio": moved / unconfident_in if unconfident_in else 0.0,
        "select.save_log_s": total("select.save_correction_log"),
        "select.save_log_rows": count("select.save_correction_log", "rows"),
        "mixmatch.semi_epoch_s": total("mixmatch.semi_train_epoch"),
        "mixmatch.semi_epoch_self_s": self_s("mixmatch.semi_train_epoch"),
        "mixmatch.augment_s": total("mixmatch.augment"),
        "mixmatch.augment_calls": calls("mixmatch.augment"),
        "mixmatch.guess_labels_s": total("mixmatch.guess_labels"),
        "mixmatch.guess_rows": guess_rows,
        "mixmatch.guess_rows_per_pool_row": guess_rows / pool_rows if pool_rows else 0.0,
        "mixmatch.sharpen_s": total("mixmatch.sharpen"),
        "mixmatch.mixup_s": total("mixmatch.mixup"),
        "mixmatch.mixup_calls": calls("mixmatch.mixup"),
        "mixmatch.brier_s": total("mixmatch.brier_grads"),
    }


def run_self_by_layer(nodes: list) -> dict:
    """Self seconds inside run_with_artifacts, summed per layer (module)."""
    run = next(n for n in nodes if n["name"] == "pipeline.run_with_artifacts")
    layers = {}
    for node in descendants(nodes, run["id"]):
        layer = node["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + node["self"]
    return layers


def traced_samples(summary: RunSummary) -> dict:
    """Name -> [(input, value), ...], for every per-layer metric."""
    traced = [r for r in summary.good if r.tracer is not None]
    per_rep = [(r.input, layer_metrics(r.tracer.nodes())) for r in traced]
    samples = {name: [(k, m[name]) for k, m in per_rep] for name in per_rep[0][1]}
    untraced = [r.train_s for r in summary.trained]
    samples["trace.overhead_s"] = [(0, statistics.median(r.train_s for r in traced)
                                    - statistics.median(untraced))]
    return samples


def tail_percentile(values: list, better: str) -> tuple[int, float] | None:
    """The most extreme percentile on the bad side with ten samples beyond it.

    For a metric where lower is better that is the highest percentile
    with at least ten samples above it; where higher is better, the
    lowest with at least ten below it.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    if better == "lower":
        return 100 * (n - 10) // n, ordered[n - 11]
    return -(-100 * 10 // n), ordered[10]


def environment(seed: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(Exception):  # show_config's dict layout varies by numpy version
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_lines(workload: Workload, summary: RunSummary, samples: dict, specs: dict) -> list:
    lines = [f"workload {workload.name}: n={summary.trained[0].n} variant={workload.variant} "
             f"inputs={len({r.input for r in summary.reps})} repetitions={len(summary.reps)} "
             f"failed={summary.failed} output_comparisons={summary.comparisons}"]
    for i, r in enumerate(summary.reps, start=1):
        kind = "traced" if r.tracer else "untraced"
        lines.append(f"  repetition {i} input {r.input} {kind}: gen_s={_fmt(r.gen_s)} "
                     f"setup_s={_fmt(r.setup_s)} train_s={_fmt(r.train_s)} total_s={_fmt(r.total_s)}"
                     + ("" if r.failure is None else " FAILED"))
    lines.append(f"  {'metric':32s} {'unit':16s} {'value':>12s} {'median':>12s} "
                 f"{'tail pct':>18s} {'n':>4s}")
    for name, (unit, better) in specs.items():
        values = [v for _, v in samples[name]]
        tail = tail_percentile(values, better)
        tail_text = "n/a" if tail is None else f"p{tail[0]}={_fmt(tail[1])}"
        lines.append(f"  {name:32s} {unit:16s} {_fmt(aggregate(samples[name])):>12s} "
                     f"{_fmt(statistics.median(values)):>12s} {tail_text:>18s} {len(values):>4d}")
    return lines


def main(argv=None, workloads: dict | None = None) -> int:
    workloads = load_workloads() if workloads is None else workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(protosemi.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: protosemi was imported from {protosemi.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = workloads[args.workload]
    end_specs, layer_specs = load_metric_specs()
    workdir = WORK_DIR / f"{workload.name}-seed{args.seed}"
    try:
        summary = run_workload(workload, args.seed, args.seconds, workdir, traced=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    print("env " + json.dumps({**environment(args.seed), "data_seeds": summary.data_seeds,
                               "rss_before_measuring_mb": summary.rss_before_mb}))
    for i, rep in enumerate(summary.reps, start=1):
        if rep.failure is not None:
            print(f"repetition {i} failed: {rep.failure}")
    result = {"correct": summary.failed == 0, "attempted": len(summary.reps),
              "failed": summary.failed, "metrics": {}}
    traced = [r for r in summary.good if r.tracer is not None]
    if not summary.trained or (args.trace and not traced):
        print("perfbench: no repetition produced metrics", file=sys.stderr)
        print(json.dumps(result))
        return 1

    if args.trace:
        specs = shown = layer_specs
        samples = traced_samples(summary)
        OUT_DIR.mkdir(exist_ok=True)
        traced[-1].tracer.dump(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json")
        nodes = traced[-1].tracer.nodes()
        layers = run_self_by_layer(nodes)
        print("self seconds inside pipeline.run_s by layer: "
              + ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(layers.items()))
              + f"; sum={_fmt(sum(layers.values()))}"
              + f" run_s={_fmt(layer_metrics(nodes)['pipeline.run_s'])}")
    else:
        specs = end_specs
        samples = end_to_end_samples(summary)
        samples["failed_runs"] = [(0, summary.failed / len(summary.reps))]
        shown = {**specs, "failed_runs": ("share", "lower")}
    for line in report_lines(workload, summary, samples, shown):
        print(line)

    result["metrics"] = {name: {"value": aggregate(samples[name]), "unit": unit}
                         for name, (unit, _) in specs.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
