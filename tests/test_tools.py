"""tools/output_digests.py, the byte-identity check between two checkouts,
and tools/sweep.py, the seed sweep."""

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import load_tool
from protosemi import data
from protosemi.cli import main, parse_config_file
from protosemi.errors import FormatError

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
SWEEP = SCRIPT.with_name("sweep.py")

# The report digests of the first input, per OpenBLAS kernel of the numpy
# wheel (numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0): the kernels round
# some products differently, so one run digests differently under each.  A
# change that moves report bytes must edit these in the same change and say
# why in CHANGES.md.
GOLDEN_REPORTS = {
    "SkylakeX": {
        "p500-s0.no_semi.report": "f488e78141f1ae0040b0e4ca8ad1197c60b0d4790933c93f5b4fe7d211f48655",
        "p500-s0.full.report": "332e7335643935af44ea61ee07e156a5a548632f1e4f7dadbd0da68f2ccfd8be",
    },
    "Haswell": {
        "p500-s0.no_semi.report": "fa83b28515108899e86c4d6aa1d4b590413073f2134514c39581d3421cd9a336",
        "p500-s0.full.report": "c2a60db67ae0f6f6c03efdee3dfeeb842c2a14ddfd2652caea5cf9ad0f796071",
    },
    "Sandybridge": {
        "p500-s0.no_semi.report": "bf8d45e8060271b4d68fcaf05c1e15b6bebd093eb4dd2a56f525dcd6cf45b744",
        "p500-s0.full.report": "5e7e827186f45333af55dcce675359d73c39a4ba3208e2f80c5ae63cc95feef8",
    },
}
KERNEL_LINE = "OpenBLAS kernel: "
# the /proc/cpuinfo flag each kernel needs
KERNEL_FLAGS = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx"}


def digests(outdir, kernel=None) -> tuple:
    """The OpenBLAS kernel the script ran under, and its stdout lines.

    ``kernel`` names an OpenBLAS kernel for the script to run, through
    OPENBLAS_CORETYPE; by default OpenBLAS picks one for this CPU.
    """
    env = dict(os.environ)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    run = subprocess.run([sys.executable, str(SCRIPT), str(outdir), "--inputs", "1"],
                         capture_output=True, text=True, check=True, env=env)
    kernel = next(line.removeprefix(KERNEL_LINE) for line in run.stderr.splitlines()
                  if line.startswith(KERNEL_LINE))
    return kernel, run.stdout.splitlines()


@pytest.fixture(scope="module")
def first(tmp_path_factory) -> tuple:
    return digests(tmp_path_factory.mktemp("digests"))


def numerics() -> str:
    blas = "unknown"
    with contextlib.suppress(Exception):  # show_config's dict layout varies by numpy version
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return f"numpy {np.__version__}, BLAS {blas}"


def test_same_seed_gives_the_same_digests(first, tmp_path):
    assert first == digests(tmp_path)
    names = [line.split("  ", 1)[1] for line in first[1]]
    # the dataset pair, both reports, the full run's logs and stats, every command's streams
    for name in ("p500-s0.ds", "p500-s0.heldout.ds", "p500-s0.full.report",
                 "p500-s0.no_semi.report", "p500-s0.full.emb.csv",
                 "p500-s0.full.report.corrections-epoch2.csv", "p500-s0.full.report.stats.csv",
                 "gen-data.p500-s0.exit", "train.p500-s0.full.stdout",
                 "stats.p500-s0.full.report.corrections-epoch11.csv.stderr"):
        assert name in names
    assert len(names) == len(set(names))


def cpu_flags() -> set:
    """The flags /proc/cpuinfo lists for the first CPU; none where it is missing."""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                return set(line.partition(":")[2].split())
    return set()


def assert_golden(kernel, lines):
    """Fail unless the digest ``lines`` hold ``kernel``'s golden report digests."""
    got = {name: digest for digest, name in (line.split("  ", 1) for line in lines)}
    for name, want in GOLDEN_REPORTS[kernel].items():
        assert got[name] == want, (
            f"{name} digests to {got[name]}, not {want}, under {numerics()} and the "
            f"{kernel} kernel; the digests were recorded under numpy 2.4.6, BLAS "
            "scipy-openblas 0.3.31.188.0")


def test_report_bytes_match_the_golden_digests(first):
    kernel, lines = first
    assert kernel in GOLDEN_REPORTS, (
        f"no golden digests recorded for OpenBLAS kernel {kernel!r} under {numerics()}")
    assert_golden(kernel, lines)


@pytest.mark.parametrize("kernel", GOLDEN_REPORTS)
def test_every_kernel_this_cpu_runs_matches_its_golden_digests(kernel, tmp_path):
    # a change that moves one kernel's bytes alone shows here, on any host
    # whose CPU runs that kernel
    if KERNEL_FLAGS[kernel] not in cpu_flags():
        pytest.skip(f"this CPU cannot run the {kernel} kernel: no {KERNEL_FLAGS[kernel]} flag")
    ran, lines = digests(tmp_path, kernel)
    assert ran == kernel
    assert_golden(kernel, lines)


def test_refuses_a_directory_with_files(tmp_path):
    (tmp_path / "old.txt").write_text("stale\n")
    run = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                         capture_output=True, text=True)
    assert run.returncode == 2
    assert "is not empty" in run.stderr


def test_sweep_counts_an_abort_and_goes_on():
    # under ambiguity noise at n=1,600, full aborts (exit 3) on data seed 5
    # and finishes on seed 4; no_repar finishes on both
    run = subprocess.run([sys.executable, str(SWEEP), "--sizes", "1600",
                          "--noise", "ambiguity", "--seeds", "4,5"],
                         capture_output=True, text=True, check=True)
    out = run.stdout.splitlines()
    closing = json.loads(out[-1])
    env = closing["env"]
    assert set(env) == {"numpy", "openblas_kernel", "nproc"}
    assert env["numpy"] == np.__version__ and env["nproc"] >= 1
    assert out[0] == f"env numpy={env['numpy']} openblas_kernel={env['openblas_kernel']} " \
                     f"nproc={env['nproc']}"
    cells = closing["cells"]
    assert [(c["variant"], c["runs"], c["exit3"]) for c in cells] == [
        ("full", 2, 1), ("no_repar", 2, 0)]
    full, no_repar = cells
    assert full["median_final"] == full["mean_final"] >= 0.90
    assert full["q1_final"] is None and full["q3_final"] is None
    assert no_repar["q1_final"] <= no_repar["median_final"] <= no_repar["q3_final"]


def test_sweep_writes_its_closing_line_to_out(tmp_path):
    out = tmp_path / "SWEEP_one.json"
    run = subprocess.run([sys.executable, str(SWEEP), "--sizes", "1600",
                          "--noise", "factual", "--seeds", "4", "--out", str(out)],
                         capture_output=True, text=True, check=True)
    written = out.read_text()
    assert written == run.stdout.splitlines()[-1] + "\n"
    closing = json.loads(written)
    assert set(closing["env"]) == {"numpy", "openblas_kernel", "nproc"}
    assert [(c["n"], c["noise"], c["variant"], c["runs"]) for c in closing["cells"]] == [
        (1600, "factual", "full", 1), (1600, "factual", "no_repar", 1)]


def test_a_noise_model_added_to_the_table_reaches_gen_data_configs_and_the_sweep(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(data.NOISE_MODELS, "copy", data.inject_factual_noise)
    # gen-data takes its choices and its injector from the table
    for noise in ("copy", "factual"):
        assert main(["gen-data", "--per-class", "10", "--rate", "0.3", "--noise", noise,
                     "--out", str(tmp_path / f"{noise}.ds")]) == 0
    assert (tmp_path / "copy.ds").read_bytes() == (tmp_path / "factual.ds").read_bytes()
    # a config's noise_type is checked against it, and the message lists it
    recipe = SCRIPT.parents[1] / "configs" / "benchmark.cfg"
    for noise in ("copy", "adversarial"):
        (tmp_path / f"{noise}.cfg").write_text(
            recipe.read_text().replace("noise_type=factual", f"noise_type={noise}"))
    assert parse_config_file(tmp_path / "copy.cfg") == parse_config_file(recipe)
    with pytest.raises(FormatError, match="noise_type must be factual or ambiguity or copy"):
        parse_config_file(tmp_path / "adversarial.cfg")
    # the sweep checks --noise against it once protosemi is imported, then sweeps
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the sweep sets these; teardown restores them
    monkeypatch.syspath_prepend(str(SWEEP.parent))  # restores sys.path after, too
    sweep = load_tool("sweep")
    with pytest.raises(SystemExit) as info:
        sweep.main(["--noise", "adversarial", "--sizes", "1600", "--seeds", "0"])
    assert info.value.code == 2
    assert "choose from factual, ambiguity, copy" in capsys.readouterr().err
    assert sweep.main(["--noise", "copy", "--sizes", "1600", "--seeds", "0"]) == 0
    cells = json.loads(capsys.readouterr().out.splitlines()[-1])["cells"]
    assert [(c["noise"], c["variant"], c["runs"]) for c in cells] == [
        ("copy", "full", 1), ("copy", "no_repar", 1)]
