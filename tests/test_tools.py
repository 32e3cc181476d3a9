"""tools/output_digests.py: the byte-identity check between two checkouts."""

import contextlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"

# The report digests of the first input.  A change that moves report bytes
# must edit these in the same change and say why in CHANGES.md.
GOLDEN_REPORTS = {
    "p500-s0.no_semi.report": "f488e78141f1ae0040b0e4ca8ad1197c60b0d4790933c93f5b4fe7d211f48655",
    "p500-s0.full.report": "1967279c51df10283b64540095f8d24b2bf04a68f4866dd212a8556d257a38ba",
}


def digests(outdir) -> list:
    run = subprocess.run([sys.executable, str(SCRIPT), str(outdir), "--inputs", "1"],
                         capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


@pytest.fixture(scope="module")
def first(tmp_path_factory) -> list:
    return digests(tmp_path_factory.mktemp("digests"))


def numerics() -> str:
    blas = "unknown"
    with contextlib.suppress(Exception):  # show_config's dict layout varies by numpy version
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return f"numpy {np.__version__}, BLAS {blas}"


def test_same_seed_gives_the_same_digests(first, tmp_path):
    assert first == digests(tmp_path)
    names = [line.split("  ", 1)[1] for line in first]
    # the dataset pair, both reports, the full run's logs and stats, every command's streams
    for name in ("p500-s0.ds", "p500-s0.heldout.ds", "p500-s0.full.report",
                 "p500-s0.no_semi.report", "p500-s0.full.emb.csv",
                 "p500-s0.full.report.corrections-epoch2.csv", "p500-s0.full.report.stats.csv",
                 "gen-data.p500-s0.exit", "train.p500-s0.full.stdout",
                 "stats.p500-s0.full.report.corrections-epoch11.csv.stderr"):
        assert name in names
    assert len(names) == len(set(names))


def test_report_bytes_match_the_golden_digests(first):
    got = {name: digest for digest, name in (line.split("  ", 1) for line in first)}
    for name, want in GOLDEN_REPORTS.items():
        assert got[name] == want, (
            f"{name} digests to {got[name]}, not {want}, under {numerics()}; the digests "
            "were recorded under numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0")


def test_refuses_a_directory_with_files(tmp_path):
    (tmp_path / "old.txt").write_text("stale\n")
    run = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                         capture_output=True, text=True)
    assert run.returncode == 2
    assert "is not empty" in run.stderr
