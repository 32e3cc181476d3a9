"""tools/output_digests.py: the byte-identity check between two checkouts."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def digests(outdir) -> list:
    run = subprocess.run([sys.executable, str(SCRIPT), str(outdir), "--inputs", "1"],
                         capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def test_same_seed_gives_the_same_digests(tmp_path):
    first = digests(tmp_path / "a")
    assert first == digests(tmp_path / "b")
    names = [line.split("  ", 1)[1] for line in first]
    # the dataset pair, both reports, the full run's logs and stats, every command's streams
    for name in ("p500-s0.ds", "p500-s0.heldout.ds", "p500-s0.full.report",
                 "p500-s0.no_semi.report", "p500-s0.full.emb.csv",
                 "p500-s0.full.report.corrections-epoch2.csv", "p500-s0.full.report.stats.csv",
                 "gen-data.p500-s0.exit", "train.p500-s0.full.stdout",
                 "stats.p500-s0.full.report.corrections-epoch11.csv.stderr"):
        assert name in names
    assert len(names) == len(set(names))


def test_refuses_a_directory_with_files(tmp_path):
    (tmp_path / "old.txt").write_text("stale\n")
    run = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                         capture_output=True, text=True)
    assert run.returncode == 2
    assert "is not empty" in run.stderr
