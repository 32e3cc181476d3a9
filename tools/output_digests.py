"""Digest every output of a fixed set of protosemi CLI runs.

    python tools/output_digests.py OUTDIR [--inputs N]

In OUTDIR (created; it must not hold files), with BLAS pinned to one
thread, this runs the CLI of the checkout it lives in:

- ``gen-data --rate 0.3`` with factual noise at ``--per-class 500`` with
  seeds 0, 5 and 7 and at ``--per-class 3125`` with seeds 1, 2 and 3,
  then with ``--noise ambiguity`` at ``--per-class 500`` with seed 0
  (``--inputs N`` keeps the first N of these seven);
- on each dataset, ``train --variant full --config configs/benchmark.cfg``
  and ``train --variant no_semi --config perfbench/configs/supervised.cfg``,
  both with ``--export-embeddings``;
- ``stats`` on every correction log the runs wrote.

It prints one ``sha256  name`` line per output file and per command's
stdout, stderr and exit code.  Every path a command sees is relative to
OUTDIR, so two checkouts whose outputs are byte-identical print the same
lines, and comparing them is a ``diff`` of the two listings.

On stderr it prints ``OpenBLAS kernel: NAME``: the kernel that numpy's
bundled OpenBLAS runs (``unknown`` for another BLAS).  The kernels of one
OpenBLAS build round some products differently, so their digests differ;
``OPENBLAS_CORETYPE`` picks another kernel for one process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (per class, seed, noise); a dataset is named p<per class>-s<seed>, plus
# -<noise> for a noise model other than the default, factual
INPUTS = ((500, 0, "factual"), (500, 5, "factual"), (500, 7, "factual"),
          (3125, 1, "factual"), (3125, 2, "factual"), (3125, 3, "factual"),
          (500, 0, "ambiguity"))
RUNS = (("full", ROOT / "configs" / "benchmark.cfg"),
        ("no_semi", ROOT / "perfbench" / "configs" / "supervised.cfg"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(main, name: str, argv: list, lines: list) -> None:
    """Run one CLI command in this process; digest its stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    for stream, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                         ("exit", f"{code}\n")):
        lines.append(f"{sha256(text.encode())}  {name}.{stream}")


def digest_outputs(inputs: int) -> list:
    """Run the first ``inputs`` datasets' commands here; file digests, then stream digests."""
    sys.path.insert(0, str(ROOT / "src"))
    from protosemi.cli import main

    lines = []
    for variant, config in RUNS:
        shutil.copyfile(config, f"{variant}.cfg")
    for per_class, seed, noise in INPUTS[:inputs]:
        data = f"p{per_class}-s{seed}" + ("" if noise == "factual" else f"-{noise}")
        run_cli(main, f"gen-data.{data}", [
            "gen-data", "--per-class", str(per_class), "--rate", "0.3", "--seed", str(seed),
            "--noise", noise, "--out", f"{data}.ds", "--heldout-out", f"{data}.heldout.ds"],
            lines)
        for variant, _ in RUNS:
            run = f"{data}.{variant}"
            run_cli(main, f"train.{run}", [
                "train", "--variant", variant, "--config", f"{variant}.cfg",
                "--data", f"{data}.ds", "--heldout", f"{data}.heldout.ds",
                "--report", f"{run}.report", "--export-embeddings", f"{run}.emb.csv"], lines)
            for log in sorted(Path().glob(f"{run}.report.corrections-epoch*.csv"),
                              key=lambda p: (len(p.name), p.name)):
                run_cli(main, f"stats.{log.name}",
                        ["stats", "--log", log.name, "--data", f"{data}.ds"], lines)
    files = sorted(p for p in Path().iterdir() if p.suffix != ".cfg")
    return [f"{sha256(p.read_bytes())}  {p.name}" for p in files] + lines


def openblas():
    """numpy's bundled OpenBLAS library, or None under another BLAS."""
    import numpy as np

    # the library numpy has loaded; opening it again returns the same handle
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        with contextlib.suppress(OSError):
            return ctypes.CDLL(str(lib))
    return None


def blas_kernel() -> str:
    """The kernel name numpy's bundled OpenBLAS reports, or ``unknown``."""
    with contextlib.suppress(AttributeError):  # None, or a library without the call
        corename = openblas().scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--inputs", type=int, choices=range(1, len(INPUTS) + 1),
                        default=len(INPUTS), metavar=f"1..{len(INPUTS)}")
    args = parser.parse_args(argv)
    # before numpy loads: a multi-threaded BLAS may sum in another order
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    args.outdir.mkdir(parents=True, exist_ok=True)
    if any(args.outdir.iterdir()):
        parser.error(f"{args.outdir} is not empty")
    os.chdir(args.outdir)
    print("\n".join(digest_outputs(args.inputs)))
    print(f"OpenBLAS kernel: {blas_kernel()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
