"""Command-line front end: dataset generation, training runs, stats.

Exit codes are a stable contract: 0 on success, 2 on usage, config, or
file-format problems, 3 when a run aborts at runtime (a class lost all
its confident samples, or geometry degenerated).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import astuple, fields

from .data import (
    NOISE_MODELS,
    generate_blobs,
    load_dataset,
    read_lines,
    save_dataset,
    split_heldout,
)
from .errors import (
    DegenerateClassError,
    DegenerateGeometryError,
    FormatError,
    ParameterError,
)
from .net import require_int, require_real
from .pipeline import (
    CONFIG_FIELDS,
    ConfigField,
    VARIANTS,
    PipelineConfig,
    export_embeddings,
    naming_key_lines,
    run_with_artifacts,
    write_report,
    write_stats_csv,
)
from .select import StatsRow, correction_stats, load_correction_log, save_correction_log

# provenance of the matching dataset: checked as gen-data checks the flags it
# records, never passed to training
_PROVENANCE = (ConfigField("eval_split", float), ConfigField("noise_type", str),
               ConfigField("noise_rate", float), ConfigField("noise_seed", int))


def parse_config_file(path) -> PipelineConfig:
    """Read a key=value run config; unknown or missing keys are errors."""
    known = {f.key for f in CONFIG_FIELDS + _PROVENANCE}
    values: dict[str, str] = {}
    linenos: dict[str, int] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise FormatError(f"{path} line {lineno}: expected key=value")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise FormatError(f"{path} line {lineno}: unknown key {key!r}")
        if key in values:
            raise FormatError(f"{path} line {lineno}: duplicate key {key!r}")
        values[key], linenos[key] = value, lineno
    with naming_key_lines(path, linenos):
        given = {f.key: f.read(values) for f in _PROVENANCE if f.key in values}
        if "noise_type" in given and given["noise_type"] not in NOISE_MODELS:
            raise ParameterError(f"noise_type must be {' or '.join(NOISE_MODELS)}")
        for key, bounds in (("eval_split", "()"), ("noise_rate", "[]")):
            if key in given:
                require_real(key, given[key], 0, 1, bounds)
        if "noise_seed" in given:
            require_int("noise_seed", given["noise_seed"], 0)
        return PipelineConfig.from_fields(values)


def _require_distinct(args, inputs: tuple, outputs: tuple) -> None:
    """Raise ParameterError if an output flag names the file of an input or another output,
    or any flag names ``.stats.csv`` or ``.corrections-epoch<N>.csv`` beside ``--report``."""
    stem = "report" in outputs and os.path.join(
        os.path.realpath(os.path.dirname(args.report)), os.path.basename(args.report))
    flags: dict[str, str] = {}  # real path -> the first flag that names it
    for dest in (d for d in inputs + outputs if getattr(args, d) is not None):
        path, flag = getattr(args, dest), "--" + dest.replace("_", "-")
        real = os.path.realpath(path)
        first = flags.setdefault(real, flag)
        if first != flag and dest in outputs:
            raise ParameterError(f"{first} and {flag} name the same file: {path}")
        if stem and re.fullmatch(re.escape(stem) + r"\.(stats|corrections-epoch[0-9]+)\.csv", real):
            raise ParameterError(f"{flag} names a file that --report writes: {path}")


def _cmd_gen_data(args) -> int:
    _require_distinct(args, (), ("out", "heldout_out"))
    if args.heldout_frac is not None and not args.heldout_out:
        raise ParameterError("--heldout-frac needs --heldout-out")
    ds = generate_blobs(args.classes, args.per_class, args.dim,
                        args.sep, args.spread, args.seed)
    if args.heldout_out:
        # carve the held-out set before injecting noise so it stays clean
        frac = 0.2 if args.heldout_frac is None else args.heldout_frac
        ds, heldout = split_heldout(ds, frac, args.seed)
        save_dataset(heldout, args.heldout_out)
        print(f"wrote {args.heldout_out}: n={heldout.n} classes={heldout.num_classes} "
              f"dim={heldout.dim} noise_rate={heldout.noise_rate():.3f}")
    ds = NOISE_MODELS[args.noise](ds, args.rate, args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: n={ds.n} classes={ds.num_classes} dim={ds.dim} "
          f"noise_rate={ds.noise_rate():.3f}")
    return 0


def _print_scorecard(rows, lead=(), indent="") -> None:
    """Print the ``lead`` columns, each StatsRow field, then accuracy; a row is
    its lead cells, then its StatsRow."""
    names = [*lead, *(f.name for f in fields(StatsRow))]
    table = [(*names, "accuracy")] + [
        (*cells, *astuple(stats), stats.accuracy_text()) for *cells, stats in rows]
    for *cells, last in table:
        print(indent + "".join(f"{cell:<{len(name) + 1}} "
                               for name, cell in zip(names, cells, strict=True)) + last)


def _cmd_train(args) -> int:
    _require_distinct(args, ("config", "data", "heldout"), ("report", "export_embeddings"))
    config = parse_config_file(args.config)
    dataset = load_dataset(args.data)
    heldout = load_dataset(args.heldout)
    result = run_with_artifacts(dataset, heldout, config, args.variant)
    report = result.report
    write_report(report, args.report)
    for epoch, log in result.correction_logs:
        save_correction_log(log, dataset, f"{args.report}.corrections-epoch{epoch}.csv")
    if report.corrections:
        write_stats_csv(report.corrections, f"{args.report}.stats.csv")
    if args.export_embeddings:
        # after the run's own files, so a failed export leaves them written;
        # the run's dataset holds the corrected labels the last epoch trained on
        export_embeddings(result.net, result.dataset, args.export_embeddings)

    print(f"variant={report.variant} seed={report.config.seed} epochs={len(report.epochs)}")
    print(f"best accuracy  {report.best_accuracy:.4f} (epoch {report.best_epoch})")
    print(f"last accuracy  {report.final_accuracy:.4f}")
    if report.corrections:
        print("corrections (per repartition epoch):")
        _print_scorecard([(e.epoch, e.stats) for e in report.corrections],
                         lead=("epoch",), indent="  ")
    return 0


def _cmd_stats(args) -> int:
    dataset = load_dataset(args.data)
    _print_scorecard([(correction_stats(load_correction_log(args.log, dataset), dataset),)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protosemi",
        description="Noisy-label training with prototype label correction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a noisy blob dataset file")
    gen.add_argument("--classes", type=int, default=4)
    gen.add_argument("--per-class", type=int, default=500)
    gen.add_argument("--dim", type=int, default=16)
    gen.add_argument("--sep", type=float, default=6.0)
    gen.add_argument("--spread", type=float, default=1.0)
    gen.add_argument("--noise", choices=NOISE_MODELS, default="factual")
    gen.add_argument("--rate", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output dataset path")
    gen.add_argument("--heldout-out", default=None, metavar="PATH",
                     help="carve a clean held-out split before noise and write it here")
    gen.add_argument("--heldout-frac", type=float, default=None,
                     help="held-out fraction used with --heldout-out (default 0.2)")

    train = sub.add_parser("train", help="run one training variant")
    train.add_argument("--config", required=True, help="key=value config file")
    train.add_argument("--data", required=True, help="training dataset file")
    train.add_argument("--heldout", required=True, help="held-out dataset file")
    train.add_argument("--variant", choices=VARIANTS, default="full")
    train.add_argument("--report", required=True, help="output report path")
    train.add_argument("--export-embeddings", default=None, metavar="PATH",
                       help="also write unconfident embeddings + prototypes CSV")

    stats = sub.add_parser("stats", help="summarize a correction log")
    stats.add_argument("--log", required=True, help="correction log CSV")
    stats.add_argument("--data", required=True, help="dataset file with true labels")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"gen-data": _cmd_gen_data, "train": _cmd_train, "stats": _cmd_stats}
    try:
        return handler[args.command](args)
    except (DegenerateClassError, DegenerateGeometryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ParameterError, FormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
