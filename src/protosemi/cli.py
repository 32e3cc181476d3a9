"""Command-line front end: dataset generation, training runs, stats.

Exit codes are a stable contract: 0 on success, 2 on usage, config, or
file-format problems, 3 when a run aborts at runtime (a class lost all
its confident samples, or geometry degenerated).
"""

from __future__ import annotations

import argparse
import sys

from .data import (
    generate_blobs,
    inject_ambiguity_noise,
    inject_factual_noise,
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
from .select import correction_stats, load_correction_log, save_correction_log

# provenance of the matching dataset: checked for well-formedness, never
# passed to training
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
        if "eval_split" in given and not 0.0 < given["eval_split"] < 1.0:
            raise ParameterError("eval_split must lie in (0, 1)")
        if "noise_type" in given and given["noise_type"] not in ("factual", "ambiguity"):
            raise ParameterError("noise_type must be factual or ambiguity")
        if "noise_rate" in given and not 0.0 <= given["noise_rate"] <= 1.0:
            raise ParameterError("noise_rate must lie in [0, 1]")
        return PipelineConfig.from_fields(values)


def _cmd_gen_data(args) -> int:
    ds = generate_blobs(args.classes, args.per_class, args.dim,
                        args.sep, args.spread, args.seed)
    if args.heldout_out:
        # carve the held-out set before injecting noise so it stays clean
        ds, heldout = split_heldout(ds, args.heldout_frac, args.seed)
        save_dataset(heldout, args.heldout_out)
        print(f"wrote {args.heldout_out}: n={heldout.n} classes={heldout.num_classes} "
              f"dim={heldout.dim} noise_rate={heldout.noise_rate():.3f}")
    if args.noise == "factual":
        ds = inject_factual_noise(ds, args.rate, args.seed)
    else:
        ds = inject_ambiguity_noise(ds, args.rate, args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: n={ds.n} classes={ds.num_classes} dim={ds.dim} "
          f"noise_rate={ds.noise_rate():.3f}")
    return 0


def _print_stats_block(corrections) -> None:
    print("corrections (per repartition epoch):")
    print("  epoch  unconfident  small_circle  corrected  right  accuracy")
    for entry in corrections:
        s = entry.stats
        print(f"  {entry.epoch:<6d} {s.unconfident_size:<12d} {s.small_circle:<13d} "
              f"{s.corrected:<10d} {s.right:<6d} {s.accuracy_text()}")


def _cmd_train(args) -> int:
    config = parse_config_file(args.config)
    dataset = load_dataset(args.data)
    heldout = load_dataset(args.heldout)
    result = run_with_artifacts(dataset, heldout, config, args.variant)
    report = result.report
    if args.export_embeddings:
        # the run's dataset holds the corrected labels the last epoch trained on
        export_embeddings(result.net, result.dataset, args.export_embeddings)

    write_report(report, args.report)
    for epoch, log in result.correction_logs:
        save_correction_log(log, dataset, f"{args.report}.corrections-epoch{epoch}.csv")
    if report.corrections:
        write_stats_csv(report.corrections, f"{args.report}.stats.csv")

    print(f"variant={report.variant} seed={report.config.seed} epochs={len(report.epochs)}")
    print(f"best accuracy  {report.best_accuracy:.4f} (epoch {report.best_epoch})")
    print(f"last accuracy  {report.final_accuracy:.4f}")
    if report.corrections:
        _print_stats_block(report.corrections)
    return 0


def _cmd_stats(args) -> int:
    log = load_correction_log(args.log)
    dataset = load_dataset(args.data)
    s = correction_stats(log, dataset)
    print("unconfident_size  small_circle  corrected  right  accuracy")
    print(f"{s.unconfident_size:<17d} {s.small_circle:<13d} {s.corrected:<10d} "
          f"{s.right:<6d} {s.accuracy_text()}")
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
    gen.add_argument("--noise", choices=("factual", "ambiguity"), default="factual")
    gen.add_argument("--rate", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output dataset path")
    gen.add_argument("--heldout-out", default=None, metavar="PATH",
                     help="carve a clean held-out split before noise and write it here")
    gen.add_argument("--heldout-frac", type=float, default=0.2,
                     help="held-out fraction used with --heldout-out")

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
