"""Compare the full pipeline against its two ablations on one dataset.

no_semi stops after the warm-up (the plain noisy-label baseline),
no_repar keeps the semi-supervised loop but never corrects a label,
and full does both, each with the run config of configs/benchmark.cfg.
Prints the per-epoch trace of the full run and the final scoreboard.

    python3 demos/ablation_study.py
"""

from pathlib import Path

from protosemi import (
    generate_blobs,
    inject_factual_noise,
    run_with_artifacts,
    split_heldout,
)
from protosemi.cli import parse_config_file

SEED = 0

clean = generate_blobs(num_classes=4, per_class=500, dim=16,
                       separation=6.0, spread=1.0, seed=SEED)
train, heldout = split_heldout(clean, 0.2, SEED)
train = inject_factual_noise(train, 0.3, SEED)
print(f"train n={train.n} (30% labels wrong), heldout n={heldout.n} (clean)")

config = parse_config_file(Path(__file__).resolve().parent.parent / "configs" / "benchmark.cfg")

results = {}
for variant in ("full", "no_repar", "no_semi"):
    results[variant] = run_with_artifacts(train, heldout, config, variant)

report = results["full"].report
print("\nfull run, epoch by epoch (confident/unconfident are the view the")
print("semi epoch trained on, i.e. after corrections moved samples):")
print("  epoch  phase   confident  unconfident  heldout")
for r in report.epochs:
    print(f"  {r.epoch:>5d}  {r.phase:<7s} {r.confident:>8d} {r.unconfident:>11d}  "
          f"{r.heldout_accuracy:.4f}")

if report.corrections:
    print("\nlabel corrections (small circle only):")
    for c in report.corrections:
        s = c.stats
        print(f"  epoch {c.epoch}: {s.corrected} corrected, {s.right} right "
              f"({s.accuracy_text()}) out of {s.unconfident_size} unconfident")

print("\nscoreboard (final heldout accuracy):")
for variant in ("full", "no_repar", "no_semi"):
    rep = results[variant].report
    print(f"  {variant:<9s} {rep.final_accuracy:.4f}  "
          f"(best {rep.best_accuracy:.4f} at epoch {rep.best_epoch})")

gap_semi = report.final_accuracy - results["no_semi"].report.final_accuracy
gap_repar = report.final_accuracy - results["no_repar"].report.final_accuracy
print(f"\nfull beats the warm-up-only baseline by {100 * gap_semi:.1f} points "
      f"and the no-correction ablation by {100 * gap_repar:.1f}.")
