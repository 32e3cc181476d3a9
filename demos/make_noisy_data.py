"""Walk through the synthetic data pipeline: blobs, noise, held-out split.

Generates one Gaussian cluster per class, carves off a clean held-out
set, then corrupts the remaining labels two ways: factual noise (random
flips anywhere) and ambiguity noise (flips on the samples closest to a
class boundary).  Run from the repository root:

    python3 demos/make_noisy_data.py
"""

import numpy as np

from protosemi import (
    generate_blobs,
    inject_ambiguity_noise,
    inject_factual_noise,
    save_dataset,
    split_heldout,
)
from protosemi.data import class_margin

clean = generate_blobs(num_classes=4, per_class=250, dim=16,
                       separation=6.0, spread=1.0, seed=0)
print(f"blobs: n={clean.n} dim={clean.dim} classes={clean.num_classes}")

# pairwise center distances: the closest pair sits exactly at `separation`
centers = np.stack([clean.features[clean.true_labels == k].mean(axis=0)
                    for k in range(4)])
dists = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
print(f"closest center pair: {dists[dists > 0].min():.2f} "
      f"(separation asked for 6, sample means wobble a little)")

train, heldout = split_heldout(clean, 0.2, seed=0)
print(f"split: train={train.n} heldout={heldout.n} (held-out labels stay clean)")

factual = inject_factual_noise(train, 0.3, seed=1)
flipped = np.flatnonzero(factual.working_labels != factual.true_labels)
print(f"\nfactual noise at 30%: {flipped.size} of {factual.n} labels flipped")
print(f"first few flips: {[ (int(i), int(factual.true_labels[i]), int(factual.working_labels[i])) for i in flipped[:5] ]}")
print("  (index, true, working) - targets are uniform over the other classes")

ambiguity = inject_ambiguity_noise(train, 0.3, seed=1)
amb_flipped = np.flatnonzero(ambiguity.working_labels != ambiguity.true_labels)

# ambiguity noise picks the most boundary-hugging samples, so the flipped
# group should sit much closer to a rival center than a random flip would;
# class_margin is the margin the injector ranks by
margin, _ = class_margin(train)

print(f"\nambiguity noise at 30%: {amb_flipped.size} flips")
print(f"mean margin of flipped samples:   {margin[amb_flipped].mean():6.2f}")
print(f"mean margin of factual's flips:   {margin[flipped].mean():6.2f}")
print("  (smaller margin = closer to a boundary; ambiguity hunts the boundary)")

save_dataset(factual, "train-factual.ds")
save_dataset(ambiguity, "train-ambiguity.ds")
save_dataset(heldout, "heldout.ds")
print("\nwrote train-factual.ds, train-ambiguity.ds, heldout.ds")
