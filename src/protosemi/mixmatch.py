"""Semi-supervised training over a labeled/unlabeled split.

An epoch sweeps the unlabeled pool alongside the labeled rows: each
labeled batch of b rows takes its share d of the pool, so a pool smaller
than the labeled set is guessed once per epoch, as each labeled row is
seen once.  Each pool row receives one guessed label distribution (mean
softmax over a few jittered copies, sharpened by temperature); then
labeled and unlabeled batches are mixed against a shared shuffled pool
of both.  The loss is soft-target cross-entropy on the mixed labeled
batch plus a squared error between predicted and guessed distributions
on the mixed unlabeled batch, weighted by d/b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .net import (
    Network,
    TrainConfig,
    cosine_lr,
    cross_entropy_grads,
    epoch_rng,
    one_hot,
    require_int,
    require_labels,
    require_real,
    softmax,
)

@dataclass(frozen=True)
class SemiConfig:
    """Knobs of the semi-supervised step."""

    k_aug: int = 2
    temperature: float = 0.5
    mix_alpha: float = 0.75
    lambda_u: float = 1.0
    aug_sigma: float = 0.1

    def __post_init__(self):
        require_int("k_aug", self.k_aug, 1)
        for name, bounds in (("temperature", "()"), ("mix_alpha", "()"),
                             ("lambda_u", "[)"), ("aug_sigma", "[)")):
            require_real(name, getattr(self, name), 0, np.inf, bounds)


def augment(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian feature jitter: x + sigma * g, for a float64 array of rows.

    The Gaussian is drawn even when sigma is 0 so the rng stream
    advances identically regardless of the jitter scale.
    """
    jitter = rng.standard_normal(x.shape)
    jitter *= sigma
    jitter += x
    return jitter


def sharpen(p: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-powered renormalization toward one-hot.

    Each row of a (B, K) stack of distributions is raised to the power
    1/T and renormalized.  The rows are not checked: ``guess_labels``
    passes mean softmax rows, and ``SemiConfig`` validated T.
    """
    if temperature == 1.0:
        return p.copy()
    powered = p ** (1.0 / temperature)
    powered /= np.add.reduce(powered, axis=-1, keepdims=True)
    return powered


def guess_labels(net: Network, u: np.ndarray, k_aug: int, temperature: float,
                 sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Guessed label distributions for a (B, D) batch of unlabeled rows.

    Averages the softmax outputs of k_aug jittered copies of u, then
    sharpens the average.  Every row given is guessed
    (``semi_train_epoch`` passes distinct rows).  All copies are
    jittered by one bulk draw, which gives the same values as one draw
    per copy in order, and share one forward pass.  k_aug, temperature
    and sigma come from a validated ``SemiConfig``.
    """
    copies = augment(np.broadcast_to(u, (k_aug, *u.shape)), sigma, rng)
    # stacked as (k, B, D), each copy gets the matrix products it would get
    # alone; flattened (k*B, D) rows round differently when B is 1
    return sharpen(softmax(net.activations(copies)[1]).mean(axis=0), temperature)


def mixup(x1: np.ndarray, p1: np.ndarray, x2: np.ndarray, p2: np.ndarray,
          mix_alpha: float, rng: np.random.Generator):
    """Convex combination of two (B, D) batches and their label rows.

    One lambda ~ Beta(mix_alpha, mix_alpha) is drawn per row and folded
    to max(lambda, 1-lambda), so each result stays biased toward the
    first argument.  mix_alpha comes from a validated ``SemiConfig``.
    """
    lam = rng.beta(mix_alpha, mix_alpha, size=x1.shape[0])
    lam = np.maximum(lam, 1.0 - lam)[:, None]
    rest = 1.0 - lam
    mixed_x = lam * x1
    mixed_x += rest * x2
    mixed_p = lam * p1
    mixed_p += rest * p2
    return mixed_x, mixed_p


def lambda_ramp(epoch: int, total_epochs: int) -> float:
    """Unlabeled-loss weight factor: 0 to 1 over the first quarter of training."""
    return min(1.0, 4.0 * epoch / total_epochs)


def brier_grads(net: Network, batch: np.ndarray, targets: np.ndarray):
    """Mean squared error between softmax output and target rows.

    The mean runs over both batch items and classes.  Returns
    (loss, grads_w, grads_b) with gradients already averaged.
    """
    acts, logits = net.activations(batch)
    probs = softmax(logits)
    err = probs - targets
    b, k = err.shape
    scratch = err * err
    loss = float(np.add.reduce(scratch, axis=None) / scratch.size)  # np.mean's bits
    # d(loss)/d(logits) through the softmax Jacobian:
    # (2 / (b k)) * probs * (err - sum(err * probs)), in place
    np.multiply(err, probs, out=scratch)
    err -= np.add.reduce(scratch, axis=1, keepdims=True)
    logit_grad = probs
    logit_grad *= 2.0 / (b * k)
    logit_grad *= err
    grads_w, grads_b = net.backprop(acts, logit_grad)
    return loss, grads_w, grads_b


def semi_train_epoch(net: Network, confident_view, unconfident_view,
                     semi_config: SemiConfig, train_config: TrainConfig,
                     epoch: int):
    """One epoch of mixed labeled + unlabeled SGD; updates net in place.

    ``confident_view`` is a (features, labels) pair of an (n, D) float64
    array and n labels; ``unconfident_view`` is an (m, D) float64 array,
    m possibly 0, treated as unlabeled.  ``semi_config`` is trusted: the
    per-batch steps do not re-check its values.  Labeled
    batches follow the same shuffle stream as plain supervised training.
    With swept = min(m, n), the batch at labeled shuffle positions
    [start, stop) takes the rows at positions
    [start*swept // n, stop*swept // n) of a shuffled unlabeled order, so
    each of its first ``swept`` rows is jittered, guessed and mixed once
    per epoch.  The Brier term is the mean over the batch's d rows,
    weighted by lambda * ramp * d/b; a batch with d = 0 makes no guess
    and no Brier pass.  Returns (labeled loss, unlabeled loss), both
    measured before the updates of their batch; the unlabeled loss is
    the mean over the swept rows.

    When the ramped unlabeled weight is zero the unlabeled pathway is
    skipped entirely, so with aug_sigma = 0 and a Beta draw of exactly
    1 the epoch degenerates to plain supervised training.
    """
    xl, yl = confident_view
    xu = unconfident_view
    if xl.ndim != 2 or xl.shape[0] == 0:
        raise ParameterError("confident view must be a nonempty 2-D batch")
    yl = require_labels("confident", yl, xl.shape[0], net.num_classes)

    lr = cosine_lr(epoch, train_config.total_epochs, train_config.base_lr)
    lam_u = semi_config.lambda_u * lambda_ramp(epoch, train_config.total_epochs)
    use_unlabeled = xu.shape[0] > 0 and lam_u > 0.0
    sigma = semi_config.aug_sigma

    n = xl.shape[0]
    perm = epoch_rng(train_config.seed, "shuffle", epoch).permutation(n)
    rng = epoch_rng(train_config.seed, "mix", epoch)
    swept = 0  # the epoch sweeps the first `swept` rows of the unlabeled order
    if use_unlabeled:
        u_order = rng.permutation(xu.shape[0])
        swept = min(u_order.size, n)

    labeled_total = 0.0
    unlabeled_total = 0.0
    for start in range(0, n, train_config.batch_size):
        stop = min(start + train_config.batch_size, n)
        b = stop - start
        # each labeled batch gathers its own rows, so no shuffled copy of the
        # view exists; take copies a batch of rows faster than fancy indexing
        rows = perm[start:stop]
        xb = augment(xl.take(rows, axis=0), sigma, rng)
        pb = one_hot(yl[rows], net.num_classes)

        # the batch's share of the sweep, empty for some batches when swept < n
        u_start, u_stop = start * swept // n, stop * swept // n
        d = u_stop - u_start
        if d:
            xt = xu[u_order[u_start:u_stop]]
            qb = guess_labels(net, xt, semi_config.k_aug, semi_config.temperature,
                              sigma, rng)
            ub = augment(xt, sigma, rng)
            pool_x = np.concatenate([xb, ub])
            pool_p = np.concatenate([pb, qb])
        else:
            pool_x, pool_p = xb, pb

        # mixup draws one lambda per row in row order, labeled rows first
        pool_order = rng.permutation(pool_x.shape[0])
        mixed_x, mixed_p = mixup(pool_x, pool_p, pool_x[pool_order], pool_p[pool_order],
                                 semi_config.mix_alpha, rng)
        loss_l, grads_w, grads_b = cross_entropy_grads(net, mixed_x[:b], mixed_p[:b])
        labeled_total += loss_l * b

        if d:
            loss_u, ugrads_w, ugrads_b = brier_grads(net, mixed_x[b:], mixed_p[b:])
            unlabeled_total += loss_u * d
            # d == b gives lam_u exactly; lam_u * d / b may round away from it
            weight = lam_u * (d / b)
            for g, ug in zip(grads_w + grads_b, ugrads_w + ugrads_b):
                ug *= weight
                g += ug

        net.sgd_step(grads_w, grads_b, lr, train_config.weight_decay)

    # the batches' shares add up to the whole sweep
    return labeled_total / n, unlabeled_total / swept if swept else 0.0
