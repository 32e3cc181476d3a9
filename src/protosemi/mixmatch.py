"""Semi-supervised training over a labeled/unlabeled split.

Each distinct row of an unlabeled batch receives one guessed label
distribution (mean softmax over a few jittered copies, sharpened by
temperature), shared by every occurrence of that row in the batch; then
labeled and unlabeled batches are mixed against a shared shuffled pool
of both.  The loss is soft-target cross-entropy on the mixed labeled
batch plus a weighted squared error between predicted and guessed
distributions on the mixed unlabeled batch.
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
    epoch_shuffle_rng,
    one_hot,
    softmax,
)

_MIX_STREAM = 1  # rng stream tag; batch shuffling owns stream 0


@dataclass(frozen=True)
class SemiConfig:
    """Knobs of the semi-supervised step."""

    k_aug: int = 2
    temperature: float = 0.5
    mix_alpha: float = 0.75
    lambda_u: float = 1.0
    aug_sigma: float = 0.1

    def __post_init__(self):
        if not isinstance(self.k_aug, (int, np.integer)) or self.k_aug < 1:
            raise ParameterError(f"k_aug must be an integer >= 1, got {self.k_aug}")
        if not 0 < self.temperature < np.inf:
            raise ParameterError(f"temperature must be finite and positive, got {self.temperature}")
        if not 0 < self.mix_alpha < np.inf:
            raise ParameterError(f"mix_alpha must be finite and positive, got {self.mix_alpha}")
        if not 0 <= self.lambda_u < np.inf:
            raise ParameterError(f"lambda_u must be finite and nonnegative, got {self.lambda_u}")
        if not 0 <= self.aug_sigma < np.inf:
            raise ParameterError(f"aug_sigma must be finite and nonnegative, got {self.aug_sigma}")


def mix_rng(seed: int, epoch: int) -> np.random.Generator:
    """The rng that drives augmentation, guessing, and mixing draws."""
    return np.random.default_rng([seed, _MIX_STREAM, epoch])


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
    sharpens the average.  Every row given is guessed: callers that hold
    repeated rows pass each distinct row once (``semi_train_epoch``
    does).  All copies are jittered by one bulk draw, which gives the
    same values as one draw per copy in order, and share one forward
    pass.  k_aug, temperature and sigma come from a validated
    ``SemiConfig``.
    """
    copies = augment(np.broadcast_to(u, (k_aug, *u.shape)), sigma, rng)
    # stacked as (k, B, D), each copy gets the matrix products it would get
    # alone; flattened (k*B, D) rows round differently when B is 1
    return sharpen(softmax(net.forward(copies)).mean(axis=0), temperature)


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
    if total_epochs < 1:
        raise ParameterError("total_epochs must be at least 1")
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
    batches follow the same shuffle stream as plain supervised training;
    each is paired with an equal-size unlabeled batch cycled from a
    shuffled unlabeled order.  A pool smaller than the batch repeats its
    rows within the batch: each distinct row gets one label guess, which
    all its occurrences share, while every occurrence gets its own jitter.
    Returns (labeled loss, unlabeled loss), both measured before the
    updates of their batch.

    When the ramped unlabeled weight is zero the unlabeled pathway is
    skipped entirely, so with aug_sigma = 0 and a Beta draw of exactly
    1 the epoch degenerates to plain supervised training.
    """
    xl, yl = confident_view
    xu = unconfident_view
    if xl.ndim != 2 or xl.shape[0] == 0:
        raise ParameterError("confident view must be a nonempty 2-D batch")
    if xl.shape[0] != yl.shape[0]:
        raise ParameterError("confident features and labels must align")
    if epoch >= train_config.total_epochs:
        raise ParameterError("epoch must be below total_epochs")

    lr = cosine_lr(epoch, train_config.total_epochs, train_config.base_lr)
    lam_u = semi_config.lambda_u * lambda_ramp(epoch, train_config.total_epochs)
    use_unlabeled = xu.shape[0] > 0 and lam_u > 0.0
    sigma = semi_config.aug_sigma

    n = xl.shape[0]
    perm = epoch_shuffle_rng(train_config.seed, epoch).permutation(n)
    rng = mix_rng(train_config.seed, epoch)
    if use_unlabeled:
        u_order = rng.permutation(xu.shape[0])

    # one gather per epoch; each labeled batch is a slice of it
    xl_shuffled = xl[perm]
    pl_shuffled = one_hot(yl[perm], net.num_classes)
    labeled_total = 0.0
    unlabeled_total = 0.0
    unlabeled_count = 0
    for start in range(0, n, train_config.batch_size):
        stop = min(start + train_config.batch_size, n)
        b = stop - start
        xb = augment(xl_shuffled[start:stop], sigma, rng)
        pb = pl_shuffled[start:stop]

        if use_unlabeled:
            take = u_order[np.arange(start, stop) % u_order.size]
            xt = xu[take]
            # take repeats with period pool size, so its first d rows are the
            # batch's distinct rows: guess each once, share it by position
            d = min(b, u_order.size)
            qb = guess_labels(net, xt[:d], semi_config.k_aug,
                              semi_config.temperature, sigma, rng)[np.arange(b) % d]
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

        if use_unlabeled:
            loss_u, ugrads_w, ugrads_b = brier_grads(net, mixed_x[b:], mixed_p[b:])
            unlabeled_total += loss_u * b
            unlabeled_count += b
            for g, ug in zip(grads_w + grads_b, ugrads_w + ugrads_b):
                ug *= lam_u
                g += ug

        net.sgd_step(grads_w, grads_b, lr, train_config.weight_decay)

    loss_labeled = labeled_total / n
    loss_unlabeled = unlabeled_total / unlabeled_count if unlabeled_count else 0.0
    return loss_labeled, loss_unlabeled
