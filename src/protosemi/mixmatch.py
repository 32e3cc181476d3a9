"""Semi-supervised training over a labeled/unlabeled split.

Each unlabeled batch receives a guessed label distribution (mean
softmax over a few jittered copies, sharpened by temperature), then
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

_SIMPLEX_TOL = 1e-6


@dataclass(frozen=True)
class SemiConfig:
    """Knobs of the semi-supervised step."""

    k_aug: int = 2
    temperature: float = 0.5
    mix_alpha: float = 0.75
    lambda_u: float = 1.0
    aug_sigma: float = 0.1

    def __post_init__(self):
        if int(self.k_aug) != self.k_aug or self.k_aug < 1:
            raise ParameterError(f"k_aug must be an integer >= 1, got {self.k_aug}")
        if not self.temperature > 0:
            raise ParameterError(f"temperature must be positive, got {self.temperature}")
        if not self.mix_alpha > 0:
            raise ParameterError(f"mix_alpha must be positive, got {self.mix_alpha}")
        if self.lambda_u < 0:
            raise ParameterError(f"lambda_u must be nonnegative, got {self.lambda_u}")
        if self.aug_sigma < 0:
            raise ParameterError(f"aug_sigma must be nonnegative, got {self.aug_sigma}")


def mix_rng(seed: int, epoch: int) -> np.random.Generator:
    """The rng that drives augmentation, guessing, and mixing draws."""
    return np.random.default_rng([seed, _MIX_STREAM, epoch])


def augment(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian feature jitter: x + sigma * g.

    The Gaussian is drawn even when sigma is 0 so the rng stream
    advances identically regardless of the jitter scale.
    """
    if sigma < 0:
        raise ParameterError(f"sigma must be nonnegative, got {sigma}")
    x = np.asarray(x, dtype=np.float64)
    return x + sigma * rng.standard_normal(x.shape)


def _check_simplex(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    rows = np.atleast_2d(p)
    if np.any(rows < 0):
        raise ParameterError("distribution has negative entries")
    sums = rows.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > _SIMPLEX_TOL):
        raise ParameterError("distribution rows must sum to 1")
    return p


def sharpen(p: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-powered renormalization toward one-hot.

    Accepts a (K,) distribution or a (B, K) stack of them; each row is
    raised to the power 1/T and renormalized.
    """
    if not temperature > 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    return _sharpen(_check_simplex(p), temperature)


def _sharpen(p: np.ndarray, temperature: float) -> np.ndarray:
    if temperature == 1.0:
        return p.copy()
    powered = p ** (1.0 / temperature)
    return powered / powered.sum(axis=-1, keepdims=True)


def guess_labels(net: Network, u: np.ndarray, k_aug: int, temperature: float,
                 sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Guessed label distribution(s) for unlabeled input(s).

    Averages the softmax outputs of k_aug jittered copies of u, then
    sharpens the average.  Accepts a single (D,) vector or a (B, D)
    batch.  All copies are jittered by one bulk draw, which gives the
    same values as one draw per copy in order, and share one forward pass.
    """
    if int(k_aug) != k_aug or k_aug < 1:
        raise ParameterError(f"k_aug must be an integer >= 1, got {k_aug}")
    if not temperature > 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    u = np.asarray(u, dtype=np.float64)
    k = int(k_aug)
    copies = augment(np.broadcast_to(u, (k, *u.shape)), sigma, rng)
    # stacked as (k, B, D), each copy gets the matrix products it would get
    # alone; flattened (k*B, D) rows round differently when B is 1
    probs = softmax(net.forward(copies.reshape(k, -1, u.shape[-1])))
    # a mean of softmax rows is a distribution: no simplex check needed
    return _sharpen(probs.mean(axis=0).reshape(*u.shape[:-1], -1), temperature)


def mixup(x1: np.ndarray, p1: np.ndarray, x2: np.ndarray, p2: np.ndarray,
          mix_alpha: float, rng: np.random.Generator):
    """Convex combination of two samples and their label distributions.

    lambda ~ Beta(mix_alpha, mix_alpha) is folded to max(lambda,
    1-lambda) so the result stays biased toward the first argument.
    Batch inputs draw one lambda per row.
    """
    if not mix_alpha > 0:
        raise ParameterError(f"mix_alpha must be positive, got {mix_alpha}")
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    if x1.ndim == 1:
        lam = rng.beta(mix_alpha, mix_alpha)
        lam = max(lam, 1.0 - lam)
        return lam * x1 + (1.0 - lam) * x2, lam * p1 + (1.0 - lam) * p2
    lam = rng.beta(mix_alpha, mix_alpha, size=x1.shape[0])
    lam = np.maximum(lam, 1.0 - lam)[:, None]
    return lam * x1 + (1.0 - lam) * x2, lam * p1 + (1.0 - lam) * p2


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
    loss = float(np.mean(err ** 2))
    # d(loss)/d(logits) through the softmax Jacobian
    logit_grad = (2.0 / (b * k)) * probs * (err - (err * probs).sum(axis=1, keepdims=True))
    grads_w, grads_b = net.backprop(acts, logit_grad)
    return loss, grads_w, grads_b


def semi_train_epoch(net: Network, confident_view, unconfident_view,
                     semi_config: SemiConfig, train_config: TrainConfig,
                     epoch: int):
    """One epoch of mixed labeled + unlabeled SGD; updates net in place.

    ``confident_view`` is a (features, labels) pair; ``unconfident_view``
    is a feature array (possibly empty), treated as unlabeled.  Labeled
    batches follow the same shuffle stream as plain supervised training;
    each is paired with an equal-size unlabeled batch cycled from a
    shuffled unlabeled order.  Returns (labeled loss, unlabeled loss),
    both measured before the updates of their batch.

    When the ramped unlabeled weight is zero the unlabeled pathway is
    skipped entirely, so with aug_sigma = 0 and a Beta draw of exactly
    1 the epoch degenerates to plain supervised training.
    """
    xl, yl = confident_view
    xl = np.asarray(xl, dtype=np.float64)
    yl = np.asarray(yl, dtype=np.int64)
    if xl.ndim != 2 or xl.shape[0] == 0:
        raise ParameterError("confident view must be a nonempty 2-D batch")
    if xl.shape[0] != yl.shape[0]:
        raise ParameterError("confident features and labels must align")
    xu = np.asarray(unconfident_view, dtype=np.float64)
    if xu.size == 0:
        xu = xu.reshape(0, xl.shape[1])
    else:
        xu = np.atleast_2d(xu)
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

    labeled_total = 0.0
    unlabeled_total = 0.0
    unlabeled_count = 0
    for start in range(0, n, train_config.batch_size):
        idx = perm[start:start + train_config.batch_size]
        xb = augment(xl[idx], sigma, rng)
        pb = one_hot(yl[idx], net.num_classes)

        if use_unlabeled:
            take = u_order[np.arange(start, start + len(idx)) % u_order.size]
            qb = guess_labels(net, xu[take], semi_config.k_aug,
                              semi_config.temperature, sigma, rng)
            ub = augment(xu[take], sigma, rng)
            pool_x = np.concatenate([xb, ub])
            pool_p = np.concatenate([pb, qb])
        else:
            pool_x, pool_p = xb, pb

        # mixup draws one lambda per row in row order, labeled rows first
        pool_order = rng.permutation(pool_x.shape[0])
        mixed_x, mixed_p = mixup(pool_x, pool_p, pool_x[pool_order], pool_p[pool_order],
                                 semi_config.mix_alpha, rng)
        b = len(idx)
        loss_l, grads_w, grads_b = cross_entropy_grads(net, mixed_x[:b], mixed_p[:b])
        labeled_total += loss_l * b

        if use_unlabeled:
            loss_u, ugrads_w, ugrads_b = brier_grads(net, mixed_x[b:], mixed_p[b:])
            unlabeled_total += loss_u * len(take)
            unlabeled_count += len(take)
            grads_w = [g + lam_u * ug for g, ug in zip(grads_w, ugrads_w)]
            grads_b = [g + lam_u * ug for g, ug in zip(grads_b, ugrads_b)]

        net.sgd_step(grads_w, grads_b, lr, train_config.weight_decay)

    loss_labeled = labeled_total / n
    loss_unlabeled = unlabeled_total / unlabeled_count if unlabeled_count else 0.0
    return loss_labeled, loss_unlabeled
