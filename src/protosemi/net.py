"""Small feed-forward classifier with exact backpropagation in numpy.

Hidden layers use tanh (smooth everywhere, so finite-difference gradient
checks are clean).  The embedding of an input is the post-activation
output of the last hidden layer, i.e. the network with its final linear
layer removed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# the tag of each epoch rng stream: one generator per (seed, stream, epoch)
_STREAMS = {"shuffle": 0, "mix": 1, "repartition": 2}

# ``forward`` and ``embed`` pass a batch in row blocks of at most this many
# rows, so a full-set pass never holds every hidden layer at once
FORWARD_BLOCK_ROWS = 1024


def is_int(value) -> bool:
    """True for Python and numpy integers; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for Python and numpy integers and floats; a bool is not one."""
    return is_int(value) or isinstance(value, (float, np.floating))


def require_int(name: str, value, low: int) -> int:
    """``value`` as an int; a ParameterError unless it is an integer >= ``low``."""
    if not is_int(value) or value < low:
        raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def require_real(name: str, value, low: float, high: float, bounds: str) -> None:
    """A ParameterError unless ``value`` is a number whose float is finite and in ``bounds``."""
    try:
        x = float(value) if is_real(value) else math.nan
    except OverflowError:  # an int past the float range
        x = math.nan
    if not (-math.inf < x < math.inf and (low < x if bounds[0] == "(" else low <= x)
            and (x < high if bounds[1] == ")" else x <= high)):
        raise ParameterError(f"{name} must be finite and lie in "
                             f"{bounds[0]}{low}, {high}{bounds[1]}, got {value!r}")


def require_labels(name: str, labels, n: int, num_classes: int) -> np.ndarray:
    """n >= 1 integer ``labels`` in [0, num_classes) as int64, else a ParameterError."""
    labels = np.asarray(labels)
    if (n < 1 or labels.shape != (n,) or labels.dtype.kind not in "iu"
            or labels.min() < 0 or labels.max() >= num_classes):
        raise ParameterError(f"{name} labels must be one integer in [0, {num_classes}) for "
                             f"each of n >= 1 rows, got {labels.dtype} {labels.shape} for n={n}")
    return labels.astype(np.int64, copy=False)


def seeded_rng(seed) -> np.random.Generator:
    """numpy's generator for ``seed``; numpy seeds only from integers >= 0."""
    return np.random.default_rng(require_int("seed", seed, 0))


@dataclass(frozen=True)
class TrainConfig:
    """Supervised SGD settings; the learning rate follows a cosine decay."""

    base_lr: float
    total_epochs: int
    batch_size: int
    weight_decay: float = 5e-4
    seed: int = 0

    def __post_init__(self):
        # numpy seeds its generators only from nonnegative integers
        for name, low in (("total_epochs", 1), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name, require_int(name, getattr(self, name), low))
        for name in ("base_lr", "weight_decay"):
            require_real(name, getattr(self, name), 0, math.inf, "[)")


class Network:
    """Multilayer perceptron: tanh hidden layers, linear output logits."""

    def __init__(self, weights, biases):
        self.weights = weights  # weights[l]: (fan_in, fan_out); the dims read these shapes
        self.biases = biases

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def embed_dim(self) -> int:
        return self.weights[-1].shape[0]

    def activations(self, batch: np.ndarray):
        """Forward a (B, D) batch; returns (activation list, logits).

        The list holds the input followed by every post-tanh hidden
        output, which is exactly what backprop needs to cache.
        """
        a = np.asarray(np.atleast_2d(batch), dtype=np.float64)
        if a.shape[-1] != self.input_dim:
            raise ParameterError(
                f"input dimension {a.shape[-1]} does not match network input {self.input_dim}"
            )
        acts = [a]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            # in place on the fresh product: the bits of np.tanh(a @ w + b)
            a = a @ w
            a += b
            np.tanh(a, out=a)
            acts.append(a)
        logits = a @ self.weights[-1]
        logits += self.biases[-1]
        return acts, logits

    def _in_blocks(self, x: np.ndarray, logits: bool) -> np.ndarray:
        """Logits or last hidden layer of a (B, D) batch, one row block at a time.

        The batch is cut into ceil(B / FORWARD_BLOCK_ROWS) blocks at the
        even offsets 2 * ceil(B * i / (2 * blocks)), each passed on its own
        into one preallocated output.  Every block but the last is even and,
        for B >= 2, holds 2 to FORWARD_BLOCK_ROWS rows, so at one BLAS
        thread the blocks have the bits of one pass under every kernel.
        """
        x = np.atleast_2d(x)
        if x.ndim != 2:
            raise ParameterError(f"expected a (B, D) batch, got shape {x.shape}")
        n = len(x)
        blocks = max(1, math.ceil(n / FORWARD_BLOCK_ROWS))
        cuts = [min(n, 2 * -(-n * i // (2 * blocks))) for i in range(blocks + 1)]
        out = np.empty((n, self.num_classes if logits else self.embed_dim))
        for start, stop in zip(cuts, cuts[1:]):
            acts, block_logits = self.activations(x[start:stop])
            out[start:stop] = block_logits if logits else acts[-1]
            del acts, block_logits  # free this block's layers before the next is passed
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Logits for a (B, D) batch; a (D,) input gives (1, K)."""
        return self._in_blocks(x, logits=True)

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Last hidden activation for one (D,) input or a (B, D) batch."""
        return self._in_blocks(x, logits=False).reshape(*np.shape(x)[:-1], self.embed_dim)

    def backprop(self, acts, logit_grad):
        """Gradients of a scalar loss given d(loss)/d(logits)."""
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = logit_grad
        for layer in reversed(range(len(self.weights))):
            grads_w[layer] = acts[layer].T @ delta
            grads_b[layer] = np.add.reduce(delta, axis=0)
            if layer > 0:
                # tanh' = 1 - a**2, built in one buffer; a*a has the bits of a**2
                slope = acts[layer] * acts[layer]
                np.subtract(1.0, slope, out=slope)
                delta = delta @ self.weights[layer].T
                delta *= slope
        return grads_w, grads_b

    def sgd_step(self, grads_w, grads_b, lr: float, weight_decay: float = 0.0) -> None:
        """In-place SGD update; decay is an L2 term on the weights only."""
        for w, b, gw, gb in zip(self.weights, self.biases, grads_w, grads_b):
            # lr * (gw + weight_decay * w), in one temporary; at weight_decay 0
            # this has the bits of lr * gw
            step = weight_decay * w
            step += gw
            step *= lr
            w -= step
            b -= lr * gb


def init_network(layer_dims, seed: int) -> Network:
    """Fresh network: weights uniform in +-1/sqrt(fan_in), biases zero.

    ``layer_dims`` must contain at least one hidden layer so that the
    embedding (network minus final linear layer) exists.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 3:
        raise ParameterError("need at least one hidden layer (layer_dims of length >= 3)")
    if any(d < 1 for d in dims):
        raise ParameterError("every layer dimension must be at least 1")
    rng = seeded_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Network(weights, biases)


def _class_max(z: np.ndarray) -> np.ndarray:
    """``z.max(axis=-1)``, reduced over a copy with the class axis first.

    numpy reduces over the leading axis of a contiguous array one whole
    row at a time, several times faster than over a short trailing axis.
    ``z.T`` puts the class axis first and the ``.T`` of the result puts
    the other axes back in order.  The values are those of ``z.max``;
    only the sign of a zero maximum can differ (for 8 or more classes).
    Subtracted from its row, such a maximum makes the shifted entry +0
    or -0, whose exp is 1 either way, so the kernels below keep their
    bits.  Class-axis sums are not reordered this way: from 8 classes
    on, numpy sums a trailing axis pairwise.
    """
    return np.maximum.reduce(np.ascontiguousarray(z.T), axis=0).T


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; accepts a (K,) vector or (B, K) batch."""
    z = np.asarray(logits, dtype=np.float64)
    e = z - _class_max(z)[..., None]
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy_grads(net: Network, batch: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy against soft target rows, plus its gradients.

    Returns (loss, grads_w, grads_b); gradients are already averaged
    over the batch.
    """
    acts, logits = net.activations(batch)
    shifted = logits  # activations returns a fresh array: shift it in place
    shifted -= _class_max(logits)[:, None]
    exp = np.exp(shifted)
    norm = np.add.reduce(exp, axis=1)
    per_row = np.log(norm) - np.add.reduce(targets * shifted, axis=1)
    loss = float(np.add.reduce(per_row) / per_row.size)  # np.mean's bits
    # softmax(logits) - targets, over the batch, from the same exponentials
    logit_grad = exp
    logit_grad /= norm[:, None]
    logit_grad -= targets
    logit_grad /= batch.shape[0]
    grads_w, grads_b = net.backprop(acts, logit_grad)
    return loss, grads_w, grads_b


def cosine_lr(epoch: int, total: int, base_lr: float) -> float:
    """Cosine decay from base_lr at epoch 0; the one gate of the epoch range [0, total)."""
    if not 0 <= epoch < total:
        raise ParameterError(f"epoch {epoch} outside [0, {total})")
    return base_lr * (1.0 + math.cos(math.pi * epoch / total)) / 2.0


def epoch_rng(seed: int, stream: str, epoch: int) -> np.random.Generator:
    """The generator of one rng stream of an epoch.

    "shuffle" orders the batches, "mix" draws augmentation, label guessing
    and mixing, and "repartition" decides ring-zone corrections.
    """
    return np.random.default_rng([seed, _STREAMS[stream], epoch])


def train_epoch(net: Network, features: np.ndarray, labels: np.ndarray,
                config: TrainConfig, epoch_index: int) -> float:
    """One epoch of mini-batch SGD on cross-entropy; updates net in place.

    Batches are a deterministic shuffle of the view, derived from
    (config.seed, epoch_index).  Returns the mean per-sample loss
    measured before each update.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    labels = require_labels("training", labels, n, net.num_classes)
    lr = cosine_lr(epoch_index, config.total_epochs, config.base_lr)
    perm = epoch_rng(config.seed, "shuffle", epoch_index).permutation(n)
    total_loss = 0.0
    for start in range(0, n, config.batch_size):
        stop = min(start + config.batch_size, n)
        # each batch gathers its own rows, so no shuffled copy of the view
        # exists; take copies a batch of rows faster than fancy indexing
        rows = perm[start:stop]
        loss, grads_w, grads_b = cross_entropy_grads(
            net, features.take(rows, axis=0), one_hot(labels[rows], net.num_classes))
        net.sgd_step(grads_w, grads_b, lr, config.weight_decay)
        total_loss += loss * (stop - start)
    return total_loss / n
