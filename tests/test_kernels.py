"""The per-batch kernels against the numpy expressions they replace.

Each ``ref_*`` function below is the plain expression a kernel used
before it was rewritten to reduce over class-major copies and to work
in place.  The rewrites promise the same bits, not merely close values,
because a run's report must stay byte-identical for a given seed; every
comparison here is therefore on raw bytes.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from protosemi.mixmatch import augment, brier_grads, guess_labels, mixup, sharpen
from protosemi.net import (
    _class_max,
    cross_entropy_grads,
    init_network,
    softmax,
)

BATCHES = st.sampled_from([1, 2, 224, 2500])
CLASSES = st.sampled_from([2, 4, 9, 40])
SEEDS = st.integers(0, 2**32 - 1)


# --- the expressions the kernels replaced -----------------------------------

def ref_activations(net, batch):
    a = np.atleast_2d(batch)
    acts = [a]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.tanh(a @ w + b)
        acts.append(a)
    return acts, a @ net.weights[-1] + net.biases[-1]


def ref_backprop(net, acts, logit_grad):
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    delta = logit_grad
    for layer in reversed(range(len(net.weights))):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (1.0 - acts[layer] ** 2)
    return grads_w, grads_b


def ref_sgd_step(net, grads_w, grads_b, lr, weight_decay):
    for w, b, gw, gb in zip(net.weights, net.biases, grads_w, grads_b):
        if weight_decay > 0.0:
            w -= lr * (gw + weight_decay * w)
        else:
            w -= lr * gw
        b -= lr * gb


def ref_softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def ref_cross_entropy_grads(net, batch, targets):
    acts, logits = ref_activations(net, batch)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    norm = exp.sum(axis=1)
    loss = float(np.mean(np.log(norm) - np.sum(targets * shifted, axis=1)))
    logit_grad = (exp / norm[:, None] - targets) / batch.shape[0]
    return (loss, *ref_backprop(net, acts, logit_grad))


def ref_brier_grads(net, batch, targets):
    acts, logits = ref_activations(net, batch)
    probs = ref_softmax(logits)
    err = probs - targets
    b, k = err.shape
    loss = float(np.mean(err ** 2))
    logit_grad = (2.0 / (b * k)) * probs * (err - (err * probs).sum(axis=1, keepdims=True))
    return (loss, *ref_backprop(net, acts, logit_grad))


def ref_augment(x, sigma, rng):
    return x + sigma * rng.standard_normal(x.shape)


def ref_sharpen(p, temperature):
    if temperature == 1.0:
        return p.copy()
    powered = p ** (1.0 / temperature)
    return powered / powered.sum(axis=-1, keepdims=True)


def ref_mixup(x1, p1, x2, p2, mix_alpha, rng):
    lam = rng.beta(mix_alpha, mix_alpha, size=x1.shape[0])
    lam = np.maximum(lam, 1.0 - lam)[:, None]
    return lam * x1 + (1.0 - lam) * x2, lam * p1 + (1.0 - lam) * p2


# --- helpers ----------------------------------------------------------------

def bits(*arrays) -> list:
    """Raw bytes, dtype and shape of each array or float, for exact comparison."""
    out = []
    for a in arrays:
        a = np.asarray(a)
        out.append((a.dtype.str, a.shape, a.tobytes()))
    return out


def special_logits(rng, shape):
    """Random logits with exact ties, signed zeros, infinities and NaN mixed in."""
    z = rng.standard_normal(shape) * rng.choice([1.0, 40.0, 1e3])
    if rng.random() < 0.3:
        z = np.round(z)  # many ties, and -0.0 from small negatives
    tie = rng.random(shape[:-1]) < 0.3
    z[..., -1] = np.where(tie, z[..., 0], z[..., -1])
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    mask = rng.random(shape) < rng.choice([0.0, 0.02, 0.2, 0.7])
    z[mask] = rng.choice(specials, size=int(mask.sum()))
    return z


def simplex_rows(rng, b, k):
    if rng.random() < 0.5:
        return np.eye(k)[rng.integers(0, k, size=b)]
    return rng.dirichlet(np.full(k, 0.5), size=b)


def random_net(rng, k, dim=6):
    """Two hidden layers; sometimes tied output columns or huge logits."""
    net = init_network([dim, 9, 5, k], seed=int(rng.integers(1 << 30)))
    style = rng.integers(3)
    if style == 1:  # class 0 and class k-1 tie on every row
        net.weights[-1][:, -1] = net.weights[-1][:, 0]
    elif style == 2:  # exp underflows to 0 for all but the top class
        net.weights[-1] *= 400.0
    net.biases = [rng.standard_normal(b.shape) for b in net.biases]
    return net


# --- the class-axis max ---------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(SEEDS, BATCHES, CLASSES, st.sampled_from([(), (2,)]))
def test_class_max_is_row_max(seed, b, k, lead):
    z = special_logits(np.random.default_rng(seed), (*lead, b, k))
    got, want = _class_max(z), z.max(axis=-1)
    assert np.array_equal(got, want, equal_nan=True)
    if k < 8:  # from 8 classes on only the sign of a zero maximum may differ
        assert bits(got) == bits(want)


@settings(max_examples=60, deadline=None)
@given(SEEDS, BATCHES, CLASSES, st.sampled_from([(), (1,), (2,), (3,)]))
def test_softmax_bits(seed, b, k, lead):
    z = special_logits(np.random.default_rng(seed), (*lead, b, k))
    with np.errstate(invalid="ignore"):  # inf - inf, as in the reference
        assert bits(softmax(z)) == bits(ref_softmax(z))


def test_softmax_of_one_vector():
    z = np.array([0.5, -0.0, 3.0, 3.0])
    assert bits(softmax(z)) == bits(ref_softmax(z))


# --- the training step -----------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(SEEDS, BATCHES, CLASSES, st.sampled_from([(), (2,)]))
def test_activations_bits(seed, b, k, lead):
    rng = np.random.default_rng(seed)
    net = random_net(rng, k)
    x = rng.standard_normal((*lead, b, net.input_dim))
    acts, logits = net.activations(x)
    want_acts, want_logits = ref_activations(net, x)
    assert bits(*acts, logits) == bits(*want_acts, want_logits)


@settings(max_examples=40, deadline=None)
@given(SEEDS, BATCHES, CLASSES)
def test_backprop_bits(seed, b, k):
    rng = np.random.default_rng(seed)
    net = random_net(rng, k)
    acts, _ = ref_activations(net, rng.standard_normal((b, net.input_dim)))
    logit_grad = rng.standard_normal((b, k)) / b
    got_w, got_b = net.backprop(acts, logit_grad)
    want_w, want_b = ref_backprop(net, acts, logit_grad)
    assert bits(*got_w, *got_b) == bits(*want_w, *want_b)


@settings(max_examples=40, deadline=None)
@given(SEEDS, CLASSES, st.sampled_from([0.0, 5e-4, 0.3]), st.sampled_from([0.0, 0.07, 1.5]))
def test_sgd_step_bits(seed, k, weight_decay, lr):
    rng = np.random.default_rng(seed)
    net = random_net(rng, k)
    ref = copy.deepcopy(net)
    grads_w = [rng.standard_normal(w.shape) for w in net.weights]
    grads_b = [rng.standard_normal(b.shape) for b in net.biases]
    net.sgd_step(grads_w, grads_b, lr, weight_decay)
    ref_sgd_step(ref, grads_w, grads_b, lr, weight_decay)
    assert bits(*net.weights, *net.biases) == bits(*ref.weights, *ref.biases)


@settings(max_examples=40, deadline=None)
@given(SEEDS, BATCHES, CLASSES)
def test_cross_entropy_grads_bits(seed, b, k):
    rng = np.random.default_rng(seed)
    net = random_net(rng, k)
    x = rng.standard_normal((b, net.input_dim))
    targets = simplex_rows(rng, b, k)
    loss, gw, gb = cross_entropy_grads(net, x, targets)
    want_loss, want_w, want_b = ref_cross_entropy_grads(net, x, targets)
    assert bits(loss, *gw, *gb) == bits(want_loss, *want_w, *want_b)


@settings(max_examples=40, deadline=None)
@given(SEEDS, BATCHES, CLASSES)
def test_brier_grads_bits(seed, b, k):
    rng = np.random.default_rng(seed)
    net = random_net(rng, k)
    x = rng.standard_normal((b, net.input_dim))
    targets = simplex_rows(rng, b, k)
    loss, gw, gb = brier_grads(net, x, targets)
    want_loss, want_w, want_b = ref_brier_grads(net, x, targets)
    assert bits(loss, *gw, *gb) == bits(want_loss, *want_w, *want_b)


# --- the semi step's helpers -----------------------------------------------

@settings(max_examples=40, deadline=None)
@given(SEEDS, BATCHES, st.sampled_from([0.0, 0.1, 2.0]), st.sampled_from([(), (2,)]))
def test_augment_bits(seed, b, sigma, lead):
    x = np.random.default_rng(seed).standard_normal((b, 7))
    x = np.broadcast_to(x, (*lead, b, 7))  # guess_labels jitters a broadcast view
    got = augment(x, sigma, np.random.default_rng(seed + 1))
    assert bits(got) == bits(ref_augment(x, sigma, np.random.default_rng(seed + 1)))


@settings(max_examples=40, deadline=None)
@given(SEEDS, BATCHES, CLASSES, st.sampled_from([0.75, 0.2, 4.0]))
def test_mixup_bits(seed, b, k, alpha):
    rng = np.random.default_rng(seed)
    x1, x2 = rng.standard_normal((2, b, 7))
    p1, p2 = simplex_rows(rng, b, k), simplex_rows(rng, b, k)
    got = mixup(x1, p1, x2, p2, alpha, np.random.default_rng(seed + 1))
    want = ref_mixup(x1, p1, x2, p2, alpha, np.random.default_rng(seed + 1))
    assert bits(*got) == bits(*want)


@settings(max_examples=40, deadline=None)
@given(SEEDS, BATCHES, CLASSES, st.sampled_from([0.5, 1.0, 0.3, 2.0]))
def test_sharpen_bits(seed, b, k, temperature):
    p = simplex_rows(np.random.default_rng(seed), b, k)
    assert bits(sharpen(p, temperature)) == bits(ref_sharpen(p, temperature))


@settings(max_examples=30, deadline=None)
@given(SEEDS, BATCHES, CLASSES, st.sampled_from([1, 2, 3]))
def test_guess_labels_bits(seed, b, k, k_aug):
    """The stacked (k_aug, B, D) forward pass through every rewritten kernel."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, k)
    u = rng.standard_normal((b, net.input_dim))
    got = guess_labels(net, u, k_aug, 0.5, 0.1, np.random.default_rng(seed + 1))
    copies = ref_augment(np.broadcast_to(u, (k_aug, *u.shape)), 0.1,
                         np.random.default_rng(seed + 1))
    probs = ref_softmax(ref_activations(net, copies)[1])
    assert bits(got) == bits(ref_sharpen(probs.mean(axis=0), 0.5))
