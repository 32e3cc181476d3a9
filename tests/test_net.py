"""Network forward/backward math and training determinism."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protosemi.errors import ParameterError
from protosemi.net import (
    Network,
    TrainConfig,
    cosine_lr,
    cross_entropy_grads,
    init_network,
    one_hot,
    softmax,
    train_epoch,
)

# frozen oracle values (see notes on derivation: direct formula evaluation)
CE_LOGITS_1_2_LABEL_0 = 1.3132616875182228  # log(e^1 + e^2) - 1 = log1p(e)
LN_10 = 2.302585092994046


def finite_difference_check(net, batch, targets, step=1e-5, rtol=1e-4, atol=1e-7):
    """Compare analytic gradients to central differences, param by param.

    Returns the worst relative error among parameters that fail neither
    tolerance, asserting none do.
    """
    _, grads_w, grads_b = cross_entropy_grads(net, batch, targets)

    def loss_now():
        return cross_entropy_grads(net, batch, targets)[0]

    worst = 0.0
    params = list(zip(net.weights, grads_w)) + list(zip(net.biases, grads_b))
    for array, grad in params:
        flat, gflat = array.ravel(), np.asarray(grad).ravel()
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + step
            up = loss_now()
            flat[j] = keep - step
            down = loss_now()
            flat[j] = keep
            numeric = (up - down) / (2.0 * step)
            diff = abs(numeric - gflat[j])
            scale = max(abs(numeric), abs(gflat[j]))
            assert diff <= max(rtol * scale, atol), (
                f"gradient mismatch: analytic {gflat[j]}, numeric {numeric}"
            )
            if scale > 0:
                worst = max(worst, diff / scale)
    return worst


class TestInit:
    def test_deterministic(self):
        a = init_network([2, 4, 3], seed=5)
        b = init_network([2, 4, 3], seed=5)
        assert a.params_equal(b)
        assert not a.params_equal(init_network([2, 4, 3], seed=6))

    def test_no_hidden_layer_rejected(self):
        with pytest.raises(ParameterError):
            init_network([2, 3], seed=0)

    def test_embed_dimension(self):
        net = init_network([2, 4, 3], seed=0)
        assert net.embed_dim == 4
        assert net.embed(np.array([0.3, -0.7])).shape == (4,)

    def test_biases_zero_and_weights_scaled(self):
        net = init_network([9, 4, 3], seed=1)
        assert all(np.all(b == 0.0) for b in net.biases)
        assert np.all(np.abs(net.weights[0]) <= 1.0 / 3.0)


class TestForwardEmbed:
    def test_zero_net_gives_uniform_softmax(self):
        dims = [3, 4, 5]
        net = Network(dims, [np.zeros((3, 4)), np.zeros((4, 5))],
                      [np.zeros(4), np.zeros(5)])
        logits = net.forward(np.array([[1.0, -2.0, 0.5]]))
        assert logits.shape == (1, 5)
        assert np.all(logits == 0.0)
        assert softmax(logits) == pytest.approx(np.full((1, 5), 0.2))

    def test_embed_matches_forward_hidden_state(self):
        net = init_network([4, 6, 3, 2], seed=3)
        x = np.array([0.1, 0.2, -0.3, 0.4])
        acts, logits = net.activations(x[None, :])
        assert np.array_equal(net.embed(x), acts[-1][0])
        assert np.array_equal(net.forward(x[None, :]), logits)

    def test_hand_computed_two_layer_case(self):
        # scalar arithmetic done by hand, no matrix ops
        net = Network(
            [2, 1, 2],
            [np.array([[0.5], [-0.25]]), np.array([[2.0, -1.0]])],
            [np.array([0.1]), np.array([0.05, -0.05])],
        )
        x = np.array([0.8, 0.4])
        h = math.tanh(0.8 * 0.5 + 0.4 * -0.25 + 0.1)
        expected = np.array([2.0 * h + 0.05, -1.0 * h - 0.05])
        assert net.forward(x[None, :]) == pytest.approx(expected[None, :], abs=1e-15)
        assert net.embed(x) == pytest.approx(np.array([h]), abs=1e-15)

    def test_dimension_mismatch(self):
        net = init_network([3, 4, 2], seed=0)
        with pytest.raises(ParameterError):
            net.forward(np.zeros((1, 5)))

    def test_batch_and_single_agree(self):
        # BLAS may sum in a different order for (1,D) vs (B,D), so this
        # is a numeric agreement, not a bitwise one
        net = init_network([3, 5, 4], seed=9)
        xs = np.random.default_rng(0).standard_normal((6, 3))
        batch_embeddings = net.embed(xs)
        for i in range(6):
            assert net.embed(xs[i]) == pytest.approx(batch_embeddings[i], rel=1e-12, abs=1e-12)


def cross_entropy_of(logits, label):
    """Loss of cross_entropy_grads on a one-row batch whose logits are given."""
    k = len(logits)
    # zero weights make the logits equal the output bias for any input
    net = Network([1, 1, k], [np.zeros((1, 1)), np.zeros((1, k))],
                  [np.zeros(1), np.array(logits, dtype=np.float64)])
    return cross_entropy_grads(net, np.zeros((1, 1)), one_hot([label], k))[0]


class TestCrossEntropy:
    def test_uniform_logits_k10(self):
        assert cross_entropy_of(np.zeros(10), 3) == pytest.approx(LN_10, abs=1e-12)

    def test_huge_margin_loss_vanishes(self):
        assert cross_entropy_of([50.0, 0.0, 0.0], 0) < 1e-12

    def test_two_logit_case_matches_formula(self):
        assert cross_entropy_of([1.0, 2.0], 0) == pytest.approx(
            CE_LOGITS_1_2_LABEL_0, abs=1e-12)

    def test_stability_under_large_logits(self):
        loss = cross_entropy_of([1000.0, 999.0], 1)
        assert math.isfinite(loss)
        assert loss == pytest.approx(math.log1p(math.e), abs=1e-12)


@given(st.lists(st.floats(min_value=-15, max_value=15), min_size=2, max_size=8))
def test_softmax_is_a_distribution(logit_list):
    # logit gaps capped at 30 so the open interval survives rounding
    p = softmax(np.array(logit_list))
    assert np.all(p > 0.0) and np.all(p < 1.0)
    assert abs(p.sum() - 1.0) < 1e-9


def test_softmax_extreme_logits_stay_normalized():
    p = softmax(np.array([500.0, -500.0, 0.0]))
    assert np.all(p >= 0.0) and np.all(p <= 1.0)
    assert abs(p.sum() - 1.0) < 1e-9


class TestGradients:
    def test_matches_finite_differences_small_nets(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            dims = [int(rng.integers(2, 4)), int(rng.integers(2, 5)), int(rng.integers(2, 4))]
            net = init_network(dims, seed=int(rng.integers(1_000_000)))
            assert sum(w.size + b.size for w, b in zip(net.weights, net.biases)) <= 50
            batch = rng.standard_normal((5, dims[0]))
            targets = one_hot(rng.integers(0, dims[-1], size=5), dims[-1])
            finite_difference_check(net, batch, targets)

    def test_soft_targets_also_check_out(self):
        rng = np.random.default_rng(23)
        net = init_network([3, 4, 3], seed=7)
        batch = rng.standard_normal((4, 3))
        targets = rng.random((4, 3))
        targets /= targets.sum(axis=1, keepdims=True)
        finite_difference_check(net, batch, targets)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 10, 0.02) == 0.02
        assert cosine_lr(10, 10, 0.02) == pytest.approx(0.0, abs=1e-17)
        assert cosine_lr(5, 10, 0.02) == pytest.approx(0.01, abs=1e-15)

    def test_monotone_decreasing(self):
        values = [cosine_lr(e, 40, 0.5) for e in range(41)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_range_checks(self):
        with pytest.raises(ParameterError):
            cosine_lr(11, 10, 0.1)
        with pytest.raises(ParameterError):
            cosine_lr(0, 0, 0.1)


class TestTrainEpoch:
    @staticmethod
    def _toy():
        rng = np.random.default_rng(2)
        features = np.vstack([
            rng.standard_normal((20, 4)) + np.array([3.0, 0, 0, 0]),
            rng.standard_normal((20, 4)) - np.array([3.0, 0, 0, 0]),
        ])
        labels = np.repeat([0, 1], 20)
        return features, labels

    def test_zero_lr_leaves_parameters(self):
        features, labels = self._toy()
        net = init_network([4, 6, 2], seed=0)
        before = copy.deepcopy(net)
        config = TrainConfig(base_lr=0.0, total_epochs=3, batch_size=8, seed=0)
        loss = train_epoch(net, features, labels, config, 0)
        assert net.params_equal(before)
        # with no updates the epoch loss is the plain dataset mean loss
        expected = cross_entropy_grads(net, features, one_hot(labels, 2))[0]
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_zero_lr_loss_permutation_invariant(self):
        features, labels = self._toy()
        net = init_network([4, 6, 2], seed=0)
        config_a = TrainConfig(base_lr=0.0, total_epochs=5, batch_size=8, seed=1)
        config_b = TrainConfig(base_lr=0.0, total_epochs=5, batch_size=8, seed=99)
        loss_a = train_epoch(copy.deepcopy(net), features, labels, config_a, 0)
        loss_b = train_epoch(copy.deepcopy(net), features, labels, config_b, 0)
        assert loss_a == pytest.approx(loss_b, rel=1e-12)

    def test_separable_blobs_loss_decreases(self):
        features, labels = self._toy()
        net = init_network([4, 6, 2], seed=4)
        config = TrainConfig(base_lr=0.05, total_epochs=50, batch_size=8, seed=4)
        first = train_epoch(net, features, labels, config, 0)
        last = first
        for epoch in range(1, 50):
            last = train_epoch(net, features, labels, config, epoch)
        assert last < first

    def test_bit_determinism(self):
        features, labels = self._toy()
        config = TrainConfig(base_lr=0.05, total_epochs=4, batch_size=8, seed=7)
        net_a, net_b = init_network([4, 5, 2], seed=7), init_network([4, 5, 2], seed=7)
        for epoch in range(4):
            train_epoch(net_a, features, labels, config, epoch)
            train_epoch(net_b, features, labels, config, epoch)
        assert net_a.params_equal(net_b)

    def test_empty_view_rejected(self):
        net = init_network([4, 5, 2], seed=0)
        config = TrainConfig(base_lr=0.1, total_epochs=1, batch_size=4, seed=0)
        with pytest.raises(ParameterError):
            train_epoch(net, np.empty((0, 4)), np.empty(0, dtype=int), config, 0)

    def test_epoch_index_bounds(self):
        features, labels = self._toy()
        net = init_network([4, 5, 2], seed=0)
        config = TrainConfig(base_lr=0.1, total_epochs=2, batch_size=8, seed=0)
        with pytest.raises(ParameterError):
            train_epoch(net, features, labels, config, 2)


class TestTrainConfig:
    def test_zero_lr_allowed(self):
        TrainConfig(base_lr=0.0, total_epochs=1, batch_size=1)

    @pytest.mark.parametrize("bad", [
        dict(base_lr=-0.1), dict(total_epochs=0), dict(batch_size=0),
        dict(weight_decay=-1e-9),
    ])
    def test_invalid_values(self, bad):
        kwargs = dict(base_lr=0.1, total_epochs=2, batch_size=4, weight_decay=0.0, seed=0)
        kwargs.update(bad)
        with pytest.raises(ParameterError):
            TrainConfig(**kwargs)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_weight_decay_shrinks_weight_norm_at_zero_gradient(seed):
    # pure decay: gradients zero, lr fixed -> every weight scaled by (1 - lr*wd)
    net = init_network([2, 3, 2], seed=seed)
    zero_w = [np.zeros_like(w) for w in net.weights]
    zero_b = [np.zeros_like(b) for b in net.biases]
    before = [w.copy() for w in net.weights]
    net.sgd_step(zero_w, zero_b, lr=0.1, weight_decay=0.5)
    for w_before, w_after in zip(before, net.weights):
        assert np.allclose(w_after, w_before * (1.0 - 0.05), rtol=0, atol=1e-15)
