"""Augmentation, label guessing, mixup, and the semi-supervised epoch."""

import copy
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import load_tool, one_blas_thread, params_equal
from protosemi import mixmatch
from protosemi.errors import ParameterError
from protosemi.mixmatch import (
    SemiConfig,
    augment,
    brier_grads,
    guess_labels,
    lambda_ramp,
    mixup,
    semi_train_epoch,
    sharpen,
)
from protosemi.net import (
    Network,
    TrainConfig,
    cosine_lr,
    cross_entropy_grads,
    epoch_rng,
    init_network,
    one_hot,
    softmax,
    train_epoch,
)

# frozen: (0.8, 0.2) squared and renormalized = (16/17, 1/17)
SHARPEN_08_02_T05 = (0.9411764705882353, 0.058823529411764705)

# test_a_pool_as_large_as_the_labeled_set_keeps_its_bits, per OpenBLAS kernel
# (numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0)
LARGE_POOL_DIGESTS = {
    "SkylakeX": "83c1cc8b061dbd2a4297b2be5d8dd2ab5e0edb8c12e49804601e5c5703a707a0",
    "Haswell": "83c1cc8b061dbd2a4297b2be5d8dd2ab5e0edb8c12e49804601e5c5703a707a0",
    "Sandybridge": "766ce51fa0f94bf3498c09069a8089c6008667ad6a8fae75cddd7316fae81ef0",
}


class FixedLambda:
    """Stand-in rng whose beta() returns a chosen constant."""

    def __init__(self, value):
        self.value = value

    def beta(self, a, b, size):
        return np.full(size, self.value)


class TestSemiConfig:
    def test_defaults_valid(self):
        cfg = SemiConfig()
        assert cfg.k_aug == 2 and cfg.temperature == 0.5

    @pytest.mark.parametrize("bad", [
        dict(k_aug=0), dict(k_aug=1.5), dict(temperature=0.0),
        dict(mix_alpha=0.0), dict(lambda_u=-0.1), dict(aug_sigma=-1.0),
        # a float count would reach the report header as "2.0", which
        # parse_report rejects
        dict(k_aug=2.0),
        # a value of the wrong type is a ParameterError, not a TypeError
        dict(lambda_u="1.0"), dict(temperature=None), dict(lambda_u=True),
    ])
    def test_invalid(self, bad):
        with pytest.raises(ParameterError):
            SemiConfig(**bad)


class TestAugment:
    def test_sigma_zero_is_identity(self):
        x = np.array([1.0, -2.0, 0.5])
        out = augment(x, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_sigma_zero_still_advances_the_stream(self):
        x = np.zeros(4)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        augment(x, 0.0, rng_a)
        augment(x, 1.0, rng_b)
        assert rng_a.random() == rng_b.random()

    def test_same_state_same_output(self):
        x = np.linspace(-1, 1, 6)
        a = augment(x, 0.3, np.random.default_rng(42))
        b = augment(x, 0.3, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_monte_carlo_variance(self):
        # per-coordinate sample variance of the jitter should be near sigma^2
        x = np.zeros(4)
        rng = np.random.default_rng(7)
        draws = np.stack([augment(x, 1.0, rng) - x for _ in range(10_000)])
        var = draws.var(axis=0)
        assert np.all(np.abs(var - 1.0) < 0.05)


class TestSharpen:
    def test_uniform_fixed_point(self):
        p = np.full(5, 0.2)
        for t in (0.1, 0.5, 1.0, 3.0):
            assert sharpen(p, t) == pytest.approx(p, abs=1e-12)

    def test_temperature_one_is_identity(self):
        p = softmax(np.array([0.3, -1.2, 2.0]))
        assert np.array_equal(sharpen(p, 1.0), p)

    def test_frozen_two_class_value(self):
        out = sharpen(np.array([0.8, 0.2]), 0.5)
        assert out == pytest.approx(np.array(SHARPEN_08_02_T05), abs=1e-12)

    def test_low_temperature_approaches_one_hot(self):
        out = sharpen(np.array([0.6, 0.3, 0.1]), 0.01)
        assert out[0] > 0.999999
        assert np.argmax(out) == 0

    def test_batch_rows_sharpen_independently(self):
        rows = np.array([[0.8, 0.2], [0.5, 0.5]])
        out = sharpen(rows, 0.5)
        assert out[0] == pytest.approx(np.array(SHARPEN_08_02_T05), abs=1e-12)
        assert out[1] == pytest.approx(np.array([0.5, 0.5]), abs=1e-12)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
           st.floats(min_value=0.05, max_value=5.0))
    @example(weights=[0.01, 0.010000000000000002], temperature=4.0)
    @example(weights=[0.9999999999999999, 1.0], temperature=4.0)
    @settings(max_examples=60)
    def test_preserves_simplex_and_argmax(self, weights, temperature):
        p = np.array(weights)
        p = p / p.sum()
        out = sharpen(p, temperature)
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out >= 0.0)
        # near-ties may round to equal values, so the input's top class is
        # guaranteed to stay a top class, not to stay the unique argmax
        assert out[np.argmax(p)] == out.max()


class TestGuessLabels:
    def test_single_copy_no_jitter_unit_temperature(self):
        net = init_network([3, 5, 4], seed=1)
        u = np.array([[0.4, -0.2, 1.0]])
        guess = guess_labels(net, u, 1, 1.0, 0.0, np.random.default_rng(0))
        assert np.array_equal(guess, softmax(net.forward(u)))

    def test_constant_net_ignores_input_and_k(self):
        bias = np.array([0.2, 1.5, -0.3])
        net = Network([np.zeros((2, 2)), np.zeros((2, 3))], [np.zeros(2), bias])
        g1 = guess_labels(net, np.array([[9.0, -9.0]]), 1, 0.5, 1.0,
                          np.random.default_rng(1))
        g2 = guess_labels(net, np.array([[0.0, 0.1]]), 4, 0.5, 1.0,
                          np.random.default_rng(2))
        assert g1.shape == (1, 3)
        assert np.array_equal(g1, g2)

    def test_matches_replay_oracle(self):
        net = init_network([4, 6, 3], seed=9)
        u = np.array([[0.3, 0.1, -0.5, 0.8]])
        got = guess_labels(net, u, 4, 0.5, 0.2, np.random.default_rng(77))
        rng = np.random.default_rng(77)
        acc = None
        for _ in range(4):
            jittered = u + 0.2 * rng.standard_normal(u.shape)
            logits = net.forward(jittered)[0]
            e = np.exp(logits - logits.max())
            p = e / e.sum()
            acc = p if acc is None else acc + p
        mean = acc / 4
        powered = mean ** 2.0
        expected = powered / powered.sum()
        assert got.shape == (1, 3)
        assert got[0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("shape", [(32, 16), (1, 16), (2, 16), (7, 16)])
    @pytest.mark.parametrize("k_aug", [1, 2, 3])
    def test_bit_equal_to_one_forward_per_copy(self, shape, k_aug):
        # one-row batches take a different BLAS path from many-row ones,
        # and a full batch may block its matrix products differently again
        net = init_network([16, 32, 16, 4], seed=9)
        u = np.random.default_rng(3).standard_normal(shape)
        rng_got, rng_want = np.random.default_rng(77), np.random.default_rng(77)
        got = guess_labels(net, u, k_aug, 0.5, 0.2, rng_got)
        acc = None
        for _ in range(k_aug):
            probs = softmax(net.forward(u + 0.2 * rng_want.standard_normal(u.shape)))
            acc = probs if acc is None else acc + probs
        assert np.array_equal(got, sharpen(acc / k_aug, 0.5))
        assert rng_got.random() == rng_want.random()

    def test_output_on_simplex(self):
        net = init_network([3, 4, 5], seed=3)
        batch = np.random.default_rng(0).standard_normal((7, 3))
        guesses = guess_labels(net, batch, 3, 0.4, 0.5, np.random.default_rng(5))
        assert guesses.shape == (7, 5)
        assert np.allclose(guesses.sum(axis=1), 1.0, atol=1e-9)

    def test_sharpens_the_mean_softmax_through_the_module_name(self, monkeypatch):
        # the tracer times sharpening by wrapping mixmatch.sharpen, so
        # guess_labels must look that name up, once per call
        net = init_network([3, 5, 4], seed=2)
        u = np.random.default_rng(1).standard_normal((3, 3))
        calls = []
        real_sharpen = mixmatch.sharpen

        def spy_sharpen(p, temperature):
            calls.append((p.copy(), temperature))
            return real_sharpen(p, temperature)

        monkeypatch.setattr(mixmatch, "sharpen", spy_sharpen)
        rng = np.random.default_rng(4)
        got = guess_labels(net, u, 2, 0.5, 0.3, rng)
        rng = np.random.default_rng(4)
        stack = u + 0.3 * rng.standard_normal((2, 3, 3))
        mean = softmax(net.activations(stack)[1]).mean(axis=0)
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], mean) and calls[0][1] == 0.5
        assert np.array_equal(got, real_sharpen(mean, 0.5))


class TestMixup:
    def test_lambda_one_returns_first_exactly(self):
        x1, x2 = np.array([[1.0, 2.0]]), np.array([[-5.0, 7.0]])
        p1, p2 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        xm, pm = mixup(x1, p1, x2, p2, 0.75, FixedLambda(1.0))
        assert np.array_equal(xm, x1) and np.array_equal(pm, p1)

    def test_lambda_half_returns_midpoints(self):
        x1, x2 = np.array([[2.0, 0.0]]), np.array([[0.0, 4.0]])
        p1, p2 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        xm, pm = mixup(x1, p1, x2, p2, 0.75, FixedLambda(0.5))
        assert np.array_equal(xm, np.array([[1.0, 2.0]]))
        assert np.array_equal(pm, np.array([[0.5, 0.5]]))

    def test_low_lambda_is_folded_toward_first(self):
        x1, x2 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        p1, p2 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        xm, pm = mixup(x1, p1, x2, p2, 0.75, FixedLambda(0.2))  # lambda' = 0.8
        assert xm == pytest.approx(np.array([[0.8, 0.2]]))
        assert pm == pytest.approx(np.array([[0.8, 0.2]]))

    def test_batch_draws_one_lambda_per_row(self):
        rng = np.random.default_rng(11)
        x1 = np.zeros((6, 3))
        x2 = np.ones((6, 3))
        p1 = one_hot(np.zeros(6, dtype=int), 2)
        p2 = one_hot(np.ones(6, dtype=int), 2)
        xm, pm = mixup(x1, p1, x2, p2, 0.75, rng)
        # constant rows within an item, but multiple distinct lambdas across items
        per_row = xm[:, 0]
        assert np.allclose(xm, per_row[:, None])
        assert len(np.unique(per_row)) > 1
        assert np.all(per_row <= 0.5)  # lambda' >= 1/2 keeps mix near x1 = 0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_convexity_and_simplex(self, seed):
        rng = np.random.default_rng(seed)
        x1, x2 = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
        p1 = rng.random((1, 3))
        p1 /= p1.sum()
        p2 = rng.random((1, 3))
        p2 /= p2.sum()
        xm, pm = mixup(x1, p1, x2, p2, 0.75, rng)
        assert xm.shape == (1, 4) and pm.shape == (1, 3)
        lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
        assert np.all(xm >= lo - 1e-12) and np.all(xm <= hi + 1e-12)
        assert abs(pm.sum() - 1.0) < 1e-12
        # folding keeps the result on the x1 side of the midpoint
        assert np.linalg.norm(xm - x1) <= np.linalg.norm(xm - x2) + 1e-12


class TestLambdaRamp:
    def test_linear_over_first_quarter(self):
        assert lambda_ramp(0, 40) == 0.0
        assert lambda_ramp(5, 40) == 0.5
        assert lambda_ramp(10, 40) == 1.0
        assert lambda_ramp(39, 40) == 1.0


class TestBrierGrads:
    def test_zero_when_predictions_equal_targets(self):
        net = init_network([3, 4, 3], seed=5)
        batch = np.random.default_rng(2).standard_normal((4, 3))
        targets = softmax(net.forward(batch))
        loss, grads_w, grads_b = brier_grads(net, batch, targets)
        assert loss == 0.0
        assert all(np.allclose(g, 0.0, atol=1e-15) for g in grads_w + grads_b)

    def test_nonnegative_and_bounded(self):
        net = init_network([3, 4, 3], seed=6)
        batch = np.random.default_rng(3).standard_normal((5, 3))
        targets = one_hot(np.array([0, 1, 2, 0, 1]), 3)
        loss, _, _ = brier_grads(net, batch, targets)
        assert 0.0 <= loss <= 2.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        net = init_network([3, 4, 3], seed=8)
        batch = rng.standard_normal((4, 3))
        targets = rng.random((4, 3))
        targets /= targets.sum(axis=1, keepdims=True)
        _, grads_w, grads_b = brier_grads(net, batch, targets)
        step = 1e-5
        for array, grad in list(zip(net.weights, grads_w)) + list(zip(net.biases, grads_b)):
            flat, gflat = array.ravel(), np.asarray(grad).ravel()
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + step
                up = brier_grads(net, batch, targets)[0]
                flat[j] = keep - step
                down = brier_grads(net, batch, targets)[0]
                flat[j] = keep
                numeric = (up - down) / (2 * step)
                assert abs(numeric - gflat[j]) <= max(
                    1e-4 * max(abs(numeric), abs(gflat[j])), 1e-7)


def toy_views(seed=0, n_labeled=24, n_unlabeled=10, dim=4):
    rng = np.random.default_rng(seed)
    shift = np.zeros(dim)
    shift[0] = 3.0
    xl = np.vstack([rng.standard_normal((n_labeled // 2, dim)) + shift,
                    rng.standard_normal((n_labeled // 2, dim)) - shift])
    yl = np.repeat([0, 1], n_labeled // 2)
    xu = rng.standard_normal((n_unlabeled, dim))
    return xl, yl, xu


class TestSemiTrainEpoch:
    def test_reduces_to_supervised_epoch_bitwise(self):
        xl, yl, xu = toy_views(seed=1)
        config = TrainConfig(base_lr=0.05, total_epochs=4, batch_size=8, seed=3)
        # lambda_u = 0 silences the unlabeled path; sigma = 0 disables
        # jitter; Beta(1e-12, 1e-12) draws are exactly 0 or 1, so the
        # folded mixing weight is exactly 1
        semi = SemiConfig(k_aug=2, temperature=0.5, mix_alpha=1e-12,
                          lambda_u=0.0, aug_sigma=0.0)
        net_a = init_network([4, 6, 2], seed=11)
        net_b = copy.deepcopy(net_a)
        for epoch in range(4):
            loss_plain = train_epoch(net_a, xl, yl, config, epoch)
            loss_l, loss_u = semi_train_epoch(net_b, (xl, yl), xu, semi, config, epoch)
            assert loss_u == 0.0
            assert loss_l == loss_plain
        assert params_equal(net_a, net_b)

    def test_empty_unlabeled_view_is_supported(self):
        xl, yl, _ = toy_views(seed=2)
        config = TrainConfig(base_lr=0.05, total_epochs=2, batch_size=8, seed=0)
        semi = SemiConfig(lambda_u=1.0, aug_sigma=0.1)
        net = init_network([4, 6, 2], seed=0)
        loss_l, loss_u = semi_train_epoch(net, (xl, yl), np.empty((0, 4)), semi, config, 0)
        assert loss_u == 0.0
        assert loss_l > 0.0

    def test_unlabeled_pathway_changes_training(self):
        xl, yl, xu = toy_views(seed=3)
        config = TrainConfig(base_lr=0.05, total_epochs=2, batch_size=8, seed=5)
        net_on = init_network([4, 6, 2], seed=2)
        net_off = copy.deepcopy(net_on)
        # epoch 1 of 2 puts the ramp at min(1, 4*1/2) = 1, full weight
        on = SemiConfig(lambda_u=5.0, aug_sigma=0.0, mix_alpha=0.75)
        off = SemiConfig(lambda_u=0.0, aug_sigma=0.0, mix_alpha=0.75)
        loss_on = semi_train_epoch(net_on, (xl, yl), xu, on, config, 1)
        loss_off = semi_train_epoch(net_off, (xl, yl), xu, off, config, 1)
        assert loss_on[1] > 0.0
        assert loss_off[1] == 0.0
        assert not params_equal(net_on, net_off)

    def test_seeded_rerun_is_identical(self):
        xl, yl, xu = toy_views(seed=4)
        config = TrainConfig(base_lr=0.03, total_epochs=3, batch_size=8, seed=9)
        semi = SemiConfig(lambda_u=2.0, aug_sigma=0.2)
        net_a = init_network([4, 5, 2], seed=1)
        net_b = copy.deepcopy(net_a)
        losses_a = [semi_train_epoch(net_a, (xl, yl), xu, semi, config, e) for e in range(3)]
        losses_b = [semi_train_epoch(net_b, (xl, yl), xu, semi, config, e) for e in range(3)]
        assert losses_a == losses_b
        assert params_equal(net_a, net_b)

    def test_empty_confident_view_rejected(self):
        config = TrainConfig(base_lr=0.05, total_epochs=1, batch_size=4, seed=0)
        net = init_network([4, 5, 2], seed=0)
        with pytest.raises(ParameterError):
            semi_train_epoch(net, (np.empty((0, 4)), np.empty(0, dtype=int)),
                             np.empty((0, 4)), SemiConfig(), config, 0)

    # label values one_hot would misread: -1 as the last class, 1.7 as 1, K out of range;
    # a label count that differs from the row count was already rejected
    @pytest.mark.parametrize("bad", [
        lambda y: np.where(np.arange(y.size) == 0, -1, y),
        lambda y: y + 0.7,
        lambda y: np.where(np.arange(y.size) == 0, 2, y),
    ], ids=["negative", "fractional", "num_classes"])
    def test_labels_it_cannot_train_on_are_rejected(self, bad):
        xl, yl, xu = toy_views(seed=5)
        config = TrainConfig(base_lr=0.05, total_epochs=2, batch_size=8, seed=0)
        net = init_network([4, 5, 2], seed=0)
        before = copy.deepcopy(net)
        message = r"confident labels must be one integer in \[0, 2\)"
        with pytest.raises(ParameterError, match=message):
            semi_train_epoch(net, (xl, bad(yl)), xu, SemiConfig(), config, 1)
        assert params_equal(net, before)

    def test_epoch_out_of_range_rejected(self):
        xl, yl, xu = toy_views(seed=5)
        config = TrainConfig(base_lr=0.05, total_epochs=2, batch_size=8, seed=0)
        net = init_network([4, 5, 2], seed=0)
        with pytest.raises(ParameterError):
            semi_train_epoch(net, (xl, yl), xu, SemiConfig(), config, 2)

    @pytest.mark.parametrize("epoch", [-1, 2])  # below 0, and total_epochs
    def test_epoch_range_is_cosine_lrs_gate(self, epoch):
        xl, yl, xu = toy_views(seed=5)
        config = TrainConfig(base_lr=0.05, total_epochs=2, batch_size=8, seed=0)
        net = init_network([4, 5, 2], seed=0)
        before = copy.deepcopy(net)
        gate = rf"epoch {epoch} outside \[0, 2\)"
        with pytest.raises(ParameterError, match=gate):
            train_epoch(net, xl, yl, config, epoch)
        with pytest.raises(ParameterError, match=gate):
            semi_train_epoch(net, (xl, yl), xu, SemiConfig(), config, epoch)
        assert params_equal(net, before)

    # one row, batch_size, batch_size + 1, the labeled set's size, larger
    @pytest.mark.parametrize("n_unlabeled", [1, 8, 9, 26, 30])
    def test_each_pool_row_is_guessed_once_per_epoch(self, monkeypatch, n_unlabeled):
        batch_size, epoch = 8, 1  # epoch 1 of 2: the unlabeled weight is on
        xl, yl, xu = toy_views(seed=6, n_labeled=26, n_unlabeled=n_unlabeled)
        n = len(xl)
        config = TrainConfig(base_lr=0.05, total_epochs=2, batch_size=batch_size, seed=3)
        calls = []  # (kernel, what it got), in call order
        real_guess, real_mixup, real_brier = (mixmatch.guess_labels, mixmatch.mixup,
                                              mixmatch.brier_grads)

        def spy_guess(net, u, *args):
            q = real_guess(net, u, *args)
            calls.append(("guess", (u.copy(), q)))
            return q

        def spy_mixup(x1, p1, *args):
            calls.append(("mixup", p1.copy()))
            return real_mixup(x1, p1, *args)

        def spy_brier(net, batch, targets):
            calls.append(("brier", len(batch)))
            return real_brier(net, batch, targets)

        monkeypatch.setattr(mixmatch, "guess_labels", spy_guess)
        monkeypatch.setattr(mixmatch, "mixup", spy_mixup)
        monkeypatch.setattr(mixmatch, "brier_grads", spy_brier)
        semi_train_epoch(init_network([4, 6, 2], seed=0), (xl, yl), xu,
                         SemiConfig(lambda_u=1.0, aug_sigma=0.1), config, epoch)

        # one mixup per batch; a batch's guess comes before it, its Brier pass after
        batches, pending = [], {}
        for kind, got in calls:
            if kind == "brier":
                batches[-1]["brier"] = got
            else:
                pending[kind] = got
            if kind == "mixup":
                batches.append(pending)
                pending = {}
        assert not pending

        # the unlabeled order is the epoch's first mix draw; an epoch sweeps
        # its first min(pool, n) rows once, in order, spread over the batches
        u_order = epoch_rng(config.seed, "mix", epoch).permutation(n_unlabeled)
        m = min(n_unlabeled, n)
        starts = range(0, n, batch_size)
        assert len(batches) == len(starts)
        swept = []
        for start, batch in zip(starts, batches):
            stop = min(start + batch_size, n)
            b = stop - start
            take = u_order[start * m // n:stop * m // n].tolist()
            d = len(take)
            p1 = batch["mixup"]
            # the mixup pool holds each of the batch's pool rows once
            assert len(p1) == b + d
            if d == 0:
                # an empty share makes no guess and no Brier pass
                assert set(batch) == {"mixup"}
                continue
            u, q = batch["guess"]
            rows = [int(np.flatnonzero((xu == row).all(axis=1))[0]) for row in u]
            assert rows == take
            assert batch["brier"] == d
            # each row carries its own guess into the mixup pool
            for i in range(d):
                assert p1[b + i].tobytes() == q[i].tobytes()
            swept += rows
        assert swept == u_order[:m].tolist()
        if n_unlabeled < n:
            assert sorted(swept) == list(range(n_unlabeled))
        if n_unlabeled == 1:
            # the one row rides with the last labeled row; the other batches skip
            assert ["guess" in batch for batch in batches] == [False, False, False, True]

    @pytest.mark.parametrize("n_unlabeled", [1, 9, 30])
    def test_unlabeled_loss_is_the_mean_over_the_rows_that_carried_it(
            self, monkeypatch, n_unlabeled):
        xl, yl, xu = toy_views(seed=8, n_labeled=26, n_unlabeled=n_unlabeled)
        config = TrainConfig(base_lr=0.05, total_epochs=2, batch_size=8, seed=4)
        carried = []  # (Brier loss, rows) per batch that ran the pass
        real_brier = mixmatch.brier_grads

        def spy_brier(net, batch, targets):
            out = real_brier(net, batch, targets)
            carried.append((out[0], len(batch)))
            return out

        monkeypatch.setattr(mixmatch, "brier_grads", spy_brier)
        _, loss_u = semi_train_epoch(init_network([4, 6, 2], seed=1), (xl, yl), xu,
                                     SemiConfig(lambda_u=1.0, aug_sigma=0.1), config, 1)
        rows = sum(d for _, d in carried)
        assert rows == min(n_unlabeled, len(xl))
        assert loss_u == sum(loss * d for loss, d in carried) / rows
        if n_unlabeled == 1:
            # one batch carried the row, so the epoch's loss is that batch's
            assert len(carried) == 1 and loss_u == carried[0][0]

    def test_a_pool_as_large_as_the_labeled_set_keeps_its_bits(self):
        # digest of the parameters and every epoch's losses under the rule
        # that paired the batch at shuffle positions [start, stop) with the
        # pool rows at the same positions, per OpenBLAS kernel (as
        # GOLDEN_REPORTS in test_tools.py); lambda_u = 0.1 at batch_size 3
        # pins the weight's evaluation order, since 0.1 * 3 / 3 != 0.1
        kernel = load_tool("output_digests").blas_kernel()
        assert kernel in LARGE_POOL_DIGESTS, f"no digest recorded for OpenBLAS kernel {kernel!r}"
        rng = np.random.default_rng(12)
        xl = rng.standard_normal((12, 4))
        xl[:, 0] += np.where(np.arange(12) % 2 == 0, 3.0, -3.0)
        yl = np.arange(12) % 2
        xu = rng.standard_normal((15, 4))
        net = init_network([4, 8, 2], seed=5)
        config = TrainConfig(base_lr=0.05, total_epochs=3, batch_size=3, seed=8)
        semi = SemiConfig(lambda_u=0.1, aug_sigma=0.1)
        with one_blas_thread():
            losses = [semi_train_epoch(net, (xl, yl), xu, semi, config, e) for e in range(3)]
        digest = hashlib.sha256()
        for array in net.weights + net.biases:
            digest.update(array.tobytes())
        digest.update(repr(losses).encode())
        assert digest.hexdigest() == LARGE_POOL_DIGESTS[kernel]


def _two_mixup_epoch(net, confident_view, xu, semi, config, epoch):
    """The semi epoch with one mixup for the labeled batch and one for the
    unlabeled batch, each against its own slice of the shuffled pool."""
    xl, yl = confident_view
    lr = cosine_lr(epoch, config.total_epochs, config.base_lr)
    lam_u = semi.lambda_u * lambda_ramp(epoch, config.total_epochs)
    use_unlabeled = xu.shape[0] > 0 and lam_u > 0.0
    sigma = semi.aug_sigma
    n = xl.shape[0]
    perm = epoch_rng(config.seed, "shuffle", epoch).permutation(n)
    rng = epoch_rng(config.seed, "mix", epoch)
    if use_unlabeled:
        u_order = rng.permutation(xu.shape[0])
        m = min(xu.shape[0], n)
        # pool row j of the sweep rides with labeled position ceil((j+1) n/m) - 1,
        # so the m rows spread evenly and the last rides with the last row
        rider = -(-np.arange(1, m + 1) * n // m) - 1
    labeled_total = unlabeled_total = 0.0
    unlabeled_count = 0
    for start in range(0, n, config.batch_size):
        idx = perm[start:start + config.batch_size]
        xb = augment(xl[idx], sigma, rng)
        pb = one_hot(yl[idx], net.num_classes)
        take = []
        if use_unlabeled:
            take = u_order[:m][(rider >= start) & (rider < start + len(idx))]
        if len(take):
            qb = guess_labels(net, xu[take], semi.k_aug, semi.temperature, sigma, rng)
            ub = augment(xu[take], sigma, rng)
            pool_x = np.concatenate([xb, ub])
            pool_p = np.concatenate([pb, qb])
        else:
            pool_x, pool_p = xb, pb
        pool_order = rng.permutation(pool_x.shape[0])
        lab = pool_order[:len(idx)]
        mixed_x, mixed_p = mixup(xb, pb, pool_x[lab], pool_p[lab], semi.mix_alpha, rng)
        loss_l, grads_w, grads_b = cross_entropy_grads(net, mixed_x, mixed_p)
        labeled_total += loss_l * len(idx)
        if len(take):
            unl = pool_order[len(idx):]
            umix_x, umix_p = mixup(ub, qb, pool_x[unl], pool_p[unl], semi.mix_alpha, rng)
            loss_u, ugrads_w, ugrads_b = brier_grads(net, umix_x, umix_p)
            unlabeled_total += loss_u * len(take)
            unlabeled_count += len(take)
            weight = lam_u * (len(take) / len(idx))
            grads_w = [g + weight * ug for g, ug in zip(grads_w, ugrads_w)]
            grads_b = [g + weight * ug for g, ug in zip(grads_b, ugrads_b)]
        net.sgd_step(grads_w, grads_b, lr, config.weight_decay)
    return labeled_total / n, unlabeled_total / unlabeled_count if unlabeled_count else 0.0


class TestSemiEpochReplay:
    """semi_train_epoch mixes the pool in one call; the two-call loop above
    must give the same losses and parameters, bit for bit."""

    @pytest.mark.parametrize("dim,n_labeled,n_unlabeled,batch_size,lambda_u", [
        (4, 26, 10, 5, 1.0),    # last labeled batch has one row
        (5, 26, 10, 1, 2.0),    # every batch has one row
        (4, 24, 0, 8, 1.0),     # empty pool
        (3, 26, 1, 5, 1.0),     # one-row pool
        (4, 26, 5, 5, 1.0),     # pool as large as a batch
        (16, 40, 7, 16, 1.0),
        (4, 26, 10, 5, 0.0),    # lambda_u = 0
        (4, 12, 15, 5, 1.0),    # pool larger than the labeled set
    ])
    def test_matches_two_mixup_loop(self, dim, n_labeled, n_unlabeled, batch_size, lambda_u):
        rng = np.random.default_rng(dim * 100 + n_unlabeled)
        xl = rng.standard_normal((n_labeled, dim))
        xl[:, 0] += np.where(np.arange(n_labeled) % 2 == 0, 3.0, -3.0)
        yl = np.arange(n_labeled) % 2
        xu = rng.standard_normal((n_unlabeled, dim))
        config = TrainConfig(base_lr=0.05, total_epochs=4, batch_size=batch_size, seed=7)
        semi = SemiConfig(k_aug=2, temperature=0.5, mix_alpha=0.75,
                          lambda_u=lambda_u, aug_sigma=0.1)
        net = init_network([dim, 6, 5, 2], seed=dim)
        ref = copy.deepcopy(net)
        for epoch in range(4):
            got = semi_train_epoch(net, (xl, yl), xu, semi, config, epoch)
            want = _two_mixup_epoch(ref, (xl, yl), xu, semi, config, epoch)
            assert got == want
            assert [a.tobytes() for a in net.weights + net.biases] == \
                [b.tobytes() for b in ref.weights + ref.biases]
