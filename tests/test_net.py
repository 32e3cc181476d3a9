"""Network forward/backward math and training determinism."""

import copy
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import one_blas_thread, params_equal
from protosemi.cli import parse_config_file
from protosemi.data import generate_blobs, inject_factual_noise, split_heldout
from protosemi.errors import FormatError, ParameterError
from protosemi.mixmatch import SemiConfig
from protosemi.net import (
    FORWARD_BLOCK_ROWS,
    Network,
    TrainConfig,
    cosine_lr,
    cross_entropy_grads,
    init_network,
    one_hot,
    require_int,
    softmax,
    train_epoch,
)

REPO = Path(__file__).resolve().parent.parent

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
        assert params_equal(a, b)
        assert not params_equal(a, init_network([2, 4, 3], seed=6))
        # nets whose shapes differ are never equal
        assert not params_equal(a, init_network([2, 5, 3], seed=5))
        assert not params_equal(a, init_network([2, 4, 4, 3], seed=5))

    def test_no_hidden_layer_rejected(self):
        with pytest.raises(ParameterError):
            init_network([2, 3], seed=0)

    @pytest.mark.parametrize("size", [2.7, True, "5", 0])
    def test_a_layer_size_that_is_not_a_positive_integer_is_rejected(self, size):
        # not truncated to 2, 1 or 5
        with pytest.raises(ParameterError) as info:
            init_network([4, size, 3], seed=0)
        assert str(info.value) == f"layer dimension must be an integer >= 1, got {size!r}"

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
        net = Network([np.zeros((3, 4)), np.zeros((4, 5))], [np.zeros(4), np.zeros(5)])
        # the dims are read from the weight shapes
        assert (net.input_dim, net.embed_dim, net.num_classes) == (3, 4, 5)
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

    @pytest.mark.parametrize("rows", [
        0, 1, 2, FORWARD_BLOCK_ROWS - 1, FORWARD_BLOCK_ROWS, FORWARD_BLOCK_ROWS + 1,
        2 * FORWARD_BLOCK_ROWS - 1, 2 * FORWARD_BLOCK_ROWS + 1, 3 * FORWARD_BLOCK_ROWS + 7,
        10000,
    ])
    def test_row_blocks_keep_the_bits_of_one_pass(self, rows, monkeypatch):
        # a 1-row block would take numpy's gemv path, which rounds unlike
        # the gemm of one pass; FORWARD_BLOCK_ROWS + 1 and
        # 2 * FORWARD_BLOCK_ROWS + 1 rows would leave one in fixed-size blocks.
        # OpenBLAS's Haswell kernel rounds the last row of an odd-row product
        # apart from that row inside an even-row product, so only the last
        # block may be odd, and 2 * FORWARD_BLOCK_ROWS - 1 rows would leave a
        # block of FORWARD_BLOCK_ROWS + 1 under a floor cut.  The bits hold at
        # one BLAS thread: at more, OpenBLAS may split the one-pass product.
        net = init_network([16, 32, 16, 4], seed=5)
        x = np.random.default_rng(rows).standard_normal((rows, 16))
        blocks = []
        real_activations = Network.activations

        def spy_activations(self, batch):
            blocks.append(len(batch))
            return real_activations(self, batch)

        with one_blas_thread():
            acts, logits = net.activations(x)
            monkeypatch.setattr(Network, "activations", spy_activations)
            for got, want in ((net.forward(x), logits), (net.embed(x), acts[-1])):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # forward, then embed: each one block per FORWARD_BLOCK_ROWS rows begun
        calls = max(1, math.ceil(rows / FORWARD_BLOCK_ROWS))
        assert len(blocks) == 2 * calls and sum(blocks) == 2 * rows
        assert max(blocks) <= FORWARD_BLOCK_ROWS
        assert rows <= 1 or min(blocks) > 1
        assert all(b % 2 == 0 for b in blocks[:calls - 1] + blocks[calls:-1])

    @pytest.mark.parametrize("method", ["forward", "embed"])
    def test_a_stack_is_a_parameter_error(self, method):
        net = init_network([16, 32, 16, 4], seed=5)
        with pytest.raises(ParameterError, match=r"\(B, D\) batch, got shape \(2, 3, 16\)"):
            getattr(net, method)(np.zeros((2, 3, 16)))

    def test_stack_and_single_vector_pass_whole(self):
        # guess_labels passes its (k, B, D) stack of copies to activations,
        # which gives each copy the bits of its own pass
        net = init_network([16, 32, 16, 4], seed=5)
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((2, FORWARD_BLOCK_ROWS + 1, 16))
        logits = net.activations(stack)[1]
        assert logits.shape == (2, FORWARD_BLOCK_ROWS + 1, 4)
        assert np.array_equal(logits, np.stack([net.activations(c)[1] for c in stack]))
        x = rng.standard_normal(16)
        assert np.array_equal(net.embed(x), net.activations(x[None, :])[0][-1][0])

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
    net = Network([np.zeros((1, 1)), np.zeros((1, k))],
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
        assert cosine_lr(5, 10, 0.02) == pytest.approx(0.01, abs=1e-15)

    def test_monotone_decreasing(self):
        values = [cosine_lr(e, 40, 0.5) for e in range(40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_range_checks(self):
        with pytest.raises(ParameterError):
            cosine_lr(11, 10, 0.1)
        with pytest.raises(ParameterError):
            cosine_lr(0, 0, 0.1)
        # the range is [0, total): epoch == total trains nothing
        with pytest.raises(ParameterError, match=r"epoch 10 outside \[0, 10\)"):
            cosine_lr(10, 10, 0.1)
        with pytest.raises(ParameterError):
            cosine_lr(-1, 10, 0.1)


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
        assert params_equal(net, before)
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
        assert params_equal(net_a, net_b)

    def test_empty_view_rejected(self):
        net = init_network([4, 5, 2], seed=0)
        config = TrainConfig(base_lr=0.1, total_epochs=1, batch_size=4, seed=0)
        with pytest.raises(ParameterError):
            train_epoch(net, np.empty((0, 4)), np.empty(0, dtype=int), config, 0)

    # labels one_hot would misread: one per row is required, and each an
    # integer class index (one_hot maps -1 to the last class and 1.7 to 1)
    @pytest.mark.parametrize("bad", [
        lambda y: np.concatenate([y, y[:2]]),
        lambda y: y[:5],
        lambda y: np.where(np.arange(y.size) == 0, -1, y),
        lambda y: y + 0.7,
        lambda y: np.where(np.arange(y.size) == 0, 2, y),
    ], ids=["more_than_rows", "fewer_than_rows", "negative", "fractional", "num_classes"])
    def test_labels_it_cannot_train_on_are_rejected(self, bad):
        features, labels = self._toy()
        net = init_network([4, 5, 2], seed=0)
        before = copy.deepcopy(net)
        config = TrainConfig(base_lr=0.1, total_epochs=1, batch_size=8, seed=0)
        message = r"training labels must be one integer in \[0, 2\)"
        with pytest.raises(ParameterError, match=message):
            train_epoch(net, features, bad(labels), config, 0)
        assert params_equal(net, before)

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
        # integer knobs take integer types only; numpy seeds only from n >= 0
        dict(batch_size=4.0), dict(total_epochs=2.0), dict(seed=1.5),
        dict(batch_size=True), dict(seed=-1),
        # float knobs take numbers only
        dict(base_lr="0.1"), dict(weight_decay=None),
    ])
    def test_invalid_values(self, bad):
        kwargs = dict(base_lr=0.1, total_epochs=2, batch_size=4, weight_decay=0.0, seed=0)
        kwargs.update(bad)
        with pytest.raises(ParameterError):
            TrainConfig(**kwargs)

    def test_numpy_integers_are_stored_as_int(self):
        config = TrainConfig(base_lr=0.1, total_epochs=np.int64(2), batch_size=np.int32(4),
                             seed=np.uint8(3))
        assert (config.total_epochs, config.batch_size, config.seed) == (2, 4, 3)
        assert all(type(v) is int for v in (config.total_epochs, config.batch_size, config.seed))


def _config_line_1(key):
    """A check that parses the benchmark config with ``key`` set on line 1 to a value's repr."""
    def parse(value, tmp_path):
        rest = [line for line in (REPO / "configs" / "benchmark.cfg").read_text().splitlines()
                if not line.startswith(f"{key}=")]
        (tmp_path / "run.cfg").write_text("\n".join([f"{key}={value!r}", *rest]) + "\n")
        parse_config_file(tmp_path / "run.cfg")
    return parse


_CLEAN = generate_blobs(2, 5, 3, 4.0, 1.0, seed=0)

# every call site of require_real: (check of a value, low, high, bounds), by parameter
REAL_SITES = {
    "separation": (lambda v, _: generate_blobs(2, 3, 2, v, 1.0, 0), 0, math.inf, "()"),
    "spread": (lambda v, _: generate_blobs(2, 3, 2, 1.0, v, 0), 0, math.inf, "()"),
    "rate": (lambda v, _: inject_factual_noise(_CLEAN, v, 0), 0, 1, "[]"),
    "fraction": (lambda v, _: split_heldout(_CLEAN, v, 0), 0, 1, "()"),
    "base_lr": (lambda v, _: TrainConfig(v, 1, 1), 0, math.inf, "[)"),
    "weight_decay": (lambda v, _: TrainConfig(0.1, 1, 1, weight_decay=v), 0, math.inf, "[)"),
    "temperature": (lambda v, _: SemiConfig(temperature=v), 0, math.inf, "()"),
    "mix_alpha": (lambda v, _: SemiConfig(mix_alpha=v), 0, math.inf, "()"),
    "lambda_u": (lambda v, _: SemiConfig(lambda_u=v), 0, math.inf, "[)"),
    "aug_sigma": (lambda v, _: SemiConfig(aug_sigma=v), 0, math.inf, "[)"),
    "eval_split": (_config_line_1("eval_split"), 0, 1, "()"),
    "noise_rate": (_config_line_1("noise_rate"), 0, 1, "[]"),
}


def _just_past(low, high, bounds) -> list:
    """The nearest values outside each finite end of the interval."""
    past = [low if bounds[0] == "(" else math.nextafter(low, -math.inf)]
    if high < math.inf:
        past.append(high if bounds[1] == ")" else math.nextafter(high, math.inf))
    return past


@pytest.mark.parametrize("name, value", [
    (name, value) for name, (_, *interval) in REAL_SITES.items()
    for value in [math.nan, math.inf, -math.inf, True, "0.5", *_just_past(*interval)]
] + [
    # an int past the float range has no finite float, whatever its sign
    pytest.param(name, sign * 10**400, id=f"{name}-{'-' if sign < 0 else ''}10**400")
    for name in REAL_SITES for sign in (1, -1)
] + [
    # too long for str(), so a message gives its size; a config key reads text, not an int
    pytest.param(name, sign * 10**5000, id=f"{name}-{'-' if sign < 0 else ''}10**5000")
    for name in REAL_SITES if name not in ("eval_split", "noise_rate") for sign in (1, -1)
])
def test_every_real_parameter_rejects_what_lies_outside_its_interval(tmp_path, name, value):
    check, low, high, bounds = REAL_SITES[name]
    with pytest.raises((ParameterError, FormatError)) as info:
        check(value, tmp_path)
    message = str(info.value)
    if isinstance(info.value, FormatError):  # a config key: the error names its line
        assert message.startswith(f"{tmp_path / 'run.cfg'} line 1: ")
    assert re.search(rf"\b{name}\b", message)
    if not isinstance(value, (bool, str)):  # a config reads a bool or a quoted string as text
        assert f"{name} must be finite and lie in {bounds[0]}{low}, {high}{bounds[1]}, got " \
            in message
    assert len(message) < 200


@pytest.mark.parametrize("value, shown", [
    (-1, "-1"), (1 - 2**64, "-18446744073709551615"), (-2**64, "a negative integer of 65 bits"),
    (-10**5000, "a negative integer of 16610 bits"),
], ids=["-1", "1-2**64", "-2**64", "-10**5000"])
def test_require_int_shows_a_long_integer_by_its_size(value, shown):
    with pytest.raises(ParameterError) as info:
        require_int("x", value, 0)
    assert str(info.value) == f"x must be an integer >= 0, got {shown}"


@pytest.mark.parametrize("name, value", [
    (name, float(end)) for name, (_, low, high, bounds) in REAL_SITES.items()
    for end, closed in ((low, bounds[0] == "["), (high, bounds[1] == "]")) if closed
])
def test_every_closed_end_is_accepted(tmp_path, name, value):
    check, *_ = REAL_SITES[name]
    check(value, tmp_path)


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
