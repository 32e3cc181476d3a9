"""Dataset generation, noise injection, and serialization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import bad_v2_files, same_arrays, write_v1_dataset
from protosemi import data
from protosemi.data import (
    NoisyDataset,
    class_margin,
    csv_line,
    generate_blobs,
    inject_ambiguity_noise,
    inject_factual_noise,
    load_dataset,
    read_lines,
    round_half_away,
    save_dataset,
    split_heldout,
)
from protosemi.errors import FormatError, ParameterError
from protosemi.net import init_network


def test_round_half_away_known_values():
    assert round_half_away(2.5) == 3
    assert round_half_away(-2.5) == -3
    assert round_half_away(0.49999) == 0
    assert round_half_away(300.0) == 300


def test_csv_line_renders_floats_as_repr_and_the_rest_as_str():
    values = [-0.0, float("nan"), 5e-324, np.float64(0.1), np.int64(7), "n/a", ""]
    assert csv_line(values) == "-0.0,nan,5e-324,0.1,7,n/a,"


@given(st.integers(min_value=-10_000, max_value=10_000))
def test_round_half_away_integers_fixed(k):
    assert round_half_away(float(k)) == k
    assert round_half_away(k + 0.5) == k + 1 if k >= 0 else round_half_away(k - 0.5) == k - 1


class TestGenerateBlobs:
    def test_minimal_two_singletons(self):
        ds = generate_blobs(2, 1, 2, 4.0, 1.0, seed=7)
        assert ds.n == 2
        assert sorted(ds.true_labels.tolist()) == [0, 1]
        assert np.array_equal(ds.working_labels, ds.true_labels)

    def test_seed_determinism(self):
        a = generate_blobs(3, 10, 5, 4.0, 1.0, seed=7)
        b = generate_blobs(3, 10, 5, 4.0, 1.0, seed=7)
        assert same_arrays(a, b)
        assert not same_arrays(generate_blobs(3, 10, 5, 4.0, 1.0, seed=8), a)

    def test_center_separation_is_respected(self):
        ds = generate_blobs(5, 30, 8, 6.0, 0.5, seed=2)
        centroids = np.stack([ds.features[ds.true_labels == c].mean(axis=0) for c in range(5)])
        for i in range(5):
            for j in range(i + 1, 5):
                # empirical centroids sit near the true centers, which are >= 6 apart
                assert np.linalg.norm(centroids[i] - centroids[j]) > 5.0

    def test_nearest_center_classifier_on_benchmark_blobs(self):
        # brute-force 1-NN against the per-class true centroids
        ds = generate_blobs(4, 500, 16, 6.0, 1.0, seed=1)
        centroids = np.stack([ds.features[ds.true_labels == c].mean(axis=0) for c in range(4)])
        dists = np.linalg.norm(ds.features[:, None, :] - centroids[None, :, :], axis=2)
        preds = np.argmin(dists, axis=1)
        assert np.mean(preds == ds.true_labels) >= 0.99

    @pytest.mark.parametrize("bad", [
        dict(num_classes=1), dict(per_class=0), dict(dim=1),
        dict(separation=0.0), dict(spread=0.0), dict(separation=-1.0),
        dict(separation=float("inf")), dict(spread=float("inf")), dict(spread=float("nan")),
        # sizes are integers and scales reals; a bool is neither
        dict(per_class=2.5), dict(num_classes=3.0), dict(dim=True),
        dict(separation="4.0"), dict(spread=True),
    ])
    def test_invalid_sizes_rejected(self, bad):
        kwargs = dict(num_classes=3, per_class=5, dim=4, separation=4.0, spread=1.0, seed=0)
        kwargs.update(bad)
        with pytest.raises(ParameterError):
            generate_blobs(**kwargs)


class TestFactualNoise:
    def test_rate_zero_is_identity(self):
        ds = generate_blobs(3, 20, 4, 5.0, 1.0, seed=0)
        assert same_arrays(inject_factual_noise(ds, 0.0, seed=9), ds)

    def test_rate_one_flips_everything(self):
        ds = generate_blobs(3, 20, 4, 5.0, 1.0, seed=0)
        noisy = inject_factual_noise(ds, 1.0, seed=9)
        assert np.all(noisy.working_labels != noisy.true_labels)

    def test_exact_flip_count_1000_samples(self):
        ds = generate_blobs(4, 250, 6, 5.0, 1.0, seed=3)
        noisy = inject_factual_noise(ds, 0.3, seed=3)
        assert int(np.sum(noisy.working_labels != noisy.true_labels)) == 300
        assert noisy.noise_rate() == pytest.approx(0.3)

    def test_only_working_labels_change(self):
        ds = generate_blobs(3, 30, 4, 5.0, 1.0, seed=5)
        noisy = inject_factual_noise(ds, 0.4, seed=6)
        assert np.array_equal(noisy.features, ds.features)
        assert np.array_equal(noisy.true_labels, ds.true_labels)
        assert not np.array_equal(noisy.working_labels, ds.working_labels)

    def test_flipped_labels_stay_in_range(self):
        ds = generate_blobs(5, 40, 4, 5.0, 1.0, seed=1)
        noisy = inject_factual_noise(ds, 0.8, seed=2)
        assert noisy.working_labels.min() >= 0
        assert noisy.working_labels.max() < 5

    def test_rate_out_of_range(self):
        ds = generate_blobs(2, 5, 3, 4.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            inject_factual_noise(ds, 1.2, seed=0)
        with pytest.raises(ParameterError):
            inject_factual_noise(ds, -0.1, seed=0)
        for rate in (True, "0.5", None):  # True would flip every label
            with pytest.raises(ParameterError, match="rate must be finite and lie in"):
                inject_factual_noise(ds, rate, seed=0)

    def test_requires_clean_input(self):
        ds = generate_blobs(2, 5, 3, 4.0, 1.0, seed=0)
        noisy = inject_factual_noise(ds, 0.5, seed=0)
        with pytest.raises(ParameterError):
            inject_factual_noise(noisy, 0.1, seed=0)

    def test_determinism(self):
        ds = generate_blobs(3, 30, 4, 5.0, 1.0, seed=5)
        assert same_arrays(inject_factual_noise(ds, 0.3, seed=11),
                           inject_factual_noise(ds, 0.3, seed=11))

    @pytest.mark.parametrize("k", [2, 3, 4, 10])
    def test_matches_sequential_replay_oracle(self, k):
        ds = generate_blobs(k, 12, 3, 5.0, 1.0, seed=k)
        noisy = inject_factual_noise(ds, 0.4, seed=21)
        # one scalar draw per flipped sample, in ascending index order
        rng = np.random.default_rng(21)
        chosen = np.sort(rng.choice(ds.n, size=round_half_away(0.4 * ds.n), replace=False))
        expected = ds.true_labels.copy()
        for i in chosen:
            offset = int(rng.integers(k - 1))
            expected[i] = offset if offset < expected[i] else offset + 1
        assert np.array_equal(noisy.working_labels, expected)

    @given(rate=st.floats(min_value=0.0, max_value=1.0), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_flip_count_always_exact(self, rate, seed):
        ds = generate_blobs(3, 13, 3, 5.0, 1.0, seed=1)  # n = 39
        noisy = inject_factual_noise(ds, rate, seed)
        assert int(np.sum(noisy.working_labels != noisy.true_labels)) == round_half_away(rate * 39)


class TestAmbiguityNoise:
    def test_rate_zero_is_identity(self):
        ds = generate_blobs(3, 20, 4, 5.0, 1.0, seed=0)
        assert same_arrays(inject_ambiguity_noise(ds, 0.0, seed=9), ds)

    def test_two_singletons_flip_exactly_one(self):
        ds = generate_blobs(2, 1, 2, 6.0, 1.0, seed=7)
        noisy = inject_ambiguity_noise(ds, 0.5, seed=0)
        assert int(np.sum(noisy.working_labels != noisy.true_labels)) == 1

    def test_flips_concentrate_near_boundary(self):
        # brute-force point-to-bisector distances between the own and
        # nearest-other centroid, for flipped vs untouched samples
        ds = generate_blobs(4, 100, 8, 6.0, 1.5, seed=4)
        noisy = inject_ambiguity_noise(ds, 0.2, seed=4)
        k = ds.num_classes
        centroids = np.stack([ds.features[ds.true_labels == c].mean(axis=0) for c in range(k)])
        boundary = np.empty(ds.n)
        for i in range(ds.n):
            own = centroids[ds.true_labels[i]]
            d = [np.linalg.norm(ds.features[i] - centroids[c])
                 for c in range(k) if c != ds.true_labels[i]]
            other = centroids[[c for c in range(k) if c != ds.true_labels[i]][int(np.argmin(d))]]
            da = np.linalg.norm(ds.features[i] - own)
            db = np.linalg.norm(ds.features[i] - other)
            boundary[i] = abs(da ** 2 - db ** 2) / (2.0 * np.linalg.norm(own - other))
        flipped = noisy.working_labels != noisy.true_labels
        assert flipped.sum() == 80
        assert boundary[flipped].mean() < boundary[~flipped].mean()

    def test_flip_targets_are_nearest_other_class(self):
        ds = generate_blobs(3, 50, 5, 6.0, 1.0, seed=8)
        noisy = inject_ambiguity_noise(ds, 0.3, seed=8)
        k = ds.num_classes
        centroids = np.stack([ds.features[ds.true_labels == c].mean(axis=0) for c in range(k)])
        for i in np.flatnonzero(noisy.working_labels != noisy.true_labels):
            d = np.linalg.norm(ds.features[i] - centroids, axis=1)
            d[ds.true_labels[i]] = np.inf
            assert noisy.working_labels[i] == int(np.argmin(d))

    @pytest.mark.parametrize("rate", [0.25, 0.5, 0.75, 1.0])
    def test_flips_the_lowest_class_margins_to_their_nearest_other_class(self, rate):
        # class 0 at x = -3 and -1 (centroid -2), class 1 at 1 and 3 (centroid 2):
        # margins 4, 2, 2, 4, so rows 1 and 2 tie and the lower index goes first
        features = np.array([[-3.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        ds = NoisyDataset(features, labels, labels, 2)
        margin, nearest_other = class_margin(ds)
        assert margin.tolist() == [4.0, 2.0, 2.0, 4.0]
        assert nearest_other.tolist() == [1, 1, 0, 0]
        flipped = [1, 2, 0, 3][:round_half_away(rate * 4)]
        want = labels.copy()
        want[flipped] = nearest_other[flipped]
        assert inject_ambiguity_noise(ds, rate, seed=0).working_labels.tolist() == want.tolist()

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    def test_flips_what_class_margin_ranks_lowest(self, rate):
        ds = generate_blobs(4, 40, 5, 4.0, 1.5, seed=3)
        margin, nearest_other = class_margin(ds)
        lowest = sorted(range(ds.n), key=lambda i: (margin[i], i))[:round_half_away(rate * ds.n)]
        noisy = inject_ambiguity_noise(ds, rate, seed=3)
        assert np.flatnonzero(noisy.working_labels != noisy.true_labels).tolist() == sorted(lowest)
        assert np.array_equal(noisy.working_labels[lowest], nearest_other[lowest])
        # the margin from one brute-force loop over samples and centroids
        centroids = [ds.features[ds.true_labels == c].mean(axis=0) for c in range(4)]
        for i in range(ds.n):
            d = [np.linalg.norm(ds.features[i] - c) for c in centroids]
            others = [d[c] if c != ds.true_labels[i] else np.inf for c in range(4)]
            assert nearest_other[i] == int(np.argmin(others))
            assert margin[i] == pytest.approx(min(others) - d[ds.true_labels[i]], abs=1e-12)

    def test_only_working_labels_change(self):
        ds = generate_blobs(3, 30, 4, 5.0, 1.0, seed=5)
        noisy = inject_ambiguity_noise(ds, 0.4, seed=6)
        assert np.array_equal(noisy.features, ds.features)
        assert np.array_equal(noisy.true_labels, ds.true_labels)

    def test_rate_out_of_range(self):
        ds = generate_blobs(2, 5, 3, 4.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            inject_ambiguity_noise(ds, 1.0001, seed=0)
        with pytest.raises(ParameterError, match="rate must be finite and lie in"):
            inject_ambiguity_noise(ds, True, seed=0)


class TestSplitHeldout:
    def test_sizes_and_disjointness(self):
        ds = generate_blobs(4, 500, 16, 6.0, 1.0, seed=1)
        train, held = split_heldout(ds, 0.2, seed=1)
        assert held.n == 400
        assert train.n == 1600
        # no feature row of held appears in train
        train_rows = {row.tobytes() for row in train.features}
        assert all(row.tobytes() not in train_rows for row in held.features)

    def test_stratified(self):
        ds = generate_blobs(4, 50, 4, 5.0, 1.0, seed=2)
        train, held = split_heldout(ds, 0.2, seed=2)
        assert np.bincount(held.true_labels, minlength=4).tolist() == [10, 10, 10, 10]

    def test_bad_fraction(self):
        ds = generate_blobs(2, 5, 3, 4.0, 1.0, seed=0)
        for frac in (0.0, 1.0, -0.2, "0.2"):
            with pytest.raises(ParameterError):
                split_heldout(ds, frac, seed=0)


@pytest.mark.parametrize("draw", [
    lambda seed: generate_blobs(2, 5, 3, 4.0, 1.0, seed),
    lambda seed: inject_factual_noise(generate_blobs(2, 5, 3, 4.0, 1.0, 0), 0.2, seed),
    lambda seed: inject_ambiguity_noise(generate_blobs(2, 5, 3, 4.0, 1.0, 0), 0.2, seed),
    lambda seed: split_heldout(generate_blobs(2, 5, 3, 4.0, 1.0, 0), 0.2, seed),
    lambda seed: init_network([3, 4, 2], seed),
], ids=["generate_blobs", "inject_factual_noise", "inject_ambiguity_noise", "split_heldout",
        "init_network"])
def test_negative_seed_is_parameter_error(draw):
    # a bool is not an integer seed, as in TrainConfig
    for seed in (-1, True, 1.0):
        with pytest.raises(ParameterError, match=rf"^seed must be an integer >= 0, got {seed}$"):
            draw(seed)


class TestDatasetValidation:
    def test_rejects_missing_class(self):
        with pytest.raises(ParameterError):
            NoisyDataset(np.zeros((3, 2)), np.zeros(3, dtype=int),
                         np.zeros(3, dtype=int), num_classes=2)

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0), (2,)])
    def test_rejects_features_that_are_not_a_nonempty_table(self, shape):
        with pytest.raises(ParameterError, match="^features must be a nonempty"):
            NoisyDataset(np.zeros(shape), np.array([0, 1]), np.array([0, 1]), num_classes=2)

    def test_rejects_nonfinite_features(self):
        feats = np.zeros((2, 2))
        feats[0, 0] = np.nan
        with pytest.raises(ParameterError):
            NoisyDataset(feats, np.array([0, 1]), np.array([0, 1]), num_classes=2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ParameterError):
            NoisyDataset(np.zeros((2, 2)), np.array([0, 2]), np.array([0, 1]), num_classes=2)

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [True, False]], ids=["float", "bool"])
    def test_rejects_labels_that_are_not_integers(self, labels):
        # checked before the int64 copy, which would truncate them to [0, 1] and [1, 0]
        for working, true in ((labels, [0, 1]), ([0, 1], labels)):
            with pytest.raises(ParameterError, match="labels must be one integer"):
                NoisyDataset(np.zeros((2, 2)), np.array(working), np.array(true), 2)

    def test_label_arrays_are_not_shared(self):
        y = np.array([0, 1, 1, 0])
        ds = NoisyDataset(np.zeros((4, 2)), y, y, num_classes=2)
        ds.working_labels[0] = 1  # what a label correction does
        assert ds.true_labels.tolist() == [0, 1, 1, 0]
        assert y.tolist() == [0, 1, 1, 0]


class TestSerialization:
    def test_round_trip_clean(self, tmp_path):
        ds = generate_blobs(3, 17, 7, 5.0, 1.3, seed=12)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        assert same_arrays(load_dataset(path), ds)

    def test_round_trip_noisy_bit_exact(self, tmp_path):
        ds = inject_factual_noise(generate_blobs(4, 25, 5, 5.0, 1.0, seed=3), 0.3, seed=4)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.features, ds.features)  # bit-exact floats
        assert same_arrays(back, ds)

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = generate_blobs(3, 9, 4, 5.0, 1.0, seed=2)
        save_dataset(ds, tmp_path / "a.txt")
        save_dataset(ds, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_label_out_of_range_is_format_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "protosemi-dataset v1 n=2 d=2 k=2\n"
            "0.0 0.0 0 0\n"
            "1.0 1.0 2 1\n"
        )
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_truncated_file_is_format_error(self, tmp_path):
        ds = generate_blobs(2, 4, 3, 4.0, 1.0, seed=1)
        path = tmp_path / "ds.txt"
        write_v1_dataset(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_bad_header_is_format_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("some-other-format v1 n=1 d=1 k=2\n0.0 0 0\n")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_unparsable_float_is_format_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "protosemi-dataset v1 n=1 d=2 k=2\n"
            "0.0 oops 0 0\n"
        )
        with pytest.raises(FormatError):
            load_dataset(path)


def _npy_header(descr, shape, fortran=False) -> str:
    """The header text of a .npy record, as numpy writes it, less its padding."""
    return f"{{'descr': '{descr}', 'fortran_order': {fortran}, 'shape': {shape}, }}"


_F, _L = _npy_header("<f8", (12, 2)), _npy_header("<i8", (12,))

# each file of bad_v2_files for a d=2, k=3 dataset of n=12, and the text of its FormatError
_BAD_V2 = {
    "truncated_record": "{path}: the true label record is truncated",
    "truncated_header": f"{{path}}: the working label record's header is \"{{'descr':\", "
                        f"expected {_L}",
    "trailing_byte": "{path}: 1 more byte(s) after the true label record",
    "object_dtype": f"{{path}}: the features record's header is "
                    f"{_npy_header('|O', (12, 2))!r}, expected {_F}",
    "big_endian": f"{{path}}: the features record's header is "
                  f"{_npy_header('>f8', (12, 2))!r}, expected {_F}",
    "fortran_order": f"{{path}}: the features record's header is "
                     f"{_npy_header('<f8', (12, 2), True)!r}, expected {_F}",
    "int32_labels": f"{{path}}: the working label record's header is "
                    f"{_npy_header('<i4', (12,))!r}, expected {_L}",
    "short_labels": f"{{path}}: the true label record's header is "
                    f"{_npy_header('<i8', (11,))!r}, expected {_L}",
    "wide_features": f"{{path}}: the features record's header is "
                     f"{_npy_header('<f8', (12, 3))!r}, expected {_F}",
    "npy_version_2": "{path}: the features record is not a .npy 1.0 record",
    "n_past_the_file": "{path}: the features record is truncated",
    "nonfinite_feature": "{path}: features must be finite",
    "label_out_of_range": "{path}: working labels must be one integer in [0, 3) for each of "
                          "n >= 1 rows, got int64 (12,) for n=12",
}


def _noisy_12():
    return inject_factual_noise(generate_blobs(3, 4, 2, 5.0, 1.0, seed=1), 0.3, seed=1)


def _extreme_values(ds):
    """``ds`` with features that a text round trip could get wrong: signed zeros, subnormals."""
    feats = ds.features.copy()
    feats.flat[:10] = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0, 2.0 ** 53, -2.5]
    return NoisyDataset(feats, ds.working_labels, ds.true_labels, ds.num_classes)


class TestFormatV2:
    def test_round_trip_keeps_every_bit(self, tmp_path):
        ds = _extreme_values(_noisy_12())
        save_dataset(ds, tmp_path / "ds.ds")
        back = load_dataset(tmp_path / "ds.ds")
        assert back.features.dtype == np.float64 and back.features.shape == (12, 2)
        assert back.features.tobytes() == ds.features.tobytes()  # -0.0 and 5e-324 too
        assert np.signbit(back.features.flat[0]) and back.features.flat[2] == 5e-324
        assert same_arrays(back, ds)

    def test_file_is_a_header_line_and_three_npy_records(self, tmp_path):
        ds = _noisy_12()
        save_dataset(ds, tmp_path / "ds.ds")
        with open(tmp_path / "ds.ds", "rb") as fh:
            assert fh.readline() == b"protosemi-dataset v2 n=12 d=2 k=3\n"
            for want in (ds.features, ds.working_labels, ds.true_labels):
                assert np.lib.format.read_magic(fh) == (1, 0)
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
                assert (shape, fortran, dtype.str) == (want.shape, False, want.dtype.str)
                assert np.fromfile(fh, dtype, want.size).tobytes() == want.tobytes()
            assert fh.read() == b""

    def test_v1_and_v2_files_load_to_identical_arrays(self, tmp_path):
        ds = _extreme_values(_noisy_12())
        write_v1_dataset(ds, tmp_path / "v1.ds")
        save_dataset(ds, tmp_path / "v2.ds")
        assert _load_outcome(tmp_path / "v1.ds") == _load_outcome(tmp_path / "v2.ds")

    @pytest.mark.parametrize("name", _BAD_V2)
    def test_bad_file_is_format_error_naming_it(self, tmp_path, name):
        path = tmp_path / "bad.ds"
        path.write_bytes(bad_v2_files(_noisy_12())[name])
        with pytest.raises(FormatError) as info:
            load_dataset(path)
        assert str(info.value) == _BAD_V2[name].replace("{path}", str(path))

    def test_object_record_is_never_unpickled(self, tmp_path):
        path = tmp_path / "bad.ds"
        path.write_bytes(bad_v2_files(_noisy_12())["object_dtype"])
        with pytest.raises(FormatError):
            load_dataset(path)
        assert helpers.UNPICKLED == []
        with open(path, "rb") as fh:  # the witness: a reader that unpickles runs it
            fh.readline()
            np.lib.format.read_array(fh, allow_pickle=True)
        assert helpers.UNPICKLED == ["unpickled"]  # the one object, pickled once
        helpers.UNPICKLED.clear()


_SIZES = "header sizes out of range"
# first lines of a 12-row, d=2, k=3 file of version {v}, and the error each gives;
# "bad" is ``bad header <the line's repr>``
_BAD_FIRST_LINES = {
    "n_zero": ("protosemi-dataset {v} n=0 d=2 k=3", f"{_SIZES} (n=0 d=2 k=3)"),
    "d_zero": ("protosemi-dataset {v} n=12 d=0 k=3", f"{_SIZES} (n=12 d=0 k=3)"),
    "k_one": ("protosemi-dataset {v} n=12 d=2 k=1", f"{_SIZES} (n=12 d=2 k=1)"),
    "other_version": ("protosemi-dataset v3 n=12 d=2 k=3", "bad"),
    "misspelled": ("protosemi-datasat {v} n=12 d=2 k=3", "bad"),
    "leading_zero": ("protosemi-dataset {v} n=012 d=2 k=3", "bad"),
    "plus_sign": ("protosemi-dataset {v} n=+12 d=2 k=3", "bad"),
    "underscore": ("protosemi-dataset {v} n=1_2 d=2 k=3", "bad"),
    "out_of_order": ("protosemi-dataset {v} d=2 n=12 k=3", "bad"),
    "tab": ("protosemi-dataset {v}\tn=12 d=2 k=3", "bad"),
    "doubled_space": ("protosemi-dataset {v}  n=12 d=2 k=3", "bad"),
    "trailing_space": ("protosemi-dataset {v} n=12 d=2 k=3 ", "bad"),
    "control_byte": ("protosemi-dataset {v} n=12 d=2 k=3\x0b", "bad"),
    "non_ascii": ("protosemi-dataset {v} n=12 d=2 k=\xb3", "bad"),
    "blank": ("", "bad"),
}


class TestHeader:
    @pytest.mark.parametrize("version", ["v1", "v2"])
    @pytest.mark.parametrize("name", _BAD_FIRST_LINES)
    def test_a_first_line_not_spelled_as_written_is_format_error(self, tmp_path, version, name):
        path = tmp_path / "bad.ds"
        (write_v1_dataset if version == "v1" else save_dataset)(_noisy_12(), path)
        line, error = _BAD_FIRST_LINES[name]
        line = line.format(v=version)
        body = path.read_bytes().partition(b"\n")[2]
        path.write_bytes(line.encode("latin-1") + b"\n" + body)
        with pytest.raises(FormatError) as info:
            load_dataset(path)
        error = f"bad header {line!r}" if error == "bad" else error
        assert str(info.value) == f"{path} line 1: {error}"

    def test_zero_byte_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.ds"
        path.write_bytes(b"")
        with pytest.raises(FormatError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: empty file"

    @given(st.sampled_from(["v1", "v2"]), st.integers(1, 10**80), st.integers(1, 10**80),
           st.integers(2, 10**80))
    def test_parse_header_reads_back_what_header_line_writes(self, version, n, d, k):
        assert data._parse_header("f", data._header_line(version, n, d, k)) == (version, n, d, k)


# Loader table: record texts for a d=2, k=3 file with n=3 records.  The
# second record sits on line 3.  Rejected files raise this exact text,
# with {path} the file's path; accepted ones must equal a per-token
# float()/int() reading.
_HEADER = "protosemi-dataset v1 n=3 d=2 k=3"
_GOOD = ["0.5 -1.25 0 0", "1.5 2.0 1 1", "-0.75 3.0 2 2"]


def _with_line3(text):
    return [_GOOD[0], text, _GOOD[2]]


_REJECTED = [
    ("short_line", _with_line3("1.5 2.0 1"), "{path} line 3: expected 4 fields, got 3"),
    ("long_line", _with_line3("1.5 2.0 1 1 1"), "{path} line 3: expected 4 fields, got 5"),
    ("oops", _with_line3("oops 2.0 1 1"), "{path} line 3: unparsable feature value"),
    ("nan", _with_line3("1.5 nan 1 1"), "{path} line 3: non-finite feature value"),
    ("inf", _with_line3("inf 2.0 1 1"), "{path} line 3: non-finite feature value"),
    ("1e999", _with_line3("1.5 1e999 1 1"), "{path} line 3: non-finite feature value"),
    ("label_3.0", _with_line3("1.5 2.0 3.0 1"), "{path} line 3: unparsable label"),
    ("label_3e0", _with_line3("1.5 2.0 1 3e0"), "{path} line 3: unparsable label"),
    ("label_-1", _with_line3("1.5 2.0 -1 1"),
     "{path} line 3: working label -1 out of range for k=3"),
    ("label_k", _with_line3("1.5 2.0 k 1"), "{path} line 3: unparsable label"),
    ("true_label_3", _with_line3("1.5 2.0 1 3"),
     "{path} line 3: true label 3 out of range for k=3"),
    ("label_overflow", _with_line3("1.5 2.0 99999999999999999999 1"),
     "{path} line 3: working label 99999999999999999999 out of range for k=3"),
    ("blank_record", _with_line3(""), "{path} line 3: expected 4 fields, got 0"),
    ("spaces_record", _with_line3("   "), "{path} line 3: expected 4 fields, got 0"),
    ("blank_inserted", [_GOOD[0], "", _GOOD[1], _GOOD[2]], "{path}: expected 3 records, found 4"),
    ("comment_tail", _with_line3("1.5 2.0 1 1 # note"), "{path} line 3: expected 4 fields, got 6"),
    ("comment_glued", _with_line3("1.5 2.0 1 1#note"), "{path} line 3: unparsable label"),
    ("comment_line", _with_line3("#1.5 2.0 1 1"), "{path} line 3: unparsable feature value"),
    ("vertical_tab", _with_line3("1.5 2.0\x0b1 1"), "{path} line 3: control byte 0x0b"),
    ("lone_cr", _with_line3("1.5 2.0\r1 1"), "{path} line 3: control byte 0x0d"),
    ("errors_in_line_order", [_GOOD[0], "1.5 2.0 1 9", "nan 3.0 2 2"],
     "{path} line 3: true label 9 out of range for k=3"),
]

_ACCEPTED = [
    ("plain", _GOOD),
    ("tabs", _with_line3("1.5\t2.0\t1\t1")),
    ("padded", _with_line3("  1.5   2.0 1 1  ")),
    ("label_+1", _with_line3("1.5 2.0 +1 1")),
    ("label_01", _with_line3("1.5 2.0 01 1")),
    ("label_-0", _with_line3("1.5 2.0 -0 1")),
    ("underscore_feature", _with_line3("1_0 2.0 1 1")),
    ("signed_and_short_floats", _with_line3("+1.5 -.5 1 1")),
    ("negative_zero", _with_line3("-0 -0.0 1 1")),
    ("subnormal", _with_line3("5e-324 1e-310 1 1")),
]


def _reference_parse(records, d):
    """One float() per feature token and one int() per label token."""
    rows = [line.split() for line in records]
    features = np.array([[float(t) for t in r[:d]] for r in rows], dtype=np.float64)
    working = np.array([int(r[d]) for r in rows], dtype=np.int64)
    true = np.array([int(r[d + 1]) for r in rows], dtype=np.int64)
    return features, working, true


class TestLoaderTable:
    @pytest.mark.parametrize("records,message", [c[1:] for c in _REJECTED],
                             ids=[c[0] for c in _REJECTED])
    def test_rejected_record_text(self, tmp_path, records, message):
        path = tmp_path / "bad.ds"
        path.write_bytes(("\n".join([_HEADER, *records]) + "\n").encode("ascii"))
        with pytest.raises(FormatError) as info:
            load_dataset(path)
        assert str(info.value) == message.format(path=path)

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("records", [_with_line3("1.5\x1f2.0 1 1")], ids=["unit_separator"])
    def test_rejected_separator_byte(self, tmp_path, records, ending):
        # str.split() treats \x1f as whitespace; the file rule rejects it
        # with either line ending
        path = tmp_path / "bad.ds"
        path.write_bytes((ending.join([_HEADER, *records]) + ending).encode("ascii"))
        with pytest.raises(FormatError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path} line 3: control byte 0x1f"

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("records", [c[1] for c in _ACCEPTED],
                             ids=[c[0] for c in _ACCEPTED])
    def test_accepted_record_text(self, tmp_path, records, ending):
        path = tmp_path / "ok.ds"
        path.write_bytes((ending.join([_HEADER, *records]) + ending + ending).encode("ascii"))
        ds = load_dataset(path)
        features, working, true = _reference_parse(records, 2)
        assert ds.features.dtype == np.float64 and ds.features.shape == (3, 2)
        assert ds.working_labels.dtype == np.int64 and ds.true_labels.dtype == np.int64
        assert ds.features.tobytes() == features.tobytes()  # keeps the sign of -0
        assert np.array_equal(ds.working_labels, working)
        assert np.array_equal(ds.true_labels, true)
        assert ds.num_classes == 3

    def test_dataset_check_names_the_file(self, tmp_path):
        path = tmp_path / "two.ds"
        path.write_text(_HEADER + "\n" + "\n".join(_with_line3("1.5 2.0 1 0")) + "\n")
        with pytest.raises(FormatError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: class 1 has no samples among the true labels"

    @pytest.mark.parametrize("d", [1, 3])
    def test_one_record(self, tmp_path, d):
        feats = np.arange(2 * d, dtype=np.float64).reshape(2, d) / 3.0
        ds = NoisyDataset(feats, np.array([1, 0]), np.array([0, 1]), 2)
        save_dataset(ds, tmp_path / "two.ds")
        assert same_arrays(load_dataset(tmp_path / "two.ds"), ds)
        path = tmp_path / "one.ds"
        path.write_text(f"protosemi-dataset v1 n=1 d={d} k=2\n"
                        + " ".join(["0.25"] * d) + " 1 0\n")
        with pytest.raises(FormatError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: class 1 has no samples among the true labels"


def _load_outcome(path):
    """The arrays a file loads to, or the text of its FormatError."""
    try:
        ds = load_dataset(path)
    except FormatError as exc:
        return str(exc)
    return ds.features.tobytes(), ds.working_labels.tobytes(), ds.true_labels.tobytes()


def _outcome(read, path):
    """What ``read(path)`` returns, or the text of its FormatError."""
    try:
        return read(path)
    except FormatError as exc:
        return str(exc)


class TestPlainScan:
    def _table_files(self, tmp_path):
        texts = [("\n".join([_HEADER, *records]) + "\n") for _, records, _ in _REJECTED]
        texts += [ending.join([_HEADER, *records]) + ending + ending
                  for _, records in _ACCEPTED for ending in ("\n", "\r\n")]
        texts += ["", "\n", "a\r\nb", "a\r", "\r\n\r\n", "tab\tand\x7f"]
        paths = []
        for i, text in enumerate(texts):
            paths.append(tmp_path / f"{i}.ds")
            paths[-1].write_bytes(text.encode("ascii"))
        ds = inject_factual_noise(generate_blobs(3, 20, 4, 5.0, 1.0, seed=5), 0.3, seed=5)
        paths.append(tmp_path / "saved.ds")
        write_v1_dataset(ds, paths[-1])
        return paths

    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_small_chunks_read_alike(self, tmp_path, monkeypatch, chunk):
        paths = self._table_files(tmp_path)
        readers = [data._line_count, lambda p: list(read_lines(p)), _load_outcome]
        outcomes = [[_outcome(read, p) for p in paths] for read in readers]
        assert outcomes[0][-1] == 61  # a written v1 file passes the scan
        for path, lines in zip(paths, outcomes[1]):
            if isinstance(lines, list):  # the lines, each with its ending, are the file
                assert "".join(lines).encode("ascii") == path.read_bytes()
                assert all(line.endswith("\n") for line in lines[:-1])
        monkeypatch.setattr(data, "_SCAN_CHUNK", chunk)
        assert [[_outcome(read, p) for p in paths] for read in readers] == outcomes

    @pytest.mark.parametrize("chunk", [5, None])
    def test_line_break_past_the_first_chunk(self, tmp_path, monkeypatch, chunk):
        # the form feed, a line break to str.splitlines and a control byte
        # here, is in the last record, past the first chunk at either size
        if chunk:
            monkeypatch.setattr(data, "_SCAN_CHUNK", chunk)
        records = [_GOOD[0] + " " * data._SCAN_CHUNK, _GOOD[1], "-0.75 3.0\x0c2 2"]
        path = tmp_path / "ff.ds"
        path.write_bytes(("\n".join([_HEADER, *records]) + "\n").encode("ascii"))
        for read in (data._line_count, lambda p: list(read_lines(p)), load_dataset):
            with pytest.raises(FormatError) as info:
                read(path)
            assert str(info.value) == f"{path} line 4: control byte 0x0c"


def test_load_peak_memory_is_bounded(tmp_path):
    # a v2 file's records are read straight into the arrays returned
    ds = inject_factual_noise(generate_blobs(4, 2500, 16, 6.0, 1.0, seed=1), 0.3, seed=1)
    path = tmp_path / "10k.ds"
    save_dataset(ds, path)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        back = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    held = back.features.nbytes + back.working_labels.nbytes + back.true_labels.nbytes
    assert peak <= 2.5 * held


def test_crlf_load_peak_memory_is_bounded(tmp_path):
    # a CRLF v1 file is read a chunk at a time, line by line: the loader
    # holds neither the file's text nor a string per record
    ds = inject_factual_noise(generate_blobs(4, 2500, 16, 6.0, 1.0, seed=1), 0.3, seed=1)
    path = tmp_path / "10k.ds"
    write_v1_dataset(ds, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        back = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert same_arrays(back, ds)
    held = back.features.nbytes + back.working_labels.nbytes + back.true_labels.nbytes
    assert peak <= 2.5 * held
