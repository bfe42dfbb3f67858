"""Dataset loaders, generators, and splits."""

import struct

import numpy as np
import pytest

from memgrad.config import DEFAULT_CONFIG
from memgrad.data import (FeatureDataset, ParseError, SplitSpec,
                          load_feature_csv, load_idx, make_cluster_task,
                          save_feature_csv, split, split_indices)


def cluster_task(**task):
    """``make_cluster_task`` on the default config's task, with ``task`` changed."""
    args = {**DEFAULT_CONFIG["task"], **task}
    del args["kind"]
    return make_cluster_task(**args)


def write_idx_pair(tmp_path, images, labels):
    tmp_path.mkdir(parents=True, exist_ok=True)
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    n, rows, cols = images.shape
    with open(img_path, "wb") as f:
        f.write(struct.pack(">4i", 0x00000803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(lab_path, "wb") as f:
        f.write(struct.pack(">2i", 0x00000801, n))
        f.write(labels.astype(np.uint8).tobytes())
    return img_path, lab_path


class TestFeatureDataset:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            FeatureDataset(np.array([[np.nan]]), np.array([0]), 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            FeatureDataset(np.ones((2, 2)), np.array([0, 5]), 2)


class TestFeatureCsv:
    def test_load_small_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0,4.0\n0,5.5,6.5\n")
        ds = load_feature_csv(path)
        assert ds.n_samples == 3 and ds.n_features == 2 and ds.n_classes == 2
        assert ds.features[2, 1] == 6.5

    def test_round_trip_9_digits(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = FeatureDataset(rng.normal(0, 1, (20, 5)), rng.integers(0, 3, 20), 3)
        path = tmp_path / "rt.csv"
        save_feature_csv(ds, path)
        back = load_feature_csv(path)
        assert np.allclose(back.features, ds.features, rtol=1e-8, atol=1e-12)
        assert np.array_equal(back.labels, ds.labels)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n0,1.0\n1,oops\n")
        with pytest.raises(ParseError, match="bad.csv:3"):
            load_feature_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n0,inf\n")
        with pytest.raises(ParseError, match="bad.csv:2"):
            load_feature_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0,1\n")
        with pytest.raises(ParseError, match="header"):
            load_feature_csv(path)

    def test_negative_label_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n0,1.0\n-1,2.0\n")
        with pytest.raises(ParseError, match="bad.csv:3"):
            load_feature_csv(path)


class TestIdx:
    def test_load_synthetic_pair(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, (10, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, 10).astype(np.uint8)
        img, lab = write_idx_pair(tmp_path, images, labels)
        ds = load_idx(img, lab)
        assert ds.n_samples == 10 and ds.n_features == 784
        assert ds.features.max() <= 1.0 and ds.features.min() >= 0.0
        # pixel sum oracle for the first image
        assert ds.features[0].sum() == pytest.approx(images[0].sum() / 255.0)
        assert np.array_equal(ds.labels, labels)

    def test_bad_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 4, 4)), np.zeros(2))
        with open(img, "r+b") as f:
            f.write(struct.pack(">i", 0x00000999))
        with pytest.raises(ParseError, match="magic"):
            load_idx(img, lab)

    def test_truncated_file(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((4, 4, 4)), np.zeros(4))
        data = img.read_bytes()
        img.write_bytes(data[:len(data) - 10])
        with pytest.raises(ParseError, match="truncated"):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path / "a", np.zeros((4, 4, 4)), np.zeros(4))
        _, lab = write_idx_pair(tmp_path / "b", np.zeros((3, 4, 4)), np.zeros(3))
        with pytest.raises(ParseError, match="mismatch"):
            load_idx(img, lab)


class TestClusterTask:
    def test_deterministic(self):
        a = cluster_task(seed=9)
        b = cluster_task(seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_shapes_and_clipping(self):
        ds = cluster_task(n_classes=3, n_features=8, n_per_class=50)
        assert ds.n_samples == 150 and ds.n_features == 8 and ds.n_classes == 3
        assert ds.features.min() >= 0.0

    def test_zero_noise_is_separable(self):
        # with no noise every sample sits on its class center
        ds = cluster_task(n_classes=3, n_features=8, n_per_class=5,
                               noise_sigma=0.0, seed=3)
        for c in range(3):
            block = ds.features[ds.labels == c]
            assert np.all(block == block[0])

    def test_class_permutation_symmetry(self):
        ds = cluster_task(n_classes=4, n_features=8, n_per_class=10, seed=4)
        perm = np.array([2, 3, 1, 0])
        relabeled = FeatureDataset(ds.features, perm[ds.labels], 4)
        for c in range(4):
            assert np.array_equal(ds.features[ds.labels == c],
                                  relabeled.features[relabeled.labels == perm[c]])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            cluster_task(n_classes=1)


class TestSplit:
    def test_exact_paper_fractions(self):
        ds = cluster_task(n_classes=4, n_features=4, n_per_class=1000, seed=0)
        train, val, test = split(ds, SplitSpec(seed=1))
        for part, expected in ((train, 2400), (val, 1200), (test, 400)):
            assert part.n_samples == expected
            for c in range(4):
                assert np.sum(part.labels == c) == expected // 4

    def test_deterministic(self):
        ds = cluster_task(n_classes=3, n_features=4, n_per_class=30, seed=0)
        a = split_indices(ds, SplitSpec(seed=7))
        b = split_indices(ds, SplitSpec(seed=7))
        assert a == b

    def test_disjoint_exhaustive(self):
        ds = cluster_task(n_classes=3, n_features=4, n_per_class=37, seed=0)
        idx = split_indices(ds, SplitSpec(seed=2))
        all_indices = sorted(idx["train"] + idx["val"] + idx["test"])
        assert all_indices == list(range(ds.n_samples))

    def test_stratification_within_one_sample(self):
        ds = cluster_task(n_classes=4, n_features=4, n_per_class=87, seed=0)
        idx = split_indices(ds, SplitSpec(seed=3))
        for name, frac in (("train", 0.6), ("val", 0.3), ("test", 0.1)):
            labels = ds.labels[idx[name]]
            for c in range(4):
                assert abs(np.sum(labels == c) - frac * 87) <= 1.0

    def test_non_stratified_split(self):
        ds = cluster_task(n_classes=3, n_features=4, n_per_class=40, seed=0)
        idx = split_indices(ds, SplitSpec(stratified=False, seed=4))
        merged = sorted(idx["train"] + idx["val"] + idx["test"])
        assert merged == list(range(120))
        assert len(idx["train"]) == 72

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SplitSpec(train=0.5, val=0.3, test=0.1)

    def test_too_few_samples(self):
        ds = FeatureDataset(np.ones((2, 2)), np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            split_indices(ds, SplitSpec())
