"""Dataset ingestion and generation.

Feature vectors come from three sources: a CSV format for cached backbone
features, the standard IDX image/label files, and a synthetic cluster task
that stands in for transfer-learning features at desk scale (Gaussian blobs
clipped at zero, mimicking post-ReLU backbone outputs).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .artifacts import read_csv, write_csv
from .errors import ParseError

__all__ = [
    "ParseError",
    "FeatureDataset",
    "SplitSpec",
    "load_feature_csv",
    "save_feature_csv",
    "load_idx",
    "make_cluster_task",
    "split_indices",
    "split",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801




@dataclass
class FeatureDataset:
    features: np.ndarray        # (N, D)
    labels: np.ndarray          # (N,), ints in [0, n_classes)
    n_classes: int
    provenance: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be (N, D) aligned with labels")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain NaN or Inf")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels outside [0, n_classes)")

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "FeatureDataset":
        idx = np.asarray(idx, dtype=int)
        return FeatureDataset(self.features[idx], self.labels[idx],
                              self.n_classes, self.provenance)


@dataclass
class SplitSpec:
    train: float = 0.6
    val: float = 0.3
    test: float = 0.1
    stratified: bool = True
    seed: int = 5

    def __post_init__(self):
        fracs = (self.train, self.val, self.test)
        if any(f <= 0 for f in fracs):
            raise ValueError("split fractions must be positive")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")


def load_feature_csv(path) -> FeatureDataset:
    """Read `label,f0,...,f{D-1}` rows; rejects non-finite values."""
    # a label, then as many feature columns as the file's header has (at least one)
    rows = [row for _, row in read_csv(
        path, lambda names: ["label"] + [f"f{k}" for k in range(max(len(names) - 1, 1))],
        lambda r: (int(r[0]), [float(v) for v in r[1:]]))]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    labels_arr, features = (np.array(column) for column in zip(*rows))
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}:{np.argmin(finite) + 2}: non-finite feature value")
    n_classes = int(labels_arr.max()) + 1
    if labels_arr.min() < 0:
        bad = int(np.argmin(labels_arr))
        raise ParseError(f"{path}:{bad + 2}: negative label {labels_arr[bad]}")
    if n_classes < 2:
        raise ParseError(f"{path}: every label is 0; a task needs at least 2 classes")
    return FeatureDataset(features, labels_arr, n_classes, provenance=f"csv:{path}")


def save_feature_csv(dataset: FeatureDataset, path):
    """Write the CSV feature format with 9 significant digits."""
    write_csv(path, ["label"] + [f"f{k}" for k in range(dataset.n_features)],
              ([int(label)] + [f"{v:.9g}" for v in row]
               for label, row in zip(dataset.labels, dataset.features)))


def _read_idx_header(f, path, expect_magic, n_dims):
    raw = f.read(4 * (1 + n_dims))
    if len(raw) != 4 * (1 + n_dims):
        raise ParseError(f"{path}: truncated IDX header")
    values = struct.unpack(f">{1 + n_dims}i", raw)
    if values[0] != expect_magic:
        raise ParseError(f"{path}: bad IDX magic 0x{values[0]:08x}")
    return values[1:]


def load_idx(images_path, labels_path) -> FeatureDataset:
    """Load big-endian IDX image/label files; pixels scaled to [0, 1]."""
    with open(images_path, "rb") as f:
        count, rows, cols = _read_idx_header(f, images_path, IDX_IMAGE_MAGIC, 3)
        raw = f.read(count * rows * cols)
        if len(raw) != count * rows * cols:
            raise ParseError(f"{images_path}: truncated pixel data")
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        (label_count,) = _read_idx_header(f, labels_path, IDX_LABEL_MAGIC, 1)
        raw = f.read(label_count)
        if len(raw) != label_count:
            raise ParseError(f"{labels_path}: truncated label data")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(int)
    if label_count != count:
        raise ParseError(f"image/label count mismatch: {count} vs {label_count}")
    n_classes = int(labels.max()) + 1 if count else 10
    if n_classes < 2:
        raise ParseError(f"{labels_path}: every label is 0; a task needs at least 2 classes")
    return FeatureDataset(pixels.astype(float) / 255.0, labels, n_classes,
                          provenance=f"idx:{images_path}")


def make_cluster_task(n_classes: int, n_features: int, n_per_class: int,
                      center_scale: float, noise_sigma: float,
                      seed: int) -> FeatureDataset:
    """Synthetic multi-class task: Gaussian blobs clipped at zero.

    Class centers are |N(0, center_scale^2)| per dimension, samples add
    N(0, noise_sigma^2) noise and are clipped at zero so features look like
    post-ReLU backbone outputs.  The config's default noise_sigma is frozen
    so that the float-backprop reference lands in the low-90% test-accuracy
    band (see scripts/tune_defaults.py).
    """
    if n_classes < 2 or n_features < 1:
        raise ValueError("need n_classes >= 2 and n_features >= 1")
    if n_per_class < 1:
        raise ValueError("need n_per_class >= 1")
    rng = np.random.default_rng(seed)
    centers = np.abs(rng.normal(0.0, center_scale, (n_classes, n_features)))
    feats = np.empty((n_classes * n_per_class, n_features))
    labels = np.empty(n_classes * n_per_class, dtype=int)
    for c in range(n_classes):
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        feats[block] = np.clip(
            centers[c] + rng.normal(0.0, noise_sigma, (n_per_class, n_features)),
            0.0, None)
        labels[block] = c
    return FeatureDataset(feats, labels, n_classes,
                          provenance=f"synthetic(seed={seed},sigma={noise_sigma})")


def split_indices(dataset: FeatureDataset, spec: SplitSpec) -> dict[str, list[int]]:
    """Stratified, disjoint, exhaustive index split; deterministic per seed.

    Per-class counts use largest-remainder rounding, so each class deviates
    from the target fraction by at most one sample.
    """
    rng = np.random.default_rng(spec.seed)
    fractions = {"train": spec.train, "val": spec.val, "test": spec.test}
    out: dict[str, list[int]] = {name: [] for name in fractions}
    if spec.stratified:
        groups = {f"class {c}": np.where(dataset.labels == c)[0]
                  for c in range(dataset.n_classes)}
    else:
        groups = {"the dataset": np.arange(dataset.n_samples)}
    for group, idx in groups.items():
        if len(idx) < 3:
            raise ValueError(f"{group} has {len(idx)} sample(s); a train/val/test "
                             f"split needs at least 3")
        idx = idx.copy()
        rng.shuffle(idx)
        counts = _largest_remainder(len(idx), list(fractions.values()))
        start = 0
        for name, count in zip(fractions, counts):
            out[name].extend(int(v) for v in idx[start:start + count])
            start += count
    return out


def _largest_remainder(total: int, fractions: list[float]) -> list[int]:
    raw = [f * total for f in fractions]
    counts = [int(np.floor(r)) for r in raw]
    remainders = sorted(range(len(raw)), key=lambda k: raw[k] - counts[k], reverse=True)
    for k in remainders[:total - sum(counts)]:
        counts[k] += 1
    return counts


def split(dataset: FeatureDataset, idx: dict[str, list[int]]):
    """(train, val, test) datasets of the indices ``split_indices`` returns."""
    return (dataset.subset(idx["train"]), dataset.subset(idx["val"]),
            dataset.subset(idx["test"]))
