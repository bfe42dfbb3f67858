"""Hardware-in-the-loop style training orchestration.

A run owns a stack of layers (each backed by a crossbar array in device mode
or a plain float matrix in the software baselines), a layer-wise schedule,
and a training log of two arrays, one row per step and one per epoch.  Every
batch step follows the loop: forward the batch through the layers the rule
needs, compute the rule gradient for the one trainable layer, sparsify it
into a sign-only single-pulse plan, program the array.  Backprop schedules
train output->input; forward-only rules train input->output (information
only travels forward).

Training reads a device layer only through ``NetworkLayer.forward``, which
calls ``CrossbarArray.read`` (one logged read and its MACs per batch and
layer).  Scoring is side-effect free: ``predict``, ``evaluate`` and
``evaluate_weights`` share one classifier on weight matrices, and
``age_conductances`` is the one aging loop (``simulate_aging``, ``memgrad age``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .crossbar import CrossbarArray, OnExhaustion
from .data import FeatureDataset
from .device import DriftModelParams, apply_retention_drift
from .energy import EnergyLedger
from .rules import (GradientBatch, LayerSpec, bp_gradients, cf_goodness_loss,
                    cf_gradient, cross_entropy_loss, sff_goodness_loss,
                    sff_gradient, sign_descent_step_float, threshold_sign_plan)

__all__ = [
    "Phase",
    "Schedule",
    "NetworkLayer",
    "TrainingRun",
    "train",
    "evaluate",
    "predict",
    "simulate_aging",
    "age_conductances",
    "evaluate_weights",
    "pulse_statistics",
]

ALGORITHMS = ("bp", "sff", "cf", "float_bp", "float_sff", "float_cf")

# Desk-scale defaults, frozen after the calibration documented in
# scripts/tune_defaults.py.
DEFAULT_TAU = {"bp": 0.045, "sff": 1e-3, "cf": 1e-3}
DEFAULT_EPOCHS = {"perceptron": [20], "bp": [10, 20], "forward": [15, 15]}

# Float layers start from N(0, FLOAT_INIT_SIGMA^2), matching the weight
# spread of a freshly initialized differential-pair array so both modes
# start from comparable operating points.
FLOAT_INIT_SIGMA = 0.14

# one row per batch step in training order: the global epoch, the batch in
# it, the trained layer, the batch loss, and the pulses applied and skipped
STEP_DTYPE = np.dtype([("epoch", np.int64), ("batch", np.int64), ("layer", np.int64),
                       ("loss", np.float64), ("applied", np.int64), ("skipped", np.int64)])
# one row per global epoch: the trained layer, the mean step loss, and the
# val-split accuracy after the epoch (NaN without a val split)
EPOCH_DTYPE = np.dtype([("layer", np.int64), ("loss", np.float64),
                        ("val_accuracy", np.float64)])


@dataclass
class Phase:
    layer: int
    epochs: int

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("phase epoch count must be >= 1")


@dataclass
class Schedule:
    phases: list[Phase]
    algorithm: str
    batch_size: int
    tau: float
    learning_rate: float               # float modes only
    plan_mode: str                     # "descent" | "paper_literal"
    float_update: str                  # "sgd" | "sign"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.float_update not in ("sgd", "sign"):
            raise ValueError(f"unknown float update {self.float_update!r}")

    @property
    def is_float(self) -> bool:
        return self.algorithm.startswith("float_")

    @property
    def rule(self) -> str:
        return self.algorithm.removeprefix("float_")


@dataclass
class NetworkLayer:
    """One layer: shape/rule metadata plus its device or float backing."""

    spec: LayerSpec
    array: CrossbarArray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if (self.array is None) == (self.weights is None):
            raise ValueError("layer needs exactly one of array / weights")
        shape = (self.spec.n_out, self.spec.n_in)
        if self.array is not None and (self.array.n_out, self.array.n_in) != shape:
            raise ValueError("array shape does not match layer spec")
        if self.weights is not None and self.weights.shape != shape:
            raise ValueError("weight shape does not match layer spec")

    def read_weights(self) -> np.ndarray:
        if self.array is not None:
            return self.array.map_weights()
        return self.weights

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Activations for a batch; a device layer logs the array read."""
        pre = self.array.read(x) if self.array is not None else x @ self.weights.T
        return _activate(self.spec, pre)


def _activate(spec: LayerSpec, pre: np.ndarray) -> np.ndarray:
    """The layer's activation, written over ``pre``: every caller passes a
    matmul output of its own that nothing else holds."""
    return np.maximum(pre, 0.0, out=pre) if spec.activation == "relu" else pre


@dataclass
class TrainingRun:
    layers: list[NetworkLayer]
    schedule: Schedule
    seed: int
    rule_params: list                  # SFFParams/CFParams/None per layer
    token_amplitude: float
    sff_inference: str                 # "neutral" | "per_label"
    on_exhaustion: OnExhaustion
    ledger: EnergyLedger
    step_log: np.ndarray = field(default_factory=lambda: np.zeros(0, STEP_DTYPE))
    epoch_log: np.ndarray = field(default_factory=lambda: np.zeros(0, EPOCH_DTYPE))
    max_buffered_scalars: dict[int, int] = field(default_factory=dict)
    completed: bool = False

    @property
    def is_device(self) -> bool:
        return not self.schedule.is_float

    @property
    def n_classes(self) -> int:
        last = self.layers[-1].spec
        if last.clusters is not None:
            return last.clusters[0]
        return last.n_out


def _layer_specs(rule: str, n_features: int, n_classes: int,
                 hidden_units: int, cluster_size: int, single_layer: bool,
                 rule_params: list) -> list[LayerSpec]:
    """Layer layout of a rule; a forward-rule layer's goodness sign is the
    eta of its rule parameters."""
    if rule == "bp":
        if single_layer:
            return [LayerSpec(n_features, n_classes, activation="identity")]
        return [LayerSpec(n_features, hidden_units, activation="relu"),
                LayerSpec(hidden_units, n_classes, activation="identity")]
    first, last = (float(params.eta) for params in rule_params)
    clusters = (n_classes, cluster_size)
    head_units = n_classes * cluster_size
    if rule == "sff":
        return [LayerSpec(n_features + n_classes, hidden_units, eta=first),
                LayerSpec(hidden_units, head_units, eta=last, clusters=clusters)]
    # rules.cf_first inverts the first layer's goodness sign by default
    return [LayerSpec(n_features, head_units, eta=first, clusters=clusters),
            LayerSpec(head_units, head_units, eta=last, clusters=clusters)]


def _phases(rule: str, n_layers: int, epochs: list[int] | None) -> list[Phase]:
    """Standard layer-wise phases.

    Backprop trains output to input: a single layer 20 epochs, two layers
    10 (output) then 20 (input).  Forward-only rules train input to output,
    15 epochs each.
    """
    if rule == "bp":
        order = range(n_layers - 1, -1, -1)
        default = DEFAULT_EPOCHS["perceptron" if n_layers == 1 else "bp"]
    else:
        order = range(n_layers)
        default = DEFAULT_EPOCHS["forward"]
    if epochs is None:
        epochs = default
    return [Phase(layer, count) for layer, count in zip(order, epochs)]


def _forward(layers: list[NetworkLayer], x: np.ndarray) -> list[np.ndarray]:
    """Activations after every layer, reading each array once."""
    acts = [x]
    for layer in layers:
        acts.append(layer.forward(acts[-1]))
    return acts


def _pos_neg_batch(x: np.ndarray, y: np.ndarray, n_classes: int,
                   amplitude: float, rng: np.random.Generator):
    n = len(x)
    tokens_pos = np.zeros((n, n_classes))
    tokens_pos[np.arange(n), y] = amplitude
    wrong = (y + rng.integers(1, n_classes, size=n)) % n_classes
    tokens_neg = np.zeros((n, n_classes))
    tokens_neg[np.arange(n), wrong] = amplitude
    return np.hstack([x, tokens_pos]), np.hstack([x, tokens_neg])


def _batch_gradient(run: TrainingRun, t: int, x: np.ndarray, y: np.ndarray,
                    rng: np.random.Generator) -> tuple[GradientBatch, float]:
    """Rule gradient for trainable layer t, plus the batch loss.

    Each step runs its forward once: the backward pass and the losses reuse
    its activations and the gradient's goodness.
    """
    rule = run.schedule.rule
    if rule == "bp":
        acts = _forward(run.layers, x)
        weights = [layer.read_weights() for layer in run.layers]
        grads = bp_gradients(weights, x, y, [k == t for k in range(len(weights))],
                             acts=acts)
        return grads[t], cross_entropy_loss(acts[-1], y)

    if rule == "sff":
        x_pos, x_neg = _pos_neg_batch(x, y, run.n_classes, run.token_amplitude, rng)
        h_pos = run.layers[0].forward(x_pos)
        if t == 0:
            params = run.rule_params[0]
            grad = sff_gradient(x_pos, h_pos, x_neg, run.layers[0].forward(x_neg), params)
            return grad, sff_goodness_loss(grad.goodness_pos, grad.goodness_neg,
                                           params, h_pos.shape[1])
        # the cluster head trains on positive examples only
        return _cluster_step(run, 1, h_pos, run.layers[1].forward(h_pos), y)

    if rule == "cf":
        acts = _forward(run.layers[:t + 1], x)
        return _cluster_step(run, t, acts[t], acts[t + 1], y)

    raise ValueError(f"unknown rule {rule!r}")


def _cluster_step(run: TrainingRun, t: int, x: np.ndarray, h: np.ndarray,
                  y: np.ndarray) -> tuple[GradientBatch, float]:
    """CF gradient and loss of cluster layer t, given its input and output."""
    params = run.rule_params[t]
    grad = cf_gradient(x, h, y, params, run.layers[t].spec)
    return grad, cf_goodness_loss(grad.goodness_pos, grad.goodness_neg, params)


def train(run: TrainingRun, train_ds: FeatureDataset,
          val_ds: FeatureDataset | None = None) -> TrainingRun:
    """Execute the schedule; deterministic for a fixed (run, datasets).

    An empty phase list is the zero-epoch run: nothing is touched and the
    network keeps its initialization.  The logs are built on return.
    """
    if run.completed:
        raise RuntimeError("run already completed")
    expected = run.layers[0].spec.n_in
    if run.schedule.rule == "sff":
        expected -= run.n_classes
    if train_ds.n_features != expected:
        raise ValueError(f"dataset has {train_ds.n_features} features, "
                         f"network expects {expected}")
    for phase in run.schedule.phases:
        if not 0 <= phase.layer < len(run.layers):
            raise ValueError(f"phase trains layer {phase.layer} of {len(run.layers)}")

    rng = np.random.default_rng(np.random.SeedSequence([run.seed, 0x7E5]))
    n = train_ds.n_samples
    batch = run.schedule.batch_size
    steps, epochs = [], []
    for phase in run.schedule.phases:
        t = phase.layer
        for _ in range(phase.epochs):
            order = rng.permutation(n)
            losses = []
            for b_idx, start in enumerate(range(0, n, batch)):
                sel = order[start:start + batch]
                x, y = train_ds.features[sel], train_ds.labels[sel]
                grad, loss = _batch_gradient(run, t, x, y, rng)
                run.max_buffered_scalars[t] = max(
                    run.max_buffered_scalars.get(t, 0), grad.buffered_scalars)
                if run.is_device:
                    plan = threshold_sign_plan(grad.grad, run.schedule.tau,
                                               run.schedule.plan_mode)
                    result = run.layers[t].array.apply_update_plan(
                        plan, run.on_exhaustion, rng)
                    applied, skipped = result.applied, result.skipped
                else:
                    w = run.layers[t].weights
                    if run.schedule.float_update == "sign":
                        run.layers[t].weights = sign_descent_step_float(
                            w, grad.grad, run.schedule.learning_rate,
                            run.schedule.tau)
                    else:
                        run.layers[t].weights = w - run.schedule.learning_rate * grad.grad
                    applied = skipped = 0
                losses.append(loss)
                steps.append((len(epochs), b_idx, t, loss, applied, skipped))
            epochs.append((t, np.mean(losses),
                           np.nan if val_ds is None else evaluate(run, val_ds)))
    run.step_log = np.array(steps, dtype=STEP_DTYPE)
    run.epoch_log = np.array(epochs, dtype=EPOCH_DTYPE)
    run.completed = True
    return run


def _predict_labels(specs: list[LayerSpec], weights: list[np.ndarray],
                    x: np.ndarray, rule: str, token_amplitude: float,
                    sff_inference: str) -> np.ndarray:
    """Class predictions of a weight stack; ties resolve to the lowest class.

    A cluster head scores a class by its cluster's goodness.  SFF appends a
    neutral token (amplitude / C on every class), or with ``per_label`` runs
    the first layer once per class token and scores its goodness.
    """
    last = specs[-1]
    n_classes = last.clusters[0] if last.clusters is not None else last.n_out
    if rule == "sff" and sff_inference == "per_label":
        scores = np.empty((len(x), n_classes))
        for c in range(n_classes):
            tokens = np.zeros((len(x), n_classes))
            tokens[:, c] = token_amplitude
            h = _activate(specs[0], np.hstack([x, tokens]) @ weights[0].T)
            scores[:, c] = np.square(h, out=h).sum(axis=1)
        return scores.argmax(axis=1)
    acts = x
    if rule == "sff":
        acts = np.hstack([x, np.full((len(x), n_classes), token_amplitude / n_classes)])
    for spec, w in zip(specs, weights):
        acts = _activate(spec, acts @ w.T)
    if last.clusters is not None:
        acts = np.square(acts, out=acts).reshape(len(x), n_classes, last.clusters[1]).sum(axis=2)
    return acts.argmax(axis=1)


def evaluate_weights(specs: list[LayerSpec], weights: list[np.ndarray],
                     dataset: FeatureDataset, rule: str, token_amplitude: float,
                     sff_inference: str) -> float:
    """Accuracy of a weight stack on a dataset (no side effects)."""
    labels = _predict_labels(specs, weights, dataset.features, rule,
                             token_amplitude, sff_inference)
    return float(np.mean(labels == dataset.labels))


def predict(run: TrainingRun, x: np.ndarray) -> np.ndarray:
    """Class predictions; ties resolve to the lowest class index."""
    return _predict_labels([layer.spec for layer in run.layers],
                           [layer.read_weights() for layer in run.layers],
                           np.atleast_2d(np.asarray(x, dtype=float)),
                           run.schedule.rule, run.token_amplitude, run.sff_inference)


def evaluate(run: TrainingRun, dataset: FeatureDataset) -> float:
    """Accuracy on a split with noiseless reads; repeatable, side-effect free."""
    return float(np.mean(predict(run, dataset.features) == dataset.labels))


@dataclass
class AgingPoint:
    day: float
    accuracies: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies, ddof=1)) if len(self.accuracies) > 1 else 0.0


def age_conductances(layers: list, day_checkpoints: list[float],
                     drift_params: DriftModelParams, rng: np.random.Generator,
                     n_repeats: int, test_ds: FeatureDataset, rule: str,
                     token_amplitude: float, sff_inference: str) -> np.ndarray:
    """Test accuracy of drifted conductances, shape (repeats, checkpoints).

    ``layers`` holds ``(spec, scale_s, (G+, G-))`` per layer.  Every repeat
    and checkpoint draws independent drift for each device (G+ then G- of
    each layer in turn) and scores the weights s * (G+ - G-).  Days that are
    not finite, >= 0 and ascending raise before the first draw.
    """
    days = list(day_checkpoints)
    if not all(0 <= day < math.inf for day in days) or days != sorted(days):
        raise ValueError(f"day checkpoints must be finite, >= 0 and ascending, got {days}")
    specs = [spec for spec, _, _ in layers]
    accuracies = np.empty((n_repeats, len(day_checkpoints)))
    for rep in range(n_repeats):
        for k, day in enumerate(day_checkpoints):
            weights = []
            for _, s, pair in layers:
                gp, gm = (apply_retention_drift(g, day, drift_params, rng) for g in pair)
                weights.append(s * (gp - gm))
            accuracies[rep, k] = evaluate_weights(specs, weights, test_ds, rule,
                                                  token_amplitude, sff_inference)
    return accuracies


def simulate_aging(run: TrainingRun, day_checkpoints: list[float],
                   drift_params: DriftModelParams, rng: np.random.Generator,
                   n_repeats: int, test_ds: FeatureDataset) -> list[AgingPoint]:
    """Retention study of a completed device run.

    Drift perturbs reads, not the replay state; accuracy is scored with the
    run's own inference protocol.
    """
    if not run.completed:
        raise RuntimeError("run must be completed before aging analysis")
    if not run.is_device:
        raise ValueError("aging applies to device-mode runs")
    layers = [(layer.spec, layer.array.scale_s, layer.array.conductances())
              for layer in run.layers]
    accuracies = age_conductances(layers, day_checkpoints, drift_params, rng,
                                  n_repeats, test_ds, run.schedule.rule,
                                  run.token_amplitude, run.sff_inference)
    return [AgingPoint(day, accuracies[:, k].tolist())
            for k, day in enumerate(day_checkpoints)]


def pulse_statistics(run: TrainingRun) -> dict:
    """Per-layer pulse totals and per-device means, plus run totals."""
    per_layer = []
    total = 0
    for k, layer in enumerate(run.layers):
        if layer.array is None:
            per_layer.append({"layer": k, "pulses": 0, "devices": 0,
                              "mean_per_device": 0.0})
            continue
        pulses = int(layer.array.pulse_counts.sum())
        devices = layer.array.device_count
        per_layer.append({"layer": k, "pulses": pulses, "devices": devices,
                          "mean_per_device": pulses / devices})
        total += pulses
    devices_total = sum(entry["devices"] for entry in per_layer)
    return {"per_layer": per_layer, "total_pulses": total,
            "mean_per_device": total / devices_total if devices_total else 0.0}
