"""Hardware-in-the-loop style training orchestration.

A run owns a stack of layers (each backed by a crossbar array in device mode
or a plain float matrix in the software baselines), a layer-wise schedule,
and an event log.  Every batch step follows the loop: read arrays, forward
in software on the mapped weights, compute the rule gradient for the one
trainable layer, sparsify it into a sign-only single-pulse plan, program the
array, re-read.  Backprop schedules train output->input; forward-only rules
train input->output (information only travels forward).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .crossbar import CrossbarArray, OnExhaustion
from .data import FeatureDataset
from .device import DeviceTechParams, DriftModelParams, LARGE_ARRAY, apply_retention_drift
from .energy import EnergyLedger
from .rules import (CFParams, GradientBatch, LayerSpec, SFFParams, bp_gradients,
                    cf_batch_loss, cf_gradient, cluster_labels, cross_entropy_loss,
                    sff_batch_loss, sff_gradient, sign_descent_step_float,
                    threshold_sign_plan)

__all__ = [
    "Phase",
    "Schedule",
    "NetworkLayer",
    "StepRecord",
    "EpochRecord",
    "TrainingRun",
    "default_schedule",
    "make_network",
    "make_run",
    "train",
    "evaluate",
    "predict",
    "sff_predict",
    "simulate_aging",
    "evaluate_weights",
    "pulse_statistics",
]

ALGORITHMS = ("bp", "sff", "cf", "float_bp", "float_sff", "float_cf")

# Desk-scale defaults, frozen after the calibration documented in
# scripts/tune_defaults.py.
DEFAULT_TAU = {"bp": 0.045, "sff": 1e-3, "cf": 1e-3}
DEFAULT_EPOCHS = {"perceptron": [20], "bp": [10, 20], "forward": [15, 15]}


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
    batch_size: int = 16
    tau: float = 0.0
    learning_rate: float = 0.05        # float modes only
    plan_mode: str = "descent"
    float_update: str = "sgd"          # "sgd" | "sign"

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


@dataclass
class StepRecord:
    epoch: int            # global epoch index across phases
    batch: int
    layer: int
    loss: float
    pulses: int           # applied this step
    skipped: int = 0


@dataclass
class EpochRecord:
    epoch: int
    layer: int
    split: str
    accuracy: float | None = None
    loss: float | None = None


@dataclass
class TrainingRun:
    layers: list[NetworkLayer]
    schedule: Schedule
    seed: int
    rule_params: list = field(default_factory=list)   # SFFParams/CFParams/None per layer
    token_amplitude: float = 1.0
    sff_inference: str = "neutral"     # "neutral" | "per_label"
    on_exhaustion: OnExhaustion = OnExhaustion.SKIP
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    step_log: list[StepRecord] = field(default_factory=list)
    epoch_log: list[EpochRecord] = field(default_factory=list)
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


def default_schedule(algorithm: str, n_layers: int, tau: float | None = None,
                     batch_size: int = 16, learning_rate: float = 0.05,
                     epochs: list[int] | None = None,
                     plan_mode: str = "descent") -> Schedule:
    """Standard layer-wise schedules.

    Backprop: single layer 20 epochs; two layers output first (10) then
    input (20).  Forward-only rules: input to output, 15 epochs each.
    """
    rule = algorithm.removeprefix("float_")
    if rule == "bp":
        order = list(range(n_layers - 1, -1, -1))
        counts = DEFAULT_EPOCHS["perceptron"] if n_layers == 1 else DEFAULT_EPOCHS["bp"]
    else:
        order = list(range(n_layers))
        counts = DEFAULT_EPOCHS["forward"][:n_layers]
    if epochs is not None:
        if len(epochs) != n_layers:
            raise ValueError("need one epoch count per layer")
        counts = list(epochs)
    if tau is None:
        tau = DEFAULT_TAU[rule] if not algorithm.startswith("float_") else 0.0
    phases = [Phase(layer, count) for layer, count in zip(order, counts)]
    return Schedule(phases=phases, algorithm=algorithm, batch_size=batch_size,
                    tau=tau, learning_rate=learning_rate, plan_mode=plan_mode)


def _layer_specs(algorithm: str, n_features: int, n_classes: int,
                 hidden_units: int, cluster_size: int,
                 single_layer: bool) -> tuple[list[LayerSpec], list]:
    rule = algorithm.removeprefix("float_")
    if rule == "bp":
        if single_layer:
            return [LayerSpec(n_features, n_classes, activation="identity")], [None]
        return ([LayerSpec(n_features, hidden_units, activation="relu"),
                 LayerSpec(hidden_units, n_classes, activation="identity")],
                [None, None])
    head_units = n_classes * cluster_size
    if rule == "sff":
        specs = [LayerSpec(n_features + n_classes, hidden_units, eta=1.0),
                 LayerSpec(hidden_units, head_units, eta=1.0,
                           clusters=(n_classes, cluster_size))]
        params = [SFFParams(), CFParams()]
        return specs, params
    if rule == "cf":
        # first layer learns with inverted goodness sign: it suppresses the
        # target cluster and lets the output layer concentrate the activity
        specs = [LayerSpec(n_features, head_units, eta=-1.0,
                           clusters=(n_classes, cluster_size)),
                 LayerSpec(head_units, head_units, eta=1.0,
                           clusters=(n_classes, cluster_size))]
        params = [CFParams(eta=-1.0), CFParams(eta=1.0)]
        return specs, params
    raise ValueError(f"unknown algorithm {algorithm!r}")


def make_network(algorithm: str, n_features: int, n_classes: int,
                 rng: np.random.Generator, hidden_units: int = 48,
                 cluster_size: int = 12, single_layer: bool = False,
                 bank=None, tech: DeviceTechParams = LARGE_ARRAY,
                 gain_kappa: float = 5e4, pre_pulse_max: int = 50,
                 ledger: EnergyLedger | None = None,
                 float_init_sigma: float = 0.14):
    """Build the layer stack for an algorithm, device- or float-backed.

    Float layers start from N(0, float_init_sigma^2), matching the weight
    spread of a freshly initialized differential-pair array so both modes
    start from comparable operating points.
    """
    specs, params = _layer_specs(algorithm, n_features, n_classes,
                                 hidden_units, cluster_size, single_layer)
    layers = []
    for spec in specs:
        if algorithm.startswith("float_"):
            w = rng.normal(0.0, float_init_sigma, (spec.n_out, spec.n_in))
            layers.append(NetworkLayer(spec=spec, weights=w))
        else:
            if bank is None:
                raise ValueError("device mode needs a trajectory bank")
            array = CrossbarArray.build(spec.n_in, spec.n_out, bank, rng, tech,
                                        gain_kappa=gain_kappa,
                                        pre_pulse_max=pre_pulse_max, ledger=ledger)
            layers.append(NetworkLayer(spec=spec, array=array))
    return layers, params


def make_run(algorithm: str, n_features: int, n_classes: int, seed: int,
             bank=None, tech: DeviceTechParams = LARGE_ARRAY,
             hidden_units: int = 48, cluster_size: int = 12,
             single_layer: bool = False, gain_kappa: float = 5e4,
             pre_pulse_max: int = 50, tau: float | None = None,
             batch_size: int = 16, learning_rate: float = 0.05,
             epochs: list[int] | None = None, token_amplitude: float = 1.0,
             plan_mode: str = "descent",
             rule_params: list | None = None) -> TrainingRun:
    """Assemble a reproducible TrainingRun (network + schedule + ledger)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11]))
    ledger = EnergyLedger()
    layers, params = make_network(algorithm, n_features, n_classes, rng,
                                  hidden_units=hidden_units,
                                  cluster_size=cluster_size,
                                  single_layer=single_layer, bank=bank,
                                  tech=tech, gain_kappa=gain_kappa,
                                  pre_pulse_max=pre_pulse_max, ledger=ledger)
    if rule_params is not None:
        if len(rule_params) != len(layers):
            raise ValueError("need one rule-params entry per layer")
        params = rule_params
    schedule = default_schedule(algorithm, len(layers), tau=tau,
                                batch_size=batch_size,
                                learning_rate=learning_rate, epochs=epochs,
                                plan_mode=plan_mode)
    return TrainingRun(layers=layers, schedule=schedule, seed=seed,
                       rule_params=params, token_amplitude=token_amplitude,
                       ledger=ledger)


def _forward(layers: list[NetworkLayer], weights: list[np.ndarray],
             x: np.ndarray) -> list[np.ndarray]:
    """Activations after every layer (software MAC on mapped weights)."""
    acts = [x]
    for layer, w in zip(layers, weights):
        pre = acts[-1] @ w.T
        acts.append(np.maximum(pre, 0.0) if layer.spec.activation == "relu" else pre)
    return acts


def _log_forward_reads(run: TrainingRun, layer: NetworkLayer, x: np.ndarray):
    # read-energy bookkeeping for one batched forward through one array:
    # every driven device contributes G * (x_j V_read)^2 * t_read
    array = layer.array
    if array is None or run.ledger is None:
        return
    g_cols = (array._g_plus + array._g_minus).sum(axis=0)     # per input line
    g_sum = float(g_cols @ (x ** 2).sum(axis=0))
    run.ledger.record_read(g_sum, array.tech.v_read, array.tech.t_read)
    run.ledger.record_macs(x.shape[0] * array.n_in * array.n_out)


def _pos_neg_batch(x: np.ndarray, y: np.ndarray, n_classes: int,
                   amplitude: float, rng: np.random.Generator):
    n = len(x)
    tokens_pos = np.zeros((n, n_classes))
    tokens_pos[np.arange(n), y] = amplitude
    wrong = (y + rng.integers(1, n_classes, size=n)) % n_classes
    tokens_neg = np.zeros((n, n_classes))
    tokens_neg[np.arange(n), wrong] = amplitude
    return np.hstack([x, tokens_pos]), np.hstack([x, tokens_neg])


def _batch_gradient(run: TrainingRun, weights: list[np.ndarray], t: int,
                    x: np.ndarray, y: np.ndarray,
                    rng: np.random.Generator) -> tuple[GradientBatch, float]:
    """Rule gradient for trainable layer t, plus the batch loss."""
    rule = run.schedule.rule
    if rule == "bp":
        acts = _forward(run.layers, weights, x)
        for layer, act_in in zip(run.layers, acts[:-1]):
            _log_forward_reads(run, layer, act_in)
        mask = [k == t for k in range(len(weights))]
        grads = bp_gradients(weights, x, y, trainable=mask)
        return grads[t], cross_entropy_loss(acts[-1], y)

    if rule == "sff":
        x_pos, x_neg = _pos_neg_batch(x, y, run.n_classes, run.token_amplitude, rng)
        h_pos = np.maximum(x_pos @ weights[0].T, 0.0)
        _log_forward_reads(run, run.layers[0], x_pos)
        if t == 0:
            h_neg = np.maximum(x_neg @ weights[0].T, 0.0)
            _log_forward_reads(run, run.layers[0], x_neg)
            grad = sff_gradient(x_pos, h_pos, x_neg, h_neg, run.rule_params[0])
            return grad, sff_batch_loss(h_pos, h_neg, run.rule_params[0])
        # the cluster head trains on positive examples only
        h_head = np.maximum(h_pos @ weights[1].T, 0.0)
        _log_forward_reads(run, run.layers[1], h_pos)
        grad = cf_gradient(h_pos, h_head, y, run.rule_params[1], run.layers[1].spec)
        cls = cluster_labels(run.layers[1].spec)
        z = (cls[None, :] == y[:, None]).astype(float)
        return grad, cf_batch_loss(h_head, z, run.rule_params[1])

    if rule == "cf":
        acts = _forward(run.layers[:t + 1], weights[:t + 1], x)
        for layer, act_in in zip(run.layers[:t + 1], acts[:-1]):
            _log_forward_reads(run, layer, act_in)
        grad = cf_gradient(acts[t], acts[t + 1], y, run.rule_params[t],
                           run.layers[t].spec)
        cls = cluster_labels(run.layers[t].spec)
        z = (cls[None, :] == y[:, None]).astype(float)
        return grad, cf_batch_loss(acts[t + 1], z, run.rule_params[t])

    raise ValueError(f"unknown rule {rule!r}")


def train(run: TrainingRun, train_ds: FeatureDataset,
          val_ds: FeatureDataset | None = None) -> TrainingRun:
    """Execute the schedule; deterministic for a fixed (run, datasets).

    An empty phase list is the zero-epoch run: nothing is touched and the
    network keeps its initialization.
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
    global_epoch = 0
    for phase in run.schedule.phases:
        t = phase.layer
        for _ in range(phase.epochs):
            order = rng.permutation(n)
            losses = []
            for b_idx, start in enumerate(range(0, n, batch)):
                sel = order[start:start + batch]
                x, y = train_ds.features[sel], train_ds.labels[sel]
                weights = [layer.read_weights() for layer in run.layers]
                grad, loss = _batch_gradient(run, weights, t, x, y, rng)
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
                run.step_log.append(StepRecord(global_epoch, b_idx, t, loss,
                                               applied, skipped))
            run.epoch_log.append(EpochRecord(global_epoch, t, "train",
                                             loss=float(np.mean(losses))))
            if val_ds is not None:
                run.epoch_log.append(EpochRecord(global_epoch, t, "val",
                                                 accuracy=evaluate(run, val_ds)))
            global_epoch += 1
    run.completed = True
    return run


def _cluster_goodness(h: np.ndarray, spec: LayerSpec) -> np.ndarray:
    n_classes, size = spec.clusters
    return (h ** 2).reshape(len(h), n_classes, size).sum(axis=2)


def evaluate_weights(specs: list[LayerSpec], weights: list[np.ndarray],
                     dataset: FeatureDataset, rule: str,
                     token_amplitude: float = 1.0) -> float:
    """Accuracy of a weight stack on a dataset (no side effects)."""
    x = dataset.features
    if rule == "sff":
        n_classes = specs[-1].clusters[0]
        tokens = np.full((len(x), n_classes), token_amplitude / n_classes)
        x = np.hstack([x, tokens])
    acts = x
    for spec, w in zip(specs, weights):
        pre = acts @ w.T
        acts = np.maximum(pre, 0.0) if spec.activation == "relu" else pre
    if specs[-1].clusters is not None:
        scores = _cluster_goodness(acts, specs[-1])
    else:
        scores = acts
    return float(np.mean(scores.argmax(axis=1) == dataset.labels))


def predict(run: TrainingRun, x: np.ndarray) -> np.ndarray:
    """Class predictions; ties resolve to the lowest class index."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    weights = [layer.read_weights() for layer in run.layers]
    if run.schedule.rule == "sff":
        if run.sff_inference == "per_label":
            return _sff_predict_per_label(run, x, weights)
        tokens = np.full((len(x), run.n_classes),
                         run.token_amplitude / run.n_classes)
        x = np.hstack([x, tokens])
    acts = _forward(run.layers, weights, x)[-1]
    if run.layers[-1].spec.clusters is not None:
        scores = _cluster_goodness(acts, run.layers[-1].spec)
    else:
        scores = acts
    return scores.argmax(axis=1)


def _sff_predict_per_label(run: TrainingRun, x: np.ndarray,
                           weights: list[np.ndarray]) -> np.ndarray:
    """C forward passes; pick the label token with maximal layer goodness."""
    n_classes = run.n_classes
    scores = np.empty((len(x), n_classes))
    for c in range(n_classes):
        tokens = np.zeros((len(x), n_classes))
        tokens[:, c] = run.token_amplitude
        h = np.maximum(np.hstack([x, tokens]) @ weights[0].T, 0.0)
        scores[:, c] = (h ** 2).sum(axis=1)
    return scores.argmax(axis=1)


def sff_predict(run: TrainingRun, x) -> int | np.ndarray:
    """Single-pass neutral-token prediction through the cluster head."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    labels = predict(run, np.atleast_2d(x))
    return int(labels[0]) if single else labels


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


def simulate_aging(run: TrainingRun, day_checkpoints: list[float],
                   drift_params: DriftModelParams, rng: np.random.Generator,
                   n_repeats: int, test_ds: FeatureDataset) -> list[AgingPoint]:
    """Post-training retention study.

    For every repeat and checkpoint, each device conductance receives an
    independent drift draw (pulse indices stay frozen: drift perturbs what a
    read returns, not the replay state), and test accuracy is re-evaluated.
    """
    if not run.completed:
        raise RuntimeError("run must be completed before aging analysis")
    if list(day_checkpoints) != sorted(day_checkpoints):
        raise ValueError("day checkpoints must be sorted ascending")
    if not run.is_device:
        raise ValueError("aging applies to device-mode runs")
    conds = [layer.array.conductances() for layer in run.layers]
    scales = [layer.array.scale_s for layer in run.layers]
    specs = [layer.spec for layer in run.layers]
    points = [AgingPoint(day, []) for day in day_checkpoints]
    for _ in range(n_repeats):
        for point in points:
            weights = []
            for (g_plus, g_minus), s in zip(conds, scales):
                gp = apply_retention_drift(g_plus, point.day, drift_params, rng)
                gm = apply_retention_drift(g_minus, point.day, drift_params, rng)
                weights.append(s * (gp - gm))
            point.accuracies.append(
                evaluate_weights(specs, weights, test_ds, run.schedule.rule,
                                 run.token_amplitude))
    return points


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
