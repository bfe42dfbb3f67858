"""Run configuration: defaults, schema validation, and object building.

A run is fully described by one JSON document.  User configs are deep-merged
over the defaults below, validated against the shipped schema (unknown keys
are rejected), and echoed verbatim into the run manifest together with a
content hash, so any run can be reproduced from its manifest alone.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import itertools
import json
import math

import numpy as np

from . import data as data_mod
from .artifacts import invalid_at
from .device import (DriftModelParams, LARGE_ARRAY, TECH_PROFILES,
                     SyntheticTrajectoryParams, generate_trajectory_bank,
                     load_bank_csv)
from .crossbar import CrossbarArray, OnExhaustion
from .energy import EnergyLedger
from .rules import CFParams, SFFParams
from .stats import welch_t_test
from .trainer import (DEFAULT_TAU, FLOAT_INIT_SIGMA, NetworkLayer, Schedule,
                      TrainingRun, _layer_specs, _phases, evaluate,
                      pulse_statistics, simulate_aging, train)

__all__ = [
    "ConfigError",
    "DEFAULT_CONFIG",
    "load_config",
    "validate_config",
    "effective_config",
    "config_hash",
    "build_dataset",
    "build_split_indices",
    "build_splits",
    "build_bank",
    "measured_bank",
    "build_drift_params",
    "build_training_run",
    "reproduce",
    "TECH_PROFILES",
]

# typed parameter blocks state their own defaults; the rest are stated here
_DRIFT = DriftModelParams()
DEFAULT_CONFIG: dict = {
    "seed": 0,
    "repeat": 1,
    "algorithm": "cf",
    "task": {
        "kind": "synthetic",
        "n_classes": 4,
        "n_features": 32,
        "n_per_class": 1000,
        "center_scale": 1.0,
        "noise_sigma": 1.1,
        "seed": 123,
    },
    "split": dataclasses.asdict(data_mod.SplitSpec()),
    "arch": {"hidden_units": 48, "cluster_size": 12, "single_layer": False},
    "schedule": {
        "batch_size": 16,
        "tau": None,               # null = per-algorithm default
        "learning_rate": 0.05,
        "epochs": None,            # null = per-algorithm default
        "plan_mode": "descent",
        "float_update": "sgd",
    },
    "device": {
        "tech": "large_array",
        "gain_kappa": 5e4,
        "pre_pulse_max": 50,
        "on_exhaustion": "skip",
    },
    "bank": {
        "count": 1268,
        "seed": None,              # null = derived from the run seed
        "path": None,
        "params": dataclasses.asdict(SyntheticTrajectoryParams()),
    },
    "rules": {
        "token_amplitude": 1.0,
        "sff_inference": "neutral",
        "sff": dataclasses.asdict(SFFParams()),
        "sff_head": dataclasses.asdict(CFParams()),
        # the CF first layer learns with inverted goodness sign: it
        # suppresses the target cluster and lets the output layer
        # concentrate the activity
        "cf_first": dataclasses.asdict(CFParams(eta=-1)),
        "cf_last": dataclasses.asdict(CFParams()),
    },
    # JSON keeps the calibration targets as lists
    "drift": {**dataclasses.asdict(_DRIFT),
              "targets": [list(target) for target in _DRIFT.targets]},
}


class ConfigError(ValueError):
    """Configuration rejected by the schema or semantically invalid."""


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def validate_config(cfg: dict):
    error = invalid_at(cfg, "run_config.schema.json")
    if error is not None:
        raise ConfigError(f"config {error}")


def effective_config(user_cfg: dict | None = None,
                     overrides: dict | None = None) -> dict:
    """Defaults <- config file <- CLI overrides, validated; always a new dict."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if user_cfg:
        validate_config(user_cfg)
        cfg = _deep_merge(cfg, user_cfg)
    if overrides:
        cfg = _deep_merge(cfg, overrides)
    validate_config(cfg)
    _check_epochs(cfg)
    _check_drift(cfg)
    return cfg


def _check_epochs(cfg: dict):
    """``schedule.epochs`` is null or one count per layer: a single-layer
    arch is backprop's alone, and the forward rules have two layers."""
    epochs = cfg["schedule"]["epochs"]
    single = cfg["arch"]["single_layer"] and cfg["algorithm"].endswith("bp")
    n_layers = 1 if single else 2
    if epochs is not None and len(epochs) != n_layers:
        raise ConfigError(f"schedule.epochs = {epochs} needs one epoch count per layer, "
                          f"{n_layers} for {cfg['algorithm']}")


def _check_drift(cfg: dict):
    """The ``drift`` block builds a DriftModelParams: the schema cannot see
    two calibration targets on one day."""
    try:
        build_drift_params(cfg)
    except ValueError as exc:
        raise ConfigError(f"drift.targets: {exc}") from exc


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    user_cfg = None
    if path is not None:
        try:
            with open(path) as f:
                user_cfg = json.load(f)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(user_cfg, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    return effective_config(user_cfg, overrides)


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_dataset(cfg: dict) -> data_mod.FeatureDataset:
    task = cfg["task"]
    if task["kind"] == "synthetic":
        return data_mod.make_cluster_task(
            n_classes=task["n_classes"], n_features=task["n_features"],
            n_per_class=task["n_per_class"], center_scale=task["center_scale"],
            noise_sigma=task["noise_sigma"], seed=task["seed"])
    if task["kind"] == "csv":
        if "path" not in task:
            raise ConfigError("task.kind=csv needs task.path")
        return data_mod.load_feature_csv(task["path"])
    if task["kind"] == "idx":
        if "images" not in task or "labels" not in task:
            raise ConfigError("task.kind=idx needs task.images and task.labels")
        return data_mod.load_idx(task["images"], task["labels"])
    raise ConfigError(f"unknown task kind {task['kind']!r}")


def build_split_indices(cfg: dict, dataset: data_mod.FeatureDataset) -> dict:
    """Sample indices of the config's train/val/test split, none of them empty."""
    try:
        indices = data_mod.split_indices(dataset, data_mod.SplitSpec(**cfg["split"]))
    except ValueError as exc:
        raise ConfigError(f"split: {exc}") from exc
    for name, idx in indices.items():
        if not idx:
            raise ConfigError(f"split.{name} = {cfg['split'][name]} leaves the {name} split "
                              f"empty ({dataset.n_samples} samples)")
    return indices


def build_splits(cfg: dict, dataset: data_mod.FeatureDataset):
    return data_mod.split(dataset, build_split_indices(cfg, dataset))


def measured_bank(cfg: dict):
    """The measured bank at ``bank.path``, parsed, or None for a synthetic one;
    callers that train several device runs parse it once and pass it to each."""
    path = cfg["bank"]["path"]
    return load_bank_csv(path) if path else None


def build_bank(cfg: dict, run_seed: int):
    bank = measured_bank(cfg)
    if bank is not None:
        return bank
    bank_cfg = cfg["bank"]
    params = SyntheticTrajectoryParams(**bank_cfg["params"])
    seed = bank_cfg["seed"]
    if seed is None:
        # one bank per run, tied to the run seed
        seed = int(np.random.SeedSequence([run_seed, 0xBA9C]).generate_state(1)[0])
    return generate_trajectory_bank(params, bank_cfg["count"], seed)


def build_drift_params(cfg: dict) -> DriftModelParams:
    d = cfg["drift"]
    return DriftModelParams(sigma_core=d["sigma_core"], sigma_tail=d["sigma_tail"],
                            targets=tuple(tuple(t) for t in d["targets"]))


def _rule_params(rules: dict, rule: str) -> list | None:
    if rule == "bp":
        return None
    if rule == "sff":
        return [SFFParams(**rules["sff"]), CFParams(**rules["sff_head"])]
    return [CFParams(**rules["cf_first"]), CFParams(**rules["cf_last"])]


def build_training_run(cfg: dict, seed: int, dataset: data_mod.FeatureDataset,
                       bank=None) -> TrainingRun:
    """Instantiate a TrainingRun for one seed from an effective config.

    This is the one constructor of a run: each setting goes to the object
    that uses it.  A device run without ``bank`` builds its own; ``bank``
    passes a :func:`measured_bank`, parsed once for several runs.  Before
    the first read, the bank is filled as deep as the schedule can read it.
    """
    _check_epochs(cfg)
    algorithm = cfg["algorithm"]
    rule = algorithm.removeprefix("float_")
    is_float = algorithm.startswith("float_")
    arch, sched, dev, rules = cfg["arch"], cfg["schedule"], cfg["device"], cfg["rules"]
    rule_params = _rule_params(rules, rule)
    specs = _layer_specs(rule, dataset.n_features, dataset.n_classes,
                         arch["hidden_units"], arch["cluster_size"],
                         arch["single_layer"], rule_params)
    rule_params = rule_params or [None] * len(specs)
    tau = sched["tau"]
    if tau is None:
        tau = 0.0 if is_float else DEFAULT_TAU[rule]
    schedule = Schedule(phases=_phases(rule, len(specs), sched["epochs"]),
                        algorithm=algorithm, batch_size=sched["batch_size"],
                        tau=tau, learning_rate=sched["learning_rate"],
                        plan_mode=sched["plan_mode"],
                        float_update=sched["float_update"])
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11]))
    ledger = EnergyLedger(TECH_PROFILES[dev["tech"]])
    if is_float:
        layers = [NetworkLayer(spec, weights=rng.normal(
                      0.0, FLOAT_INIT_SIGMA, (spec.n_out, spec.n_in)))
                  for spec in specs]
    else:
        if bank is None:
            bank = build_bank(cfg, seed)
        # a cursor moves at most one sample per step of its layer's one phase,
        # and largest-remainder rounding adds at most one train sample per class
        n_train = math.floor(dataset.n_samples * cfg["split"]["train"]) + dataset.n_classes
        steps = max(phase.epochs for phase in schedule.phases) * math.ceil(
            n_train / sched["batch_size"])
        bank.fill(dev["pre_pulse_max"] + 1 + steps)
        layers = [NetworkLayer(spec, array=CrossbarArray.build(
                      spec.n_in, spec.n_out, bank, rng, ledger, dev["gain_kappa"],
                      dev["pre_pulse_max"]))
                  for spec in specs]
    return TrainingRun(layers=layers, schedule=schedule, seed=seed,
                       rule_params=rule_params,
                       token_amplitude=rules["token_amplitude"],
                       sff_inference=rules["sff_inference"],
                       on_exhaustion=OnExhaustion(dev["on_exhaustion"]),
                       ledger=ledger)


# the acceptance experiment, fixed: the methods in their order on each seed,
# the oracle's seed, and the aging of the first seed's CF run
_METHODS, _ORACLE_SEED = ("bp", "sff", "cf"), 0
_AGING_DAYS, _AGING_REPEATS, _DRIFT_SEED = [0.0, 90.0], 20, 77


def reproduce(cfg: dict, seeds) -> dict:
    """The desk-scale experiment behind acceptance criteria 6, 7 and 9.

    Trains the float-BP oracle, then bp, sff and cf seed by seed, so that a
    seed's three runs share one draw pass, releasing each run before the
    next; ages the first seed's CF run.  Returns JSON-ready values:
    ``a_star``; per method and seed, ``test_accuracy``, ``pulse_statistics``
    and the bank ``window`` (``deepest_cursor``, ``kept_columns``,
    ``bank_width``); the ``aging`` accuracies per day; and the pairwise
    Welch ``p_values``, so it refuses fewer than two seeds before it trains.
    A measured bank is parsed once for every device run.  Judging the
    values is the caller's.
    """
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ConfigError(f"reproduce needs at least 2 seeds for its Welch tests, "
                          f"got {len(seeds)}")
    dataset = build_dataset(cfg)
    bank = measured_bank(cfg)
    train_ds, _, test_ds = build_splits(cfg, dataset)
    oracle = build_training_run({**cfg, "algorithm": "float_bp"}, _ORACLE_SEED, dataset)
    train(oracle, train_ds)
    a_star = evaluate(oracle, test_ds)
    del oracle
    accs, pulses, windows = ({method: [] for method in _METHODS} for _ in range(3))
    aging = None
    for k, seed in enumerate(seeds):
        for method in _METHODS:
            run = build_training_run({**cfg, "algorithm": method}, seed, dataset, bank)
            train(run, train_ds)
            accs[method].append(evaluate(run, test_ds))
            pulses[method].append(pulse_statistics(run))
            run_bank = run.layers[0].array.bank
            windows[method].append({
                "deepest_cursor": max(int(layer.array.cursors.max()) for layer in run.layers),
                "kept_columns": run_bank.filled, "bank_width": run_bank.width})
            if method == "cf" and k == 0:
                points = simulate_aging(run, _AGING_DAYS, build_drift_params(cfg),
                                        np.random.default_rng(_DRIFT_SEED),
                                        _AGING_REPEATS, test_ds)
                aging = [dataclasses.asdict(point) for point in points]
            del run, run_bank
        gc.collect()
    return {"a_star": a_star, "seeds": seeds, "test_accuracy": accs,
            "pulse_statistics": pulses, "window": windows, "aging": aging,
            "p_values": {f"{a}-{b}": welch_t_test(accs[a], accs[b])
                         for a, b in itertools.combinations(_METHODS, 2)}}
