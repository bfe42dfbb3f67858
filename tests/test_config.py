"""Run config: where each default is stated, and the acceptance experiment."""

import dataclasses
import inspect
import json

import pytest

from memgrad import config, data, energy, rules, trainer
from memgrad.crossbar import CrossbarArray
from memgrad.device import (DriftModelParams, SyntheticTrajectoryParams,
                            generate_trajectory_bank, save_bank_csv)

# Parameters that every caller passes from the effective config, so none of
# them states a default of its own
REQUIRED = {
    data.make_cluster_task: ["n_classes", "n_features", "n_per_class", "center_scale",
                             "noise_sigma", "seed"],
    trainer.Schedule: ["batch_size", "tau", "learning_rate", "plan_mode", "float_update"],
    CrossbarArray: ["ledger", "gain_kappa"],
    CrossbarArray.build: ["ledger", "gain_kappa", "pre_pulse_max"],
    CrossbarArray.apply_update_plan: ["policy"],
    trainer.evaluate_weights: ["token_amplitude", "sff_inference"],
    trainer.age_conductances: ["token_amplitude", "sff_inference"],
    rules.threshold_sign_plan: ["mode"],
}


@pytest.mark.parametrize("function", REQUIRED, ids=lambda f: f.__qualname__)
def test_config_values_have_no_keyword_default(function):
    params = inspect.signature(function).parameters
    assert {name: params[name].default for name in REQUIRED[function]} == {
        name: inspect.Parameter.empty for name in REQUIRED[function]}


def test_array_technology_is_its_ledgers():
    for function in (CrossbarArray, CrossbarArray.build):
        assert "tech" not in inspect.signature(function).parameters


def test_energy_constants_are_not_arguments():
    assert list(inspect.signature(energy.pv_baseline_energy).parameters) == ["update_count"]
    assert list(inspect.signature(energy.mac_energy_projection).parameters) == ["mac_count"]


def test_typed_blocks_are_their_types_defaults():
    cfg = config.DEFAULT_CONFIG
    drift = DriftModelParams()
    assert cfg["bank"]["params"] == dataclasses.asdict(SyntheticTrajectoryParams())
    assert cfg["split"] == dataclasses.asdict(data.SplitSpec())
    assert cfg["rules"]["sff"] == dataclasses.asdict(rules.SFFParams())
    for block in ("sff_head", "cf_last"):
        assert cfg["rules"][block] == dataclasses.asdict(rules.CFParams())
    assert cfg["rules"]["cf_first"] == dataclasses.asdict(rules.CFParams(eta=-1))
    assert cfg["drift"] == {**dataclasses.asdict(drift),
                            "targets": [list(target) for target in drift.targets]}
    assert config.build_drift_params(cfg) == drift


# a desk experiment small enough to run twice in about a second
TINY = {
    "task": {"n_classes": 4, "n_features": 12, "n_per_class": 30, "noise_sigma": 0.3,
             "seed": 21},
    "arch": {"hidden_units": 12, "cluster_size": 3},
    "schedule": {"epochs": [1, 1]},
}


def spy(monkeypatch, name):
    """Record the calls of ``config.<name>`` from now on."""
    calls, real = [], getattr(config, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(config, name, counted)
    return calls


class TestReproduce:
    @pytest.mark.parametrize("seeds", [[], [0]])
    def test_fewer_than_two_seeds_refused_before_training(self, monkeypatch, seeds):
        built, trained = spy(monkeypatch, "build_dataset"), spy(monkeypatch, "train")
        with pytest.raises(config.ConfigError, match=f"got {len(seeds)}"):
            config.reproduce(config.effective_config(TINY), seeds)
        assert built == [] and trained == []

    def test_measured_bank_parsed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "bank.csv"
        save_bank_csv(generate_trajectory_bank(
            SyntheticTrajectoryParams(p_max=200, anomalous_probability=0.0), 40, 5), path)
        cfg = config.effective_config({**TINY, "bank": {"path": str(path)}})
        parsed = spy(monkeypatch, "load_bank_csv")
        shared = config.reproduce(cfg, [0, 1])
        assert len(parsed) == 1
        # the same experiment with every device run parsing its own bank
        build = config.build_training_run
        monkeypatch.setattr(config, "build_training_run",
                            lambda cfg, seed, dataset, bank=None: build(cfg, seed, dataset))
        parsed.clear()
        own = config.reproduce(cfg, [0, 1])
        assert len(parsed) == 1 + 6     # the shared parse, then one per device run
        assert json.dumps(shared) == json.dumps(own)
