"""Trainer orchestration: schedules, determinism, logging, evaluation, aging."""

import math

import numpy as np
import pytest

from memgrad import config
from memgrad.data import (FeatureDataset, SplitSpec, make_cluster_task, split,
                          split_indices)
from memgrad.crossbar import OnExhaustion
from memgrad.device import (LARGE_ARRAY, MAC_ARRAY, DriftModelParams,
                            SyntheticTrajectoryParams, generate_trajectory_bank)
from memgrad.rules import CFParams, LayerSpec, SFFParams
from memgrad.trainer import (NetworkLayer, Phase, Schedule, evaluate,
                             evaluate_weights, predict, pulse_statistics,
                             simulate_aging, train)


@pytest.fixture(scope="module")
def tiny_task():
    ds = make_cluster_task(n_classes=4, n_features=12, n_per_class=40,
                           center_scale=1.0, noise_sigma=0.3, seed=21)
    return split(ds, SplitSpec(seed=1))


@pytest.fixture(scope="module")
def tiny_bank():
    return generate_trajectory_bank(
        SyntheticTrajectoryParams(p_max=400, anomalous_probability=0.0), 64, seed=3)


def tiny_run(algorithm, bank, seed=0, n_features=12, single_layer=False,
             **schedule):
    """A run on the tiny task's shape, built from a config like every run."""
    cfg = config.effective_config(None, {
        "algorithm": algorithm,
        "arch": {"hidden_units": 12, "cluster_size": 3, "single_layer": single_layer},
        "schedule": schedule})
    shape = FeatureDataset(np.zeros((4, n_features)), np.arange(4), 4)
    return config.build_training_run(cfg, seed, shape, bank)


class TestSchedules:
    def test_bp_defaults_output_first(self, tiny_bank):
        sched = tiny_run("bp", tiny_bank).schedule
        assert [(p.layer, p.epochs) for p in sched.phases] == [(1, 10), (0, 20)]

    def test_perceptron_default(self, tiny_bank):
        sched = tiny_run("bp", tiny_bank, single_layer=True).schedule
        assert [(p.layer, p.epochs) for p in sched.phases] == [(0, 20)]

    def test_forward_rules_input_first(self, tiny_bank):
        for algo in ("sff", "cf", "float_sff", "float_cf"):
            sched = tiny_run(algo, tiny_bank).schedule
            assert [p.layer for p in sched.phases] == [0, 1]

    def test_phase_needs_positive_epochs(self):
        with pytest.raises(ValueError):
            Phase(0, 0)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            Schedule(phases=[], algorithm="nope", batch_size=16, tau=0.0,
                     learning_rate=0.05, plan_mode="descent", float_update="sgd")


def _cursors_max(run):
    return max(int(layer.array.cursors.max()) for layer in run.layers)


# (algorithm, non-default override, what the built run carries, expected)
RUN_SETTINGS = {
    "batch_size": ("cf", {"schedule": {"batch_size": 5}},
                   lambda run: run.schedule.batch_size, 5),
    "tau": ("cf", {"schedule": {"tau": 0.02}}, lambda run: run.schedule.tau, 0.02),
    "tau_default": ("bp", {}, lambda run: run.schedule.tau, 0.045),
    "tau_float": ("float_cf", {}, lambda run: run.schedule.tau, 0.0),
    "learning_rate": ("float_bp", {"schedule": {"learning_rate": 0.3}},
                      lambda run: run.schedule.learning_rate, 0.3),
    "plan_mode": ("bp", {"schedule": {"plan_mode": "paper_literal"}},
                  lambda run: run.schedule.plan_mode, "paper_literal"),
    "float_update": ("float_sff", {"schedule": {"float_update": "sign"}},
                     lambda run: run.schedule.float_update, "sign"),
    "epochs": ("bp", {"schedule": {"epochs": [2, 3]}},
               lambda run: [(p.layer, p.epochs) for p in run.schedule.phases],
               [(1, 2), (0, 3)]),
    "token_amplitude": ("sff", {"rules": {"token_amplitude": 0.5}},
                        lambda run: run.token_amplitude, 0.5),
    "sff_inference": ("sff", {"rules": {"sff_inference": "per_label"}},
                      lambda run: run.sff_inference, "per_label"),
    "sff": ("sff", {"rules": {"sff": {"theta_plus": 3.0, "theta_minus": 0.5,
                                      "eta": -1}}},
            lambda run: (run.rule_params[0], run.layers[0].spec.eta),
            (SFFParams(3.0, 0.5, -1), -1.0)),
    "sff_head": ("float_sff", {"rules": {"sff_head": {"variant": "offset",
                                                      "eta": -1}}},
                 lambda run: (run.rule_params[1], run.layers[1].spec.eta),
                 (CFParams("offset", 0.15, 0.15, -1), -1.0)),
    "cf_first": ("cf", {"rules": {"cf_first": {"theta_plus": 0.3, "eta": 1}}},
                 lambda run: (run.rule_params[0], run.layers[0].spec.eta),
                 (CFParams("temperature", 0.3, 0.15, 1), 1.0)),
    "cf_last": ("float_cf", {"rules": {"cf_last": {"theta_minus": 0.4}}},
                lambda run: (run.rule_params[1], run.layers[1].spec.eta),
                (CFParams("temperature", 0.15, 0.4, 1), 1.0)),
    "on_exhaustion": ("cf", {"device": {"on_exhaustion": "reinit"}},
                      lambda run: run.on_exhaustion, OnExhaustion.REINIT),
    "gain_kappa": ("bp", {"device": {"gain_kappa": 2e4}},
                   lambda run: [l.array.scale_s for l in run.layers],
                   [2e4 * LARGE_ARRAY.v_read] * 2),
    "pre_pulse_max": ("sff", {"device": {"pre_pulse_max": 0}}, _cursors_max, 0),
    "tech": ("cf", {"device": {"tech": "mac_array"}},
             lambda run: [l.array.tech for l in run.layers], [MAC_ARRAY] * 2),
    "hidden_units": ("bp", {"arch": {"hidden_units": 7}},
                     lambda run: [(l.spec.n_in, l.spec.n_out) for l in run.layers],
                     [(12, 7), (7, 4)]),
    "cluster_size": ("cf", {"arch": {"cluster_size": 2}},
                     lambda run: [l.spec.clusters for l in run.layers], [(4, 2)] * 2),
    "single_layer": ("float_bp", {"arch": {"single_layer": True}},
                     lambda run: [(p.layer, p.epochs) for p in run.schedule.phases],
                     [(0, 20)]),
}


class TestBuildTrainingRun:
    """Every run setting reaches the run through its one constructor."""

    @pytest.mark.parametrize("setting", sorted(RUN_SETTINGS))
    def test_setting_reaches_run(self, tiny_task, tiny_bank, setting):
        algorithm, override, carried, expected = RUN_SETTINGS[setting]
        cfg = config.effective_config(None, {"algorithm": algorithm, **override})
        run = config.build_training_run(cfg, 0, tiny_task[0], tiny_bank)
        assert carried(run) == expected

    def test_defaults_build_the_default_run(self, tiny_task, tiny_bank):
        run = config.build_training_run(config.effective_config(), 0,
                                        tiny_task[0], tiny_bank)
        assert run.rule_params == [CFParams(eta=-1), CFParams(eta=1)]
        assert [l.spec.eta for l in run.layers] == [-1.0, 1.0]
        assert (run.schedule.batch_size, run.schedule.tau) == (16, 1e-3)
        assert run.on_exhaustion is OnExhaustion.SKIP
        assert _cursors_max(run) > 0

    def test_epoch_count_per_layer(self, tiny_task, tiny_bank):
        cfg = config.effective_config()
        cfg["schedule"]["epochs"] = [1]
        with pytest.raises(config.ConfigError, match=r"schedule.epochs = \[1\] needs one"):
            config.build_training_run(cfg, 0, tiny_task[0], tiny_bank)


class TestTrain:
    def test_zero_epoch_schedule(self, tiny_task, tiny_bank):
        train_ds, _, test_ds = tiny_task
        run = tiny_run("cf", tiny_bank)
        run.schedule.phases = []
        before = evaluate(run, test_ds)
        train(run, train_ds)
        assert evaluate(run, test_ds) == before
        assert pulse_statistics(run)["total_pulses"] == 0
        assert run.step_log.shape == run.epoch_log.shape == (0,)

    def test_device_determinism(self, tiny_task, tiny_bank):
        train_ds, _, _ = tiny_task
        logs = []
        for _ in range(2):
            run = tiny_run("cf", tiny_bank, seed=5, epochs=[2, 2])
            train(run, train_ds)
            logs.append(run.step_log)
        assert np.array_equal(logs[0], logs[1])

    def test_float_determinism_bit_identical(self, tiny_task):
        train_ds, _, _ = tiny_task
        weights = []
        for _ in range(2):
            run = tiny_run("float_bp", None, seed=5, epochs=[2, 2])
            train(run, train_ds)
            weights.append([layer.weights.copy() for layer in run.layers])
        for a, b in zip(*weights):
            assert np.array_equal(a, b)

    def test_float_bp_learns_separable_task(self, tiny_task):
        train_ds, _, test_ds = tiny_task
        run = tiny_run("float_bp", None, epochs=[8, 12], learning_rate=0.3)
        before = evaluate(run, train_ds)
        train(run, train_ds, val_ds=test_ds)
        assert evaluate(run, train_ds) >= before
        assert evaluate(run, test_ds) > 0.9

    def test_bp_phase_ordering_in_log(self, tiny_task, tiny_bank):
        train_ds, _, _ = tiny_task
        run = tiny_run("bp", tiny_bank, epochs=[1, 1])
        train(run, train_ds)
        layer_sequence = run.step_log["layer"].tolist()
        switch = layer_sequence.index(0)
        assert all(l == 1 for l in layer_sequence[:switch])
        assert all(l == 0 for l in layer_sequence[switch:])

    def test_forward_phase_ordering_in_log(self, tiny_task, tiny_bank):
        train_ds, _, _ = tiny_task
        for algo in ("sff", "cf"):
            run = tiny_run(algo, tiny_bank, epochs=[1, 1])
            train(run, train_ds)
            layer_sequence = run.step_log["layer"].tolist()
            switch = layer_sequence.index(1)
            assert all(l == 0 for l in layer_sequence[:switch])
            assert all(l == 1 for l in layer_sequence[switch:])

    def test_frozen_layers_get_zero_pulses(self, tiny_task, tiny_bank):
        train_ds, _, _ = tiny_task
        run = tiny_run("cf", tiny_bank, epochs=[2, 1])
        train(run, train_ds)
        layer0_pulses = int(run.layers[0].array.pulse_counts.sum())
        # retrain nothing: pulses on layer 1 only come from its own phase
        log = run.step_log
        assert log["applied"][log["layer"] == 0].sum() == layer0_pulses

    def test_one_pulse_per_weight_per_batch(self, tiny_task, tiny_bank):
        train_ds, _, _ = tiny_task
        run = tiny_run("cf", tiny_bank, epochs=[1, 1], tau=0.0)
        train(run, train_ds)
        weights = np.array([layer.spec.n_in * layer.spec.n_out for layer in run.layers])
        log = run.step_log
        assert np.all(log["applied"] + log["skipped"] <= weights[log["layer"]])

    def test_pulse_log_matches_device_counters(self, tiny_task, tiny_bank):
        train_ds, _, _ = tiny_task
        run = tiny_run("bp", tiny_bank, epochs=[1, 1])
        train(run, train_ds)
        stats = pulse_statistics(run)
        assert stats["total_pulses"] == run.step_log["applied"].sum()
        assert stats["total_pulses"] == run.ledger.pulse_count

    def test_buffered_memory_formulas(self, tiny_task, tiny_bank):
        train_ds, _, _ = tiny_task
        n_b = 16
        run = tiny_run("sff", tiny_bank, epochs=[1, 1])
        train(run, train_ds)
        spec0 = run.layers[0].spec
        assert run.max_buffered_scalars[0] == n_b * (2 + 2 * spec0.n_in
                                                     + 2 * spec0.n_out)
        spec1 = run.layers[1].spec
        assert run.max_buffered_scalars[1] == n_b * (3 + spec1.n_in + spec1.n_out)

    def test_dataset_dimension_mismatch(self, tiny_task, tiny_bank):
        train_ds, _, _ = tiny_task
        run = tiny_run("cf", tiny_bank, n_features=9)
        with pytest.raises(ValueError, match="features"):
            train(run, train_ds)

    def test_completed_run_rejects_retrain(self, tiny_task, tiny_bank):
        train_ds, _, _ = tiny_task
        run = tiny_run("cf", tiny_bank, epochs=[1, 1])
        train(run, train_ds)
        with pytest.raises(RuntimeError):
            train(run, train_ds)

    def test_validation_logged_per_epoch(self, tiny_task, tiny_bank):
        train_ds, val_ds, _ = tiny_task
        run = tiny_run("cf", tiny_bank, epochs=[2, 3])
        train(run, train_ds, val_ds)
        assert len(run.epoch_log) == 5
        assert not np.isnan(run.epoch_log["val_accuracy"]).any()

    def test_log_arrays_without_val_split(self, tiny_task, tiny_bank):
        train_ds, _, _ = tiny_task
        run = tiny_run("cf", tiny_bank, epochs=[2, 1])
        train(run, train_ds)
        per_epoch = -(-train_ds.n_samples // run.schedule.batch_size)
        log = run.step_log
        assert log.dtype.names == ("epoch", "batch", "layer", "loss", "applied", "skipped")
        assert len(log) == 3 * per_epoch
        assert log["epoch"].tolist() == np.repeat([0, 1, 2], per_epoch).tolist()
        assert log["batch"].tolist() == list(range(per_epoch)) * 3
        assert log["applied"].sum() == run.ledger.pulse_count
        epochs = run.epoch_log
        assert epochs.dtype.names == ("layer", "loss", "val_accuracy")
        assert epochs["layer"].tolist() == [0, 0, 1]
        assert epochs["loss"].tolist() == [
            np.mean(log["loss"][log["epoch"] == e]) for e in range(3)]
        assert np.isnan(epochs["val_accuracy"]).all()


class TestDevicePerceptron:
    def test_single_layer_bp_trains_on_device(self, tiny_task, tiny_bank):
        train_ds, _, test_ds = tiny_task
        run = tiny_run("bp", tiny_bank, single_layer=True, epochs=[3], tau=0.01)
        assert len(run.layers) == 1
        before = evaluate(run, test_ds)
        train(run, train_ds)
        assert pulse_statistics(run)["total_pulses"] > 0
        assert evaluate(run, test_ds) >= before - 0.05


class TestEvaluate:
    def test_cluster_goodness_prediction(self):
        # one sample whose own-cluster goodness dominates -> correct class
        spec = LayerSpec(2, 6, clusters=(3, 2))
        w = np.zeros((6, 2))
        w[2] = [1.0, 1.0]   # cluster 1 responds to the input
        layers = [spec]
        x = np.array([[1.0, 1.0]])
        from memgrad.data import FeatureDataset
        ds = FeatureDataset(x, np.array([1]), 3)
        assert evaluate_weights(layers, [w], ds, "cf", 1.0, "neutral") == 1.0

    def test_random_logits_chance_level(self):
        rng = np.random.default_rng(0)
        spec = LayerSpec(4, 4, activation="identity")
        w = rng.normal(0, 1, (4, 4))
        from memgrad.data import FeatureDataset
        x = rng.normal(0, 1, (10_000, 4))
        labels = rng.integers(0, 4, 10_000)
        ds = FeatureDataset(x, labels, 4)
        acc = evaluate_weights([spec], [w], ds, "bp", 1.0, "neutral")
        assert acc == pytest.approx(0.25, abs=0.02)

    def test_side_effect_free(self, tiny_task, tiny_bank):
        _, _, test_ds = tiny_task
        run = tiny_run("cf", tiny_bank)
        counts = run.layers[0].array.pulse_counts.copy()
        a = evaluate(run, test_ds)
        b = evaluate(run, test_ds)
        assert a == b
        assert np.array_equal(run.layers[0].array.pulse_counts, counts)

    def test_ties_break_to_lowest_class(self):
        spec = LayerSpec(2, 4, activation="identity")
        w = np.zeros((4, 2))
        from memgrad.data import FeatureDataset
        ds = FeatureDataset(np.ones((1, 2)), np.array([0]), 4)
        assert evaluate_weights([spec], [w], ds, "bp", 1.0, "neutral") == 1.0


class TestSffPredict:
    def test_scale_invariance_of_head_argmax(self, tiny_task, tiny_bank):
        train_ds, _, test_ds = tiny_task
        run = tiny_run("sff", tiny_bank, epochs=[1, 1])
        train(run, train_ds)
        base = predict(run, test_ds.features)
        # scaling all head activations by a positive constant cannot change
        # the cluster-goodness argmax: check via the weights path
        specs = [l.spec for l in run.layers]
        weights = [l.read_weights() for l in run.layers]
        scaled = [weights[0], 3.0 * weights[1]]
        accs = evaluate_weights(specs, weights, test_ds, "sff",
                                run.token_amplitude, run.sff_inference)
        accs_scaled = evaluate_weights(specs, scaled, test_ds, "sff",
                                       run.token_amplitude, run.sff_inference)
        assert accs == accs_scaled
        assert base.shape == (test_ds.n_samples,)

    def test_per_label_protocol_agreement_reported(self, tiny_task, tiny_bank, capsys):
        train_ds, _, test_ds = tiny_task
        run = tiny_run("sff", tiny_bank, epochs=[2, 2])
        train(run, train_ds)
        neutral = predict(run, test_ds.features)
        run.sff_inference = "per_label"
        per_label = predict(run, test_ds.features)
        agreement = float(np.mean(neutral == per_label))
        # the two inference protocols are alternatives, not equivalents:
        # agreement is reported for inspection, not asserted
        print(f"neutral vs per-label agreement: {agreement:.3f}")
        assert 0.0 <= agreement <= 1.0


class TestAging:
    def test_day_zero_identity(self, tiny_task, tiny_bank):
        train_ds, _, test_ds = tiny_task
        run = tiny_run("cf", tiny_bank, epochs=[1, 1])
        train(run, train_ds)
        base = evaluate(run, test_ds)
        points = simulate_aging(run, [0.0], DriftModelParams(),
                                np.random.default_rng(0), 3, test_ds)
        assert points[0].accuracies == [base] * 3

    def test_day_zero_uses_run_inference_protocol(self):
        # default task, SFF seed 0, one epoch per layer: the neutral and the
        # per-label protocol score this run differently, so day 0 must use
        # the run's own protocol to reproduce its test accuracy
        cfg = config.effective_config(None, {
            "algorithm": "sff", "schedule": {"epochs": [1, 1]},
            "rules": {"sff_inference": "per_label"}})
        dataset = config.build_dataset(cfg)
        train_ds, _, test_ds = config.build_splits(cfg, dataset)
        run = config.build_training_run(cfg, 0, dataset)
        train(run, train_ds)
        acc = evaluate(run, test_ds)
        run.sff_inference = "neutral"
        assert evaluate(run, test_ds) != acc
        run.sff_inference = "per_label"
        points = simulate_aging(run, [0.0], DriftModelParams(),
                                np.random.default_rng(0), 2, test_ds)
        assert points[0].accuracies == [acc] * 2

    def test_zero_variance_flat(self, tiny_task, tiny_bank):
        train_ds, _, test_ds = tiny_task
        run = tiny_run("cf", tiny_bank, epochs=[1, 1])
        train(run, train_ds)
        params = DriftModelParams(sigma_core=0.0, sigma_tail=0.0)
        points = simulate_aging(run, [0.0, 8.0, 90.0], params,
                                np.random.default_rng(0), 2, test_ds)
        base = points[0].accuracies[0]
        for point in points:
            assert all(acc == base for acc in point.accuracies)

    def test_requires_completed_run(self, tiny_task, tiny_bank):
        run = tiny_run("cf", tiny_bank)
        with pytest.raises(RuntimeError):
            simulate_aging(run, [0.0], DriftModelParams(),
                           np.random.default_rng(0), 1, tiny_task[2])

    def test_checkpoints_must_be_sorted(self, tiny_task, tiny_bank):
        train_ds, _, test_ds = tiny_task
        run = tiny_run("cf", tiny_bank, epochs=[1, 1])
        train(run, train_ds)
        with pytest.raises(ValueError):
            simulate_aging(run, [8.0, 0.0], DriftModelParams(),
                           np.random.default_rng(0), 1, test_ds)


class TestPulseStatistics:
    def test_zero_epoch_all_zero(self, tiny_task, tiny_bank):
        run = tiny_run("cf", tiny_bank)
        run.schedule.phases = []
        train(run, tiny_task[0])
        stats = pulse_statistics(run)
        assert stats["total_pulses"] == 0
        assert stats["mean_per_device"] == 0.0

    def test_per_layer_means(self, tiny_task, tiny_bank):
        train_ds, _, _ = tiny_task
        run = tiny_run("cf", tiny_bank, epochs=[1, 1])
        train(run, train_ds)
        stats = pulse_statistics(run)
        for entry, layer in zip(stats["per_layer"], run.layers):
            expected = int(layer.array.pulse_counts.sum()) / layer.array.device_count
            assert entry["mean_per_device"] == expected

    def test_matches_energy_ledger(self, tiny_task, tiny_bank):
        train_ds, _, _ = tiny_task
        run = tiny_run("sff", tiny_bank, epochs=[1, 1])
        train(run, train_ds)
        assert pulse_statistics(run)["total_pulses"] == run.ledger.pulse_count


class TestMeasuredBank:
    def test_ragged_bank_exhausts_at_own_length(self, tmp_path):
        # trajectories of 3, 4 and 6 samples: every device must stop at the
        # end of its own trajectory, never run into the zero padding
        path = tmp_path / "bank.csv"
        with open(path, "w") as f:
            f.write("device_id,pulse_index,conductance_uS\n")
            for dev, n in enumerate((3, 4, 6)):
                for k in range(n):
                    f.write(f"{dev},{k},{100 - 10 * dev - k}\n")
        cfg = config.effective_config(None, {
            "algorithm": "cf", "task": {"n_per_class": 40},
            "schedule": {"epochs": [3, 1]}, "bank": {"path": str(path)},
            "device": {"pre_pulse_max": 0, "on_exhaustion": "skip"}})
        dataset = config.build_dataset(cfg)
        train_ds, _, _ = config.build_splits(cfg, dataset)
        run = config.build_training_run(cfg, 0, dataset)
        train(run, train_ds)
        assert run.step_log["skipped"].sum() > 0
        arr = run.layers[0].array
        own = arr.bank.lengths[arr.traj_ids]
        assert arr.bank.conductances.shape == (3, 6)
        assert np.array_equal(arr.cursors, arr.pulse_counts)
        assert np.all(arr.cursors <= own - 1)
        for n in (3, 4, 6):
            assert np.any(arr.cursors[own == n] == n - 1)
        for layer in run.layers:
            g_plus, g_minus = layer.array.conductances()
            assert np.all(g_plus > 0) and np.all(g_minus > 0)


class TestBankFill:
    def test_training_reads_only_the_start_of_its_bank(self):
        # a CF run at the benchmark's desk epochs keeps its cursors near the
        # start of each trajectory, so most of its bank is never computed
        cfg = config.effective_config(None, {"algorithm": "cf",
                                             "schedule": {"epochs": [1, 1]}})
        dataset = config.build_dataset(cfg)
        train_ds, val_ds, _ = config.build_splits(cfg, dataset)
        run = config.build_training_run(cfg, 0, dataset)
        train(run, train_ds, val_ds)
        bank = run.layers[0].array.bank
        assert all(layer.array.bank is bank for layer in run.layers)
        cursors = max(int(layer.array.cursors.max()) for layer in run.layers)
        assert cursors < bank.filled < bank.width
        # characterization reads every trajectory whole
        assert len(bank[0]) == bank.width
        assert bank.filled == bank.width

    @pytest.mark.parametrize("stratified", [True, False], ids=["stratified", "pooled"])
    @pytest.mark.parametrize("n_per_class", [3, 5, 17, 40])
    def test_fill_depth_covers_the_train_split(self, stratified, n_per_class):
        # every grid split keeps its train samples within the bound the run
        # fills its bank for, so no run reads past its kept columns
        dataset = make_cluster_task(n_classes=4, n_features=3, n_per_class=n_per_class,
                                    center_scale=1.0, noise_sigma=1.1, seed=2)
        for train_frac, val_frac in ((0.6, 0.3), (0.5, 0.25), (1 / 3, 1 / 3), (0.7, 0.2),
                                     (0.34, 0.33), (0.15, 0.7), (0.8, 0.1), (0.9, 0.05)):
            split_cfg = {"train": train_frac, "val": val_frac,
                         "test": 1.0 - train_frac - val_frac, "stratified": stratified}
            train_idx = split_indices(dataset, SplitSpec(**split_cfg))["train"]
            n_train = math.floor(dataset.n_samples * train_frac) + dataset.n_classes
            assert n_train >= len(train_idx)
            cfg = config.effective_config(None, {"split": split_cfg, "schedule": {
                "epochs": [2, 3], "batch_size": 4}})
            bank = generate_trajectory_bank(SyntheticTrajectoryParams(), 2, seed=0)
            config.build_training_run(cfg, 0, dataset, bank)
            assert bank.filled >= 50 + 1 + 3 * math.ceil(len(train_idx) / 4)

    @pytest.mark.parametrize("pre_pulse_max", [50, 0])
    def test_default_depths(self, pre_pulse_max):
        # 4 000 samples give at most 2 400 + 4 train samples, 151 batches of
        # 16 per epoch; CF and SFF train 15 epochs per layer, BP up to 20:
        # 50 + 1 + 15 * 151 and 50 + 1 + 20 * 151 columns
        dataset = config.build_dataset(config.effective_config())
        for algorithm, depth in (("cf", 2316), ("sff", 2316), ("bp", 3071)):
            cfg = config.effective_config(None, {
                "algorithm": algorithm, "device": {"pre_pulse_max": pre_pulse_max}})
            bank = generate_trajectory_bank(SyntheticTrajectoryParams(), 2, seed=0)
            config.build_training_run(cfg, 0, dataset, bank)
            assert bank.filled == depth - 50 + pre_pulse_max


class TestNetworkLayer:
    def test_needs_exactly_one_backing(self):
        spec = LayerSpec(2, 3)
        with pytest.raises(ValueError):
            NetworkLayer(spec=spec)
        with pytest.raises(ValueError):
            NetworkLayer(spec=spec, weights=np.zeros((3, 2)),
                         array="not-none")  # type: ignore[arg-type]

    def test_weight_shape_checked(self):
        with pytest.raises(ValueError):
            NetworkLayer(spec=LayerSpec(2, 3), weights=np.zeros((2, 3)))
