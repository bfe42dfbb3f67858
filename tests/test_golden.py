"""Golden digests: training, reads, pulses and aging stay pulse-identical.

Each digest was taken once and is never regenerated to make a change pass.
A digest that changes is a behaviour change, and the change has to justify
it.  A training digest covers the per-device pulse counts, the final
(G+, G-) matrices (float runs: the final weights), the ledger's pulse sum and
count per tech, its read sum and count per (v_read, t_read) condition, its
MAC and reinit counts, and the test accuracy.  The runs use the default
config with short schedules, so the file stays well under 10 s.
"""

import hashlib
import json

import pytest

from memgrad import cli, config
from memgrad.trainer import evaluate, predict, train

GOLDEN_TRAINING = {
    ("bp", 0):
        "59ca803c5ba637d87559535d04533e3a013abf21e8102f4fa37b3a3f5258127a",
    ("bp", 1):
        "fcd9aac7aede6b9bf36bc1747fe40302702611a7ef9146483460e681a8f5dedc",
    ("sff", 0):
        "120d368899e64093350b46273c15c5b0cf112d56a9f0fb6dacab03a785538e51",
    ("sff", 1):
        "c7719cf1bebf278915af4994d7166e98b01aceea9a6b62ee69c7e1eab771707c",
    ("cf", 0):
        "e55739b62e387900b70403c6ed1656f94c1eb776e874afbf2e013e4bad15934c",
    ("cf", 1):
        "5a080c27bc5038c18b268b155af687ac2fbed09bf22a92cf9ab9aeedb40fa28d",
    ("float_bp", 0):
        "96f36c2d5e7ea0111ea4526bf533ae219e0f0cab488b6591fd430a804fce7c46",
    ("float_bp", 1):
        "40160d2c3239d601d66c456474c812937368f02190dd53a46c486bcda6f67ab8",
}

# p_max 300 and three first-layer epochs: trajectories run out, so the SKIP
# and REINIT policies both act
GOLDEN_NARROW = {
    "skip":
        "40ef70715ab013f8488445827ac7e53a1303dfa4133e4b169587ab87a69b1bda",
    "reinit":
        "f05ecd0914e7d326889d8af478da919c897840db048709458b2e49902789bc46",
}

# SFF seed 0, predictions on the test split with the per-label protocol
GOLDEN_SFF_PER_LABEL = (
    "460332a1010f5923d39a2d232c286d7cb68b5a6dd3415b16f5c65c80a44e4a21")

# `memgrad train --algo cf --epochs 1,1` then `memgrad age --days 0,8,90
# --repeats 3`: the aging.csv bytes
GOLDEN_AGING_CSV = (
    "a23644b47fd69ea2d110836df3a2829027b29cbdd2e429adf7bd3abf7d3b22d5")


@pytest.fixture(scope="module")
def task():
    cfg = config.effective_config()
    dataset = config.build_dataset(cfg)
    return dataset, config.build_splits(cfg, dataset)


def _train(task, overrides, seed):
    dataset, (train_ds, val_ds, test_ds) = task
    cfg = config.effective_config(None, overrides)
    run = config.build_training_run(cfg, seed, dataset)
    train(run, train_ds, val_ds)
    return run, evaluate(run, test_ds)


def run_digest(run, test_accuracy: float) -> str:
    h = hashlib.sha256()
    for layer in run.layers:
        if layer.array is None:
            h.update(layer.weights.tobytes())
            continue
        h.update(layer.array.pulse_counts.tobytes())
        for g in layer.array.conductances():
            h.update(g.tobytes())
    ledger = run.ledger
    record = {
        "pulses": {tech: [s.total.hex(), s.count]
                   for tech, s in sorted(ledger.pulse_sums.items())},
        "reads": [[v, t, s.total.hex(), s.count]
                  for (v, t), s in sorted(ledger.read_sums.items())],
        "macs": ledger.mac_count,
        "reinits": ledger.reinit_count,
        "test_accuracy": float(test_accuracy).hex(),
    }
    h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("algorithm, seed", sorted(GOLDEN_TRAINING))
def test_training_digest(task, algorithm, seed):
    run, acc = _train(task, {"algorithm": algorithm,
                             "schedule": {"epochs": [1, 1]}}, seed)
    assert run_digest(run, acc) == GOLDEN_TRAINING[(algorithm, seed)]


@pytest.mark.parametrize("policy", sorted(GOLDEN_NARROW))
def test_exhaustion_digest(task, policy):
    run, acc = _train(task, {"algorithm": "cf", "schedule": {"epochs": [3, 1]},
                             "bank": {"params": {"p_max": 300}},
                             "device": {"on_exhaustion": policy}}, 0)
    counts = {"skip": sum(r.skipped for r in run.step_log),
              "reinit": run.ledger.reinit_count}
    assert counts[policy] > 0
    assert run_digest(run, acc) == GOLDEN_NARROW[policy]


def test_sff_per_label_predictions(task):
    run, _ = _train(task, {"algorithm": "sff", "schedule": {"epochs": [1, 1]}}, 0)
    run.sff_inference = "per_label"
    labels = predict(run, task[1][2].features)
    assert hashlib.sha256(labels.tobytes()).hexdigest() == GOLDEN_SFF_PER_LABEL


def test_cli_aging_csv(tmp_path, capsys):
    out = tmp_path / "pipe"
    assert cli.main(["train", "--algo", "cf", "--epochs", "1,1",
                     "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["age", "--run", str(out / "run_0"), "--days", "0,8,90",
                     "--repeats", "3"]) == cli.EXIT_OK
    data = (out / "run_0" / "aging.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_AGING_CSV
