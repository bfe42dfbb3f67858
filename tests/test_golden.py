"""Golden digests: training, reads, pulses and aging stay pulse-identical.

Each digest was taken once and is never regenerated to make a change pass.
A digest that changes is a behaviour change, and the change has to justify
it.  A training digest covers the per-device pulse counts, the final
(G+, G-) matrices (float runs: the final weights), the ledger's pulse sum and
count, its read sum and count with the tech's read conditions, its MAC and
reinit counts, and the test accuracy.  A loss digest covers every
step's loss and the train-split loss of every epoch.  The runs use the
default config with short schedules, so the file stays well under 10 s; the
branch digests flip one config switch each on a smaller task.
"""

import ctypes
import glob
import hashlib
import json
import os

import numpy as np
import pytest

from memgrad import cli, config
from memgrad.trainer import evaluate, predict, train


def _openblas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS picked for this CPU, or "unknown"."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


# Losses and float weights depend on how the BLAS kernel rounds the small
# matmuls; the digests were taken under OpenBLAS's SkylakeX kernel.
BLAS_NOTE = f"OpenBLAS kernel {_openblas_kernel()}; the digests were taken under SkylakeX"

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

# the same runs: step_log losses, then epoch_log losses
GOLDEN_LOSSES = {
    ("bp", 0):
        "83820c3ecd540a367891584ddfa3f7fe14deb7ccb4e40a72d2cd1cf68d70d924",
    ("bp", 1):
        "12dbfb0b78d21d331c16c31123e8a4afaeda9ce2fecc9798e76cdd89c96c8a81",
    ("sff", 0):
        "57ac4ae844c5d12f681aaa5c621e0ee74df1b6898b65caf90ca46d395d4b365e",
    ("sff", 1):
        "163188f757c4ffca20625d78036a9a6e61b64207d821560fe6079d3b60da05a8",
    ("cf", 0):
        "d12388b805813b1d18a31537095829eb089776538ab810e24ea20ec5eea700d9",
    ("cf", 1):
        "35396b80e91881634f81dbcd602ed55d8e7fda58c30282ee3f2e53d115eae6ac",
    ("float_bp", 0):
        "9936387e6d6ca528894ff873fcb8ca882d4d850920e8239d6e20b8df45616fc6",
    ("float_bp", 1):
        "94dad9213b72b93266a1beeb9f2116bd3e3c9942342127be4f9e65ff7ea75869",
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

# the same run, then `memgrad energy`: the energy.json bytes
GOLDEN_ENERGY_JSON = (
    "9dc0f6c64bd454edcafd608189e18990058cdf32ffed906c89259ff8bea20a2a")

# The effective config of each algorithm, as `json.dumps(..., indent=2)`
# writes it, and `config_hash` of the default config: the config blocks a
# run manifest records, whichever module states their defaults
GOLDEN_CONFIG_JSON = {
    "bp": "ac13e4338c9af319edc614b3623c0395f40532c051857fd913ec94259a340ba7",
    "sff": "dac18d1101d1cfd5498abb673d596f4348f99333555dcfcbb8df508e27d8d93f",
    "cf": "5bd6b9cfeca7b044cbd4535d611f845844bf425b9b21e85b3aa39b696dc86daa",
    "float_bp": "cecdecc7c24d0b006afbee48c7bd561ebbaa0d5f268f9d6bafe744bc2b9d0690",
    "float_sff": "dbd4cbb90389ae6d12c2f149deca71a8802b6a8febc738ec6b050a16c872e523",
    "float_cf": "594222edcf8129a991a6fe5578eb00a285deff71c910ef465fc816346699963b",
}
GOLDEN_CONFIG_HASH = "72257bd223c08bdf1f6a98803f3c6b8cedef91782a289fdba8405c5ed2876d87"

# One config switch per entry, which no digest above reaches: its overrides
# over BRANCH_BASE, then the run digest and the loss digest of seed 0.
BRANCH_BASE = {"task": {"n_per_class": 250}, "schedule": {"epochs": [1, 1]}}
RAGGED_BANK = "ragged_bank.csv"   # written by the test, see _write_ragged_bank
GOLDEN_BRANCHES = {
    "paper_literal": (
        {"schedule": {"plan_mode": "paper_literal"}},
        "9a43d20770e6336b994362c9c707ad50b9d8f0f767dcc44677a0d37637b8c7de",
        "c4eccf2ad570d6fe4159b0cbd03d9c532ac954fadd0c1e48be229bcce1a5921e"),
    "float_sff_sign": (
        {"algorithm": "float_sff", "schedule": {"float_update": "sign"}},
        "cbc77a03efea1cddd6a5949ea982e95be217b6975ebb07ac9ea82944514d7b32",
        "b3a4a8953e11bd72177a03cdccf1243a8282a86b5ba5251657d5681c9334ffb1"),
    "float_cf_sign": (
        {"algorithm": "float_cf", "schedule": {"float_update": "sign"}},
        "4fbfccd0fdf0110acbe95c2ba3654bbee2f06f8034a93aa21988a9bccff20af6",
        "dc776cbeb27a9beaaf4759164b2191ad08392c36d26c69edd85d39a4d90d7798"),
    "cf_first_offset": (
        {"rules": {"cf_first": {"variant": "offset"}}},
        "53c2c5d71b68d33449d0c1babc2ae37c24fab12440bf4b2fcae60d1b65152a6d",
        "9235d1927d6dbced7d6220b80c802e76df8b55d70df9cfbe8c0d83926f623693"),
    "cf_last_offset": (
        {"rules": {"cf_last": {"variant": "offset"}}},
        "e56930fee22f949b0bacae2fd2f26283786502268c9df3f51c071fccd914b08a",
        "2e7c5656b5077fac1be264c602096862fe6c56bd520a98c2f8b1084d3e80c017"),
    "sff_head_offset": (
        {"algorithm": "sff", "rules": {"sff_head": {"variant": "offset"}}},
        "c76423267c045910b06f041facf3fff2d87fdff63317bb8dd867e2860346a37e",
        "05bf627aebbb70add8d83490e9cf0932bbf9841d2f63fab12ac46344b2ace7a7"),
    "single_layer": (
        {"algorithm": "bp", "arch": {"single_layer": True}, "schedule": {"epochs": [1]}},
        "3989a2fda6638c4d0c0560de947807240042b4c02d06b17397321ec26fbd8672",
        "c388875c3de5fa7083dd84dfd87ef67c9587ad86864a5fc0774cf2e530597d26"),
    "mac_array": (
        {"device": {"tech": "mac_array"}},
        "145d983e408a5eec8bfc552c1979d2f71bd2f1371158c152dfb15184191479ce",
        "e4dd2d7a407ddfc4b1a6325df7850ba8c8e66b7c04c08cbb7f558b3d503e2022"),
    "no_pre_pulses": (
        {"device": {"pre_pulse_max": 0}},
        "02210bf8ec0fe689b7584e39a3d8e83ba4274522a36623cec7e42132d76e3a56",
        "02b17fd40b84c2f3a6a285514606813a05673152430bf2e7d087d1bf2c48ee78"),
    "lognormal": (
        {"bank": {"params": {"decrement_family": "lognormal"}}},
        "98826df4b7057d5c96b0db8b641c9783e3f25b5783108c317887ba42fb6f0e98",
        "1b3c3a8d9fa80262ac7ba89628bbbe03a79b65fc8f1a032a3414eac06dc7e177"),
    "ragged_bank": (
        {"bank": {"path": RAGGED_BANK}},
        "f314a67a4b2fd4a51f6ba520b09fd404032c92322c8cdf396f223fd5acc37634",
        "e30dcfec67d4a5cda664698cff4b4aed89112ea6c9013e116dd43a2e783477fb"),
    "sff_per_label": (
        {"algorithm": "sff", "rules": {"sff_inference": "per_label"}},
        "246c47fb463d83c8ce5d2ec3897637e58fd9aa0634afee6203cc09bad59a4c49",
        "0f3bd894e26c098257ba084d9c0a61e145c4b849abf632475d49bdbe3931bf0b"),
}

# the sff_per_label run: its per-epoch val accuracies, which the switch sets
# and the loss digest does not see
GOLDEN_PER_LABEL_VAL = (
    "28ac59eefa67066a4e5934ce61c2c54bd93fbdc21eeafe31e6e818f410852e4f")


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


@pytest.fixture(scope="module")
def short_runs(task):
    """Trained (run, test accuracy) per (algorithm, seed), shared by the tests."""
    cache = {}

    def get(algorithm, seed):
        if (algorithm, seed) not in cache:
            cache[algorithm, seed] = _train(
                task, {"algorithm": algorithm, "schedule": {"epochs": [1, 1]}}, seed)
        return cache[algorithm, seed]
    return get


def _write_ragged_bank(path):
    """64 trajectories of 20 to 199 samples, each falling from near 100 uS."""
    rng = np.random.default_rng(11)
    lines = ["device_id,pulse_index,conductance_uS"]
    for dev in range(64):
        n = int(rng.integers(20, 200))
        g = 100.0 + rng.normal(0.0, 10.0) - np.cumsum(np.abs(rng.normal(0.015, 0.01, n)))
        lines += [f"{dev},{k},{value:.6f}" for k, value in enumerate(g)]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def branch_runs(tmp_path_factory):
    """Trained (run, test accuracy) per GOLDEN_BRANCHES entry."""
    bank_dir = tmp_path_factory.mktemp("bank")
    _write_ragged_bank(bank_dir / RAGGED_BANK)
    cache = {}

    def get(name):
        if name not in cache:
            cfg = config.effective_config(BRANCH_BASE, GOLDEN_BRANCHES[name][0])
            dataset = config.build_dataset(cfg)
            train_ds, val_ds, test_ds = config.build_splits(cfg, dataset)
            with pytest.MonkeyPatch.context() as mp:
                mp.chdir(bank_dir)
                run = config.build_training_run(cfg, 0, dataset)
            train(run, train_ds, val_ds)
            cache[name] = run, evaluate(run, test_ds)
        return cache[name]
    return get


def run_digest(run, test_accuracy: float) -> str:
    h = hashlib.sha256()
    for layer in run.layers:
        if layer.array is None:
            h.update(layer.weights.tobytes())
            continue
        h.update(layer.array.pulse_counts.tobytes())
        for g in layer.array.conductances():
            h.update(g.tobytes())
    ledger, tech = run.ledger, run.ledger.tech
    # the record the digests were taken with, when the ledger kept one sum
    # per tech and one per read condition, each present once it had an event
    record = {
        "pulses": ({tech.name: [ledger.pulses.total.hex(), ledger.pulse_count]}
                   if ledger.pulse_count else {}),
        "reads": ([[tech.v_read, tech.t_read, ledger.reads.total.hex(),
                    ledger.read_count]] if ledger.read_count else []),
        "macs": ledger.mac_count,
        "reinits": ledger.reinit_count,
        "test_accuracy": float(test_accuracy).hex(),
    }
    h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


def loss_digest(run) -> str:
    h = hashlib.sha256()
    h.update(run.step_log["loss"].tobytes())
    h.update(run.epoch_log["loss"].tobytes())
    return h.hexdigest()


def loss_note(run, test_accuracy: float, golden_run: str) -> str:
    """BLAS_NOTE, and whether the run's pulse counts, conductances, ledger
    totals and accuracy still match: a loss digest can move under another
    BLAS kernel while the pulses stay the same."""
    held = "holds" if run_digest(run, test_accuracy) == golden_run else "differs too"
    return f"{BLAS_NOTE}; the run digest {held}"


@pytest.mark.parametrize("algorithm, seed", sorted(GOLDEN_TRAINING))
def test_training_digest(short_runs, algorithm, seed):
    run, acc = short_runs(algorithm, seed)
    assert run_digest(run, acc) == GOLDEN_TRAINING[(algorithm, seed)], BLAS_NOTE


@pytest.mark.parametrize("algorithm, seed", sorted(GOLDEN_LOSSES))
def test_loss_digest(short_runs, algorithm, seed):
    run, acc = short_runs(algorithm, seed)
    assert len(run.step_log) == 300
    assert loss_digest(run) == GOLDEN_LOSSES[(algorithm, seed)], loss_note(
        run, acc, GOLDEN_TRAINING[(algorithm, seed)])


@pytest.mark.parametrize("policy", sorted(GOLDEN_NARROW))
def test_exhaustion_digest(task, policy):
    run, acc = _train(task, {"algorithm": "cf", "schedule": {"epochs": [3, 1]},
                             "bank": {"params": {"p_max": 300}},
                             "device": {"on_exhaustion": policy}}, 0)
    counts = {"skip": run.step_log["skipped"].sum(),
              "reinit": run.ledger.reinit_count}
    assert counts[policy] > 0
    assert run_digest(run, acc) == GOLDEN_NARROW[policy]


@pytest.mark.parametrize("name", sorted(GOLDEN_BRANCHES))
def test_branch_digest(branch_runs, name):
    run, acc = branch_runs(name)
    _, golden_run, golden_loss = GOLDEN_BRANCHES[name]
    # the loss first, so that its message can say whether the run digest held
    assert loss_digest(run) == golden_loss, loss_note(run, acc, golden_run)
    assert run_digest(run, acc) == golden_run, BLAS_NOTE


def test_branch_per_label_val_accuracies(branch_runs):
    run, _ = branch_runs("sff_per_label")
    val = run.epoch_log["val_accuracy"]
    assert len(val) == 2
    assert hashlib.sha256(val.tobytes()).hexdigest() == GOLDEN_PER_LABEL_VAL


def test_sff_per_label_predictions(task):
    run, _ = _train(task, {"algorithm": "sff", "schedule": {"epochs": [1, 1]}}, 0)
    run.sff_inference = "per_label"
    labels = predict(run, task[1][2].features)
    assert hashlib.sha256(labels.tobytes()).hexdigest() == GOLDEN_SFF_PER_LABEL


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """The run directory of `memgrad train --algo cf --epochs 1,1`."""
    out = tmp_path_factory.mktemp("pipe")
    assert cli.main(["train", "--algo", "cf", "--epochs", "1,1",
                     "--out", str(out)]) == cli.EXIT_OK
    return out / "run_0"


def test_cli_aging_csv(cli_run):
    assert cli.main(["age", "--run", str(cli_run), "--days", "0,8,90",
                     "--repeats", "3"]) == cli.EXIT_OK
    data = (cli_run / "aging.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_AGING_CSV


def test_cli_energy_json(cli_run):
    assert cli.main(["energy", "--run", str(cli_run)]) == cli.EXIT_OK
    data = (cli_run / "energy.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_ENERGY_JSON


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_CONFIG_JSON))
def test_effective_config_json(algorithm):
    text = json.dumps(config.effective_config(None, {"algorithm": algorithm}), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CONFIG_JSON[algorithm]


def test_default_config_hash():
    assert config.config_hash(config.effective_config()) == GOLDEN_CONFIG_HASH
