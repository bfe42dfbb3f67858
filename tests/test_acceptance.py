"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The desk-scale training runs (criteria 6, 7, 9) share one module fixture so
the five-seed-per-method experiment, ``config.reproduce``, executes once.
Every tolerance is fixed here, not computed.
"""

import itertools
import json
import time

import numpy as np
import pytest

from memgrad import cli, gradcheck
from memgrad.config import effective_config, reproduce
from memgrad.device import (DeviceState, DriftModelParams, LARGE_ARRAY, MAC_ARRAY,
                            NeedsReinit, ResetTrajectory,
                            SyntheticTrajectoryParams, apply_reset_pulse,
                            apply_retention_drift, generate_trajectory_bank,
                            pearson_coefficient, pulse_energy, reinitialize)
from memgrad.energy import EnergyLedger, programming_energy, PV_UPDATE_ENERGY_J
from memgrad.trainer import AgingPoint

PAPER_LISTS = {
    "bp": [90.62, 91.18, 89.89, 87.87, 90.44],
    "sff": [88.05, 90.44, 87.68, 89.89, 91.36],
    "cf": [91.18, 90.62, 89.52, 90.44, 86.03],
}

N_SEEDS = 5
ACCURACY_SLACK = 0.06          # device methods within 6 points of the oracle
ORACLE_BAND = (0.90, 0.96)
PULSE_BUDGET = 1500.0
AGING_DROP_LIMIT = 0.03
ALPHA = 0.05


def report(criterion: int, ok: bool, detail: str):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def desk_runs():
    """The desk-scale experiment on five seeds, and its wall time."""
    t0 = time.time()
    record = reproduce(effective_config(), range(N_SEEDS))
    record["elapsed"] = time.time() - t0
    # each run's fill kept every column it read, and not the whole width
    for window in itertools.chain(*record["window"].values()):
        assert window["deepest_cursor"] + 1 <= window["kept_columns"] < window["bank_width"]
    return record


def test_criterion_1_statistical_reproduction(tmp_path, capsys):
    files = []
    for name, values in PAPER_LISTS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(f"{v}\n" for v in values))
        files.append(str(path))
    out = tmp_path / "stats.json"
    t0 = time.time()
    rc = cli.main(["stats", *files, "--alpha", str(ALPHA), "--out", str(out)])
    elapsed = time.time() - t0
    payload = json.loads(out.read_text())
    got = {frozenset((e["a"], e["b"])): e["p_value"] for e in payload["pairwise"]}
    expected = {frozenset(("bp", "sff")): 0.586,
                frozenset(("bp", "cf")): 0.697,
                frozenset(("sff", "cf")): 0.951}
    ok = rc == 0 and elapsed < 1.0
    for pair, target in expected.items():
        ok = ok and abs(got[pair] - target) <= 0.002
    ok = ok and all(not e["reject"] for e in payload["pairwise"])
    with capsys.disabled():
        report(1, ok, f"p-values {[round(got[k], 4) for k in expected]} "
                      f"(targets 0.586/0.697/0.951 +/- 0.002), "
                      f"all retained, {elapsed:.2f}s")


def test_criterion_2_gradient_fidelity(capsys):
    t0 = time.time()
    sff = gradcheck.check_sff(trials=100, seed=0)
    cf = gradcheck.check_cf("temperature", trials=100, seed=0)
    elapsed = time.time() - t0
    ok = sff.passed and cf.passed and elapsed < 30.0
    with capsys.disabled():
        report(2, ok, f"sff worst rel err {sff.worst_rel_err:.2e}, "
                      f"cf worst {cf.worst_rel_err:.2e} over 100 configs each "
                      f"(rtol 1e-5), {elapsed:.1f}s")


def test_criterion_3_pearson_oracle(capsys):
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 300))
        g = np.abs(rng.normal(50e-6, 15e-6, n))
        rho = pearson_coefficient(ResetTrajectory(g), n)
        oracle = float(np.corrcoef(np.arange(1, n + 1), g)[0, 1])
        worst = max(worst, abs(rho - oracle))
    affine_ok = True
    for slope in (-0.01e-6, 0.02e-6):
        g = 100e-6 + slope * np.arange(2000)
        rho = pearson_coefficient(ResetTrajectory(np.clip(g, 0, None)), 2000)
        affine_ok = affine_ok and abs(rho - np.sign(slope)) < 1e-9
    ok = worst < 1e-9 and affine_ok
    with capsys.disabled():
        report(3, ok, f"worst |rho - textbook oracle| = {worst:.2e} over 1000 "
                      f"trajectories; affine cases exact")


def test_criterion_4_device_replay(capsys):
    rng = np.random.default_rng(23)
    params = SyntheticTrajectoryParams(p_max=5000)
    bank = generate_trajectory_bank(params, 16, seed=29)
    replay_ok = True
    for traj in bank[:4]:
        dev = DeviceState(traj)
        seen = [dev.conductance]
        while not dev.exhausted:
            seen.append(apply_reset_pulse(dev))
        replay_ok = replay_ok and np.array_equal(np.array(seen),
                                                 traj.conductances)
        replay_ok = replay_ok and dev.pulse_index == len(traj) - 1
        try:
            apply_reset_pulse(dev)
            replay_ok = False
        except NeedsReinit:
            pass
    dev = DeviceState(bank[0])
    endurance_ok = True
    for cycle in range(300):
        if cycle:
            reinitialize(dev, bank, rng)
        for _ in range(5000):
            apply_reset_pulse(dev, LARGE_ARRAY.endurance_budget)
    endurance_ok = dev.lifetime_pulses == 1_500_000
    ok = replay_ok and endurance_ok
    with capsys.disabled():
        report(4, ok, f"replay exact on 4 full trajectories; NeedsReinit at "
                      f"length-1; 300x5000 cycles = {dev.lifetime_pulses} pulses "
                      f"within the 1.5M budget")


def test_criterion_5_retention_calibration(capsys):
    t0 = time.time()
    params = DriftModelParams()
    rng = np.random.default_rng(31)
    g0 = rng.uniform(16e-6, 100e-6, 3456)
    fractions = {}
    for days, target in ((8.0, 0.941), (90.0, 0.907)):
        drifted = apply_retention_drift(g0, days, params, rng)
        fractions[days] = float(np.mean(np.abs(drifted - g0) < 3e-6))
    elapsed = time.time() - t0
    ok = (abs(fractions[8.0] - 0.941) <= 0.02
          and abs(fractions[90.0] - 0.907) <= 0.02 and elapsed < 10.0)
    with capsys.disabled():
        report(5, ok, f"|dG| < 3 uS fractions: {fractions[8.0]:.4f} @ 8 d "
                      f"(target 0.941 +/- 0.02), {fractions[90.0]:.4f} @ 90 d "
                      f"(target 0.907 +/- 0.02), {elapsed:.2f}s")


def test_criterion_6_desk_scale_training_parity(desk_runs, capsys):
    a_star = desk_runs["a_star"]
    ok = ORACLE_BAND[0] <= a_star <= ORACLE_BAND[1]
    detail = [f"A*={a_star:.4f}"]
    bar = a_star - ACCURACY_SLACK
    for algo in ("bp", "sff", "cf"):
        mean = float(np.mean(desk_runs["test_accuracy"][algo]))
        ok = ok and mean >= bar
        detail.append(f"{algo}={mean:.4f}")
    p_values = desk_runs["p_values"]
    ok = ok and all(p > ALPHA for p in p_values.values())
    ok = ok and desk_runs["elapsed"] < 600.0
    detail.append("p=" + ",".join(f"{k}:{v:.3f}" for k, v in p_values.items()))
    detail.append(f"bar={bar:.4f}, {desk_runs['elapsed']:.0f}s")
    with capsys.disabled():
        report(6, ok, " ".join(detail))


def test_criterion_7_pulse_budget_and_ordering(desk_runs, capsys):
    # the first-trained layer is the output layer (index 1) for backprop and
    # the input layer (index 0) for the forward-only rules
    first_trained = {"bp": 1, "sff": 0, "cf": 0}
    ok = True
    detail = []
    for algo, stats_list in desk_runs["pulse_statistics"].items():
        overall = float(np.mean([s["mean_per_device"] for s in stats_list]))
        layer_means = [float(np.mean([s["per_layer"][k]["mean_per_device"]
                                      for s in stats_list])) for k in (0, 1)]
        first = first_trained[algo]
        ok = ok and overall <= PULSE_BUDGET
        ok = ok and layer_means[first] > layer_means[1 - first]
        detail.append(f"{algo}: overall {overall:.0f}/dev, "
                      f"layers {layer_means[0]:.0f}/{layer_means[1]:.0f}")
    with capsys.disabled():
        report(7, ok, "; ".join(detail) + f" (budget {PULSE_BUDGET:.0f}, "
                      f"first-trained layer must dominate)")


def test_criterion_8_energy_arithmetic(capsys):
    rng = np.random.default_rng(37)
    ledger = EnergyLedger(LARGE_ARRAY)
    ledger.record_pulses(rng.uniform(20e-6, 90e-6, 1000))
    ratio = (programming_energy(ledger, LARGE_ARRAY)
             / programming_energy(ledger, MAC_ARRAY))
    forced = (0.9 ** 2 * 600e-9) / (0.62 ** 2 * 30e-9)
    pv_ratio = PV_UPDATE_ENERGY_J / 0.84e-12
    single_ok = True
    for g, tech, expected in ((50e-6, LARGE_ARRAY, 50e-6 * 0.9 ** 2 * 600e-9),
                              (72e-6, MAC_ARRAY, 72e-6 * 0.62 ** 2 * 30e-9)):
        e = pulse_energy(g, tech)
        single_ok = single_ok and abs(e - expected) <= 1e-15 * abs(expected)
    ok = (abs(ratio - forced) <= 0.1 and abs(forced - 42.1) <= 0.1
          and abs(pv_ratio - 460.7) <= 0.5 and single_ok)
    with capsys.disabled():
        report(8, ok, f"re-cost ratio {ratio:.3f} (forced {forced:.3f}), "
                      f"P&V ratio {pv_ratio:.1f} (target 460.7 +/- 0.5), "
                      f"single-pulse energies exact to 1e-15 rel")


def test_criterion_9_aging_stability(desk_runs, capsys):
    points = {p["day"]: AgingPoint(**p) for p in desk_runs["aging"]}
    drop = points[0.0].mean - points[90.0].mean
    ok = drop <= AGING_DROP_LIMIT
    with capsys.disabled():
        report(9, ok, f"CF accuracy {points[0.0].mean:.4f} at day 0 -> "
                      f"{points[90.0].mean:.4f} +/- {points[90.0].std:.4f} at "
                      f"day 90 (drop {100 * drop:.2f} pp, limit 3 pp)")
