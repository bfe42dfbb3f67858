#!/usr/bin/env python3
"""Calibration search behind the frozen defaults in memgrad.

The shipped defaults (task noise, rule thresholds theta+/-, plan threshold
tau, drift tail width) were chosen by the coarse searches below and then
frozen in config.DEFAULT_CONFIG / trainer.DEFAULT_TAU / device defaults.
Re-running this script reproduces the numbers behind those choices:

  stage 1  task difficulty: scan noise_sigma so the float-backprop
           reference lands in the low-90s test-accuracy band
  stage 2  rule thresholds: coarse theta grid on the float model of the
           synthetic task (fast proxy), for SFF and CF
  stage 3  device validation: the acceptance experiment (config.reproduce)
           on a few seeds, with pulse budgets, pairwise Welch p-values and
           the aging of CF
  stage 4  drift tail: verify the core/tail mixture hits the retention
           anchors and report the aging drop of a trained CF network

Stages 1-2 take seconds; stages 3-4 train device-mode networks and take a
few minutes.  Select with --stage (default: 1 2).
"""

import argparse
import time

import numpy as np

from memgrad.config import (build_dataset, build_drift_params, build_splits,
                            build_training_run, effective_config, reproduce)
from memgrad.device import DriftModelParams, apply_retention_drift
from memgrad.trainer import evaluate, simulate_aging, train


def stage1_task_difficulty():
    print("== stage 1: float-BP oracle vs task noise (target band 0.90-0.96)")
    for noise in (0.8, 1.0, 1.1, 1.2, 1.4):
        acc = _float_accuracy("float_bp", {"task": {"noise_sigma": noise}})
        print(f"  noise_sigma={noise}: test accuracy {acc:.4f}")
    print("  frozen: noise_sigma = 1.1")


def _float_accuracy(algorithm, overrides):
    cfg = effective_config(None, {"algorithm": algorithm, **overrides})
    dataset = build_dataset(cfg)
    train_ds, _, test_ds = build_splits(cfg, dataset)
    run = build_training_run(cfg, 0, dataset)
    train(run, train_ds)
    return evaluate(run, test_ds)


def stage2_theta_grid():
    print("== stage 2: coarse theta grids on the float model")
    print("  SFF layer thresholds (theta+, theta-), float_sff, sign updates:")
    for tp, tm in [(1.0, 1.0), (1.5, 0.75), (2.0, 1.0), (2.0, 2.0), (3.0, 1.5)]:
        acc = _float_accuracy("float_sff", {
            "rules": {"sff": {"theta_plus": tp, "theta_minus": tm}},
            "schedule": {"float_update": "sign", "learning_rate": 1.5e-4,
                         "tau": 1e-3}})
        print(f"    theta+={tp}, theta-={tm}: {acc:.4f}")
    print("  CF temperature scales (same value both layers), float_cf:")
    for theta in (0.05, 0.1, 0.15, 0.3, 0.6):
        acc = _float_accuracy("float_cf", {
            "rules": {"cf_first": {"theta_plus": theta, "theta_minus": theta},
                      "cf_last": {"theta_plus": theta, "theta_minus": theta}},
            "schedule": {"float_update": "sign", "learning_rate": 1.5e-4,
                         "tau": 1e-3}})
        print(f"    theta={theta}: {acc:.4f}")
    print("  frozen: SFF theta+=2.0 theta-=1.0 (margin between the positive and"
          " negative goodness targets is what matters), CF theta=0.15")


def stage3_device_validation(seeds=3):
    print("== stage 3: device-mode validation of the frozen defaults")
    t0 = time.time()
    record = reproduce(effective_config(), range(seeds))
    print(f"  float-BP oracle A* = {record['a_star']:.4f}")
    for algo, accs in record["test_accuracy"].items():
        for seed, acc, stats in zip(record["seeds"], accs, record["pulse_statistics"][algo]):
            layers = "/".join(f"{e['mean_per_device']:.0f}" for e in stats["per_layer"])
            print(f"  {algo} seed {seed}: {acc:.4f}, pulses/device "
                  f"{stats['mean_per_device']:.0f} (layers {layers})")
    for pair, p in record["p_values"].items():
        print(f"  Welch {pair}: p = {p:.3f}")
    day0, day90 = (np.mean(point["accuracies"]) for point in record["aging"])
    print(f"  CF seed {record['seeds'][0]}: day-0 {day0:.4f} -> day-90 {day90:.4f}, "
          f"{time.time() - t0:.0f}s in all")


def stage4_drift(seeds=1):
    print("== stage 4: drift mixture anchors and CF aging")
    params = DriftModelParams()
    rng = np.random.default_rng(0)
    g0 = rng.uniform(16e-6, 100e-6, 20000)
    for days, target in ((8.0, 0.941), (90.0, 0.907)):
        drifted = apply_retention_drift(g0, days, params, rng)
        frac = np.mean(np.abs(drifted - g0) < 3e-6)
        print(f"  day {days:g}: fraction inside 3 uS = {frac:.4f} "
              f"(target {target})")
    cfg = effective_config(None, {"algorithm": "cf"})
    dataset = build_dataset(cfg)
    train_ds, _, test_ds = build_splits(cfg, dataset)
    for seed in range(seeds):
        run = build_training_run(cfg, seed, dataset)
        train(run, train_ds)
        points = simulate_aging(run, [0.0, 90.0], build_drift_params(cfg),
                                np.random.default_rng(7), 20, test_ds)
        drop = points[0].mean - points[1].mean
        print(f"  CF seed {seed}: day-0 {points[0].mean:.4f} -> day-90 "
              f"{points[1].mean:.4f} (drop {100 * drop:.2f} pp)")
        del run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stage", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args()
    stages = {1: stage1_task_difficulty, 2: stage2_theta_grid,
              3: stage3_device_validation, 4: stage4_drift}
    for k in args.stage:
        stages[k]()


if __name__ == "__main__":
    main()
