"""The benchmark workloads.  Each runs closed-loop with one client: an
operation starts only after the previous one has finished.

A workload object builds what its operations need in ``prepare`` (outside
the timed passes), and ``run_pass`` executes the whole workload once,
returning one ``OpResult`` per operation.  Operations drive only memgrad's
public entry points, through module attributes so that an installed tracer
sees every call.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150

# Shortened schedules: only ``schedule.epochs`` differs from the defaults
# ([10, 20] backprop, [15, 15] forward rules), so every shape and therefore
# the pulses per step stay those of the acceptance fixture.
DESK_EPOCHS = {"float_bp": [1, 2], "bp": [1, 2], "sff": [1, 1], "cf": [1, 1]}
# 300 pulses per trajectory and three first-layer epochs (150 steps each):
# devices run out of trajectory, so the SKIP policy is exercised.
NARROW_P_MAX = 300
NARROW_EPOCHS = [3, 1]
AGING_DAYS = [0.0, 90.0]
AGING_REPEATS = 20

CLI_EPOCHS = "2,2"
CLI_AGE_DAYS = "8,20,90"
CLI_AGE_REPEATS = 300
# 100 cycles x 5000 pulses x 4 devices: 2 M scalar pulses and 396 reinits
ENDURANCE_ARGS = ["--count", "1268", "--cycles", "100", "--pulses-per-cycle", "5000",
                  "--devices", "4"]

DESK_SETUP = ("from memgrad import config, energy, trainer\n"
              "cfg = config.effective_config()\n"
              "config.build_splits(cfg, config.build_dataset(cfg))\n")


@dataclass
class OpResult:
    name: str             # operation id, e.g. "cf.s3"
    group: str            # timing group it adds to, e.g. "train_s.cf"
    seconds: float
    outcome: dict | None  # None when the operation raised or exited non-zero
    error: str = ""
    diffs: list[str] = field(default_factory=list)   # set by the gate check


def _timed(name, group, body, tracer=None):
    """Run body() -> outcome_fn; the outcome is computed after timing.

    An installed tracer files the operation's spans and counters under name.
    """
    if tracer is not None:
        tracer.op = name
    t0 = time.perf_counter()
    try:
        finish = body()
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        return OpResult(name, group, time.perf_counter() - t0, None,
                        traceback.format_exc(limit=3))
    seconds = time.perf_counter() - t0
    try:
        return OpResult(name, group, seconds, finish())
    except Exception:  # noqa: BLE001
        return OpResult(name, group, seconds, None, traceback.format_exc(limit=3))


class Desk:
    """A miniature of the acceptance fixture, in this process."""

    name = "desk"

    def __init__(self, seed: int, work: Path, python: str, env: dict):
        self.seed = seed
        self.setup_command = [python, "-c", DESK_SETUP]
        self.tracer = None    # set while a traced pass runs in this process

    def prepare(self):
        from memgrad import config, energy, trainer
        self.config, self.energy, self.trainer = config, energy, trainer
        self.cfg = config.effective_config()
        self.dataset = config.build_dataset(self.cfg)
        self.splits = config.build_splits(self.cfg, self.dataset)
        self.cfgs = {algo: config.effective_config(
            None, {"algorithm": algo, "schedule": {"epochs": epochs}})
            for algo, epochs in DESK_EPOCHS.items()}
        self.cfgs["cf_narrow"] = config.effective_config(None, {
            "algorithm": "cf", "schedule": {"epochs": NARROW_EPOCHS},
            "bank": {"params": {"p_max": NARROW_P_MAX}},
            "device": {"on_exhaustion": "skip"}})

    def _train(self, algo, seed, keep):
        train_ds, val_ds, test_ds = self.splits
        config, trainer = self.config, self.trainer

        def body():
            run = config.build_training_run(self.cfgs[algo], seed, self.dataset)
            trainer.train(run, train_ds, val_ds)
            accs = {"test_accuracy": trainer.evaluate(run, test_ds),
                    "val_accuracy": trainer.evaluate(run, val_ds)}
            keep.append(run)
            return lambda: gate.run_outcome(run, accs, self.energy,
                                            config.TECH_PROFILES)
        return _timed(f"{algo}.s{seed}", f"train_s.{algo}", body, self.tracer)

    def _age(self, run):
        test_ds = self.splits[2]
        rng_seed = [77, self.seed]

        def body():
            points = self.trainer.simulate_aging(
                run, AGING_DAYS, self.config.build_drift_params(self.cfg),
                np.random.default_rng(rng_seed), n_repeats=AGING_REPEATS,
                test_ds=test_ds)
            return lambda: {"exact": {f"day{p.day:g}": [float(a) for a in p.accuracies]
                                      for p in points}, "close": {}}
        return _timed(f"aging.cf.s{self.seed}", "aging_s", body, self.tracer)

    def run_pass(self, trace_dir=None) -> list[OpResult]:
        w = self.seed
        results = []
        for algo, seeds in (("float_bp", [w]), ("bp", [w, w + 1]), ("sff", [w, w + 1]),
                            ("cf", [w, w + 1]), ("cf_narrow", [w])):
            for seed in seeds:
                kept = []
                results.append(self._train(algo, seed, kept))
                if algo == "cf" and seed == w:
                    if kept:
                        results.append(self._age(kept[0]))
                    else:
                        results.append(OpResult(f"aging.cf.s{w}", "aging_s", 0.0, None,
                                                "no completed CF run to age"))
                del kept
                gc.collect()
        return results


class CliPipeline:
    """train -> energy -> age -> report, then characterize: five processes."""

    name = "cli_pipeline"
    out = "cli"
    char_out = "characterize"

    def __init__(self, seed: int, work: Path, python: str, env: dict):
        self.seed = seed
        self.work = work
        self.python = python
        self.env = env
        self.setup_command = [python, "-m", "memgrad.cli", "--version"]

    def prepare(self):
        self.work.mkdir(parents=True, exist_ok=True)

    def _run(self, name, group, args, trace_dir, outcome_fn) -> OpResult:
        if trace_dir is None:
            cmd = [self.python, "-m", "memgrad.cli", *args]
        else:
            cmd = [self.python, str(BENCH_DIR / "child.py"),
                   str(trace_dir / f"{name}.json"), name, *args]

        def body():
            proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return lambda: outcome_fn(proc.stdout)
        return _timed(name, group, body)

    def run_pass(self, trace_dir=None) -> list[OpResult]:
        w, out, char_dir = self.seed, self.work / self.out, self.work / self.char_out
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(char_dir, ignore_errors=True)
        run_rel = f"{self.out}/run_{w}"
        run_dir = self.work / run_rel

        def train_outcome(stdout):
            metrics = json.loads((run_dir / "metrics.json").read_text())
            exact = {"stdout": stdout,
                     "test_accuracy": metrics["final_test_accuracy"],
                     "val_accuracy": metrics["final_val_accuracy"],
                     "pulse_stats": metrics["pulse_stats"]}
            for rel in ("splits.json", "summary.json"):
                exact[rel] = gate.file_digest(out / rel)
            for rel in ("manifest.json", "curve.csv", "pulses.csv",
                        "snapshot_layer0.csv", "snapshot_layer1.csv"):
                exact[rel] = gate.file_digest(run_dir / rel)
            return {"exact": exact, "close": {}}

        def energy_outcome(stdout):
            payload = json.loads((run_dir / "energy.json").read_text())
            return {"exact": {"stdout": stdout, "energy.json": gate.round6(payload)},
                    "close": {}}

        def age_outcome(stdout):
            return {"exact": {"stdout": stdout,
                              "aging.csv": gate.file_digest(run_dir / "aging.csv")},
                    "close": {}}

        def report_outcome(stdout):
            return {"exact": {"stdout": stdout}, "close": {}}

        def characterize_outcome(stdout):
            exact = {"stdout": stdout}
            for rel in ("pearson.csv", "pearson_hist.csv", "endurance.csv"):
                exact[rel] = gate.file_digest(char_dir / rel)
            return {"exact": exact, "close": {}}

        steps = (
            ("train", ["train", "--algo", "cf", "--epochs", CLI_EPOCHS, "--seed", str(w),
                       "--out", self.out], train_outcome),
            ("energy", ["energy", "--run", run_rel], energy_outcome),
            ("age", ["age", "--run", run_rel, "--days", CLI_AGE_DAYS,
                     "--repeats", str(CLI_AGE_REPEATS), "--seed", str(w)], age_outcome),
            ("report", ["report", "--run", run_rel], report_outcome),
            ("characterize", ["characterize", *ENDURANCE_ARGS, "--seed", str(w),
                              "--out", self.char_out], characterize_outcome),
        )
        return [self._run(f"{name}.s{w}", f"cmd_s.{name}", args, trace_dir, outcome_fn)
                for name, args, outcome_fn in steps]

    def artifact_bytes(self) -> dict[str, int]:
        """Bytes of every file the pass wrote, by path under the output dir."""
        root = self.work / self.out
        return {str(p.relative_to(root)): p.stat().st_size
                for p in sorted(root.rglob("*")) if p.is_file()}


WORKLOADS = {cls.name: cls for cls in (Desk, CliPipeline)}


def child_env(root: Path) -> dict:
    """This process's environment (BLAS cap included) with root/src importable."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MEMGRAD_SEED", None)   # run seeds come from the workload seed only
    return env

