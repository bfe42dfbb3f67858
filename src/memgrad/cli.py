"""Command-line entry point: every workflow as a subcommand.

Commands are deterministic given config + seed; each training run writes a
manifest that captures the full effective configuration and content hashes,
so runs can be reproduced bit-identically (float modes) or pulse-identically
(device modes).

Exit codes: 0 success, 1 check failure (gradcheck), 2 config error,
3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import importlib.resources
import json
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .config import (ConfigError, TECH_PROFILES, build_bank, build_dataset,
                     build_drift_params, build_splits, build_training_run,
                     config_hash, load_config)
from .data import (FeatureDataset, ParseError, SplitSpec, split_indices)
from .device import (cycle_endurance, load_bank_csv, pearson_coefficient,
                     SyntheticTrajectoryParams, generate_trajectory_bank,
                     save_bank_csv)
from .energy import (EnergyLedger, mac_energy_projection, programming_energy,
                     pv_baseline_energy, read_energy, PV_UPDATE_ENERGY_J)
from .crossbar import save_snapshot_csv, load_snapshot_csv
from .rules import LayerSpec
from .stats import StatReport
from .trainer import age_conductances, evaluate, pulse_statistics, train
from . import gradcheck as gradcheck_mod

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _dataset_digest(ds: FeatureDataset) -> str:
    h = hashlib.sha256()
    h.update(ds.features.tobytes())
    h.update(ds.labels.tobytes())
    return h.hexdigest()


def _write_json(path, payload: dict, schema: str | None = None):
    """Write a JSON artifact, validating against a shipped schema first."""
    if schema is not None:
        resource = importlib.resources.files("memgrad.schemas") / schema
        jsonschema.validate(payload, json.loads(resource.read_text()))
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)


def _read_json(path, keys=()) -> dict:
    """Read a JSON object that must hold ``keys``; anything else is a data error."""
    with open(path) as f:
        try:
            payload = json.load(f)
        except ValueError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object")
    missing = [k for k in keys if k not in payload]
    if missing:
        raise ParseError(f"{path}: missing {missing[0]!r}")
    return payload


def _parse_list(text: str, kind, flag: str) -> list:
    """Parse a comma-separated CLI list; a bad token is a config error."""
    values = []
    for token in text.split(","):
        try:
            values.append(kind(token))
        except ValueError:
            raise ConfigError(f"{flag}: {token!r} is not a valid "
                              f"{kind.__name__}") from None
    return values


def _spec_to_json(spec: LayerSpec) -> dict:
    return {"n_in": spec.n_in, "n_out": spec.n_out, "activation": spec.activation,
            "eta": spec.eta, "clusters": list(spec.clusters) if spec.clusters else None}


def _spec_from_json(payload: dict) -> LayerSpec:
    clusters = tuple(payload["clusters"]) if payload.get("clusters") else None
    return LayerSpec(payload["n_in"], payload["n_out"], payload["activation"],
                     payload["eta"], clusters)


# ---------------------------------------------------------------- train

def _write_curve(run, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "split", "accuracy", "loss"])
        for rec in run.epoch_log:
            w.writerow([rec.epoch, rec.split,
                        "" if rec.accuracy is None else f"{rec.accuracy:.6f}",
                        "" if rec.loss is None else f"{rec.loss:.9g}"])


def _write_pulses(run, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["layer", "row", "col", "count"])
        for k, layer in enumerate(run.layers):
            if layer.array is None:
                continue
            counts = layer.array.pulse_counts.sum(axis=2)
            for i in range(layer.array.n_out):
                for j in range(layer.array.n_in):
                    w.writerow([k, j, i, int(counts[i, j])])


def _train_one(cfg, seed, dataset, splits, outdir: Path, bank=None):
    train_ds, val_ds, test_ds = splits
    run = build_training_run(cfg, seed, dataset, bank)
    train(run, train_ds, val_ds)
    test_acc = evaluate(run, test_ds)

    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "package_version": __version__,
        "config": cfg,
        "seed": seed,
        "config_hash": config_hash(cfg),
        "dataset": {"provenance": dataset.provenance,
                    "n_samples": dataset.n_samples,
                    "n_features": dataset.n_features,
                    "n_classes": dataset.n_classes,
                    "sha256": _dataset_digest(dataset)},
        "layers": [_spec_to_json(layer.spec) for layer in run.layers],
        "scale_s": [layer.array.scale_s if layer.array else None
                    for layer in run.layers],
    }
    _write_json(outdir / "manifest.json", manifest)
    _write_curve(run, outdir / "curve.csv")
    if run.is_device:
        _write_pulses(run, outdir / "pulses.csv")
        for k, layer in enumerate(run.layers):
            save_snapshot_csv(layer.array, outdir / f"snapshot_layer{k}.csv")
        run.ledger.save(outdir / "ledger.json")
    val_accs = [r.accuracy for r in run.epoch_log if r.split == "val"]
    metrics = {
        "final_test_accuracy": test_acc,
        "final_val_accuracy": val_accs[-1] if val_accs else None,
        "pulse_stats": pulse_statistics(run),
        "max_buffered_scalars": run.max_buffered_scalars,
    }
    _write_json(outdir / "metrics.json", metrics)
    return test_acc


def _train_worker(payload):
    """Self-contained repeat-run worker: rebuilds its inputs from the config."""
    cfg, seed, run_dir = payload
    dataset = build_dataset(cfg)
    splits = build_splits(cfg, dataset)
    return seed, _train_one(cfg, seed, dataset, splits, Path(run_dir))


def cmd_train(args) -> int:
    overrides = {}
    if args.algo:
        overrides["algorithm"] = args.algo.replace("-", "_")
    if args.task:
        overrides.setdefault("task", {})["kind"] = args.task
    if args.task_path:
        overrides.setdefault("task", {})["path"] = args.task_path
    if args.task_images:
        overrides.setdefault("task", {})["images"] = args.task_images
    if args.task_labels:
        overrides.setdefault("task", {})["labels"] = args.task_labels
    if args.arch:
        overrides.setdefault("arch", {})["single_layer"] = args.arch == "perceptron"
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.repeat is not None:
        overrides["repeat"] = args.repeat
    if args.tau is not None:
        overrides.setdefault("schedule", {})["tau"] = args.tau
    if args.epochs:
        overrides.setdefault("schedule", {})["epochs"] = _parse_list(
            args.epochs, int, "--epochs")
    if args.tech:
        overrides.setdefault("device", {})["tech"] = args.tech
    cfg = load_config(args.config, overrides)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = build_dataset(cfg)
    s = cfg["split"]
    split_spec = SplitSpec(train=s["train"], val=s["val"], test=s["test"],
                           stratified=s["stratified"], seed=s["seed"])
    _write_json(out / "splits.json", split_indices(dataset, split_spec))

    seeds = [cfg["seed"] + rep for rep in range(cfg["repeat"])]
    jobs = [(cfg, seed, str(out / f"run_{seed}")) for seed in seeds]
    if args.workers > 1 and len(jobs) > 1:
        # fan the repeats out across processes; each worker is isolated
        # (own arrays, rng streams, output subdirectory)
        with concurrent.futures.ProcessPoolExecutor(args.workers) as pool:
            by_seed = dict(pool.map(_train_worker, jobs))
    else:
        splits = build_splits(cfg, dataset)
        # a bank loaded from a file or drawn from a pinned seed is the same
        # for every repeat, so it is built once
        bank = None
        if not cfg["algorithm"].startswith("float_") and (
                cfg["bank"].get("path") or cfg["bank"]["seed"] is not None):
            bank = build_bank(cfg, seeds[0])
        by_seed = {seed: _train_one(cfg, seed, dataset, splits,
                                    out / f"run_{seed}", bank)
                   for _, seed, _ in jobs}
    accs = [by_seed[seed] for seed in seeds]
    for seed, acc in zip(seeds, accs):
        print(f"run seed={seed}: test accuracy {acc:.4f}")
    summary = {
        "algorithm": cfg["algorithm"],
        "seeds": seeds,
        "test_accuracy": {"values": accs, "mean": float(np.mean(accs)),
                          "std": float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0},
    }
    _write_json(out / "summary.json", summary, "run_summary.schema.json")
    print(f"summary: mean test accuracy {summary['test_accuracy']['mean']:.4f} "
          f"over {cfg['repeat']} run(s)")
    return EXIT_OK


# ---------------------------------------------------------------- characterize

def cmd_characterize(args) -> int:
    cfg = load_config(args.config, {})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.bank:
        bank = load_bank_csv(args.bank)
    else:
        params = SyntheticTrajectoryParams(**cfg["bank"]["params"])
        count = args.count or cfg["bank"]["count"]
        seed = args.seed if args.seed is not None else (cfg["bank"]["seed"] or 0)
        bank = generate_trajectory_bank(params, count, seed)
        if args.save_bank:
            save_bank_csv(bank, out / "bank.csv")

    rhos = [pearson_coefficient(t, len(t)) for t in bank]
    with open(out / "pearson.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["device_id", "pearson"])
        for k, rho in enumerate(rhos):
            w.writerow([k, f"{rho:.6f}"])
    counts, edges = np.histogram(rhos, bins=40, range=(-1.0, 1.0))
    with open(out / "pearson_hist.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bin_left", "bin_right", "count"])
        for k in range(len(counts)):
            w.writerow([f"{edges[k]:.4f}", f"{edges[k + 1]:.4f}", int(counts[k])])
    print(f"pearson: median {np.median(rhos):.4f}, "
          f"fraction above -0.5: {np.mean(np.array(rhos) > -0.5):.4f}")

    if args.cycles:
        tech = TECH_PROFILES[cfg["device"]["tech"]]
        rng = np.random.default_rng(args.seed or 0)
        cycling = cycle_endurance(bank, rng, args.devices, args.cycles,
                                  args.pulses_per_cycle, tech.endurance_budget)
        n = cycling.completed
        g_start = (cycling.g_start.ravel()[:n] * 1e6).tolist()
        g_end = (cycling.g_end.ravel()[:n] * 1e6).tolist()
        lifetime = cycling.lifetime_pulses.ravel()[:n].tolist()
        with open(out / "endurance.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["device_id", "cycle", "g_start_uS", "g_end_uS",
                        "pulses", "lifetime_pulses"])
            for k in range(n):
                w.writerow([*divmod(k, cycling.g_start.shape[1]), f"{g_start[k]:.6g}",
                            f"{g_end[k]:.6g}", args.pulses_per_cycle, lifetime[k]])
        if cycling.error is not None:
            raise cycling.error
        total = args.cycles * args.pulses_per_cycle
        print(f"endurance: {args.devices} device(s), {args.cycles} cycles x "
              f"{args.pulses_per_cycle} pulses = {total} pulses each, "
              f"budget {tech.endurance_budget}")
    return EXIT_OK


# ---------------------------------------------------------------- age

def cmd_age(args) -> int:
    days = _parse_list(args.days, float, "--days")
    if days != sorted(days):
        raise ConfigError("day checkpoints must be ascending")
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    run_dir = Path(args.run)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ParseError(f"missing manifest: {manifest_path}")
    manifest = _read_json(manifest_path, ("config", "layers", "scale_s"))
    cfg = manifest["config"]
    dataset = build_dataset(cfg)
    _, _, test_ds = build_splits(cfg, dataset)
    scales = manifest["scale_s"]
    if any(s is None for s in scales):
        raise ParseError("run is float-mode; aging needs device snapshots")
    layers = []
    for k, (spec, s) in enumerate(zip(manifest["layers"], scales)):
        snap_path = run_dir / f"snapshot_layer{k}.csv"
        if not snap_path.exists():
            raise ParseError(f"missing snapshot: {snap_path}")
        snap = load_snapshot_csv(snap_path)
        spec = _spec_from_json(spec)
        n_out, n_in = snap["g_plus"].shape
        if (n_out, n_in) != (spec.n_out, spec.n_in):
            raise ParseError(f"{snap_path}: {n_in} rows x {n_out} cols, layer {k} "
                             f"needs {spec.n_in} x {spec.n_out}")
        layers.append((spec, s, (snap["g_plus"], snap["g_minus"])))

    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0xA6E]))
    accuracies = age_conductances(layers, days, build_drift_params(cfg), rng,
                                  args.repeats, test_ds,
                                  cfg["algorithm"].removeprefix("float_"),
                                  cfg["rules"]["token_amplitude"],
                                  cfg["rules"]["sff_inference"])
    with open(run_dir / "aging.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["day", "repeat", "accuracy"])
        for rep, row in enumerate(accuracies.tolist()):
            w.writerows([day, rep, f"{acc:.6f}"] for day, acc in zip(days, row))
    for day, accs in zip(days, accuracies.T):
        print(f"day {day:g}: accuracy {np.mean(accs):.4f} +/- {np.std(accs):.4f}")
    return EXIT_OK


# ---------------------------------------------------------------- energy

def cmd_energy(args) -> int:
    run_dir = Path(args.run)
    ledger_path = run_dir / "ledger.json"
    if not ledger_path.exists():
        raise ParseError(f"missing ledger: {ledger_path}")
    ledger = EnergyLedger.load(ledger_path)
    profiles = [p.strip() for p in args.tech.split(",") if p.strip()]
    for p in profiles:
        if p not in TECH_PROFILES:
            raise ConfigError(f"unknown tech profile {p!r}")

    native = sum(programming_energy(ledger, TECH_PROFILES[name], recorded_as=name)
                 for name in ledger.pulse_sums)
    recost = {name: programming_energy(ledger, TECH_PROFILES[name])
              for name in profiles}
    ratios = {}
    for a in profiles:
        for b in profiles:
            if a != b and recost[b] > 0:
                ratios[f"{a}/{b}"] = recost[a] / recost[b]
    mac_projected = mac_energy_projection(ledger.mac_count)
    # informational: how projected MAC cost compares to programming on the
    # low-voltage devices (roughly 2x for a forward-only run)
    if recost.get("mac_array", 0) > 0 and mac_projected > 0:
        ratios["mac_projected/mac_array_programming"] = (
            mac_projected / recost["mac_array"])
    pulse_count = ledger.pulse_count
    mean_pulse_j = native / pulse_count if pulse_count else 0.0
    mean_optimized_j = (recost.get("mac_array", 0.0) / pulse_count
                        if pulse_count else 0.0)
    report = {
        "pulse_count": pulse_count,
        "mac_count": ledger.mac_count,
        "programming_j": native,
        "read_j": read_energy(ledger),
        "reinit_j": ledger.reinit_energy_j,
        "mac_projected_j": mac_projected,
        "recosting_j": recost,
        "ratios": ratios,
        "pv_baseline": {
            "per_update_j": PV_UPDATE_ENERGY_J,
            "total_j": pv_baseline_energy(pulse_count),
            "ratio_vs_mean_pulse": (PV_UPDATE_ENERGY_J / mean_pulse_j
                                    if mean_pulse_j else None),
            "ratio_vs_optimized_pulse": (PV_UPDATE_ENERGY_J / mean_optimized_j
                                         if mean_optimized_j else None),
        },
    }
    _write_json(run_dir / "energy.json", report, "energy_report.schema.json")
    print(f"pulses: {pulse_count}, programming {native:.3e} J, "
          f"reads {report['read_j']:.3e} J, "
          f"projected MAC {report['mac_projected_j']:.3e} J")
    for name, value in recost.items():
        print(f"re-costed under {name}: {value:.3e} J")
    return EXIT_OK


# ---------------------------------------------------------------- stats

def cmd_stats(args) -> int:
    if len(args.files) < 2:
        raise ParseError("need >= 2 groups of accuracies")
    groups = {}
    for path in args.files:
        values = []
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    values.append(float(line))
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: not a number: {line!r}") from exc
        if len(values) < 2:
            raise ParseError(f"{path}: need at least 2 values per group")
        groups[Path(path).stem] = values
    report = StatReport.from_groups(groups, alpha=args.alpha)
    payload = report.to_json()
    if args.out:
        _write_json(args.out, payload, "stats_report.schema.json")
    for (a, b), p, rejected in zip(report.pairs, report.p_values, report.rejected):
        verdict = "reject" if rejected else "retain"
        print(f"{a} vs {b}: p = {p:.4f} ({verdict} at alpha={args.alpha})")
    return EXIT_OK


# ---------------------------------------------------------------- gradcheck

def cmd_gradcheck(args) -> int:
    if args.rule == "all":
        results = gradcheck_mod.run_all(trials=args.trials, seed=args.seed)
    elif args.rule == "sff":
        results = [gradcheck_mod.check_sff(args.trials, args.seed)]
    elif args.rule == "cf":
        results = [gradcheck_mod.check_cf(args.variant, args.trials, args.seed)]
    else:
        results = [gradcheck_mod.check_bp(args.trials, args.seed)]
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}: {status} ({res.trials} trials, "
              f"worst rel err {res.worst_rel_err:.2e})")
        ok = ok and res.passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------- report

# the fields each artifact must hold for memgrad report
_REPORT_KEYS = {"manifest.json": ("config", "seed", "config_hash"),
                "metrics.json": ("final_test_accuracy", "pulse_stats"),
                "energy.json": ("programming_j", "pulse_count"),
                "summary.json": ("test_accuracy",)}


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    print(f"run directory: {run_dir}")
    for name in ("manifest.json", "metrics.json", "energy.json", "summary.json"):
        path = run_dir / name
        if not path.exists():
            continue
        payload = _read_json(path, _REPORT_KEYS[name])
        if name == "manifest.json":
            print(f"  algorithm: {payload['config']['algorithm']}, "
                  f"seed {payload['seed']}, "
                  f"config hash {payload['config_hash'][:12]}")
        elif name == "metrics.json":
            print(f"  final test accuracy: {payload['final_test_accuracy']:.4f}")
            for entry in payload["pulse_stats"]["per_layer"]:
                print(f"  layer {entry['layer']}: {entry['pulses']} pulses, "
                      f"{entry['mean_per_device']:.1f} per device")
        elif name == "energy.json":
            print(f"  programming energy: {payload['programming_j']:.3e} J "
                  f"({payload['pulse_count']} pulses)")
        elif name == "summary.json":
            acc = payload["test_accuracy"]
            print(f"  repeat summary: {acc['mean']:.4f} +/- {acc['std']:.4f}")
    aging = run_dir / "aging.csv"
    if aging.exists():
        with open(aging) as f:
            rows = list(csv.DictReader(f))
        days = sorted({float(r["day"]) for r in rows})
        for day in days:
            accs = [float(r["accuracy"]) for r in rows if float(r["day"]) == day]
            print(f"  aging day {day:g}: {np.mean(accs):.4f}")
    return EXIT_OK


# ---------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memgrad",
        description="Simulator and training harness for sub-1 V reset-only "
                    "learning on memristor crossbars")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="trajectory bank statistics and endurance")
    p.add_argument("--config")
    p.add_argument("--bank", help="load a measured bank CSV instead of generating")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--save-bank", action="store_true")
    p.add_argument("--cycles", type=int, default=0)
    p.add_argument("--pulses-per-cycle", type=int, default=5000)
    p.add_argument("--devices", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("train", help="run a training experiment")
    p.add_argument("--config")
    p.add_argument("--algo", choices=["bp", "sff", "cf", "float-bp", "float-sff",
                                      "float-cf"])
    p.add_argument("--task", choices=["synthetic", "csv", "idx"])
    p.add_argument("--task-path", help="feature CSV for --task csv")
    p.add_argument("--task-images", help="IDX image file for --task idx")
    p.add_argument("--task-labels", help="IDX label file for --task idx")
    p.add_argument("--arch", choices=["perceptron", "mlp"],
                   help="backprop topology (forward rules fix their own)")
    p.add_argument("--seed", type=int)
    p.add_argument("--repeat", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--epochs", help="comma-separated per-phase epoch counts")
    p.add_argument("--tech", choices=list(TECH_PROFILES))
    p.add_argument("--workers", type=int, default=1,
                   help="process pool size for --repeat fan-out")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("age", help="post-training retention study")
    p.add_argument("--run", required=True)
    p.add_argument("--days", required=True, help="comma-separated day checkpoints")
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_age)

    p = sub.add_parser("energy", help="energy totals and cross-tech re-costing")
    p.add_argument("--run", required=True)
    p.add_argument("--tech", default="large_array,mac_array")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("stats", help="pairwise Welch tests with Holm correction")
    p.add_argument("files", nargs="+", help="one accuracy per line, per group")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--rule", choices=["all", "sff", "cf", "bp"], default="all")
    p.add_argument("--variant", choices=["temperature", "offset"],
                   default="temperature")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="plain-text summary of a run directory")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
