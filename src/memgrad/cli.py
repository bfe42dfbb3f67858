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
import dataclasses
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import read_csv, read_json, write_csv, write_json
from .config import (ConfigError, TECH_PROFILES, build_bank, build_dataset,
                     build_drift_params, build_split_indices, build_splits,
                     build_training_run, config_hash, effective_config,
                     load_config, measured_bank)
from .data import FeatureDataset, ParseError, split
from .device import cycle_endurance, pearson_coefficient, save_bank_csv
from .energy import (EnergyLedger, mac_energy_projection, programming_energy,
                     pv_baseline_energy, read_energy, PV_UPDATE_ENERGY_J)
from .crossbar import save_snapshot_csv, load_snapshot_csv
from .rules import LayerSpec
from .stats import compare_groups
from .trainer import age_conductances, evaluate, pulse_statistics, train
from . import gradcheck as gradcheck_mod

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _dataset_digest(ds: FeatureDataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.features))
    h.update(np.ascontiguousarray(ds.labels))
    return h.hexdigest()


def _read_manifest(path) -> dict:
    """A run manifest that records the complete effective config of its run."""
    manifest = read_json(path, "manifest.schema.json")
    if effective_config(manifest["config"]) != manifest["config"]:
        raise ParseError(f"{path}: invalid at config: not a complete run config")
    return manifest


def _check_min(args, **minimums):
    """Refuse an integer flag below its minimum, naming the flag."""
    for name, low in minimums.items():
        value = getattr(args, name)
        if value < low:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= {low}, "
                              f"got {value}")


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


# ---------------------------------------------------------------- train

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
        "layers": [dataclasses.asdict(layer.spec) for layer in run.layers],
        "scale_s": [layer.array.scale_s if layer.array else None
                    for layer in run.layers],
    }
    write_json(outdir / "manifest.json", manifest, "manifest.schema.json")
    write_csv(outdir / "curve.csv", ["epoch", "split", "accuracy", "loss"],
              (row for epoch, (loss, acc) in enumerate(
                  run.epoch_log[["loss", "val_accuracy"]].tolist())
               for row in ([epoch, "train", "", f"{loss:.9g}"],
                           [epoch, "val", f"{acc:.6f}", ""])))
    if run.is_device:
        write_csv(outdir / "pulses.csv", ["layer", "row", "col", "count"],
                  ([k, j, i, count] for k, layer in enumerate(run.layers)
                   if layer.array is not None
                   for i, counts in enumerate(layer.array.pulse_counts.sum(axis=2).tolist())
                   for j, count in enumerate(counts)))
        for k, layer in enumerate(run.layers):
            save_snapshot_csv(layer.array, outdir / f"snapshot_layer{k}.csv")
        run.ledger.save(outdir / "ledger.json")
    metrics = {
        "final_test_accuracy": test_acc,
        "final_val_accuracy": run.epoch_log["val_accuracy"][-1].item(),
        "pulse_stats": pulse_statistics(run),
        "max_buffered_scalars": run.max_buffered_scalars,
    }
    write_json(outdir / "metrics.json", metrics, "metrics.schema.json")
    return test_acc


def _train_runs(cfg, dataset, indices, seeds, out: Path) -> dict:
    """Train and write the runs of ``seeds``; one call per process."""
    splits = split(dataset, indices)
    # a float run reads no bank; runs on a pinned bank.seed share their draw
    # through device's cache
    bank = None if cfg["algorithm"].startswith("float_") else measured_bank(cfg)
    return {seed: _train_one(cfg, seed, dataset, splits, out / f"run_{seed}", bank)
            for seed in seeds}


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
    _check_min(args, workers=1)

    dataset = build_dataset(cfg)
    indices = build_split_indices(cfg, dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "splits.json", indices)

    seeds = [cfg["seed"] + rep for rep in range(cfg["repeat"])]
    n = min(args.workers, len(seeds))
    if n > 1:
        # process k trains seeds k, k+n, ...; each writes only its own
        # run directories
        with concurrent.futures.ProcessPoolExecutor(n) as pool:
            parts = pool.map(_train_runs, [cfg] * n, [dataset] * n, [indices] * n,
                             [seeds[k::n] for k in range(n)], [out] * n)
            by_seed = {seed: acc for part in parts for seed, acc in part.items()}
    else:
        by_seed = _train_runs(cfg, dataset, indices, seeds, out)
    accs = [by_seed[seed] for seed in seeds]
    for seed, acc in zip(seeds, accs):
        print(f"run seed={seed}: test accuracy {acc:.4f}")
    summary = {
        "algorithm": cfg["algorithm"],
        "seeds": seeds,
        "test_accuracy": {"values": accs, "mean": float(np.mean(accs)),
                          "std": float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0},
    }
    write_json(out / "summary.json", summary, "run_summary.schema.json")
    print(f"summary: mean test accuracy {summary['test_accuracy']['mean']:.4f} "
          f"over {cfg['repeat']} run(s)")
    return EXIT_OK


# ---------------------------------------------------------------- characterize

def cmd_characterize(args) -> int:
    _check_min(args, cycles=0, pulses_per_cycle=0, devices=0)
    flags = {"path": args.bank, "count": args.count, "seed": args.seed}
    cfg = load_config(args.config, {"bank": {key: value for key, value in flags.items()
                                             if value is not None}})
    if cfg["bank"]["seed"] is None:
        # a characterization draws from seed 0, not from a run seed
        cfg = effective_config(cfg, {"bank": {"seed": 0}})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bank = build_bank(cfg, cfg["seed"])
    if args.save_bank and not cfg["bank"]["path"]:
        save_bank_csv(bank, out / "bank.csv")

    # one pass over the bank's row blocks keeps, per trajectory, its
    # coefficient and the two samples that endurance cycling reads
    lengths = bank.lengths
    last = np.minimum(args.pulses_per_cycle, lengths - 1)
    rhos, g_first, g_last = (np.empty(len(bank)) for _ in range(3))
    for start, g in bank.blocks():
        rows = slice(start, start + len(g))
        g_first[rows] = g[:, 0]
        g_last[rows] = g[np.arange(len(g)), last[rows]]
        # a block's rows of one length share a call
        block_lengths = lengths[rows]
        for length in np.unique(block_lengths).tolist():
            same = np.flatnonzero(block_lengths == length)
            rhos[start + same] = pearson_coefficient(g[same, :length], length)
    write_csv(out / "pearson.csv", ["device_id", "pearson"],
              ([k, f"{rho:.6f}"] for k, rho in enumerate(rhos.tolist())))
    counts, edges = np.histogram(rhos, bins=40, range=(-1.0, 1.0))
    write_csv(out / "pearson_hist.csv", ["bin_left", "bin_right", "count"],
              ([f"{left:.4f}", f"{right:.4f}", count]
               for left, right, count in zip(edges, edges[1:], counts.tolist())))
    print(f"pearson: median {np.median(rhos):.4f}, "
          f"fraction above -0.5: {np.mean(rhos > -0.5):.4f}")

    if args.cycles:
        tech = TECH_PROFILES[cfg["device"]["tech"]]
        rng = np.random.default_rng(args.seed or 0)
        cycling = cycle_endurance(g_first, g_last, lengths, rng, args.devices,
                                  args.cycles, args.pulses_per_cycle,
                                  tech.endurance_budget)
        n = cycling.completed
        g_start = (cycling.g_start.ravel()[:n] * 1e6).tolist()
        g_end = (cycling.g_end.ravel()[:n] * 1e6).tolist()
        lifetime = cycling.lifetime_pulses.ravel()[:n].tolist()
        write_csv(out / "endurance.csv", ["device_id", "cycle", "g_start_uS", "g_end_uS",
                                          "pulses", "lifetime_pulses"],
                  ([*divmod(k, cycling.g_start.shape[1]), f"{g_start[k]:.6g}",
                    f"{g_end[k]:.6g}", args.pulses_per_cycle, lifetime[k]] for k in range(n)))
        if cycling.error is not None:
            raise cycling.error
        total = args.cycles * args.pulses_per_cycle
        print(f"endurance: {args.devices} device(s), {args.cycles} cycles x "
              f"{args.pulses_per_cycle} pulses = {total} pulses each, "
              f"budget {tech.endurance_budget}")
    return EXIT_OK


# ---------------------------------------------------------------- age

_AGING_HEADER = ["day", "repeat", "accuracy"]


def cmd_age(args) -> int:
    days = _parse_list(args.days, float, "--days")
    for token, day in zip(args.days.split(","), days):
        if not 0 <= day < math.inf:
            raise ConfigError(f"--days: {token!r} is not a finite day >= 0")
    if days != sorted(days):
        raise ConfigError("day checkpoints must be ascending")
    _check_min(args, repeats=1, seed=0)
    run_dir = Path(args.run)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ParseError(f"missing manifest: {manifest_path}")
    manifest = _read_manifest(manifest_path)
    cfg, specs, scales = manifest["config"], manifest["layers"], manifest["scale_s"]
    if len(specs) != len(scales):
        raise ParseError(f"{manifest_path}: invalid at scale_s: {len(scales)} "
                         f"scale(s) for {len(specs)} layers")
    if any(s is None for s in scales):
        raise ParseError("run is float-mode; aging needs device snapshots")
    for k, spec in enumerate(specs):
        try:
            specs[k] = LayerSpec(**spec)
        except ValueError as exc:
            # the schema cannot relate a layer's clusters to its n_out
            raise ParseError(f"{manifest_path}: invalid at layers/{k}: {exc}") from exc
    dataset = build_dataset(cfg)
    _, _, test_ds = build_splits(cfg, dataset)
    if _dataset_digest(dataset) != manifest["dataset"]["sha256"]:
        raise ParseError(f"{manifest_path}: the config's dataset is not the one "
                         f"the run was trained on (sha256 differs)")
    layers = []
    for k, (spec, s) in enumerate(zip(specs, scales)):
        snap_path = run_dir / f"snapshot_layer{k}.csv"
        if not snap_path.exists():
            raise ParseError(f"missing snapshot: {snap_path}")
        snap = load_snapshot_csv(snap_path)
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
    write_csv(run_dir / "aging.csv", _AGING_HEADER,
              ([day, rep, f"{acc:.6f}"] for rep, row in enumerate(accuracies.tolist())
               for day, acc in zip(days, row)))
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

    native = programming_energy(ledger, ledger.tech)
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
    write_json(run_dir / "energy.json", report, "energy_report.schema.json")
    print(f"pulses: {pulse_count}, programming {native:.3e} J, "
          f"reads {report['read_j']:.3e} J, "
          f"projected MAC {report['mac_projected_j']:.3e} J")
    for name, value in recost.items():
        print(f"re-costed under {name}: {value:.3e} J")
    return EXIT_OK


# ---------------------------------------------------------------- stats

def cmd_stats(args) -> int:
    if not 0 < args.alpha < 1:
        raise ConfigError(f"--alpha must be in (0, 1), got {args.alpha}")
    paths = {}   # a group is named by its file's stem
    for path in args.files:
        name = Path(path).stem
        if name in paths:
            raise ConfigError(f"{paths[name]} and {path} are both group {name!r}")
        paths[name] = path
    if len(paths) < 2:
        raise ParseError("need >= 2 groups of accuracies")
    groups = {}
    for name, path in paths.items():
        values = []
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    value = float(line)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: not a number: {line!r}") from exc
                if not math.isfinite(value):
                    raise ParseError(f"{path}:{lineno}: not a finite number: {line!r}")
                values.append(value)
        if len(values) < 2:
            raise ParseError(f"{path}: need at least 2 values per group")
        groups[name] = values
    payload = compare_groups(groups, alpha=args.alpha)
    if args.out:
        write_json(args.out, payload, "stats_report.schema.json")
    for pair in payload["pairwise"]:
        verdict = "reject" if pair["reject"] else "retain"
        print(f"{pair['a']} vs {pair['b']}: p = {pair['p_value']:.4f} "
              f"({verdict} at alpha={args.alpha})")
    return EXIT_OK


# ---------------------------------------------------------------- gradcheck

def cmd_gradcheck(args) -> int:
    _check_min(args, trials=1, seed=0)
    if args.rule == "all":
        results = gradcheck_mod.run_all(args.trials, args.seed)
    else:
        results = [gradcheck_mod.SUITES[args.rule](args.trials, args.seed)]
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}: {status} ({res.trials} trials, "
              f"worst rel err {res.worst_rel_err:.2e})")
        ok = ok and res.passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------- report

def _print_artifact(name: str, payload: dict):
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


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    schemas = {"manifest.json": None, "metrics.json": "metrics.schema.json",
               "energy.json": "energy_report.schema.json",
               "summary.json": "run_summary.schema.json"}
    names = [*schemas, "aging.csv"]
    if not run_dir.is_dir() or not any((run_dir / name).exists() for name in names):
        raise ParseError(f"{run_dir}: not a run directory (no {', '.join(names)})")
    print(f"run directory: {run_dir}")
    for name, schema in schemas.items():
        path = run_dir / name
        if path.exists():
            _print_artifact(name, read_json(path, schema) if schema
                            else _read_manifest(path))
    aging = run_dir / "aging.csv"
    if aging.exists():
        by_day = {}
        for _, (day, _, acc) in read_csv(aging, _AGING_HEADER, lambda r: (
                float(r[0]), int(r[1]), float(r[2]))):
            by_day.setdefault(day, []).append(acc)
        for day in sorted(by_day):
            print(f"  aging day {day:g}: {np.mean(by_day[day]):.4f}")
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
    p.add_argument("--rule", choices=["all", *gradcheck_mod.SUITES], default="all")
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
    except (ParseError, FileNotFoundError, IsADirectoryError, FileExistsError,
            NotADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
