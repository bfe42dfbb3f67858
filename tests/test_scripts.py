"""Maintenance scripts and the package's public API stay importable, and the
benchmark's calls into the package keep working."""

import ast
import importlib
import importlib.util
import math
import pkgutil
import sys
from pathlib import Path

import pytest

import memgrad
from memgrad import config, energy, trainer

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tune_defaults_imports():
    # the script's __main__ guard keeps the import free of calibration runs;
    # a public name it imports that the package no longer defines fails here
    spec = importlib.util.spec_from_file_location("tune_defaults",
                                                  SCRIPTS / "tune_defaults.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_every_exported_name_resolves():
    # a name deleted from a module but left in its __all__ fails here
    for info in pkgutil.iter_modules(memgrad.__path__):
        module = importlib.import_module(f"memgrad.{info.name}")
        missing = [name for name in getattr(module, "__all__", [])
                   if not hasattr(module, name)]
        assert not missing, f"memgrad.{info.name}.__all__ names {missing}"


def test_package_reexports_only_public_names():
    # every name memgrad/__init__.py imports from a submodule is in that
    # submodule's __all__
    tree = ast.parse(Path(memgrad.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"memgrad.{node.module}")
        private = [alias.name for alias in node.names
                   if alias.name not in module.__all__]
        assert not private, f"memgrad re-exports {private} from {node.module}"


def test_only_artifacts_imports_file_format_libraries():
    # every CSV and JSON Schema file goes through memgrad/artifacts.py
    offenders = []
    for path in sorted(Path(memgrad.__file__).parent.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        if path.name != "artifacts.py" and imported & {"csv", "jsonschema"}:
            offenders.append(path.name)
    assert not offenders, f"{offenders} import csv or jsonschema"


@pytest.mark.parametrize("algorithm", ["cf", "float_bp"])
def test_benchmark_outcome_of_a_training_run(monkeypatch, algorithm):
    # the benchmark's gate calls the package as its desk workload does; a
    # drift in those calls fails here, not only as failed benchmark operations
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "gate", raising=False)
    gate = importlib.import_module("gate")
    cfg = config.effective_config(None, {
        "algorithm": algorithm, "schedule": {"epochs": [1, 1]},
        "task": {"n_classes": 4, "n_features": 12, "n_per_class": 30, "seed": 21},
        "arch": {"hidden_units": 12, "cluster_size": 3},
        "bank": {"count": 64, "seed": 11, "params": {"p_max": 300}}})
    dataset = config.build_dataset(cfg)
    train_ds, val_ds, test_ds = config.build_splits(cfg, dataset)
    run = config.build_training_run(cfg, 0, dataset)
    trainer.train(run, train_ds, val_ds)
    accs = {"test_accuracy": trainer.evaluate(run, test_ds)}
    outcome = gate.run_outcome(run, accs, energy, config.TECH_PROFILES)
    close = outcome["close"]
    if algorithm == "float_bp":
        assert close == {} and set(outcome["exact"]) == {"test_accuracy"}
        return
    assert outcome["exact"]["ledger_pulses"] == outcome["exact"]["pulses"] > 0
    for key in ("programming_j.large_array", "programming_j.mac_array", "read_j"):
        assert isinstance(close[key], float) and math.isfinite(close[key]), key
