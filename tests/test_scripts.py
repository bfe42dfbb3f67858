"""Maintenance scripts stay importable against the package's public API."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_tune_defaults_imports():
    # the script's __main__ guard keeps the import free of calibration runs;
    # a public name it imports that the package no longer defines fails here
    spec = importlib.util.spec_from_file_location("tune_defaults",
                                                  SCRIPTS / "tune_defaults.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
