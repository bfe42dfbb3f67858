"""Output-equivalence gate: what each benchmark operation produced, and whether
it matches the stored reference.

An outcome is ``{"exact": {...}, "close": {...}}``.  Exact fields (pulse
counts, final conductances, ledger counts, accuracies, CSV rows and
6-significant-digit ``energy.json`` values) must be equal; close fields
(energy totals summed in-process) may differ by 1e-9 relative, so a change of
summation order is not a behaviour change.  Arrays and files enter as SHA-256
digests.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
REFERENCE = Path(__file__).with_name("reference.json")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def array_digest(arrays, dtype) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()[:32]


def file_digest(path) -> str:
    return sha(Path(path).read_bytes())


def round6(value):
    """energy.json values at the ledger's 6-significant-digit precision."""
    if isinstance(value, dict):
        return {k: round6(v) for k, v in value.items()}
    if isinstance(value, list):
        return [round6(v) for v in value]
    if isinstance(value, float):
        return float(f"{value:.6g}")
    return value


def run_outcome(run, accuracies: dict, energy_mod, techs: dict) -> dict:
    """Outcome of one in-process training run (device or float mode)."""
    exact = {k: float(v) for k, v in accuracies.items()}
    close = {}
    arrays = [layer.array for layer in run.layers if layer.array is not None]
    if arrays:
        exact["pulse_counts"] = array_digest([a.pulse_counts for a in arrays], np.int64)
        exact["conductances"] = array_digest(
            [g for a in arrays for g in a.conductances()], np.float64)
        exact["pulses"] = int(sum(int(a.pulse_counts.sum()) for a in arrays))
        exact["ledger_pulses"] = int(run.ledger.pulse_count)
        exact["ledger_macs"] = int(run.ledger.mac_count)
        for name, tech in techs.items():
            close[f"programming_j.{name}"] = energy_mod.programming_energy(run.ledger, tech)
        close["read_j"] = energy_mod.read_energy(run.ledger)
    return {"exact": exact, "close": close}


def digest(outcome: dict) -> str:
    """Short digest of the exact part, for comparing two commits on any seed."""
    return sha(json.dumps(outcome["exact"], sort_keys=True).encode())[:16]


def compare(expected: dict, got: dict) -> list[str]:
    """Human-readable differences; empty when the outcomes are equivalent."""
    diffs = []
    for key in sorted(set(expected["exact"]) | set(got["exact"])):
        a, b = expected["exact"].get(key), got["exact"].get(key)
        if a != b:
            diffs.append(f"{key}: expected {a!r}, got {b!r}")
    for key in sorted(set(expected["close"]) | set(got["close"])):
        a, b = expected["close"].get(key), got["close"].get(key)
        if a is None or b is None or not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0):
            diffs.append(f"{key}: expected {a!r}, got {b!r} (rel tol {REL_TOL})")
    return diffs


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())


class Gate:
    """Checks each operation against the reference for its (workload, seed),
    and every later pass against the first, so that seeds without a stored
    reference are still checked for repeatability."""

    def __init__(self, workload: str, seed: int, reference: dict | None = None):
        ref = load_reference() if reference is None else reference
        self.expected = dict(ref.get(workload, {}).get(str(seed), {}))
        self.has_reference = bool(self.expected)
        self.seen: dict[str, dict] = {}

    def check(self, op: str, outcome: dict) -> list[str]:
        if op in self.expected:
            diffs = compare(self.expected[op], outcome)
        elif self.has_reference:
            diffs = [f"operation {op!r} has no stored reference"]
        else:
            diffs = []
        if op in self.seen:
            diffs += [f"not repeatable: {d}" for d in compare(self.seen[op], outcome)]
        else:
            self.seen[op] = outcome
        return diffs
