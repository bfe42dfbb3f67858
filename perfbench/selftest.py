"""The benchmark's own tests.  They run real workloads (about a minute), so
they are not collected by a plain ``pytest``; run them explicitly:

    python3 -m pytest -q perfbench/selftest.py
"""

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

assert not run.bootstrap(), run.bootstrap()

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import Desk, child_env  # noqa: E402

# Bindings each workload must reach at this commit: "<importing module>.<name>"
# for functions, "<module>.<Class>.<method>" for methods.  Every module named
# in the binding table (trainer <- rules, crossbar <- device, cli <- trainer,
# crossbar, device, energy, config <- device, trainer) appears.
EXPECTED_HITS = {
    "desk": [
        "trainer.threshold_sign_plan", "trainer.cf_gradient", "trainer.sff_gradient",
        "trainer.bp_gradients", "trainer.apply_retention_drift", "trainer.evaluate",
        "trainer.evaluate_weights", "trainer.train", "trainer.simulate_aging",
        "crossbar.apply_reset_pulse", "config.generate_trajectory_bank",
        "config.make_run", "config.build_training_run", "data.make_cluster_task",
        "data.split", "energy.programming_energy", "energy.read_energy",
        "crossbar.CrossbarArray.apply_update_plan", "crossbar.CrossbarArray.map_weights",
        "crossbar.CrossbarArray.build", "energy.EnergyLedger.record_pulse",
        "energy.EnergyLedger.record_read",
    ],
    "cli_pipeline": [
        "cli.main", "cli.train", "cli.evaluate", "cli.evaluate_weights",
        "cli.pulse_statistics", "cli.build_training_run", "cli.save_snapshot_csv",
        "cli.load_snapshot_csv", "cli.apply_retention_drift", "cli.programming_energy",
        "cli.read_energy", "config.generate_trajectory_bank", "config.make_run",
        "trainer.threshold_sign_plan", "trainer.cf_gradient", "crossbar.apply_reset_pulse",
        "energy.EnergyLedger.save", "energy.EnergyLedger.load",
        "cli.generate_trajectory_bank", "cli.pearson_coefficient", "cli.reinitialize",
        "cli.apply_reset_pulse",
    ],
}
# Installed but reached by no workload: the REINIT policy is off by default.
UNREACHED = ["crossbar.reinitialize"]


@pytest.mark.parametrize("workload", sorted(EXPECTED_HITS))
def test_traced_run_hits_every_wrapper(workload):
    lines = []
    result = run.run_workload(workload, 0, 1.0, 1, lines.append)
    record = result["record"]
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0
    assert not record["absent"]
    hits = record["hits"]
    for binding in EXPECTED_HITS[workload] + UNREACHED:
        assert binding in hits, f"no wrapper installed at {binding}"
    missed = [b for b in EXPECTED_HITS[workload] if hits[b] == 0]
    assert not missed, f"wrappers not hit on {workload}: {missed}"
    names = [name for name, _ in tracing.PER_LAYER]
    assert set(names) <= set(result["metrics"])
    if workload == "desk":
        skipped = {op: c.get("crossbar.pulses_skipped", 0)
                   for op, c in record["op_counters"].items()
                   if "crossbar.pulses_planned" in c}
        assert skipped.pop("cf_narrow.s0") > 0
        assert skipped and not any(skipped.values()), skipped


@pytest.fixture(scope="module")
def desk():
    workload = Desk(0, run.WORK / "selftest", sys.executable,
                    child_env(run.ROOT))
    workload.prepare()
    return workload


def test_gate_flags_one_extra_applied_pulse(desk, monkeypatch):
    from memgrad import crossbar

    reference = gate.Gate("desk", 0)
    assert reference.has_reference
    clean = desk._train("cf", 0, [])
    assert reference.check(clean.name, clean.outcome) == []

    original = crossbar.CrossbarArray.apply_update_plan
    injected = []

    def one_extra_pulse(self, plan, *args, **kwargs):
        if not injected:
            free = next((i, j) for i in range(self.n_out) for j in range(self.n_in)
                        if (i, j) not in plan.actions)
            plan.add(*free, crossbar.Polarity.PULSE_PLUS)
            injected.append(free)
        return original(self, plan, *args, **kwargs)

    monkeypatch.setattr(crossbar.CrossbarArray, "apply_update_plan", one_extra_pulse)
    mutated = desk._train("cf", 0, [])
    diffs = gate.Gate("desk", 0).check(mutated.name, mutated.outcome)
    assert injected
    assert any(d.startswith("pulse_counts") for d in diffs), diffs
    assert any(d.startswith("pulses:") for d in diffs), diffs


def test_compare_tolerances():
    base = {"exact": {"pulses": 10, "acc": 0.5}, "close": {"read_j": 1.0}}
    assert gate.compare(base, copy.deepcopy(base)) == []
    near = copy.deepcopy(base)
    near["close"]["read_j"] = 1.0 + 1e-12
    assert gate.compare(base, near) == []
    far = copy.deepcopy(base)
    far["close"]["read_j"] = 1.0 + 1e-6
    assert gate.compare(base, far)
    extra = copy.deepcopy(base)
    extra["exact"]["pulses"] = 11
    assert gate.compare(base, extra)
    assert gate.round6({"a": 1.23456789e-9, "n": 7}) == {"a": 1.23457e-9, "n": 7}


def test_gate_flags_unrepeatable_output():
    check = gate.Gate("desk", 10**6, reference={})
    first = {"exact": {"pulses": 10}, "close": {}}
    assert check.check("cf.s1", first) == []
    assert check.check("cf.s1", {"exact": {"pulses": 11}, "close": {}})
