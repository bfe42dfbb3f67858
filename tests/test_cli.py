"""CLI surface: commands, exit codes, artifact round trips."""

import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from memgrad import cli, config
from memgrad.device import (DeviceState, EnduranceExceeded, NeedsReinit,
                            SyntheticTrajectoryParams, TrajectoryBank,
                            apply_reset_pulse, generate_trajectory_bank,
                            load_bank_csv, reinitialize, save_bank_csv)

PAPER_LISTS = {
    "bp": "90.62\n91.18\n89.89\n87.87\n90.44\n",
    "sff": "88.05\n90.44\n87.68\n89.89\n91.36\n",
    "cf": "91.18\n90.62\n89.52\n90.44\n86.03\n",
}

TINY_CONFIG = {
    "task": {"n_classes": 4, "n_features": 12, "n_per_class": 30,
             "noise_sigma": 0.3, "seed": 21},
    "arch": {"hidden_units": 12, "cluster_size": 3},
    "schedule": {"epochs": [1, 1]},
    "bank": {"count": 64, "seed": 11,
             "params": {"p_max": 300, "anomalous_probability": 0.0}},
}


@pytest.fixture()
def tiny_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


@pytest.fixture()
def paper_files(tmp_path):
    paths = []
    for name, content in PAPER_LISTS.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(content)
        paths.append(str(p))
    return paths


class TestStatsCommand:
    def test_reproduces_paper_pvalues(self, paper_files, tmp_path, capsys):
        out = tmp_path / "stats.json"
        rc = cli.main(["stats", *paper_files, "--alpha", "0.05",
                       "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        got = {(e["a"], e["b"]): e["p_value"] for e in payload["pairwise"]}
        assert got[("bp", "sff")] == pytest.approx(0.586, abs=0.002)
        assert got[("bp", "cf")] == pytest.approx(0.697, abs=0.002)
        assert got[("sff", "cf")] == pytest.approx(0.951, abs=0.002)
        assert all(not e["reject"] for e in payload["pairwise"])

    def test_single_group_is_data_error(self, paper_files, capsys):
        rc = cli.main(["stats", paper_files[0]])
        assert rc == cli.EXIT_DATA
        assert "2 groups" in capsys.readouterr().err

    def test_malformed_value_names_line(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("1.0\nnope\n")
        b = tmp_path / "b.txt"
        b.write_text("1.0\n2.0\n")
        rc = cli.main(["stats", str(a), str(b)])
        assert rc == cli.EXIT_DATA
        assert "a.txt:2" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_all_suites_pass(self, capsys):
        rc = cli.main(["gradcheck", "--trials", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_offset_variant_path(self, capsys):
        rc = cli.main(["gradcheck", "--rule", "cf", "--variant", "offset",
                       "--trials", "4"])
        assert rc == 0
        assert "cf_offset" in capsys.readouterr().out

    def test_sign_flip_negative_control(self, monkeypatch, capsys):
        # an implementation with the wrong sign must be caught
        from memgrad import gradcheck as gc
        real = gc.sff_gradient

        def flipped(*args, **kwargs):
            out = real(*args, **kwargs)
            out.grad = -out.grad
            return out

        monkeypatch.setattr(gc, "sff_gradient", flipped)
        rc = cli.main(["gradcheck", "--rule", "sff", "--trials", "4"])
        assert rc == cli.EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out


class TestCharacterizeCommand:
    def test_generates_histogram_and_endurance(self, tmp_path, capsys):
        out = tmp_path / "char"
        rc = cli.main(["characterize", "--count", "80", "--seed", "7",
                       "--cycles", "3", "--pulses-per-cycle", "300",
                       "--devices", "2", "--save-bank", "--out", str(out)])
        assert rc == 0
        assert (out / "pearson.csv").exists()
        assert (out / "pearson_hist.csv").exists()
        assert (out / "bank.csv").exists()
        with open(out / "pearson.csv") as f:
            rows = list(csv.DictReader(f))
        rhos = np.array([float(r["pearson"]) for r in rows])
        assert len(rhos) == 80
        assert np.median(rhos) <= -0.9
        with open(out / "endurance.csv") as f:
            endurance = list(csv.DictReader(f))
        assert len(endurance) == 6  # 2 devices x 3 cycles
        assert int(endurance[-1]["lifetime_pulses"]) == 900

    def test_malformed_bank_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bank.csv"
        bad.write_text("device_id,pulse_index,conductance_uS\n0,0,abc\n")
        rc = cli.main(["characterize", "--bank", str(bad),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DATA


def scalar_endurance(bank, seed, devices, cycles, pulses_per_cycle, budget, path):
    """Reference endurance replay: one DeviceState per device, one call per pulse.

    Writes endurance.csv as the rows complete and returns the exception the
    replay stopped at, or None.
    """
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["device_id", "cycle", "g_start_uS", "g_end_uS",
                    "pulses", "lifetime_pulses"])
        try:
            for dev_id in range(devices):
                device = DeviceState(bank[int(rng.integers(0, len(bank)))])
                for cycle in range(cycles):
                    if cycle > 0:
                        reinitialize(device, bank, rng)
                    g_start = device.conductance
                    for _ in range(pulses_per_cycle):
                        apply_reset_pulse(device, budget)
                    w.writerow([dev_id, cycle, f"{g_start * 1e6:.6g}",
                                f"{device.conductance * 1e6:.6g}",
                                pulses_per_cycle, device.lifetime_pulses])
        except (NeedsReinit, EnduranceExceeded) as exc:
            return exc
    return None


class TestEnduranceMatchesScalarReplay:
    """characterize --cycles against the scalar DeviceState replay, via cli.main."""

    def check(self, tmp_path, capsys, bank_args, bank, seed, devices, cycles,
              pulses, budget):
        out, ref = tmp_path / "closed_form", tmp_path / "reference"
        base = ["characterize", *bank_args, "--seed", str(seed)]
        rc = cli.main([*base, "--devices", str(devices), "--cycles", str(cycles),
                       "--pulses-per-cycle", str(pulses), "--out", str(out)])
        got = (rc, *capsys.readouterr())
        # the reference: the same command without endurance, then the replay
        assert cli.main([*base, "--out", str(ref)]) == 0
        stdout = capsys.readouterr().out
        error = scalar_endurance(bank, seed, devices, cycles, pulses, budget,
                                 ref / "endurance.csv")
        if error is None:
            expected = (0, stdout + f"endurance: {devices} device(s), {cycles} cycles x "
                        f"{pulses} pulses = {cycles * pulses} pulses each, "
                        f"budget {budget}\n", "")
        else:
            expected = (cli.EXIT_RUNTIME, stdout, f"runtime error: {error}\n")
        assert got == expected
        assert (out / "endurance.csv").read_bytes() == (ref / "endurance.csv").read_bytes()
        return error, (ref / "endurance.csv").read_text().count("\n") - 1

    @pytest.mark.parametrize("case", range(6))
    def test_random_shapes(self, tmp_path, capsys, case):
        rng = np.random.default_rng(100 + case)
        devices, cycles = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        pulses = 0 if case == 0 else int(rng.integers(1, 5001))
        seed = int(rng.integers(0, 50))
        params = SyntheticTrajectoryParams(**config.load_config(None, {})["bank"]["params"])
        bank = generate_trajectory_bank(params, 30, seed)
        error, rows = self.check(tmp_path, capsys, ["--count", "30"], bank, seed,
                                 devices, cycles, pulses, config.LARGE_ARRAY.endurance_budget)
        assert error is None and rows == devices * cycles

    def test_ragged_bank_needs_reinit_midway(self, tmp_path, capsys):
        # 25 of 30 measured trajectories outlast a 40-pulse cycle, 5 do not
        rng = np.random.default_rng(3)
        lengths = np.where(np.arange(30) % 6 == 5, 25, 60)
        rows = [np.sort(rng.uniform(20e-6, 100e-6, n))[::-1] for n in lengths]
        path = tmp_path / "bank.csv"
        save_bank_csv(TrajectoryBank.from_rows(rows, ["m"] * 30), path)
        error, completed = self.check(tmp_path, capsys, ["--bank", str(path)],
                                      load_bank_csv(path), 4, 4, 5, 40,
                                      config.LARGE_ARRAY.endurance_budget)
        assert isinstance(error, NeedsReinit) and "at pulse 24" in str(error)
        assert 0 < completed < 20

    @pytest.mark.parametrize("budget,expected", [
        (250, EnduranceExceeded),    # inside cycle 2 of device 0
        (200, EnduranceExceeded),    # at the start of cycle 2
        (0, EnduranceExceeded),      # before the first pulse
        (400, type(None)),           # spent by the last pulse, never exceeded
    ])
    def test_budget_crossed_midway(self, tmp_path, capsys, monkeypatch, budget,
                                   expected):
        monkeypatch.setitem(config.TECH_PROFILES, "large_array", dataclasses.replace(
            config.LARGE_ARRAY, endurance_budget=budget))
        bank = generate_trajectory_bank(
            SyntheticTrajectoryParams(**config.load_config(None, {})["bank"]["params"]),
            20, 5)
        error, completed = self.check(tmp_path, capsys, ["--count", "20"], bank, 5,
                                      3, 4, 100, budget)
        assert isinstance(error, expected)
        assert completed == (12 if error is None else budget // 100)

    @pytest.mark.parametrize("budget,expected", [
        (30, EnduranceExceeded),     # both limits at pulse 30: the budget wins
        (31, NeedsReinit),
        (70, NeedsReinit),
    ])
    def test_both_limits_in_one_pulse(self, tmp_path, capsys, monkeypatch, budget,
                                      expected):
        # every trajectory is spent after 30 pulses of a 40-pulse cycle
        monkeypatch.setitem(config.TECH_PROFILES, "large_array", dataclasses.replace(
            config.LARGE_ARRAY, endurance_budget=budget))
        path = self.bank_of_31_samples(tmp_path)
        error, completed = self.check(tmp_path, capsys, ["--bank", str(path)],
                                      load_bank_csv(path), 2, 2, 3, 40, budget)
        assert isinstance(error, expected) and completed == 0

    def test_trajectory_spent_at_cycle_end(self, tmp_path, capsys):
        # 30 pulses per cycle use every one of 31 samples, and no more
        path = self.bank_of_31_samples(tmp_path)
        error, completed = self.check(tmp_path, capsys, ["--bank", str(path)],
                                      load_bank_csv(path), 2, 2, 3, 30,
                                      config.LARGE_ARRAY.endurance_budget)
        assert error is None and completed == 6

    @staticmethod
    def bank_of_31_samples(tmp_path):
        rows = [np.linspace(90e-6, 60e-6 - k * 1e-6, 31) for k in range(8)]
        path = tmp_path / "bank.csv"
        save_bank_csv(TrajectoryBank.from_rows(rows, ["m"] * 8), path)
        return path


class TestTrainCommand:
    def test_float_run_artifacts(self, tiny_config_path, tmp_path, capsys):
        out = tmp_path / "float"
        rc = cli.main(["train", "--config", tiny_config_path,
                       "--algo", "float-bp", "--out", str(out)])
        assert rc == 0
        run_dir = out / "run_0"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["algorithm"] == "float_bp"
        assert (run_dir / "curve.csv").exists()
        assert not (run_dir / "ledger.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["test_accuracy"]["values"]) == 1

    def test_device_run_artifacts_and_repeat(self, tiny_config_path, tmp_path,
                                             capsys):
        out = tmp_path / "dev"
        rc = cli.main(["train", "--config", tiny_config_path, "--algo", "cf",
                       "--repeat", "2", "--out", str(out)])
        assert rc == 0
        for seed in (0, 1):
            run_dir = out / f"run_{seed}"
            for name in ("manifest.json", "curve.csv", "pulses.csv",
                         "snapshot_layer0.csv", "snapshot_layer1.csv",
                         "ledger.json", "metrics.json"):
                assert (run_dir / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["test_accuracy"]["values"]) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not_a_key": 1}))
        rc = cli.main(["train", "--config", str(path), "--out",
                       str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        rc = cli.main(["train", "--config", str(path), "--out",
                       str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG

    def test_memgrad_seed_fallback(self, tiny_config_path, tmp_path,
                                   monkeypatch, capsys):
        monkeypatch.setenv("MEMGRAD_SEED", "9")
        out = tmp_path / "envseed"
        rc = cli.main(["train", "--config", tiny_config_path,
                       "--algo", "float-bp", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "run_9" / "manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_invalid_env_seed_is_config_error(self, tiny_config_path, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.setenv("MEMGRAD_SEED", "not-a-number")
        rc = cli.main(["train", "--config", tiny_config_path,
                       "--algo", "float-bp", "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG

    def test_cli_seed_overrides_env(self, tiny_config_path, tmp_path,
                                    monkeypatch, capsys):
        monkeypatch.setenv("MEMGRAD_SEED", "9")
        out = tmp_path / "cliseed"
        rc = cli.main(["train", "--config", tiny_config_path,
                       "--algo", "float-bp", "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert (out / "run_3").exists()


class TestListFlags:
    @pytest.mark.parametrize("epochs, token", [("1,x", "'x'"), ("1,1.5", "'1.5'")])
    def test_malformed_epochs_are_a_config_error(self, tiny_config_path, tmp_path,
                                                 capsys, epochs, token):
        out = tmp_path / "bad"
        rc = cli.main(["train", "--config", tiny_config_path, "--epochs", epochs,
                       "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"--epochs: {token} is not a valid int" in capsys.readouterr().err
        assert not out.exists()


class TestSharedBank:
    """A bank that no run seed changes is built once per memgrad train."""

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        real = getattr(config, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(config, name, counted)
        return calls

    @staticmethod
    def run_files(out, seeds):
        return {str(p.relative_to(out)): p.read_bytes()
                for seed in seeds for p in sorted((out / f"run_{seed}").iterdir())}

    @pytest.mark.parametrize("source", ["seed", "path"])
    def test_built_once_and_runs_unchanged(self, tmp_path, monkeypatch, capsys, source):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        if source == "path":
            params = SyntheticTrajectoryParams(**cfg["bank"]["params"])
            bank_path = tmp_path / "bank.csv"
            save_bank_csv(generate_trajectory_bank(params, 40, 5), bank_path)
            cfg["bank"] = {"path": str(bank_path)}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        args = ["train", "--config", str(cfg_path), "--algo", "cf", "--repeat", "3"]
        generated = self.count_calls(monkeypatch, "generate_trajectory_bank")
        loaded = self.count_calls(monkeypatch, "load_bank_csv")
        assert cli.main([*args, "--out", str(tmp_path / "shared")]) == 0
        assert (len(generated), len(loaded)) == ((1, 0) if source == "seed" else (0, 1))
        # the same command with every run building its own bank
        monkeypatch.setattr(cli, "build_bank", lambda cfg, seed: None)
        assert cli.main([*args, "--out", str(tmp_path / "own")]) == 0
        assert (len(generated), len(loaded)) == ((4, 0) if source == "seed" else (0, 4))
        shared = self.run_files(tmp_path / "shared", [0, 1, 2])
        assert len(shared) == 3 * 7
        assert shared == self.run_files(tmp_path / "own", [0, 1, 2])

    def test_seed_dependent_bank_built_per_run(self, tmp_path, monkeypatch, capsys):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["bank"]["seed"] = None
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        generated = self.count_calls(monkeypatch, "generate_trajectory_bank")
        assert cli.main(["train", "--config", str(cfg_path), "--algo", "cf",
                         "--repeat", "3", "--out", str(tmp_path / "o")]) == 0
        assert len({args[2] for args in generated}) == 3


class TestRunPipeline:
    @pytest.fixture()
    def device_run_dir(self, tiny_config_path, tmp_path):
        out = tmp_path / "pipe"
        rc = cli.main(["train", "--config", tiny_config_path, "--algo", "cf",
                       "--out", str(out)])
        assert rc == 0
        return out / "run_0"

    def test_age_day_zero_matches_final_accuracy(self, device_run_dir, capsys):
        rc = cli.main(["age", "--run", str(device_run_dir), "--days", "0,8",
                       "--repeats", "3"])
        assert rc == 0
        metrics = json.loads((device_run_dir / "metrics.json").read_text())
        with open(device_run_dir / "aging.csv") as f:
            rows = list(csv.DictReader(f))
        day0 = [float(r["accuracy"]) for r in rows if float(r["day"]) == 0]
        assert day0 == pytest.approx([metrics["final_test_accuracy"]] * 3)

    def test_age_day_zero_uses_run_inference_protocol(self, tmp_path, capsys):
        # SFF with per-label inference (default task, seed 0): day-0 aging
        # must score like the run's own test accuracy, not with the neutral
        # token
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rules": {"sff_inference": "per_label"}}))
        out = tmp_path / "sff"
        assert cli.main(["train", "--config", str(path), "--algo", "sff",
                         "--epochs", "1,1", "--out", str(out)]) == 0
        run_dir = out / "run_0"
        assert cli.main(["age", "--run", str(run_dir), "--days", "0",
                         "--repeats", "2"]) == 0
        metrics = json.loads((run_dir / "metrics.json").read_text())
        with open(run_dir / "aging.csv") as f:
            day0 = [float(r["accuracy"]) for r in csv.DictReader(f)]
        assert day0 == pytest.approx([metrics["final_test_accuracy"]] * 2)

    def test_unsorted_days_are_a_config_error(self, device_run_dir, capsys):
        rc = cli.main(["age", "--run", str(device_run_dir), "--days", "8,0"])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_below_one_are_a_config_error(self, device_run_dir, capsys,
                                                  repeats):
        rc = cli.main(["age", "--run", str(device_run_dir), "--days", "0,8",
                       "--repeats", repeats])
        assert rc == cli.EXIT_CONFIG
        assert "--repeats must be >= 1" in capsys.readouterr().err
        assert not (device_run_dir / "aging.csv").exists()

    @pytest.mark.parametrize("case, message", [
        ("missing", r"no line for cell \(row 0, col 1\)"),
        ("duplicate", r":3: duplicate cell \(row 0, col 0\), first on line 2"),
        ("negative", r":4: negative or NaN conductance"),
        ("shape", r"11 rows x 12 cols, layer 0 needs 12 x 12"),
    ])
    def test_malformed_snapshot_is_data_error(self, device_run_dir, capsys,
                                              case, message):
        # layer 0 of the tiny CF run is 12 inputs (rows) x 12 outputs (cols)
        path = device_run_dir / "snapshot_layer0.csv"
        lines = path.read_text().splitlines()
        header, body = lines[0], lines[1:]
        if case == "missing":
            body = body[:12] + body[13:]
        elif case == "duplicate":
            body[1] = body[0]
        elif case == "negative":
            cells = body[2].split(",")
            cells[3] = "-0.5"
            body[2] = ",".join(cells)
        else:
            body = [line for line in body if not line.startswith("11,")]
        path.write_text("\n".join([header] + body) + "\n")
        rc = cli.main(["age", "--run", str(device_run_dir), "--days", "0"])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "snapshot_layer0.csv" in err
        assert re.search(message, err)
        assert not (device_run_dir / "aging.csv").exists()

    @pytest.mark.parametrize("days, token", [("8,x", "'x'"), ("0,,8", "''")])
    def test_malformed_days_are_a_config_error(self, device_run_dir, capsys,
                                               days, token):
        rc = cli.main(["age", "--run", str(device_run_dir), "--days", days])
        assert rc == cli.EXIT_CONFIG
        assert f"--days: {token} is not a valid float" in capsys.readouterr().err
        assert not (device_run_dir / "aging.csv").exists()

    @pytest.mark.parametrize("case", ["not_json", "no_count"])
    def test_malformed_ledger_is_data_error(self, device_run_dir, capsys, case):
        path = device_run_dir / "ledger.json"
        if case == "not_json":
            path.write_text('{"pulse_totals": ')
        else:
            payload = json.loads(path.read_text())
            for entry in payload["pulse_totals"].values():
                del entry["count"]
            path.write_text(json.dumps(payload))
        rc = cli.main(["energy", "--run", str(device_run_dir)])
        assert rc == cli.EXIT_DATA
        assert re.search(r"ledger\.json: malformed ledger", capsys.readouterr().err)
        assert not (device_run_dir / "energy.json").exists()

    @pytest.mark.parametrize("command, content, message", [
        (["age", "--days", "0"], '{"config": [', "not valid JSON"),
        (["age", "--days", "0"], '{"seed": 0}', "missing 'config'"),
        (["age", "--days", "0"], "[1, 2]", "expected a JSON object"),
        (["report"], '{"config": [', "not valid JSON"),
        (["report"], '{"seed": 0}', "missing 'config'"),
    ], ids=["age-not-json", "age-no-config", "age-list", "report-not-json",
            "report-no-config"])
    def test_malformed_manifest_is_data_error(self, device_run_dir, capsys,
                                              command, content, message):
        (device_run_dir / "manifest.json").write_text(content)
        rc = cli.main([command[0], "--run", str(device_run_dir), *command[1:]])
        assert rc == cli.EXIT_DATA
        assert f"manifest.json: {message}" in capsys.readouterr().err
        assert not (device_run_dir / "aging.csv").exists()

    def test_energy_report(self, device_run_dir, capsys):
        rc = cli.main(["energy", "--run", str(device_run_dir)])
        assert rc == 0
        payload = json.loads((device_run_dir / "energy.json").read_text())
        assert payload["pulse_count"] > 0
        ratio = payload["ratios"]["large_array/mac_array"]
        assert ratio == pytest.approx(42.1, abs=0.1)
        assert payload["pv_baseline"]["per_update_j"] == pytest.approx(387e-12)
        assert payload["programming_j"] > 0

    def test_report_renders(self, device_run_dir, capsys):
        cli.main(["energy", "--run", str(device_run_dir)])
        rc = cli.main(["report", "--run", str(device_run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final test accuracy" in out
        assert "programming energy" in out

    def test_missing_run_dir_is_data_error(self, tmp_path, capsys):
        rc = cli.main(["age", "--run", str(tmp_path / "nope"), "--days", "0"])
        assert rc == cli.EXIT_DATA
        rc = cli.main(["energy", "--run", str(tmp_path / "nope")])
        assert rc == cli.EXIT_DATA


class TestPerceptronSchedule:
    def test_arch_perceptron_uses_20_epochs(self, tmp_path):
        cfg = {"task": {"n_classes": 4, "n_features": 12, "n_per_class": 30,
                        "noise_sigma": 0.3, "seed": 21},
               "arch": {"hidden_units": 12, "cluster_size": 3}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "perc"
        rc = cli.main(["train", "--config", str(path), "--algo", "float-bp",
                       "--arch", "perceptron", "--out", str(out)])
        assert rc == 0
        with open(out / "run_0" / "curve.csv") as f:
            rows = list(csv.DictReader(f))
        epochs = {int(r["epoch"]) for r in rows}
        assert epochs == set(range(20))
        manifest = json.loads((out / "run_0" / "manifest.json").read_text())
        assert len(manifest["layers"]) == 1


class TestRepeatFanOut:
    def test_worker_pool_matches_serial(self, tiny_config_path, tmp_path):
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        rc = cli.main(["train", "--config", tiny_config_path, "--algo", "cf",
                       "--repeat", "2", "--out", str(serial)])
        assert rc == 0
        rc = cli.main(["train", "--config", tiny_config_path, "--algo", "cf",
                       "--repeat", "2", "--workers", "2", "--out", str(pooled)])
        assert rc == 0
        a = json.loads((serial / "summary.json").read_text())
        b = json.loads((pooled / "summary.json").read_text())
        assert a["test_accuracy"]["values"] == b["test_accuracy"]["values"]

    def test_splits_manifest_written(self, tiny_config_path, tmp_path):
        out = tmp_path / "sp"
        cli.main(["train", "--config", tiny_config_path, "--algo", "float-bp",
                  "--out", str(out)])
        splits = json.loads((out / "splits.json").read_text())
        merged = sorted(splits["train"] + splits["val"] + splits["test"])
        assert merged == list(range(120))


class TestOutputSchemas:
    def test_emitted_json_validates(self, paper_files, tmp_path):
        # _write_json validates on emit; re-validate here explicitly
        import importlib.resources
        import jsonschema
        out = tmp_path / "stats.json"
        cli.main(["stats", *paper_files, "--out", str(out)])
        schema = json.loads((importlib.resources.files("memgrad.schemas")
                             / "stats_report.schema.json").read_text())
        jsonschema.validate(json.loads(out.read_text()), schema)


class TestEmptyLedgerEnergy:
    def test_all_zero_report(self, tmp_path):
        from memgrad.energy import EnergyLedger
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        EnergyLedger().save(run_dir / "ledger.json")
        rc = cli.main(["energy", "--run", str(run_dir)])
        assert rc == 0
        payload = json.loads((run_dir / "energy.json").read_text())
        assert payload["pulse_count"] == 0
        assert payload["programming_j"] == 0.0
        assert payload["mac_projected_j"] == 0.0
