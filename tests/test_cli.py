"""CLI surface: commands, exit codes, artifact round trips."""

import csv
import dataclasses
import hashlib
import importlib.resources
import json
import multiprocessing
import os
import re
import tracemalloc

import jsonschema
import numpy as np
import pytest
import referencing

from memgrad import cli, config, device
from memgrad.device import (DeviceState, EnduranceExceeded, NeedsReinit,
                            SyntheticTrajectoryParams, TrajectoryBank,
                            apply_reset_pulse, generate_trajectory_bank,
                            load_bank_csv, pearson_coefficient, reinitialize,
                            save_bank_csv)

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


def bank_config_path(tmp_path, source):
    """The tiny config with a pinned (``seed``), seed-derived or file bank."""
    cfg = json.loads(json.dumps(TINY_CONFIG))
    if source == "derived":
        cfg["bank"]["seed"] = None
    elif source == "path":
        params = SyntheticTrajectoryParams(**cfg["bank"]["params"])
        bank_path = tmp_path / "bank.csv"
        save_bank_csv(generate_trajectory_bank(params, 40, 5), bank_path)
        cfg["bank"] = {"path": str(bank_path)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def ragged_bank():
    """175 synthetic rows cut to lengths 40, 57 and 300, in shuffled order."""
    lengths = np.random.default_rng(0).permutation([40] * 5 + [57] * 20 + [300] * 150)
    full = generate_trajectory_bank(SyntheticTrajectoryParams(
        p_max=299, anomalous_probability=0.3), len(lengths), seed=2).conductances
    return TrajectoryBank.from_rows([row[:n] for row, n in zip(full, lengths)])


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

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, capsys, token):
        a = tmp_path / "a.txt"
        a.write_text(f"1.0\n2.0\n{token}\n")
        b = tmp_path / "b.txt"
        b.write_text("1.0\n2.0\n")
        rc = cli.main(["stats", str(a), str(b)])
        assert rc == cli.EXIT_DATA
        assert f"a.txt:3: not a finite number: {token!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("names", [("a/g", "b/g", "a/h"), ("a/g", "b/g")])
    def test_shared_stem_is_a_config_error(self, tmp_path, capsys, names):
        # groups are named by file stem: a/g.txt and b/g.txt would be one group
        paths = []
        for name in names:
            path = tmp_path / f"{name}.txt"
            path.parent.mkdir(exist_ok=True)
            path.write_text("1.0\n2.0\n")
            paths.append(str(path))
        out = tmp_path / "stats.json"
        rc = cli.main(["stats", *paths, "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{paths[0]} and {paths[1]} are both group 'g'" in captured.err
        assert captured.out == ""
        assert not out.exists()


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

    @pytest.mark.parametrize("name, row, message", [
        ("nan.csv", "0,1,nan", r"nan\.csv:3: conductance must be finite and non-negative"),
        ("inf.csv", "0,1,inf", r"inf\.csv:3: conductance must be finite and non-negative"),
        ("dup.csv", "0,0,99", r"dup\.csv: device 0: pulse_index not dense from 0"),
        ("extra.csv", "0,1,99,5",
         r"extra\.csv:3: not a device_id,pulse_index,conductance_uS row"),
        ("huge.csv", "99999999999999999999,1,99",
         r"huge\.csv: a device_id or pulse_index is beyond 64 bits"),
        ("single.csv", "1,0,5", r"single\.csv: device 0: fewer than 2 samples"),
    ])
    def test_bank_row_faults_name_the_file(self, tmp_path, capsys, name, row, message):
        bad = tmp_path / name
        bad.write_text(f"device_id,pulse_index,conductance_uS\n0,0,100\n{row}\n")
        out = tmp_path / "o"
        rc = cli.main(["characterize", "--bank", str(bad), "--out", str(out)])
        assert rc == cli.EXIT_DATA
        assert re.search(message, capsys.readouterr().err)
        assert not (out / "pearson.csv").exists()

    @pytest.mark.parametrize("args, message", [
        (["--count", "0"], "bank/count"),
        (["--count", "-3"], "bank/count"),
        (["--seed", "-1"], "bank/seed"),
        (["--cycles=-5"], "--cycles must be >= 0, got -5"),
        (["--cycles", "1", "--pulses-per-cycle=-1"], "--pulses-per-cycle must be >= 0"),
        (["--cycles", "1", "--devices=-2"], "--devices must be >= 0, got -2"),
    ])
    def test_bad_flags_are_a_config_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "o"
        rc = cli.main(["characterize", *args, "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / "pearson.csv").exists()

    def test_pearson_per_trajectory_on_a_ragged_bank(self, tmp_path, capsys):
        # rows of three lengths, one group spanning several blocks,
        # in shuffled order: each row gets its own trajectory's coefficient
        bank_path = tmp_path / "bank.csv"
        save_bank_csv(ragged_bank(), bank_path)
        out = tmp_path / "o"
        assert cli.main(["characterize", "--bank", str(bank_path), "--out", str(out)]) == 0
        loaded = load_bank_csv(bank_path)
        expected = [f"{k},{pearson_coefficient(t, len(t)):.6f}" for k, t in enumerate(loaded)]
        assert (out / "pearson.csv").read_text().splitlines()[1:] == expected

    def test_config_bank_path_is_characterized(self, tmp_path, capsys):
        # a measured bank named in the config file, not a synthetic one
        rows = [np.linspace(90e-6, 60e-6, 6 + k) for k in range(3)]
        bank_path = tmp_path / "bank.csv"
        save_bank_csv(TrajectoryBank.from_rows(rows), bank_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bank": {"path": str(bank_path)}}))
        out = tmp_path / "o"
        assert cli.main(["characterize", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        flag = tmp_path / "flag"
        assert cli.main(["characterize", "--bank", str(bank_path),
                         "--out", str(flag)]) == 0
        assert (out / "pearson.csv").read_text().count("\n") == 4
        assert (out / "pearson.csv").read_bytes() == (flag / "pearson.csv").read_bytes()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestCharacterizeStreams:
    """characterize reads its bank a block of rows at a time, with the same outputs."""

    # sha256 of stdout, pearson.csv, pearson_hist.csv and endurance.csv, as
    # a characterize that reads the bank as one whole matrix writes them
    PINNED = {
        "synthetic": ("a75f2923b65556d313bfccf7d1728cb0bfd0c3131bf50962598a85f6a89392dc",
                      "eb31546c1f089555b48be80437d773e27ba98fb8bd5bb77dd9c7876a68ce3868",
                      "ab75477e3e137169fafca6555af6b9de74a10f1a722b9fa6080772e3ed6c1350",
                      "1ff8dc4cfd0b28e282af13668e51da7579ffd4e7a5a609165ffbaff1c15a7ba9"),
        "ragged": ("828be4886e211440b2e8a878dcef6c8280dc294cad02b154479cd5e5e4b6f3e4",
                   "fa2f5263b69dfca596056e72e5e299349029a0b4c3604b9671eced3b4b786297",
                   "01feccd9588119aa7c7227fd5011cef1352c529d64fcfd39678d4a2dc2c31dfe",
                   "5af2a7315d11f171c50cb1ab8f62e58449d23ef2d8527528be0d9f1db8409071"),
    }
    # sha256 of bank.csv of the ragged bank and of a 150-row synthetic one
    RAGGED_BANK_CSV = "66a012054498f68208e54c4925b90dea0618c1a9072cb3a9d77376515f5e5161"
    SYNTHETIC_BANK_CSV = "ca4893f9ae4502f3ada6740c33177d001654ccd85e77ec125127a623b78f784a"

    @pytest.mark.parametrize("source", ["synthetic", "ragged"])
    def test_outputs_match_the_whole_matrix_reads(self, tmp_path, capsys, source):
        # 150 rows are two full blocks and a part; the ragged bank is a
        # measured one, read as views of its matrix
        if source == "synthetic":
            args = ["--count", "150", "--cycles", "30", "--pulses-per-cycle", "4000",
                    "--devices", "3"]
        else:
            bank_path = tmp_path / "bank.csv"
            save_bank_csv(ragged_bank(), bank_path)
            assert sha256(bank_path.read_bytes()) == self.RAGGED_BANK_CSV
            args = ["--bank", str(bank_path), "--cycles", "4", "--pulses-per-cycle", "39",
                    "--devices", "5"]
        out = tmp_path / "o"
        assert cli.main(["characterize", *args, "--out", str(out)]) == 0
        files = [(out / name).read_bytes()
                 for name in ("pearson.csv", "pearson_hist.csv", "endurance.csv")]
        digests = tuple(sha256(data) for data in [capsys.readouterr().out.encode(), *files])
        assert digests == self.PINNED[source]

    def test_saved_bank_matches_the_whole_matrix_write(self, tmp_path, monkeypatch, capsys):
        # --save-bank of a 150-row bank writes from the same blocks, and
        # neither it nor the coefficients fill the bank or the draw cache
        monkeypatch.setattr(device, "_DRAWN", {})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bank": {"params": {
            "p_max": 299, "anomalous_probability": 0.3}}}))
        out = tmp_path / "o"
        assert cli.main(["characterize", "--config", str(cfg_path), "--count", "150",
                         "--seed", "2", "--save-bank", "--out", str(out)]) == 0
        assert sha256((out / "bank.csv").read_bytes()) == self.SYNTHETIC_BANK_CSV
        assert device._DRAWN == {}

    def test_full_size_run_holds_blocks_not_the_matrix(self, tmp_path, monkeypatch, capsys):
        # the paper's 1268 x 5001 bank is 48.4 MiB as one matrix; streamed,
        # the run's numpy and Python allocations peak far below a quarter of it
        monkeypatch.setattr(device, "_DRAWN", {})
        tracemalloc.start()
        try:
            rc = cli.main(["characterize", "--count", "1268", "--cycles", "5",
                           "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 1268 * 5001 * 8 / 4
        assert device._DRAWN == {}

    def test_a_failing_bank_fails_before_any_output(self, tmp_path, monkeypatch, capsys):
        # the first initial conductance overflows to inf: the first block
        # fails its check, and nothing is written, cached or evicted from a
        # full draw cache
        monkeypatch.setattr(device, "_DRAWN", {})
        for seed in (0, 1):
            generate_trajectory_bank(SyntheticTrajectoryParams(p_max=10), 3, seed).fill(11)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bank": {"params": {"g0_mean": 1e308,
                                                            "g0_sigma": 1e308}}}))
        drawn = dict(device._DRAWN)
        assert len(drawn) == device._DRAWN_SIZE
        out = tmp_path / "o"
        rc = cli.main(["characterize", "--config", str(cfg_path), "--count", "3",
                       "--out", str(out)])
        assert (rc, *capsys.readouterr()) == (
            cli.EXIT_RUNTIME, "", "runtime error: conductances must be finite and non-negative\n")
        assert not any(out.iterdir())
        assert device._DRAWN.keys() == drawn.keys()
        assert all(device._DRAWN[key] is matrix for key, matrix in drawn.items())


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
        save_bank_csv(TrajectoryBank.from_rows(rows), path)
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
        save_bank_csv(TrajectoryBank.from_rows(rows), path)
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

    def test_empty_split_is_a_config_error(self, tmp_path, capsys):
        # 40 samples per class at val 0.001 round to no val sample at all
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"task": {"n_per_class": 40},
                                    "split": {"train": 0.899, "val": 0.001, "test": 0.1}}))
        out = tmp_path / "o"
        rc = cli.main(["train", "--config", str(path), "--algo", "cf",
                       "--epochs", "1,1", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "split.val = 0.001 leaves the val split empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("user_cfg, flags", [
        ({}, ["--algo", "cf", "--epochs", "1"]),
        ({"schedule": {"epochs": []}}, ["--algo", "cf"]),
        ({}, ["--algo", "bp", "--arch", "perceptron", "--epochs", "1,1"])],
        ids=["cf-one", "cf-none", "perceptron-two"])
    def test_wrong_epoch_count_is_a_config_error(self, tmp_path, capsys, user_cfg, flags):
        path = tmp_path / "epochs.json"
        path.write_text(json.dumps({"task": {"n_per_class": 40}, **user_cfg}))
        out = tmp_path / "o"
        rc = cli.main(["train", "--config", str(path), *flags, "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "config error: schedule.epochs = " in capsys.readouterr().err
        assert not out.exists()

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

    def test_env_seed_leaves_defaults_alone(self, monkeypatch):
        # restored after the test, so a failure here spoils no later test
        monkeypatch.setitem(config.DEFAULT_CONFIG, "seed", 0)
        monkeypatch.setenv("MEMGRAD_SEED", "9")
        assert config.load_config(None)["seed"] == 9
        assert config.DEFAULT_CONFIG["seed"] == 0

    @pytest.mark.parametrize("algo, block, layer", [
        ("cf", "cf_first", 0), ("cf", "cf_last", 1),
        ("sff", "sff", 0), ("sff", "sff_head", 1)])
    def test_manifest_records_trained_eta(self, tmp_path, capsys, algo, block,
                                          layer):
        cfg = dict(TINY_CONFIG, rules={block: {"eta": -config.DEFAULT_CONFIG[
            "rules"][block]["eta"]}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "eta"
        assert cli.main(["train", "--config", str(path), "--algo", algo,
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "run_0" / "manifest.json").read_text())
        etas = [1.0, 1.0] if algo == "sff" else [-1.0, 1.0]
        etas[layer] = -etas[layer]
        assert [spec["eta"] for spec in manifest["layers"]] == etas
        assert all(isinstance(spec["eta"], float) for spec in manifest["layers"])


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


@pytest.mark.parametrize("argv, message", [
    (["age", "--run", "absent", "--days", "0", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["gradcheck", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["gradcheck", "--trials", "0"], "--trials must be >= 1, got 0"),
    (["stats", "a.txt", "b.txt", "--alpha", "1.5"], "--alpha must be in (0, 1), got 1.5"),
    (["stats", "a.txt", "b.txt", "--alpha", "nan"], "--alpha must be in (0, 1), got nan"),
    (["train", "--tau", "nan", "--out", "absent"],
     "config invalid at schedule/tau: nan is not of type 'number', 'null'"),
], ids=["age-seed", "gradcheck-seed", "gradcheck-trials", "stats-alpha", "stats-nan",
        "train-tau-nan"])
def test_out_of_range_flag_is_a_config_error(tmp_path, monkeypatch, capsys, argv,
                                             message):
    # refused before any input is read (no run or stats file exists) and
    # before any output
    monkeypatch.chdir(tmp_path)
    rc = cli.main(argv)
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["train", "characterize"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_out_that_is_a_file_is_a_data_error(tiny_config_path, tmp_path, capsys,
                                            command, under):
    # an --out that exists as a file, or lies below one
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sub" if under else taken
    argv = [command, "--config", tiny_config_path, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(taken) in err
    assert taken.read_text() == ""


def count_draws(monkeypatch, log=None):
    """The ``keep`` of every synthetic draw pass from now on, from an empty
    draw cache; with ``log``, each pass also appends its process id there."""
    monkeypatch.setattr(device, "_DRAWN", {})
    passes, draw = [], device._draw

    def counted(params, seed, count, keep, out=None):
        passes.append(keep)
        if log is not None:
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
        return draw(params, seed, count, keep, out)

    monkeypatch.setattr(device, "_draw", counted)
    return passes


class TestSharedBank:
    """A bank that no run seed changes is read or drawn once per memgrad train."""

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
        args = ["train", "--config", bank_config_path(tmp_path, source), "--algo", "cf",
                "--repeat", "3"]
        passes = count_draws(monkeypatch)
        loaded = self.count_calls(monkeypatch, "load_bank_csv")
        assert cli.main([*args, "--out", str(tmp_path / "shared")]) == 0
        assert (len(passes), len(loaded)) == ((1, 0) if source == "seed" else (0, 1))
        # the same command with every run drawing or reading its own bank
        if source == "seed":
            drawn = device._drawn

            def uncached(*args):
                device._DRAWN.clear()
                return drawn(*args)

            monkeypatch.setattr(device, "_drawn", uncached)
        else:
            monkeypatch.setattr(cli, "measured_bank", lambda cfg: None)
        assert cli.main([*args, "--out", str(tmp_path / "own")]) == 0
        assert (len(passes), len(loaded)) == ((4, 0) if source == "seed" else (0, 4))
        shared = self.run_files(tmp_path / "shared", [0, 1, 2])
        assert len(shared) == 3 * 7
        assert shared == self.run_files(tmp_path / "own", [0, 1, 2])

    def test_seed_dependent_bank_built_per_run(self, tmp_path, monkeypatch, capsys):
        generated = self.count_calls(monkeypatch, "generate_trajectory_bank")
        assert cli.main(["train", "--config", bank_config_path(tmp_path, "derived"),
                         "--algo", "cf",
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

    def test_negative_zero_sigmas_run_as_zero(self, tmp_path, capsys):
        # -0.0 passes the schema's minimum of 0, and numpy refuses it as a
        # normal scale: train and age run it as 0.0
        outputs = []
        for zero in ("0.0", "-0.0"):
            cfg = json.loads(json.dumps(TINY_CONFIG))
            cfg["bank"]["params"]["g0_sigma"] = float(zero)
            cfg["drift"] = {"sigma_core": float(zero), "sigma_tail": float(zero)}
            path = tmp_path / f"{zero}.json"
            path.write_text(json.dumps(cfg))
            assert zero in path.read_text()
            out = tmp_path / zero
            assert cli.main(["train", "--config", str(path), "--algo", "cf",
                             "--out", str(out)]) == 0
            assert cli.main(["age", "--run", str(out / "run_0"), "--days", "0,90",
                             "--repeats", "2"]) == 0
            outputs.append({name: (out / "run_0" / name).read_bytes()
                            for name in ("pulses.csv", "snapshot_layer0.csv",
                                         "snapshot_layer1.csv", "aging.csv")})
        assert outputs[0] == outputs[1]

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
        ("negative", r":4: conductance must be finite and non-negative"),
        ("inf", r":4: conductance must be finite and non-negative"),
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
        elif case in ("negative", "inf"):
            cells = body[2].split(",")
            cells[3] = "-0.5" if case == "negative" else "inf"
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

    @pytest.mark.parametrize("days, token", [
        ("nan", "'nan'"), ("0,inf", "'inf'"), ("-1,8", "'-1'"), ("0,-0.5", "'-0.5'")])
    def test_non_finite_or_negative_days_are_a_config_error(
            self, device_run_dir, capsys, days, token):
        # refused before the manifest is read: this run has none
        (device_run_dir / "manifest.json").unlink()
        rc = cli.main(["age", "--run", str(device_run_dir), f"--days={days}",
                       "--repeats", "2"])
        assert rc == cli.EXIT_CONFIG
        assert f"--days: {token} is not a finite day >= 0" in capsys.readouterr().err
        assert not (device_run_dir / "aging.csv").exists()

    @pytest.mark.parametrize("case, message", [
        ("not_json", "not valid JSON"),
        ("no_count", "invalid at <root>: 'pulse_count' is a required"),
        ("event_list", "invalid at <root>: Additional properties are not allowed"),
        ("nested", "invalid at <root>: Additional properties are not allowed "
                   "('pulse_totals', 'read_totals' were unexpected)"),
        ("histogram", "invalid at <root>: Additional properties are not allowed "
                      "('g_pre_hist_bin_uS', 'pulse_totals', 'read_totals' were "
                      "unexpected)"),
        ("empty", "invalid at <root>: 'tech' is a required property"),
        ("unknown_tech", "invalid at tech: 'foo' is not one of"),
        ("negative_count", "invalid at pulse_count: -5 is less"),
        ("fractional_count", "invalid at pulse_count: 1.5 is not of type 'integer'"),
        ("nan_sum", "invalid at g_pre_sum_S: nan is not of type 'number'"),
    ], ids=["not_json", "no_count", "event_list", "nested", "histogram", "empty",
            "unknown_tech", "negative_count", "fractional_count", "nan_sum"])
    def test_malformed_ledger_is_data_error(self, device_run_dir, capsys, case,
                                            message):
        path = device_run_dir / "ledger.json"
        payload = json.loads(path.read_text())
        # the layout before the flat one: a sum per tech, a sum per read condition
        nested = {"pulse_totals": {payload["tech"]: {
                      "g_pre_sum_S": payload["g_pre_sum_S"],
                      "count": payload["pulse_count"]}},
                  "read_totals": [{"v_read": 0.2, "t_read": 15e-6,
                                   "g_sum_S": payload["g_read_sum_S"],
                                   "count": payload["read_count"]}],
                  **{key: payload[key] for key in ("mac_count", "reinit_count",
                                                   "reinit_energy_j")}}
        if case == "not_json":
            path.write_text('{"tech": ')
        elif case == "no_count":
            del payload["pulse_count"]
            path.write_text(json.dumps(payload))
        elif case in ("negative_count", "fractional_count", "nan_sum"):
            if case == "nan_sum":
                payload["g_pre_sum_S"] = float("nan")
            else:
                payload["pulse_count"] = -5 if case == "negative_count" else 1.5
            path.write_text(json.dumps(payload))
        elif case == "event_list":
            # the oldest layout: one pre-pulse conductance per pulse, one
            # [g_sum_uS, v_read, t_read] per read, in microsiemens
            path.write_text(json.dumps({
                "pulse_g_pre_uS": {"large_array": [80.0, 75.5]},
                "reads": [[500.0, 0.2, 15e-6]], "mac_count": 4,
                "reinit_count": 0, "reinit_energy_j": 0.0}))
        elif case == "nested":
            path.write_text(json.dumps(nested))
        elif case == "histogram":
            # the nested layout that also carried a G_pre histogram
            nested["pulse_totals"][payload["tech"]]["g_pre_hist"] = [0, 3, 1]
            path.write_text(json.dumps({**nested, "g_pre_hist_bin_uS": 2.0}))
        elif case == "empty":
            path.write_text("{}")
        else:
            payload["tech"] = "foo"
            path.write_text(json.dumps(payload))
        rc = cli.main(["energy", "--run", str(device_run_dir)])
        assert rc == cli.EXIT_DATA
        assert f"ledger.json: {message}" in capsys.readouterr().err
        assert not (device_run_dir / "energy.json").exists()

    @pytest.mark.parametrize("command, content, message", [
        (["age", "--days", "0"], '{"config": [', "not valid JSON"),
        (["age", "--days", "0"], '{"seed": 0}',
         "invalid at <root>: 'config' is a required property"),
        (["age", "--days", "0"], "[1, 2]", "invalid at <root>: [1, 2] is not of type"),
        (["report"], '{"config": [', "not valid JSON"),
        (["report"], '{"seed": 0}', "invalid at <root>: 'config' is a required property"),
    ], ids=["age-not-json", "age-no-config", "age-list", "report-not-json",
            "report-no-config"])
    def test_malformed_manifest_is_data_error(self, device_run_dir, capsys,
                                              command, content, message):
        (device_run_dir / "manifest.json").write_text(content)
        rc = cli.main([command[0], "--run", str(device_run_dir), *command[1:]])
        assert rc == cli.EXIT_DATA
        assert f"manifest.json: {message}" in capsys.readouterr().err
        assert not (device_run_dir / "aging.csv").exists()

    @pytest.mark.parametrize("case, message", [
        ("layer_key", r"invalid at layers/0: 'n_in' is a required property"),
        ("layer_type", r"invalid at layers/1: 12 is not of type 'object'"),
        ("short_scales", r"invalid at scale_s: 1 scale\(s\) for 2 layers"),
        ("no_task", "invalid at config: not a complete run config"),
        ("config_key", r"invalid at config: Additional properties are not allowed "
                       r"\('extra' was unexpected\)"),
        ("scale_strings", r"invalid at scale_s/\d: '\w' is not of type 'number', 'null'"),
        ("clusters", "invalid at layers/0: clusters 4x4 do not tile 12 outputs"),
    ], ids=["layer_key", "layer_type", "short_scales", "no_task", "config_key",
            "scale_strings", "clusters"])
    def test_malformed_manifest_entries_are_data_error(self, device_run_dir, capsys,
                                                       case, message):
        path = device_run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        if case == "layer_key":
            del manifest["layers"][0]["n_in"]
        elif case == "layer_type":
            manifest["layers"][1] = 12
        elif case == "short_scales":
            manifest["scale_s"] = manifest["scale_s"][:1]
        elif case == "no_task":
            del manifest["config"]["task"]
        elif case == "config_key":
            manifest["config"]["extra"] = 1
        elif case == "scale_strings":
            manifest["scale_s"] = ["a", "b"]
        else:
            manifest["layers"][0]["clusters"] = [4, 4]
        path.write_text(json.dumps(manifest))
        rc = cli.main(["age", "--run", str(device_run_dir), "--days", "0",
                       "--repeats", "2"])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert re.search(r"manifest\.json: " + message, err)
        assert not (device_run_dir / "aging.csv").exists()

    @pytest.mark.parametrize("name, text, message", [
        ("aging.csv", "day,repeat,accuracy\n0,0,0.500000\n8,0,x\n",
         r"aging\.csv:3: not a day,repeat,accuracy row"),
        ("aging.csv", "repeat,day,accuracy\n0,0,0.500000\n",
         r"aging\.csv:1: expected header day,repeat,accuracy, got repeat,day,accuracy"),
        ("metrics.json", None, r"metrics\.json: invalid at pulse_stats/per_layer/\d: "
                               r"'layer' is a required property"),
    ], ids=["aging", "aging_reordered", "metrics"])
    def test_malformed_report_artifact_is_data_error(self, device_run_dir, capsys,
                                                     name, text, message):
        path = device_run_dir / name
        if text is not None:
            path.write_text(text)
        else:
            metrics = json.loads(path.read_text())
            for entry in metrics["pulse_stats"]["per_layer"]:
                del entry["layer"]
            path.write_text(json.dumps(metrics))
        rc = cli.main(["report", "--run", str(device_run_dir)])
        assert rc == cli.EXIT_DATA
        assert re.search(message, capsys.readouterr().err)

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

    def test_report_reads_train_out_summary(self, tiny_config_path, tmp_path, capsys):
        # `train` writes summary.json above the run directories, so report
        # renders it from the `--out` directory
        out = tmp_path / "fl"
        assert cli.main(["train", "--config", tiny_config_path, "--algo", "float-bp",
                         "--epochs", "1,2", "--repeat", "2", "--out", str(out)]) == 0
        acc = json.loads((out / "summary.json").read_text())["test_accuracy"]
        capsys.readouterr()
        assert cli.main(["report", "--run", str(out)]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            f"run directory: {out}",
            f"  repeat summary: {acc['mean']:.4f} +/- {acc['std']:.4f}"]

    @pytest.mark.parametrize("kind", ["missing", "file", "no_artifacts"])
    def test_report_needs_a_run_directory(self, tmp_path, capsys, kind):
        path = tmp_path / "run"
        if kind == "file":
            path.write_text("{}")
        elif kind == "no_artifacts":
            path.mkdir()
            (path / "ledger.json").write_text("{}")
        assert cli.main(["report", "--run", str(path)]) == cli.EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"data error: {path}: not a run directory (no manifest.json, ")

    def test_zero_pulse_run(self, tiny_config_path, tmp_path, capsys):
        # a threshold no gradient reaches: the device run applies no pulse
        out = tmp_path / "still"
        assert cli.main(["train", "--config", tiny_config_path, "--algo", "cf",
                         "--epochs", "1,1", "--tau", "1e9", "--out", str(out)]) == 0
        run_dir = out / "run_0"
        ledger = json.loads((run_dir / "ledger.json").read_text())
        assert ledger["tech"] == "large_array"
        assert ledger["pulse_count"] == 0 and ledger["g_pre_sum_S"] == 0.0
        assert ledger["read_count"] > 0
        assert cli.main(["energy", "--run", str(run_dir)]) == 0
        text = (run_dir / "energy.json").read_text()
        assert '"programming_j": 0.0,' in text
        report = json.loads(text)
        assert report["pulse_count"] == 0 and report["read_j"] > 0
        assert report["recosting_j"] == {"large_array": 0.0, "mac_array": 0.0}
        capsys.readouterr()
        assert cli.main(["report", "--run", str(run_dir)]) == 0
        assert "  programming energy: 0.000e+00 J (0 pulses)" in (
            capsys.readouterr().out.splitlines())

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
    @pytest.mark.parametrize("source", ["derived", "seed", "path"])
    def test_worker_pool_matches_serial(self, tmp_path, capsys, source):
        args = ["train", "--config", bank_config_path(tmp_path, source),
                "--algo", "cf", "--repeat", "3"]
        files = []
        for name, extra in (("serial", []), ("pooled", ["--workers", "2"])):
            out = tmp_path / name
            assert cli.main([*args, *extra, "--out", str(out)]) == 0
            files.append({str(p.relative_to(out)): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(files[0]) == 3 * 7 + 2
        assert {"summary.json", "splits.json", "run_2/ledger.json"} <= files[0].keys()
        assert files[0] == files[1]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched draw only when forked")
    def test_each_worker_builds_a_shared_bank_once(self, tiny_config_path, tmp_path,
                                                   monkeypatch, capsys):
        # the pinned bank.seed of the tiny config: one draw pass per worker
        log = tmp_path / "pids.txt"
        count_draws(monkeypatch, log)
        assert cli.main(["train", "--config", tiny_config_path, "--algo", "cf",
                         "--repeat", "4", "--workers", "2",
                         "--out", str(tmp_path / "o")]) == 0
        pids = log.read_text().split()
        assert len(pids) == len(set(pids)) == 2
        assert str(os.getpid()) not in pids

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_are_a_config_error(self, tiny_config_path, tmp_path,
                                                  capsys, workers):
        out = tmp_path / "w"
        rc = cli.main(["train", "--config", tiny_config_path, "--algo", "cf",
                       "--repeat", "2", "--workers", workers, "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_splits_manifest_written(self, tiny_config_path, tmp_path):
        out = tmp_path / "sp"
        cli.main(["train", "--config", tiny_config_path, "--algo", "float-bp",
                  "--out", str(out)])
        splits = json.loads((out / "splits.json").read_text())
        merged = sorted(splits["train"] + splits["val"] + splits["test"])
        assert merged == list(range(120))


class TestOutputSchemas:
    SCHEMAS = {path.name: json.loads(path.read_text())
               for path in importlib.resources.files("memgrad.schemas").iterdir()
               if path.name.endswith(".schema.json")}

    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_shipped_schema_is_valid(self, name):
        jsonschema.Draft202012Validator.check_schema(self.SCHEMAS[name])

    def test_tech_enums_are_the_tech_profiles(self):
        ledger = self.SCHEMAS["ledger.schema.json"]["properties"]
        device = self.SCHEMAS["run_config.schema.json"]["properties"]["device"]
        assert ledger["tech"]["enum"] == list(config.TECH_PROFILES)
        assert device["properties"]["tech"]["enum"] == list(config.TECH_PROFILES)

    def test_emitted_json_validates(self, paper_files, tiny_config_path, tmp_path,
                                    capsys):
        # every JSON artifact of one device run, checked by a stock validator
        out = tmp_path / "dev"
        assert cli.main(["train", "--config", tiny_config_path, "--algo", "cf",
                         "--out", str(out)]) == 0
        run_dir = out / "run_0"
        assert cli.main(["energy", "--run", str(run_dir)]) == 0
        assert cli.main(["stats", *paper_files, "--out",
                         str(tmp_path / "stats.json")]) == 0
        registry = referencing.Registry().with_resources(
            (name, referencing.Resource.from_contents(schema))
            for name, schema in self.SCHEMAS.items())
        for path, name in [(run_dir / "manifest.json", "manifest.schema.json"),
                           (run_dir / "metrics.json", "metrics.schema.json"),
                           (run_dir / "ledger.json", "ledger.schema.json"),
                           (out / "summary.json", "run_summary.schema.json"),
                           (run_dir / "energy.json", "energy_report.schema.json"),
                           (tmp_path / "stats.json", "stats_report.schema.json")]:
            validator = jsonschema.Draft202012Validator(self.SCHEMAS[name],
                                                        registry=registry)
            validator.validate(json.loads(path.read_text()))


class TestEmptyLedgerEnergy:
    def test_all_zero_report(self, tmp_path):
        from memgrad.energy import EnergyLedger
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        EnergyLedger(config.LARGE_ARRAY).save(run_dir / "ledger.json")
        rc = cli.main(["energy", "--run", str(run_dir)])
        assert rc == 0
        payload = json.loads((run_dir / "energy.json").read_text())
        assert payload["pulse_count"] == 0
        assert payload["programming_j"] == 0.0
        assert payload["mac_projected_j"] == 0.0
