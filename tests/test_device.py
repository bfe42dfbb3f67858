"""Device model: replay, reinit, linearity metric, drift, pulse energy."""

import copy
import hashlib
import pickle

import numpy as np
import pytest

from memgrad.device import (DeviceState, DeviceTechParams, DriftModelParams,
                            EnduranceExceeded, LARGE_ARRAY, MAC_ARRAY,
                            NeedsReinit, ResetTrajectory,
                            SyntheticTrajectoryParams, TrajectoryBank,
                            apply_reset_pulse,
                            apply_retention_drift, generate_trajectory_bank,
                            load_bank_csv, pearson_coefficient, pulse_energy,
                            reinitialize, save_bank_csv)


def us(values):
    return np.asarray(values, dtype=float) * 1e-6


class TestResetTrajectory:
    def test_minimum_length(self):
        with pytest.raises(ValueError):
            ResetTrajectory(us([100.0]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ResetTrajectory(us([100.0, -1.0]))

    def test_len(self):
        assert len(ResetTrajectory(us([100, 99, 98]))) == 3


class TestApplyResetPulse:
    def test_replay_contract(self):
        traj = ResetTrajectory(us([100.0, 99.8, 99.5]))
        dev = DeviceState(traj)
        g = apply_reset_pulse(dev)
        assert g == pytest.approx(99.8e-6)
        assert dev.pulse_index == 1
        assert dev.lifetime_pulses == 1

    def test_needs_reinit_at_boundary(self):
        traj = ResetTrajectory(us([100.0, 99.8, 99.5]))
        dev = DeviceState(traj, pulse_index=2)
        with pytest.raises(NeedsReinit):
            apply_reset_pulse(dev)

    def test_replay_determinism_full_trajectory(self):
        # every pulse must return exactly the stored value, elementwise
        rng = np.random.default_rng(3)
        traj = ResetTrajectory(np.abs(rng.normal(50e-6, 5e-6, 200)))
        dev = DeviceState(traj)
        seen = [dev.conductance]
        for _ in range(199):
            seen.append(apply_reset_pulse(dev))
        assert np.array_equal(np.array(seen), traj.conductances)
        with pytest.raises(NeedsReinit):
            apply_reset_pulse(dev)

    def test_monotone_trajectory_non_increasing(self):
        params = SyntheticTrajectoryParams(anomalous_probability=0.0, p_max=5000)
        traj = generate_trajectory_bank(params, 1, seed=11)[0]
        dev = DeviceState(traj)
        prev = dev.conductance
        for _ in range(5000):
            g = apply_reset_pulse(dev)
            assert g <= prev
            prev = g

    def test_endurance_budget(self):
        traj = ResetTrajectory(us([10, 9, 8, 7]))
        dev = DeviceState(traj, lifetime_pulses=5)
        with pytest.raises(EnduranceExceeded):
            apply_reset_pulse(dev, endurance_budget=5)
        # no budget given: only the trajectory limits
        apply_reset_pulse(dev)


class TestReinitialize:
    def test_resets_to_fresh_trajectory(self):
        bank = generate_trajectory_bank(SyntheticTrajectoryParams(p_max=10), 5, seed=0)
        dev = DeviceState(bank[0], pulse_index=10)
        assert dev.exhausted
        reinitialize(dev, bank, np.random.default_rng(1))
        assert dev.pulse_index == 0
        assert dev.reinit_count == 1
        assert dev.conductance == dev.trajectory.conductances[0]

    def test_same_seed_same_draw(self):
        bank = generate_trajectory_bank(SyntheticTrajectoryParams(p_max=10), 50, seed=0)
        devs = [DeviceState(bank[0]) for _ in range(2)]
        for dev in devs:
            reinitialize(dev, bank, np.random.default_rng(42))
        assert devs[0].trajectory is devs[1].trajectory

    def test_empty_bank(self):
        dev = DeviceState(ResetTrajectory(us([1, 2])))
        with pytest.raises(ValueError):
            reinitialize(dev, [], np.random.default_rng(0))

    def test_endurance_protocol_300_cycles(self):
        # 300 cycles x 5000 pulses = 1.5 M pulses, exactly the default budget
        params = SyntheticTrajectoryParams(anomalous_probability=0.0, p_max=5000)
        bank = generate_trajectory_bank(params, 8, seed=1)
        dev = DeviceState(bank[0])
        rng = np.random.default_rng(0)
        for cycle in range(300):
            if cycle:
                reinitialize(dev, bank, rng)
            for _ in range(5000):
                apply_reset_pulse(dev, endurance_budget=LARGE_ARRAY.endurance_budget)
        assert dev.lifetime_pulses == 1_500_000
        assert dev.reinit_count == 299


class TestPearson:
    def test_decreasing_line_is_minus_one(self):
        g = 100e-6 - 0.01e-6 * np.arange(5001)
        rho = pearson_coefficient(ResetTrajectory(g), 5000)
        assert abs(rho - (-1.0)) < 1e-9

    def test_increasing_line_is_plus_one(self):
        g = 10e-6 + 1e-6 * np.arange(600)
        rho = pearson_coefficient(ResetTrajectory(g), 600)
        assert abs(rho - 1.0) < 1e-9

    def test_constant_returns_zero(self):
        assert pearson_coefficient(ResetTrajectory(us([5, 5, 5, 5])), 4) == 0.0

    def test_matches_textbook_oracle(self):
        # oracle: sample Pearson correlation of (i, G_i), via np.corrcoef
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(5, 400))
            g = np.abs(rng.normal(50e-6, 10e-6, n))
            rho = pearson_coefficient(ResetTrajectory(g), n)
            expected = np.corrcoef(np.arange(1, n + 1), g)[0, 1]
            assert rho == pytest.approx(expected, abs=1e-9)

    def test_affine_invariance(self):
        rng = np.random.default_rng(9)
        g = np.abs(rng.normal(50e-6, 10e-6, 50))
        traj = ResetTrajectory(g)
        base = pearson_coefficient(traj, 50)
        scaled = pearson_coefficient(ResetTrajectory(3.0 * g + 1e-6), 50)
        assert scaled == pytest.approx(base, abs=1e-12)
        # negation flips the sign (shift keeps conductances non-negative)
        flipped = pearson_coefficient(ResetTrajectory(g.max() + 1e-6 - g), 50)
        assert flipped == pytest.approx(-base, abs=1e-12)

    def test_p_max_bounds(self):
        traj = ResetTrajectory(us([1, 2, 3]))
        with pytest.raises(ValueError):
            pearson_coefficient(traj, 1)
        with pytest.raises(ValueError):
            pearson_coefficient(traj, 4)


class TestTrajectoryBank:
    def test_deterministic(self):
        params = SyntheticTrajectoryParams(p_max=100)
        a = generate_trajectory_bank(params, 10, seed=5)
        b = generate_trajectory_bank(params, 10, seed=5)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.conductances, tb.conductances)

    def test_initial_conductance_near_mean(self):
        params = SyntheticTrajectoryParams(p_max=100)
        traj = generate_trajectory_bank(params, 1, seed=0)[0]
        assert len(traj) == 101
        assert abs(traj.conductances[0] - params.g0_mean) < 5 * params.g0_sigma

    def test_zero_noise_degenerate_case(self):
        params = SyntheticTrajectoryParams(g0_sigma=0.0, decrement_sigma=0.0,
                                           anomalous_probability=0.0, p_max=500)
        for traj in generate_trajectory_bank(params, 3, seed=2):
            dec = -np.diff(traj.conductances)
            assert np.allclose(dec, params.decrement_mean)
            assert abs(pearson_coefficient(traj, 500) - (-1.0)) < 1e-9

    def test_default_bank_pearson_distribution(self):
        # the synthetic cohort must look like a measured one: median close to
        # -1 with a minority tail of poorly-behaved devices above -0.5
        bank = generate_trajectory_bank(SyntheticTrajectoryParams(), 1268, seed=7)
        rhos = np.array([pearson_coefficient(t, 5000) for t in bank])
        assert np.median(rhos) <= -0.9
        assert 0.0 < np.mean(rhos > -0.5) < 0.25

    def test_lognormal_family(self):
        params = SyntheticTrajectoryParams(decrement_family="lognormal", p_max=200,
                                           anomalous_probability=0.0)
        traj = generate_trajectory_bank(params, 1, seed=0)[0]
        dec = -np.diff(traj.conductances)
        assert np.all(dec >= 0)

    def test_rows_are_views_of_one_matrix(self):
        # one copy of the conductances: each trajectory is a row view
        bank = generate_trajectory_bank(SyntheticTrajectoryParams(p_max=50), 4, seed=1)
        assert bank.conductances.shape == (4, 51)
        assert not bank.conductances.flags.writeable
        for k, traj in enumerate(bank):
            assert np.shares_memory(traj.conductances, bank.conductances)
            assert np.array_equal(traj.conductances, bank.conductances[k])
            assert bank[k] is traj
        assert [t.source for t in bank[1:3]] == ["synthetic(seed=1,idx=1)",
                                                 "synthetic(seed=1,idx=2)"]

    @pytest.mark.parametrize("kwargs,digest", [
        ({}, "7ac59ae28c2cf0770e10df3fd3eb492f42905b760ae2328bd2254bd31b3ce954"),
        ({"decrement_family": "lognormal"},
         "940dad0bc8090a779411980a49dd442fa84106659fdef1a529b795570b65713e"),
        ({"anomalous_probability": 1.0},
         "38636c1abe22109801d8b62d3e0ff2570b24c265e199cb86d3d8a98896748dbc"),
    ], ids=["normal", "lognormal", "anomalous"])
    def test_bank_digest_is_pinned(self, kwargs, digest):
        # the generator's rng stream and arithmetic are fixed: every bank,
        # and so every run built on one, stays bit-identical
        bank = generate_trajectory_bank(SyntheticTrajectoryParams(p_max=64, **kwargs),
                                        24, seed=7)
        assert bank.conductances.shape == (24, 65)
        assert hashlib.sha256(bank.conductances.tobytes()).hexdigest() == digest

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SyntheticTrajectoryParams(p_max=1)
        with pytest.raises(ValueError):
            SyntheticTrajectoryParams(decrement_mean=-1e-9)
        with pytest.raises(ValueError):
            SyntheticTrajectoryParams(decrement_sigma=-1e-9)
        with pytest.raises(ValueError):
            generate_trajectory_bank(SyntheticTrajectoryParams(), 0, seed=0)


def one_shot_conductances(params, count, seed):
    """The generator as one cumsum per row: draws, then arithmetic, row by row."""
    rng = np.random.default_rng(seed)
    onset = int(round(params.p_max * params.late_onset_fraction))
    sigma = np.full(params.p_max, params.decrement_sigma)
    sigma[onset:] *= params.late_sigma_factor
    var_ln = np.log1p((sigma / params.decrement_mean) ** 2)
    matrix = np.empty((count, params.p_max + 1))
    for g in matrix:
        if params.decrement_family == "lognormal":
            dec = rng.lognormal(np.log(params.decrement_mean) - var_ln / 2.0,
                                np.sqrt(var_ln))
        else:
            dec = np.maximum(rng.standard_normal(params.p_max) * sigma
                             + params.decrement_mean, 0.0)
        if rng.random() < params.anomalous_probability:
            dec = dec * rng.choice([-1.0, 1.0], size=params.p_max)
        g[0] = max(rng.normal(params.g0_mean, params.g0_sigma), 0.0)
        g[1:] = g[0] - np.cumsum(dec)
        np.clip(g, 0.0, None, out=g)
    return matrix


FAMILIES = [{"decrement_family": family, "anomalous_probability": anomalous}
            for family in ("normal", "lognormal") for anomalous in (0.0, 0.3, 1.0)]


class TestDeferredFill:
    """Synthetic banks turn raw draws into conductances only as far as read."""

    @pytest.mark.parametrize("kwargs", FAMILIES, ids=lambda k: "-".join(map(str, k.values())))
    def test_any_fill_cut_points_match_one_shot(self, kwargs):
        params = SyntheticTrajectoryParams(p_max=77, late_onset_fraction=0.5, **kwargs)
        expected = one_shot_conductances(params, 12, seed=4)
        width = params.p_max + 1
        rng = np.random.default_rng(0)
        for trial in range(20):
            cuts = rng.choice(np.arange(2, width - 1), size=rng.integers(0, 6), replace=False)
            cuts = sorted({1, width - 1, width, *cuts.tolist()})
            bank = generate_trajectory_bank(params, 12, seed=4)
            assert bank.filled == 1
            for cut in cuts:
                bank._fill(cut)
                assert bank.filled == cut
                assert np.array_equal(bank._matrix[:, :cut], expected[:, :cut])
            assert bank.conductances.tobytes() == expected.tobytes()

    def test_gather_fills_only_as_far_as_its_cursors(self):
        params = SyntheticTrajectoryParams(p_max=2000, anomalous_probability=0.5)
        expected = one_shot_conductances(params, 6, seed=9)
        bank = generate_trajectory_bank(params, 6, seed=9)
        tid = np.arange(6)
        assert np.array_equal(bank.gather(tid, 0), expected[:, 0])
        assert bank.filled == 1
        assert np.array_equal(bank.gather(tid, np.full(6, 3)), expected[:, 3])
        assert bank.filled == 256          # the floor of a fill
        assert np.array_equal(bank.gather(tid[:, None], [[256, 300]]),
                              expected[:, [256, 300]])
        assert bank.filled == 512          # at least doubled
        assert np.array_equal(bank.gather(2, 1500), expected[2, 1500])
        assert bank.filled == 1500 + 1
        assert bank.gather(tid[:0], np.zeros((2, 0), int)).shape == (2, 0)
        assert bank.filled == 1501
        assert np.array_equal(bank.gather(tid, 2000), expected[:, 2000])
        assert bank.filled == bank.width == 2001
        with pytest.raises(IndexError):
            bank.gather(0, 2001)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b))],
                             ids=["deepcopy", "pickle"])
    def test_half_filled_bank_continues_after_copy(self, clone):
        params = SyntheticTrajectoryParams(p_max=600, anomalous_probability=0.5)
        expected = one_shot_conductances(params, 10, seed=2)
        bank = generate_trajectory_bank(params, 10, seed=2)
        bank.gather(np.arange(10), 100)
        twin = clone(bank)
        assert twin.filled == bank.filled == 256
        assert np.array_equal(twin.gather(np.arange(10), 400), expected[:, 400])
        assert twin.filled == 512 and bank.filled == 256
        assert twin.conductances.tobytes() == expected.tobytes()
        assert bank.conductances.tobytes() == expected.tobytes()

    def test_matrix_is_read_only_from_outside(self):
        bank = generate_trajectory_bank(SyntheticTrajectoryParams(p_max=300), 3, seed=0)
        bank.gather(0, 1)
        with pytest.raises(ValueError):
            bank.conductances[0, 0] = 1.0
        assert bank.filled == bank.width
        matrix = np.full((2, 4), 1e-6)
        measured = TrajectoryBank(matrix, [4, 3], ["a", "b"])
        assert measured.filled == 4
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    @pytest.mark.parametrize("field", ["g0_mean", "g0_sigma", "decrement_mean",
                                       "decrement_sigma", "late_sigma_factor",
                                       "late_onset_fraction", "anomalous_probability"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_params_refused(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            SyntheticTrajectoryParams(**{field: value})

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failed_fill_keeps_failing(self):
        # finite but huge decrements of both signs overflow the running sum
        # to inf - inf; the fill that meets them refuses, and so does every
        # later read of those columns
        params = SyntheticTrajectoryParams(p_max=300, decrement_mean=1e307,
                                           decrement_sigma=0.0,
                                           anomalous_probability=1.0)
        bank = generate_trajectory_bank(params, 4, seed=0)
        for _ in range(2):
            with pytest.raises(ValueError, match="finite and non-negative"):
                bank.gather(np.arange(4), 299)
        assert bank.filled == 1
        with pytest.raises(ValueError, match="finite and non-negative"):
            bank.conductances


class TestRetentionDrift:
    def test_zero_days_identity(self):
        params = DriftModelParams()
        assert apply_retention_drift(50e-6, 0.0, params,
                                     np.random.default_rng(0)) == 50e-6

    def test_negative_days_rejected(self):
        with pytest.raises(ValueError):
            apply_retention_drift(50e-6, -1.0, DriftModelParams(),
                                  np.random.default_rng(0))

    def test_zero_variance_is_identity_for_all_days(self):
        params = DriftModelParams(sigma_core=0.0, sigma_tail=0.0)
        rng = np.random.default_rng(0)
        g = np.linspace(0, 100e-6, 11)
        for days in (0.5, 8, 90, 365):
            assert np.array_equal(apply_retention_drift(g, days, params, rng), g)

    def test_clamped_non_negative(self):
        params = DriftModelParams(sigma_core=50e-6, sigma_tail=100e-6,
                                  targets=((8.0, 3e-6, 0.5),))
        out = apply_retention_drift(np.full(2000, 1e-6), 8.0, params,
                                    np.random.default_rng(1))
        assert np.all(out >= 0)

    def test_population_calibration_anchors(self):
        # fractions inside the 3 uS band at the two calibrated horizons
        params = DriftModelParams()
        rng = np.random.default_rng(123)
        g0 = rng.uniform(16e-6, 100e-6, 3456)
        for days, target in ((8.0, 0.941), (90.0, 0.907)):
            drifted = apply_retention_drift(g0, days, params, rng)
            frac = np.mean(np.abs(drifted - g0) < 3e-6)
            assert frac == pytest.approx(target, abs=0.02)


class TestPulseEnergy:
    def test_zero_conductance(self):
        assert pulse_energy(0.0, LARGE_ARRAY) == 0.0

    def test_hand_arithmetic_large_array(self):
        # 50 uS * (0.9 V)^2 * 600 ns = 24.3 pJ
        assert pulse_energy(50e-6, LARGE_ARRAY) == pytest.approx(2.43e-11, rel=1e-12)

    def test_mac_array_matches_reported_average(self):
        # 72 uS under the low-voltage profile lands at the ~0.84 pJ scale
        e = pulse_energy(72e-6, MAC_ARRAY)
        assert e == pytest.approx(8.3e-13, rel=0.01)

    def test_scaling_ratios(self):
        base = pulse_energy(10e-6, LARGE_ARRAY)
        assert pulse_energy(20e-6, LARGE_ARRAY) / base == pytest.approx(2.0)
        half_t = DeviceTechParams("t", 0.9, 300e-9)
        assert pulse_energy(10e-6, half_t) / base == pytest.approx(0.5)
        double_v = DeviceTechParams("v", 0.45, 600e-9)
        assert base / pulse_energy(10e-6, double_v) == pytest.approx(4.0)

    def test_sub_1v_constraint(self):
        with pytest.raises(ValueError):
            DeviceTechParams("bad", v_reset=1.2, t_reset=100e-9)

    def test_bias_levels_bracket_read_amplitude(self):
        # bookkeeping levels: effective read amplitude = high - mid
        assert MAC_ARRAY.v_input_high - MAC_ARRAY.v_input_mid == pytest.approx(
            MAC_ARRAY.v_read)
        with pytest.raises(ValueError):
            DeviceTechParams("bad", 0.9, 600e-9, v_input_low=0.9,
                             v_input_high=0.5)


class TestBankCsv:
    def test_round_trip(self, tmp_path):
        bank = generate_trajectory_bank(SyntheticTrajectoryParams(p_max=20), 3, seed=0)
        path = tmp_path / "bank.csv"
        save_bank_csv(bank, path)
        loaded = load_bank_csv(path)
        assert len(loaded) == 3
        for a, b in zip(bank, loaded):
            assert np.allclose(a.conductances, b.conductances, rtol=1e-8)

    def test_ragged_lengths(self, tmp_path):
        path = tmp_path / "bank.csv"
        path.write_text("device_id,pulse_index,conductance_uS\n"
                        "0,0,100\n0,1,99\n0,2,98\n1,0,50\n1,1,49\n")
        bank = load_bank_csv(path)
        assert bank.lengths.tolist() == [3, 2]
        assert [len(t) for t in bank] == [3, 2]
        assert np.allclose(bank.conductances, us([[100, 99, 98], [50, 49, 0]]))
        assert np.allclose(bank[1].conductances, us([50, 49]))

    def test_rejects_single_sample_trajectory(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("device_id,pulse_index,conductance_uS\n0,0,100\n0,1,99\n1,0,5\n")
        with pytest.raises(ValueError):
            load_bank_csv(path)

    def test_rejects_sparse_indices(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("device_id,pulse_index,conductance_uS\n0,0,100\n0,2,99\n")
        with pytest.raises(ValueError, match="dense"):
            load_bank_csv(path)

    def test_rejects_negative(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("device_id,pulse_index,conductance_uS\n0,0,100\n0,1,-5\n")
        with pytest.raises(ValueError, match="negative"):
            load_bank_csv(path)

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("device_id,pulse_index,conductance_uS\n0,0,oops\n")
        with pytest.raises(ValueError, match="bad.csv:2"):
            load_bank_csv(path)
