"""Device model: replay, reinit, linearity metric, drift, pulse energy."""

import copy
import hashlib
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memgrad import config, device
from memgrad.device import (DeviceState, DeviceTechParams, DriftModelParams,
                            EnduranceExceeded, LARGE_ARRAY, MAC_ARRAY,
                            NeedsReinit, ResetTrajectory,
                            SyntheticTrajectoryParams, TrajectoryBank,
                            apply_reset_pulse,
                            apply_retention_drift, generate_trajectory_bank,
                            load_bank_csv, pearson_coefficient, pulse_energy,
                            reinitialize, save_bank_csv)
from memgrad.stats import welch_t_test
from memgrad.trainer import evaluate, pulse_statistics, simulate_aging, train


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


def scalar_pearson(g, p_max):
    """The coefficient of one trajectory, one scalar reduction at a time."""
    g = np.asarray(g)[:p_max]
    mu_g = g.mean()
    sigma_g = math.sqrt(float(np.mean((g - mu_g) ** 2)))
    if sigma_g == 0.0:
        return 0.0
    centered_i = np.arange(1, p_max + 1, dtype=float) - (p_max + 1) / 2.0
    sigma_p = math.sqrt(float(np.mean(centered_i ** 2)))
    rho = float(np.mean((g - mu_g) * centered_i)) / (sigma_g * sigma_p)
    return float(min(1.0, max(-1.0, rho)))


class TestPearson:
    @pytest.mark.parametrize("kwargs", [{}, {"anomalous_probability": 1.0},
                                        {"decrement_family": "lognormal"}],
                             ids=["normal", "anomalous", "lognormal"])
    @pytest.mark.parametrize("p_max", [2, 150, 301])
    def test_row_blocks_match_scalar_reference(self, kwargs, p_max):
        # one row of the block form must equal the scalar computation bit for bit
        g = generate_trajectory_bank(SyntheticTrajectoryParams(p_max=300, **kwargs),
                                     70, seed=3).conductances
        block = np.vstack([g, np.full(301, 5e-6)])          # a constant row gives 0
        rhos = pearson_coefficient(block, p_max)
        expected = [scalar_pearson(row, p_max) for row in block]
        assert rhos.shape == (71,) and rhos.tolist() == expected
        assert [pearson_coefficient(row, p_max) for row in block] == expected
        assert pearson_coefficient(block[:0], p_max).shape == (0,)

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


def spy_on_draws(monkeypatch):
    """The ``keep`` of every draw pass a synthetic bank makes from now on.

    The reuse cache starts empty, so that the passes do not depend on what
    earlier tests drew.
    """
    monkeypatch.setattr(device, "_DRAWN", {})
    passes, draw = [], device._draw

    def spy(params, seed, count, keep, out=None):
        passes.append(keep)
        return draw(params, seed, count, keep, out)

    monkeypatch.setattr(device, "_draw", spy)
    return passes


FAMILIES = [{"decrement_family": family, "anomalous_probability": anomalous}
            for family in ("normal", "lognormal") for anomalous in (0.0, 0.3, 1.0)]


def bank_reads(count, width):
    """Sequences of fills, reads and copies of a ``count``-row bank."""
    return st.lists(st.one_of(
        st.tuples(st.just("fill"), st.integers(0, width + 2)),
        st.tuples(st.just("gather"), st.lists(st.integers(0, width - 1), max_size=4)),
        st.tuples(st.just("conductances")),
        st.tuples(st.just("item"), st.integers(0, count - 1)),
        st.tuples(st.just("deepcopy")),
        st.tuples(st.just("pickle"))), max_size=6)


class TestDeferredFill:
    """Synthetic banks draw in one pass from their seed, keeping the columns asked for."""

    @pytest.mark.parametrize("kwargs", FAMILIES, ids=lambda k: "-".join(map(str, k.values())))
    @settings(max_examples=25)
    @given(reads=bank_reads(12, 78))
    def test_any_fill_cut_points_match_one_shot(self, kwargs, reads):
        params = SyntheticTrajectoryParams(p_max=77, late_onset_fraction=0.5, **kwargs)
        expected = one_shot_conductances(params, 12, seed=4)
        bank = generate_trajectory_bank(params, 12, seed=4)
        assert bank.filled == 0          # nothing is drawn before the first fill
        for op, *args in reads:
            before, matrix = bank.filled, bank._matrix
            if op == "fill":
                bank.fill(args[0])
                assert bank.filled == max(before, min(args[0], bank.width))
            elif op == "gather":
                cursor = np.array(args[0], dtype=np.int64)
                tid = np.arange(len(cursor)) % len(bank)
                assert bank.gather(tid, cursor).tobytes() == expected[tid, cursor].tobytes()
                inside = cursor.size == 0 or cursor.max() < before
                assert bank.filled == (before if inside else bank.width)
            elif op == "conductances":
                assert bank.conductances.tobytes() == expected.tobytes()
            elif op == "item":
                assert bank[args[0]].conductances.tobytes() == expected[args[0]].tobytes()
            else:
                bank = (copy.deepcopy(bank) if op == "deepcopy"
                        else pickle.loads(pickle.dumps(bank)))
                matrix = bank._matrix
            if bank.filled == before:
                assert bank._matrix is matrix      # and so no pass was made
            assert bank._matrix.tobytes() == expected[:, :bank.filled].tobytes()
        assert bank.conductances.tobytes() == expected.tobytes()

    def test_gather_past_the_kept_columns_keeps_every_column(self, monkeypatch):
        passes = spy_on_draws(monkeypatch)
        params = SyntheticTrajectoryParams(p_max=2000, anomalous_probability=0.5)
        expected = one_shot_conductances(params, 6, seed=9)
        bank = generate_trajectory_bank(params, 6, seed=9)
        tid = np.arange(6)
        bank.fill(400)
        assert np.array_equal(bank.gather(tid, 0), expected[:, 0])
        assert np.array_equal(bank.gather(tid, np.full(6, 399)), expected[:, 399])
        assert np.array_equal(bank.gather(tid[:, None], [[256, 300]]),
                              expected[:, [256, 300]])
        assert bank.gather(tid[:0], np.zeros((2, 0), int)).shape == (2, 0)
        assert passes == [400]             # reads inside the kept columns make no pass
        assert np.array_equal(bank.gather(2, 1500), expected[2, 1500])
        assert passes == [400, 2001]
        assert bank.filled == bank.width == 2001
        assert np.array_equal(bank.gather(tid, 2000), expected[:, 2000])
        assert passes == [400, 2001]
        with pytest.raises(IndexError):
            bank.gather(0, 2001)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b))],
                             ids=["deepcopy", "pickle"])
    def test_half_filled_bank_continues_after_copy(self, clone):
        params = SyntheticTrajectoryParams(p_max=600, anomalous_probability=0.5)
        expected = one_shot_conductances(params, 10, seed=2)
        bank = generate_trajectory_bank(params, 10, seed=2)
        bank.fill(300)
        bank.gather(np.arange(10), 100)
        twin = clone(bank)
        assert twin.filled == bank.filled == 300
        assert np.array_equal(twin.gather(np.arange(10), 400), expected[:, 400])
        assert twin.filled == twin.width and bank.filled == 300
        assert twin.conductances.tobytes() == expected.tobytes()
        assert bank.conductances.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kwargs", FAMILIES, ids=lambda k: "-".join(map(str, k.values())))
    def test_fill_cut_points_across_the_drawn_frontier(self, kwargs):
        # the late-stage regime starts at decrement 960: cuts on both sides
        params = SyntheticTrajectoryParams(p_max=1200, **kwargs)
        expected = one_shot_conductances(params, 5, seed=8)
        for cut in (1, 2, 3, 511, 960, 961, 962, 1200, 1201, 1300):
            bank = generate_trajectory_bank(params, 5, seed=8)
            bank.fill(cut)
            assert bank.filled == min(cut, bank.width)
            assert bank._matrix.tobytes() == expected[:, :cut].tobytes()
        for cuts in ([3, 511, 512, 513, 777, 1200, 1201], [900, 1201], [1, 2, 513, 1199]):
            bank = generate_trajectory_bank(params, 5, seed=8)
            for cut in cuts:
                bank.fill(cut)
                assert bank.filled == cut
                assert bank._matrix.tobytes() == expected[:, :cut].tobytes()
            assert bank.conductances.tobytes() == expected.tobytes()

    def test_whole_read_first_keeps_every_column(self, monkeypatch):
        # conductances (or bank[k]) as the first read draws the whole bank
        # in its one pass
        passes = spy_on_draws(monkeypatch)
        params = SyntheticTrajectoryParams(p_max=1200, anomalous_probability=0.3)
        bank = generate_trajectory_bank(params, 5, seed=3)
        assert bank.conductances.tobytes() == one_shot_conductances(params, 5, 3).tobytes()
        assert passes == [1201]

    def test_fill_past_the_width_or_on_a_measured_bank_does_nothing(self, monkeypatch):
        passes = spy_on_draws(monkeypatch)
        params = SyntheticTrajectoryParams(p_max=300)
        bank = generate_trajectory_bank(params, 3, seed=1)
        bank.fill(10_000)
        matrix = bank._matrix
        for upto in (10_000, 301, 12, 0):
            bank.fill(upto)
        assert passes == [301] and bank._matrix is matrix
        assert bank._matrix.tobytes() == one_shot_conductances(params, 3, 1).tobytes()
        measured = TrajectoryBank(np.full((2, 4), 1e-6), [4, 3])
        for upto in (0, 2, 4, 100):
            measured.fill(upto)
            assert measured.filled == measured.width == 4
        assert passes == [301]

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b))],
                             ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("read", [None, 700], ids=["unread", "redrawn"])
    def test_bank_copies_before_and_between_redraws(self, clone, read):
        params = SyntheticTrajectoryParams(p_max=1200, anomalous_probability=0.5,
                                           decrement_family="lognormal")
        expected = one_shot_conductances(params, 4, seed=6)
        bank = generate_trajectory_bank(params, 4, seed=6)
        if read is not None:
            bank.fill(read)
        twin = clone(bank)
        assert twin.filled == bank.filled
        assert np.array_equal(twin.gather(np.arange(4), 1100), expected[:, 1100])
        assert twin.conductances.tobytes() == expected.tobytes()
        assert bank.conductances.tobytes() == expected.tobytes()

    def test_desk_depth_read_keeps_a_narrow_matrix(self):
        # a training run at the desk epochs reads a few hundred samples per
        # trajectory; the bank holds that many columns, not all 5001
        bank = generate_trajectory_bank(SyntheticTrajectoryParams(), 1268, seed=0)
        bank.fill(265)
        matrix = bank._matrix
        bank.gather(np.arange(1268), 264)
        assert bank._matrix is matrix and matrix.shape == (1268, 265)

    def test_matrix_is_read_only_from_outside(self):
        bank = generate_trajectory_bank(SyntheticTrajectoryParams(p_max=300), 3, seed=0)
        bank.gather(0, 1)
        with pytest.raises(ValueError):
            bank.conductances[0, 0] = 1.0
        assert bank.filled == bank.width
        matrix = np.full((2, 4), 1e-6)
        measured = TrajectoryBank(matrix, [4, 3])
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
    def test_failed_fill_keeps_failing(self, monkeypatch):
        # finite but huge decrements of both signs overflow the running sum
        # to inf - inf; the pass that meets them keeps nothing, and every
        # later read makes the same pass and refuses again
        passes = spy_on_draws(monkeypatch)
        generate_trajectory_bank(SyntheticTrajectoryParams(p_max=300), 4, seed=0).fill(50)
        params = SyntheticTrajectoryParams(p_max=300, decrement_mean=1e307,
                                           decrement_sigma=0.0,
                                           anomalous_probability=1.0)
        bank = generate_trajectory_bank(params, 4, seed=0)
        with pytest.raises(ValueError, match="finite and non-negative"):
            bank.fill(200)
        for _ in range(2):
            with pytest.raises(ValueError, match="finite and non-negative"):
                bank.gather(np.arange(4), 299)
        assert bank.filled == 0
        with pytest.raises(ValueError, match="finite and non-negative"):
            bank.conductances
        # no failed pass was cached: only the good bank's matrix is
        assert passes == [50, 200, 301, 301, 301]
        assert [m.shape for m in device._DRAWN.values()] == [(4, 50)]


REUSE_WIDTH = 61
# four specs, each differing from the first in one part of the reuse key:
# the seed, the row count or the generator params
REUSE_SPECS = [(SyntheticTrajectoryParams(p_max=60, anomalous_probability=0.3), 6, 4),
               (SyntheticTrajectoryParams(p_max=60, anomalous_probability=0.3), 6, 5),
               (SyntheticTrajectoryParams(p_max=60, anomalous_probability=0.3), 5, 4),
               (SyntheticTrajectoryParams(p_max=60, anomalous_probability=0.3,
                                          decrement_family="lognormal"), 6, 4)]
REUSE_EXPECTED = [one_shot_conductances(*spec) for spec in REUSE_SPECS]


def reuse_steps():
    """Interleaved steps on banks of the ``REUSE_SPECS``; a bank is picked
    by its index modulo the number of live banks."""
    bank = st.integers(0, 99)
    return st.lists(st.one_of(
        st.tuples(st.just("generate"), st.integers(0, len(REUSE_SPECS) - 1)),
        st.tuples(st.just("fill"), bank, st.integers(0, REUSE_WIDTH + 2)),
        st.tuples(st.just("gather"), bank,
                  st.lists(st.integers(0, REUSE_WIDTH - 1), max_size=3)),
        st.tuples(st.just("conductances"), bank),
        st.tuples(st.just("item"), bank, st.integers(0, 4)),
        st.tuples(st.just("deepcopy"), bank),
        st.tuples(st.just("pickle"), bank)), max_size=14)


class TestDrawReuse:
    """Banks of one params, seed and count share the matrix of one pass."""

    @settings(max_examples=60)
    @given(steps=reuse_steps())
    def test_reuse_is_invisible(self, steps):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(device, "_DRAWN", {})
            # two banks per spec from the start, so that one can reuse the other's pass
            banks = [(k, generate_trajectory_bank(*REUSE_SPECS[k]))
                     for k in [*range(len(REUSE_SPECS))] * 2]
            for op, *args in steps:
                if op == "generate":
                    banks.append((args[0], generate_trajectory_bank(*REUSE_SPECS[args[0]])))
                    continue
                k, bank = banks[args[0] % len(banks)]
                expected, before = REUSE_EXPECTED[k], bank.filled
                if op == "fill":
                    bank.fill(args[1])
                    assert bank.filled == max(before, min(args[1], bank.width))
                elif op == "gather":
                    cursor = np.array(args[1], dtype=np.int64)
                    tid = np.arange(len(cursor)) % len(bank)
                    assert bank.gather(tid, cursor).tobytes() == expected[tid, cursor].tobytes()
                    inside = cursor.size == 0 or cursor.max() < before
                    assert bank.filled == (before if inside else bank.width)
                elif op == "conductances":
                    assert bank.conductances.tobytes() == expected.tobytes()
                elif op == "item":
                    row = args[1] % len(bank)
                    assert bank[row].conductances.tobytes() == expected[row].tobytes()
                else:
                    twin = (copy.deepcopy(bank) if op == "deepcopy"
                            else pickle.loads(pickle.dumps(bank)))
                    assert twin.filled == before
                    banks.append((k, twin))
                for j, other in banks:
                    assert other._matrix.tobytes() == \
                        REUSE_EXPECTED[j][:, :other.filled].tobytes()
                assert len(device._DRAWN) <= 2
                assert not any(m.flags.writeable for m in device._DRAWN.values())

    def test_a_hit_becomes_the_most_recently_used(self, monkeypatch):
        passes = spy_on_draws(monkeypatch)
        params = SyntheticTrajectoryParams(p_max=40)
        banks = [generate_trajectory_bank(params, 3, seed) for seed in (0, 1, 0, 2, 0, 1)]
        for bank in banks:
            bank.fill(41)
        # seed 0 is read again before seed 2 is drawn, so 2 evicts 1, not 0
        assert passes == [41, 41, 41, 41]
        assert np.shares_memory(banks[0]._matrix, banks[4]._matrix)
        assert not np.shares_memory(banks[1]._matrix, banks[5]._matrix)

    def test_params_equal_only_in_value_are_not_shared(self, monkeypatch):
        # numpy refuses a normal scale of -0.0, so the params store a sigma
        # of -0.0 as 0.0 and its bank is the 0.0 bank; a g0_mean of -0.0
        # stays -0.0 and gets a pass of its own
        passes = spy_on_draws(monkeypatch)
        banks = [generate_trajectory_bank(SyntheticTrajectoryParams(p_max=10, **kwargs), 2, 1)
                 for kwargs in [{"g0_sigma": 0.0}, {"g0_sigma": -0.0},
                                {"g0_mean": 0.0}, {"g0_mean": -0.0}]]
        for bank in banks:
            bank.fill(11)
        assert passes == [11, 11, 11]
        assert np.shares_memory(banks[0]._matrix, banks[1]._matrix)
        assert not np.shares_memory(banks[2]._matrix, banks[3]._matrix)
        expected = one_shot_conductances(SyntheticTrajectoryParams(p_max=10, g0_sigma=0.0), 2, 1)
        assert banks[1]._matrix.tobytes() == expected.tobytes()

    def test_desk_build_order_draws_three_banks_each_time(self, monkeypatch):
        # the benchmark's desk pass at its shortened epochs: float bp, then
        # bp, sff and cf on seeds w and w + 1, then cf on a 300-pulse bank
        passes = spy_on_draws(monkeypatch)
        cfgs = {algo: config.effective_config(
            None, {"algorithm": algo, "schedule": {"epochs": epochs}})
            for algo, epochs in [("float_bp", [1, 2]), ("bp", [1, 2]), ("sff", [1, 1]),
                                 ("cf", [1, 1])]}
        cfgs["cf_narrow"] = config.effective_config(None, {
            "algorithm": "cf", "schedule": {"epochs": [3, 1]},
            "bank": {"params": {"p_max": 300}}, "device": {"on_exhaustion": "skip"}})
        dataset = config.build_dataset(cfgs["cf"])
        replays = []
        for _ in range(2):
            del passes[:]
            for algo, seed in [("float_bp", 7), ("bp", 7), ("bp", 8), ("sff", 7), ("sff", 8),
                               ("cf", 7), ("cf", 8), ("cf_narrow", 7)]:
                config.build_training_run(cfgs[algo], seed, dataset)
            replays.append(list(passes))
        # two banks at bp depth, which sff and cf reuse, and the narrow one;
        # nothing drawn in one replay is still cached for the next
        depth = replays[0][0]
        assert replays == [[depth, depth, 301]] * 2 and depth > 301

    def test_reproduce_matches_runs_built_by_hand(self, monkeypatch):
        # the acceptance experiment on a small task against its runs built
        # in its order: the oracle on seed 0, then bp, sff and cf on each
        # seed, each seed's three runs served by one draw pass (three seeds
        # overflow the two-entry cache unless the runs go seed by seed)
        passes = spy_on_draws(monkeypatch)
        cfg = config.effective_config(None, {"task": {"n_per_class": 60},
                                             "schedule": {"epochs": [1, 1]}})
        record = config.reproduce(cfg, [0, 1, 2])
        assert len(passes) == 3
        assert json.loads(json.dumps(record)) == record
        dataset = config.build_dataset(cfg)
        train_ds, _, test_ds = config.build_splits(cfg, dataset)

        def trained(algorithm, seed):
            run = config.build_training_run({**cfg, "algorithm": algorithm}, seed, dataset)
            train(run, train_ds)
            return run

        assert record["a_star"] == evaluate(trained("float_bp", 0), test_ds)
        accs, stats = {}, {}
        for seed in (0, 1, 2):
            for algo in ("bp", "sff", "cf"):
                run = trained(algo, seed)
                accs.setdefault(algo, []).append(evaluate(run, test_ds))
                stats.setdefault(algo, []).append(pulse_statistics(run))
                if (algo, seed) == ("cf", 0):
                    aging = simulate_aging(run, [0.0, 90.0], config.build_drift_params(cfg),
                                           np.random.default_rng(77), 20, test_ds)
        assert record["test_accuracy"] == accs
        assert record["pulse_statistics"] == stats
        assert record["aging"] == [{"day": p.day, "accuracies": p.accuracies} for p in aging]
        assert record["p_values"] == {f"{a}-{b}": welch_t_test(accs[a], accs[b])
                                      for a, b in [("bp", "sff"), ("bp", "cf"), ("sff", "cf")]}


class TestBlocks:
    """Draw passes yield finished row blocks; banks read as row blocks."""

    @settings(max_examples=40)
    @given(count=st.integers(1, 150), keep=st.integers(1, 78),
           kwargs=st.sampled_from(FAMILIES))
    def test_streamed_blocks_stack_to_the_filled_matrix(self, count, keep, kwargs):
        params = SyntheticTrajectoryParams(p_max=77, late_onset_fraction=0.5, **kwargs)
        streamed = list(device._draw(params, 5, count, keep))
        assert [start for start, _ in streamed] == list(range(0, count, device._BLOCK_ROWS))
        matrix = np.empty((count, keep))
        for start, block in device._draw(params, 5, count, keep, out=matrix):
            assert np.shares_memory(block, matrix[start])
        assert np.vstack([block for _, block in streamed]).tobytes() == matrix.tobytes()
        expected = one_shot_conductances(params, count, 5)[:, :keep]
        assert matrix.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_unfilled_bank_streams_one_pass_and_keeps_nothing(self, monkeypatch):
        passes = spy_on_draws(monkeypatch)
        params = SyntheticTrajectoryParams(p_max=300, anomalous_probability=0.3)
        bank = generate_trajectory_bank(params, 130, seed=1)
        bank.fill(40)
        blocks = list(bank.blocks())
        assert [start for start, _ in blocks] == list(range(0, 130, device._BLOCK_ROWS))
        assert np.vstack([block for _, block in blocks]).tobytes() == \
            one_shot_conductances(params, 130, 1).tobytes()
        assert passes == [40, 301]
        assert bank.filled == 40 and [m.shape for m in device._DRAWN.values()] == [(130, 40)]

    def test_complete_banks_yield_views(self, monkeypatch):
        passes = spy_on_draws(monkeypatch)
        synthetic = generate_trajectory_bank(SyntheticTrajectoryParams(p_max=20), 70, seed=0)
        synthetic.fill(21)
        measured = TrajectoryBank.from_rows([us([9, 8, 7]), us([5, 4])] * 40)
        for bank in (synthetic, measured):
            blocks = list(bank.blocks())
            assert [start for start, _ in blocks] == list(range(0, len(bank),
                                                                device._BLOCK_ROWS))
            assert all(np.shares_memory(block, bank._matrix) and not block.flags.writeable
                       for _, block in blocks)
            assert np.vstack([block for _, block in blocks]).tobytes() == \
                bank.conductances.tobytes()
        assert passes == [21]

    def test_failing_block_raises_before_it_is_yielded(self, monkeypatch):
        monkeypatch.setattr(device, "_DRAWN", {})
        bank = generate_trajectory_bank(
            SyntheticTrajectoryParams(p_max=30, g0_mean=1e308, g0_sigma=1e308), 3, seed=0)
        with pytest.raises(ValueError, match="finite and non-negative"):
            next(bank.blocks())
        assert bank.filled == 0 and device._DRAWN == {}


class TestRetentionDrift:
    def test_zero_days_identity(self):
        g = np.array([50e-6])
        out = apply_retention_drift(g, 0.0, DriftModelParams(), np.random.default_rng(0))
        assert np.array_equal(out, g) and out is not g

    def test_negative_days_rejected(self):
        with pytest.raises(ValueError):
            apply_retention_drift(np.array([50e-6]), -1.0, DriftModelParams(),
                                  np.random.default_rng(0))

    @pytest.mark.parametrize("days", [math.nan, math.inf])
    def test_non_finite_days_rejected(self, days):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="days must be finite and >= 0"):
            apply_retention_drift(np.array([50e-6]), days, DriftModelParams(), rng)
        with pytest.raises(ValueError, match="days must be finite and >= 0"):
            DriftModelParams().tail_weight(days)
        assert rng.bit_generator.state == state

    def test_duplicate_target_days_rejected(self):
        with pytest.raises(ValueError, match=r"target days must be distinct, got \[8, 8.0\]"):
            DriftModelParams(targets=((8, 3e-6, 0.941), (8.0, 3e-6, 0.5)))

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

    @pytest.mark.parametrize("source", ["synthetic", "ragged"])
    def test_written_from_blocks_as_row_by_row(self, tmp_path, monkeypatch, source):
        # 150 rows are two full blocks and a part; an unfilled synthetic
        # bank is written from one streamed pass and stays unfilled
        monkeypatch.setattr(device, "_DRAWN", {})
        params = SyntheticTrajectoryParams(p_max=120, anomalous_probability=0.3)
        if source == "synthetic":
            bank = generate_trajectory_bank(params, 150, seed=3)
        else:
            rows = one_shot_conductances(params, 150, 3)
            bank = TrajectoryBank.from_rows([row[:2 + k % 119] for k, row in enumerate(rows)])
        path = tmp_path / "bank.csv"
        save_bank_csv(bank, path)
        assert bank.filled == (0 if source == "synthetic" else bank.width)
        assert device._DRAWN == {}
        lines = ["device_id,pulse_index,conductance_uS"]
        lines += [f"{dev_id},{k},{g * 1e6:.9g}" for dev_id, traj in enumerate(bank)
                  for k, g in enumerate(traj.conductances.tolist())]
        assert path.read_bytes() == "".join(f"{line}\r\n" for line in lines).encode()

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
