"""Crossbar semantics: mapping, MAC, update plans."""

import copy
import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memgrad.crossbar import (CrossbarArray, OnExhaustion, PulseResult,
                              load_snapshot_csv, save_snapshot_csv)
from memgrad.device import (DeviceState, EnduranceExceeded, LARGE_ARRAY,
                            SyntheticTrajectoryParams, TrajectoryBank,
                            apply_reset_pulse, generate_trajectory_bank,
                            load_bank_csv, reinitialize, save_bank_csv)
from memgrad.energy import EnergyLedger, RunningSum
from memgrad.errors import ParseError

PLUS, MINUS = 0, 1    # plan sides: the device of the pair that is pulsed
SKIP = OnExhaustion.SKIP


class RecordingLedger(EnergyLedger):
    """A ledger that also keeps every pre-pulse conductance, in order.

    The ledger itself keeps only totals; ordered checks of what an array
    step records go through this list.
    """

    def __init__(self, tech=LARGE_ARRAY):
        super().__init__(tech)
        self.g_pre: list[float] = []

    def record_pulses(self, g_pre):
        super().record_pulses(g_pre)
        self.g_pre.extend(np.ravel(g_pre).tolist())


def make_bank(p_max=200, count=64, seed=0, **kw):
    return generate_trajectory_bank(
        SyntheticTrajectoryParams(p_max=p_max, anomalous_probability=0.0, **kw),
        count, seed)


def make_array(n_in=4, n_out=3, seed=0, pre_pulse_max=10, ledger=None):
    """An array on a fresh 200-pulse bank; without ``ledger``, on a new one."""
    bank = make_bank()
    rng = np.random.default_rng(seed)
    return CrossbarArray.build(n_in, n_out, bank, rng, ledger or EnergyLedger(LARGE_ARRAY),
                               5e4, pre_pulse_max)


def array_from_us(g_plus, g_minus, n_out=1, n_in=1):
    """Every pair at (g_plus, g_minus) uS, on two-sample trajectories."""
    bank = TrajectoryBank.from_rows([np.array([g_plus, g_plus * 0.9]) * 1e-6,
                                     np.array([g_minus, g_minus * 0.9]) * 1e-6])
    ids = np.broadcast_to([0, 1], (n_out, n_in, 2))
    return CrossbarArray(bank, ids, np.zeros_like(ids), EnergyLedger(LARGE_ARRAY), 5e4)


def plan_at(arr, actions):
    """(mask, side) plan from a {(i, j): side} dict."""
    mask = np.zeros((arr.n_out, arr.n_in), dtype=bool)
    side = np.zeros((arr.n_out, arr.n_in), dtype=np.int8)
    for (i, j), s in actions.items():
        mask[i, j], side[i, j] = True, s
    return mask, side


class TestWeightMapping:
    def test_equal_pairs_give_zero(self):
        arr = array_from_us(50, 50, n_out=2, n_in=3)
        assert np.array_equal(arr.map_weights(), np.zeros((2, 3)))

    def test_hand_mapped_value(self):
        # s = kappa * v_read = 5e4 * 0.2 = 1e4; w = 1e4 * 20 uS = 0.2
        arr = array_from_us(60, 40)
        assert arr.scale_s == pytest.approx(1e4)
        assert arr.map_weights()[0, 0] == pytest.approx(0.2)

    def test_pulse_minus_increases_weight(self):
        arr = make_array()
        w0 = arr.map_weights()[1, 2]
        arr.apply_update_plan(plan_at(arr, {(1, 2): MINUS}), SKIP)
        assert arr.map_weights()[1, 2] >= w0

    def test_differential_antisymmetry(self):
        arr = make_array(seed=3)
        swapped = CrossbarArray(arr.bank, arr.traj_ids[..., ::-1],
                                arr.cursors[..., ::-1], EnergyLedger(LARGE_ARRAY),
                                arr.gain_kappa)
        assert np.array_equal(swapped.map_weights(), -arr.map_weights())

    def test_scale_identity(self):
        arr = make_array()
        assert arr.scale_s == arr.gain_kappa * arr.tech.v_read


def read_one(arr, x):
    """Read a single input vector as a batch of one."""
    return arr.read(np.asarray(x, dtype=float)[None])[0]


class TestMac:
    def test_zero_input(self):
        arr = make_array()
        assert np.array_equal(read_one(arr, np.zeros(arr.n_in)), np.zeros(arr.n_out))

    def test_hand_evaluated_current(self):
        # G+ - G- = 20 uS, x = +1, V_read = 0.2 -> I = 4 uA, y = kappa*I = 0.2
        arr = array_from_us(60, 40)
        y = read_one(arr, [1.0])
        assert y[0] == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.parametrize("n_in,n_out", [(4, 3), (32, 32), (128, 32)])
    def test_matches_dense_oracle(self, n_in, n_out):
        # oracle: explicit dense product on the mapped weight matrix
        arr = make_array(n_in=n_in, n_out=n_out, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.normal(0, 1, n_in)
            expected = arr.map_weights() @ x
            got = read_one(arr, x)
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-15)

    def test_linearity(self):
        arr = make_array(n_in=8, n_out=5, seed=4)
        rng = np.random.default_rng(5)
        x1, x2 = rng.normal(0, 1, 8), rng.normal(0, 1, 8)
        lhs = read_one(arr, x1 + x2)
        rhs = read_one(arr, x1) + read_one(arr, x2)
        assert np.allclose(lhs, rhs, rtol=1e-10)
        assert np.allclose(read_one(arr, 2.5 * x1), 2.5 * read_one(arr, x1), rtol=1e-10)

    def test_shape_error(self):
        arr = make_array()
        with pytest.raises(ValueError):
            arr.read(np.zeros((1, arr.n_in + 1)))

    def test_read_event_logged(self):
        ledger = EnergyLedger(LARGE_ARRAY)
        arr = make_array(ledger=ledger)
        read_one(arr, np.ones(arr.n_in))
        assert ledger.read_count == 1
        assert ledger.mac_count == arr.n_in * arr.n_out

    def test_batch_read(self):
        # a batch is one read event: the rows match single reads, MACs add
        # up, and the logged sum is sum_n sum_ij (G+_ij + G-_ij) x_nj^2
        ledger = EnergyLedger(LARGE_ARRAY)
        arr = make_array(n_in=6, n_out=4, seed=7, ledger=ledger)
        x = np.random.default_rng(8).normal(0, 1, (5, 6))
        y = arr.read(x)
        assert ledger.read_count == 1 and ledger.mac_count == 5 * 6 * 4
        for n in range(5):
            assert np.allclose(y[n], arr.map_weights() @ x[n], rtol=1e-12, atol=1e-15)
        g_plus, g_minus = arr.conductances()
        expected = sum(float(((g_plus + g_minus) @ x[n] ** 2).sum()) for n in range(5))
        assert ledger.reads.total == pytest.approx(expected, rel=1e-12)


class TestUpdatePlan:
    def test_duplicate_action_rejected(self):
        # a plan holds at most one pulse per weight: a count mask is refused
        arr = make_array()
        mask, side = plan_at(arr, {(0, 0): PLUS})
        with pytest.raises(ValueError):
            arr.apply_update_plan((mask.astype(int) * 2, side), SKIP)
        assert int(arr.pulse_counts.sum()) == 0

    def test_empty_plan_is_noop(self):
        arr = make_array()
        # a copy: map_weights returns the array's cached W itself
        before = arr.map_weights().copy()
        result = arr.apply_update_plan(plan_at(arr, {}), SKIP)
        assert result == PulseResult(applied=0, skipped=0, reinits=0)
        assert np.array_equal(arr.map_weights(), before)

    @pytest.mark.parametrize("side", [np.zeros((3, 4)), np.ones((3, 4)),
                                      np.zeros((3, 4), dtype=complex)],
                             ids=["float0", "float1", "complex"])
    def test_non_integer_side_refused(self, side):
        # 0.0 and 1.0 would pass the value check; the dtype is refused first
        ledger = RecordingLedger()
        arr = make_array(ledger=ledger)
        state = [a.copy() for a in (arr.traj_ids, arr.cursors, arr.pulse_counts,
                                    *arr.conductances())]
        mask, _ = plan_at(arr, {(0, 0): PLUS, (2, 3): MINUS})
        with pytest.raises(ValueError, match="integer side array"):
            arr.apply_update_plan((mask, side), SKIP)
        after = (arr.traj_ids, arr.cursors, arr.pulse_counts, *arr.conductances())
        assert all(np.array_equal(a, b) for a, b in zip(state, after))
        assert ledger.pulse_count == 0 and ledger.g_pre == []

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint8, np.int64, np.uint64])
    def test_integer_and_bool_sides(self, dtype):
        arr = make_array()
        mask, side = plan_at(arr, {(0, 0): PLUS, (2, 3): MINUS})
        assert arr.apply_update_plan((mask, side.astype(dtype)), SKIP).applied == 2
        assert arr.pulse_counts[0, 0].tolist() == [1, 0]
        assert arr.pulse_counts[2, 3].tolist() == [0, 1]

    def test_pulse_follows_trajectory(self):
        # a fresh monotone device must step exactly to trajectory[1]
        bank = make_bank()
        arr = CrossbarArray.build(2, 2, bank, np.random.default_rng(0),
                                  EnergyLedger(LARGE_ARRAY), 5e4, 0)
        expected = bank[arr.traj_ids[1, 0, MINUS]].conductances[1]
        result = arr.apply_update_plan(plan_at(arr, {(1, 0): MINUS}), SKIP)
        assert result.applied == 1
        assert arr.conductances()[1][1, 0] == expected
        assert arr.cursors[1, 0, MINUS] == 1

    def test_pre_pulse_conductance_recorded(self):
        ledger = RecordingLedger()
        arr = make_array(ledger=ledger)
        g_before = arr.conductances()[0][0, 1]
        arr.apply_update_plan(plan_at(arr, {(0, 1): PLUS}), SKIP)
        assert ledger.g_pre == [g_before]
        assert arr.conductances()[0][0, 1] != g_before

    def test_skip_policy_on_exhausted(self):
        bank = make_bank(p_max=2)
        arr = CrossbarArray.build(1, 1, bank, np.random.default_rng(0),
                                  EnergyLedger(LARGE_ARRAY), 5e4, 0)
        plan = plan_at(arr, {(0, 0): PLUS})
        arr.apply_update_plan(plan, SKIP)  # second pulse would run off the end
        arr.apply_update_plan(plan, SKIP)
        result = arr.apply_update_plan(plan, SKIP)
        assert result.skipped == 1 and result.applied == 0
        assert arr.cursors[0, 0, PLUS] == 2

    def test_reinit_policy_on_exhausted(self):
        bank = make_bank(p_max=2)
        arr = CrossbarArray.build(1, 1, bank, np.random.default_rng(0),
                                  EnergyLedger(LARGE_ARRAY), 5e4, 0)
        plan = plan_at(arr, {(0, 0): PLUS})
        arr.apply_update_plan(plan, SKIP)
        arr.apply_update_plan(plan, SKIP)
        result = arr.apply_update_plan(plan, policy=OnExhaustion.REINIT,
                                       rng=np.random.default_rng(1))
        assert result.reinits == 1
        assert arr.cursors[0, 0, PLUS] == 1

    def test_pulse_conservation(self):
        # total applied pulses across results equals the device counters
        arr = make_array(n_in=3, n_out=3, seed=9)
        rng = np.random.default_rng(10)
        applied = 0
        for _ in range(20):
            actions = {}
            for i in range(3):
                for j in range(3):
                    if rng.random() < 0.4:
                        actions[(i, j)] = PLUS if rng.random() < 0.5 else MINUS
            applied += arr.apply_update_plan(plan_at(arr, actions), SKIP).applied
        assert applied == int(arr.pulse_counts.sum())

    def test_out_of_bounds_action(self):
        arr = make_array()
        mask = np.zeros((arr.n_out + 1, arr.n_in), dtype=bool)
        mask[arr.n_out, 0] = True
        with pytest.raises(ValueError):
            arr.apply_update_plan((mask, np.zeros(mask.shape, dtype=np.int8)), SKIP)
        mask, side = plan_at(arr, {(0, 0): PLUS})
        side[0, 0] = 2
        with pytest.raises(ValueError):
            arr.apply_update_plan((mask, side), SKIP)

    def test_monotone_bank_weight_monotonicity(self):
        arr = make_array(n_in=2, n_out=2, seed=11)
        for side, sense in ((MINUS, 1), (PLUS, -1)):
            for _ in range(10):
                w0 = arr.map_weights()[0, 0]
                arr.apply_update_plan(plan_at(arr, {(0, 0): side}), SKIP)
                assert sense * (arr.map_weights()[0, 0] - w0) >= 0

    def test_pulse_events_logged_with_pre_conductance(self):
        ledger = RecordingLedger()
        arr = make_array(ledger=ledger)
        g_before = arr.conductances()[0][0, 0]
        arr.apply_update_plan(plan_at(arr, {(0, 0): PLUS}), SKIP)
        assert ledger.g_pre == [g_before]

    def test_endurance_failure_is_atomic(self):
        # (1, 1) reaches the budget; a plan that also reinitializes and
        # pulses (0, 0) must raise before touching any state, ledger or rng
        tech = dataclasses.replace(LARGE_ARRAY, endurance_budget=3)
        ledger = RecordingLedger(tech)
        arr = CrossbarArray.build(2, 2, make_bank(p_max=2), np.random.default_rng(0),
                                  ledger, 5e4, 0)
        rng = np.random.default_rng(5)
        for _ in range(2):
            arr.apply_update_plan(plan_at(arr, {(0, 0): PLUS, (1, 1): PLUS}), SKIP)
        arr.apply_update_plan(plan_at(arr, {(1, 1): PLUS}), OnExhaustion.REINIT, rng)
        state = [a.copy() for a in (arr.traj_ids, arr.cursors, arr.pulse_counts,
                                    *arr.conductances())]
        events, pulses = list(ledger.g_pre), ledger.pulse_count
        reinits, rng_state = ledger.reinit_count, copy.deepcopy(rng.bit_generator.state)
        with pytest.raises(EnduranceExceeded,
                           match=r"device \(1, 1, side 0\) at 3 lifetime pulses \(budget 3\)"):
            arr.apply_update_plan(plan_at(arr, {(0, 0): PLUS, (1, 1): PLUS}),
                                  OnExhaustion.REINIT, rng)
        after = (arr.traj_ids, arr.cursors, arr.pulse_counts, *arr.conductances())
        assert all(np.array_equal(a, b) for a, b in zip(state, after))
        assert ledger.g_pre == events and ledger.pulse_count == pulses
        assert ledger.reinit_count == reinits == 1
        assert rng.bit_generator.state == rng_state


    def test_endurance_error_names_device(self):
        # a non-square array and side 1: the flat position decodes to (i, j, side)
        tech = dataclasses.replace(LARGE_ARRAY, endurance_budget=1)
        arr = CrossbarArray.build(5, 3, make_bank(), np.random.default_rng(0),
                                  EnergyLedger(tech), 5e4, 50)
        arr.apply_update_plan(plan_at(arr, {(2, 4): MINUS}), SKIP)
        with pytest.raises(EnduranceExceeded,
                           match=r"device \(2, 4, side 1\) at 1 lifetime pulses \(budget 1\)"):
            arr.apply_update_plan(plan_at(arr, {(0, 1): PLUS, (2, 4): MINUS}), SKIP)


def scalar_build(n_in, n_out, bank, rng, pre_pulse_max):
    """The reference grid: one DeviceState per device, drawn device by device."""
    grid = np.empty((n_out, n_in, 2), dtype=object)
    for idx in np.ndindex(grid.shape):
        traj = bank[int(rng.integers(0, len(bank)))]
        pix = int(rng.integers(0, pre_pulse_max + 1)) if pre_pulse_max else 0
        grid[idx] = DeviceState(traj, pulse_index=min(pix, len(traj) - 1))
    return grid


class TestReadCache:
    """Reads between pulses come from a cache that each pulse step drops."""

    @staticmethod
    def fresh_weights(arr):
        g_plus, g_minus = arr.conductances()
        return arr.scale_s * (g_plus - g_minus)

    def test_reads_follow_pulses(self):
        arr = make_array(n_in=5, n_out=4, seed=2)
        x = np.random.default_rng(3).normal(0, 1, (3, 5))
        plans = np.random.default_rng(4)
        for _ in range(6):
            w = self.fresh_weights(arr)
            assert np.array_equal(arr.map_weights(), w)
            assert np.array_equal(arr.read(x), x @ w.T)
            arr.apply_update_plan((plans.random((4, 5)) < 0.6,
                                   plans.integers(0, 2, (4, 5))), SKIP)
        assert np.array_equal(arr.map_weights(), self.fresh_weights(arr))

    def test_weights_are_read_only(self):
        arr = make_array()
        w = arr.map_weights()
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            arr.map_weights()[...] = 0.0
        assert arr.map_weights() is w

    def test_read_sums_match_uncached_formula(self):
        # repeated reads between pulses log what the formula gives on the
        # current conductances, read after read
        ledger = EnergyLedger(LARGE_ARRAY)
        arr = make_array(n_in=6, n_out=3, seed=6, ledger=ledger)
        gen = np.random.default_rng(7)
        expected = RunningSum()
        for _ in range(5):
            for _ in range(3):
                x = gen.normal(0, 1, (4, 6))
                arr.read(x)
                g_plus, g_minus = arr.conductances()
                expected.add(float((g_plus + g_minus).sum(axis=0) @ (x ** 2).sum(axis=0)))
            arr.apply_update_plan((gen.random((3, 6)) < 0.5, gen.integers(0, 2, (3, 6))), SKIP)
        assert ledger.reads.total.hex() == expected.total.hex()
        assert ledger.read_count == expected.count == 15


@st.composite
def step_cases(draw):
    """A small array on a ragged bank, a policy, a budget and a run of plans."""
    n_out, n_in = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    conductance = st.one_of(st.floats(20e-6, 200e-6), st.just(0.0), st.floats(0.0, 1e-3))
    rows = draw(st.lists(st.lists(conductance, min_size=2, max_size=8),
                         min_size=1, max_size=6))
    cells = n_out * n_in
    plans = draw(st.lists(st.tuples(
        st.lists(st.booleans(), min_size=cells, max_size=cells),
        st.lists(st.integers(0, 1), min_size=cells, max_size=cells)), max_size=12))
    return (n_out, n_in, rows, draw(st.integers(0, 8)), draw(st.integers(1, 12)),
            draw(st.sampled_from([OnExhaustion.SKIP, OnExhaustion.REINIT])),
            [(np.reshape(m, (n_out, n_in)), np.reshape(s, (n_out, n_in)).astype(np.int8))
             for m, s in plans])


class TestScalarReferenceModel:
    """The array step against per-device DeviceState replay."""

    @pytest.mark.parametrize("policy", [OnExhaustion.SKIP, OnExhaustion.REINIT],
                             ids=["SKIP", "REINIT"])
    def test_matches_scalar_reference_model(self, policy):
        bank = generate_trajectory_bank(SyntheticTrajectoryParams(p_max=4), 16, seed=3)
        ledger = RecordingLedger()
        arr = CrossbarArray.build(4, 3, bank, np.random.default_rng(0), ledger, 5e4, 2)
        grid = scalar_build(4, 3, bank, np.random.default_rng(0), pre_pulse_max=2)
        ref_g_pre = []
        rng_array, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
        plans = np.random.default_rng(8)
        exhausted = 0
        for _ in range(50):
            mask = plans.random((3, 4)) < 0.5
            side = plans.integers(0, 2, (3, 4))
            result = arr.apply_update_plan((mask, side), policy, rng_array)
            exhausted += result.skipped + result.reinits
            for i, j in zip(*np.nonzero(mask)):
                dev = grid[i, j, side[i, j]]
                if dev.exhausted:
                    if policy is OnExhaustion.SKIP:
                        continue
                    reinitialize(dev, bank, rng_ref)
                ref_g_pre.append(dev.conductance)
                apply_reset_pulse(dev, LARGE_ARRAY.endurance_budget)
        assert exhausted > 0
        def field(name):
            return np.vectorize(lambda dev: getattr(dev, name))(grid)

        assert np.array_equal(np.stack(arr.conductances(), axis=-1), field("conductance"))
        assert np.array_equal(arr.cursors, field("pulse_index"))
        assert np.array_equal(arr.pulse_counts, field("lifetime_pulses"))
        assert all(bank[t] is d.trajectory for t, d in zip(arr.traj_ids.flat, grid.flat))
        assert ledger.g_pre == ref_g_pre
        assert ledger.pulse_count == len(ref_g_pre)
        assert ledger.reinit_count == int(field("reinit_count").sum())

    @settings(max_examples=80)
    @given(case=step_cases())
    def test_any_plans_match_scalar_reference_model(self, case):
        n_out, n_in, rows, pre_pulse_max, budget, policy, plans = case
        bank = TrajectoryBank.from_rows(rows)
        tech = dataclasses.replace(LARGE_ARRAY, endurance_budget=budget)
        ledger = RecordingLedger(tech)
        arr = CrossbarArray.build(n_in, n_out, bank, np.random.default_rng(0), ledger,
                                  5e4, pre_pulse_max)
        grid = scalar_build(n_in, n_out, bank, np.random.default_rng(0), pre_pulse_max)
        rng_array, rng_ref = np.random.default_rng(1), np.random.default_rng(1)
        ref_g_pre, ref_total = [], RunningSum()
        for mask, side in plans:
            devices = [grid[i, j, side[i, j]] for i, j in zip(*np.nonzero(mask))]
            pulsed = [dev for dev in devices
                      if not (dev.exhausted and policy is OnExhaustion.SKIP)]
            if any(dev.lifetime_pulses >= budget for dev in pulsed):
                # the scalar model would refuse mid-plan; the array refuses
                # the whole plan before touching anything
                state = [a.copy() for a in (arr.traj_ids, arr.cursors,
                                            arr.pulse_counts, arr._g)]
                total = ledger.pulses.total
                rng_state = copy.deepcopy(rng_array.bit_generator.state)
                with pytest.raises(EnduranceExceeded):
                    arr.apply_update_plan((mask, side), policy, rng_array)
                after = (arr.traj_ids, arr.cursors, arr.pulse_counts, arr._g)
                assert all(np.array_equal(a, b) for a, b in zip(state, after))
                assert ledger.pulses.total == total
                assert ledger.g_pre == ref_g_pre
                assert rng_array.bit_generator.state == rng_state
                break
            step_g_pre, reinits = [], 0
            for dev in pulsed:
                if dev.exhausted:
                    reinitialize(dev, bank, rng_ref)
                    reinits += 1
                step_g_pre.append(dev.conductance)
                apply_reset_pulse(dev, budget)
            result = arr.apply_update_plan((mask, side), policy, rng_array)
            assert result == PulseResult(applied=len(pulsed), reinits=reinits,
                                         skipped=len(devices) - len(pulsed))
            ref_g_pre += step_g_pre
            if step_g_pre:
                ref_total.add(math.fsum(step_g_pre), len(step_g_pre))

        def field(name):
            return np.vectorize(lambda dev: getattr(dev, name))(grid)

        assert np.array_equal(np.stack(arr.conductances(), axis=-1), field("conductance"))
        assert np.array_equal(arr.cursors, field("pulse_index"))
        assert np.array_equal(arr.pulse_counts, field("lifetime_pulses"))
        assert all(bank[t] is d.trajectory for t, d in zip(arr.traj_ids.flat, grid.flat))
        assert ledger.g_pre == ref_g_pre
        assert ledger.reinit_count == int(field("reinit_count").sum())
        assert ledger.pulses.total.hex() == ref_total.total.hex()
        assert ledger.pulse_count == len(ref_g_pre)

    def test_batched_reinit_draws_match_scalar_draws(self):
        # REINIT (and endurance cycling) draws k trajectories at once; the
        # stream must equal k scalar draws in order, as the reference model makes
        for n, k in ((16, 1), (1268, 7), (5, 40), (7, 400), (80, 400),
                     (1268, 400), (1_000_003, 400)):
            batched, scalar = np.random.default_rng(11), np.random.default_rng(11)
            assert (batched.integers(0, n, size=k).tolist()
                    == [int(scalar.integers(0, n)) for _ in range(k)])
            assert batched.random() == scalar.random()


class TestBuildStream:
    """``build`` draws in one call; ids, cursors and the rng state after it
    equal the scalar device-by-device loop."""

    @staticmethod
    def assert_matches_scalar(n_in, n_out, bank, pre_pulse_max, seeds=range(5)):
        row_id = {id(bank[k]): k for k in range(len(bank))}
        for seed in seeds:
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            arr = CrossbarArray.build(n_in, n_out, bank, rng, EnergyLedger(LARGE_ARRAY),
                                      5e4, pre_pulse_max)
            grid = scalar_build(n_in, n_out, bank, rng_ref, pre_pulse_max)
            ref_ids = np.vectorize(lambda dev: row_id[id(dev.trajectory)])(grid)
            ref_cursors = np.vectorize(lambda dev: dev.pulse_index)(grid)
            assert np.array_equal(arr.traj_ids, ref_ids)
            assert np.array_equal(arr.cursors, ref_cursors)
            assert rng.bit_generator.state == rng_ref.bit_generator.state
        return arr

    @pytest.mark.parametrize("pre_pulse_max", [0, 50])
    @pytest.mark.parametrize("n_in, n_out", [(4, 3), (1, 1), (7, 2), (2, 9), (48, 40)])
    def test_matches_scalar_build(self, n_in, n_out, pre_pulse_max):
        self.assert_matches_scalar(n_in, n_out, make_bank(count=1268), pre_pulse_max)

    @pytest.mark.parametrize("pre_pulse_max", [0, 50])
    def test_single_trajectory_bank(self, pre_pulse_max):
        arr = self.assert_matches_scalar(5, 3, make_bank(count=1), pre_pulse_max)
        assert not arr.traj_ids.any()

    def test_ragged_bank_clamps_pre_pulses(self):
        gen = np.random.default_rng(4)
        rows = [np.linspace(100e-6, 60e-6, gen.choice([2, 3, 80])) for _ in range(12)]
        bank = TrajectoryBank.from_rows(rows)
        arr = self.assert_matches_scalar(6, 4, bank, pre_pulse_max=50)
        short = bank.lengths[arr.traj_ids] == 2
        assert short.any() and np.all(arr.cursors[short] <= 1)
        assert np.any(arr.cursors[short] == 1)


def pickle_round_trip(arr):
    return pickle.loads(pickle.dumps(arr))


class TestCopies:
    @pytest.mark.parametrize("clone", [copy.deepcopy, pickle_round_trip],
                             ids=["deepcopy", "pickle"])
    def test_copy_reads_its_own_pulses(self, clone):
        arr = make_array(n_in=4, n_out=3, seed=5, ledger=EnergyLedger(LARGE_ARRAY))
        g_plus0, g_minus0 = arr.conductances()
        w0 = arr.map_weights()      # warms the original's read cache (W and g_cols)
        twin = clone(arr)
        assert not twin.map_weights().flags.writeable
        mask = np.ones((3, 4), dtype=bool)
        assert twin.apply_update_plan((mask, np.zeros((3, 4), np.int8)), SKIP).applied == 12
        assert np.array_equal(twin.cursors[..., 0], arr.cursors[..., 0] + 1)
        g_plus, g_minus = twin.conductances()
        expected = twin.bank.conductances[twin.traj_ids[..., 0], twin.cursors[..., 0]]
        assert np.array_equal(g_plus, expected)
        assert not np.array_equal(g_plus, g_plus0)
        assert np.array_equal(g_minus, g_minus0)
        weights = twin.scale_s * (g_plus - g_minus)
        assert np.array_equal(twin.map_weights(), weights)
        x = np.random.default_rng(1).normal(0, 1, (2, 4))
        assert np.array_equal(twin.read(x), x @ weights.T)
        g_sum = (g_plus + g_minus).sum(axis=0) @ (x ** 2).sum(axis=0)
        assert twin.ledger.reads.total == pytest.approx(g_sum, rel=1e-15)
        # the original keeps its own state and its cache
        assert np.array_equal(arr.conductances()[0], g_plus0)
        assert arr.map_weights() is w0


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        arr = make_array(n_in=5, n_out=4, seed=12)
        path = tmp_path / "snap.csv"
        save_snapshot_csv(arr, path)
        snap = load_snapshot_csv(path)
        g_plus, g_minus = arr.conductances()
        assert np.allclose(snap["g_plus"], g_plus, rtol=1e-8)
        assert np.allclose(snap["g_minus"], g_minus, rtol=1e-8)
        assert snap["pulse_index_plus"].shape == (4, 5)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            load_snapshot_csv(path)

    @pytest.fixture()
    def snapshot_lines(self, tmp_path):
        path = tmp_path / "snap.csv"
        save_snapshot_csv(make_array(n_in=3, n_out=2, seed=4), path)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize("field", [2, 3])
    @pytest.mark.parametrize("value", ["-1.5", "nan", "inf", "-inf"])
    def test_negative_conductance(self, snapshot_lines, field, value):
        path, lines = snapshot_lines
        cells = lines[5].split(",")
        cells[field] = value
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError,
                           match="snap.csv:6: conductance must be finite and non-negative"):
            load_snapshot_csv(path)

    def test_stray_row_is_found_without_building_its_grid(self, snapshot_lines):
        # row 100000 spans a 100001 x 2 grid; only the first gap is looked for
        path, lines = snapshot_lines
        lines[2] = "100000" + lines[2][1:]
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=r"no line for cell \(row 1, col 0\) "
                                                 r"of the 100001 x 2 grid"):
                load_snapshot_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_negative_index(self, snapshot_lines):
        path, lines = snapshot_lines
        lines[2] = "-1" + lines[2][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="snap.csv:3: negative row or col"):
            load_snapshot_csv(path)


def nine_digits(values):
    """What a CSV file keeps of conductances: 9 significant digits in uS."""
    return [float(f"{g * 1e6:.9g}") * 1e-6 for g in values]


# ragged rows of finite non-negative conductances, with zeros and values
# below 1e-12 S
ragged_rows = st.lists(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e-12),
                                          st.floats(0.0, 1e-3)), min_size=2, max_size=8),
                       min_size=1, max_size=6)


class TestCsvRoundTrip:
    @settings(max_examples=100)
    @given(rows=ragged_rows)
    def test_any_bank(self, tmp_path_factory, rows):
        bank = TrajectoryBank.from_rows(rows)
        path = tmp_path_factory.mktemp("bank") / "bank.csv"
        save_bank_csv(bank, path)
        loaded = load_bank_csv(path)
        assert loaded.lengths.tolist() == bank.lengths.tolist()
        assert [traj.conductances.tolist() for traj in loaded] == \
            [nine_digits(row) for row in rows]

    @settings(max_examples=100)
    @given(rows=ragged_rows, n_out=st.integers(1, 5), n_in=st.integers(1, 5),
           pre_pulse_max=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_any_snapshot(self, tmp_path_factory, rows, n_out, n_in, pre_pulse_max, seed):
        arr = CrossbarArray.build(n_in, n_out, TrajectoryBank.from_rows(rows),
                                  np.random.default_rng(seed), EnergyLedger(LARGE_ARRAY),
                                  5e4, pre_pulse_max)
        path = tmp_path_factory.mktemp("snapshot") / "snap.csv"
        save_snapshot_csv(arr, path)
        snap = load_snapshot_csv(path)
        for side, (name, g) in enumerate(zip(("plus", "minus"), arr.conductances())):
            assert snap[f"g_{name}"].tolist() == [nine_digits(row) for row in g.tolist()]
            assert snap[f"pulse_index_{name}"].tolist() == arr.cursors[..., side].tolist()
