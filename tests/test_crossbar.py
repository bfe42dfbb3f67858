"""Crossbar semantics: mapping, MAC, update plans."""

import copy
import dataclasses

import numpy as np
import pytest

from memgrad.crossbar import (CrossbarArray, OnExhaustion, PulseResult,
                              load_snapshot_csv, save_snapshot_csv)
from memgrad.device import (DeviceState, EnduranceExceeded, LARGE_ARRAY,
                            SyntheticTrajectoryParams, TrajectoryBank,
                            apply_reset_pulse, generate_trajectory_bank,
                            reinitialize)
from memgrad.energy import EnergyLedger

PLUS, MINUS = 0, 1    # plan sides: the device of the pair that is pulsed


class RecordingLedger(EnergyLedger):
    """A ledger that also keeps every pre-pulse conductance, in order.

    The ledger itself keeps only totals; ordered checks of what an array
    step records go through this list.
    """

    def __init__(self):
        super().__init__()
        self.g_pre: dict[str, list[float]] = {}

    def record_pulses(self, g_pre, tech_name):
        super().record_pulses(g_pre, tech_name)
        g_pre = np.asarray(g_pre, dtype=float)
        if g_pre.size:
            self.g_pre.setdefault(tech_name, []).extend(g_pre.tolist())


def make_bank(p_max=200, count=64, seed=0, **kw):
    return generate_trajectory_bank(
        SyntheticTrajectoryParams(p_max=p_max, anomalous_probability=0.0, **kw),
        count, seed)


def make_array(n_in=4, n_out=3, seed=0, pre_pulse_max=10, **kw):
    bank = make_bank()
    rng = np.random.default_rng(seed)
    return CrossbarArray.build(n_in, n_out, bank, rng, LARGE_ARRAY,
                               pre_pulse_max=pre_pulse_max, **kw)


def array_from_us(g_plus, g_minus, n_out=1, n_in=1):
    """Every pair at (g_plus, g_minus) uS, on two-sample trajectories."""
    bank = TrajectoryBank.from_rows([np.array([g_plus, g_plus * 0.9]) * 1e-6,
                                     np.array([g_minus, g_minus * 0.9]) * 1e-6],
                                    ["plus", "minus"])
    ids = np.broadcast_to([0, 1], (n_out, n_in, 2))
    return CrossbarArray(bank, ids, np.zeros_like(ids), LARGE_ARRAY, gain_kappa=5e4)


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
        arr.apply_update_plan(plan_at(arr, {(1, 2): MINUS}))
        assert arr.map_weights()[1, 2] >= w0

    def test_differential_antisymmetry(self):
        arr = make_array(seed=3)
        swapped = CrossbarArray(arr.bank, arr.traj_ids[..., ::-1],
                                arr.cursors[..., ::-1], LARGE_ARRAY,
                                gain_kappa=arr.gain_kappa)
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
        ledger = EnergyLedger()
        arr = make_array(ledger=ledger)
        read_one(arr, np.ones(arr.n_in))
        assert ledger.read_count == 1
        assert ledger.mac_count == arr.n_in * arr.n_out

    def test_batch_read(self):
        # a batch is one read event: the rows match single reads, MACs add
        # up, and the logged sum is sum_n sum_ij (G+_ij + G-_ij) x_nj^2
        ledger = EnergyLedger()
        arr = make_array(n_in=6, n_out=4, seed=7, ledger=ledger)
        x = np.random.default_rng(8).normal(0, 1, (5, 6))
        y = arr.read(x)
        assert ledger.read_count == 1 and ledger.mac_count == 5 * 6 * 4
        for n in range(5):
            assert np.allclose(y[n], arr.map_weights() @ x[n], rtol=1e-12, atol=1e-15)
        g_plus, g_minus = arr.conductances()
        expected = sum(float(((g_plus + g_minus) @ x[n] ** 2).sum()) for n in range(5))
        (got,) = [s.total for s in ledger.read_sums.values()]
        assert got == pytest.approx(expected, rel=1e-12)


class TestUpdatePlan:
    def test_duplicate_action_rejected(self):
        # a plan holds at most one pulse per weight: a count mask is refused
        arr = make_array()
        mask, side = plan_at(arr, {(0, 0): PLUS})
        with pytest.raises(ValueError):
            arr.apply_update_plan((mask.astype(int) * 2, side))
        assert int(arr.pulse_counts.sum()) == 0

    def test_empty_plan_is_noop(self):
        arr = make_array()
        before = arr.map_weights()
        result = arr.apply_update_plan(plan_at(arr, {}))
        assert result == PulseResult(applied=0, skipped=0, reinits=0)
        assert np.array_equal(arr.map_weights(), before)

    def test_pulse_follows_trajectory(self):
        # a fresh monotone device must step exactly to trajectory[1]
        bank = make_bank()
        arr = CrossbarArray.build(2, 2, bank, np.random.default_rng(0),
                                  LARGE_ARRAY, pre_pulse_max=0)
        expected = bank[arr.traj_ids[1, 0, MINUS]].conductances[1]
        result = arr.apply_update_plan(plan_at(arr, {(1, 0): MINUS}))
        assert result.applied == 1
        assert arr.conductances()[1][1, 0] == expected
        assert arr.cursors[1, 0, MINUS] == 1

    def test_pre_pulse_conductance_recorded(self):
        ledger = RecordingLedger()
        arr = make_array(ledger=ledger)
        g_before = arr.conductances()[0][0, 1]
        arr.apply_update_plan(plan_at(arr, {(0, 1): PLUS}))
        assert ledger.g_pre[LARGE_ARRAY.name] == [g_before]
        assert arr.conductances()[0][0, 1] != g_before

    def test_skip_policy_on_exhausted(self):
        bank = make_bank(p_max=2)
        arr = CrossbarArray.build(1, 1, bank, np.random.default_rng(0),
                                  LARGE_ARRAY, pre_pulse_max=0)
        plan = plan_at(arr, {(0, 0): PLUS})
        arr.apply_update_plan(plan)  # second pulse would run off the end
        arr.apply_update_plan(plan)
        result = arr.apply_update_plan(plan)
        assert result.skipped == 1 and result.applied == 0
        assert arr.cursors[0, 0, PLUS] == 2

    def test_reinit_policy_on_exhausted(self):
        bank = make_bank(p_max=2)
        arr = CrossbarArray.build(1, 1, bank, np.random.default_rng(0),
                                  LARGE_ARRAY, pre_pulse_max=0)
        plan = plan_at(arr, {(0, 0): PLUS})
        arr.apply_update_plan(plan)
        arr.apply_update_plan(plan)
        result = arr.apply_update_plan(plan, policy=OnExhaustion.REINIT,
                                       rng=np.random.default_rng(1))
        assert result.reinits == 1
        assert arr.reinit_counts[0, 0, PLUS] == 1
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
            applied += arr.apply_update_plan(plan_at(arr, actions)).applied
        assert applied == int(arr.pulse_counts.sum())

    def test_out_of_bounds_action(self):
        arr = make_array()
        mask = np.zeros((arr.n_out + 1, arr.n_in), dtype=bool)
        mask[arr.n_out, 0] = True
        with pytest.raises(ValueError):
            arr.apply_update_plan((mask, np.zeros(mask.shape, dtype=np.int8)))
        mask, side = plan_at(arr, {(0, 0): PLUS})
        side[0, 0] = 2
        with pytest.raises(ValueError):
            arr.apply_update_plan((mask, side))

    def test_monotone_bank_weight_monotonicity(self):
        arr = make_array(n_in=2, n_out=2, seed=11)
        for side, sense in ((MINUS, 1), (PLUS, -1)):
            for _ in range(10):
                w0 = arr.map_weights()[0, 0]
                arr.apply_update_plan(plan_at(arr, {(0, 0): side}))
                assert sense * (arr.map_weights()[0, 0] - w0) >= 0

    def test_pulse_events_logged_with_pre_conductance(self):
        ledger = RecordingLedger()
        arr = make_array(ledger=ledger)
        g_before = arr.conductances()[0][0, 0]
        arr.apply_update_plan(plan_at(arr, {(0, 0): PLUS}))
        assert ledger.g_pre[LARGE_ARRAY.name] == [g_before]

    def test_endurance_failure_is_atomic(self):
        # (1, 1) reaches the budget; a plan that also reinitializes and
        # pulses (0, 0) must raise before touching any state, ledger or rng
        tech = dataclasses.replace(LARGE_ARRAY, endurance_budget=3)
        ledger = RecordingLedger()
        arr = CrossbarArray.build(2, 2, make_bank(p_max=2), np.random.default_rng(0),
                                  tech, pre_pulse_max=0, ledger=ledger)
        rng = np.random.default_rng(5)
        for _ in range(2):
            arr.apply_update_plan(plan_at(arr, {(0, 0): PLUS, (1, 1): PLUS}))
        arr.apply_update_plan(plan_at(arr, {(1, 1): PLUS}), OnExhaustion.REINIT, rng)
        state = [a.copy() for a in (arr.traj_ids, arr.cursors, arr.reinit_counts,
                                    arr.pulse_counts, *arr.conductances())]
        events, pulses = copy.deepcopy(ledger.g_pre), ledger.pulse_count
        reinits, rng_state = ledger.reinit_count, copy.deepcopy(rng.bit_generator.state)
        with pytest.raises(EnduranceExceeded,
                           match=r"device \(1, 1, side 0\) at 3 lifetime pulses \(budget 3\)"):
            arr.apply_update_plan(plan_at(arr, {(0, 0): PLUS, (1, 1): PLUS}),
                                  OnExhaustion.REINIT, rng)
        after = (arr.traj_ids, arr.cursors, arr.reinit_counts, arr.pulse_counts,
                 *arr.conductances())
        assert all(np.array_equal(a, b) for a, b in zip(state, after))
        assert ledger.g_pre == events and ledger.pulse_count == pulses
        assert ledger.reinit_count == reinits == 1
        assert rng.bit_generator.state == rng_state


    def test_endurance_error_names_device(self):
        # a non-square array and side 1: the flat position decodes to (i, j, side)
        tech = dataclasses.replace(LARGE_ARRAY, endurance_budget=1)
        arr = CrossbarArray.build(5, 3, make_bank(), np.random.default_rng(0), tech)
        arr.apply_update_plan(plan_at(arr, {(2, 4): MINUS}))
        with pytest.raises(EnduranceExceeded,
                           match=r"device \(2, 4, side 1\) at 1 lifetime pulses \(budget 1\)"):
            arr.apply_update_plan(plan_at(arr, {(0, 1): PLUS, (2, 4): MINUS}))


def scalar_build(n_in, n_out, bank, rng, pre_pulse_max):
    """The reference grid: one DeviceState per device, drawn device by device."""
    grid = np.empty((n_out, n_in, 2), dtype=object)
    for idx in np.ndindex(grid.shape):
        traj = bank[int(rng.integers(0, len(bank)))]
        pix = int(rng.integers(0, pre_pulse_max + 1)) if pre_pulse_max else 0
        grid[idx] = DeviceState(traj, pulse_index=min(pix, len(traj) - 1))
    return grid


class TestScalarReferenceModel:
    """The array step against per-device DeviceState replay."""

    @pytest.mark.parametrize("policy", [OnExhaustion.SKIP, OnExhaustion.REINIT],
                             ids=["SKIP", "REINIT"])
    def test_matches_scalar_reference_model(self, policy):
        bank = generate_trajectory_bank(SyntheticTrajectoryParams(p_max=4), 16, seed=3)
        ledger = RecordingLedger()
        arr = CrossbarArray.build(4, 3, bank, np.random.default_rng(0), LARGE_ARRAY,
                                  pre_pulse_max=2, ledger=ledger)
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
        assert np.array_equal(arr.reinit_counts, field("reinit_count"))
        assert all(bank[t] is d.trajectory for t, d in zip(arr.traj_ids.flat, grid.flat))
        assert ledger.g_pre[LARGE_ARRAY.name] == ref_g_pre
        assert ledger.pulse_count == len(ref_g_pre)
        assert ledger.reinit_count == int(arr.reinit_counts.sum())

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
            arr = CrossbarArray.build(n_in, n_out, bank, rng, LARGE_ARRAY,
                                      pre_pulse_max=pre_pulse_max)
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
        bank = TrajectoryBank.from_rows(rows, ["measured"] * len(rows))
        arr = self.assert_matches_scalar(6, 4, bank, pre_pulse_max=50)
        short = bank.lengths[arr.traj_ids] == 2
        assert short.any() and np.all(arr.cursors[short] <= 1)
        assert np.any(arr.cursors[short] == 1)


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
