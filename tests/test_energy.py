"""Energy ledger arithmetic and cross-technology re-costing."""

import contextlib
import dataclasses
import io
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memgrad import cli, energy
from memgrad.device import LARGE_ARRAY, MAC_ARRAY, TECH_PROFILES
from memgrad.energy import (DEFAULT_TOPS_PER_WATT, EnergyLedger,
                            PV_UPDATE_ENERGY_J, RunningSum,
                            mac_energy_projection, programming_energy,
                            pv_baseline_energy, read_energy)


class TestProgrammingEnergy:
    def test_empty_ledger(self):
        ledger = EnergyLedger(LARGE_ARRAY)
        ledger.record_pulses([])
        assert ledger.pulse_count == 0
        assert programming_energy(ledger, LARGE_ARRAY) == 0.0

    def test_single_event(self):
        ledger = EnergyLedger(LARGE_ARRAY)
        ledger.record_pulses([50e-6])
        assert programming_energy(ledger, LARGE_ARRAY) == pytest.approx(24.3e-12)

    def test_recosting_ratio_is_parameter_forced(self):
        # same event list under both techs: ratio = (0.9^2*600)/(0.62^2*30)
        rng = np.random.default_rng(0)
        ledger = EnergyLedger(LARGE_ARRAY)
        ledger.record_pulses(rng.uniform(20e-6, 90e-6, 500))
        ratio = (programming_energy(ledger, LARGE_ARRAY)
                 / programming_energy(ledger, MAC_ARRAY))
        expected = (0.9 ** 2 * 600e-9) / (0.62 ** 2 * 30e-9)
        assert ratio == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(42.1, abs=0.1)

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(1)
        a, b, merged = (EnergyLedger(MAC_ARRAY) for _ in range(3))
        for ledger, n in ((a, 100), (b, 70)):
            g = rng.uniform(1e-6, 100e-6, n)
            ledger.record_pulses(g)
            merged.record_pulses(g)
        assert programming_energy(merged, LARGE_ARRAY) == pytest.approx(
            programming_energy(a, LARGE_ARRAY) + programming_energy(b, LARGE_ARRAY))

    def test_totals_match_recomputation(self):
        rng = np.random.default_rng(2)
        ledger = EnergyLedger(LARGE_ARRAY)
        values = rng.uniform(1e-6, 100e-6, 64)
        ledger.record_pulses(values)
        expected = float(np.sum(values)) * 0.9 ** 2 * 600e-9
        assert programming_energy(ledger, LARGE_ARRAY) == pytest.approx(expected,
                                                                        rel=1e-12)


class TestReadEnergy:
    def test_stored_conditions(self):
        # reads are priced at the read conditions of the ledger's tech
        for tech, v, t in ((LARGE_ARRAY, 0.2, 15e-6),
                           (dataclasses.replace(MAC_ARRAY, v_read=0.1, t_read=1e-6),
                            0.1, 1e-6)):
            ledger = EnergyLedger(tech)
            ledger.record_read(100e-6)
            ledger.record_read(50e-6)
            assert ledger.read_count == 2
            assert read_energy(ledger) == pytest.approx(150e-6 * v ** 2 * t)


class TestPvBaseline:
    def test_zero_updates(self):
        assert pv_baseline_energy(0) == 0.0

    def test_ratio_vs_optimized_pulse(self):
        # 387 pJ per update against the ~0.84 pJ optimized pulse: about 460x
        ratio = PV_UPDATE_ENERGY_J / 0.84e-12
        assert ratio == pytest.approx(460.7, abs=0.5)

    def test_bulk_product(self):
        assert pv_baseline_energy(10 ** 6) == pytest.approx(387e-6)


class TestMacProjection:
    def test_zero(self):
        assert mac_energy_projection(0) == 0.0

    def test_arithmetic(self):
        # 1e12 MACs = 2e12 ops at 57.5e12 ops/W -> 0.0348 J
        assert mac_energy_projection(10 ** 12) == pytest.approx(2e12 / 57.5e12,
                                                                rel=1e-12)
        assert mac_energy_projection(10 ** 12) == pytest.approx(0.0348, abs=1e-4)

    def test_default_efficiency(self):
        assert DEFAULT_TOPS_PER_WATT == 57.5e12

    def test_invalid(self):
        with pytest.raises(ValueError):
            mac_energy_projection(-1)


class TestLedgerPersistence:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        ledger = EnergyLedger(MAC_ARRAY)
        ledger.record_pulses(rng.uniform(1e-6, 100e-6, 50))
        ledger.record_read(220e-6)
        ledger.record_macs(1234)
        ledger.record_reinit(1e-9)
        path = tmp_path / "ledger.json"
        ledger.save(path)
        back = EnergyLedger.load(path)
        assert back.tech is MAC_ARRAY
        assert back.pulse_count == 50
        assert back.mac_count == 1234
        assert back.reinit_count == 1
        assert programming_energy(back, LARGE_ARRAY) == pytest.approx(
            programming_energy(ledger, LARGE_ARRAY), rel=1e-5)

    def test_non_finite_total_is_not_written(self, tmp_path):
        ledger = EnergyLedger(LARGE_ARRAY)
        ledger.record_reinit(float("nan"))
        path = tmp_path / "ledger.json"
        with pytest.raises(ValueError, match="invalid at reinit_energy_j: nan"):
            ledger.save(path)
        assert not path.exists()

    def test_aggregate_layout_is_small_and_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        ledger = EnergyLedger(LARGE_ARRAY)
        for _ in range(400):
            ledger.record_pulses(rng.uniform(1e-6, 199e-6, 500))
            ledger.record_read(rng.uniform(1e-4, 1e-3))
        path = tmp_path / "ledger.json"
        ledger.save(path)
        assert path.stat().st_size < 4096
        back = EnergyLedger.load(path)
        assert back.pulse_count == ledger.pulse_count == 200_000
        assert back.read_count == ledger.read_count == 400
        assert back.pulses.total == ledger.pulses.total
        assert programming_energy(back, MAC_ARRAY) == programming_energy(ledger, MAC_ARRAY)
        assert read_energy(back) == read_energy(ledger)


class TestAggregates:
    def test_compensated_total_matches_fsum(self):
        # 10^6 values over nine decades, in uneven batches
        rng = np.random.default_rng(4)
        values = rng.uniform(1e-6, 100e-6, 10 ** 6) * 10.0 ** rng.integers(-4, 5, 10 ** 6)
        ledger = EnergyLedger(LARGE_ARRAY)
        for batch in np.split(values, np.sort(rng.integers(0, len(values), 2000))):
            ledger.record_pulses(batch)
        assert ledger.pulse_count == len(values)
        assert ledger.pulses.total == pytest.approx(math.fsum(values.tolist()),
                                                    rel=1e-12)

    def test_single_adds_keep_small_terms(self):
        # each 1e-16 is below half an ulp of 1.0: a plain running sum drops
        # all 10^5 of them (1e-11 relative), the compensated one keeps them
        single = RunningSum()
        stream = [1.0] + [1e-16] * 10 ** 5
        for v in stream:
            single.add(v)
        assert single.count == len(stream)
        assert single.total == pytest.approx(math.fsum(stream), rel=1e-15)
        assert sum(stream) != pytest.approx(math.fsum(stream), rel=1e-12)

    def test_reinits_recorded_in_one_call(self):
        ledger = EnergyLedger(LARGE_ARRAY)
        ledger.record_reinit(2e-12, count=3)
        ledger.record_reinit()
        assert ledger.reinit_count == 4
        assert ledger.reinit_energy_j == pytest.approx(6e-12)


def fsum_path(values: np.ndarray) -> RunningSum:
    """The batch sum that ``add_batch`` must equal: one ``math.fsum`` call."""
    sums = RunningSum()
    sums.add(math.fsum(values.tolist()), len(values))
    return sums


def in_limb_domain(values) -> bool:
    """The batches ``add_batch`` sums as limbs: fewer than 2^18 values, each
    0 or in [2^-28, 2^-12), not all 0."""
    return (0 < len(values) < 2 ** 18 and any(v != 0 for v in values)
            and all(v == 0 or 2 ** -28 <= v < 2 ** -12 for v in values))


LIMB_EDGES = [2.0 ** -28, math.nextafter(2.0 ** -12, 0.0)]
# each of these sends its batch to the fallback
OUT_OF_RANGE = st.one_of(
    st.floats(min_value=5e-324, max_value=2.0 ** -1022, exclude_max=True),  # subnormal
    st.sampled_from([1e-9, math.nextafter(2.0 ** -28, 0.0), 2.0 ** -12,
                     math.nan, math.inf]),
    st.floats(min_value=2.0 ** -12, max_value=1e3),
    st.floats(min_value=-1e3, max_value=-5e-324))
IN_RANGE = st.one_of(st.floats(min_value=2.0 ** -28, max_value=2.0 ** -12,
                               exclude_max=True),
                     st.sampled_from(LIMB_EDGES), st.just(0.0))
BATCHES = st.one_of(
    st.lists(IN_RANGE, max_size=80),
    st.lists(st.one_of(IN_RANGE, OUT_OF_RANGE), max_size=80),
    st.lists(st.just(0.0), max_size=5))


def spy_fsum(patch) -> list:
    """Route ``energy``'s ``math.fsum`` through a spy; returns its call log."""
    calls = []

    def fsum(values):
        calls.append(len(values))
        return math.fsum(values)

    patch.setattr(energy, "math", SimpleNamespace(fsum=fsum, ldexp=math.ldexp))
    return calls


class TestBatchSum:
    """``add_batch`` adds the correctly rounded sum of a batch, as ``math.fsum``
    does, summing exactly in integer limbs where the values allow it."""

    @settings(max_examples=200)
    @given(values=BATCHES)
    def test_equals_fsum(self, values):
        values = np.array(values, dtype=float)
        expected = fsum_path(values)
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_fsum(patch)
            got = RunningSum()
            got.add_batch(values)
        assert got.total.hex() == expected.total.hex()
        assert got.count == len(values)
        # only batches outside the limb domain take the fallback
        assert calls == ([] if in_limb_domain(values.tolist()) else [len(values)])

    @settings(max_examples=60)
    @given(batches=st.lists(BATCHES, max_size=12))
    def test_sequence_equals_per_batch_fsum(self, batches):
        got, expected = RunningSum(), RunningSum()
        for values in batches:
            values = np.array(values, dtype=float)
            got.add_batch(values)
            expected.add(math.fsum(values.tolist()), len(values))
        assert got.total.hex() == expected.total.hex()
        assert got.count == expected.count

    @pytest.mark.parametrize("count, limbs", [(2 ** 18 - 1, True), (2 ** 18, False)])
    def test_batch_size_bound(self, count, limbs):
        # the largest values a batch can hold: every partial sum of whole
        # units of 2^-45 stays exact in float64
        gen = np.random.default_rng(count)
        values = gen.uniform(2.0 ** -13, 2.0 ** -12, count)
        values[:2] = LIMB_EDGES
        expected = fsum_path(values)
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_fsum(patch)
            got = RunningSum()
            got.add_batch(values)
        assert got.total.hex() == expected.total.hex()
        assert calls == ([] if limbs else [count])

    def test_empty_batch(self):
        sums = RunningSum()
        sums.add_batch(np.zeros(0))
        assert sums.total.hex() == (0.0).hex() and sums.count == 0


# finite, non-negative values outside the limb domain, which a ledger can hold
LEDGER_OUT_OF_RANGE = st.one_of(
    st.floats(min_value=5e-324, max_value=2.0 ** -1022, exclude_max=True),  # subnormal
    st.sampled_from([1e-9, math.nextafter(2.0 ** -28, 0.0), 2.0 ** -12]),
    st.floats(min_value=2.0 ** -12, max_value=1e3))
LEDGER_EVENTS = st.lists(st.one_of(
    st.tuples(st.just("pulses"), st.one_of(
        st.lists(IN_RANGE, max_size=40),
        st.lists(st.one_of(IN_RANGE, LEDGER_OUT_OF_RANGE), max_size=40),
        st.just([]))),
    st.tuples(st.just("read"), st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("macs"), st.integers(0, 10 ** 12)),
    st.tuples(st.just("reinit"), st.tuples(st.floats(min_value=0.0, max_value=1e-6),
                                           st.integers(0, 5)))), max_size=10)


class TestLedgerRoundTrip:
    @settings(max_examples=40)
    @given(tech=st.sampled_from(sorted(TECH_PROFILES)), events=LEDGER_EVENTS)
    def test_load_after_save_keeps_totals_and_energy(self, tech, events):
        ledger = EnergyLedger(TECH_PROFILES[tech])
        record = {"pulses": lambda g: ledger.record_pulses(np.array(g, dtype=float)),
                  "read": ledger.record_read, "macs": ledger.record_macs,
                  "reinit": lambda args: ledger.record_reinit(*args)}
        for kind, value in events:
            record[kind](value)
        with tempfile.TemporaryDirectory() as tmp:
            saved, direct = Path(tmp, "saved"), Path(tmp, "direct")
            for run_dir in (saved, direct):
                run_dir.mkdir()
                ledger.save(run_dir / "ledger.json")
            back = EnergyLedger.load(saved / "ledger.json")
            assert back.tech is ledger.tech
            assert back.pulses.total.hex() == ledger.pulses.total.hex()
            assert back.reads.total.hex() == ledger.reads.total.hex()
            counts = ("pulse_count", "read_count", "mac_count", "reinit_count")
            assert [getattr(back, name) for name in counts] == [
                getattr(ledger, name) for name in counts]
            assert back.reinit_energy_j.hex() == ledger.reinit_energy_j.hex()
            # memgrad energy prices the saved file, and then the ledger itself
            with pytest.MonkeyPatch.context() as patch, \
                    contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["energy", "--run", str(saved)]) == cli.EXIT_OK
                patch.setattr(cli, "EnergyLedger", SimpleNamespace(load=lambda _: ledger))
                assert cli.main(["energy", "--run", str(direct)]) == cli.EXIT_OK
            assert ((saved / "energy.json").read_bytes()
                    == (direct / "energy.json").read_bytes())
