"""Energy ledger arithmetic and cross-technology re-costing."""

import numpy as np
import pytest

from memgrad.device import LARGE_ARRAY, MAC_ARRAY
from memgrad.energy import (DEFAULT_TOPS_PER_WATT, EnergyLedger, PV_UPDATE_ENERGY_J,
                            mac_energy_projection, programming_energy,
                            pv_baseline_energy, read_energy)


class TestProgrammingEnergy:
    def test_empty_ledger(self):
        ledger = EnergyLedger()
        ledger.record_pulses([], LARGE_ARRAY.name)
        assert ledger.pulse_g_pre == {}
        assert programming_energy(ledger, LARGE_ARRAY) == 0.0

    def test_single_event(self):
        ledger = EnergyLedger()
        ledger.record_pulses([50e-6], LARGE_ARRAY.name)
        assert programming_energy(ledger, LARGE_ARRAY) == pytest.approx(24.3e-12)

    def test_recosting_ratio_is_parameter_forced(self):
        # same event list under both techs: ratio = (0.9^2*600)/(0.62^2*30)
        rng = np.random.default_rng(0)
        ledger = EnergyLedger()
        ledger.record_pulses(rng.uniform(20e-6, 90e-6, 500), LARGE_ARRAY.name)
        ratio = (programming_energy(ledger, LARGE_ARRAY)
                 / programming_energy(ledger, MAC_ARRAY))
        expected = (0.9 ** 2 * 600e-9) / (0.62 ** 2 * 30e-9)
        assert ratio == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(42.1, abs=0.1)

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(1)
        a, b = EnergyLedger(), EnergyLedger()
        a.record_pulses(rng.uniform(1e-6, 100e-6, 100), "large_array")
        b.record_pulses(rng.uniform(1e-6, 100e-6, 70), "mac_array")
        merged = EnergyLedger()
        merged.extend(a)
        merged.extend(b)
        assert programming_energy(merged, LARGE_ARRAY) == pytest.approx(
            programming_energy(a, LARGE_ARRAY) + programming_energy(b, LARGE_ARRAY))

    def test_totals_match_recomputation(self):
        rng = np.random.default_rng(2)
        ledger = EnergyLedger()
        values = rng.uniform(1e-6, 100e-6, 64)
        ledger.record_pulses(values, "large_array")
        expected = float(np.sum(values)) * 0.9 ** 2 * 600e-9
        assert programming_energy(ledger, LARGE_ARRAY) == pytest.approx(expected,
                                                                        rel=1e-12)


class TestReadEnergy:
    def test_stored_conditions(self):
        ledger = EnergyLedger()
        ledger.record_read(100e-6, 0.2, 15e-6)
        assert read_energy(ledger) == pytest.approx(100e-6 * 0.04 * 15e-6)

    def test_override_conditions(self):
        ledger = EnergyLedger()
        ledger.record_read(100e-6, 0.2, 15e-6)
        fast = read_energy(ledger, t_read=10e-9)
        assert fast == pytest.approx(100e-6 * 0.04 * 10e-9)


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
            mac_energy_projection(10, tops_per_watt=0)


class TestLedgerPersistence:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        ledger = EnergyLedger()
        ledger.record_pulses(rng.uniform(1e-6, 100e-6, 50), "large_array")
        ledger.record_read(220e-6, 0.2, 15e-6)
        ledger.record_macs(1234)
        ledger.record_reinit(1e-9)
        path = tmp_path / "ledger.json"
        ledger.save(path)
        back = EnergyLedger.load(path)
        assert back.pulse_count == 50
        assert back.mac_count == 1234
        assert back.reinit_count == 1
        assert programming_energy(back, LARGE_ARRAY) == pytest.approx(
            programming_energy(ledger, LARGE_ARRAY), rel=1e-5)
