"""Energy accounting for programming pulses, array reads, and projected MACs.

Pulse energy G_pre * V_reset^2 * t_reset and read energy
G_driven * V_read^2 * t_read are linear in their events, and a run programs
and reads all its arrays on one device technology, so the ledger keeps that
tech and totals instead of event lists: compensated sums of pre-pulse and of
driven read conductance with their counts, and MAC and reinit counters.  A
batch of pulses enters its sum as the batch's correctly rounded sum (see
:meth:`RunningSum.add_batch`), so the pulse total is correctly rounded per
batch and compensated across batches.  Pricing the same pulses under another
tech re-costs the run on that platform; reads are priced on the run's tech.
MACs are projected through a TOPS/W efficiency figure (one MAC = two ops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_json, write_json
from .device import TECH_PROFILES, DeviceTechParams

__all__ = [
    "EnergyLedger",
    "RunningSum",
    "programming_energy",
    "read_energy",
    "pv_baseline_energy",
    "mac_energy_projection",
    "PV_UPDATE_ENERGY_J",
    "DEFAULT_TOPS_PER_WATT",
]

# Program-and-verify baseline cost per update (includes attempts and verify
# reads of the reference flow); treated as an opaque constant.
PV_UPDATE_ENERGY_J = 387e-12

# Measured end-to-end in-memory-computing efficiency used for MAC projection
# (ops per watt-second; one MAC counts as two ops).
DEFAULT_TOPS_PER_WATT = 57.5e12


# The exact batch sum splits each value into limbs of 2^-45 and 2^-80: a value
# in [2^-28, 2^-12) is a multiple of 2^-80 and below 2^33 units of 2^-45, so
# fewer than 2^18 of them sum in float64 without rounding, limb by limb.
_LIMB_LO, _LIMB_HI, _LIMB_COUNT = 2.0 ** -28, 2.0 ** -12, 1 << 18


class RunningSum:
    """Count and Neumaier-compensated sum of a stream of floats.

    Batches enter through :meth:`add_batch` as their correctly rounded sum,
    single values through :meth:`add`.
    """

    __slots__ = ("count", "_hi", "_lo")

    def __init__(self, total: float = 0.0, count: int = 0):
        self.count = int(count)
        self._hi = float(total)
        self._lo = 0.0

    def add(self, value: float, count: int = 1):
        hi = self._hi + value
        if abs(self._hi) >= abs(value):
            self._lo += (self._hi - hi) + value
        else:
            self._lo += (value - hi) + self._hi
        self._hi = hi
        self.count += count

    def add_batch(self, values: np.ndarray):
        """Add a batch through its correctly rounded sum, as ``math.fsum``.

        A batch of fewer than 2^18 values, each 0 or in [2^-28, 2^-12) and
        not all 0 (pre-pulse conductances in siemens are), is summed exactly
        as two integer limbs, in units of 2^-45 and 2^-80, and rounded once;
        any other batch goes through ``math.fsum``.  Both give the same float.
        """
        values = np.asarray(values, dtype=float)
        if 0 < len(values) < _LIMB_COUNT and _LIMB_LO <= values.max() < _LIMB_HI and (
                values.min() >= _LIMB_LO
                or np.all((values >= _LIMB_LO) | (values == 0.0))):
            scaled = values * 2.0 ** 45
            whole = np.floor(scaled)
            exact = (int(whole.sum()) << 35) + int((scaled - whole).sum() * 2.0 ** 35)
            self.add(math.ldexp(float(exact), -80), len(values))
        else:
            self.add(math.fsum(values.tolist()), len(values))

    @property
    def total(self) -> float:
        return self._hi + self._lo


@dataclass(eq=False)
class EnergyLedger:
    """Aggregate totals of a run's pulses, reads, MACs and reinits on ``tech``."""

    tech: DeviceTechParams
    pulses: RunningSum = field(default_factory=RunningSum)    # G_pre, siemens
    reads: RunningSum = field(default_factory=RunningSum)     # driven G, siemens
    mac_count: int = 0                 # MACs; one MAC = two ops
    reinit_count: int = 0
    reinit_energy_j: float = 0.0

    def record_pulses(self, g_pre):
        """Add a batch of pulses, given their pre-pulse conductances."""
        self.pulses.add_batch(np.ravel(g_pre))

    def record_read(self, g_sum: float):
        self.reads.add(float(g_sum))

    def record_macs(self, n_macs: int):
        self.mac_count += int(n_macs)

    def record_reinit(self, energy_cost: float = 0.0, count: int = 1):
        """Count ``count`` reinit cycles of ``energy_cost`` joules each."""
        self.reinit_count += int(count)
        self.reinit_energy_j += count * float(energy_cost)

    @property
    def pulse_count(self) -> int:
        return self.pulses.count

    @property
    def read_count(self) -> int:
        return self.reads.count

    def to_json(self) -> dict:
        return {
            "tech": self.tech.name,
            "g_pre_sum_S": self.pulses.total,
            "pulse_count": self.pulses.count,
            "g_read_sum_S": self.reads.total,
            "read_count": self.reads.count,
            "mac_count": self.mac_count,
            "reinit_count": self.reinit_count,
            "reinit_energy_j": self.reinit_energy_j,
        }

    def save(self, path):
        write_json(path, self.to_json(), "ledger.schema.json", indent=None)

    @classmethod
    def load(cls, path) -> "EnergyLedger":
        """Read a ledger file; one that is not a ledger raises ParseError."""
        payload = read_json(path, "ledger.schema.json")
        return cls(TECH_PROFILES[payload["tech"]],
                   pulses=RunningSum(payload["g_pre_sum_S"], payload["pulse_count"]),
                   reads=RunningSum(payload["g_read_sum_S"], payload["read_count"]),
                   mac_count=int(payload["mac_count"]),
                   reinit_count=int(payload["reinit_count"]),
                   reinit_energy_j=float(payload["reinit_energy_j"]))


def programming_energy(ledger: EnergyLedger, tech: DeviceTechParams) -> float:
    """Sum over pulses of G_pre * V_reset^2 * t_reset on ``tech``; a tech
    other than ``ledger.tech`` re-costs the run's pulses on that platform."""
    return tech.v_reset ** 2 * tech.t_reset * ledger.pulses.total


def read_energy(ledger: EnergyLedger) -> float:
    """Total read energy at the read conditions of the ledger's tech."""
    return ledger.reads.total * ledger.tech.v_read ** 2 * ledger.tech.t_read


def pv_baseline_energy(update_count: int) -> float:
    """Cost of the same update count under a program-and-verify flow."""
    if update_count < 0:
        raise ValueError("update_count must be >= 0")
    return update_count * PV_UPDATE_ENERGY_J


def mac_energy_projection(mac_count: int) -> float:
    """Project MAC energy through the measured ops/W efficiency (2 ops per MAC)."""
    if mac_count < 0:
        raise ValueError("mac_count must be >= 0")
    return 2.0 * mac_count / DEFAULT_TOPS_PER_WATT
