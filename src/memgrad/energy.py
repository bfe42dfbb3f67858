"""Energy accounting for programming pulses, array reads, and projected MACs.

Pulse energy G_pre * V_reset^2 * t_reset and read energy
G_driven * V_read^2 * t_read are linear in their events, so the ledger keeps
aggregates instead of event lists: per recording tech, a compensated sum of
the conductances measured immediately before each pulse and a pulse count;
per read condition (v_read, t_read), a compensated sum of driven conductance
and a read count; and MAC and reinit counters.  A batch of pulses enters its
sum as one float, the batch's correctly rounded sum (see
:meth:`RunningSum.add_batch`), so the pulse total is correctly rounded per
batch and compensated across batches.
That is enough to re-cost a recorded run under a different device technology
(same pulses, substituted pulse parameters) or different read conditions.
MACs are projected through a TOPS/W efficiency figure (one MAC = two ops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_json, write_json
from .device import DeviceTechParams

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
    """Aggregate totals of a run's pulses, reads, MACs and reinits."""

    pulse_sums: dict[str, RunningSum] = field(default_factory=dict)
    read_sums: dict[tuple[float, float], RunningSum] = field(default_factory=dict)
    mac_count: int = 0                 # MACs; one MAC = two ops
    reinit_count: int = 0
    reinit_energy_j: float = 0.0

    def record_pulses(self, g_pre, tech_name: str):
        """Add a batch of pulses, given their pre-pulse conductances.

        An empty batch adds nothing, not even an empty entry for the tech.
        """
        g_pre = np.asarray(g_pre, dtype=float).ravel()
        if g_pre.size:
            self.pulse_sums.setdefault(tech_name, RunningSum()).add_batch(g_pre)

    def record_read(self, g_sum: float, v_read: float, t_read: float):
        key = (float(v_read), float(t_read))
        self.read_sums.setdefault(key, RunningSum()).add(float(g_sum))

    def record_macs(self, n_macs: int):
        self.mac_count += int(n_macs)

    def record_reinit(self, energy_cost: float = 0.0, count: int = 1):
        """Count ``count`` reinit cycles of ``energy_cost`` joules each."""
        self.reinit_count += int(count)
        self.reinit_energy_j += count * float(energy_cost)

    @property
    def pulse_count(self) -> int:
        return sum(s.count for s in self.pulse_sums.values())

    @property
    def read_count(self) -> int:
        return sum(s.count for s in self.read_sums.values())

    def to_json(self) -> dict:
        return {
            "pulse_totals": {tech: {"g_pre_sum_S": sums.total, "count": sums.count}
                             for tech, sums in self.pulse_sums.items()},
            "read_totals": [{"v_read": v, "t_read": t, "g_sum_S": sums.total,
                             "count": sums.count}
                            for (v, t), sums in self.read_sums.items()],
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
        ledger = cls()
        for tech, entry in payload["pulse_totals"].items():
            ledger.pulse_sums[tech] = RunningSum(entry["g_pre_sum_S"], entry["count"])
        for entry in payload["read_totals"]:
            ledger.read_sums[(entry["v_read"], entry["t_read"])] = RunningSum(
                entry["g_sum_S"], entry["count"])
        ledger.mac_count = int(payload["mac_count"])
        ledger.reinit_count = int(payload["reinit_count"])
        ledger.reinit_energy_j = float(payload["reinit_energy_j"])
        return ledger


def programming_energy(ledger: EnergyLedger, tech: DeviceTechParams,
                       recorded_as: str | None = None) -> float:
    """Total pulse energy of the recorded pulses under the given tech.

    sum over pulses of G_pre * V_reset^2 * t_reset.  By default every pulse
    counts whatever tech it was recorded under, so a sequence recorded on
    one platform can be re-costed on another; ``recorded_as`` restricts the
    sum to the pulses recorded under that tech name.
    """
    factor = tech.v_reset ** 2 * tech.t_reset
    sums = [s for name, s in ledger.pulse_sums.items()
            if recorded_as is None or name == recorded_as]
    return factor * math.fsum(s.total for s in sums)


def read_energy(ledger: EnergyLedger, v_read: float | None = None,
                t_read: float | None = None) -> float:
    """Total read energy; optionally re-cost under different read conditions."""
    return math.fsum(
        sums.total * (v_read if v_read is not None else v) ** 2
        * (t_read if t_read is not None else t)
        for (v, t), sums in ledger.read_sums.items())


def pv_baseline_energy(update_count: int,
                       per_update_energy: float = PV_UPDATE_ENERGY_J) -> float:
    """Cost of the same update count under a program-and-verify flow."""
    if update_count < 0:
        raise ValueError("update_count must be >= 0")
    return update_count * per_update_energy


def mac_energy_projection(mac_count: int,
                          tops_per_watt: float = DEFAULT_TOPS_PER_WATT) -> float:
    """Project MAC energy through an ops/W efficiency (2 ops per MAC)."""
    if tops_per_watt <= 0:
        raise ValueError("tops_per_watt must be positive")
    if mac_count < 0:
        raise ValueError("mac_count must be >= 0")
    return 2.0 * mac_count / tops_per_watt
