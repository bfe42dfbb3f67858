"""Energy accounting for programming pulses, array reads, and projected MACs.

Pulse energy G_pre * V_reset^2 * t_reset and read energy
G_driven * V_read^2 * t_read are linear in their events, so the ledger keeps
aggregates instead of event lists: per recording tech, a compensated sum of
the conductances measured immediately before each pulse and a pulse count;
per read condition (v_read, t_read), a compensated sum of driven conductance
and a read count; and MAC and reinit counters.
That is enough to re-cost a recorded run under a different device technology
(same pulses, substituted pulse parameters) or different read conditions.
MACs are projected through a TOPS/W efficiency figure (one MAC = two ops).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .device import DeviceTechParams
from .errors import ParseError

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


class RunningSum:
    """Count and Neumaier-compensated sum of a stream of floats."""

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
        """Add a batch through its correctly rounded sum."""
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

    @classmethod
    def from_json(cls, payload: dict) -> "EnergyLedger":
        """Read the aggregate layout, or sum the older event-list layout.

        The event-list layout stored every pre-pulse conductance under
        ``pulse_g_pre_uS`` and every read as ``[g_sum_uS, v_read, t_read]``
        under ``reads``, all conductances in microsiemens.  The G_pre
        histogram that aggregate files once carried (``g_pre_hist``,
        ``g_pre_hist_bin_uS``) is ignored.
        """
        ledger = cls()
        for tech, entry in payload.get("pulse_totals", {}).items():
            ledger.pulse_sums[tech] = RunningSum(entry["g_pre_sum_S"], entry["count"])
        for entry in payload.get("read_totals", []):
            ledger.read_sums[(entry["v_read"], entry["t_read"])] = RunningSum(
                entry["g_sum_S"], entry["count"])
        for tech, values in payload.get("pulse_g_pre_uS", {}).items():
            ledger.record_pulses(np.asarray(values, dtype=float) * 1e-6, tech)
        for g, v, t in payload.get("reads", []):
            ledger.record_read(g * 1e-6, v, t)
        ledger.mac_count = int(payload.get("mac_count", 0))
        ledger.reinit_count = int(payload.get("reinit_count", 0))
        ledger.reinit_energy_j = float(payload.get("reinit_energy_j", 0.0))
        return ledger

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json(), f)

    @classmethod
    def load(cls, path) -> "EnergyLedger":
        """Read a ledger file; one that is not a ledger raises ParseError."""
        with open(path) as f:
            try:
                return cls.from_json(json.load(f))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                # JSONDecodeError is a ValueError; a missing field a KeyError
                raise ParseError(f"{path}: malformed ledger "
                                 f"({type(exc).__name__}: {exc})") from exc


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
