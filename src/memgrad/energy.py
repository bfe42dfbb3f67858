"""Energy accounting for programming pulses, array reads, and projected MACs.

Pulse energy G_pre * V_reset^2 * t_reset and read energy
G_driven * V_read^2 * t_read are linear in their events, so the ledger keeps
aggregates instead of event lists: per recording tech, a compensated sum of
the conductances measured immediately before each pulse, a pulse count and a
fixed-bin G_pre histogram; per read condition (v_read, t_read), a compensated
sum of driven conductance and a read count; and MAC and reinit counters.
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

__all__ = [
    "EnergyLedger",
    "RunningSum",
    "programming_energy",
    "read_energy",
    "pv_baseline_energy",
    "mac_energy_projection",
    "PV_UPDATE_ENERGY_J",
    "DEFAULT_TOPS_PER_WATT",
    "HIST_BIN_WIDTH_S",
    "HIST_BINS",
]

# Program-and-verify baseline cost per update (includes attempts and verify
# reads of the reference flow); treated as an opaque constant.
PV_UPDATE_ENERGY_J = 387e-12

# Measured end-to-end in-memory-computing efficiency used for MAC projection
# (ops per watt-second; one MAC counts as two ops).
DEFAULT_TOPS_PER_WATT = 57.5e12

# G_pre histogram: bin k counts pulses with k*w <= G_pre < (k+1)*w, w = 2 uS;
# the last bin also takes everything above 200 uS.
HIST_BIN_WIDTH_S = 2e-6
HIST_BINS = 100


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

    def merge(self, other: "RunningSum"):
        self.add(other._hi, other.count)
        self.add(other._lo, 0)

    @property
    def total(self) -> float:
        return self._hi + self._lo


def _g_pre_histogram(g_pre: np.ndarray) -> np.ndarray:
    bins = np.clip((g_pre / HIST_BIN_WIDTH_S).astype(np.int64), 0, HIST_BINS - 1)
    return np.bincount(bins, minlength=HIST_BINS)


@dataclass(eq=False)
class EnergyLedger:
    """Aggregate totals of a run's pulses, reads, MACs and reinits."""

    pulse_sums: dict[str, RunningSum] = field(default_factory=dict)
    pulse_hists: dict[str, np.ndarray] = field(default_factory=dict)
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
            sums, hist = self._pulse_totals(tech_name)
            sums.add_batch(g_pre)
            hist += _g_pre_histogram(g_pre)

    def _pulse_totals(self, tech_name: str) -> tuple[RunningSum, np.ndarray]:
        if tech_name not in self.pulse_sums:
            self.pulse_sums[tech_name] = RunningSum()
            self.pulse_hists[tech_name] = np.zeros(HIST_BINS, dtype=np.int64)
        return self.pulse_sums[tech_name], self.pulse_hists[tech_name]

    def record_read(self, g_sum: float, v_read: float, t_read: float):
        key = (float(v_read), float(t_read))
        if key not in self.read_sums:
            self.read_sums[key] = RunningSum()
        self.read_sums[key].add(float(g_sum))

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

    def extend(self, other: "EnergyLedger"):
        """Add another ledger's totals to this one."""
        for tech, other_sums in other.pulse_sums.items():
            sums, hist = self._pulse_totals(tech)
            sums.merge(other_sums)
            hist += other.pulse_hists[tech]
        for key, sums in other.read_sums.items():
            self.read_sums.setdefault(key, RunningSum()).merge(sums)
        self.mac_count += other.mac_count
        self.reinit_count += other.reinit_count
        self.reinit_energy_j += other.reinit_energy_j

    def to_json(self) -> dict:
        return {
            "g_pre_hist_bin_uS": HIST_BIN_WIDTH_S * 1e6,
            "pulse_totals": {tech: {"g_pre_sum_S": sums.total, "count": sums.count,
                                    "g_pre_hist": self.pulse_hists[tech].tolist()}
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
        under ``reads``, all conductances in microsiemens.
        """
        ledger = cls()
        bin_uS = payload.get("g_pre_hist_bin_uS", HIST_BIN_WIDTH_S * 1e6)
        if bin_uS != HIST_BIN_WIDTH_S * 1e6:
            raise ValueError(f"ledger histogram bin {bin_uS} uS, expected "
                             f"{HIST_BIN_WIDTH_S * 1e6} uS")
        for tech, entry in payload.get("pulse_totals", {}).items():
            ledger.pulse_sums[tech] = RunningSum(entry["g_pre_sum_S"], entry["count"])
            ledger.pulse_hists[tech] = np.array(entry["g_pre_hist"], dtype=np.int64)
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
        with open(path) as f:
            return cls.from_json(json.load(f))


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
