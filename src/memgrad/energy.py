"""Energy accounting for programming pulses, array reads, and projected MACs.

Every reset pulse is logged with the conductance measured immediately before
it, so a recorded run can be re-costed under a different device technology
(same pulse sequence, substituted pulse parameters).  Reads are logged as
effective driven-conductance sums; MACs are counted and projected through a
TOPS/W efficiency figure (one MAC = two ops).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .device import DeviceTechParams

__all__ = [
    "EnergyLedger",
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


@dataclass
class EnergyLedger:
    """Append-only event log; totals are always recomputed from events."""

    pulse_g_pre: dict[str, list[float]] = field(default_factory=dict)
    reads: list[tuple[float, float, float]] = field(default_factory=list)
    mac_count: int = 0                 # MACs; one MAC = two ops
    reinit_count: int = 0
    reinit_energy_j: float = 0.0

    def record_pulses(self, g_pre, tech_name: str):
        """Append the pre-pulse conductances of a batch of pulses, in order.

        An empty batch adds nothing, not even an empty entry for the tech.
        """
        g_pre = np.asarray(g_pre, dtype=float)
        if g_pre.size:
            self.pulse_g_pre.setdefault(tech_name, []).extend(g_pre.tolist())

    def record_read(self, g_sum: float, v_read: float, t_read: float):
        self.reads.append((float(g_sum), float(v_read), float(t_read)))

    def record_macs(self, n_macs: int):
        self.mac_count += int(n_macs)

    def record_reinit(self, energy_cost: float = 0.0):
        self.reinit_count += 1
        self.reinit_energy_j += float(energy_cost)

    @property
    def pulse_count(self) -> int:
        return sum(len(v) for v in self.pulse_g_pre.values())

    def extend(self, other: "EnergyLedger"):
        """Concatenate another ledger's events into this one."""
        for tech, values in other.pulse_g_pre.items():
            self.pulse_g_pre.setdefault(tech, []).extend(values)
        self.reads.extend(other.reads)
        self.mac_count += other.mac_count
        self.reinit_count += other.reinit_count
        self.reinit_energy_j += other.reinit_energy_j

    def to_json(self) -> dict:
        # 6 significant digits keep the file size sane at < 1e-6 relative
        # error on energy totals
        return {
            "pulse_g_pre_uS": {tech: [float(f"{g * 1e6:.6g}") for g in values]
                               for tech, values in self.pulse_g_pre.items()},
            "reads": [[float(f"{g * 1e6:.6g}"), v, t] for g, v, t in self.reads],
            "mac_count": self.mac_count,
            "reinit_count": self.reinit_count,
            "reinit_energy_j": self.reinit_energy_j,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "EnergyLedger":
        ledger = cls()
        for tech, values in payload.get("pulse_g_pre_uS", {}).items():
            ledger.pulse_g_pre[tech] = [g * 1e-6 for g in values]
        ledger.reads = [(g * 1e-6, v, t) for g, v, t in payload.get("reads", [])]
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


def programming_energy(ledger: EnergyLedger, tech: DeviceTechParams) -> float:
    """Total pulse energy of the recorded sequence under the given tech.

    sum over pulses of G_pre * V_reset^2 * t_reset; the stored tech names are
    ignored on purpose so a sequence recorded on one platform can be
    re-costed on another.
    """
    factor = tech.v_reset ** 2 * tech.t_reset
    return factor * sum(sum(values) for values in ledger.pulse_g_pre.values())


def read_energy(ledger: EnergyLedger, v_read: float | None = None,
                t_read: float | None = None) -> float:
    """Total read energy; optionally re-cost under different read conditions."""
    total = 0.0
    for g_sum, v, t in ledger.reads:
        total += g_sum * (v_read if v_read is not None else v) ** 2 \
            * (t_read if t_read is not None else t)
    return total


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
