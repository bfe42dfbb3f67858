"""Single-device model for the sub-1 V reset-only programming regime.

A device is simulated by replaying a conductance-vs-pulse trajectory: every
programming pulse advances the device exactly one step along its trajectory,
so stochastic step sizes come from the trajectory itself rather than from a
parametric update law.  Trajectories are either imported from measurement
files or drawn from a synthetic generator whose knobs (per-pulse decrement
statistics, late-stage variability, anomalous devices) are calibrated to
reproduce the qualitative linearity spread of real device cohorts.

All conductances are stored in siemens.  File formats use microsiemens.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

__all__ = [
    "NeedsReinit",
    "EnduranceExceeded",
    "ResetTrajectory",
    "TrajectoryBank",
    "DeviceState",
    "DeviceTechParams",
    "SyntheticTrajectoryParams",
    "DriftModelParams",
    "LARGE_ARRAY",
    "MAC_ARRAY",
    "generate_trajectory_bank",
    "apply_reset_pulse",
    "reinitialize",
    "EnduranceCycles",
    "cycle_endurance",
    "pearson_coefficient",
    "apply_retention_drift",
    "pulse_energy",
    "save_bank_csv",
    "load_bank_csv",
]


class NeedsReinit(Exception):
    """Raised when a device has consumed its whole trajectory.

    The caller decides whether to reinitialize (full reset/set cycle, drawing
    a fresh trajectory) or to skip the update; silently clamping at the last
    conductance would hide the limited analog window of the regime.
    """


class EnduranceExceeded(Exception):
    """Raised when a pulse would exceed the device's lifetime pulse budget."""


@dataclass
class ResetTrajectory:
    """Conductance versus cumulative pulse count for one device.

    ``conductances[0]`` is the post-initialization (low-resistance) state;
    ``conductances[k]`` is the conductance after k reset pulses.
    """

    conductances: np.ndarray
    source: str = "synthetic"

    def __post_init__(self):
        self.conductances = np.asarray(self.conductances, dtype=float)
        if self.conductances.ndim != 1 or len(self.conductances) < 2:
            raise ValueError("trajectory needs at least 2 samples")
        if np.any(self.conductances < 0) or not np.all(np.isfinite(self.conductances)):
            raise ValueError("conductances must be finite and non-negative")

    def __len__(self):
        return len(self.conductances)


@dataclass
class DeviceState:
    """Replay cursor of one device over its current trajectory."""

    trajectory: ResetTrajectory
    pulse_index: int = 0
    reinit_count: int = 0
    lifetime_pulses: int = 0

    def __post_init__(self):
        if not 0 <= self.pulse_index < len(self.trajectory):
            raise ValueError("pulse_index outside trajectory")

    @property
    def conductance(self) -> float:
        return float(self.trajectory.conductances[self.pulse_index])

    @property
    def exhausted(self) -> bool:
        return self.pulse_index + 1 >= len(self.trajectory)


@dataclass(frozen=True)
class DeviceTechParams:
    """Electrical parameters of one device technology / programming profile.

    ``v_reset`` must stay below 1 V: that bound is what defines the regime
    (small stochastic decrements, low wear, high retention).  The three-level
    input biasing (source line at ``v_input_mid``, bit lines driven low/mid/
    high) is bookkeeping only: the MAC contract works with the effective
    amplitude ``v_read`` = high - mid at the device.
    """

    name: str
    v_reset: float            # V across the device during a reset pulse
    t_reset: float            # s, reset pulse width
    v_read: float = 0.2       # V, effective read amplitude at the device
    t_read: float = 15e-6     # s, read integration time (lab-bench default)
    endurance_budget: int = 1_500_000   # lifetime pulses per device
    v_input_low: float = 0.5   # bit-line level for x = -1
    v_input_mid: float = 0.7   # source-line bias / x = 0 level
    v_input_high: float = 0.9  # bit-line level for x = +1

    def __post_init__(self):
        if not self.v_reset < 1.0:
            raise ValueError(f"v_reset must be < 1 V, got {self.v_reset}")
        if self.t_reset <= 0 or self.t_read <= 0:
            raise ValueError("pulse durations must be positive")
        if self.v_read <= 0:
            raise ValueError("v_read must be positive")
        if not self.v_input_low <= self.v_input_mid <= self.v_input_high:
            raise ValueError("input bias levels must be ordered low <= mid <= high")


# The two device platforms used throughout: a 0.9 V / 600 ns profile for the
# large direct-access array and a 0.62 V / 30 ns profile for the newer
# low-voltage MAC-capable array.
LARGE_ARRAY = DeviceTechParams(name="large_array", v_reset=0.9, t_reset=600e-9)
MAC_ARRAY = DeviceTechParams(name="mac_array", v_reset=0.62, t_reset=30e-9)


@dataclass
class SyntheticTrajectoryParams:
    """Generator knobs for synthetic reset trajectories.

    Per-pulse decrements are i.i.d. from a truncated-at-zero normal (or a
    lognormal).  A late-stage regime amplifies the decrement spread over the
    final part of the trajectory, and a small fraction of devices is
    "anomalous": their decrements get a random sign, which produces the
    near-zero / positive linearity outliers seen in real cohorts.
    """

    g0_mean: float = 100e-6          # S, initial (post-init) conductance
    g0_sigma: float = 10e-6
    decrement_mean: float = 15e-9    # S per pulse
    decrement_sigma: float = 10e-9
    decrement_family: str = "normal"   # "normal" | "lognormal"
    late_onset_fraction: float = 0.8   # late-stage regime starts here
    late_sigma_factor: float = 4.0
    anomalous_probability: float = 0.05
    p_max: int = 5000                # pulses per trajectory

    def __post_init__(self):
        if not all(map(math.isfinite, (self.g0_mean, self.g0_sigma, self.decrement_mean,
                                       self.decrement_sigma, self.late_onset_fraction,
                                       self.late_sigma_factor, self.anomalous_probability))):
            raise ValueError("generator parameters must be finite")
        if self.p_max < 2:
            raise ValueError("p_max must be >= 2")
        if self.decrement_mean <= 0:
            raise ValueError("decrement_mean must be positive")
        if self.decrement_sigma < 0 or self.g0_sigma < 0:
            raise ValueError("sigmas must be non-negative")
        if not 0.0 <= self.anomalous_probability <= 1.0:
            raise ValueError("anomalous_probability must be in [0, 1]")
        if not 0.0 <= self.late_onset_fraction <= 1.0:
            raise ValueError("late_onset_fraction must be in [0, 1]")
        if self.decrement_family not in ("normal", "lognormal"):
            raise ValueError(f"unknown decrement family {self.decrement_family!r}")


@dataclass
class DriftModelParams:
    """Retention drift model: a zero-mean core/tail Gaussian mixture.

    Most devices barely move (narrow core); a day-dependent fraction takes a
    draw from a wide tail.  The tail weight is interpolated between the
    calibration targets, each target being ``(days, |dG| bound in S, fraction
    of devices inside the bound)``.  No physical drift law is assumed: the
    targets are the model.
    """

    sigma_core: float = 0.8e-6
    sigma_tail: float = 6e-6
    targets: tuple = ((8.0, 3e-6, 0.941), (90.0, 3e-6, 0.907))

    def __post_init__(self):
        if self.sigma_core < 0 or self.sigma_tail < 0:
            raise ValueError("sigmas must be non-negative")
        for days, bound, frac in self.targets:
            if days <= 0 or bound <= 0:
                raise ValueError("target days and bounds must be positive")
            if not 0.0 <= frac <= 1.0:
                raise ValueError("target CDF fractions must be in [0, 1]")

    def _inside_bound(self, sigma: float, bound: float) -> float:
        if sigma == 0:
            return 1.0
        return math.erf(bound / (sigma * math.sqrt(2.0)))

    def tail_weight(self, days: float) -> float:
        """Mixture tail weight at a given horizon (0 at day 0)."""
        if days < 0:
            raise ValueError("days must be >= 0")
        xs, ws = [0.0], [0.0]
        for d, bound, frac in sorted(self.targets):
            p_core = self._inside_bound(self.sigma_core, bound)
            p_tail = self._inside_bound(self.sigma_tail, bound)
            if p_core == p_tail:
                w = 0.0
            else:
                w = (p_core - frac) / (p_core - p_tail)
            xs.append(float(d))
            ws.append(min(max(w, 0.0), 1.0))
        return float(np.interp(days, xs, ws))


# Columns a synthetic bank turns into conductances at least, per fill.
_FILL_FLOOR = 256


def _check_conductances(block: np.ndarray):
    if not (block.min() >= 0 and np.isfinite(block.max())):
        raise ValueError("conductances must be finite and non-negative")


@dataclass
class _PendingFill:
    """What turns a synthetic bank's raw decrement draws into conductances.

    ``scale`` is the per-decrement sigma of the normal family (None for
    lognormal draws, which are decrements as drawn), ``carry`` each row's
    running decrement sum up to the frontier, and ``signs`` the bit-packed
    decrement signs (set bit: negative) of the anomalous rows ``sign_rows``.
    """

    scale: np.ndarray | None
    mean: float
    carry: np.ndarray
    sign_rows: np.ndarray
    signs: np.ndarray


class TrajectoryBank(Sequence):
    """A cohort of trajectories stored as the rows of one matrix.

    ``conductances`` has shape (count, width); row k holds trajectory k in
    its first ``lengths[k]`` samples and zeros after them, since measured
    trajectories may differ in length.  The matrix is read-only: crossbar
    arrays gather from it by (trajectory id, cursor).  The bank also reads
    as a sequence of :class:`ResetTrajectory`, each a view of its row, so
    scalar code (the reference device model, characterization) sees one
    object per trajectory without a second copy of the conductances.

    A synthetic bank starts with only column 0 computed; columns from
    ``filled`` on still hold raw decrement draws.  :meth:`gather` turns
    columns into conductances only as far as its cursors reach, and
    ``conductances`` turns all of them.  Measured banks are complete.
    """

    def __init__(self, conductances, lengths, sources: list[str], *,
                 pending: _PendingFill | None = None):
        conductances = np.ascontiguousarray(conductances, dtype=float)
        lengths = np.asarray(lengths, dtype=np.int64)
        if conductances.ndim != 2 or len(conductances) < 1:
            raise ValueError("bank needs a (count, width) conductance matrix")
        if lengths.shape != (len(conductances),) or len(sources) != len(conductances):
            raise ValueError("need one length and one source per trajectory")
        if lengths.min() < 2 or lengths.max() > conductances.shape[1]:
            raise ValueError("trajectory lengths must be in [2, width]")
        self.filled = 1 if pending is not None else conductances.shape[1]
        _check_conductances(conductances[:, :self.filled])
        if pending is None:
            conductances.flags.writeable = False
        self._matrix = conductances
        self._pending = pending
        self.lengths = lengths
        self.sources = list(sources)
        self._rows: list[ResetTrajectory | None] = [None] * len(lengths)

    @classmethod
    def from_rows(cls, rows, sources: list[str]) -> "TrajectoryBank":
        """Stack 1-D trajectories of possibly different lengths, zero-padded."""
        lengths = [len(r) for r in rows]
        matrix = np.zeros((len(rows), max(lengths, default=0)))
        for k, r in enumerate(rows):
            matrix[k, :len(r)] = r
        return cls(matrix, lengths, sources)

    @property
    def width(self) -> int:
        return self._matrix.shape[1]

    @property
    def conductances(self) -> np.ndarray:
        """The whole (count, width) matrix, read-only."""
        self._fill(self.width)
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    def gather(self, tid, cursor) -> np.ndarray:
        """Samples ``conductances[tid, cursor]``, indices broadcast together.

        Columns are filled up to the largest cursor first, and the frontier
        at least doubles per fill, so a bank read to its end takes a few
        fills and one read near the start takes one.
        """
        cursor = np.asarray(cursor)
        need = int(cursor.max()) + 1 if cursor.size else 0
        if need > self.filled:
            self._fill(min(self.width, max(need, 2 * self.filled, _FILL_FLOOR)))
        return self._matrix[tid, cursor]

    def _fill(self, upto: int):
        """Turn the raw draws of columns [filled, upto) into conductances.

        Decrement j of a row sits in column j + 1.  The running decrement
        sum continues from the carry of the previous fill; it is a
        sequential left fold, so any split into fills gives the values of
        one cumsum over the whole row.
        """
        lo = self.filled
        if upto <= lo:
            return
        if self._pending is None:
            # an earlier fill failed its check and left these columns unusable
            raise ValueError("conductances must be finite and non-negative")
        pending, self._pending = self._pending, None
        block = self._matrix[:, lo:upto]
        if pending.scale is not None:
            block *= pending.scale[lo - 1:upto - 1]
            block += pending.mean
            np.maximum(block, 0.0, out=block)
        # decrements lo-1 .. upto-2, unpacked from whole bytes; row by row,
        # so no copy of the signed rows is made
        skip, whole = (lo - 1) % 8, slice((lo - 1) // 8, (upto + 6) // 8)
        for row, packed in zip(pending.sign_rows, pending.signs):
            bits = np.unpackbits(packed[whole])[skip:skip + upto - lo]
            block[row] *= np.where(bits, -1.0, 1.0)
        block[:, 0] += pending.carry
        np.cumsum(block, axis=1, out=block)
        pending.carry[:] = block[:, -1]
        np.subtract(self._matrix[:, :1], block, out=block)
        np.clip(block, 0.0, None, out=block)
        _check_conductances(block)
        self.filled = upto
        if upto < self.width:
            self._pending = pending

    def __len__(self):
        return len(self.lengths)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        traj = self._rows[k]
        if traj is None:
            traj = ResetTrajectory(self.conductances[k, :self.lengths[k]], self.sources[k])
            self._rows[k] = traj
        return traj


def generate_trajectory_bank(params: SyntheticTrajectoryParams, count: int,
                             seed: int) -> TrajectoryBank:
    """Draw ``count`` synthetic trajectories, deterministically per seed.

    Each trajectory draws, in this order: its decrements, the anomalous-device
    coin, the decrement signs (anomalous devices only) and its initial
    conductance.  The decrement draws go straight into their row; the bank
    turns them into conductances when they are first read.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    onset = int(round(params.p_max * params.late_onset_fraction))
    sigma = np.full(params.p_max, params.decrement_sigma, dtype=float)
    sigma[onset:] *= params.late_sigma_factor
    if params.decrement_family == "lognormal":
        # match the requested per-pulse mean/sigma via the usual moment
        # mapping; sigma varies along the trajectory (late-stage amplification)
        var_ln = np.log1p((sigma / params.decrement_mean) ** 2)
        mu_ln = np.log(params.decrement_mean) - var_ln / 2.0
        sd_ln = np.sqrt(var_ln)
    matrix = np.empty((count, params.p_max + 1))
    sign_rows, signs = [], []
    for k, g in enumerate(matrix):
        if params.decrement_family == "lognormal":
            g[1:] = rng.lognormal(mu_ln, sd_ln)
        else:
            # the fill computes mean + sigma * z, what rng.normal(mean, sigma) returns
            rng.standard_normal(out=g[1:])
        if rng.random() < params.anomalous_probability:
            sign_rows.append(k)
            signs.append(np.packbits(rng.choice([-1.0, 1.0], size=params.p_max) < 0))
        g[0] = max(rng.normal(params.g0_mean, params.g0_sigma), 0.0)
    # column 0 is final here; the fills clip the others
    np.clip(matrix[:, 0], 0.0, None, out=matrix[:, 0])
    signs = np.array(signs, dtype=np.uint8).reshape(-1, (params.p_max + 7) // 8)
    # -0.0 is the exact additive identity: the first fill's sums are cumsum's
    pending = _PendingFill(sigma if params.decrement_family == "normal" else None,
                           params.decrement_mean, np.full(count, -0.0),
                           np.array(sign_rows, dtype=np.int64), signs)
    return TrajectoryBank(matrix, np.full(count, params.p_max + 1),
                          [f"synthetic(seed={seed},idx={k})" for k in range(count)],
                          pending=pending)


def apply_reset_pulse(device: DeviceState, endurance_budget: int | None = None) -> float:
    """Advance the device one pulse along its trajectory.

    Returns the post-pulse conductance.  Raises :class:`NeedsReinit` when the
    trajectory is exhausted and :class:`EnduranceExceeded` when the lifetime
    pulse budget is spent.
    """
    if endurance_budget is not None and device.lifetime_pulses >= endurance_budget:
        raise EnduranceExceeded(
            f"device at {device.lifetime_pulses} lifetime pulses (budget {endurance_budget})")
    if device.exhausted:
        raise NeedsReinit(
            f"trajectory exhausted at pulse {device.pulse_index}; reinitialize first")
    device.pulse_index += 1
    device.lifetime_pulses += 1
    return device.conductance


def reinitialize(device: DeviceState, bank: Sequence[ResetTrajectory],
                 rng: np.random.Generator, ledger=None, energy_cost: float = 0.0):
    """Full reset/set cycle: rewind to pulse 0 on a freshly drawn trajectory.

    Drawing a new trajectory (rather than rewinding the old one) models
    cycle-to-cycle variation.  The event can be logged to an energy ledger
    with a configurable cost (default 0, reported separately).
    """
    if not bank:
        raise ValueError("trajectory bank is empty")
    device.trajectory = bank[int(rng.integers(0, len(bank)))]
    device.pulse_index = 0
    device.reinit_count += 1
    if ledger is not None:
        ledger.record_reinit(energy_cost)


@dataclass(frozen=True)
class EnduranceCycles:
    """Endurance cycling outcome, one (devices, cycles) entry per cycle.

    Only the first ``completed`` cycles in device-major order ran to the
    end; ``error`` is the exception that stopped the next one, or None.
    """

    g_start: np.ndarray
    g_end: np.ndarray
    lifetime_pulses: np.ndarray
    completed: int
    error: Exception | None


def cycle_endurance(bank: TrajectoryBank, rng: np.random.Generator, devices: int,
                    cycles: int, pulses_per_cycle: int,
                    endurance_budget: int) -> EnduranceCycles:
    """Cycle each device through ``cycles`` trajectories, in closed form.

    Every cycle starts at pulse 0 of a freshly drawn trajectory (a reinit,
    except for a device's first draw) and applies ``pulses_per_cycle``
    pulses, so cycle k of a device on trajectory ``tid`` ends at
    ``conductances[tid, P]`` with ``(k + 1) * P`` lifetime pulses.  It gives
    what the scalar replay (:class:`DeviceState`, :func:`apply_reset_pulse`,
    :func:`reinitialize`) gives: trajectory ids are drawn device by device,
    cycle by cycle, and cycling stops at the first pulse that replay
    refuses, with the same exception.  The endurance budget is checked
    before exhaustion, as in :func:`apply_reset_pulse`.
    """
    shape = (max(devices, 0), max(cycles, 0))
    pulses = max(pulses_per_cycle, 0)
    tid = rng.integers(0, len(bank), size=shape)
    last = bank.lengths[tid] - 1             # pulse at which a trajectory is spent
    g_start = bank.gather(tid, 0)
    g_end = bank.gather(tid, np.minimum(pulses, last))
    lifetime = np.broadcast_to(pulses * np.arange(1, shape[1] + 1), shape)
    # pulse of each cycle at which the budget is hit (pulses: never)
    spent = max(endurance_budget, 0)
    budget_stop = np.full(shape, pulses)
    if spent < shape[1] * pulses:
        k, p = divmod(spent, pulses)
        budget_stop[:, k] = p       # device 0 stops there, later cycles never run
    failed = ((last < pulses) | (budget_stop < pulses)).ravel()
    if not failed.any():
        return EnduranceCycles(g_start, g_end, lifetime, failed.size, None)
    first = int(np.argmax(failed))
    at = np.unravel_index(first, shape)
    if budget_stop[at] <= last[at]:
        error = EnduranceExceeded(
            f"device at {spent} lifetime pulses (budget {endurance_budget})")
    else:
        error = NeedsReinit(
            f"trajectory exhausted at pulse {int(last[at])}; reinitialize first")
    return EnduranceCycles(g_start, g_end, lifetime, first, error)


def pearson_coefficient(trajectory: ResetTrajectory, p_max: int) -> float:
    """Linearity of conductance vs. pulse number over the first p_max pulses.

    rho = (1/P) * sum_i (G_i - mu_G) (i - (P+1)/2) / (sigma_G * sigma_P),
    with population sigmas and sigma_P = sqrt(sum_i (i - (P+1)/2)^2 / P).
    -1 means ideal monotone decrease.  Constant trajectories return 0 by
    convention so population histograms stay total.
    """
    if not 2 <= p_max <= len(trajectory):
        raise ValueError(f"p_max must be in [2, {len(trajectory)}], got {p_max}")
    g = trajectory.conductances[:p_max]
    i = np.arange(1, p_max + 1, dtype=float)
    mu_g = g.mean()
    sigma_g = math.sqrt(float(np.mean((g - mu_g) ** 2)))
    if sigma_g == 0.0:
        return 0.0
    centered_i = i - (p_max + 1) / 2.0
    sigma_p = math.sqrt(float(np.mean(centered_i ** 2)))
    rho = float(np.mean((g - mu_g) * centered_i)) / (sigma_g * sigma_p)
    return float(min(1.0, max(-1.0, rho)))


def apply_retention_drift(conductance, days: float, params: DriftModelParams,
                          rng: np.random.Generator):
    """Perturb read conductance(s) by the drift expected after ``days``.

    Accepts a scalar or an array (one independent draw per device).  The
    result is clamped at zero.  ``days == 0`` is the identity.
    """
    if days < 0:
        raise ValueError("days must be >= 0")
    g = np.asarray(conductance, dtype=float)
    if np.any(g < 0):
        raise ValueError("conductance must be non-negative")
    if days == 0:
        return conductance if np.isscalar(conductance) else g.copy()
    p_tail = params.tail_weight(days)
    tail = rng.random(g.shape) < p_tail
    dg = np.where(tail,
                  rng.normal(0.0, params.sigma_tail, g.shape),
                  rng.normal(0.0, params.sigma_core, g.shape))
    out = np.clip(g + dg, 0.0, None)
    return float(out) if np.isscalar(conductance) else out


def pulse_energy(conductance: float, tech: DeviceTechParams) -> float:
    """Energy delivered during a single reset pulse: G * V_reset^2 * t_reset."""
    if conductance < 0:
        raise ValueError("conductance must be non-negative")
    return conductance * tech.v_reset ** 2 * tech.t_reset


def save_bank_csv(bank: Sequence[ResetTrajectory], path):
    """Write a bank in long format: device_id,pulse_index,conductance_uS."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["device_id", "pulse_index", "conductance_uS"])
        for dev_id, traj in enumerate(bank):
            for k, g in enumerate(traj.conductances):
                w.writerow([dev_id, k, f"{g * 1e6:.9g}"])


def load_bank_csv(path) -> TrajectoryBank:
    """Load a long-format bank file, validating density and non-negativity."""
    per_device: dict[int, list[tuple[int, float]]] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["device_id", "pulse_index", "conductance_uS"]:
            raise ParseError(f"{path}: unexpected header {header}")
        for lineno, row in enumerate(reader, start=2):
            try:
                dev, idx, g_us = int(row[0]), int(row[1]), float(row[2])
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}:{lineno}: malformed row {row}") from exc
            if g_us < 0:
                raise ParseError(f"{path}:{lineno}: negative conductance")
            per_device.setdefault(dev, []).append((idx, g_us * 1e-6))
    if not per_device:
        raise ParseError(f"{path}: no trajectories found")
    rows, sources = [], []
    for dev in sorted(per_device):
        samples = sorted(per_device[dev])
        if [i for i, _ in samples] != list(range(len(samples))):
            raise ParseError(f"device {dev}: pulse_index not dense from 0")
        rows.append([g for _, g in samples])
        sources.append(f"measured(file={path},device={dev})")
    return TrajectoryBank.from_rows(rows, sources)
