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

import math
from collections.abc import Sequence
from dataclasses import astuple, dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .artifacts import read_csv, write_csv
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
    "TECH_PROFILES",
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
TECH_PROFILES = {"large_array": LARGE_ARRAY, "mac_array": MAC_ARRAY}


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
        # -0.0 passes that check, but numpy refuses it as a normal scale
        self.decrement_sigma += 0.0
        self.g0_sigma += 0.0
        if not 0.0 <= self.anomalous_probability <= 1.0:
            raise ValueError("anomalous_probability must be in [0, 1]")
        if not 0.0 <= self.late_onset_fraction <= 1.0:
            raise ValueError("late_onset_fraction must be in [0, 1]")
        if self.decrement_family not in ("normal", "lognormal"):
            raise ValueError(f"unknown decrement family {self.decrement_family!r}")


@dataclass(frozen=True)
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
        # -0.0 passes that check, but numpy refuses it as a normal scale
        object.__setattr__(self, "sigma_core", self.sigma_core + 0.0)
        object.__setattr__(self, "sigma_tail", self.sigma_tail + 0.0)
        for days, bound, frac in self.targets:
            if days <= 0 or bound <= 0:
                raise ValueError("target days and bounds must be positive")
            if not 0.0 <= frac <= 1.0:
                raise ValueError("target CDF fractions must be in [0, 1]")

    def _inside_bound(self, sigma: float, bound: float) -> float:
        if sigma == 0:
            return 1.0
        return math.erf(bound / (sigma * math.sqrt(2.0)))

    @cached_property
    def _tail_anchors(self) -> tuple[list[float], list[float]]:
        """(days, tail weights) that ``tail_weight`` interpolates, from day 0."""
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
        return xs, ws

    def tail_weight(self, days: float) -> float:
        """Mixture tail weight at a given horizon (0 at day 0)."""
        if days < 0:
            raise ValueError("days must be >= 0")
        return float(np.interp(days, *self._tail_anchors))


def _check_conductances(block: np.ndarray):
    if not (block.min() >= 0 and np.isfinite(block.max())):
        raise ValueError("conductances must be finite and non-negative")


# Rows per block of a draw pass: a block of the full 5001-column width is
# 2.5 MiB, and blocks of 16 to 256 rows draw a bank as fast as one block.
_BLOCK_ROWS = 64


def _draw(params: SyntheticTrajectoryParams, seed: int, count: int, keep: int,
          out: np.ndarray | None = None):
    """Yield ``(start, block)``: the first ``keep`` columns of the conductances
    of a synthetic bank, ``_BLOCK_ROWS`` rows at a time from row ``start``.

    One pass from the seed makes every draw of the bank.  Each row draws,
    in this order: its decrements, the anomalous-device coin, the decrement
    signs (anomalous rows only) and its initial conductance.  Decrements
    from ``keep - 1`` on are drawn past, not kept: every decrement is one
    standard normal draw (a lognormal one too), and the generator caches
    none, so the pass consumes the stream exactly as one that keeps them.
    Decrement j of a row sits in column j + 1, and one cumsum per row turns
    the kept decrements into conductances.  Each block is finished, with
    the same arithmetic per row whatever its block, and checked before it
    is yielded: a block whose conductances fail the check raises.

    With ``out``, a (count, keep) matrix, each block is a view of its rows
    there; otherwise each block is a new array.
    """
    onset = int(round(params.p_max * params.late_onset_fraction))
    sigma = np.full(keep - 1, params.decrement_sigma, dtype=float)
    sigma[onset:] *= params.late_sigma_factor
    lognormal = params.decrement_family == "lognormal"
    if lognormal:
        # match the requested per-pulse mean/sigma via the usual moment
        # mapping; sigma varies along the trajectory (late-stage amplification)
        var_ln = np.log1p((sigma / params.decrement_mean) ** 2)
        log_mu, log_sigma = np.log(params.decrement_mean) - var_ln / 2.0, np.sqrt(var_ln)
    rng = np.random.default_rng(seed)
    rest = np.empty(params.p_max + 1 - keep)
    for start in range(0, count, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, count)
        block = np.empty((stop - start, keep)) if out is None else out[start:stop]
        negative = []       # (row, decrement sign < 0) of the anomalous rows
        for k, g in enumerate(block):
            if lognormal:
                g[1:] = rng.lognormal(log_mu, log_sigma)
            else:
                rng.standard_normal(out=g[1:])
            rng.standard_normal(out=rest)
            if rng.random() < params.anomalous_probability:
                negative.append((k, rng.choice([-1.0, 1.0], size=params.p_max)[:keep - 1] < 0))
            g[0] = max(rng.normal(params.g0_mean, params.g0_sigma), 0.0)
        dec = block[:, 1:]
        if not lognormal:
            # mean + sigma * z is what rng.normal(mean, sigma) returns
            dec *= sigma
            dec += params.decrement_mean
            np.maximum(dec, 0.0, out=dec)
        for k, signs in negative:
            np.negative(dec[k], out=dec[k], where=signs)
        np.cumsum(dec, axis=1, out=dec)
        np.subtract(block[:, :1], dec, out=dec)
        np.clip(block, 0.0, None, out=block)
        _check_conductances(block)
        yield start, block


# The matrices of the last two draw passes, least recently used first, keyed
# by what decides a pass: the generator params (by repr, which never joins
# values that compare equal yet may draw apart, such as -0.0 and 0.0), the
# seed and the row count.  Runs of every rule on one run seed draw the same
# bank, so two entries serve a caller that builds them on two seeds in turn.
# memgrad fills banks from one thread (its pool uses processes), so the
# cache takes no lock.
_DRAWN: dict[tuple, np.ndarray] = {}
_DRAWN_SIZE = 2


def _drawn(params: SyntheticTrajectoryParams, seed: int, count: int,
           keep: int) -> np.ndarray:
    """A read-only matrix of at least ``keep`` columns of a synthetic bank.

    Reuses the matrix of an earlier pass when it is wide enough.  Otherwise
    it evicts first, so that the cache and the pass hold at most two
    matrices, and caches the new one only if it passes the check.
    """
    key = (repr(astuple(params)), seed, count)
    if key in _DRAWN and _DRAWN[key].shape[1] >= keep:
        _DRAWN[key] = _DRAWN.pop(key)          # now the most recently used
        return _DRAWN[key]
    _DRAWN.pop(key, None)
    while len(_DRAWN) >= _DRAWN_SIZE:
        del _DRAWN[next(iter(_DRAWN))]
    matrix = np.empty((count, keep))
    for _ in _draw(params, seed, count, keep, out=matrix):
        pass
    matrix.flags.writeable = False
    _DRAWN[key] = matrix
    return matrix


class TrajectoryBank(Sequence):
    """A cohort of trajectories stored as the rows of one matrix.

    ``conductances`` has shape (count, width); row k holds trajectory k in
    its first ``lengths[k]`` samples and zeros after them, since measured
    trajectories may differ in length.  The matrix is read-only: crossbar
    arrays gather from it by (trajectory id, cursor).  The bank also reads
    as a sequence of :class:`ResetTrajectory`, each a view of its row, so
    scalar code (the reference device model, characterization) sees one
    object per trajectory without a second copy of the conductances.

    A synthetic bank keeps its generator params and seed (``spec``) and
    draws nothing until :meth:`fill` tells it how many columns to keep; a
    training run does that before its first read, with the deepest cursor
    its schedule can reach.  One draw pass from the seed then keeps that
    many columns, so the matrix is only as wide as the run reads.  A read
    past the kept columns (:meth:`gather`, or ``conductances`` and
    ``bank[k]``, which read whole rows) makes a pass that keeps every
    column.  Measured banks are complete.  :meth:`blocks` reads the whole
    matrix a block of rows at a time, without keeping it.

    Synthetic banks of the same params, seed and count share their draws
    within a process: a fill reuses the read-only matrix of one of the last
    two passes when it is wide enough (see :meth:`fill`).  So each run
    makes its own synthetic bank, and only a measured bank, parsed from a
    file, is worth handing to several runs.
    """

    def __init__(self, conductances, lengths, *,
                 spec: tuple[SyntheticTrajectoryParams, int] | None = None):
        conductances = np.ascontiguousarray(conductances, dtype=float)
        lengths = np.asarray(lengths, dtype=np.int64)
        if conductances.ndim != 2 or len(conductances) < 1:
            raise ValueError("bank needs a (count, width) conductance matrix")
        if lengths.shape != (len(conductances),):
            raise ValueError("need one length per trajectory")
        self.width = conductances.shape[1] if spec is None else spec[0].p_max + 1
        if lengths.min() < 2 or lengths.max() > self.width:
            raise ValueError("trajectory lengths must be in [2, width]")
        if spec is None:
            _check_conductances(conductances)
            conductances.flags.writeable = False
        self._matrix = conductances
        self._spec = spec
        self.lengths = lengths
        self._rows: list[ResetTrajectory | None] = [None] * len(lengths)

    @classmethod
    def from_rows(cls, rows) -> "TrajectoryBank":
        """Stack 1-D trajectories of possibly different lengths, zero-padded."""
        lengths = [len(r) for r in rows]
        matrix = np.zeros((len(rows), max(lengths, default=0)))
        for k, r in enumerate(rows):
            matrix[k, :len(r)] = r
        return cls(matrix, lengths)

    @property
    def filled(self) -> int:
        """Columns kept so far: the width of the matrix."""
        return self._matrix.shape[1]

    @property
    def conductances(self) -> np.ndarray:
        """The whole (count, width) matrix, read-only."""
        self.fill(self.width)
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    def gather(self, tid, cursor) -> np.ndarray:
        """Samples ``conductances[tid, cursor]``, indices broadcast together.

        A cursor past the kept columns keeps every column first.
        """
        cursor = np.asarray(cursor)
        if cursor.size and int(cursor.max()) >= self.filled:
            self.fill(self.width)
        return self._matrix[tid, cursor]

    def fill(self, upto: int):
        """Keep the first ``min(upto, width)`` columns.

        Does nothing when that many are kept already, and so nothing on a
        measured bank.  Otherwise the bank keeps a read-only view of the
        first ``keep`` columns of a matrix of the same params, seed and
        count that one of the last two passes in this process drew, or else
        of one new draw pass from the seed; that is how the runs on one
        seed share a bank.  A column has the same value however many columns
        a pass keeps, so reuse changes no read.  A pass
        whose conductances fail the check keeps and caches nothing, so every
        later read fails the same way.
        """
        keep = min(upto, self.width)
        if keep <= self.filled:
            return
        self._matrix = _drawn(*self._spec, len(self), keep)[:, :keep]

    def blocks(self):
        """Yield ``(start, block)``: the rows of ``conductances`` from row
        ``start``, ``_BLOCK_ROWS`` at a time.

        A complete bank (measured, or synthetic and filled to ``width``)
        yields read-only views of its matrix.  Any other bank makes one
        draw pass that keeps every column, block by block, and neither
        keeps nor caches the matrix: a reader that reduces each row holds
        one block at a time.  A block that fails the conductance check
        raises before it is yielded.
        """
        if self.filled < self.width:
            yield from _draw(*self._spec, len(self), self.width)
            return
        matrix = self._matrix.view()
        matrix.flags.writeable = False
        for start in range(0, len(self), _BLOCK_ROWS):
            yield start, matrix[start:start + _BLOCK_ROWS]

    def __len__(self):
        return len(self.lengths)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        traj = self._rows[k]
        if traj is None:
            traj = ResetTrajectory(self.conductances[k, :self.lengths[k]])
            self._rows[k] = traj
        return traj


def generate_trajectory_bank(params: SyntheticTrajectoryParams, count: int,
                             seed: int) -> TrajectoryBank:
    """``count`` synthetic trajectories, deterministically per seed.

    The bank keeps ``(params, seed)`` and draws when it is first filled or
    read (see :func:`_draw` for the order of the draws); a column has the
    same value however many columns a pass keeps.  Banks made from the same
    params, seed and count share their draw passes (see
    :meth:`TrajectoryBank.fill`), so making one per run costs no extra pass.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return TrajectoryBank(np.empty((count, 0)), np.full(count, params.p_max + 1),
                          spec=(params, seed))


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
                 rng: np.random.Generator):
    """Full reset/set cycle: rewind to pulse 0 on a freshly drawn trajectory.

    Drawing a new trajectory (rather than rewinding the old one) models
    cycle-to-cycle variation.
    """
    if not bank:
        raise ValueError("trajectory bank is empty")
    device.trajectory = bank[int(rng.integers(0, len(bank)))]
    device.pulse_index = 0
    device.reinit_count += 1


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


def cycle_endurance(g_first: np.ndarray, g_last: np.ndarray, lengths: np.ndarray,
                    rng: np.random.Generator, devices: int, cycles: int,
                    pulses_per_cycle: int, endurance_budget: int) -> EnduranceCycles:
    """Cycle each device through ``cycles`` trajectories of a bank, in closed form.

    The bank enters as three per-trajectory columns: ``g_first`` holds
    ``conductances[:, 0]``, ``g_last`` holds ``conductances[k, min(P,
    lengths[k] - 1)]`` for ``P = pulses_per_cycle``, and ``lengths`` the
    trajectory lengths.  Every cycle starts at pulse 0 of a freshly drawn
    trajectory (a reinit, except for a device's first draw) and applies
    ``P`` pulses, so cycle k of a device on trajectory ``tid`` ends at
    ``conductances[tid, P]`` with ``(k + 1) * P`` lifetime pulses.  It gives
    what the scalar replay (:class:`DeviceState`, :func:`apply_reset_pulse`,
    :func:`reinitialize`) gives: trajectory ids are drawn device by device,
    cycle by cycle, and cycling stops at the first pulse that replay
    refuses, with the same exception.  The endurance budget is checked
    before exhaustion, as in :func:`apply_reset_pulse`.
    """
    shape = (max(devices, 0), max(cycles, 0))
    pulses = max(pulses_per_cycle, 0)
    tid = rng.integers(0, len(lengths), size=shape)
    last = lengths[tid] - 1                  # pulse at which a trajectory is spent
    g_start, g_end = g_first[tid], g_last[tid]
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


def pearson_coefficient(conductances, p_max: int) -> float | np.ndarray:
    """Linearity of conductance vs. pulse number over the first p_max pulses.

    rho = (1/P) * sum_i (G_i - mu_G) (i - (P+1)/2) / (sigma_G * sigma_P),
    with population sigmas and sigma_P = sqrt(sum_i (i - (P+1)/2)^2 / P).
    -1 means ideal monotone decrease.  Constant trajectories return 0 by
    convention so population histograms stay total.

    ``conductances`` is one trajectory (a :class:`ResetTrajectory` or a 1-D
    array), which gives a float, or a (rows, P) block of trajectories, which
    gives an array with one coefficient per row; a single trajectory is
    computed as a one-row block.
    """
    g = np.asarray(getattr(conductances, "conductances", conductances), dtype=float)
    if not 2 <= p_max <= g.shape[-1]:
        raise ValueError(f"p_max must be in [2, {g.shape[-1]}], got {p_max}")
    block = np.atleast_2d(g)[:, :p_max]
    centered_g = block - block.mean(axis=1, keepdims=True)
    sigma_g = np.sqrt(np.mean(centered_g ** 2, axis=1))
    centered_i = np.arange(1, p_max + 1, dtype=float) - (p_max + 1) / 2.0
    sigma_p = math.sqrt(float(np.mean(centered_i ** 2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.mean(centered_g * centered_i, axis=1) / (sigma_g * sigma_p)
    rho = np.where(sigma_g == 0.0, 0.0, np.clip(rho, -1.0, 1.0))
    return float(rho[0]) if g.ndim == 1 else rho


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


_BANK_HEADER = ["device_id", "pulse_index", "conductance_uS"]
_BANK_ROW = np.dtype([("device", np.int64), ("index", np.int64), ("g_uS", float)])


def save_bank_csv(bank: TrajectoryBank, path):
    """Write a bank in long format: device_id,pulse_index,conductance_uS.

    Rows are written from :meth:`TrajectoryBank.blocks`, so a synthetic bank
    that is not filled is written a block at a time and left unfilled.
    """
    lengths = bank.lengths.tolist()
    write_csv(path, _BANK_HEADER, ([dev_id, k, f"{g * 1e6:.9g}"]
                                   for start, block in bank.blocks()
                                   for dev_id, row in enumerate(block, start)
                                   for k, g in enumerate(row[:lengths[dev_id]].tolist())))


def load_bank_csv(path) -> TrajectoryBank:
    """Load a long-format bank file, validating density and conductances."""
    try:
        table = np.fromiter(map(itemgetter(1), read_csv(path, _BANK_HEADER, lambda r: (
            int(r[0]), int(r[1]), float(r[2])))), dtype=_BANK_ROW)
    except OverflowError as exc:
        raise ParseError(f"{path}: a device_id or pulse_index is beyond 64 bits") from exc
    if not table.size:
        raise ParseError(f"{path}: no trajectories found")
    bad = ~((table["g_uS"] >= 0) & (table["g_uS"] < math.inf))
    if bad.any():
        # read_csv yields every line after the header: row k is line k + 2
        raise ParseError(f"{path}:{np.argmax(bad) + 2}: conductance must be "
                         f"finite and non-negative")
    order = np.lexsort((table["index"], table["device"]))
    device, index, g_us = (table[field][order] for field in _BANK_ROW.names)
    devices, first, lengths = np.unique(device, return_index=True, return_counts=True)
    dense = index == np.arange(len(index)) - np.repeat(first, lengths)
    if not dense.all():
        raise ParseError(f"{path}: device {device[np.argmin(dense)]}: "
                         f"pulse_index not dense from 0")
    if lengths.min() < 2:
        raise ParseError(f"{path}: device {devices[np.argmin(lengths)]}: fewer than 2 samples")
    return TrajectoryBank.from_rows(np.split(g_us * 1e-6, first[1:]))
