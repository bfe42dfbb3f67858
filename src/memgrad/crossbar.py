"""Differential-pair crossbar arrays: weight mapping, analog reads, updates.

Each signed weight lives in a pair of devices, w = s * (G+ - G-), so a
reset-only technology can move weights in both directions: pulsing G- raises
w, pulsing G+ lowers it.  Matrices here use the (n_out, n_in) orientation of
the gradient equations: entry (i, j) couples input j to output i, and logits
are y = W @ x.

Device state is stored as arrays, one entry per device.  A device is a
(trajectory id, cursor) pair into the rows of a shared
:class:`~memgrad.device.TrajectoryBank` matrix.  ``traj_ids``, ``cursors``
and ``pulse_counts`` are (n_out, n_in, 2) integer arrays
whose last axis is the side of the pair: 0 for G+, 1 for G-.  An update plan
is a pair ``(mask, side)`` of (n_out, n_in) arrays: a boolean mask with at
most one pulse per weight, and the side that pulse goes to.  A plan is
applied as one vectorized step; the scalar
:class:`~memgrad.device.DeviceState` model is its reference.

Training reads an array only through :meth:`CrossbarArray.read`, which
multiplies a batch by W and logs one read event (the driven conductance
weighted by x^2, which prices read energy) and the batch's MACs.
``map_weights`` returns W without logging a read.  Between pulses an array
reads from a cache of W and of the column sums of G+ + G-, which the pulse
step drops.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import read_csv, write_csv
from .errors import ParseError
from .device import DeviceTechParams, EnduranceExceeded, TrajectoryBank
from .energy import EnergyLedger

__all__ = [
    "OnExhaustion",
    "PulseResult",
    "CrossbarArray",
    "save_snapshot_csv",
    "load_snapshot_csv",
]


class OnExhaustion(enum.Enum):
    """Policy when a planned pulse hits an exhausted trajectory.

    SKIP leaves the device untouched (default during training: a mid-run
    reinit would re-randomize a learned weight).  REINIT draws a fresh
    trajectory and then applies the pulse (characterization runs).
    """
    SKIP = "skip"
    REINIT = "reinit"


@dataclass(frozen=True)
class PulseResult:
    """Counts of one applied plan: pulses applied, skipped, and reinits."""
    applied: int
    skipped: int
    reinits: int


class CrossbarArray:
    """A grid of differential pairs with read and program semantics.

    ``n_in`` is the number of word lines (inputs, the physical row count)
    and ``n_out`` the number of signed outputs (each one uses two physical
    columns).  The weight scale s = gain_kappa * v_read ties the software
    weight representation to the read gain.  An array is built on its run's
    ledger, whose tech is the array's and which records its reads and pulses.
    """

    def __init__(self, bank: TrajectoryBank, traj_ids, cursors,
                 ledger: EnergyLedger, gain_kappa: float):
        # C order: the pulse step indexes flat views of the state arrays
        traj_ids = np.array(traj_ids, dtype=np.int64, order="C")
        cursors = np.array(cursors, dtype=np.int64, order="C")
        if traj_ids.ndim != 3 or traj_ids.shape[2] != 2 or cursors.shape != traj_ids.shape:
            raise ValueError("trajectory ids and cursors must be (n_out, n_in, 2)")
        if np.any(traj_ids < 0) or np.any(traj_ids >= len(bank)):
            raise ValueError("trajectory id outside the bank")
        if np.any(cursors < 0) or np.any(cursors >= bank.lengths[traj_ids]):
            raise ValueError("cursor outside its trajectory")
        self.n_out, self.n_in = traj_ids.shape[:2]
        self.bank = bank
        self.gain_kappa = float(gain_kappa)
        self.ledger = ledger
        self.traj_ids = traj_ids
        self.cursors = cursors
        # applied pulses; pre-pulses are not counted, so this is also each
        # device's lifetime pulse count for the endurance budget
        self.pulse_counts = np.zeros_like(traj_ids)
        # G+ and G- are sliced from _g on use, so a copy or pickle stays whole;
        # _g[..., s] always equals bank[traj_ids[..., s], cursors[..., s]]
        self._g = bank.gather(traj_ids, cursors)
        self._read_cache = None     # (W, column sums of G+ + G-) until a pulse

    def __getstate__(self):
        # a copy or pickle recomputes the cache, so its W is read-only too
        return {**self.__dict__, "_read_cache": None}

    @property
    def tech(self) -> DeviceTechParams:
        return self.ledger.tech

    @property
    def scale_s(self) -> float:
        return self.gain_kappa * self.tech.v_read

    @property
    def device_count(self) -> int:
        return 2 * self.n_in * self.n_out

    @classmethod
    def build(cls, n_in: int, n_out: int, bank: TrajectoryBank,
              rng: np.random.Generator, ledger: EnergyLedger, gain_kappa: float,
              pre_pulse_max: int):
        """Assemble an array from fresh bank draws.

        Each device starts on a freshly drawn trajectory and receives a
        uniform random number of symmetry-breaking pre-pulses (0..max); these
        land the pair differences in a usable weight range and do not count
        as training pulses.  Draws run device by device in (i, j, side)
        order, alternating trajectory and pre-pulse count.  They are made as
        one bounded draw per element over alternating bounds, which gives the
        same stream as two scalar draws per device.
        """
        shape = (n_out, n_in, 2)
        bounds = np.empty(4 * n_in * n_out, dtype=np.int64)
        bounds[0::2], bounds[1::2] = len(bank), pre_pulse_max + 1
        draws = rng.integers(0, bounds)
        traj_ids, pre = draws[0::2].reshape(shape), draws[1::2].reshape(shape)
        cursors = np.minimum(pre, bank.lengths[traj_ids] - 1)
        return cls(bank, traj_ids, cursors, ledger, gain_kappa)

    def conductances(self):
        """Current (G+, G-) matrices, shape (n_out, n_in) each."""
        return self._g[..., 0].copy(), self._g[..., 1].copy()

    def _cached(self):
        """(W, column sums of G+ + G-), computed once after each pulse step."""
        if self._read_cache is None:
            g_plus, g_minus = self._g[..., 0], self._g[..., 1]
            weights = self.scale_s * (g_plus - g_minus)
            weights.flags.writeable = False
            self._read_cache = weights, (g_plus + g_minus).sum(axis=0)
        return self._read_cache

    def map_weights(self) -> np.ndarray:
        """W = s * (G+ - G-); pure read, (n_out, n_in).

        Returns the array's cached W, which is read-only: copy it to change
        it.  Repeated calls between pulses return the same object.
        """
        return self._cached()[0]

    def read(self, x) -> np.ndarray:
        """Analog MAC of a batch (N, n_in): y = kappa * I = x @ W.T.

        Column currents are I_i = sum_j (G+_ij - G-_ij) x_j V_read.  Logs one
        read event and N * n_in * n_out MACs.  W and the column sums of
        G+ + G- come from the cache, so reads between pulses compute neither.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ValueError(f"input must have shape (N, {self.n_in}), got {x.shape}")
        weights, g_cols = self._cached()
        # every driven device contributes G * (x_j V_read)^2 * t_read
        self.ledger.record_read(float(g_cols @ (x ** 2).sum(axis=0)))
        self.ledger.record_macs(x.shape[0] * self.n_in * self.n_out)
        return x @ weights.T

    def apply_update_plan(self, plan, policy: OnExhaustion,
                          rng: np.random.Generator | None = None) -> PulseResult:
        """Apply one reset pulse per planned weight, as one array step.

        ``plan`` is ``(mask, side)`` as returned by ``threshold_sign_plan``:
        a boolean mask and an integer or boolean side array of 0 (G+) and
        1 (G-), both (n_out, n_in); any other plan raises ``ValueError``.
        Pulses are taken in sorted (i, j) order, which fixes the order of
        the ledger's pre-pulse conductances (the G entering the pulse-energy
        formula) and of the REINIT trajectory draws.  Exhausted devices are
        skipped or reinitialized per policy; reinit draws need an rng, and
        a reinitialized device pulses from sample 0 of its new trajectory.
        A pulse beyond the endurance budget raises
        :class:`EnduranceExceeded`; every refusal comes before any state
        changes.
        """
        mask, side = np.asarray(plan[0]), np.asarray(plan[1])
        if mask.dtype != bool or mask.shape != (self.n_out, self.n_in) \
                or side.shape != mask.shape or side.dtype.kind not in "biu":
            raise ValueError(f"plan needs a boolean mask and an integer side "
                             f"array, each {self.n_out}x{self.n_in}")
        # gathers and scatters go through 1-D views of the (contiguous) state:
        # device (i, j, side) sits at (i * n_in + j) * 2 + side
        flat_tid, flat_cur, flat_pulses, flat_g = (
            a.reshape(-1) for a in (self.traj_ids, self.cursors, self.pulse_counts,
                                    self._g))
        weight = mask.reshape(-1).nonzero()[0]
        ss = side.reshape(-1)[weight].astype(np.int64)
        if np.count_nonzero(ss >> 1):     # a side other than 0 or 1
            raise ValueError("plan side must be 0 (G+) or 1 (G-)")
        pos = weight * 2 + ss
        tid, nxt = flat_tid[pos], flat_cur[pos] + 1     # nxt: cursor after the pulse
        exhausted = nxt >= self.bank.lengths[tid]
        n_exhausted = int(np.count_nonzero(exhausted))
        skipped = reinits = 0
        if n_exhausted and policy is OnExhaustion.SKIP:
            live = ~exhausted
            pos, tid, nxt = pos[live], tid[live], nxt[live]
            skipped = n_exhausted
        elif n_exhausted:
            if rng is None:
                raise ValueError("REINIT policy needs an rng")
            reinits = n_exhausted
        lifetime = flat_pulses[pos]
        budget = self.tech.endurance_budget
        if len(pos) and lifetime.max() >= budget:
            k = int(np.argmax(lifetime >= budget))
            i, j, s = np.unravel_index(pos[k], self.traj_ids.shape)
            raise EnduranceExceeded(
                f"device ({i}, {j}, side {s}) at {lifetime[k]} lifetime "
                f"pulses (budget {budget})")
        # _g holds each device's G_pre; a reinitialized device pulses from
        # sample 0 of its new trajectory
        g_pre = flat_g[pos]
        if reinits:
            tid[exhausted] = rng.integers(0, len(self.bank), size=reinits)
            nxt[exhausted] = 1
            g_pre[exhausted] = self.bank.gather(tid[exhausted], 0)
            self.ledger.record_reinit(count=reinits)
        flat_g[pos] = self.bank.gather(tid, nxt)
        if reinits:
            flat_tid[pos] = tid
        flat_cur[pos] = nxt
        flat_pulses[pos] = lifetime + 1
        self._read_cache = None
        self.ledger.record_pulses(g_pre)
        return PulseResult(applied=len(pos), skipped=skipped, reinits=reinits)


_SNAPSHOT_HEADER = ["row", "col", "g_plus_uS", "g_minus_uS",
                    "pulse_index_plus", "pulse_index_minus"]


def save_snapshot_csv(array: CrossbarArray, path):
    """Persist the readable state of an array.

    One line per pair: row (input line), col (output column), conductances in
    microsiemens, and the replay cursors.
    """
    g_plus, g_minus = array.conductances()
    write_csv(path, _SNAPSHOT_HEADER,
              ([j, i, f"{g_plus[i, j] * 1e6:.9g}", f"{g_minus[i, j] * 1e6:.9g}",
                *array.cursors[i, j].tolist()]
               for i in range(array.n_out) for j in range(array.n_in)))


def load_snapshot_csv(path):
    """Read a snapshot back as conductance/index matrices.

    Returns a dict with g_plus, g_minus (S) and the two pulse-index arrays,
    all shaped (n_out, n_in).  Trajectories are not part of a snapshot, so
    this is a read-state restore (enough for aging and energy re-analysis),
    not a resumable training state.  Every (row, col) cell of the grid must
    appear exactly once, with finite, non-negative conductances.
    """
    cells = {}   # (row, col) -> (line, g_plus_uS, g_minus_uS, index+, index-)
    for line, (j, i, gp, gm, pp, pm) in read_csv(path, _SNAPSHOT_HEADER, lambda r: (
            int(r[0]), int(r[1]), float(r[2]), float(r[3]), int(r[4]), int(r[5]))):
        if j < 0 or i < 0:
            raise ParseError(f"{path}:{line}: negative row or col ({j}, {i})")
        if not (0 <= gp < math.inf and 0 <= gm < math.inf):
            raise ParseError(f"{path}:{line}: conductance must be finite and non-negative")
        if (j, i) in cells:
            raise ParseError(f"{path}:{line}: duplicate cell (row {j}, col {i}), "
                             f"first on line {cells[j, i][0]}")
        cells[j, i] = (line, gp, gm, pp, pm)
    if not cells:
        raise ParseError(f"{path}: empty snapshot")
    n_in, n_out = (max(cell[k] for cell in cells) + 1 for k in (0, 1))
    grid = ((j, i) for i in range(n_out) for j in range(n_in))
    if len(cells) < n_in * n_out:
        # a missing cell is among the first len(cells) + 1, however large the
        # grid that a stray row or col spans
        j, i = next(cell for cell in grid if cell not in cells)
        raise ParseError(f"{path}: no line for cell (row {j}, col {i}) "
                         f"of the {n_in} x {n_out} grid")
    _, gp, gm, pp, pm = np.array([cells[cell] for cell in grid]).T.reshape(5, n_out, n_in)
    return {"g_plus": gp * 1e-6, "g_minus": gm * 1e-6,
            "pulse_index_plus": pp.astype(int), "pulse_index_minus": pm.astype(int)}
