"""In-memory tracer for the memgrad benchmark.

The tracer replaces public memgrad functions with timing wrappers at every
module that holds them by name (``from .rules import threshold_sign_plan``
makes ``trainer.threshold_sign_plan`` a binding of its own), so calls are
caught whichever module makes them.  Step-level and run-level functions
record spans (name, start, end, parent, operation id); functions called per
pulse or per device only add to a call count and a total time.  A function
that the package no longer defines is listed as absent, never raised.

Spans live in memory until ``dump`` writes them when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import time

import numpy as np

SPAN, COUNT = "span", "count"

MODULES = ("memgrad", "memgrad.device", "memgrad.crossbar", "memgrad.rules",
           "memgrad.energy", "memgrad.data", "memgrad.trainer",
           "memgrad.config", "memgrad.cli", "memgrad.gradcheck")

# (metric name, defining module, attribute path, kind)
TARGETS = (
    ("rules.threshold_sign_plan", "rules", "threshold_sign_plan", SPAN),
    ("rules.cf_gradient", "rules", "cf_gradient", SPAN),
    ("rules.sff_gradient", "rules", "sff_gradient", SPAN),
    ("rules.bp_gradients", "rules", "bp_gradients", SPAN),
    ("device.apply_reset_pulse", "device", "apply_reset_pulse", COUNT),
    ("device.reinitialize", "device", "reinitialize", COUNT),
    ("device.pearson_coefficient", "device", "pearson_coefficient", COUNT),
    ("device.apply_retention_drift", "device", "apply_retention_drift", COUNT),
    ("device.generate_trajectory_bank", "device", "generate_trajectory_bank", SPAN),
    ("crossbar.CrossbarArray.apply_update_plan", "crossbar",
     "CrossbarArray.apply_update_plan", SPAN),
    ("crossbar.CrossbarArray.map_weights", "crossbar", "CrossbarArray.map_weights", SPAN),
    ("crossbar.CrossbarArray.build", "crossbar", "CrossbarArray.build", SPAN),
    ("crossbar.save_snapshot_csv", "crossbar", "save_snapshot_csv", SPAN),
    ("crossbar.load_snapshot_csv", "crossbar", "load_snapshot_csv", SPAN),
    ("energy.record_pulse", "energy", "EnergyLedger.record_pulse", COUNT),
    ("energy.record_read", "energy", "EnergyLedger.record_read", COUNT),
    ("energy.EnergyLedger.save", "energy", "EnergyLedger.save", SPAN),
    ("energy.EnergyLedger.load", "energy", "EnergyLedger.load", SPAN),
    ("energy.programming_energy", "energy", "programming_energy", SPAN),
    ("energy.read_energy", "energy", "read_energy", SPAN),
    ("data.make_cluster_task", "data", "make_cluster_task", SPAN),
    ("data.split", "data", "split", SPAN),
    ("trainer.make_run", "trainer", "make_run", SPAN),
    ("trainer.train", "trainer", "train", SPAN),
    ("trainer.evaluate", "trainer", "evaluate", SPAN),
    ("trainer.evaluate_weights", "trainer", "evaluate_weights", SPAN),
    ("trainer.simulate_aging", "trainer", "simulate_aging", SPAN),
    ("trainer.pulse_statistics", "trainer", "pulse_statistics", SPAN),
    ("config.build_training_run", "config", "build_training_run", SPAN),
    ("cli.main", "cli", "main", SPAN),
)

GRADIENTS = ("rules.cf_gradient", "rules.sff_gradient", "rules.bp_gradients")

# Per-layer metrics, in report order: (name, unit).  Every one is printed on
# every workload; a layer a workload does not reach reads 0.
PER_LAYER = (
    ("crossbar.CrossbarArray.apply_update_plan.s", "s"),
    ("crossbar.CrossbarArray.apply_update_plan.calls", "count"),
    ("rules.threshold_sign_plan.s", "s"),
    ("rules.threshold_sign_plan.calls", "count"),
    ("device.apply_reset_pulse.s", "s"),
    ("device.apply_reset_pulse.calls", "count"),
    ("energy.record_pulse.calls", "count"),
    ("crossbar.pulses_planned", "count"),
    ("crossbar.pulses_applied", "count"),
    ("crossbar.pulses_skipped", "count"),
    ("crossbar.reinits", "count"),
    ("crossbar.applied_ratio", "ratio"),
    ("rules.gradient.s", "s"),
    ("rules.gradient.calls", "count"),
    ("crossbar.CrossbarArray.map_weights.s", "s"),
    ("crossbar.CrossbarArray.map_weights.calls", "count"),
    ("trainer.evaluate.s", "s"),
    ("trainer.evaluate.calls", "count"),
    ("trainer.train.self_s", "s"),
    ("energy.EnergyLedger.save.s", "s"),
    ("energy.EnergyLedger.load.s", "s"),
    ("energy.ledger_bytes", "bytes"),
    ("energy.ledger_pulse_count", "count"),
    ("energy.programming_energy.s", "s"),
    ("energy.read_energy.s", "s"),
    ("energy.record_read.calls", "count"),
    ("crossbar.load_snapshot_csv.s", "s"),
    ("crossbar.save_snapshot_csv.s", "s"),
    ("device.apply_retention_drift.s", "s"),
    ("device.apply_retention_drift.calls", "count"),
    ("trainer.evaluate_weights.s", "s"),
    ("trainer.evaluate_weights.calls", "count"),
    ("trainer.simulate_aging.s", "s"),
    ("device.reinitialize.calls", "count"),
    ("device.pearson_coefficient.s", "s"),
    ("device.generate_trajectory_bank.s", "s"),
    ("device.generate_trajectory_bank.calls", "count"),
    ("crossbar.CrossbarArray.build.s", "s"),
    ("config.build_training_run.self_s", "s"),
    ("data.make_cluster_task.s", "s"),
    ("data.split.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class Stat:
    """Call count, total and self time of one traced function."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self, calls=0, total=0.0, self_time=0.0):
        self.calls = calls
        self.total = total
        self.self_time = self_time


def _plan_size(plan) -> int:
    """Planned pulses: an UpdatePlan's actions, or the non-zeros of a mask."""
    actions = getattr(plan, "actions", None)
    if actions is not None:
        return len(actions)
    mask = plan[0] if isinstance(plan, tuple) else plan
    return int(np.count_nonzero(mask))


class Tracer:
    """Wraps memgrad's public functions while installed; see module docstring."""

    def __init__(self):
        self.stats = {name: Stat() for name, *_ in TARGETS}
        self.counters = {"crossbar.pulses_planned": 0, "crossbar.pulses_applied": 0,
                         "crossbar.pulses_skipped": 0, "crossbar.reinits": 0,
                         "energy.ledger_pulse_count": 0, "energy.ledger_bytes": 0}
        self.op_counters: dict[str, dict[str, int]] = {}   # per operation id
        self.hits: dict[str, int] = {}       # "module.attr" binding -> calls
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.op = ""
        self._stack: list[list] = []         # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []      # (owner, attr, original)

    # -------------------------------------------------------------- install

    def install(self):
        modules = {name: importlib.import_module(name) for name in MODULES}
        for metric, home, path, kind in TARGETS:
            owner = modules["memgrad." + home]
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(metric)
                continue
            if cls_name:
                wrapped = self._wrap(metric, kind, _unwrap(raw), f"{home}.{path}")
                self._patch(owner, attr, raw, _rewrap(raw, wrapped))
                continue
            for mod_name, mod in modules.items():
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        binding = f"{mod_name.removeprefix('memgrad.')}.{name}"
                        self._patch(mod, name, raw,
                                    self._wrap(metric, kind, raw, binding))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def count(self, name: str, value: int):
        """Add to a run-wide counter and to the current operation's."""
        self.counters[name] = self.counters.get(name, 0) + value
        per_op = self.op_counters.setdefault(self.op, {})
        per_op[name] = per_op.get(name, 0) + value

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap(self, metric, kind, fn, binding):
        stat, hits, perf = self.stats[metric], self.hits, time.perf_counter
        hits.setdefault(binding, 0)
        hook = _HOOKS.get(metric)

        if kind == COUNT:
            def counted(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stat.calls += 1
                    stat.total += perf() - t0
                    hits[binding] += 1
            return counted

        stack, spans = self._stack, self.spans

        def spanned(*args, **kwargs):
            done = hook(self, args, kwargs) if hook else None
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                stat.calls += 1
                stat.total += t1 - t0
                stat.self_time += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                hits[binding] += 1
                spans.append((metric, t0, t1, parent, span_id, self.op))
            if done:
                done(result)
            return result
        return spanned

    # -------------------------------------------------------------- results

    def merge(self, payload: dict):
        """Add a child process's dumped aggregates and spans to this tracer."""
        for name, (calls, total, self_time) in payload["stats"].items():
            stat = self.stats.setdefault(name, Stat())
            stat.calls += calls
            stat.total += total
            stat.self_time += self_time
        for name, value in payload["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        for op, counters in payload["op_counters"].items():
            self.op_counters.setdefault(op, {}).update(counters)
        for binding, count in payload["hits"].items():
            self.hits[binding] = self.hits.get(binding, 0) + count
        self.absent = sorted(set(self.absent) | set(payload["absent"]))
        # span ids are per process: shift the child's past this tracer's
        offset = self._next_id
        for name, t0, t1, parent, span_id, op in payload["spans"]:
            self.spans.append((name, t0, t1, parent + offset if parent >= 0 else -1,
                               span_id + offset, op))
            self._next_id = max(self._next_id, span_id + offset + 1)

    def payload(self) -> dict:
        return {"stats": {k: [s.calls, s.total, s.self_time] for k, s in self.stats.items()},
                "counters": self.counters, "op_counters": self.op_counters,
                "hits": self.hits,
                "absent": self.absent, "spans": self.spans}

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(self.payload(), f)

    def metrics(self) -> dict:
        """Per-layer values for every PER_LAYER name except the trace.* ones."""
        s, c = self.stats, self.counters
        out = {}
        for name, stat in s.items():
            out[name + ".s"] = stat.total
            out[name + ".calls"] = stat.calls
            out[name + ".self_s"] = stat.self_time
        out["rules.gradient.s"] = sum(s[g].total for g in GRADIENTS)
        out["rules.gradient.calls"] = sum(s[g].calls for g in GRADIENTS)
        out.update(c)
        planned = c["crossbar.pulses_planned"]
        out["crossbar.applied_ratio"] = c["crossbar.pulses_applied"] / planned if planned else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def cross_checks(self) -> list[tuple[str, bool, str]]:
        """Counter agreement checks: (name, passed, detail)."""
        c = self.counters
        applied = c["crossbar.pulses_applied"]
        checks = [("planned == applied + skipped",
                   c["crossbar.pulses_planned"] == applied + c["crossbar.pulses_skipped"],
                   f"{c['crossbar.pulses_planned']} vs {applied} + {c['crossbar.pulses_skipped']}"),
                  ("applied == ledger.pulse_count",
                   applied == c["energy.ledger_pulse_count"],
                   f"{applied} vs {c['energy.ledger_pulse_count']}")]
        if "energy.record_pulse" not in self.absent:
            calls = self.stats["energy.record_pulse"].calls
            checks.append(("applied == record_pulse calls", applied == calls,
                           f"{applied} vs {calls}"))
        return checks


def _unwrap(raw):
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


def _rewrap(raw, fn):
    return type(raw)(fn) if isinstance(raw, (classmethod, staticmethod)) else fn


# ------------------------------------------------------------------ hooks
# A hook runs before the wrapped call and returns a callable that receives
# the result (or None).  Hooks read only public state.

def _update_plan_hook(tracer: Tracer, args, kwargs):
    array, plan = args[0], args[1] if len(args) > 1 else kwargs["plan"]
    before = int(array.pulse_counts.sum())
    reinits = tracer.stats["device.reinitialize"].calls

    def done(report):
        planned = _plan_size(plan)
        applied = int(array.pulse_counts.sum()) - before
        tracer.count("crossbar.pulses_planned", planned)
        tracer.count("crossbar.pulses_applied", applied)
        tracer.count("crossbar.pulses_skipped",
                     int(getattr(report, "skipped", planned - applied)))
        tracer.count("crossbar.reinits",
                     tracer.stats["device.reinitialize"].calls - reinits)
    return done


def _train_hook(tracer: Tracer, args, kwargs):
    def done(run):
        ledger = getattr(run, "ledger", None)
        if ledger is not None:
            tracer.count("energy.ledger_pulse_count", int(ledger.pulse_count))
    return done


def _ledger_save_hook(tracer: Tracer, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]

    def done(_):
        tracer.count("energy.ledger_bytes", os.path.getsize(path))
    return done


_HOOKS = {
    "crossbar.CrossbarArray.apply_update_plan": _update_plan_hook,
    "trainer.train": _train_hook,
    "energy.EnergyLedger.save": _ledger_save_hook,
}
