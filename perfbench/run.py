"""memgrad benchmark.

    python3 perfbench/run.py --workload {desk,cli_pipeline,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; memgrad is imported from ``src/``.
With ``--trace 0`` the end-to-end metrics are measured with tracing off;
with ``--trace 1`` one untraced share of the run is followed by one traced
pass, which gives the per-layer metrics and the tracing overhead.  Every
operation's output is checked against ``reference.json`` (where the seed
has one) and against the run's first pass.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
SETUP_SAMPLES = 5
MIN_PASSES = 2        # the second pass also checks that outputs repeat

def _env_record() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "loadavg_before": list(os.getloadavg())}


def _measure_setup(command, env) -> float:
    """Median wall time of a fresh process doing the workload's set-up.

    One untimed run first, so that bytecode compilation of a fresh checkout
    (paid once per install) is not counted.
    """
    def once():
        t0 = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        return time.perf_counter() - t0
    once()
    return statistics.median(once() for _ in range(SETUP_SAMPLES))


def _passes(workload, gate, budget_s, min_passes, log, trace_dir=None):
    """Run whole passes while the next one is predicted to fit in budget_s."""
    walls, passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = workload.run_pass(trace_dir)
        walls.append(time.perf_counter() - t0)
        passes.append(ops)
        _check_ops(ops, gate, len(passes), log)
        elapsed = time.perf_counter() - start
        if len(walls) >= min_passes and elapsed + statistics.median(walls) > budget_s:
            return walls, passes


def _check_ops(ops, gate, pass_no, log):
    from gate import digest
    for op in ops:
        if op.outcome is None:
            op.diffs = [f"failed: {op.error.strip()}"]
        else:
            op.diffs = gate.check(op.name, op.outcome)
        status = "ok" if not op.diffs else "FAILED"
        short = digest(op.outcome) if op.outcome else "-"
        log(f"op pass={pass_no} {op.name} {op.seconds:.4f} s digest={short} {status}")
        for d in op.diffs:
            log(f"  {op.name}: {d}")


def _group_medians(passes) -> dict:
    per_pass = []
    for ops in passes:
        groups: dict[str, float] = {}
        for op in ops:
            groups[op.group] = groups.get(op.group, 0.0) + op.seconds
        per_pass.append(groups)
    return {g: statistics.median(p[g] for p in per_pass) for g in per_pass[0]}


def _traced_pass(workload, work):
    """One pass under the tracer: in this process for desk, through child.py
    for the CLI workloads.  Returns (ops, wall seconds, tracer)."""
    import tracing
    from workloads import Desk

    tracer = tracing.Tracer()
    if isinstance(workload, Desk):
        tracer.install()
        try:
            tracer.op = "setup"
            workload.prepare()
            workload.tracer = tracer
            t0 = time.perf_counter()
            ops = workload.run_pass()
            wall = time.perf_counter() - t0
        finally:
            workload.tracer = None
            tracer.uninstall()
        return ops, wall, tracer
    trace_dir = work / "child-traces"
    trace_dir.mkdir()
    t0 = time.perf_counter()
    ops = workload.run_pass(trace_dir)
    wall = time.perf_counter() - t0
    for path in sorted(trace_dir.glob("*.json")):
        tracer.merge(json.loads(path.read_text()))
    return ops, wall, tracer


def run_workload(name, seed, seconds, trace, log) -> dict:
    import gate as gate_mod
    import tracing
    from workloads import WORKLOADS, CliPipeline, Desk, child_env

    env_rec = _env_record()
    work = WORK / f"{name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(ROOT)
    workload = WORKLOADS[name](seed, work, sys.executable, env)
    gate = gate_mod.Gate(name, seed)
    log(f"workload {name} seed={seed} seconds={seconds} trace={trace} "
        f"reference={'yes' if gate.has_reference else 'no'}")
    workload.prepare()

    record = {"workload": name, "seed": seed, "trace": trace, "env": env_rec}
    metrics: dict[str, tuple[float, str]] = {}
    checks_ok = True
    if not trace:
        setup_s = _measure_setup(workload.setup_command, env)
        walls, passes = _passes(workload, gate, seconds, MIN_PASSES, log)
        usage = resource.RUSAGE_SELF if isinstance(workload, Desk) \
            else resource.RUSAGE_CHILDREN
        metrics["setup_s"] = (setup_s, "s")
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(usage).ru_maxrss / 1024, "MiB")
        detail = {k: (v, "s") for k, v in sorted(_group_medians(passes).items())}
        if isinstance(workload, CliPipeline):
            files = workload.artifact_bytes()
            record["artifact_bytes"] = files
            detail["artifact_mb"] = (sum(files.values()) / 1e6, "MB")
            for rel, size in files.items():
                log(f"artifact {rel} {size} bytes")
            ledger = {k: v for k, v in files.items() if k.endswith("ledger.json")}
            log(f"artifact ledger.json {sum(ledger.values())} bytes")
    else:
        walls, passes = _passes(workload, gate, seconds / 2, 1, log)
        ops, traced_wall, tracer = _traced_pass(workload, work)
        _check_ops(ops, gate, len(passes) + 1, log)
        passes.append(ops)
        values = tracer.metrics()
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - statistics.median(walls)
        for metric, unit in tracing.PER_LAYER:
            metrics[metric] = (values[metric], unit)
        for check, ok, text in tracer.cross_checks():
            log(f"cross-check {check}: {'ok' if ok else 'FAILED'} ({text})")
            checks_ok = checks_ok and ok
        for op, counters in tracer.op_counters.items():
            for counter in ("crossbar.pulses_planned", "crossbar.pulses_applied",
                            "crossbar.pulses_skipped", "crossbar.reinits"):
                if counter in counters:
                    log(f"op-counter {op} {counter} {counters[counter]}")
        for binding, hits in sorted(tracer.hits.items()):
            log(f"binding {binding} {hits} calls")
        for absent in tracer.absent:
            log(f"absent {absent}")
        detail = {"untraced_wall_s": (statistics.median(walls), "s")}
        record["hits"] = tracer.hits
        record["absent"] = tracer.absent
        record["op_counters"] = tracer.op_counters
        (work / "spans.json").write_text(json.dumps(tracer.spans))

    record["walls"] = walls
    attempted = sum(len(ops) for ops in passes)
    failed = sum(1 for ops in passes for op in ops if op.diffs)
    env_rec["loadavg_after"] = list(os.getloadavg())
    log(f"env {json.dumps(env_rec, sort_keys=True)}")
    for metric, (value, unit) in list(metrics.items()) + list(detail.items()):
        log(f"metric {name} {metric} {value:.6g} {unit}")
    log(f"ops {name} failed {failed} of {attempted}")
    record.update(metrics={k: v for k, (v, _) in metrics.items()},
                  detail={k: v for k, (v, _) in detail.items()},
                  attempted=attempted, failed=failed, cross_checks_ok=checks_ok,
                  ops=[[(op.name, op.seconds, op.diffs) for op in ops] for ops in passes])
    (work / "result.json").write_text(json.dumps(record, indent=1))
    for sub in (CliPipeline.out, CliPipeline.char_out):
        shutil.rmtree(work / sub, ignore_errors=True)
    return {"correct": failed == 0 and checks_ok, "attempted": attempted,
            "failed": failed, "metrics": metrics, "record": record}


def bootstrap() -> str:
    """Make ``import memgrad`` load this checkout's ``src/``; returns an error."""
    src = ROOT / "src"
    if not (src / "memgrad" / "__init__.py").is_file():
        return f"no memgrad sources under {src}; run from a source checkout"
    # cap BLAS threads before numpy is first imported, here and in children
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import memgrad
    if Path(memgrad.__file__).resolve().parent != (src / "memgrad").resolve():
        return f"imported memgrad from {memgrad.__file__}, not {src}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["desk", "cli_pipeline", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (run seeds seed numpy SeedSequences)")

    error = bootstrap()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    names = ["desk", "cli_pipeline"] if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace,
                               lambda line: print(line, flush=True)) for n in names}
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
