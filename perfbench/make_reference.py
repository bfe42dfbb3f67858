"""Write reference.json: every operation's outcome for the given seeds.

    python3 perfbench/make_reference.py [SEED ...]      (default: 0)

The reference pins the outputs of the commit that defined the benchmark.
Regenerating it hides a behaviour change from the gate, so a commit that
rewrites it must say which outputs changed and why.
"""

import json
import shutil
import sys

import run


def main(argv) -> int:
    error = run.bootstrap()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import gate
    from workloads import WORKLOADS, child_env

    seeds = [int(s) for s in argv] or [0]
    env = child_env(run.ROOT)
    reference = gate.load_reference()
    for name, cls in WORKLOADS.items():
        for seed in seeds:
            work = run.WORK / f"reference-{name}-s{seed}"
            shutil.rmtree(work, ignore_errors=True)
            workload = cls(seed, work, sys.executable, env)
            workload.prepare()
            ops = workload.run_pass()
            failed = [op for op in ops if op.outcome is None]
            if failed:
                print(failed[0].error, file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = {op.name: op.outcome for op in ops}
            shutil.rmtree(work, ignore_errors=True)
            print(f"{name} seed {seed}: {len(ops)} operations", flush=True)
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
