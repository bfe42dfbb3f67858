"""Run one memgrad CLI command under the tracer.

    python3 perfbench/child.py TRACE_OUT OP_ID memgrad-args...

The tracer's aggregates and spans are written to TRACE_OUT when the command
ends; the exit code is the command's.
"""

import sys

import tracing


def main() -> int:
    trace_out, op, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from memgrad import cli
    tracer = tracing.Tracer()
    tracer.op = op
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
