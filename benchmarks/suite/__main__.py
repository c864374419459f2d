"""``python -m benchmarks.suite run|trace [run.py options]``.

``run`` measures the end-to-end metrics untraced; ``trace`` measures
the same workloads and seed without and with span wrappers installed
and reports the per-layer metrics and the trace overhead.  Both take
``run.py``'s options (``--workload``, ``--seed``, ``--seconds``,
``--out``) and default to all four workloads.
"""

import sys

from benchmarks.suite import run

COMMANDS = {"run": "0", "trace": "1"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        print("usage: python -m benchmarks.suite {run,trace} [--workload W] "
              "[--seed S] [--seconds N] [--out DIR]", file=sys.stderr)
        return 2
    return run.main([*argv[1:], "--trace", COMMANDS[argv[0]]])


if __name__ == "__main__":
    sys.exit(main())
