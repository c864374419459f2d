"""Run ``repro serve`` with the benchmark's span wrappers installed.

The traced serve-mix run launches the server through this module instead
of ``python -m repro``: it installs the wrappers of ``spans.TARGETS``,
then calls ``repro.cli.main`` with the remaining argv unchanged.  When
the server has drained and returned, every recorded span is written as
JSON to ``--spans-out`` for the load generator to analyse.

Usage (from the repository root)::

    PYTHONPATH=src:. python -m benchmarks.suite.serve_traced \\
        --spans-out .bench_out/spans.json serve --port 0
"""

from __future__ import annotations

import json
import sys

from benchmarks.suite import spans


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[0] != "--spans-out":
        print("usage: serve_traced.py --spans-out PATH <repro argv...>",
              file=sys.stderr)
        return 2
    path, cli_argv = argv[1], argv[2:]
    recorder = spans.Recorder()
    installation = spans.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_argv)
    finally:
        installation.uninstall()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": recorder.export(), "unresolved": installation.missing},
                handle,
            )


if __name__ == "__main__":
    sys.exit(main())
