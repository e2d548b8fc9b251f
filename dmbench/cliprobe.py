"""Fresh-interpreter probes of the CLI, one per process.

    python3 dmbench/cliprobe.py import
        prints {"import_ms"}: wall time of ``import dmajor.cli`` in-process;
        run it under ``-X importtime`` for the per-package breakdown.
    python3 dmbench/cliprobe.py main -- ARGV...
        prints {"main_ms", "exit"}: ``dmajor.cli.main(ARGV)`` timed after import.
    python3 dmbench/cliprobe.py trace -- ARGV...
        runs ``main(ARGV)`` under the tracer and prints {"exit", "stdout", "spans"}.

The report is the last line of standard output; the CLI's own report is
captured in memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv: list[str]) -> int:
    mode, cli_argv = argv[0], argv[2:]
    clock = time.perf_counter
    t0 = clock()
    import dmajor.cli
    import_ms = (clock() - t0) * 1e3
    if mode == "import":
        print(json.dumps({"import_ms": import_ms}))
        return 0
    captured = io.StringIO()
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        t0 = clock()
        with contextlib.redirect_stdout(captured):
            code = dmajor.cli.main(cli_argv)
        main_ms = (clock() - t0) * 1e3
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {"main_ms": main_ms, "exit": code}
    if tracer is not None:
        report.update(stdout=captured.getvalue(), spans=tracer.rows())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
