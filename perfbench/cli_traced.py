"""Runs `python -m alphaleak.cli <args>` with every layer traced.

Used by the traced run of the `cli` workload in place of `-m alphaleak.cli`.
On exit it writes the spans and accuracy counters to $PERFBENCH_SPANS.
"""

import json
import os
import runpy
import sys

import alphaleak  # noqa: F401  (loads every layer before wrapping)
import tracer as tr

if __name__ == "__main__":
    tracer = tr.Tracer()
    tracer.install()
    code = 0
    try:
        with tracer.span("cli.main") as root:
            try:
                runpy.run_module("alphaleak.cli", run_name="__main__", alter_sys=True)
            except SystemExit as exc:  # the CLI always ends through sys.exit
                code = exc.code
                if code not in (0, None):
                    tracer.spans[root][4] = f"exit {code}"
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters()}, fh)
    sys.exit(code)
