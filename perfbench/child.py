"""Run one espider CLI call in this fresh interpreter and record its timing.

    python3 perfbench/child.py --record FILE [--trace] -- ARGS...

Imports espider from the checkout's ``src``, notes the time each stdout line
is written, calls ``espider.cli.main(ARGS)`` and writes a JSON record to
FILE: when the call began and ended, the line times, the exit code, the
peak resident set and, with ``--trace``, the spans of every wrapped layer.
All times are ``time.monotonic()``, a clock the parent shares.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class LineClock:
    """Stands in for sys.stdout and notes when each line is written, so row
    times do not depend on how the pipe buffers them."""

    def __init__(self, stream):
        self.stream = stream
        self.times: list[float] = []

    def write(self, text):
        written = self.stream.write(text)
        if "\n" in text:
            now = time.monotonic()
            self.times.extend([now] * text.count("\n"))
        return written

    def __getattr__(self, name):
        return getattr(self.stream, name)


def use_checkout_src() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--record", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    use_checkout_src()
    import espider._subsets
    import espider.cli

    record = {"have_compiled": bool(espider._subsets.HAVE_COMPILED)}
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    clock = LineClock(sys.stdout)
    sys.stdout = clock
    code = None
    record["t_main"] = time.monotonic()
    try:
        code = espider.cli.main(cli_args)
    finally:
        record["t_end"] = time.monotonic()
        sys.stdout = clock.stream
        sys.stdout.flush()
        record["lines"] = clock.times
        record["exit"] = code
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            record["trace"] = tracer.dump()
        _write(args.record, record)
    return code


def _write(path, record) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
