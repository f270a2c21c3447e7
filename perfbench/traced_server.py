"""Run ``repro-service`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/traced_server.py SPANS.json [repro-service args]``.

The wrappers go in before the service is built (its batchers bind
``BatchEngine.process_batch`` at construction).  On SIGUSR1, and again
on shutdown (SIGINT), the spans, the per-request queue waits, batch
sizes and server-side request times are written to ``SPANS.json``.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

import benchlib
from layers import ServiceLayers
from spans import Tracer


def main(argv: list) -> int:
    out, args = Path(argv[0]), argv[1:]
    benchlib.pin_program()
    tr = Tracer()
    layers = ServiceLayers(tr)
    layers.install()
    from repro.service.cli import main as serve

    def dump(*_: object) -> None:
        tr.dump(out, {
            "queue_waits": layers.queue_waits,
            "batch_sizes": layers.batch_sizes,
            "server_times": layers.server_times,
        })

    signal.signal(signal.SIGUSR1, dump)
    try:
        return serve(args)
    finally:
        dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
