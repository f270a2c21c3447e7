"""Start, time and stop the benchmark's child processes.

Every child gets :func:`benchlib.child_env`, runs from the checkout
root, and is waited for; :meth:`Child.stop` escalates SIGINT → SIGKILL.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

import benchlib


def _default_sigint() -> None:
    # A shell without job control starts background jobs with SIGINT
    # ignored, and children inherit that: :meth:`Child.stop` needs the
    # default, which Python turns into KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Child:
    """A started process plus what it printed on stdout so far."""

    def __init__(self, cmd: List[str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=benchlib.child_env(), cwd=benchlib.ROOT,
            preexec_fn=_default_sigint,
        )
        self.buffer = b""

    def wait_for(self, marker: str, timeout: float) -> Tuple[str, float]:
        """Read stdout until a line containing ``marker``; returns that
        line and the seconds from process start."""
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.perf_counter() + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                while b"\n" in self.buffer:
                    line, self.buffer = self.buffer.split(b"\n", 1)
                    text = line.decode(errors="replace")
                    if marker in text:
                        return text, time.perf_counter() - self.started
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise TimeoutError(f"no {marker!r} within {timeout:.0f}s")
                if not sel.select(left):
                    continue
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"process exited (code {self.proc.wait()}) before {marker!r}")
                self.buffer += chunk

    def finish(self, timeout: float) -> str:
        """Wait for exit; returns the rest of stdout."""
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            raise
        return (self.buffer + (out or b"")).decode(errors="replace")

    def request_dump(self, path: Path, timeout: float = 30.0) -> None:
        """SIGUSR1 the process and wait until it has written ``path``."""
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + timeout
        while not path.exists():
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"no span dump at {path}")
            time.sleep(0.05)

    def stop(self, grace: float = 10.0) -> None:
        """SIGINT, then SIGKILL after ``grace`` seconds; always reaps."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.communicate(timeout=grace)
            except subprocess.TimeoutExpired:
                print(f"perfbench: pid {proc.pid} ignored SIGINT for {grace:.0f}s; killed",
                      file=sys.stderr)
                proc.kill()
                proc.communicate()
        elif proc.stdout is not None and not proc.stdout.closed:
            proc.communicate()
