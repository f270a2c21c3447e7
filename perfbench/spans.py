"""In-memory spans recorded around calls into the measured program.

Times come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux,
so a server process's spans line up with its client's clock).

The benchmark never edits the program: :class:`Tracer` replaces a public
function at the module (or class) attribute its caller resolves with a
wrapper that records one span per call, and puts the original back on
:meth:`Tracer.uninstall`.  Spans nest through a stack (the program is
synchronous between awaits), carry an optional request key, and stay in
memory until :meth:`Tracer.dump` writes them out.

A layer's *self time* is its spans' duration minus the part covered by
its child spans; *coverage* is the share of a wall-time window covered
by the union of top-level spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span id, name, start, end, parent id or -1, request key or None)
Span = Tuple[int, str, float, float, int, Any]

OnResult = Callable[[tuple, dict, Any, float, float], None]


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             on_result: Optional[OnResult] = None, key: Any = None) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, name, 0.0, 0.0, parent, key))
        self._stack.append(sid)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, key)
        if on_result is not None:
            on_result(args, kwargs, result, start, end)
        return result

    # -- patching --------------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> Any:
        """Set ``owner.attr`` to ``replacement``; returns the original."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)
        return original

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Optional[OnResult] = None,
             name_of: Optional[Callable[[tuple, dict], str]] = None) -> None:
        """Record a span around every call of the sync ``owner.attr``.

        ``name_of(args, kwargs)`` may refine the span name per call (for
        example by the test a kernel call runs).
        """
        original = getattr(owner, attr)
        if inspect.iscoroutinefunction(original):
            raise TypeError(f"{attr} is a coroutine function; spans wrap sync calls")
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_name = name_of(args, kwargs) if name_of is not None else name
            return tracer.call(span_name, original, args, kwargs, on_result)

        self.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def busy(self, name: str, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Summed duration of spans called ``name`` starting in [t0, t1)."""
        return sum(e - s for _, n, s, e, _, _ in self.spans if n == name and t0 <= s < t1)

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, s, e, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += e - s
        out: Dict[str, float] = defaultdict(float)
        for sid, name, s, e, _, _ in self.spans:
            out[name] += (e - s) - child_time[sid]
        return dict(out)

    def coverage(self, t0: float, t1: float) -> float:
        """Share of [t0, t1] covered by the union of top-level spans."""
        if t1 <= t0:
            return float("nan")
        intervals = sorted(
            (max(s, t0), min(e, t1))
            for _, _, s, e, parent, _ in self.spans
            if parent < 0 and e > t0 and s < t1
        )
        covered = 0.0
        cur_s = cur_e = None
        for s, e in intervals:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        return covered / (t1 - t0)

    @classmethod
    def load(cls, path: Path) -> "Tracer":
        """A tracer holding the spans and counts another process dumped."""
        with open(path) as fh:
            payload = json.load(fh)
        tr = cls()
        tr.spans = [tuple(s) for s in payload["spans"]]  # type: ignore[misc]
        tr.counts.update(payload["counts"])
        return tr

    def dump(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write spans, counts and per-name self times as one JSON file
        (atomically: readers see the old file or the whole new one)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "key"],
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "self_time_s": self.self_times(),
        }
        if extra:
            payload.update(extra)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w") as fh:
            json.dump(payload, fh, default=str)
        os.replace(tmp, path)
