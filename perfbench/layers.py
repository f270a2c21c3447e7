"""Span wrappers at the program's public layer boundaries.

Each installer patches the attributes the program's own callers resolve
(module globals of the calling module, or methods on the class) and
counts the work each call did from its arguments and result.  Nothing
inside the program changes; :meth:`Tracer.uninstall` undoes it all.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from benchlib import metric, percentile
from spans import Tracer


def install_sweep_layers(tr: Tracer) -> None:
    """Sampling, the three analytical kernels and the batched simulator,
    as :func:`repro.experiments.acceptance.acceptance_experiment` calls
    them."""
    from repro.experiments import acceptance as acc

    def kept(args: tuple, kwargs: dict, res: Any, s: float, e: float) -> None:
        tr.counts["gen.rows_kept"] += 0 if res is None else res.count

    def drawn(args: tuple, kwargs: dict, res: Any, s: float, e: float) -> None:
        tr.counts["gen.rows_drawn"] += res.count

    def simulated(args: tuple, kwargs: dict, res: Any, s: float, e: float) -> None:
        tr.counts["sim.events"] += int(res.events.sum())
        tr.counts["sim.kernel_passes"] += res.kernel_passes
        tr.counts["sim.event_steps"] += res.event_steps
        tr.counts["sim.budget_exceeded"] += int(res.budget_exceeded.sum())

    tr.wrap(acc, "feasible_batch_at", "gen", kept)
    tr.wrap(acc, "binned_batch_at", "gen", kept)
    tr.wrap(acc, "generate_batch", "gen.draw", drawn)
    for test in ("dp", "gn1", "gn2"):
        def rows(args: tuple, kwargs: dict, res: Any, s: float, e: float,
                 test: str = test) -> None:
            tr.counts[f"{test}.rows"] += len(res)
        tr.wrap(acc, f"{test}_accepts", test, rows)
    tr.wrap(acc, "simulate_batch", "sim", simulated)


class ServiceLayers:
    """Batcher, engine, kernel and protocol boundaries of ``repro.service``.

    Install before the :class:`~repro.service.app.AdmissionService` is
    built: its batchers bind ``engine.process_batch`` at construction.
    """

    def __init__(self, tr: Tracer) -> None:
        self.tr = tr
        #: (batch start, seconds from submit to batch start) per request.
        self.queue_waits: List[Tuple[float, float]] = []
        #: (batch start, requests in the batch) per batch.
        self.batch_sizes: List[Tuple[float, int]] = []
        #: (encode end, seconds from parse start) per HTTP request.
        self.server_times: List[Tuple[float, float]] = []
        self._enqueued: Dict[int, Tuple[Any, float]] = {}
        self._parsed: Dict[int, Tuple[Any, float, int]] = {}
        self._decided: Dict[int, Tuple[Any, float, int]] = {}
        self._serial = 0

    def window(self, series: List[Tuple[float, Any]], t0: float, t1: float) -> List[Any]:
        """Values of a ``(time, value)`` series recorded in [t0, t1)."""
        return [v for t, v in series if t0 <= t < t1]

    def install(self) -> None:
        from repro.service import batcher, engine, http

        tr = self.tr
        original_submit = batcher.MicroBatcher.submit

        async def submit(batcher_self: Any, request: Any) -> Any:
            self._enqueued[id(request)] = (request, tr.clock())
            return await original_submit(batcher_self, request)

        tr.patch(batcher.MicroBatcher, "submit", submit)

        original_process = engine.BatchEngine.process_batch

        def process_batch(engine_self: Any, requests: Any) -> Any:
            start = tr.clock()
            for req in requests:
                item = self._enqueued.pop(id(req), None)
                if item is not None:
                    self.queue_waits.append((start, start - item[1]))
            decisions = tr.call("engine", original_process, (engine_self, requests), {})
            self.batch_sizes.append((start, len(requests)))
            for req, decision in zip(requests, decisions):
                parsed = self._parsed.pop(id(req), None)
                if parsed is not None:
                    self._decided[id(decision)] = (decision, parsed[1], parsed[2])
            return decisions

        tr.patch(engine.BatchEngine, "process_batch", process_batch)

        def kernel_name(args: tuple, kwargs: dict) -> str:
            return "kernel." + kwargs.get("tests", ("DP", "GN1", "GN2"))[0].lower()

        tr.wrap(engine, "accept_masks", "kernel", name_of=kernel_name)

        original_parse = http.parse_request

        def parse_request(op: str, obj: Any) -> Any:
            start = tr.clock()
            self._serial += 1
            request = tr.call(
                "protocol.parse", original_parse, (op, obj), {}, key=self._serial
            )
            self._parsed[id(request)] = (request, start, self._serial)
            return request

        tr.patch(http, "parse_request", parse_request)

        original_encode = http.decision_to_json

        def decision_to_json(decision: Any) -> Any:
            item = self._decided.pop(id(decision), None)
            key = item[2] if item is not None else None
            out = tr.call("protocol.encode", original_encode, (decision,), {}, key=key)
            if item is not None:
                end = tr.clock()
                self.server_times.append((end, end - item[1]))
            return out

        tr.patch(http, "decision_to_json", decision_to_json)


def service_layer_metrics(tr: Tracer, layers: ServiceLayers, before: Dict[str, Any],
                          after: Dict[str, Any], t0: float, t1: float) -> Dict[str, Any]:
    """Batcher, engine and kernel metrics over [t0, t1): busy times from
    spans, counters from two snapshots of the service's own metrics."""

    def delta(key: str, sub: Optional[str] = None) -> float:
        a, b = after[key], before[key]
        if sub is not None:
            a, b = a.get(sub, 0), b.get(sub, 0)
        return a - b

    waits = layers.window(layers.queue_waits, t0, t1)
    sizes = layers.window(layers.batch_sizes, t0, t1)
    certified, unknown = delta("certifier", "certified"), delta("certifier", "unknown")
    out = {
        "engine.busy_s": metric(tr.busy("engine", t0, t1), "s"),
        "engine.rounds_per_batch": metric(
            ratio(delta("rounds_total"), delta("batches_total")), "ratio"),
        "engine.kernel_calls": metric(delta("kernel_calls_total"), "count"),
        "engine.kernel_rows": metric(delta("kernel_rows_total"), "count"),
        "engine.rows_per_kernel_decision": metric(
            ratio(delta("kernel_rows_total"), delta("by_via", "kernel")), "ratio"),
        "engine.certifier_hit_rate": metric(ratio(certified, certified + unknown), "ratio"),
        "engine.domain_errors": metric(delta("errors_total"), "count"),
        "batcher.queue_wait_p50_ms": metric(percentile(waits, 50) * 1e3, "ms"),
        "batcher.queue_wait_p99_ms": metric(percentile(waits, 99) * 1e3, "ms"),
        "batcher.batch_size_mean": metric(ratio(sum(sizes), len(sizes)), "count"),
        "batcher.batches": metric(len(sizes), "count"),
    }
    for member in ("dp", "gn1", "gn2"):
        out[f"kernel.{member}.busy_s"] = metric(tr.busy(f"kernel.{member}", t0, t1), "s")
    return out


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the layer did no work (``den == 0``)."""
    return num / den if den else 0.0
