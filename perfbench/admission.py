"""``admission-boundary``: the in-process admission service at capacity.

64 closed-loop coroutine clients share one
:class:`~repro.service.app.AdmissionService` (default ``BatchConfig``,
numpy kernels) over four width-100 devices, 16 clients per device.  Each
client adds heavy tasks, removes its own admitted ones and asks trial
verdicts, so every device churns near its schedulability boundary: most
adds and trials are rejected and the certifier decides only some of the
requests, leaving the grouped kernels the bulk of the work.  No sockets:
transport changes must not move this workload.

Correctness: every decision (op, device, name, verdict, error) and every
device's final resident set must equal a
:meth:`~repro.service.engine.BatchEngine.process_serial` replay of the
requests in the order they reached the service.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from typing import Any, Dict, List, Optional, Tuple

import benchlib
from benchlib import metric, percentile
from layers import ServiceLayers, service_layer_metrics
from loadgen import ladder, open_loop, rung_p99_ms, service_metrics
from spans import Tracer
from speed import SpeedProbe, at_nominal_speed

CLIENTS = 64
DEVICES = tuple(f"d{i}" for i in range(4))
WIDTH = 100
#: Requests per client before timing starts (fills the devices).
WARMUP_PER_CLIENT = 4
#: Per-request open-loop latency limit.
LIMIT_MS = 250.0
#: Seconds between two reference blocks of the speed probe.
SAMPLE_EVERY_S = 0.25
#: Closed-loop metrics, CPU-bound, reported at nominal host speed; the
#: open-loop latencies include the batching window's fixed wait and are
#: reported as measured.
CPU_BOUND = ("tasksets_per_s", "decisions_per_s", "latency_p50_ms", "slo_rate_per_s")
#: Fixed work of the traced run's closed-loop phases and open-loop rung.
TRACED_REQUESTS = 1500
TRACED_OPEN_REQUESTS = 800


class Client:
    """One caller pinned to a device, tracking what it got admitted."""

    def __init__(self, k: int, seed: int) -> None:
        self.k = k
        self.device = DEVICES[k % len(DEVICES)]
        self.rng = random.Random(seed * 1_000_003 + k)
        self.mine: List[str] = []
        self.serial = 0

    def next_request(self) -> Any:
        from repro.model.task import Task
        from repro.service.protocol import Request

        rng = self.rng
        roll = rng.random()
        if self.mine and roll < 0.3:
            name = self.mine.pop(rng.randrange(len(self.mine)))
            return Request(op="remove", device=self.device, name=name)
        op = "trial" if self.mine and roll < 0.5 else "add"
        self.serial += 1
        # Heavy but alike: 10-20 columns at 15-30% utilization, so a
        # device holds about 20 of them and the boundary is reached
        # whatever the seed (wider ranges made the rate depend on it).
        period = float(rng.randint(20, 60))
        wcet = period * (0.15 + 0.15 * rng.random()) + 0.001 * rng.random()
        task = Task(wcet=wcet, period=period, area=float(rng.randint(10, 20)),
                    name=f"c{self.k}-{self.serial}")
        return Request(op=op, device=self.device, task=task)

    def observe(self, request: Any, decision: Any) -> None:
        if request.op == "add" and decision.ok:
            self.mine.append(request.task.name)


class Session:
    """One service instance, its clients and the arrival log."""

    def __init__(self, seed: int, tr: Optional[Tracer] = None) -> None:
        from repro.service import AdmissionService

        self.tr = tr
        self.service = AdmissionService(backend="numpy")
        for name in DEVICES:
            self.service.create_device(name, WIDTH)
        self.clients = [Client(k, seed) for k in range(CLIENTS)]
        self.arrivals: List[Any] = []
        self.decisions: List[Any] = []
        self.issued = 0

    async def request(self, client: Client) -> Tuple[float, Any]:
        if self.tr is None:
            req = client.next_request()
        else:
            req = self.tr.call("loadgen", client.next_request, (), {})
        index = len(self.arrivals)
        self.arrivals.append(req)
        self.decisions.append(None)
        t = time.perf_counter()
        decision = await self.service.submit(req)
        elapsed = time.perf_counter() - t
        self.decisions[index] = decision
        client.observe(req, decision)
        return elapsed, req

    async def closed(self, *, per_client: int = 0, total: int = 0, seconds: float = 0.0,
                     probe: Optional[SpeedProbe] = None) -> Dict[str, Any]:
        """Closed loop: every client sends its next request once the
        previous decision lands.  Stops after ``per_client`` requests
        each, ``total`` requests overall, or ``seconds``.

        With a ``probe``, a reference block runs on the event loop every
        :data:`SAMPLE_EVERY_S`; the time it holds the loop is taken out
        of the phase's wall time and of each request it delayed.
        """
        lats: List[float] = []
        done: List[float] = []
        analysed = 0
        deadline = time.perf_counter() + seconds
        start_issued = self.issued

        def more(sent: int) -> bool:
            if per_client:
                return sent < per_client
            if total:
                return self.issued - start_issued < total
            return time.perf_counter() < deadline

        async def run(client: Client) -> None:
            nonlocal analysed
            sent = 0
            while more(sent):
                sent += 1
                self.issued += 1
                elapsed, req = await self.request(client)
                lats.append(elapsed)
                done.append(time.perf_counter())
                if req.op != "remove":
                    analysed += 1

        async def sample() -> None:
            assert probe is not None
            while True:
                await asyncio.sleep(SAMPLE_EVERY_S)
                probe.sample(1)

        sampler = asyncio.ensure_future(sample()) if probe is not None else None
        t0 = time.perf_counter()
        try:
            await asyncio.gather(*(run(c) for c in self.clients))
        finally:
            t1 = time.perf_counter()
            if sampler is not None:
                sampler.cancel()
        wall = t1 - t0
        if probe is not None:
            lats = [v - probe.overlap(d - v, d) for v, d in zip(lats, done)]
            wall -= probe.overlap(t0, t1)
        # The mean rate: how much the 64 clients get decided varies
        # with the devices' state from second to second, and the mean
        # over the whole phase is the steadier estimate of it.
        return {"wall": wall, "lats": lats, "analysed": analysed, "rate": len(lats) / wall}

    async def rung(self, rate: float, n: int) -> Dict[str, Any]:
        async def fire(i: int) -> bool:
            await self.request(self.clients[i % CLIENTS])
            return True

        return await open_loop(rate, n, fire)

    def verify(self) -> List[str]:
        """Replay the arrival log serially; list every mismatch."""
        from repro.fpga.device import Fpga
        from repro.service.engine import BatchEngine
        from repro.service.protocol import task_to_json

        replay = BatchEngine(backend="numpy")
        for name in DEVICES:
            replay.add_device(name, Fpga(width=WIDTH))
        expected = replay.process_serial(self.arrivals)
        problems = []
        for i, (got, want) in enumerate(zip(self.decisions, expected)):
            if got is None or _key(got) != _key(want):
                problems.append(f"request {i}: {got} != serial {want}")
        for name in DEVICES:
            live = [_task_key(t) for t in self.service.device_info(name)["tasks"]]
            ref = [_task_key(task_to_json(t)) for t in replay.device(name).state.tasks]
            if sorted(live) != sorted(ref):
                problems.append(f"device {name}: resident set differs from serial replay")
        return problems


def _settle() -> None:
    """Collect, then freeze what survives before a measured phase.

    The arrival log grows all run; frozen, it no longer lengthens the
    full collections the program's own allocations trigger, so a stall
    measured in the open loop belongs to the program, not to the log.
    """
    gc.collect()
    gc.freeze()


def _key(decision: Any) -> Tuple:
    return (decision.op, decision.device, decision.name, decision.ok, decision.error)


def _task_key(obj: Dict[str, Any]) -> Tuple:
    return tuple(obj[k] for k in ("name", "wcet", "period", "deadline", "area"))


class AdmissionRunner:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: The traced run's span recorder.
        self.tr = Tracer()

    def setup(self) -> None:
        # Imports are part of set-up; sessions are built per phase.
        import repro.service  # noqa: F401

    def _finish(self, session: Session) -> None:
        bad = session.verify()
        self.attempted += len(session.arrivals)
        self.failed += len(bad)
        self.problems.extend(bad[:20])

    def timed(self, seconds: float) -> Dict[str, Any]:
        return asyncio.run(self._timed(seconds))

    async def _timed(self, seconds: float) -> Dict[str, Any]:
        """Warm-up, closed loop, ladder.  The host's speed is sampled all
        through the closed loop, whose figures it scales."""
        session = Session(self.seed)
        speed = SpeedProbe()
        await session.service.start()
        try:
            await session.closed(per_client=WARMUP_PER_CLIENT)
            _settle()
            closed = await session.closed(seconds=0.65 * seconds, probe=speed)

            async def rung(rate: float, n: int) -> Dict[str, Any]:
                _settle()
                return await session.rung(rate, n)

            steps = await ladder(rung, closed["rate"], 0.15 * seconds, LIMIT_MS)
        finally:
            await session.service.close()
        # Peak memory of the run itself, before the serial replay.
        rss = benchlib.peak_rss_mb_self()
        self._finish(session)
        raw = service_metrics(closed, steps)
        slowdown = speed.slowdown()
        return {"metrics": at_nominal_speed(raw, slowdown, CPU_BOUND), "raw_metrics": raw,
                "slowdown": slowdown, "ladder": steps, "peak_rss_mb": rss}

    def traced(self, seconds: float) -> Dict[str, Any]:
        return asyncio.run(self._traced())

    async def _untraced(self) -> Dict[str, Any]:
        """The traced phase's fixed work with no spans, for the overhead."""
        base = Session(self.seed)
        await base.service.start()
        try:
            await base.closed(per_client=WARMUP_PER_CLIENT)
            _settle()
            closed = await base.closed(total=TRACED_REQUESTS)
        finally:
            await base.service.close()
        self._finish(base)
        return closed

    async def _traced(self) -> Dict[str, Any]:
        # Untraced runs before and after the traced one; the overhead is
        # against the faster, since the first phase of a process runs cold.
        untraced = [await self._untraced()]
        tr = self.tr
        layers = ServiceLayers(tr)
        layers.install()
        try:
            session = Session(self.seed, tr)
            await session.service.start()
            try:
                await session.closed(per_client=WARMUP_PER_CLIENT)
                _settle()
                before = session.service.snapshot()
                t0 = time.perf_counter()
                traced = await session.closed(total=TRACED_REQUESTS)
                t1 = time.perf_counter()
                after = session.service.snapshot()
                middle = benchlib.LADDER[len(benchlib.LADDER) // 2]
                _settle()
                rung = await session.rung(middle * untraced[0]["rate"], TRACED_OPEN_REQUESTS)
            finally:
                await session.service.close()
        finally:
            tr.uninstall()
        self._finish(session)
        del session  # the last phase starts from the same heap as the first
        untraced.append(await self._untraced())
        base_wall = min(u["wall"] for u in untraced)

        layer = service_layer_metrics(tr, layers, before, after, t0, t1)
        layer.update({
            "latency_p99_ms": metric(percentile(untraced[0]["lats"], 99) * 1e3, "ms"),
            "open_p99_ms": metric(rung_p99_ms(rung), "ms"),
            "loadgen.lag_p99_ms": metric(percentile(rung["lags"], 99) * 1e3, "ms"),
            "trace.coverage": metric(tr.coverage(t0, t1), "ratio"),
            "trace.overhead": metric(traced["wall"] / base_wall - 1.0, "ratio"),
        })
        return {"metrics": layer, "self_time_s": tr.self_times()}
