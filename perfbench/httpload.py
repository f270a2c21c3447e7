"""``service-http``: ``repro-service`` as its own process, over loopback.

The server runs with the CLI defaults (``--max-batch 256``,
``--max-wait-ms 2``, one shard) plus four width-100 devices and the
numpy backend pinned.  This process is the single client: two keep-alive
HTTP/1.1 connections, each device pinned to one connection, so every
device's requests arrive in a known order.  Each device gets a seeded
light steady churn (adds, removes and trials around 40 residents), which
the certifier decides almost entirely: transport and the batching window
dominate, kernel work is near zero.

Correctness: per device, every decision and the final resident set must
equal a :meth:`~repro.service.engine.BatchEngine.process_serial` replay
of that device's requests in the order they were sent.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import random
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import benchlib
from benchlib import metric, percentile
from layers import ServiceLayers, service_layer_metrics
from loadgen import ladder, open_loop, rung_p99_ms, service_metrics
from procs import Child
from spans import Tracer
from speed import SpeedProbe

DEVICES = tuple(f"d{i}" for i in range(4))
WIDTH = 100
CONNECTIONS = 2
WARMUP_REQUESTS = 200
#: Per-request open-loop latency limit.  Requests take ~4 ms; a tighter
#: limit would fail rungs on the host's rare stalls of tens of
#: milliseconds rather than on the program.
LIMIT_MS = 250.0
#: Fixed work of the traced run's closed-loop phases and open-loop rung.
TRACED_REQUESTS = 3000
TRACED_OPEN_REQUESTS = 1500
CALL_TIMEOUT_S = 10.0

_PATHS = {"add": "/v1/admit", "trial": "/v1/trial", "remove": "/v1/remove"}


def server_args() -> List[str]:
    args = ["--port", "0", "--array-backend", "numpy"]
    for name in DEVICES:
        args += ["--device", f"{name}={WIDTH}"]
    return args


def server_cmd(spans_path: Optional[Path] = None) -> List[str]:
    """The server as users start it, or under the span-dumping wrapper."""
    if spans_path is None:
        return [sys.executable, "-m", "repro.service.cli"] + server_args()
    script = str(benchlib.BENCH_DIR / "traced_server.py")
    return [sys.executable, script, str(spans_path)] + server_args()


class DeviceStream:
    """Seeded steady churn for one device: adds, removes and trials of
    light tasks around ``target`` residents (residency tracked
    optimistically; nearly every add is admitted)."""

    def __init__(self, seed: int, index: int, target: int = 40) -> None:
        self.device = DEVICES[index]
        self.rng = random.Random(seed * 7919 + index)
        self.target = target
        self.resident: List[str] = []
        self.serial = 0

    def next(self) -> Any:
        from repro.model.task import Task
        from repro.service.protocol import Request

        rng, names = self.rng, self.resident
        roll = rng.random()
        if len(names) < self.target // 2:
            op = "add"
        elif roll < 0.40:
            op = "remove"
        elif roll < 0.60 or len(names) > self.target * 3 // 2:
            op = "trial"
        else:
            op = "add"
        if op == "remove":
            return Request(op="remove", device=self.device, name=names.pop(len(names) // 2))
        self.serial += 1
        period = float(rng.randint(40, 90))
        wcet = rng.randint(1, 5) + 0.05 + 0.01 * rng.random()
        task = Task(wcet=wcet, period=period, area=float(rng.randint(1, 8)),
                    name=f"{self.device}-t{self.serial}")
        if op == "add":
            names.append(task.name)
        return Request(op=op, device=self.device, task=task)


def to_wire(request: Any) -> Tuple[str, Dict[str, Any]]:
    from repro.service.protocol import task_to_json

    if request.op == "remove":
        return _PATHS["remove"], {"device": request.device, "name": request.name}
    return _PATHS[request.op], {"device": request.device, "task": task_to_json(request.task)}


class Connection:
    """One keep-alive HTTP/1.1 connection; one request in flight."""

    def __init__(self) -> None:
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.lock = asyncio.Lock()

    async def open(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(host, port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def call(self, method: str, path: str, body: Any = None) -> Tuple[int, Any]:
        return await asyncio.wait_for(self._call(method, path, body), CALL_TIMEOUT_S)

    async def _call(self, method: str, path: str, body: Any) -> Tuple[int, Any]:
        assert self.reader is not None and self.writer is not None
        payload = json.dumps(body).encode() if body is not None else b""
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload)
        await self.writer.drain()
        status_line = (await self.reader.readline()).split()
        if len(status_line) < 2:
            raise ConnectionError("connection closed before a status line")
        status = int(status_line[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        data = await self.reader.readexactly(length)
        return status, json.loads(data)


class HttpSession:
    """The client side of one server process."""

    def __init__(self, host: str, port: int, seed: int) -> None:
        self.host, self.port = host, port
        self.streams = [DeviceStream(seed, i) for i in range(len(DEVICES))]
        self.conns = [Connection() for _ in range(CONNECTIONS)]
        #: Per device: [request, decision object or None on failure], in send order.
        self.log: List[List[List[Any]]] = [[] for _ in DEVICES]
        self.sent = 0
        self.failed = 0
        self.errors: List[str] = []

    async def open(self) -> None:
        for conn in self.conns:
            await conn.open(self.host, self.port)

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()

    async def send(self, device: int) -> bool:
        """Send the device's next request on its connection; True on a
        200 answer."""
        conn = self.conns[device % CONNECTIONS]
        async with conn.lock:
            req = self.streams[device].next()
            entry: List[Any] = [req, None]
            self.log[device].append(entry)
            self.sent += 1
            path, body = to_wire(req)
            try:
                status, decision = await conn.call("POST", path, body)
            except (asyncio.TimeoutError, ConnectionError, EOFError, OSError, ValueError) as exc:
                self._fail(f"{type(exc).__name__}: {exc}")
                return False
            if status != 200:
                self._fail(f"HTTP {status}: {decision}")
                return False
            entry[1] = decision
            return True

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)

    async def closed(self, *, seconds: float = 0.0, total: int = 0) -> Dict[str, Any]:
        """One closed-loop worker per connection, alternating between the
        devices pinned to it."""
        lats: List[Tuple[float, float]] = []
        analysed = 0
        deadline = time.perf_counter() + seconds
        start_sent = self.sent

        def more() -> bool:
            if total:
                return self.sent - start_sent < total
            return time.perf_counter() < deadline

        async def worker(conn_index: int) -> None:
            nonlocal analysed
            mine = [d for d in range(len(DEVICES)) if d % CONNECTIONS == conn_index]
            turn = 0
            while more():
                device = mine[turn % len(mine)]
                turn += 1
                t = time.perf_counter()
                ok = await self.send(device)
                done = time.perf_counter()
                if ok:
                    lats.append((done, done - t))
                    if self.log[device][-1][0].op != "remove":
                        analysed += 1

        t0 = time.perf_counter()
        await asyncio.gather(*(worker(i) for i in range(CONNECTIONS)))
        t1 = time.perf_counter()
        return {"wall": t1 - t0, "lats": [v for _, v in lats], "timed": lats,
                "analysed": analysed,
                "rate": benchlib.windowed_rate([t for t, _ in lats], t0, t1)}

    async def rung(self, rate: float, n: int) -> Dict[str, Any]:
        return await open_loop(rate, n, lambda i: self.send(i % len(DEVICES)))

    async def verify(self) -> List[str]:
        """Serial replay per device, then the live resident sets."""
        from repro.fpga.device import Fpga
        from repro.service.engine import BatchEngine
        from repro.service.protocol import decision_to_json, task_to_json

        replay = BatchEngine(backend="numpy")
        problems: List[str] = []
        for index, name in enumerate(DEVICES):
            replay.add_device(name, Fpga(width=WIDTH))
            requests = [req for req, _ in self.log[index]]
            expected = replay.process_serial(requests)
            for (req, got), want in zip(self.log[index], expected):
                ref = decision_to_json(want)
                if got is None or [got.get(k) for k in ("op", "name", "ok", "error")] != \
                        [ref.get(k) for k in ("op", "name", "ok", "error")]:
                    problems.append(f"{name}: {got} != serial {ref}")
            status, info = await self.conns[index % CONNECTIONS].call(
                "GET", f"/v1/devices/{name}")
            live = sorted(json.dumps(t, sort_keys=True) for t in info.get("tasks", []))
            ref_tasks = sorted(json.dumps(task_to_json(t), sort_keys=True)
                               for t in replay.device(name).state.tasks)
            if status != 200 or live != ref_tasks:
                problems.append(f"{name}: resident set differs from serial replay")
        return problems

    async def snapshot(self) -> Dict[str, Any]:
        status, snap = await self.conns[0].call("GET", "/v1/metrics")
        if status != 200:
            raise RuntimeError(f"GET /v1/metrics answered {status}")
        return snap


def listening_port(line: str) -> Tuple[str, int]:
    """``repro-service listening on http://HOST:PORT`` → (host, port)."""
    hostport = line.rsplit("//", 1)[1].strip()
    host, port = hostport.rsplit(":", 1)
    return host, int(port)


@contextlib.contextmanager
def serving(spans_path: Optional[Path] = None) -> Iterator[Tuple[Child, str, int, float]]:
    """A running server: (process, host, port, seconds to ready)."""
    child = Child(server_cmd(spans_path))
    try:
        line, setup = child.wait_for("listening on", 60)
        host, port = listening_port(line)
        yield child, host, port, setup
    finally:
        child.stop()


class HttpRunner:
    """Starts the server processes; this process is the client."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _account(self, session: HttpSession, problems: List[str]) -> None:
        self.attempted += session.sent
        self.failed += session.failed + len(problems)
        self.problems.extend(session.errors + problems[:20])

    async def _session(self, host: str, port: int, phases: Any) -> Dict[str, Any]:
        """Open a session, warm up, run ``phases(session)``, verify.

        The client's cyclic garbage collector is off while it measures:
        its request log grows all run, and a full collection over it
        stalls the sender for tens of milliseconds, which the open loop
        would charge to the server.  The server keeps its defaults.
        """
        session = HttpSession(host, port, self.seed)
        await session.open()
        try:
            gc.disable()
            try:
                await session.closed(total=WARMUP_REQUESTS)
                out = await phases(session)
            finally:
                gc.enable()
            problems = await session.verify()
        finally:
            await session.close()
        self._account(session, problems)
        return out

    def timed(self, seconds: float) -> Dict[str, Any]:
        setups = []
        speed = SpeedProbe()
        for _ in range(benchlib.SETUP_LAUNCHES - 1):
            speed.sample()
            with serving() as (_, _, _, setup):
                setups.append(setup)

        async def phases(session: HttpSession) -> Dict[str, Any]:
            closed = await session.closed(seconds=0.4 * seconds)
            steps = await ladder(session.rung, closed["rate"], 0.45 * seconds, LIMIT_MS)
            return {"metrics": service_metrics(closed, steps), "ladder": steps}

        speed.sample()
        with serving() as (server, host, port, setup):
            setups.append(setup)
            out = asyncio.run(self._session(host, port, phases))
            out["peak_rss_mb"] = benchlib.peak_rss_mb_of(server.proc.pid)
        out["setups"] = setups
        out["setup_slowdown"] = speed.slowdown()
        return out

    def traced(self, seconds: float) -> Dict[str, Any]:
        async def untraced(session: HttpSession) -> Dict[str, Any]:
            return await session.closed(total=TRACED_REQUESTS)

        with serving() as (_, host, port, _):
            base = asyncio.run(self._session(host, port, untraced))

        async def traced(session: HttpSession) -> Dict[str, Any]:
            before = await session.snapshot()
            t0 = time.perf_counter()
            closed = await session.closed(total=TRACED_REQUESTS)
            t1 = time.perf_counter()
            after = await session.snapshot()
            middle = benchlib.LADDER[len(benchlib.LADDER) // 2]
            rung = await session.rung(middle * base["rate"], TRACED_OPEN_REQUESTS)
            return {"closed": closed, "before": before, "after": after,
                    "t0": t0, "t1": t1, "rung": rung}

        spans_path = benchlib.OUT_DIR / f"spans-service-http-{self.seed}.json"
        spans_path.unlink(missing_ok=True)
        with serving(spans_path) as (server, host, port, _):
            res = asyncio.run(self._session(host, port, traced))
            server.request_dump(spans_path)
        return self._layer_metrics(spans_path, base, res)

    @staticmethod
    def _layer_metrics(spans_path: Path, base: Dict[str, Any],
                       res: Dict[str, Any]) -> Dict[str, Any]:
        with open(spans_path) as fh:
            dumped = json.load(fh)
        tr = Tracer.load(spans_path)
        layers = ServiceLayers(tr)
        layers.queue_waits = [tuple(x) for x in dumped["queue_waits"]]
        layers.batch_sizes = [tuple(x) for x in dumped["batch_sizes"]]
        t0, t1, closed = res["t0"], res["t1"], res["closed"]
        client = [v for t, v in closed["timed"] if t0 <= t < t1]
        server = layers.window([tuple(x) for x in dumped["server_times"]], t0, t1)
        layer = service_layer_metrics(tr, layers, res["before"], res["after"], t0, t1)
        layer.update({
            "protocol.parse_busy_s": metric(tr.busy("protocol.parse", t0, t1), "s"),
            "protocol.encode_busy_s": metric(tr.busy("protocol.encode", t0, t1), "s"),
            "http.transport_ms": metric(
                (benchlib.median(client) - benchlib.median(server)) * 1e3, "ms"),
            "latency_p99_ms": metric(percentile(base["lats"], 99) * 1e3, "ms"),
            "open_p99_ms": metric(rung_p99_ms(res["rung"]), "ms"),
            "loadgen.lag_p99_ms": metric(percentile(res["rung"]["lags"], 99) * 1e3, "ms"),
            "trace.coverage": metric(tr.coverage(t0, t1), "ratio"),
            "trace.overhead": metric(closed["wall"] / base["wall"] - 1.0, "ratio"),
        })
        return {"metrics": layer, "self_time_s": tr.self_times()}
