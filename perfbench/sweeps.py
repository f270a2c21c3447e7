"""``sweep-sim`` and ``sweep-analysis``: the paper's acceptance sweeps.

One operation is one :func:`repro.experiments.figures.run_figure` call;
one *request* inside it is one utilization bucket (one point of the
figure).  Buckets are timed from outside by a clock on the bucket-fill
call (``feasible_batch_at`` / ``binned_batch_at``, made exactly once per
bucket), which in the open-loop ladder also holds each bucket back until
it is due — the arrival process, imposed on the sweep's own bucket
stream.

A run of seed ``s`` sweeps the figure at the :data:`FIGURE_SEEDS` seeds
``s * FIGURE_SEEDS + j`` in turn: a bucket's cost depends on its seed
(binned buckets need one more rejection-sampling round or one fewer),
and its median over several seeds varies far less from run to run than
one seed's.

Correctness: every sweep of a figure seed must produce the same curve
digest, equal to the pinned digest of that seed where ``pins.json`` has
one; no analytic ratio may exceed the ``sim:EDF-NF`` ratio in any
bucket; and no simulation may exceed its event budget.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import benchlib
from benchlib import metric, percentile
from layers import install_sweep_layers, ratio
from spans import Tracer
from speed import NOMINAL_S, SpeedProbe

#: Workload definition: figure, tasksets per bucket, curves per taskset,
#: and the per-bucket open-loop latency limit.
SWEEPS: Dict[str, Dict[str, Any]] = {
    "sweep-sim": {
        "figure": "fig3b",
        "samples": 30,
        "sim_samples": None,  # simulate the full bucket
        "curves": 4,
        "limit_ms": 2000.0,
        "traced_pairs": 2,
    },
    "sweep-analysis": {
        "figure": "fig4b",
        "samples": 300,
        "sim_samples": 0,  # analysis only
        "curves": 3,
        "limit_ms": 1500.0,
        "traced_pairs": 3,
    },
}

PINS_FILE = benchlib.BENCH_DIR / "pins.json"
#: Figure seeds a run sweeps in turn.
FIGURE_SEEDS = 3
#: Seconds between two reference blocks of the speed probe.
SAMPLE_EVERY_S = 0.25
#: Reference blocks (about 3 s of a run) whose median slowdown stretches
#: a ladder sweep's schedule; fewer read the host's second-to-second
#: jitter and overload or idle the rung.
RECENT_BLOCKS = 12


def curve_digest(curves: Any) -> str:
    """sha256 over the labels, every ratio (exact hex) and the budget count."""
    rows = [[float(v).hex() for v in row] for row in curves.rows()]
    blob = json.dumps([list(curves.labels), rows, curves.sim_budget_exceeded])
    return hashlib.sha256(blob.encode()).hexdigest()


def soundness_violations(curves: Any) -> List[str]:
    """Buckets where an analytic test accepts more than the simulator,
    plus any blown event budget."""
    out = []
    if curves.sim_budget_exceeded:
        out.append(f"sim_budget_exceeded={curves.sim_budget_exceeded}")
    if "sim:EDF-NF" not in curves.labels:
        return out
    sim = curves["sim:EDF-NF"].ratios
    for label in curves.labels:
        if label.startswith("sim:"):
            continue
        for u, r, s in zip(curves[label].utilizations, curves[label].ratios, sim):
            if r > s:
                out.append(f"{label} {r} > sim {s} at US={u}")
    return out


class BucketClock:
    """Times each bucket of a sweep; in the open loop it also holds each
    bucket back until its due time (offsets from the sweep's start).

    With a ``probe`` it also times a reference block between buckets,
    outside every bucket's time, at most every :data:`SAMPLE_EVERY_S`
    (in the open loop only while the next bucket is not yet due), so
    the host's speed is sampled all through the measured sweeps.
    """

    def __init__(self, tr: Tracer) -> None:
        self.tr = tr
        self.probe: Optional[SpeedProbe] = None
        self._sampled = 0.0
        self.offsets: Optional[Sequence[float]] = None
        self._t0 = 0.0
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.dues: List[float] = []
        self.lags: List[float] = []

    def install(self) -> None:
        from repro.experiments import acceptance as acc

        for attr in ("feasible_batch_at", "binned_batch_at"):
            original = getattr(acc, attr)
            self.tr.patch(acc, attr, self._hold(original))

    def _hold(self, original: Callable) -> Callable:
        def fill(*args: Any, **kwargs: Any) -> Any:
            now = time.perf_counter()
            if self.starts:
                self.ends.append(now)  # the previous bucket is done
            if self.offsets is not None:
                due = self._t0 + self.offsets[len(self.starts)]
                self.dues.append(due)
                self._sample(due - now)
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                start = time.perf_counter()
                self.lags.append(start - max(due, now))
            else:
                self._sample(float("inf"))
                start = time.perf_counter()
            self.starts.append(start)
            return original(*args, **kwargs)

        return fill

    def _sample(self, slack: float) -> None:
        now = time.perf_counter()
        if self.probe is None or now - self._sampled < SAMPLE_EVERY_S:
            return
        if slack > 3 * (self.probe.times[-1] if self.probe.times else NOMINAL_S):
            self.probe.sample(1)
            self._sampled = time.perf_counter()

    def begin(self, offsets: Optional[Sequence[float]]) -> None:
        self.offsets = offsets
        self.starts, self.ends, self.dues = [], [], []
        self._t0 = time.perf_counter()

    def finish(self) -> None:
        self.ends.append(time.perf_counter())


class SweepRunner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.spec = SWEEPS[workload]
        self.tr = Tracer()
        self.clock = BucketClock(self.tr)
        self.speed = SpeedProbe()
        self.figure_seeds = [seed * FIGURE_SEEDS + j for j in range(FIGURE_SEEDS)]
        self.digests: Dict[int, str] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        with open(PINS_FILE) as fh:
            pins = json.load(fh)
        self.pinned: Dict[str, str] = pins.get(workload, {})

    def setup(self) -> None:
        from repro.experiments.figures import run_figure

        self._run_figure = run_figure
        self.clock.install()

    # -- one operation -------------------------------------------------------

    def figure(self, seed: int) -> Any:
        """The measured call, pinned: numpy backend, one process."""
        spec = self.spec
        return self._run_figure(
            spec["figure"],
            samples=spec["samples"],
            seed=seed,
            sim_samples=spec["sim_samples"],
            sim_array_backend="numpy",
            sim_workers=1,
            workers=1,
        )

    def sweep(self, offsets: Optional[Sequence[float]] = None,
              seed: Optional[int] = None) -> Tuple[float, List[float], float]:
        """One sweep at figure seed ``seed`` (by default the next of the
        run's figure seeds in turn); returns its wall time, per-bucket
        latencies (service times, or from the due time when ``offsets``
        schedule the buckets) and the host's slowdown over it (1.0 with
        no probe installed)."""
        if seed is None:
            seed = self.figure_seeds[self.attempted % FIGURE_SEEDS]
        first = len(self.speed.times)
        self.clock.begin(offsets)
        t0 = time.perf_counter()
        curves = self.figure(seed)
        self.clock.finish()
        wall = time.perf_counter() - t0
        self.attempted += 1
        self._check(curves, seed)
        c = self.clock
        origin = c.dues if offsets is not None else c.starts
        return wall, [e - s for s, e in zip(origin, c.ends)], self._slowdown(first)

    def _slowdown(self, since: int) -> float:
        return 1.0 if self.clock.probe is None else self.speed.slowdown(since)

    def _check(self, curves: Any, seed: int) -> None:
        digest = curve_digest(curves)
        bad = soundness_violations(curves)
        reference = self.pinned.get(str(seed)) or self.digests.get(seed)
        if reference is not None and digest != reference:
            bad.append(f"seed {seed}: curve digest {digest[:16]} != expected {reference[:16]}")
        self.digests.setdefault(seed, digest)
        if bad:
            self.failed += 1
            self.problems.extend(bad)

    # -- phases ----------------------------------------------------------------

    def closed(self, done: Callable[[List[float]], bool], min_ops: int) -> List[float]:
        """Sweeps back to back until ``done(service)`` says stop (given
        the times as measured); returns each bucket's service time at
        nominal host speed: each sweep's times over its own slowdown,
        then the median over the sweeps (which take the run's figure
        seeds in turn)."""
        measured: List[List[float]] = []
        nominal: List[List[float]] = []
        while len(measured) < min_ops or not done(self._medians(measured)):
            _, lat, slowdown = self.sweep()
            measured.append(lat)
            nominal.append([x / slowdown for x in lat])
        return self._medians(nominal)

    @staticmethod
    def _medians(runs: List[List[float]]) -> List[float]:
        return [benchlib.median(col) for col in zip(*runs)]

    def rung(self, service: Sequence[float], f: float) -> Dict[str, Any]:
        """One sweep whose bucket i is due ``sum(service[:i]) / f`` after
        its start: the figure's points requested at load ``f``.
        ``service`` is at nominal speed; the schedule is stretched by the
        host's slowdown over the last RECENT_BLOCKS reference blocks and
        the latencies divided by the sweep's own, so the load stays ``f``
        when the host's speed moves."""
        offsets = [sum(service[:i]) / f for i in range(len(service))]
        now = self._slowdown(max(0, len(self.speed.times) - RECENT_BLOCKS))
        _, lat, slowdown = self.sweep([o * now for o in offsets])
        done = [o + x / slowdown for o, x in zip(offsets, lat)]
        rate = f * len(service) / sum(service)
        step = benchlib.step_summary(rate, offsets, done, [True] * len(offsets),
                                     self.spec["limit_ms"])
        step["bucket_s"] = [d - o for o, d in zip(offsets, done)]
        return step

    # -- runs --------------------------------------------------------------------

    def timed(self, seconds: float) -> Dict[str, Any]:
        """End-to-end metrics, no spans, at nominal host speed: the
        closed loop until only the ladder's expected time is left, then
        the ladder, one sweep per rung."""
        ladder_sweeps = sum(1 / f for f in benchlib.LADDER)
        end = time.perf_counter() + seconds
        self.clock.probe = self.speed
        service = self.closed(
            lambda svc: time.perf_counter() + (1 + ladder_sweeps) * sum(svc) > end, min_ops=3)
        steps = [self.rung(service, f) for f in benchlib.LADDER]
        per_sweep = self.spec["samples"] * len(service)
        wall = sum(service)
        metrics = {
            "tasksets_per_s": metric(per_sweep / wall, "1/s"),
            "decisions_per_s": metric(per_sweep * self.spec["curves"] / wall, "1/s"),
            "latency_p50_ms": metric(benchlib.median(service) * 1e3, "ms"),
        }
        metrics.update(benchlib.ladder_metrics(steps))
        # At these loads a bucket never waits for another and the rungs
        # differ only in their schedule: the median over the rungs of
        # each bucket's latency is steadier than one sweep's.
        bucket = self._medians([s["bucket_s"] for s in steps])
        metrics["open_p50_ms"] = metric(benchlib.median(bucket) * 1e3, "ms")
        self.clock.probe = None
        return {"metrics": metrics, "slowdown": self.speed.slowdown(), "ladder": steps,
                "peak_rss_mb": benchlib.peak_rss_mb_self()}

    def traced(self, seconds: float) -> Dict[str, Any]:
        """Per-layer metrics over a fixed number of traced sweeps, each
        paired with an untraced one for the overhead, then one traced
        sweep at the middle ladder rung."""
        untraced: List[float] = []
        traced: List[float] = []
        window: List[Tuple[float, float]] = []
        service: List[List[float]] = []
        for i in range(self.spec["traced_pairs"]):
            seed = self.figure_seeds[i % FIGURE_SEEDS]
            wall, lat, _ = self.sweep(seed=seed)
            untraced.append(wall)
            service.append(lat)
            self._spans(True)
            t0 = time.perf_counter()
            wall, _, _ = self.sweep(seed=seed)
            window.append((t0, time.perf_counter()))
            traced.append(wall)
            self._spans(False)
        covered = sum(self.tr.coverage(a, b) * (b - a) for a, b in window)
        coverage = covered / sum(b - a for a, b in window)
        busy = {n: self.tr.busy(n) for n in ("gen", "dp", "gn1", "gn2", "sim")}
        counts = dict(self.tr.counts)
        self._spans(True)
        self.clock.lags = []
        service_ms = [x * 1e3 for x in self._medians(service)]
        step = self.rung(self._medians(service), benchlib.LADDER[len(benchlib.LADDER) // 2])
        c = counts.get
        layer = {
            "latency_p99_ms": metric(percentile(service_ms, 99), "ms"),
            "open_p99_ms": metric(step["p99_ms"], "ms"),
            "gen.busy_s": metric(busy["gen"], "s"),
            "gen.keep_ratio": metric(ratio(c("gen.rows_kept", 0), c("gen.rows_drawn", 0)), "ratio"),
            "dp.busy_s": metric(busy["dp"], "s"),
            "gn1.busy_s": metric(busy["gn1"], "s"),
            "gn2.busy_s": metric(busy["gn2"], "s"),
            "gn2.rows_per_s": metric(ratio(c("gn2.rows", 0), busy["gn2"]), "1/s"),
            "sim.busy_s": metric(busy["sim"], "s"),
            "sim.events_per_s": metric(ratio(c("sim.events", 0), busy["sim"]), "1/s"),
            "sim.kernel_passes": metric(c("sim.kernel_passes", 0), "count"),
            "sim.fusion_factor": metric(
                ratio(c("sim.event_steps", 0), c("sim.kernel_passes", 0)), "ratio"),
            "sim.budget_exceeded": metric(c("sim.budget_exceeded", 0), "count"),
            "loadgen.lag_p99_ms": metric(percentile(self.clock.lags, 99) * 1e3, "ms"),
            "trace.coverage": metric(coverage, "ratio"),
            "trace.overhead": metric(
                benchlib.median(traced) / benchlib.median(untraced) - 1.0, "ratio"),
        }
        return {"metrics": layer, "self_time_s": self.tr.self_times()}

    def _spans(self, on: bool) -> None:
        """Install or remove the layer spans, always under the bucket
        clock so that buckets held back by the open loop are not busy."""
        self.tr.uninstall()
        if on:
            install_sweep_layers(self.tr)
        self.clock.install()
