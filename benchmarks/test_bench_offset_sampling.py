"""Ablation: simulation is only an upper bound (§6).

The paper can only simulate the synchronous release pattern; random
release offsets and sporadic inter-arrival jitter find counterexamples
the synchronous pattern misses.  These benches measure how much
acceptance melts under the pattern searches — run on the batched
backend, which fans the pattern axis into the batch dimension
(``samples x patterns`` rows per bucket in one ``simulate_batch``
sweep) — and the smoke-marked comparison pins the batched search to the
scalar oracle :func:`repro.sim.offsets.simulate_with_offsets`, taskset
by taskset on a shared offset stream, while recording the speedup, so
release-pattern regressions are caught per-PR.
"""

import time

import numpy as np
import pytest

from benchmarks.helpers import auc, print_curves

from repro.experiments.ablations import offset_ablation, sporadic_ablation
from repro.experiments.acceptance import feasible_batch_at
from repro.fpga.device import Fpga
from repro.gen.profiles import paper_unconstrained
from repro.sched.edf_nf import EdfNf
from repro.search.drivers import uniform_offset_search_batch
from repro.sim.offsets import simulate_with_offsets
from repro.sim.simulator import default_horizon
from repro.util.rngutil import rng_from_seed, spawn_rngs
from repro.vector.sim_vec import simulate_batch

GRID = (40.0, 60.0, 80.0)


def _assert_search_below_baseline(curves, baseline, searched):
    for a, b in zip(curves[baseline].ratios, curves[searched].ratios):
        assert a >= b  # searching can only remove acceptances


def test_bench_offset_search(benchmark, scale):
    samples = 25 * scale
    curves = benchmark.pedantic(
        lambda: offset_ablation(samples=samples, offset_samples=10, seed=43),
        rounds=1,
        iterations=1,
    )
    print_curves(curves, "synchronous-release vs offset-searched acceptance")
    _assert_search_below_baseline(curves, "sim:synchronous", "sim:offset-search")
    gap = auc(curves["sim:synchronous"]) - auc(curves["sim:offset-search"])
    print(f"acceptance removed by offset search: {gap:.4f} (mean)")


def test_bench_sporadic_search(benchmark, scale):
    samples = 25 * scale
    curves = benchmark.pedantic(
        lambda: sporadic_ablation(samples=samples, sporadic_samples=10, seed=47),
        rounds=1,
        iterations=1,
    )
    print_curves(curves, "periodic vs sporadic-searched acceptance")
    _assert_search_below_baseline(curves, "sim:periodic", "sim:sporadic-search")
    gap = auc(curves["sim:periodic"]) - auc(curves["sim:sporadic-search"])
    print(f"acceptance removed by sporadic search: {gap:.4f} (mean)")


@pytest.mark.bench_smoke
def test_bench_offset_search_vector_vs_scalar(benchmark):
    """Offset search, batched vs the scalar oracle: same verdicts, faster.

    The scalar side loops :func:`simulate_with_offsets` over the bucket
    batches :func:`offset_ablation` draws, on the same taskset-major
    offset stream (it draws every assignment up front, so the stream
    stays aligned), and must agree with the batched search taskset by
    taskset — the per-PR guard for the batched release-pattern path.
    """
    samples, patterns, seed, horizon_factor = 20, 5, 43, 10
    benchmark.group = "offset-search-backend"
    curves = benchmark.pedantic(
        lambda: offset_ablation(
            us_grid=GRID, samples=samples, offset_samples=patterns, seed=seed,
            horizon_factor=horizon_factor,
        ),
        rounds=1,
        iterations=1,
    )
    vector_time = benchmark.stats.stats.mean

    fpga = Fpga(width=100)
    rngs = spawn_rngs(seed, len(GRID))
    batches = [
        feasible_batch_at(paper_unconstrained(10), us, samples, rngs[i])
        for i, us in enumerate(GRID)
    ]
    scalar_time = 0.0
    for i, batch in enumerate(batches):
        found = uniform_offset_search_batch(
            batch, fpga, "EDF-NF", patterns=patterns,
            rng=rng_from_seed(seed * 1000 + i), horizon_factor=horizon_factor,
        ).found
        vector = simulate_batch(
            batch, fpga, "EDF-NF", horizon_factor=horizon_factor
        ).schedulable & ~found

        offset_rng = rng_from_seed(seed * 1000 + i)
        t0 = time.perf_counter()
        scalar = np.array([
            simulate_with_offsets(
                ts, fpga, EdfNf(), default_horizon(ts, factor=horizon_factor),
                offset_rng, samples=patterns,
            ).schedulable
            for ts in batch.to_tasksets()
        ])
        scalar_time += time.perf_counter() - t0

        assert vector.tolist() == scalar.tolist(), GRID[i]
        assert curves["sim:offset-search"].ratios[i] == scalar.sum() / samples
    _assert_search_below_baseline(curves, "sim:synchronous", "sim:offset-search")
    print(f"\noffset search: scalar {scalar_time:.2f} s, "
          f"vector {vector_time:.2f} s "
          f"-> {scalar_time / vector_time:.1f}x "
          f"({samples} sets x {patterns} patterns x {len(GRID)} buckets)")
