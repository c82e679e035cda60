"""Wall-clock benchmark harness: median per-pixel runtime of both engines against N."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from .arrival import RngHandle
from .core import EnvParams, ParameterError, SystemParams, TimeGrid
from .fast_sim import fast_simulate
from .oracle import simulate_registrations
from .pdf_net import AEModel

WARMUP_REPS = 1  # excluded from the reported median


@dataclass(frozen=True)
class BenchRow:
    n_cycles: int
    engine: str
    seconds: float          # median per-pixel wall time over timed reps
    photons: float          # mean registered photons over timed reps


def run_benchmark(
    sys: SystemParams,
    env: EnvParams,
    cycles_list: "list[int]",
    reps: int,
    model: AEModel,
    grid: TimeGrid,
    rng: RngHandle,
) -> "list[BenchRow]":
    """Median-of-reps per-pixel runtime for both engines at each cycle count.

    Rep r of engine e at cycle index c runs on rng.child(c).child(e).child(r); the first WARMUP_REPS
    reps are untimed, and the rest are timed on the monotonic clock, single-threaded so cells stay comparable.
    """
    if reps < 3:
        raise ParameterError("benchmark needs at least 3 repetitions")
    rows: "list[BenchRow]" = []
    for ci, n_cycles in enumerate(cycles_list):
        bench_sys = replace(sys, n_cycles=n_cycles)
        for ei, engine in enumerate(("oracle", "fast")):
            times, photons = [], []
            for rep in range(WARMUP_REPS + reps):
                rep_rng = rng.child(ci).child(ei).child(rep)
                t0 = time.perf_counter()
                if engine == "oracle":
                    count = simulate_registrations(bench_sys, env, grid, rep_rng).m_r
                else:
                    count = fast_simulate(bench_sys, env, model, grid, rep_rng).count
                elapsed = time.perf_counter() - t0
                if rep >= WARMUP_REPS:
                    times.append(elapsed)
                    photons.append(count)
            rows.append(
                BenchRow(
                    n_cycles=n_cycles,
                    engine=engine,
                    seconds=statistics.median(times),
                    photons=float(np.mean(photons)),
                )
            )
    return rows
