"""Wall-clock benchmark harness and tidy CSV emission for figures."""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .arrival import RngHandle
from .core import DiscretizedFunction, EnvParams, ParameterError, SystemParams, TimeGrid
from .fast_sim import fast_simulate
from .oracle import registration_counts, simulate_registrations
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

    Each cell runs one warm-up rep (excluded) and times each rep on the
    monotonic clock; timing is single-threaded so cells stay comparable.
    """
    if reps < 3:
        raise ParameterError("benchmark needs at least 3 repetitions")
    rows: "list[BenchRow]" = []
    for ci, n_cycles in enumerate(cycles_list):
        bench_sys = replace(sys, n_cycles=n_cycles)
        for ei, engine in enumerate(("oracle", "fast")):
            times, photons = [], []
            for rep in range(WARMUP_REPS + reps):
                rep_rng = rng.child(ci * 1000 + ei * 100 + rep)
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


def write_runtime_csv(rows: "list[BenchRow]", path: "str | Path") -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["engine", "n_cycles", "median_pixel_seconds", "mean_registered_photons"])
        for row in rows:
            writer.writerow([row.engine, row.n_cycles, f"{row.seconds:.9f}", f"{row.photons:.3f}"])


def write_count_hist_csv(
    sys: SystemParams,
    env: EnvParams,
    grid: TimeGrid,
    n_realizations: int,
    rng: RngHandle,
    path: "str | Path",
) -> None:
    """Per-realization arrival and registration counts for histogramming."""
    m_a, m_r = registration_counts(sys, env, grid, n_realizations, rng)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["realization", "arrivals", "registrations"])
        for i, (a, r) in enumerate(zip(m_a, m_r)):
            writer.writerow([i, int(a), int(r)])


def write_pdf_compare_csv(
    oracle_pdf: DiscretizedFunction,
    predicted_pdf: DiscretizedFunction,
    path: "str | Path",
) -> None:
    """Bin-by-bin oracle vs predicted registration densities."""
    if oracle_pdf.grid != predicted_pdf.grid:
        raise ParameterError("compared PDFs must share a grid")
    centers = oracle_pdf.grid.centers()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_center", "oracle_density", "predicted_density"])
        for c, o, p in zip(centers, oracle_pdf.values, predicted_pdf.values):
            writer.writerow([f"{c:.17g}", f"{o:.17g}", f"{p:.17g}"])
