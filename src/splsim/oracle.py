"""Conventional dead-time simulator used as the ground-truth reference.

Arrivals are generated over N cycles, placed on the absolute time axis,
and scanned photon by photon: a photon is registered iff it comes at least
one dead time after the previous registration (nonparalyzable detector,
dead time carries across cycle boundaries). This sequential scan is the
slow path that the learned simulator replaces.

The scan streams the arrivals through a memoryview into an array("d"), and
each acquisition builds, sorts and folds its absolute times in one owned
array: no list of Python floats, whose arenas CPython re-mapped for every
pixel.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .arrival import CdfInverter, RngHandle, TimestampBatch, draw_arrivals
from .core import (
    DegenerateDistributionError,
    DiscretizedFunction,
    EnvParams,
    ParameterError,
    SystemParams,
    TimeGrid,
    arrival_pdf,
    build_flux,
)


@dataclass(frozen=True)
class RegistrationResult:
    """Registered relative timestamps plus the arrival count m_a; m_r counts the timestamps."""

    rel_times: TimestampBatch
    m_a: int

    def __post_init__(self):
        if self.m_r > self.m_a:
            raise ParameterError("registrations cannot exceed arrivals")

    @property
    def m_r(self) -> int:
        return self.rel_times.count


def cull_dead_time(abs_times: np.ndarray, t_d: float) -> np.ndarray:
    """Sequentially cull ascending absolute arrival times with dead time t_d.

    Register a photon at time a iff a >= last_registration + t_d; skipped
    photons do not extend the blanking window. abs_times must be 1-D.
    """
    if not 0 <= t_d < math.inf:
        raise ParameterError(f"dead time must be non-negative and finite, got {t_d}")
    abs_times = np.asarray(abs_times, dtype=np.float64)
    if abs_times.ndim != 1:
        raise ParameterError(f"arrival times must be 1-D, got shape {abs_times.shape}")
    if t_d == 0 or abs_times.size == 0:
        return abs_times.copy()
    registered = array("d")
    append = registered.append
    last = -math.inf
    for a in memoryview(np.ascontiguousarray(abs_times)):
        if a - last >= t_d:
            append(a)
            last = a
    return np.frombuffer(registered, dtype=np.float64)


def _acquisitions(
    sys: SystemParams,
    env: EnvParams,
    grid: TimeGrid,
    gens: "Iterable[np.random.Generator]",
) -> "Iterator[tuple[np.ndarray, int]]":
    """Yield (registered relative times, m_a) for one acquisition per generator.

    Each starts with a fresh (unblanked) detector, so dead time carries
    across cycles but not across acquisitions.
    """
    if env.energy == 0:
        for _ in gens:
            yield np.empty(0), 0
        return
    inverter = CdfInverter(arrival_pdf(build_flux(sys, env, grid)))
    total_energy = sys.n_cycles * env.energy
    for gen in gens:
        rel = draw_arrivals(inverter, total_energy, gen)
        # cycles * t_r + rel is rel + cycles * t_r bit for bit, built in one owned buffer.
        abs_times = gen.integers(0, sys.n_cycles, size=rel.size) * sys.t_r
        abs_times += rel
        abs_times.sort()
        registered = cull_dead_time(abs_times, sys.t_d)
        yield np.mod(registered, sys.t_r, out=registered), rel.size


def _streams(rng: RngHandle, n_realizations: int) -> "Iterator[np.random.Generator]":
    """One generator per realization, the i-th on the stream rng.child(i)."""
    if n_realizations < 1:
        raise ParameterError("need at least one realization")
    return (rng.child(i).generator() for i in range(n_realizations))


def simulate_registrations(
    sys: SystemParams,
    env: EnvParams,
    grid: TimeGrid,
    rng: RngHandle,
) -> RegistrationResult:
    """Run the conventional simulator for one acquisition of N cycles."""
    rel_reg, m_a = next(_acquisitions(sys, env, grid, [rng.generator()]))
    return RegistrationResult(TimestampBatch(rel_reg), m_a)


def registration_counts(
    sys: SystemParams,
    env: EnvParams,
    grid: TimeGrid,
    n_realizations: int,
    rng: RngHandle,
) -> "tuple[np.ndarray, np.ndarray]":
    """Arrival and registration counts over independent realizations."""
    realizations = _acquisitions(sys, env, grid, _streams(rng, n_realizations))
    m_a, m_r = np.array([(arrivals, rel.size) for rel, arrivals in realizations], dtype=np.int64).T
    return m_a, m_r


def empirical_pdf(
    sys: SystemParams,
    env: EnvParams,
    grid: TimeGrid,
    n_realizations: int,
    rng: RngHandle,
) -> DiscretizedFunction:
    """Averaged registration histogram over independent realizations.

    Per-bin counts are pooled across realizations and normalized to a
    density; each realization uses its own random stream and starts with a
    fresh (unblanked) detector.
    """
    edges = grid.edges()
    counts = np.zeros(grid.n_bins, dtype=np.float64)
    total = 0
    for rel_reg, _ in _acquisitions(sys, env, grid, _streams(rng, n_realizations)):
        counts += np.histogram(rel_reg, bins=edges)[0]
        total += rel_reg.size
    if total == 0:
        raise DegenerateDistributionError("no photons registered; cannot build an empirical PDF")
    return DiscretizedFunction(grid, counts / (total * grid.bin_width))
