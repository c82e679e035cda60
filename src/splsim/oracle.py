"""Conventional dead-time simulator used as the ground-truth reference.

Arrivals are generated over N cycles, placed on the absolute time axis,
and scanned photon by photon: a photon is registered iff it comes at least
one dead time after the previous registration (nonparalyzable detector,
dead time carries across cycle boundaries). This sequential scan is the
slow path that the learned simulator replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrival import CdfInverter, RngHandle, TimestampBatch, as_generator
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
    photons do not extend the blanking window.
    """
    if t_d < 0:
        raise ParameterError(f"dead time must be non-negative, got {t_d}")
    abs_times = np.asarray(abs_times, dtype=np.float64)
    if t_d == 0 or abs_times.size == 0:
        return abs_times.copy()
    registered = []
    append = registered.append
    last = -math.inf
    for a in abs_times.tolist():
        if a - last >= t_d:
            append(a)
            last = a
    return np.asarray(registered, dtype=np.float64)


def _one_realization(
    inverter: CdfInverter,
    sys: SystemParams,
    total_energy: float,
    gen: np.random.Generator,
) -> "tuple[np.ndarray, int]":
    """One independent acquisition: returns (registered relative times, m_a)."""
    m_a = int(gen.poisson(total_energy)) if total_energy > 0 else 0
    if m_a == 0:
        return np.empty(0), 0
    rel = inverter.sample(m_a, gen)
    cycles = gen.integers(0, sys.n_cycles, size=m_a)
    abs_times = np.sort(rel + cycles * sys.t_r)
    registered = cull_dead_time(abs_times, sys.t_d)
    rel_reg = np.mod(registered, sys.t_r)
    return rel_reg, m_a


def simulate_registrations(
    sys: SystemParams,
    env: EnvParams,
    grid: TimeGrid,
    rng: "RngHandle | np.random.Generator",
) -> RegistrationResult:
    """Run the conventional simulator for one acquisition of N cycles."""
    gen = as_generator(rng)
    if env.energy == 0:
        return RegistrationResult(TimestampBatch(np.empty(0)), 0)
    inverter = CdfInverter(arrival_pdf(build_flux(sys, env, grid)))
    rel_reg, m_a = _one_realization(inverter, sys, sys.n_cycles * env.energy, gen)
    return RegistrationResult(TimestampBatch(rel_reg), m_a)


def registration_counts(
    sys: SystemParams,
    env: EnvParams,
    grid: TimeGrid,
    n_realizations: int,
    rng: RngHandle,
) -> "tuple[np.ndarray, np.ndarray]":
    """Arrival and registration counts over independent realizations."""
    if n_realizations < 1:
        raise ParameterError("need at least one realization")
    inverter = CdfInverter(arrival_pdf(build_flux(sys, env, grid)))
    total_energy = sys.n_cycles * env.energy
    m_a = np.empty(n_realizations, dtype=np.int64)
    m_r = np.empty(n_realizations, dtype=np.int64)
    for i in range(n_realizations):
        rel_reg, arrivals = _one_realization(inverter, sys, total_energy, rng.child(i).generator())
        m_a[i] = arrivals
        m_r[i] = rel_reg.size
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
    if n_realizations < 1:
        raise ParameterError("need at least one realization")
    inverter = CdfInverter(arrival_pdf(build_flux(sys, env, grid)))
    total_energy = sys.n_cycles * env.energy
    edges = grid.edges()
    counts = np.zeros(grid.n_bins, dtype=np.float64)
    total = 0
    for i in range(n_realizations):
        rel_reg, _ = _one_realization(inverter, sys, total_energy, rng.child(i).generator())
        if rel_reg.size:
            counts += np.histogram(rel_reg, bins=edges)[0]
            total += rel_reg.size
    if total == 0:
        raise DegenerateDistributionError(
            "no photons registered; cannot build an empirical PDF"
        )
    return DiscretizedFunction(grid, counts / (total * grid.bin_width))
