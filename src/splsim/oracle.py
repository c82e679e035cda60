"""Conventional dead-time simulator used as the ground-truth reference.

Arrivals are generated over N cycles, placed on the absolute time axis and
culled in order: a photon is registered iff it comes at least one dead time
after the previous registration (nonparalyzable detector, dead time carries
across cycle boundaries). This exact cull is the slow path that the learned
simulator replaces. An arrival t_d or more after its predecessor is
registered whatever came before, so such arrivals cut an acquisition into
independent segments. Each numpy pass advances every segment one
registration, a searchsorted corrected to the difference form; short
acquisitions and the last segments' tails take the scalar loop.
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


# Timed on oracle acquisitions: the lockstep pays on long ones, while many segments are active.
LOCKSTEP_ARRIVALS = 8192
TAIL_SEGMENTS = 16


def _scan(times: memoryview, t_d: float, registered: array) -> None:
    """Append to registered each time at least t_d after the last one appended."""
    append = registered.append
    last = -math.inf
    for a in times:
        if a - last >= t_d:
            append(a)
            last = a


def cull_dead_time(abs_times: np.ndarray, t_d: float) -> np.ndarray:
    """Sequentially cull ascending absolute arrival times with dead time t_d.

    Register a photon at time a iff a - last_registration >= t_d; skipped photons do
    not extend the blanking window. abs_times must be 1-D, finite and ascending.
    """
    if not 0 <= t_d < math.inf:
        raise ParameterError(f"dead time must be non-negative and finite, got {t_d}")
    a = np.asarray(abs_times, dtype=np.float64)
    if a.ndim != 1:
        raise ParameterError(f"arrival times must be 1-D, got shape {a.shape}")
    gaps = a[1:] - a[:-1]  # a - prev <= a - last for any earlier registration
    if a.size and not (math.isfinite(a[0]) and math.isfinite(a[-1]) and gaps.min(initial=0.0) >= 0):
        raise ParameterError("arrival times must be finite and ascending")
    if t_d == 0 or a.size == 0:
        return a.copy()
    registered = array("d")
    if a.size < LOCKSTEP_ARRIVALS:
        _scan(memoryview(a), t_d, registered)
        return np.frombuffer(registered, dtype=np.float64)
    keep = np.concatenate(([True], gaps >= t_d))
    del gaps
    starts = np.flatnonzero(keep)
    cur, end = starts[:-1], starts[1:]  # chains end at the next segment's start; the last is left to the tail
    while cur.size > TAIL_SEGMENTS:
        base = a[cur]
        j = np.searchsorted(a, base + t_d)
        np.minimum(j, end, out=j)
        while np.count_nonzero(step := a[j] - base < t_d):
            j += step
        while np.count_nonzero(step := a[j - 1] - base >= t_d):
            j -= step
        live = j < end
        cur, end = j.compress(live), end.compress(live)
        keep[cur] = True
    for c, e in zip([*cur.tolist(), starts[-1]], [*end.tolist(), a.size]):
        _scan(memoryview(a)[c:e], t_d, registered)
    # A registration is the first arrival of its value, so its value finds its index.
    keep[np.searchsorted(a, registered)] = True
    return a.compress(keep)


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
        del rel  # before the cull's own arrays
        abs_times.sort()
        registered = cull_dead_time(abs_times, sys.t_d)
        yield np.mod(registered, sys.t_r, out=registered), abs_times.size


def _streams(rng: RngHandle, n_realizations: int) -> "Iterator[np.random.Generator]":
    """One generator per realization, the i-th on the stream rng.child(i), all keyed in one pass."""
    if n_realizations < 1:
        raise ParameterError("need at least one realization")
    return rng.child_generators(range(n_realizations))


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
    pooled = np.concatenate([rel for rel, _ in _acquisitions(sys, env, grid, _streams(rng, n_realizations))])
    if pooled.size == 0:
        raise DegenerateDistributionError("no photons registered; cannot build an empirical PDF")
    counts, _ = np.histogram(pooled, bins=grid.edges())
    return DiscretizedFunction(grid, counts / (pooled.size * grid.bin_width))
