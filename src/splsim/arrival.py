"""Two-step photon arrival simulator: Poisson count, then i.i.d. timestamps.

Counts follow Poisson(N * Q) and timestamps are drawn from the arrival PDF
on the discretized grid: by inverse transform sampling for small counts
and by multinomial bin counts for large ones (`CdfInverter.sample`). The
conventional simulator draws its arrivals through the same `draw_arrivals`
step. A simulator takes a stream address (`RngHandle`) and builds its
generator once; a draw takes that `numpy.random.Generator`. So a seed and
a stream fix every simulation exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    DiscretizedFunction,
    EnvParams,
    FormatError,
    ParameterError,
    SystemParams,
    TimeGrid,
    arrival_pdf,
    build_flux,
)

_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio multiplier for stream derivation
_MASK63 = (1 << 63) - 1


@dataclass(frozen=True)
class RngHandle:
    """Addressable random stream: (seed, stream) fully determines the output."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ParameterError("seed and stream id must be non-negative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, index: int) -> "RngHandle":
        """Derive an independent sub-stream, e.g. one per pixel or realization."""
        if index < 0:
            raise ParameterError("stream index must be non-negative")
        mixed = ((self.stream + 1) * _MIX + index) & _MASK63
        return RngHandle(self.seed, mixed)


@dataclass(frozen=True)
class TimestampBatch:
    """Relative photon timestamps in [0, t_r), held in a read-only copy of the input."""

    times: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64, order="C")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    @property
    def count(self) -> int:
        return self.times.size


def sample_poisson_count(mean: float, gen: np.random.Generator) -> int:
    """Draw a Poisson count with the given mean (the total energy N*Q)."""
    if mean < 0:
        raise ParameterError(f"Poisson mean must be non-negative, got {mean}")
    if mean == 0:
        return 0
    return int(gen.poisson(mean))


def sample_bin_counts(n: int, bin_mass: np.ndarray, grid: TimeGrid, gen: np.random.Generator) -> np.ndarray:
    """Draw n timestamps from a piecewise-constant PDF given its bin probabilities.

    The exact decomposition of that distribution: multinomial counts over
    the bins, then each timestamp uniform within its bin. The draws come
    out grouped by bin, in increasing bin order, so their order carries no
    information.
    """
    bins = gen.multinomial(n, bin_mass)
    t = np.repeat(grid.edges()[:-1], bins)
    t += gen.random(n) * grid.bin_width
    return np.minimum(t, np.nextafter(grid.t_r, 0.0), out=t)


class CdfInverter:
    """Cached inverse CDF of a discretized PDF for repeated sampling.

    The PDF is piecewise constant over the bins, so timestamps are placed
    uniformly within the selected bin and the CDF inverts in O(log K).
    """

    # Bin counts are the cheaper path from a few hundred draws up, but the
    # oracle samples through this class: moving the threshold changes its
    # random streams, and so every dataset's labels and the models trained
    # on them.
    BULK_THRESHOLD = 2048

    def __init__(self, pdf: DiscretizedFunction):
        if not pdf.is_pdf():
            raise ParameterError(
                f"inverse transform requires a normalized PDF; integral = {pdf.integral()}"
            )
        self.grid = pdf.grid
        delta = pdf.grid.bin_width
        cdf = np.concatenate(([0.0], np.cumsum(pdf.values) * delta))
        cdf[-1] = 1.0
        self.cdf = cdf
        self.edges = pdf.grid.edges()
        # Zero-density bins carry no mass; a unit slope keeps division safe.
        self._safe_density = np.where(pdf.values > 0, pdf.values, 1.0)
        self._bin_mass = pdf.values * delta / (pdf.values.sum() * delta)
        self._t_max = np.nextafter(self.grid.t_r, 0.0)

    def invert(self, u: np.ndarray) -> np.ndarray:
        """Map uniform variates in [0, 1) to timestamps in [0, t_r)."""
        u = np.asarray(u, dtype=np.float64)
        if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
            raise ParameterError("uniform variates must lie in [0, 1)")
        # u < 1 = cdf[K], so idx <= K - 1.
        idx = np.searchsorted(self.cdf, u, side="right") - 1
        t = self.edges[idx] + (u - self.cdf[idx]) / self._safe_density[idx]
        return np.minimum(t, self._t_max)

    def sample(self, n: int, gen: np.random.Generator) -> np.ndarray:
        """Draw n timestamps: per-draw inversion below BULK_THRESHOLD, sample_bin_counts above."""
        if n < self.BULK_THRESHOLD:
            return self.invert(gen.random(n))
        return sample_bin_counts(n, self._bin_mass, self.grid, gen)


def draw_arrivals(inverter: CdfInverter, mean: float, gen: np.random.Generator) -> np.ndarray:
    """One acquisition's relative arrival times: a Poisson(mean) count, then i.i.d. timestamps."""
    return inverter.sample(sample_poisson_count(mean, gen), gen)


def simulate_arrivals(
    sys: SystemParams,
    env: EnvParams,
    grid: TimeGrid,
    rng: RngHandle,
) -> TimestampBatch:
    """Simulate one acquisition of photon arrivals over N cycles.

    The count is Poisson(N * Q) and the relative timestamps are i.i.d.
    draws from the arrival PDF.
    """
    if env.energy == 0:
        return TimestampBatch(np.empty(0))
    inverter = CdfInverter(arrival_pdf(build_flux(sys, env, grid)))
    return TimestampBatch(draw_arrivals(inverter, sys.n_cycles * env.energy, rng.generator()))


def write_times_csv(batch: TimestampBatch, path: "str | Path") -> None:
    """One timestamp per line, full double precision."""
    np.savetxt(path, batch.times, fmt="%.17g")


def read_times_csv(path: "str | Path") -> TimestampBatch:
    times = np.loadtxt(path, dtype=np.float64, ndmin=1)
    return TimestampBatch(times)


_BIN_HEADER = struct.Struct("<Q")


def write_times_binary(batch: TimestampBatch, path: "str | Path") -> None:
    """Flat little-endian float64 dump with an 8-byte count header."""
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(batch.count))
        fh.write(batch.times.astype("<f8").tobytes())


def read_times_binary(path: "str | Path") -> TimestampBatch:
    raw = Path(path).read_bytes()
    if len(raw) < _BIN_HEADER.size:
        raise FormatError(f"{path}: truncated timestamp file")
    (count,) = _BIN_HEADER.unpack_from(raw)
    body = raw[_BIN_HEADER.size:]
    if len(body) != 8 * count:
        raise FormatError(f"{path}: expected {count} timestamps, found {len(body) // 8}")
    return TimestampBatch(np.frombuffer(body, dtype="<f8"))
