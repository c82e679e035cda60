"""Two-step photon arrival simulator: Poisson count, then i.i.d. timestamps.

Counts follow Poisson(N * Q) and timestamps are drawn from the arrival PDF
by inverse transform sampling on the discretized grid. All randomness flows
through seedable, stream-addressable handles so any simulation is exactly
reproducible.
"""

from __future__ import annotations

import functools
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


def as_generator(rng: "RngHandle | np.random.Generator") -> np.random.Generator:
    if isinstance(rng, RngHandle):
        return rng.generator()
    return rng


@dataclass(frozen=True)
class TimestampBatch:
    """Relative photon timestamps in [0, t_r) plus the realized count."""

    times: np.ndarray
    count: int

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        if self.count != times.size:
            raise ParameterError(f"count {self.count} != number of timestamps {times.size}")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    @classmethod
    def from_times(cls, times: np.ndarray) -> "TimestampBatch":
        times = np.asarray(times, dtype=np.float64)
        return cls(times=times, count=times.size)


def sample_poisson_count(mean: float, rng: "RngHandle | np.random.Generator") -> int:
    """Draw a Poisson count with the given mean (the total energy N*Q)."""
    if mean < 0:
        raise ParameterError(f"Poisson mean must be non-negative, got {mean}")
    if mean == 0:
        return 0
    return int(as_generator(rng).poisson(mean))


class CdfInverter:
    """Cached inverse CDFs of discretized PDFs for repeated sampling.

    The PDF is piecewise constant over the bins, so timestamps are placed
    uniformly within the selected bin. An inverter holds one table per PDF
    row: ``CdfInverter(pdf)`` has one, ``from_rows`` builds a block's
    tables in one pass, and ``sample_rows`` draws for every row at once.
    """

    # Below this many draws, per-draw CDF inversion is cheaper than the
    # bin-count decomposition used for large batches.
    BULK_THRESHOLD = 2048

    # Buckets of [0, 1) in the guide table that starts each inversion near
    # its bin. A power of two, so u * GUIDE_BUCKETS and its floor are exact.
    GUIDE_BUCKETS = 2048

    def __init__(self, pdf: DiscretizedFunction):
        if not pdf.is_pdf():
            raise ParameterError(
                f"inverse transform requires a normalized PDF; integral = {pdf.integral()}"
            )
        self._build(pdf.grid, pdf.values[None, :])

    @classmethod
    def from_rows(cls, grid: TimeGrid, pdfs: np.ndarray) -> "CdfInverter":
        """Tables for P PDF rows (P x K) that the caller has already normalized."""
        inverter = cls.__new__(cls)
        inverter._build(grid, pdfs)
        return inverter

    def _build(self, grid: TimeGrid, pdfs: np.ndarray) -> None:
        self.grid = grid
        self._pdfs = pdfs
        cdf = np.zeros((pdfs.shape[0], grid.n_bins + 1))
        cdf[:, 1:] = np.cumsum(pdfs, axis=1) * grid.bin_width
        cdf[:, -1] = 1.0
        self.cdf = cdf
        self.edges = grid.edges()
        self._t_max = np.nextafter(grid.t_r, 0.0)

    @functools.cached_property
    def _bin_mass(self) -> np.ndarray:
        """Per-row bin probabilities for the bulk path."""
        delta = self.grid.bin_width
        return self._pdfs * delta / (self._pdfs.sum(axis=1, keepdims=True) * delta)

    @functools.cached_property
    def _draw_tables(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """(guide, crowded, edges, density) for draw-by-draw inversion, flat over all rows.

        guide[r * (L + 1) + b] is the flat index of row r's last CDF entry at
        or below b / L: entry i holds the buckets from ceil(c_i * L) up to
        where entry i + 1 takes over. Rounding can put entry K - 1 just above
        the final 1.0; clamping at 1 keeps the entries in order, leaves every
        bucket below L exact, and only widens the last bucket's upper bound.
        crowded marks the buckets that hold more than one candidate entry.
        Edges and densities are laid out like the CDF, so one flat index
        reads all three; zero-density bins carry no mass, and a unit slope
        keeps the division safe.
        """
        first = np.ceil(np.minimum(self.cdf, 1.0) * self.GUIDE_BUCKETS).astype(np.intp)
        held = np.empty_like(first)
        np.subtract(first[:, 1:], first[:, :-1], out=held[:, :-1])
        held[:, -1] = self.GUIDE_BUCKETS + 1 - first[:, -1]
        guide = np.repeat(np.arange(first.size), held.ravel())
        density = np.ones_like(self.cdf)
        density[:, :-1] = np.where(self._pdfs > 0, self._pdfs, 1.0)
        edges = self.edges[None, :].repeat(self.cdf.shape[0], axis=0)
        return guide, guide[1:] > guide[:-1], edges.ravel(), density.ravel()

    def invert(self, u: np.ndarray, rows: "int | np.ndarray" = 0) -> np.ndarray:
        """Map uniform variates in [0, 1) to timestamps in [0, t_r).

        ``rows`` picks each variate's table: one row for all, or one per
        variate. The bin is the last CDF entry at or below u, exactly as a
        binary search of the row finds it: the guide table bounds it to the
        entries inside u's bucket, and a short search settles the few
        variates whose bucket holds more than one entry.
        """
        u = np.asarray(u, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.intp)
        if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
            raise ParameterError("uniform variates must lie in [0, 1)")
        if not (rows.min() >= 0 and rows.max() < self.cdf.shape[0]):
            raise ParameterError(f"row indices must lie in [0, {self.cdf.shape[0]})")
        at = (u * self.GUIDE_BUCKETS).astype(np.intp)
        at += rows * (self.GUIDE_BUCKETS + 1)
        return self._invert(u, at)

    def _invert(self, u: np.ndarray, at: np.ndarray) -> np.ndarray:
        """invert, given each variate's guide slot: its bucket plus its row's offset."""
        guide, crowded, edges, density = self._draw_tables
        flat = guide[at]
        need = np.flatnonzero(crowded[at])
        cdf = self.cdf.ravel()
        if need.size:
            pos, top, u_need = flat[need], guide[at[need] + 1], u[need]
            step = 1 << (int((top - pos).max()).bit_length() - 1)
            while step:
                cand = np.minimum(pos + step, top)
                pos = np.where(cdf[cand] <= u_need, cand, pos)
                step >>= 1
            flat[need] = pos
        # edges + (u - cdf) / density at each draw's bin, computed in place.
        t = cdf[flat]
        np.subtract(u, t, out=t)
        t /= density[flat]
        t += edges[flat]
        return np.minimum(t, self._t_max, out=t)

    def sample(self, n: int, gen: np.random.Generator) -> np.ndarray:
        """Draw n timestamps from the first row; see sample_rows."""
        return self.sample_rows([n], [gen])[0]

    def sample_rows(self, counts: "list[int]", gens: "list[np.random.Generator]") -> "list[np.ndarray]":
        """Draw counts[r] timestamps from row r with gens[r]; one array per row.

        Small batches invert the CDF draw by draw, all rows' draws in one
        pass. Large batches use the exact decomposition of the same
        distribution (multinomial bin counts, then uniform placement within
        each bin), which keeps the per-draw cost flat for photon-rich
        simulations. Each generator makes the same calls in the same order
        as when its row is sampled alone.
        """
        out: "list[np.ndarray]" = [None] * len(counts)
        small = []
        for row, (n, gen) in enumerate(zip(counts, gens)):
            if n < self.BULK_THRESHOLD:
                small.append(row)
                continue
            bins = gen.multinomial(n, self._bin_mass[row])
            starts = np.repeat(self.edges[:-1], bins)
            out[row] = np.minimum(starts + gen.random(n) * self.grid.bin_width, self._t_max)
        if small:
            sizes = [counts[row] for row in small]
            bounds = np.cumsum([0] + sizes).tolist()
            u = np.empty(bounds[-1])
            for row, start, stop in zip(small, bounds, bounds[1:]):
                gens[row].random(out=u[start:stop])
            at = (u * self.GUIDE_BUCKETS).astype(np.intp)
            for row, start, stop in zip(small, bounds, bounds[1:]):
                at[start:stop] += row * (self.GUIDE_BUCKETS + 1)
            times = self._invert(u, at)
            # Copies: a kept row must not pin the whole block's buffer.
            for row, start, stop in zip(small, bounds, bounds[1:]):
                out[row] = times[start:stop].copy()
        return out


def inverse_transform_sample(
    pdf: DiscretizedFunction, n: int, rng: "RngHandle | np.random.Generator"
) -> TimestampBatch:
    """Draw n i.i.d. timestamps from a discretized PDF."""
    if n < 0:
        raise ParameterError(f"sample count must be non-negative, got {n}")
    inverter = CdfInverter(pdf)
    return TimestampBatch.from_times(inverter.sample(n, as_generator(rng)))


def simulate_arrivals(
    sys: SystemParams,
    env: EnvParams,
    grid: TimeGrid,
    rng: "RngHandle | np.random.Generator",
) -> TimestampBatch:
    """Simulate one acquisition of photon arrivals over N cycles.

    The count is Poisson(N * Q) and the relative timestamps are i.i.d.
    draws from the arrival PDF.
    """
    gen = as_generator(rng)
    energy = env.energy
    if energy == 0:
        return TimestampBatch.from_times(np.empty(0))
    count = sample_poisson_count(sys.n_cycles * energy, gen)
    pdf = arrival_pdf(build_flux(sys, env, grid))
    return inverse_transform_sample(pdf, count, gen)


def write_times_csv(batch: TimestampBatch, path: "str | Path") -> None:
    """One timestamp per line, full double precision."""
    np.savetxt(path, batch.times, fmt="%.17g")


def read_times_csv(path: "str | Path") -> TimestampBatch:
    times = np.loadtxt(path, dtype=np.float64, ndmin=1)
    return TimestampBatch.from_times(times)


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
    times = np.frombuffer(body, dtype="<f8").astype(np.float64)
    return TimestampBatch.from_times(times)
