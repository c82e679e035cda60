"""Two-step photon arrival simulator: Poisson count, then i.i.d. timestamps.

Counts follow Poisson(N * Q) and timestamps are drawn from the arrival PDF
on the discretized grid: by inverse transform sampling for small counts
and by multinomial bin counts for large ones (`CdfInverter.sample`). The
conventional simulator draws its arrivals through the same `draw_arrivals`
step. A simulator takes a stream address (`RngHandle`) and builds its
generator once; a draw takes that `numpy.random.Generator`. So a seed and
a stream fix every simulation exactly.

`RngHandle.generator` defines a stream. `RngHandle.child_generators`
computes the seed words of many child streams in one pass and yields each
child its own generator, bit-identical to `child(i).generator()`; numpy
seeds each PCG64 from those words. `place_in_bins` places the bin-count
draws of many rows in one pass.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

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
    frozen_copy,
    require_integer,
)

_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio multiplier for stream derivation
_MASK63 = (1 << 63) - 1

# numpy's SeedSequence hash over a pool of four uint32 words (bit_generator.pyx).
_MASK32 = (1 << 32) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_word(word, hash_const: int, mult: int):
    """SeedSequence's hash of one uint32 word (an int or a uint32 array); returns it and the next constant."""
    next_const = hash_const * mult & _MASK32
    word = (word ^ hash_const) * next_const & _MASK32
    return word ^ (word >> 16), next_const


def _mix_words(x, y):
    """SeedSequence's mix of two uint32 words, each an int or a uint32 array."""
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ (r >> 16)


def _mix_in(pool: list, word, hash_const: int) -> "tuple[list, int]":
    """Mix one entropy word into every pool word, as SeedSequence does past the pool's first fill."""
    mixed = []
    for dst in pool:
        hashed, hash_const = _hash_word(word, hash_const, _MULT_A)
        mixed.append(_mix_words(dst, hashed))
    return mixed, hash_const


def _pcg64_seeds(seed: int, spawn_ids: np.ndarray) -> np.ndarray:
    """The four uint64 words SeedSequence(seed, spawn_key=(id,)) hands PCG64, for each id (n x 4).

    numpy mixes the seed's w run-entropy words into the pool, taking
    16 + 4 * max(0, w - 4) hash constants; then each id's spawn words (one
    below 2**32, two from it) are mixed in, in one uint32 pass over all ids.
    """
    seed = int(seed)
    pool = np.random.SeedSequence(seed).pool.tolist()
    words = max(1, -(-seed.bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - _POOL_SIZE), 1 << 32) & _MASK32
    low = (spawn_ids & _MASK32).astype(np.uint32)
    high = (spawn_ids >> 32).astype(np.uint32)
    pool, hash_const = _mix_in(pool, low, hash_const)
    with_high, _ = _mix_in(pool, high, hash_const)
    pool = [np.where(high != 0, a, b) for a, b in zip(with_high, pool)]
    state = np.empty((spawn_ids.size, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        state[:, i], hash_const = _hash_word(pool[i % _POOL_SIZE], hash_const, _MULT_B)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _child_stream(stream: int, index):
    """The stream id of child `index`: an int, or a uint64 array of them."""
    return (((stream + 1) * _MIX & _MASK63) + index) & _MASK63


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 its four precomputed seed words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@dataclass(frozen=True)
class RngHandle:
    """Addressable random stream: (seed, stream) fully determines the output."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        require_integer("seed", self.seed, 0)
        require_integer("stream", self.stream, 0)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, index: int) -> "RngHandle":
        """Derive an independent sub-stream, e.g. one per pixel or realization."""
        if index < 0:
            raise ParameterError("stream index must be non-negative")
        return RngHandle(self.seed, _child_stream(self.stream, index))

    def child_generators(self, indices) -> "Iterator[np.random.Generator]":
        """For each index i, its own generator, drawing exactly what child(i).generator() draws.

        All the children's seed words are computed here, in one vectorized
        pass; each generator is built only when the iterator reaches it.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if (indices < 0).any():
            raise ParameterError("stream index must be non-negative")
        seeds = _pcg64_seeds(self.seed, _child_stream(self.stream, indices.astype(np.uint64)))
        return (np.random.Generator(np.random.PCG64(_SeedWords(words))) for words in seeds)


@dataclass(frozen=True)
class TimestampBatch:
    """Relative photon timestamps in [0, t_r), held in a read-only copy of the input."""

    times: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", frozen_copy(self.times))

    @property
    def count(self) -> int:
        return self.times.size


def sample_poisson_count(mean: float, gen: np.random.Generator) -> int:
    """Draw a Poisson count with the given mean (the total energy N*Q)."""
    if mean < 0:
        raise ParameterError(f"Poisson mean must be non-negative, got {mean}")
    return int(gen.poisson(mean))


def sample_bin_counts(n: int, bin_mass: np.ndarray, grid: TimeGrid, gen: np.random.Generator) -> np.ndarray:
    """Draw n timestamps from a piecewise-constant PDF given its bin probabilities.

    The exact decomposition of that distribution: multinomial counts over
    the bins, then each timestamp uniform within its bin. The draws come
    out grouped by bin, in increasing bin order, so their order carries no
    information.
    """
    bins = gen.multinomial(n, bin_mass)
    return place_in_bins(bins, gen.random(n), grid)


def place_in_bins(bins: np.ndarray, u: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """sample_bin_counts's placement for one row of bin counts or for P rows (P x K) at once.

    u holds one uniform per timestamp, the rows' draws concatenated, and is
    consumed (scaled in place). Each timestamp lies at its bin's start plus
    u times the bin width, clamped below t_r; the result is the rows'
    timestamps concatenated, row i bit-identical to placing row i alone.
    """
    starts = np.broadcast_to(grid.edges()[:-1], bins.shape)
    t = np.repeat(starts.ravel(), bins.ravel())
    t += np.multiply(u, grid.bin_width, out=u)
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


def _checked_times(times: np.ndarray, path: "str | Path") -> TimestampBatch:
    """Reject negative and non-finite timestamps read from a file.

    The files store no period, so a timestamp at or beyond t_r cannot be
    detected here.
    """
    if not (np.isfinite(times).all() and (times >= 0).all()):
        raise FormatError(f"{path}: timestamps must be finite and non-negative")
    return TimestampBatch(times)


def read_times_csv(path: "str | Path") -> TimestampBatch:
    """Read write_times_csv's format; see _checked_times for the values it rejects."""
    try:
        times = np.loadtxt(path, dtype=np.float64, ndmin=1)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed timestamp file") from exc
    return _checked_times(times, path)


_BIN_HEADER = struct.Struct("<Q")


def write_times_binary(batch: TimestampBatch, path: "str | Path") -> None:
    """Flat little-endian float64 dump with an 8-byte count header."""
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(batch.count))
        fh.write(batch.times.astype("<f8").tobytes())


def read_times_binary(path: "str | Path") -> TimestampBatch:
    """Read write_times_binary's format; see _checked_times for the values it rejects."""
    raw = Path(path).read_bytes()
    if len(raw) < _BIN_HEADER.size:
        raise FormatError(f"{path}: truncated timestamp file")
    (count,) = _BIN_HEADER.unpack_from(raw)
    body = raw[_BIN_HEADER.size:]
    if len(body) != 8 * count:
        raise FormatError(f"{path}: expected {count} timestamps, found {len(body) // 8}")
    return _checked_times(np.frombuffer(body, dtype="<f8"), path)
