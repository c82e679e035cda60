"""Training-pair generation and the versioned binary dataset format.

Each sample is an environment drawn from the configured ranges and its
label: the averaged empirical registration histogram produced by the
conventional simulator. A dataset stores only these draws, as column
arrays; a sample's flux and its train/test split are functions of its
environment and index, derived when read. Files carry a magic tag, the
full generating configuration, one (tau, S, B, label) record per sample,
and a trailing CRC32 so a dataset can be regenerated bit-exactly from its
own header.
"""

from __future__ import annotations

import logging
import struct
import zlib
from dataclasses import dataclass
from functools import partial
from hashlib import sha256
from pathlib import Path

import numpy as np

from .arrival import RngHandle
from .core import (
    DegenerateDistributionError,
    EnvParams,
    FormatError,
    ParameterError,
    SystemParams,
    TimeGrid,
    flux_rows,
    require_integer,
    usable_cpus,
)
from .oracle import empirical_pdf

log = logging.getLogger(__name__)

DATASET_MAGIC = b"SPLDS2"
TEST_FRACTION_DENOM = 5  # 4:1 train/test split
MIN_ENERGY = 0.01        # resample environments below this per-cycle energy

DEFAULT_S_RANGE = (0.0, 3.0)
DEFAULT_B_RANGE = (0.0, 3.0)
DEFAULT_TAU_RANGE = (2.0, 6.0)


@dataclass(frozen=True)
class EnvRanges:
    s_range: "tuple[float, float]" = DEFAULT_S_RANGE
    b_range: "tuple[float, float]" = DEFAULT_B_RANGE
    tau_range: "tuple[float, float]" = DEFAULT_TAU_RANGE

    def __post_init__(self):
        for lo, hi in (self.s_range, self.b_range, self.tau_range):
            if not lo <= hi:
                raise ParameterError(f"invalid range ({lo}, {hi})")

    def inside(self, tau, s_level, b_level):
        """Whether each environment lies in the ranges: over vectors, element by element, or over three floats."""
        return (
            (self.s_range[0] <= s_level) & (s_level <= self.s_range[1])
            & (self.b_range[0] <= b_level) & (b_level <= self.b_range[1])
            & (self.tau_range[0] <= tau) & (tau <= self.tau_range[1])
        )


def sample_env(gen: np.random.Generator, ranges: EnvRanges = EnvRanges()) -> EnvParams:
    """Draw independent uniform (S, B, tau) from the configured ranges."""
    s = gen.uniform(*ranges.s_range)
    b = gen.uniform(*ranges.b_range)
    tau = gen.uniform(*ranges.tau_range)
    return EnvParams(tau=tau, s_level=s, b_level=b)


def make_pair(
    sys: SystemParams,
    env: EnvParams,
    grid: TimeGrid,
    n_realizations: int,
    rng: RngHandle,
) -> np.ndarray:
    """The label of one training pair: the empirical registration PDF of env."""
    return empirical_pdf(sys, env, grid, n_realizations, rng).values


def split_tag(seed: int, index: int) -> str:
    """Deterministic 4:1 train/test assignment from (seed, sample index)."""
    digest = sha256(f"{seed}:{index}".encode()).digest()
    return "test" if int.from_bytes(digest[:8], "little") % TEST_FRACTION_DENOM == 0 else "train"


@dataclass(frozen=True)
class DatasetHeader:
    sys: SystemParams
    n_bins: int
    ranges: EnvRanges
    seed: int
    n_realizations: int
    n_samples: int

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(n_bins=self.n_bins, t_r=self.sys.t_r)


@dataclass(frozen=True)
class Dataset:
    """Samples as columns: row i of each array is sample i.

    env is P x 3 (tau, S, B) and label is P x K. The flux rows (P x K, the
    raw flux of each environment) and the P-long split mask are derived
    from them on each access.
    """

    header: DatasetHeader
    env: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        h = self.header
        for name, shape in (("env", (h.n_samples, 3)), ("label", (h.n_samples, h.n_bins))):
            found = np.shape(getattr(self, name))
            if found != shape:
                raise ParameterError(f"{name} has shape {found}; the header implies {shape}")

    @property
    def grid(self) -> TimeGrid:
        return self.header.grid

    @property
    def flux(self) -> np.ndarray:
        return self._flux(slice(None))

    @property
    def is_test(self) -> np.ndarray:
        h = self.header
        return np.array([split_tag(h.seed, i) == "test" for i in range(h.n_samples)], dtype=bool)

    def _flux(self, rows) -> np.ndarray:
        tau, s_level, b_level = self.env[rows].T
        return flux_rows(self.header.sys, tau, s_level, b_level, self.grid)

    def arrays(self, split: str) -> "tuple[np.ndarray, np.ndarray]":
        """(flux, label) rows of the "train" or "test" split."""
        if split not in ("train", "test"):
            raise ParameterError(f"unknown split {split!r}; expected 'train' or 'test'")
        rows = self.is_test if split == "test" else ~self.is_test
        return self._flux(rows), self.label[rows]


def _try_pair(sys, grid, n_realizations, base, attempt, env) -> "np.ndarray | None":
    """make_pair on stream base.child(attempt), or None when env registers no photon at all."""
    try:
        return make_pair(sys, env, grid, n_realizations, base.child(attempt))
    except DegenerateDistributionError:
        return None


def generate_dataset(
    sys: SystemParams,
    grid: TimeGrid,
    n_samples: int,
    n_realizations: int = 20,
    seed: int = 0,
    ranges: EnvRanges = EnvRanges(),
) -> Dataset:
    """Generate training pairs; the result is a pure function of the header.

    Near-zero-energy environments (Q < MIN_ENERGY) and the rare draw that
    registers no photon at all are resampled, with a log record. Forked
    workers, one per usable CPU, label draw k on stream (seed, 1).child(k);
    each round labels as many draws as pairs are missing and keeps the
    successes in draw order, so no result depends on the worker count.
    A worker's error cancels the pending pairs and reaches the caller.
    """
    require_integer("n_samples", n_samples, 1)
    require_integer("n_realizations", n_realizations, 1)
    from concurrent.futures import ProcessPoolExecutor  # imported here: at the top it adds ~7% to `import splsim`
    from multiprocessing import get_context
    env_gen = RngHandle(seed, stream=0).generator()
    label_fn = partial(_try_pair, sys, grid, n_realizations, RngHandle(seed, stream=1))
    env_rows, label = np.empty((n_samples, 3)), np.empty((n_samples, grid.n_bins))
    attempt = filled = 0
    pool = ProcessPoolExecutor(min(usable_cpus(), n_samples), mp_context=get_context("fork"))
    try:
        while filled < n_samples:
            tries: "list[tuple[int, EnvParams]]" = []
            while len(tries) < n_samples - filled:
                env = sample_env(env_gen, ranges)
                attempt += 1
                if env.energy < MIN_ENERGY:
                    log.info("resampling near-degenerate environment %s", env)
                else:
                    tries.append((attempt, env))
            for (_, env), row in zip(tries, pool.map(label_fn, *zip(*tries))):
                if row is None:
                    log.info("resampling environment with zero registrations %s", env)
                else:
                    env_rows[filled], label[filled] = (env.tau, env.s_level, env.b_level), row
                    filled += 1
    finally:
        pool.shutdown(cancel_futures=True)
    header = DatasetHeader(sys=sys, n_bins=grid.n_bins, ranges=ranges, seed=seed,
                           n_realizations=n_realizations, n_samples=n_samples)
    return Dataset(header=header, env=env_rows, label=label)


# t_r, t_d, sigma_t, n_cycles, n_bins, seed, n_realizations,
# s_lo, s_hi, b_lo, b_hi, tau_lo, tau_hi, n_samples
_HEADER = struct.Struct("<dddIIQIddddddI")


def write_dataset(ds: Dataset, path: "str | Path") -> None:
    """Header, then one record of 3 + K little-endian doubles per sample: tau, S, B, label."""
    h = ds.header
    records = np.concatenate([ds.env, ds.label], axis=1).astype("<f8", copy=False)
    head = DATASET_MAGIC + _HEADER.pack(
        h.sys.t_r,
        h.sys.t_d,
        h.sys.sigma_t,
        h.sys.n_cycles,
        h.n_bins,
        h.seed,
        h.n_realizations,
        *h.ranges.s_range,
        *h.ranges.b_range,
        *h.ranges.tau_range,
        h.n_samples,
    )
    body = records.tobytes()
    crc = zlib.crc32(body, zlib.crc32(head))
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(body)
        fh.write(struct.pack("<I", crc))


def _parse_header(raw: bytes, path) -> DatasetHeader:
    fields = _HEADER.unpack_from(raw, len(DATASET_MAGIC))
    t_r, t_d, sigma_t, n_cycles, n_bins, seed, n_real = fields[:7]
    s_lo, s_hi, b_lo, b_hi, tau_lo, tau_hi, n_samples = fields[7:]
    try:
        sys = SystemParams(t_r=t_r, t_d=t_d, sigma_t=sigma_t, n_cycles=n_cycles)
        TimeGrid(n_bins=n_bins, t_r=t_r)  # rejects a zero bin count
        ranges = EnvRanges((s_lo, s_hi), (b_lo, b_hi), (tau_lo, tau_hi))
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return DatasetHeader(
        sys=sys,
        n_bins=n_bins,
        ranges=ranges,
        seed=seed,
        n_realizations=n_real,
        n_samples=n_samples,
    )


def read_dataset(path: "str | Path") -> Dataset:
    raw = Path(path).read_bytes()
    start = len(DATASET_MAGIC) + _HEADER.size
    if len(raw) < start + 4 or raw[: len(DATASET_MAGIC)] != DATASET_MAGIC:
        raise FormatError(f"{path}: not a {DATASET_MAGIC.decode()} dataset file")
    stored_crc = struct.unpack_from("<I", raw, len(raw) - 4)[0]
    if zlib.crc32(memoryview(raw)[:-4]) != stored_crc:
        raise FormatError(f"{path}: checksum mismatch")
    header = _parse_header(raw, path)
    width = 3 + header.n_bins
    expected = start + 8 * width * header.n_samples + 4
    if header.n_samples < 1 or len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes for {header.n_samples} samples, found {len(raw)}")
    records = np.frombuffer(raw, dtype="<f8", count=width * header.n_samples, offset=start)
    records = records.reshape(header.n_samples, width)
    if not np.all((records >= 0) & (records < np.inf)):
        raise FormatError(f"{path}: negative or non-finite environment parameter or label")
    return Dataset(header=header, env=records[:, :3], label=records[:, 3:])  # read-only views of raw
