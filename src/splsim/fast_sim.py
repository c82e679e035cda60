"""Learned fast simulator and the multi-pixel depth-map demo.

The fast path predicts the registration PDF with the autoencoder, draws a
registration count from the Gaussian count model, and draws that many
timestamps by bin counts: multinomial counts over the PDF's bins, then
uniform placement within each bin. Images run in blocks of pixels, so
flux, network, count model and photon placement cost one pass per block,
and every pixel's random stream is keyed in one pass per image. Per pixel
what remains is the count, multinomial and uniform draws from its own
stream, O(m) and independent of the number of laser cycles.

An oracle image runs one worker thread per usable CPU; the acquisitions'
numpy steps release the GIL, so the workers overlap.
"""

from __future__ import annotations

import threading
import time
import warnings
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .arrival import RngHandle, TimestampBatch, place_in_bins
from .core import (
    EnvParams,
    FormatError,
    NoPhotonError,
    ParameterError,
    SystemParams,
    TimeGrid,
    flux_rows,
    frozen_copy,
    usable_cpus,
)
from .count_model import count_moments, estimate_count, sample_count
from .dataset import EnvRanges
from .oracle import simulate_registrations
from .pdf_net import AEModel, predict_pdf, predict_pdf_rows

# The engine calls the row forms. predict_pdf and estimate_count are
# imported all the same: perfbench/tracing.py wraps them under this module's
# names, predict_pdf as the one layer its absent-layer test deletes, and
# estimate_count's span has no other target.

ENGINES = ("oracle", "fast")

# Pixels per batched pass of the fast engine. The forward pass caches every
# layer's P x width activations, so a whole-image batch multiplies the peak
# memory while blocks of this size already amortize the per-call overhead.
BLOCK_PIXELS = 64

_EMPTY = TimestampBatch(np.empty(0))


def _simulate_block(
    sys: SystemParams,
    grid: TimeGrid,
    model: AEModel,
    tau: np.ndarray,
    s_level: np.ndarray,
    b_level: np.ndarray,
    streams: "Iterable[np.random.Generator]",
    n_rows: int,
) -> "list[TimestampBatch]":
    """The learned simulator for a block of pixels; the j-th pixel with energy draws from the j-th of streams.

    Flux, network and count model run once over the block's rows. Each
    pixel draws its count, its bin counts and its uniforms from its own
    generator, in that order, as a lone pixel does (see sample_bin_counts),
    and the block's timestamps are then placed in one pass. Zero-energy
    pixels register nothing, draw nothing and take no generator, so a
    block takes from streams exactly one generator per pixel with energy.

    The network pass always has ``n_rows`` rows, pixel i in row i: BLAS
    picks its kernel, and so its rounding, by matrix shape, and a fixed
    shape keeps a pixel's output independent of the pixels sharing its
    block. Unused rows repeat the first active pixel's flux.
    """
    energy = s_level + b_level
    batches = [_EMPTY] * energy.size
    active = np.flatnonzero(energy > 0)
    if active.size == 0:
        return batches
    flux = flux_rows(sys, tau[active], s_level[active], b_level[active], grid)
    padded = np.repeat(flux[:1], n_rows, axis=0)
    padded[active] = flux
    f_r = predict_pdf_rows(model, padded, grid.bin_width)[active]
    mean_r, std_r, _ = count_moments(sys, energy[active], flux, f_r, grid)
    bin_mass = f_r / f_r.sum(axis=1, keepdims=True)
    bins = np.empty(bin_mass.shape, dtype=np.int64)
    uniforms = []
    # streams comes last, so zip stops without taking a generator beyond the block.
    for row, (mean, std, mass, gen) in enumerate(zip(mean_r.tolist(), std_r.tolist(), bin_mass, streams)):
        n = sample_count(mean, std, gen)
        bins[row] = gen.multinomial(n, mass)
        uniforms.append(gen.random(n))
    times = place_in_bins(bins, np.concatenate(uniforms), grid)
    for i, pixel_times in zip(active.tolist(), np.split(times, np.cumsum(bins.sum(axis=1))[:-1])):
        batches[i] = TimestampBatch(pixel_times)
    return batches


def _check_ranges(tau, s_level, b_level) -> np.ndarray:
    """Mask of pixels with energy whose environment lies outside the trained ranges; warns once if any.

    The trained ranges are the default EnvRanges, those of every dataset
    the CLI generates, because a model file does not record its own.
    """
    outside = np.logical_and(s_level + b_level > 0, np.logical_not(EnvRanges().inside(tau, s_level, b_level)))
    if outside.any():
        warnings.warn(
            f"{np.count_nonzero(outside)} of {outside.size} pixel environment(s) lie outside "
            "the trained parameter ranges; predictions may extrapolate poorly",
            stacklevel=3,
        )
    return outside


def fast_simulate(
    sys: SystemParams,
    env: EnvParams,
    model: AEModel,
    grid: TimeGrid,
    rng: RngHandle,
) -> TimestampBatch:
    """One acquisition from the learned simulator: a block of one pixel.

    The timestamps come grouped by bin (see sample_bin_counts), so their
    order carries no information.
    """
    tau, s_level, b_level = (np.array([v]) for v in (env.tau, env.s_level, env.b_level))
    _check_ranges(tau, s_level, b_level)
    return _simulate_block(sys, grid, model, tau, s_level, b_level, [rng.generator()], n_rows=1)[0]


def estimate_depth(batch: TimestampBatch) -> float:
    """Naive sample-mean depth (delay) estimate from relative timestamps."""
    if batch.count == 0:
        raise NoPhotonError("cannot estimate depth from an empty batch")
    return float(batch.times.sum() / batch.count)


@dataclass(frozen=True)
class SceneSpec:
    """Per-pixel depth (delay) and reflectivity plus global illumination.

    The per-pixel signal level is reflectivity * pulse_energy; the
    background level b_level is shared by all pixels.
    """

    depths: np.ndarray
    reflectivity: np.ndarray
    b_level: float
    pulse_energy: float

    def __post_init__(self):
        depths = frozen_copy(self.depths)
        try:
            refl = np.broadcast_to(self.reflectivity, depths.shape)
        except ValueError:
            raise ParameterError(f"reflectivity of shape {np.shape(self.reflectivity)} does not "
                                 f"broadcast to the depth map's shape {depths.shape}") from None
        refl = frozen_copy(refl)
        if depths.ndim != 2:
            raise ParameterError("depth map must be 2-D")
        if not (np.all(np.isfinite(depths)) and np.all(np.isfinite(refl))
                and np.isfinite(self.b_level) and np.isfinite(self.pulse_energy)):
            raise ParameterError("depth, reflectivity, background, and energy must be finite")
        if np.any(depths < 0) or np.any(refl < 0) or self.b_level < 0 or self.pulse_energy < 0:
            raise ParameterError("depth, reflectivity, background, and energy must be non-negative")
        object.__setattr__(self, "depths", depths)
        object.__setattr__(self, "reflectivity", refl)

    @property
    def height(self) -> int:
        return self.depths.shape[0]

    @property
    def width(self) -> int:
        return self.depths.shape[1]

    def env_at(self, row: int, col: int) -> EnvParams:
        return EnvParams(
            tau=float(self.depths[row, col]),
            s_level=float(self.reflectivity[row, col] * self.pulse_energy),
            b_level=self.b_level,
        )


def write_scene(scene: SceneSpec, path: "str | Path") -> None:
    """Plain-text scene: header line, then row-major depth and reflectivity."""
    with open(path, "w") as fh:
        fh.write(f"{scene.width} {scene.height} {scene.b_level:.17g} {scene.pulse_energy:.17g}\n")
        for grid_vals in (scene.depths, scene.reflectivity):
            for row in grid_vals:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_scene(path: "str | Path") -> SceneSpec:
    try:
        tokens = Path(path).read_bytes().decode("utf-8").split()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: scene file is not UTF-8 text") from exc
    if len(tokens) < 4:
        raise FormatError(f"{path}: missing scene header")
    try:
        width, height = int(tokens[0]), int(tokens[1])
        b_level, pulse_energy = float(tokens[2]), float(tokens[3])
        body = np.asarray([float(t) for t in tokens[4:]])
    except ValueError as exc:
        raise FormatError(f"{path}: malformed scene file") from exc
    if width < 0 or height < 0:
        raise FormatError(f"{path}: negative scene size {width}x{height}")
    if body.size != 2 * width * height:
        raise FormatError(
            f"{path}: expected {2 * width * height} grid values, found {body.size}"
        )
    depths = body[: width * height].reshape(height, width)
    refl = body[width * height :].reshape(height, width)
    try:
        return SceneSpec(depths=depths, reflectivity=refl, b_level=b_level, pulse_energy=pulse_energy)
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}") from exc


@dataclass
class ImageResult:
    """Per-pixel simulation output for one engine."""

    depth_estimate: np.ndarray      # NaN where a pixel registered no photon
    out_of_range: np.ndarray        # environment outside the trained ranges (all False for the oracle)
    batches: "list[TimestampBatch]"  # row-major pixel order
    mean_pixel_seconds: float       # the engine's wall time over the pixel count, every worker running
    total_seconds: float            # the engine plus the depth estimates


def simulate_image(
    scene: SceneSpec,
    sys: SystemParams,
    grid: TimeGrid,
    engine: str,
    rng: RngHandle,
    model: "AEModel | None" = None,
) -> ImageResult:
    """Simulate every pixel independently and estimate the depth map.

    Each pixel gets its own random stream keyed by (seed, pixel index), so
    the result does not depend on traversal order. The fast engine keys
    every pixel's stream at once (RngHandle.child_generators) and runs
    blocks of BLOCK_PIXELS pixels, and each of its pixels' timestamps come
    grouped by bin, so their order carries no information. The oracle's
    worker k of W, one per usable CPU, runs pixels k, k + W, ..., each on
    its stream address rng.child(idx); an error or an interrupt stops every
    worker at its next pixel.
    """
    if engine not in ENGINES:
        raise ParameterError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "fast" and model is None:
        raise ParameterError("the fast engine requires a trained model")
    h, w = scene.height, scene.width
    n_px = h * w
    batches = [_EMPTY] * n_px
    start_total = time.perf_counter()
    if engine == "oracle":
        out_of_range = np.zeros(n_px, dtype=bool)
        n_workers, stop = max(1, min(usable_cpus(), n_px)), threading.Event()

        def run(pixels: range) -> None:
            for idx in pixels:
                if stop.is_set():
                    return
                env = scene.env_at(*divmod(idx, w))
                batches[idx] = simulate_registrations(sys, env, grid, rng.child(idx)).rel_times

        with ThreadPoolExecutor(n_workers) as pool:
            try:
                workers = [pool.submit(run, range(k, n_px, n_workers)) for k in range(n_workers)]
                wait(workers, return_when=FIRST_EXCEPTION)
            finally:
                stop.set()  # after an error or an interrupt, the others stop at their next pixel
        for worker in workers:
            worker.result()
    else:
        tau = scene.depths.ravel()
        s_level = (scene.reflectivity * scene.pulse_energy).ravel()
        b_level = np.full(n_px, scene.b_level)
        out_of_range = _check_ranges(tau, s_level, b_level)
        streams = rng.child_generators(np.flatnonzero(s_level + b_level > 0))
        for start in range(0, n_px, BLOCK_PIXELS):
            block = slice(start, min(start + BLOCK_PIXELS, n_px))
            batches[block] = _simulate_block(
                sys, grid, model, tau[block], s_level[block], b_level[block], streams, n_rows=BLOCK_PIXELS,
            )
    engine_seconds = time.perf_counter() - start_total
    depth = np.full(n_px, np.nan)
    for idx, batch in enumerate(batches):
        if batch.count:
            depth[idx] = estimate_depth(batch)
    return ImageResult(
        depth_estimate=depth.reshape(h, w),
        out_of_range=out_of_range.reshape(h, w),
        batches=batches,
        mean_pixel_seconds=engine_seconds / max(n_px, 1),
        total_seconds=time.perf_counter() - start_total,
    )


def ramp_scene(
    width: int,
    height: int,
    tau_range: "tuple[float, float]" = (2.0, 6.0),
    reflectivity: float = 1.0,
    b_level: float = 1.0,
    pulse_energy: float = 2.0,
) -> SceneSpec:
    """Synthetic left-to-right depth ramp used by the demo and benchmarks."""
    lo, hi = tau_range
    col_depths = np.linspace(lo, hi, width)
    depths = np.tile(col_depths, (height, 1))
    return SceneSpec(
        depths=depths,
        reflectivity=reflectivity,
        b_level=b_level,
        pulse_energy=pulse_energy,
    )


def write_depth_csv(depth: np.ndarray, path: "str | Path") -> None:
    np.savetxt(path, depth, fmt="%.17g", delimiter=",")
