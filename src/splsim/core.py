"""Parameter sets, time grids, and construction of the photon arrival flux.

Time is measured in arbitrary consistent units; the repetition period t_r
sets the scale. All quantities are per-pixel and per-cycle unless noted.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

# Pulse containment: the Gaussian pulse is considered "inside" the period
# when tau is at least this many half-widths from both period edges.
PULSE_CONTAINMENT_SIGMAS = 5.0


class ParameterError(ValueError):
    """Invalid or inconsistent simulation parameters."""


class DegenerateDistributionError(ValueError):
    """A distribution with zero total mass where positive mass is required."""


class FormatError(RuntimeError):
    """A serialized artifact is corrupted, truncated, or incompatible."""


class NoPhotonError(RuntimeError):
    """An estimator was asked to run on an empty timestamp batch."""


def require_integer(name: str, value, minimum: int) -> None:
    """Reject a count, seed or stream id that is not a Python or numpy integer of at least minimum."""
    if not (isinstance(value, (int, np.integer)) and value >= minimum):
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def frozen_copy(values) -> np.ndarray:
    """A read-only float64 copy: a validated value type holds one, so no caller can change it later."""
    values = np.array(values, dtype=np.float64, order="C")
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class SystemParams:
    """Hardware constants: repetition period, dead time, pulse width, cycles.

    Defaults are implementer-chosen (no canonical values exist): t_r = 10,
    t_d = 8, sigma_t = 0.1, N = 1000 in arbitrary consistent time units.
    """

    t_r: float = 10.0
    t_d: float = 8.0
    sigma_t: float = 0.1
    n_cycles: int = 1000

    def __post_init__(self):
        # Each check is false for NaN, and the bounds exclude infinities.
        if not 0 < self.t_r < math.inf:
            raise ParameterError(f"t_r (repetition period) must be positive and finite, got {self.t_r}")
        if not 0 <= self.t_d < self.t_r:
            raise ParameterError(
                f"dead time must satisfy 0 <= t_d < t_r, got t_d={self.t_d}, t_r={self.t_r}"
            )
        if not 0 < self.sigma_t < self.t_r:
            raise ParameterError(
                f"sigma_t (pulse half width) must be positive and much smaller than t_r, got {self.sigma_t}"
            )
        require_integer("n_cycles", self.n_cycles, 1)


@dataclass(frozen=True)
class EnvParams:
    """Scene parameters: pulse delay tau, signal level S, background level B.

    S and B are expected photons per cycle from the laser return and the
    ambient light respectively; the per-cycle energy is Q = S + B.
    """

    tau: float
    s_level: float
    b_level: float

    def __post_init__(self):
        for name in ("tau", "s_level", "b_level"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ParameterError(f"{name} must be non-negative and finite, got {value}")

    @property
    def energy(self) -> float:
        """Per-cycle energy Q = S + B."""
        return self.s_level + self.b_level


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n_bins bins over one repetition period [0, t_r)."""

    n_bins: int = 1024
    t_r: float = 10.0

    def __post_init__(self):
        require_integer("n_bins", self.n_bins, 1)
        if not 0 < self.t_r < math.inf:
            raise ParameterError(f"t_r (grid period) must be positive and finite, got {self.t_r}")

    @property
    def bin_width(self) -> float:
        return self.t_r / self.n_bins

    def centers(self) -> np.ndarray:
        return (np.arange(self.n_bins) + 0.5) * self.bin_width

    def edges(self) -> np.ndarray:
        return np.arange(self.n_bins + 1) * self.bin_width


PDF_TOL = 1e-9


@dataclass(frozen=True)
class DiscretizedFunction:
    """A non-negative function on [0, t_r) sampled at the grid bin centers.

    Values are interpreted as a piecewise-constant density over the bins,
    so the integral of the function is sum(values) * bin_width.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = frozen_copy(self.values)
        if values.shape != (self.grid.n_bins,):
            raise ParameterError(
                f"expected {self.grid.n_bins} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ParameterError("function values must be finite")
        if np.any(values < 0):
            raise ParameterError("function values must be non-negative")
        object.__setattr__(self, "values", values)

    def integral(self) -> float:
        return float(self.values.sum() * self.grid.bin_width)

    def is_pdf(self) -> bool:
        return abs(self.integral() - 1.0) <= PDF_TOL


def gaussian_pulse(t: np.ndarray, tau: float, sigma_t: float) -> np.ndarray:
    """Unit-area Gaussian pulse shape centered at tau with std sigma_t."""
    z = (t - tau) / sigma_t
    return np.exp(-0.5 * z * z) / (sigma_t * math.sqrt(2.0 * math.pi))


def build_flux(sys: SystemParams, env: EnvParams, grid: TimeGrid) -> DiscretizedFunction:
    """Discretize the arrival flux S * pulse(t - tau) + B / t_r at bin centers.

    Quantum efficiency is taken as 1 and dark counts as 0, so the integral
    over one period is S + B whenever the pulse is fully contained.
    """
    rows = flux_rows(sys, np.array([env.tau]), np.array([env.s_level]), np.array([env.b_level]), grid)
    return DiscretizedFunction(grid, rows[0])


def flux_rows(
    sys: SystemParams,
    tau: np.ndarray,
    s_level: np.ndarray,
    b_level: np.ndarray,
    grid: TimeGrid,
) -> np.ndarray:
    """build_flux for P environments at once: (tau, S, B) vectors to a P x K matrix.

    Row i is bit-identical to build_flux of environment i. The environments
    are not re-checked: callers pass finite, non-negative values, as
    EnvParams and SceneSpec guarantee.
    """
    if grid.t_r != sys.t_r:
        raise ParameterError(
            f"grid period {grid.t_r} does not match system period {sys.t_r}"
        )
    margin = PULSE_CONTAINMENT_SIGMAS * sys.sigma_t
    outside = (s_level > 0) & ~((margin <= tau) & (tau <= sys.t_r - margin))
    if outside.any():
        warnings.warn(
            f"{np.count_nonzero(outside)} pulse(s) not fully contained in [0, {sys.t_r}), "
            f"first at tau={tau[outside][0]}; the per-period energy will deviate from S + B",
            stacklevel=2,
        )
    values = s_level[:, None] * gaussian_pulse(grid.centers()[None, :], tau[:, None], sys.sigma_t)
    values += (b_level / sys.t_r)[:, None]
    return values


def arrival_pdf(flux: DiscretizedFunction) -> DiscretizedFunction:
    """Normalize a flux function to the photon arrival timestamp PDF."""
    total = flux.integral()
    if total <= 0:
        raise DegenerateDistributionError("cannot normalize an all-zero flux")
    return DiscretizedFunction(flux.grid, flux.values / total)
