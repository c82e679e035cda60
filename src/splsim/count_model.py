"""Gaussian registration-count model based on the expected energy loss.

Each registration at time t blanks the detector for the dead time, losing
on average the flux energy integrated from t to t + t_d over the
periodically extended flux. Averaging that loss against the registration
PDF yields the expected loss per registration E[g], and the registration
count is modeled as Normal(R, R / (1 + E[g])^2) with R = N*Q / (1 + E[g]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrival import RngHandle, as_generator
from .core import (
    DiscretizedFunction,
    EnvParams,
    ParameterError,
    SystemParams,
    build_flux,
)


@dataclass(frozen=True)
class CountEstimate:
    """Moments of the modeled registration count."""

    mean_r: float
    std_r: float
    e_loss: float


def energy_loss_fn(flux: DiscretizedFunction, t_d: float) -> DiscretizedFunction:
    """Energy lost during one dead time starting at each bin center.

    Integrates the circularly extended flux from each bin center t to
    t + t_d using exact partial-bin masses (the flux is piecewise constant),
    so t_d need not be a multiple of the bin width.
    """
    if not 0 <= t_d < 2 * flux.grid.t_r:
        raise ParameterError(
            f"dead time must be in [0, 2*t_r) for periodic extension, got {t_d}"
        )
    grid = flux.grid
    edges = grid.edges()
    # Piecewise-linear cumulative mass over one period; cum[-1] is the energy Q.
    cum = np.concatenate(([0.0], np.cumsum(flux.values) * grid.bin_width))
    energy = cum[-1]

    def cumulative(x: np.ndarray) -> np.ndarray:
        periods = np.floor(x / grid.t_r)
        rem = x - periods * grid.t_r
        return periods * energy + np.interp(rem, edges, cum)

    centers = grid.centers()
    g = cumulative(centers + t_d) - cumulative(centers)
    return DiscretizedFunction(grid, np.maximum(g, 0.0))


def expected_loss(f_r: DiscretizedFunction, g: DiscretizedFunction) -> float:
    """Inner product <f_r, g>: expected photon loss per new registration."""
    if f_r.grid != g.grid:
        raise ParameterError("registration PDF and loss function must share a grid")
    if not f_r.is_pdf():
        raise ParameterError(f"f_r must be a normalized PDF; integral = {f_r.integral()}")
    return float(np.dot(f_r.values, g.values) * f_r.grid.bin_width)


def estimate_count(
    sys: SystemParams, env: EnvParams, f_r: DiscretizedFunction
) -> CountEstimate:
    """Gaussian estimate of the registration count given a registration PDF."""
    energy = env.energy
    if energy == 0:
        return CountEstimate(mean_r=0.0, std_r=0.0, e_loss=0.0)
    flux = build_flux(sys, env, f_r.grid)
    g = energy_loss_fn(flux, sys.t_d)
    e_loss = expected_loss(f_r, g)
    shrink = 1.0 + e_loss
    mean_r = sys.n_cycles * energy / shrink
    std_r = math.sqrt(mean_r) / shrink
    return CountEstimate(mean_r=mean_r, std_r=std_r, e_loss=e_loss)


def sample_count(est: CountEstimate, rng: "RngHandle | np.random.Generator") -> int:
    """Draw an integer registration count: Gaussian, rounded, clamped at 0."""
    if est.std_r == 0:
        return max(0, round(est.mean_r))
    draw = float(as_generator(rng).normal(est.mean_r, est.std_r))
    return max(0, round(draw))
