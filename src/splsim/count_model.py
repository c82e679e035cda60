"""Gaussian registration-count model based on the expected energy loss.

Each registration at time t blanks the detector for the dead time, losing
on average the flux energy integrated from t to t + t_d over the
periodically extended flux. Averaging that loss against the registration
PDF yields the expected loss per registration E[g], and the registration
count is modeled as Normal(R, R / (1 + E[g])^2) with R = N*Q / (1 + E[g]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DiscretizedFunction,
    EnvParams,
    ParameterError,
    SystemParams,
    TimeGrid,
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
    return DiscretizedFunction(flux.grid, energy_loss_rows(flux.values[None, :], flux.grid, t_d)[0])


def energy_loss_rows(flux: np.ndarray, grid: TimeGrid, t_d: float) -> np.ndarray:
    """energy_loss_fn for P flux rows (P x K) on one grid."""
    if not 0 <= t_d < 2 * grid.t_r:
        raise ParameterError(
            f"dead time must be in [0, 2*t_r) for periodic extension, got {t_d}"
        )
    k = grid.n_bins
    # Every window [c_i, c_i + t_d) starts half a bin into bin i and ends
    # rho of the way into bin i + m, with the same m and rho for every bin.
    m, rho = divmod(0.5 + t_d / grid.bin_width, 1.0)
    end = np.arange(k) + int(m)
    # Prefix sums over one period; cum[:, k] is the period's total.
    cum = np.zeros((flux.shape[0], k + 1))
    np.cumsum(flux, axis=1, out=cum[:, 1:])
    # The periodic prefix sum S(j) = cum[j mod K] + (j // K) * total, at j = i + m.
    g = np.take(cum[:, :k], end, axis=1, mode="wrap") + (end // k) * cum[:, k:]
    g -= cum[:, :k]
    g += rho * np.take(flux, end, axis=1, mode="wrap") - 0.5 * flux
    g *= grid.bin_width
    return np.maximum(g, 0.0, out=g)


def _expected_loss_rows(f_r: np.ndarray, g: np.ndarray, bin_width: float) -> np.ndarray:
    return np.einsum("ij,ij->i", f_r, g) * bin_width


def expected_loss(f_r: DiscretizedFunction, g: DiscretizedFunction) -> float:
    """Inner product <f_r, g>: expected photon loss per new registration."""
    if f_r.grid != g.grid:
        raise ParameterError("registration PDF and loss function must share a grid")
    if not f_r.is_pdf():
        raise ParameterError(f"f_r must be a normalized PDF; integral = {f_r.integral()}")
    return float(_expected_loss_rows(f_r.values[None, :], g.values[None, :], f_r.grid.bin_width)[0])


def count_moments(
    sys: SystemParams, energy: np.ndarray, flux: np.ndarray, f_r: np.ndarray, grid: TimeGrid
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """estimate_count for P pixels: (mean_r, std_r, e_loss) vectors.

    flux and f_r are P x K rows on ``grid``; every energy must be positive
    and every f_r row a normalized PDF.
    """
    e_loss = _expected_loss_rows(f_r, energy_loss_rows(flux, grid, sys.t_d), grid.bin_width)
    shrink = 1.0 + e_loss
    mean_r = sys.n_cycles * energy / shrink
    return mean_r, np.sqrt(mean_r) / shrink, e_loss


def estimate_count(
    sys: SystemParams, env: EnvParams, f_r: DiscretizedFunction
) -> CountEstimate:
    """Gaussian estimate of the registration count given a registration PDF."""
    energy = env.energy
    if energy == 0:
        return CountEstimate(mean_r=0.0, std_r=0.0, e_loss=0.0)
    if not f_r.is_pdf():
        raise ParameterError(f"f_r must be a normalized PDF; integral = {f_r.integral()}")
    flux = build_flux(sys, env, f_r.grid)
    mean_r, std_r, e_loss = count_moments(
        sys, np.array([energy]), flux.values[None, :], f_r.values[None, :], f_r.grid
    )
    return CountEstimate(mean_r=float(mean_r[0]), std_r=float(std_r[0]), e_loss=float(e_loss[0]))


def sample_count(mean_r: float, std_r: float, gen: np.random.Generator) -> int:
    """Draw an integer registration count: Gaussian, rounded, clamped at 0."""
    if std_r == 0:
        return max(0, round(mean_r))
    return max(0, round(float(gen.normal(mean_r, std_r))))
