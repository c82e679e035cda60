import math

import numpy as np
import pytest
from scipy import integrate

from splsim import (
    DegenerateDistributionError,
    DiscretizedFunction,
    EnvParams,
    ParameterError,
    RngHandle,
    SystemParams,
    TimeGrid,
    TrainConfig,
    arrival_pdf,
    build_flux,
)
from splsim.core import gaussian_pulse


def flux_analytic(t, env, sigma_t, t_r):
    """Independent evaluation of the arrival flux at time t."""
    pulse = math.exp(-0.5 * ((t - env.tau) / sigma_t) ** 2) / (sigma_t * math.sqrt(2 * math.pi))
    return env.s_level * pulse + env.b_level / t_r


class TestParams:
    def test_defaults(self):
        s = SystemParams()
        assert (s.t_r, s.t_d, s.sigma_t, s.n_cycles) == (10.0, 8.0, 0.1, 1000)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_r": 0.0},
            {"t_d": -1.0},
            {"t_d": 10.0},  # must be < t_r
            {"sigma_t": 0.0},
            {"n_cycles": 0},
            {"n_cycles": 100.5},
        ],
    )
    def test_invalid_system(self, kwargs):
        with pytest.raises(ParameterError):
            SystemParams(**kwargs)

    @pytest.mark.parametrize(
        "make, field",
        [
            pytest.param(lambda: SystemParams(sigma_t=math.nan), "sigma_t", id="system-sigma_t-nan"),
            pytest.param(lambda: SystemParams(t_r=math.inf), "t_r", id="system-t_r-inf"),
            pytest.param(lambda: SystemParams(n_cycles=math.inf), "n_cycles", id="system-n_cycles-inf"),
            pytest.param(lambda: TimeGrid(256, math.inf), "t_r", id="grid-t_r-inf"),
            pytest.param(lambda: TimeGrid(math.nan, 10.0), "n_bins", id="grid-n_bins-nan"),
            pytest.param(lambda: EnvParams(math.nan, 1.0, math.inf), "tau", id="env-tau-nan"),
            pytest.param(lambda: EnvParams(4.0, math.inf, 1.0), "s_level", id="env-s_level-inf"),
            pytest.param(lambda: EnvParams(4.0, 1.0, math.nan), "b_level", id="env-b_level-nan"),
        ],
    )
    def test_non_finite_rejected(self, make, field):
        with pytest.raises(ParameterError, match=rf"^{field}\b"):
            make()

    @pytest.mark.parametrize(
        "make, field",
        [
            pytest.param(lambda v: TimeGrid(v, 10.0), "n_bins", id="grid-n_bins"),
            pytest.param(lambda v: SystemParams(n_cycles=v), "n_cycles", id="system-n_cycles"),
            pytest.param(lambda v: TrainConfig(epochs=v), "epochs", id="train-epochs"),
            pytest.param(lambda v: TrainConfig(batch_size=v), "batch_size", id="train-batch_size"),
            pytest.param(lambda v: TrainConfig(seed=v), "seed", id="train-seed"),
            pytest.param(lambda v: RngHandle(v), "seed", id="rng-seed"),
            pytest.param(lambda v: RngHandle(0, v), "stream", id="rng-stream"),
        ],
    )
    def test_counts_are_integers(self, make, field):
        make(np.int64(64))  # numpy integers are counts too
        with pytest.raises(ParameterError, match=rf"^{field}\b"):
            make(64.5)

    def test_invalid_env(self):
        with pytest.raises(ParameterError):
            EnvParams(tau=-1.0, s_level=1.0, b_level=1.0)
        with pytest.raises(ParameterError):
            EnvParams(tau=4.0, s_level=-0.1, b_level=1.0)


class TestGrid:
    def test_bin_geometry(self):
        grid = TimeGrid(n_bins=4, t_r=8.0)
        assert grid.bin_width == 2.0
        assert np.allclose(grid.centers(), [1.0, 3.0, 5.0, 7.0])
        assert np.allclose(grid.edges(), [0.0, 2.0, 4.0, 6.0, 8.0])

    def test_discretized_validation(self):
        grid = TimeGrid(n_bins=4, t_r=8.0)
        with pytest.raises(ParameterError):
            DiscretizedFunction(grid, np.array([1.0, -0.1, 0.0, 0.0]))
        with pytest.raises(ParameterError):
            DiscretizedFunction(grid, np.zeros(3))


class TestBuildFlux:
    def test_background_only_is_constant(self):
        sys_p = SystemParams()
        grid = TimeGrid(1024, 10.0)
        flux = build_flux(sys_p, EnvParams(tau=4.0, s_level=0.0, b_level=2.0), grid)
        assert np.allclose(flux.values, 0.2)

    def test_unit_energy_pulse(self):
        sys_p = SystemParams()
        grid = TimeGrid(1024, 10.0)
        flux = build_flux(sys_p, EnvParams(tau=4.0, s_level=1.0, b_level=0.0), grid)
        assert abs(flux.integral() - 1.0) <= 1e-3
        peak_center = grid.centers()[np.argmax(flux.values)]
        assert abs(peak_center - 4.0) <= grid.bin_width

    def test_energy_matches_quadrature(self):
        # Independent oracle: adaptive quadrature of the analytic flux.
        sys_p = SystemParams()
        env = EnvParams(tau=4.0, s_level=2.0, b_level=1.0)
        grid = TimeGrid(1024, 10.0)
        flux = build_flux(sys_p, env, grid)
        expected, _ = integrate.quad(
            flux_analytic, 0.0, 10.0, args=(env, sys_p.sigma_t, sys_p.t_r), limit=200
        )
        assert abs(expected - 3.0) < 1e-6
        assert abs(flux.integral() - expected) <= 0.003

    def test_grid_period_mismatch(self):
        with pytest.raises(ParameterError):
            build_flux(SystemParams(), EnvParams(4.0, 1.0, 1.0), TimeGrid(256, 8.0))

    def test_uncontained_pulse_warns(self):
        with pytest.warns(UserWarning):
            build_flux(SystemParams(), EnvParams(0.2, 1.0, 0.0), TimeGrid(256, 10.0))

    def test_linearity(self):
        sys_p = SystemParams()
        grid = TimeGrid(512, 10.0)
        f1 = build_flux(sys_p, EnvParams(4.0, 0.7, 0.3), grid)
        f2 = build_flux(sys_p, EnvParams(4.0, 1.3, 1.1), grid)
        fsum = build_flux(sys_p, EnvParams(4.0, 2.0, 1.4), grid)
        assert np.allclose(f1.values + f2.values, fsum.values, atol=1e-12, rtol=0)

    def test_tau_shift_moves_argmax(self):
        sys_p = SystemParams()
        grid = TimeGrid(512, 10.0)
        base = build_flux(sys_p, EnvParams(3.0, 1.0, 0.5), grid)
        delta_tau = 1.5
        shifted = build_flux(sys_p, EnvParams(3.0 + delta_tau, 1.0, 0.5), grid)
        shift_bins = (np.argmax(shifted.values) - np.argmax(base.values)) % grid.n_bins
        assert shift_bins == round(delta_tau / grid.bin_width)


class TestArrivalPdf:
    def test_uniform(self):
        grid = TimeGrid(256, 10.0)
        flux = DiscretizedFunction(grid, np.full(256, 0.2))
        pdf = arrival_pdf(flux)
        assert np.allclose(pdf.values, 0.1)

    def test_normalization_exact(self):
        sys_p = SystemParams()
        grid = TimeGrid(1024, 10.0)
        pdf = arrival_pdf(build_flux(sys_p, EnvParams(3.7, 2.2, 0.4), grid))
        assert pdf.is_pdf()

    def test_pointwise_matches_analytic(self):
        # Oracle: direct evaluation of flux / Q at the bin centers.
        sys_p = SystemParams()
        env = EnvParams(4.0, 1.0, 1.0)
        grid = TimeGrid(1024, 10.0)
        pdf = arrival_pdf(build_flux(sys_p, env, grid))
        expected = np.array(
            [flux_analytic(t, env, sys_p.sigma_t, sys_p.t_r) for t in grid.centers()]
        ) / env.energy
        assert np.allclose(pdf.values, expected, rtol=1e-12)

    def test_scale_invariance(self):
        grid = TimeGrid(128, 10.0)
        values = np.abs(np.sin(np.arange(128))) + 0.01
        base = arrival_pdf(DiscretizedFunction(grid, values))
        scaled = arrival_pdf(DiscretizedFunction(grid, 7.3 * values))
        assert np.allclose(base.values, scaled.values, rtol=1e-12)

    def test_zero_flux_raises(self):
        grid = TimeGrid(64, 10.0)
        with pytest.raises(DegenerateDistributionError):
            arrival_pdf(DiscretizedFunction(grid, np.zeros(64)))


def test_gaussian_pulse_unit_area():
    t = np.linspace(-5, 15, 200001)
    vals = gaussian_pulse(t, 4.0, 0.1)
    assert abs(np.trapezoid(vals, t) - 1.0) < 1e-9
