import math

import numpy as np
import pytest

from splsim import (
    DiscretizedFunction,
    EnvParams,
    ParameterError,
    RngHandle,
    SystemParams,
    TimeGrid,
    build_flux,
    empirical_pdf,
    energy_loss_fn,
    estimate_count,
    expected_loss,
    sample_count,
)
from splsim.core import flux_rows
from splsim.count_model import count_moments, energy_loss_rows
from splsim.oracle import registration_counts


def quadrature_loss(flux_fn, t_r, t_d, centers, n_sub=65536):
    """Independent oracle: high-resolution quadrature of the extended flux.

    Three periods cover every window: it starts before t_r and t_d < 2 t_r.
    """
    fine = (np.arange(3 * n_sub) + 0.5) * (t_r / n_sub)
    fine_vals = flux_fn(np.mod(fine, t_r))
    d = t_r / n_sub
    cum = np.concatenate(([0.0], np.cumsum(fine_vals) * d))
    xs = np.arange(3 * n_sub + 1) * d
    return np.interp(centers + t_d, xs, cum) - np.interp(centers, xs, cum)


class TestEnergyLoss:
    def test_constant_flux(self):
        grid = TimeGrid(128, 10.0)
        flux = DiscretizedFunction(grid, np.full(128, 0.3))
        g = energy_loss_fn(flux, 8.0)
        assert np.allclose(g.values, 0.3 * 8.0, rtol=1e-12)

    def test_zero_dead_time(self):
        grid = TimeGrid(128, 10.0)
        flux = DiscretizedFunction(grid, np.abs(np.sin(np.arange(128))) + 0.1)
        assert np.allclose(energy_loss_fn(flux, 0.0).values, 0.0)

    @pytest.mark.parametrize("t_d", [8.0, 7.3, 0.5, 9.99, 12.5, 19.0])
    def test_matches_quadrature(self, t_d):
        sys_p = SystemParams()
        env = EnvParams(4.0, 1.0, 1.0)
        grid = TimeGrid(1024, 10.0)
        flux = build_flux(sys_p, env, grid)

        def flux_fn(t):
            z = (t - env.tau) / sys_p.sigma_t
            pulse = np.exp(-0.5 * z * z) / (sys_p.sigma_t * math.sqrt(2 * math.pi))
            return env.s_level * pulse + env.b_level / sys_p.t_r

        g = energy_loss_fn(flux, t_d)
        oracle = quadrature_loss(flux_fn, sys_p.t_r, t_d, grid.centers())
        assert np.all(np.abs(g.values - oracle) <= 0.005 * np.maximum(oracle, 1e-12))

    def test_linear_in_flux(self):
        grid = TimeGrid(128, 10.0)
        values = np.abs(np.cos(np.arange(128))) + 0.05
        g1 = energy_loss_fn(DiscretizedFunction(grid, values), 6.0)
        g3 = energy_loss_fn(DiscretizedFunction(grid, 3.0 * values), 6.0)
        assert np.allclose(g3.values, 3.0 * g1.values, rtol=1e-10)

    def test_monotone_in_dead_time(self):
        grid = TimeGrid(128, 10.0)
        flux = DiscretizedFunction(grid, np.abs(np.sin(0.3 * np.arange(128))) + 0.01)
        g_short = energy_loss_fn(flux, 3.0)
        g_long = energy_loss_fn(flux, 7.5)
        assert np.all(g_long.values >= g_short.values - 1e-12)

    def test_dead_time_bounds(self):
        grid = TimeGrid(64, 10.0)
        flux = DiscretizedFunction(grid, np.full(64, 0.1))
        with pytest.raises(ParameterError):
            energy_loss_fn(flux, 20.0)


class TestExpectedLoss:
    def test_uniform_pdf_constant_g(self):
        grid = TimeGrid(128, 10.0)
        f_r = DiscretizedFunction(grid, np.full(128, 0.1))
        g = DiscretizedFunction(grid, np.full(128, 2.4))
        assert expected_loss(f_r, g) == pytest.approx(2.4, rel=1e-12)

    def test_point_mass(self):
        grid = TimeGrid(128, 10.0)
        values = np.zeros(128)
        values[17] = 1.0 / grid.bin_width
        f_r = DiscretizedFunction(grid, values)
        g_vals = np.linspace(0.5, 3.0, 128)
        g = DiscretizedFunction(grid, g_vals)
        assert expected_loss(f_r, g) == pytest.approx(g_vals[17], rel=1e-12)

    def test_bilinear(self):
        grid = TimeGrid(128, 10.0)
        f_r = DiscretizedFunction(grid, np.full(128, 0.1))
        g1 = DiscretizedFunction(grid, np.linspace(0, 1, 128))
        g2 = DiscretizedFunction(grid, np.linspace(2, 0.5, 128))
        combined = DiscretizedFunction(grid, g1.values + g2.values)
        assert expected_loss(f_r, combined) == pytest.approx(
            expected_loss(f_r, g1) + expected_loss(f_r, g2), abs=1e-12
        )

    def test_grid_mismatch(self):
        f_r = DiscretizedFunction(TimeGrid(128, 10.0), np.full(128, 0.1))
        g = DiscretizedFunction(TimeGrid(64, 10.0), np.full(64, 1.0))
        with pytest.raises(ParameterError):
            expected_loss(f_r, g)

    def test_against_oracle_loss_bookkeeping(self):
        # Every culled arrival falls in some dead window, so the mean of
        # (m_a - m_r) / m_r is an independent Monte Carlo estimate of E[g].
        sys_p = SystemParams()
        grid = TimeGrid(256, 10.0)
        env = EnvParams(4.0, 2.0, 1.0)
        f_r = empirical_pdf(sys_p, env, grid, 400, RngHandle(60))
        g = energy_loss_fn(build_flux(sys_p, env, grid), sys_p.t_d)
        model_loss = expected_loss(f_r, g)
        m_a, m_r = registration_counts(sys_p, env, grid, 400, RngHandle(61))
        mc_loss = np.mean((m_a - m_r) / m_r)
        assert model_loss == pytest.approx(mc_loss, rel=0.05)


class TestEstimateCount:
    def test_no_dead_time_reduces_to_poisson_moments(self):
        sys_p = SystemParams(t_d=0.0, n_cycles=1000)
        grid = TimeGrid(128, 10.0)
        env = EnvParams(4.0, 1.0, 1.0)
        f_r = DiscretizedFunction(grid, np.full(128, 0.1))
        est = estimate_count(sys_p, env, f_r)
        assert est.e_loss == pytest.approx(0.0, abs=1e-12)
        assert est.mean_r == pytest.approx(2000.0)
        assert est.std_r == pytest.approx(math.sqrt(2000.0))

    def test_direct_arithmetic(self):
        # Uniform flux with B = 1.25 over t_r = 10 and t_d = 8 gives
        # E[g] = (B / t_r) * t_d = 1 exactly; N chosen so NQ = 1000.
        sys_p = SystemParams(t_r=10.0, t_d=8.0, sigma_t=0.1, n_cycles=800)
        grid = TimeGrid(128, 10.0)
        env = EnvParams(4.0, 0.0, 1.25)
        f_r = DiscretizedFunction(grid, np.full(128, 0.1))
        est = estimate_count(sys_p, env, f_r)
        assert est.e_loss == pytest.approx(1.0, rel=1e-12)
        assert est.mean_r == pytest.approx(500.0)
        assert est.std_r == pytest.approx(math.sqrt(500.0) / 2.0)

    def test_zero_energy_degenerate(self):
        grid = TimeGrid(64, 10.0)
        f_r = DiscretizedFunction(grid, np.full(64, 0.1))
        est = estimate_count(SystemParams(), EnvParams(4.0, 0.0, 0.0), f_r)
        assert est.mean_r == 0.0 and est.std_r == 0.0

    def test_matches_oracle_monte_carlo(self):
        sys_p = SystemParams()
        grid = TimeGrid(256, 10.0)
        for i, (s, b) in enumerate([(0.5, 0.5), (2.0, 1.0), (3.0, 3.0)]):
            env = EnvParams(4.0, s, b)
            f_r = empirical_pdf(sys_p, env, grid, 500, RngHandle(70, i))
            est = estimate_count(sys_p, env, f_r)
            _, m_r = registration_counts(sys_p, env, grid, 1000, RngHandle(71, i))
            assert est.mean_r == pytest.approx(m_r.mean(), rel=0.05)
            ratio = est.std_r / m_r.std()
            assert 0.5 <= ratio <= 2.0


class TestSampleCount:
    def test_degenerate_std(self):
        assert all(sample_count(412.4, 0.0, RngHandle(0, i).generator()) == 412 for i in range(10))

    def test_gaussian_statistics(self):
        gen = RngHandle(80).generator()
        draws = np.array([sample_count(500.0, 11.18, gen) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(500.0, abs=0.15)
        assert 11.0 <= draws.std() <= 11.4

    def test_clamped_non_negative(self):
        gen = RngHandle(81).generator()
        draws = [sample_count(0.2, 0.4, gen) for _ in range(5000)]
        assert min(draws) >= 0


class TestRowWise:
    def test_rows_match_single_pixel_functions(self):
        # t_d = 7.3 is not a multiple of the 10/128 bin width.
        sys_p = SystemParams(t_r=10.0, t_d=7.3, sigma_t=0.1, n_cycles=1000)
        grid = TimeGrid(128, 10.0)
        gen = np.random.default_rng(8)
        tau = gen.uniform(2.0, 6.0, 12)
        s_level = gen.uniform(0.0, 3.0, 12)
        b_level = gen.uniform(0.0, 3.0, 12)
        s_level[3] = b_level[5] = 0.0
        f_r = gen.uniform(0.0, 1.0, (12, 128))
        f_r /= f_r.sum(axis=1, keepdims=True) * grid.bin_width
        flux = flux_rows(sys_p, tau, s_level, b_level, grid)
        g = energy_loss_rows(flux, grid, sys_p.t_d)
        mean_r, std_r, e_loss = count_moments(sys_p, s_level + b_level, flux, f_r, grid)
        for i in range(12):
            env = EnvParams(tau[i], s_level[i], b_level[i])
            one = build_flux(sys_p, env, grid)
            assert np.array_equal(flux[i], one.values)
            assert np.allclose(g[i], energy_loss_fn(one, sys_p.t_d).values, rtol=1e-12, atol=0)
            est = estimate_count(sys_p, env, DiscretizedFunction(grid, f_r[i]))
            assert (mean_r[i], std_r[i], e_loss[i]) == pytest.approx(
                (est.mean_r, est.std_r, est.e_loss), rel=1e-12, abs=0
            )
