import math

import numpy as np
import pytest
from scipy import stats

from splsim import (
    DiscretizedFunction,
    EnvParams,
    FormatError,
    ParameterError,
    RngHandle,
    SystemParams,
    TimeGrid,
    TimestampBatch,
    arrival_pdf,
    build_flux,
    inverse_transform_sample,
    sample_poisson_count,
    simulate_arrivals,
)
from splsim.arrival import (
    CdfInverter,
    read_times_binary,
    read_times_csv,
    write_times_binary,
    write_times_csv,
)


class TestRngHandle:
    def test_reproducible(self):
        a = RngHandle(42, 3).generator().random(10)
        b = RngHandle(42, 3).generator().random(10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngHandle(42, 0).generator().random(10)
        b = RngHandle(42, 1).generator().random(10)
        assert not np.array_equal(a, b)

    def test_child_streams(self):
        base = RngHandle(7)
        assert base.child(3) == base.child(3)
        assert base.child(3) != base.child(4)
        with pytest.raises(ParameterError):
            base.child(-1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError):
            RngHandle(-1)


class TestPoissonCount:
    def test_zero_mean(self):
        for i in range(20):
            assert sample_poisson_count(0.0, RngHandle(1, i)) == 0

    def test_negative_mean(self):
        with pytest.raises(ParameterError):
            sample_poisson_count(-1.0, RngHandle(0))

    def test_large_mean_statistics(self):
        gen = RngHandle(11).generator()
        draws = np.array([sample_poisson_count(1000.0, gen) for _ in range(100_000)])
        # 3-sigma band on the sample mean: 1000 +/- 3*sqrt(1000/1e5)
        assert 997.0 <= draws.mean() <= 1003.0
        assert abs(draws.var() / 1000.0 - 1.0) <= 0.05

    def test_small_mean_pmf(self):
        gen = RngHandle(12).generator()
        draws = np.array([sample_poisson_count(3.0, gen) for _ in range(100_000)])
        p_zero = np.mean(draws == 0)
        assert abs(p_zero - math.exp(-3.0)) <= 0.003


class TestInverseTransform:
    def test_uniform_midpoint(self):
        grid = TimeGrid(256, 10.0)
        pdf = DiscretizedFunction(grid, np.full(256, 0.1))
        t = CdfInverter(pdf).invert(np.array([0.5]))
        assert t[0] == pytest.approx(5.0, abs=1e-12)

    def test_uniform_is_identity_scaled(self):
        grid = TimeGrid(256, 10.0)
        pdf = DiscretizedFunction(grid, np.full(256, 0.1))
        u = np.linspace(0.0, 0.999, 100)
        assert np.allclose(CdfInverter(pdf).invert(u), 10.0 * u, atol=1e-9)

    def test_point_mass_bin(self):
        grid = TimeGrid(256, 10.0)
        values = np.zeros(256)
        values[37] = 1.0 / grid.bin_width
        pdf = DiscretizedFunction(grid, values)
        batch = inverse_transform_sample(pdf, 500, RngHandle(3))
        lo, hi = 37 * grid.bin_width, 38 * grid.bin_width
        assert np.all((batch.times >= lo) & (batch.times < hi))

    def test_unnormalized_rejected(self):
        grid = TimeGrid(64, 10.0)
        not_pdf = DiscretizedFunction(grid, np.full(64, 0.2))
        with pytest.raises(ParameterError):
            inverse_transform_sample(not_pdf, 10, RngHandle(0))

    def test_negative_count_rejected(self):
        grid = TimeGrid(64, 10.0)
        pdf = DiscretizedFunction(grid, np.full(64, 0.1))
        with pytest.raises(ParameterError):
            inverse_transform_sample(pdf, -1, RngHandle(0))

    @pytest.mark.parametrize("n", [1000, 1_000_000])
    def test_chi_square_goodness_of_fit(self, n):
        # n=1000 uses per-draw inversion; n=1e6 uses the bulk decomposition.
        sys_p = SystemParams()
        grid = TimeGrid(256, 10.0)
        pdf = arrival_pdf(build_flux(sys_p, EnvParams(4.0, 1.0, 1.0), grid))
        batch = inverse_transform_sample(pdf, n, RngHandle(17))
        observed = np.histogram(batch.times, bins=grid.edges())[0]
        expected = pdf.values * grid.bin_width * n
        keep = expected >= 5
        result = stats.chisquare(
            observed[keep], expected[keep] * observed[keep].sum() / expected[keep].sum()
        )
        assert result.pvalue > 0.01

    def test_invert_matches_binary_search(self):
        # The per-row binary search the guide table replaced, as the reference:
        # every row and every variate, including variates on and just below
        # CDF entries, zero-density plateaus, point masses, and CDFs whose
        # rounded entry K - 1 passes the final 1.0.
        def reference(inv, pdf, row, u):
            cdf = inv.cdf[row]
            idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, inv.grid.n_bins - 1)
            t = inv.edges[idx] + (u - cdf[idx]) / np.where(pdf > 0, pdf, 1.0)[idx]
            return np.minimum(t, np.nextafter(inv.grid.t_r, 0.0))

        gen = np.random.default_rng(31)
        overshoots = 0
        for trial in range(200):
            n_bins = int(gen.integers(2, 300))
            grid = TimeGrid(n_bins, float(gen.uniform(0.5, 30.0)))
            pdfs = gen.uniform(0.0, 1.0, (6, n_bins)) ** 4
            pdfs[1, gen.integers(0, n_bins, n_bins // 2)] = 0.0
            pdfs[2] = 0.0
            pdfs[2, gen.integers(0, n_bins)] = 1.0
            pdfs[3, : n_bins // 2] = 0.0
            pdfs[4, -1] = 1e-20
            pdfs /= pdfs.sum(axis=1, keepdims=True) * grid.bin_width
            inv = CdfInverter.from_rows(grid, pdfs)
            overshoots += np.count_nonzero(inv.cdf[:, -2] > 1.0)
            near = np.concatenate([inv.cdf.ravel(), np.nextafter(inv.cdf.ravel(), 0.0)])
            u = np.concatenate([gen.random(300), near[near < 1.0], [np.nextafter(1.0, 0.0)]])
            rows = gen.integers(0, 6, u.size)
            got = inv.invert(u, rows)
            for row in range(6):
                assert np.array_equal(got[rows == row], reference(inv, pdfs[row], row, u[rows == row]))
        assert overshoots > 0

    def test_invert_rejects_bad_variates_and_rows(self):
        inv = CdfInverter(DiscretizedFunction(TimeGrid(64, 10.0), np.full(64, 0.1)))
        for bad in (-0.1, 1.0, np.nan):
            with pytest.raises(ParameterError):
                inv.invert(np.array([0.5, bad]))
        for rows in (1, -1, np.array([0, 1])):
            with pytest.raises(ParameterError):
                inv.invert(np.array([0.5, 0.5]), rows)

    def test_sample_rows_match_lone_rows(self):
        # Each row's draws equal sampling that row alone with the same stream,
        # on both sides of BULK_THRESHOLD.
        grid = TimeGrid(256, 10.0)
        sys_p = SystemParams()
        pdfs = np.stack([
            arrival_pdf(build_flux(sys_p, EnvParams(tau, 2.0, 1.0), grid)).values for tau in (3.0, 4.0, 5.0)
        ])
        counts = [10, CdfInverter.BULK_THRESHOLD + 5, 900]
        together = CdfInverter.from_rows(grid, pdfs).sample_rows(
            counts, [RngHandle(40, i).generator() for i in range(3)]
        )
        for i, pdf_row in enumerate(pdfs):
            alone = CdfInverter(DiscretizedFunction(grid, pdf_row)).sample(counts[i], RngHandle(40, i).generator())
            assert np.array_equal(together[i], alone)

    def test_sample_paths_share_distribution(self):
        # Per-draw and bulk sampling must agree distributionally.
        sys_p = SystemParams()
        grid = TimeGrid(256, 10.0)
        pdf = arrival_pdf(build_flux(sys_p, EnvParams(4.0, 2.0, 1.0), grid))
        inv = CdfInverter(pdf)
        small = np.concatenate(
            [inv.sample(1000, RngHandle(21, i).generator()) for i in range(20)]
        )
        bulk = inv.sample(20_000, RngHandle(22).generator())
        assert stats.ks_2samp(small, bulk).pvalue > 0.01


class TestSimulateArrivals:
    def test_zero_energy_empty(self):
        batch = simulate_arrivals(
            SystemParams(), EnvParams(4.0, 0.0, 0.0), TimeGrid(256, 10.0), RngHandle(0)
        )
        assert batch.count == 0

    def test_expected_count(self):
        sys_p = SystemParams(n_cycles=1000)
        grid = TimeGrid(256, 10.0)
        counts = [
            simulate_arrivals(sys_p, EnvParams(4.0, 1.0, 1.0), grid, RngHandle(5, i)).count
            for i in range(300)
        ]
        assert np.mean(counts) == pytest.approx(2000, rel=0.02)

    def test_poisson_dispersion(self):
        sys_p = SystemParams(n_cycles=1000)
        grid = TimeGrid(256, 10.0)
        env = EnvParams(4.0, 2.0, 1.0)
        counts = np.array(
            [simulate_arrivals(sys_p, env, grid, RngHandle(6, i)).count for i in range(5000)]
        )
        assert counts.mean() == pytest.approx(3000, rel=0.01)
        assert 0.95 <= counts.var() / counts.mean() <= 1.05

    def test_determinism(self):
        sys_p = SystemParams()
        grid = TimeGrid(256, 10.0)
        env = EnvParams(4.0, 1.5, 0.5)
        a = simulate_arrivals(sys_p, env, grid, RngHandle(9, 2))
        b = simulate_arrivals(sys_p, env, grid, RngHandle(9, 2))
        assert a.count == b.count
        assert np.array_equal(a.times, b.times)

    def test_times_in_period(self):
        batch = simulate_arrivals(
            SystemParams(), EnvParams(4.0, 2.0, 2.0), TimeGrid(256, 10.0), RngHandle(8)
        )
        assert np.all((batch.times >= 0.0) & (batch.times < 10.0))


class TestBatchIO:
    def _batch(self):
        return simulate_arrivals(
            SystemParams(n_cycles=100), EnvParams(4.0, 1.0, 1.0), TimeGrid(128, 10.0), RngHandle(1)
        )

    def test_csv_roundtrip(self, tmp_path):
        batch = self._batch()
        path = tmp_path / "times.csv"
        write_times_csv(batch, path)
        back = read_times_csv(path)
        assert np.array_equal(back.times, batch.times)

    def test_binary_roundtrip(self, tmp_path):
        batch = self._batch()
        path = tmp_path / "times.bin"
        write_times_binary(batch, path)
        back = read_times_binary(path)
        assert np.array_equal(back.times, batch.times)

    def test_binary_truncated(self, tmp_path):
        batch = self._batch()
        path = tmp_path / "times.bin"
        write_times_binary(batch, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError):
            read_times_binary(path)

    def test_batch_count_validated(self):
        with pytest.raises(ParameterError):
            TimestampBatch(times=np.zeros(3), count=2)
