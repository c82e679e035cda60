import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from splsim import (
    DiscretizedFunction,
    EnvParams,
    FormatError,
    ParameterError,
    RngHandle,
    SceneSpec,
    SystemParams,
    TimeGrid,
    TimestampBatch,
    arrival_pdf,
    build_flux,
    sample_poisson_count,
    simulate_arrivals,
)
from splsim.arrival import (
    CdfInverter,
    place_in_bins,
    read_times_binary,
    read_times_csv,
    sample_bin_counts,
    write_times_binary,
    write_times_csv,
)


# Child ids are ((stream + 1) * 0x9E3779B97F4A7C15 + index) mod 2**63, so for this
# stream they are index + 1: below 2**32 for small indices, above it for large ones.
ONE_WORD_STREAM = pow(0x9E3779B97F4A7C15, -1, 2**63) - 1


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stream", [0, 5, ONE_WORD_STREAM])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7, np.uint64(2**63 + 5)])
    def test_child_generators_draw_as_child_generator(self, seed, stream):
        base = RngHandle(seed, stream)
        indices = [0, 1, 63, 2**32 - 3, 2**32 - 2, 2**32, 10**12]
        if stream == ONE_WORD_STREAM:
            # Child ids on both sides of 2**32: one spawn-key word and two.
            ids = [base.child(i).stream for i in indices]
            assert min(ids) < 2**32 <= max(ids)
        mass = np.array([0.1, 0.0, 0.25, 0.65])
        keyed = base.child_generators(indices)
        for i in indices:
            gen, ref = next(keyed), base.child(i).generator()
            assert gen.bit_generator.state == ref.bit_generator.state
            assert gen.normal(3.0, 2.0) == ref.normal(3.0, 2.0)
            assert np.array_equal(gen.multinomial(500, mass), ref.multinomial(500, mass))
            assert np.array_equal(gen.random(7), ref.random(7))
        assert next(keyed, None) is None

    def test_child_generators_are_independent_objects(self):
        # Each child has its own generator: taking the next one leaves an earlier one's stream alone.
        base = RngHandle(11, 2)
        keyed = base.child_generators([0, 1])
        first, second = next(keyed), next(keyed)
        assert np.array_equal(second.random(5), base.child(1).generator().random(5))
        assert np.array_equal(first.random(5), base.child(0).generator().random(5))

    def test_child_generators_reject_negative_index(self):
        with pytest.raises(ParameterError):
            RngHandle(7).child_generators([0, -1])


class TestPoissonCount:
    def test_zero_mean(self):
        for i in range(20):
            assert sample_poisson_count(0.0, RngHandle(1, i).generator()) == 0

    def test_negative_mean(self):
        with pytest.raises(ParameterError):
            sample_poisson_count(-1.0, RngHandle(0).generator())

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
        times = CdfInverter(pdf).sample(500, RngHandle(3).generator())
        lo, hi = 37 * grid.bin_width, 38 * grid.bin_width
        assert np.all((times >= lo) & (times < hi))

    def test_unnormalized_rejected(self):
        grid = TimeGrid(64, 10.0)
        not_pdf = DiscretizedFunction(grid, np.full(64, 0.2))
        with pytest.raises(ParameterError):
            CdfInverter(not_pdf)

    @pytest.mark.parametrize("n", [1000, 1_000_000])
    def test_chi_square_goodness_of_fit(self, n):
        # n=1000 uses per-draw inversion; n=1e6 uses the bulk decomposition.
        sys_p = SystemParams()
        grid = TimeGrid(256, 10.0)
        pdf = arrival_pdf(build_flux(sys_p, EnvParams(4.0, 1.0, 1.0), grid))
        times = CdfInverter(pdf).sample(n, RngHandle(17).generator())
        observed = np.histogram(times, bins=grid.edges())[0]
        expected = pdf.values * grid.bin_width * n
        keep = expected >= 5
        result = stats.chisquare(
            observed[keep], expected[keep] * observed[keep].sum() / expected[keep].sum()
        )
        assert result.pvalue > 0.01

    def test_invert_edge_case_pdfs(self):
        # Each variate's bin is the last of CDF entries 0..K-1 at or below it,
        # found here by counting, over PDFs with zero-density plateaus, point
        # masses and a CDF whose rounded entry K - 1 passes the final 1.0, and
        # over variates on and just below every CDF entry.
        def reference(inv, pdf, u):
            cdf = inv.cdf
            idx = np.count_nonzero(cdf[None, :-1] <= u[:, None], axis=1) - 1
            t = inv.edges[idx] + (u - cdf[idx]) / np.where(pdf > 0, pdf, 1.0)[idx]
            return np.minimum(t, np.nextafter(inv.grid.t_r, 0.0))

        gen = np.random.default_rng(31)
        overshoots = 0
        for trial in range(200):
            n_bins = int(gen.integers(2, 300))
            grid = TimeGrid(n_bins, float(gen.uniform(0.5, 30.0)))
            pdfs = gen.uniform(0.0, 1.0, (5, n_bins)) ** 4
            pdfs[1, gen.integers(0, n_bins, n_bins // 2)] = 0.0
            pdfs[2] = 0.0
            pdfs[2, gen.integers(0, n_bins)] = 1.0
            pdfs[3, : n_bins // 2] = 0.0
            pdfs[4, -1] = 1e-20
            pdfs /= pdfs.sum(axis=1, keepdims=True) * grid.bin_width
            for pdf in pdfs:
                inv = CdfInverter(DiscretizedFunction(grid, pdf))
                overshoots += inv.cdf[-2] > 1.0
                near = np.concatenate([inv.cdf, np.nextafter(inv.cdf, 0.0)])
                u = np.concatenate([gen.random(300), near[near < 1.0], [np.nextafter(1.0, 0.0)]])
                assert np.array_equal(inv.invert(u), reference(inv, pdf, u))
        assert overshoots > 0

    def test_invert_rejects_bad_variates(self):
        inv = CdfInverter(DiscretizedFunction(TimeGrid(64, 10.0), np.full(64, 0.1)))
        for bad in (-0.1, 1.0, np.nan):
            with pytest.raises(ParameterError):
                inv.invert(np.array([0.5, bad]))

    def test_row_placement_matches_each_row_alone(self):
        grid = TimeGrid(16, 10.0)
        gen = RngHandle(23).generator()
        bins = np.stack([gen.multinomial(n, np.full(16, 1 / 16)) for n in (40, 0, 75)])
        u = gen.random(bins.sum())
        rows = np.split(u, np.cumsum(bins.sum(axis=1))[:-1])
        # place_in_bins scales its uniforms in place, so each row gets a copy of its share.
        alone = np.concatenate([place_in_bins(b, r.copy(), grid) for b, r in zip(bins, rows)])
        assert np.array_equal(place_in_bins(bins, u, grid), alone)

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


@st.composite
def binned_pdfs(draw):
    """A normalized PDF on a random grid, with zero-mass bins or as a point mass."""
    n_bins = draw(st.integers(1, 64))
    grid = TimeGrid(n_bins, draw(st.floats(0.5, 100.0)))
    weight = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))
    weights = np.array(draw(st.one_of(
        st.lists(weight, min_size=n_bins, max_size=n_bins).filter(any),
        st.integers(0, n_bins - 1).map(lambda at: [float(i == at) for i in range(n_bins)]),
    )))
    return DiscretizedFunction(grid, weights / (weights.sum() * grid.bin_width))


def assert_drawn_from(times, n, pdf):
    """Exactly n timestamps, all in [0, t_r), each in a bin with positive mass."""
    grid = pdf.grid
    assert times.shape == (n,)
    assert np.all((times >= 0.0) & (times < grid.t_r))
    bins = np.minimum(np.searchsorted(grid.edges(), times, side="right") - 1, grid.n_bins - 1)
    assert np.all(pdf.values[bins] > 0)


# Fixed example sequence, so that the suite draws the same cases on every run.
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestSamplingProperties:
    @PROPERTY_SETTINGS
    @given(pdf=binned_pdfs(), n=st.integers(0, 5000), seed=st.integers(0, 2**32 - 1))
    def test_bin_counts_draws(self, pdf, n, seed):
        mass = pdf.values / pdf.values.sum()
        times = sample_bin_counts(n, mass, pdf.grid, np.random.default_rng(seed))
        assert_drawn_from(times, n, pdf)

    @PROPERTY_SETTINGS
    @given(pdf=binned_pdfs(), n=st.integers(0, 5000), seed=st.integers(0, 2**32 - 1))
    def test_inverter_draws(self, pdf, n, seed):
        times = CdfInverter(pdf).sample(n, np.random.default_rng(seed))
        assert_drawn_from(times, n, pdf)


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
    # Every validated value type holds a read-only copy: the caller's array
    # stays writable, and writing to it cannot undo the validation.
    @pytest.mark.parametrize(
        "make, held",
        [
            pytest.param(TimestampBatch, lambda b: [b.times], id="TimestampBatch"),
            pytest.param(
                lambda a: DiscretizedFunction(TimeGrid(2, 10.0), a),
                lambda f: [f.values],
                id="DiscretizedFunction",
            ),
            pytest.param(
                lambda a: SceneSpec(a[None, :], a[None, :], b_level=1.0, pulse_energy=2.0),
                lambda s: [s.depths, s.reflectivity],
                id="SceneSpec",
            ),
        ],
    )
    def test_batch_copies_caller_array(self, make, held):
        a = np.array([1.0, 2.0])
        value = make(a)
        a[0] = -3.0
        for array in held(value):
            assert array.ravel()[0] == 1.0
            assert not array.flags.writeable

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

    @pytest.mark.parametrize(
        "text", ["1.5\n-0.25\n", "nan\n", "2.0\ninf\n", "1.0\nabc\n", "\xb3\n"],
        ids=["negative", "nan", "inf", "not-a-number", "not-utf8"],
    )
    def test_csv_bad_values_rejected(self, tmp_path, text):
        path = tmp_path / "times.csv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(FormatError):
            read_times_csv(path)

    def test_binary_bit_flips_load_or_raise_format_error(self, tmp_path):
        # Every single-bit flip of a 3-timestamp file; several make a
        # negative or non-finite timestamp, which must not load.
        path = tmp_path / "times.bin"
        write_times_binary(TimestampBatch([0.5, 2.25, 9.75]), path)
        raw = path.read_bytes()
        rejected = 0
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                batch = read_times_binary(path)
            except FormatError:
                rejected += 1
            else:
                assert batch.count == 3
                assert np.isfinite(batch.times).all() and (batch.times >= 0).all()
        assert rejected > 64  # every flip of the count header, at least

    def test_csv_bit_flips_load_or_raise_format_error(self, tmp_path):
        # Every single-bit flip of a 3-timestamp file: a flip may give
        # another number, a sign, a non-number or a byte that is not UTF-8.
        path = tmp_path / "times.csv"
        write_times_csv(TimestampBatch([0.5, 2.25, 9.75]), path)
        raw = path.read_bytes()
        rejected = 0
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                batch = read_times_csv(path)
            except FormatError:
                rejected += 1
            else:
                assert batch.count == 3
                assert np.isfinite(batch.times).all() and (batch.times >= 0).all()
        assert rejected >= len(raw)  # every top-bit flip, which is not UTF-8

    def test_binary_truncated(self, tmp_path):
        batch = self._batch()
        path = tmp_path / "times.bin"
        write_times_binary(batch, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError):
            read_times_binary(path)
