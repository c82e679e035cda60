import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from splsim import (
    DegenerateDistributionError,
    EnvParams,
    ParameterError,
    RngHandle,
    SystemParams,
    TimeGrid,
    arrival_pdf,
    build_flux,
    empirical_pdf,
    simulate_arrivals,
    simulate_registrations,
)
from splsim import oracle
from splsim.oracle import cull_dead_time, registration_counts


class TestCull:
    def test_pair_within_dead_time(self):
        assert np.array_equal(cull_dead_time(np.array([1.0, 1.5]), 2.0), [1.0])

    def test_nonparalyzable_hand_trace(self):
        # A paralyzable detector would register only {1.0}: the skipped
        # photon at 2.0 would restart the blanking window.
        out = cull_dead_time(np.array([1.0, 2.0, 3.5]), 2.0)
        assert np.array_equal(out, [1.0, 3.5])

    def test_zero_dead_time_identity(self):
        times = np.array([0.5, 0.5, 1.0, 9.0])
        assert np.array_equal(cull_dead_time(times, 0.0), times)

    def test_boundary_exactly_dead_time_apart(self):
        out = cull_dead_time(np.array([1.0, 3.0, 4.9]), 2.0)
        assert np.array_equal(out, [1.0, 3.0])

    def test_negative_dead_time_rejected(self):
        for t_d in (-0.5, math.nan, math.inf):
            with pytest.raises(ParameterError):
                cull_dead_time(np.array([1.0]), t_d)

    @pytest.mark.parametrize("times", [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array(1.0)], ids=["2-d", "0-d"])
    def test_not_one_dimensional_rejected(self, times):
        with pytest.raises(ParameterError, match="1-D"):
            cull_dead_time(times, 0.5)

    @pytest.mark.parametrize(
        "times, t_d, kept",
        [([2.9, 3.01], 0.11, [2.9]), ([0.32, 0.88], 0.56, [0.32, 0.88])],
        ids=["difference-below", "threshold-above"],
    )
    def test_difference_form_not_threshold_form(self, times, t_d, kept):
        # In floating point, a - last >= t_d and a >= last + t_d disagree on
        # these pairs; the cull is defined by the difference form.
        last, a = times
        assert (a - last >= t_d) != (a >= last + t_d)
        assert_same_bits(cull_dead_time(np.array(times), t_d), np.array(kept))

    @pytest.mark.parametrize(
        "times",
        [[1.0, 3.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.inf], [-math.inf, 1.0, 2.0]],
        ids=["descending", "nan", "inf", "-inf"],
    )
    def test_not_finite_or_not_ascending_rejected(self, times):
        with pytest.raises(ParameterError, match="finite and ascending"):
            cull_dead_time(np.array(times), 0.5)

    def test_strided_view_and_list_match_reference(self):
        times = np.cumsum(np.random.default_rng(3).exponential(1.0, 400))
        for view in (times[::2], times[1::3]):
            assert not view.flags.c_contiguous
            assert_same_bits(cull_dead_time(view, 1.5), reference_cull(view, 1.5))
        as_list = times.tolist()
        assert_same_bits(cull_dead_time(as_list, 1.5), reference_cull(as_list, 1.5))


def reference_cull(abs_times, t_d):
    """The cull as a loop over a Python list of floats: the reference for bit-identity."""
    abs_times = np.asarray(abs_times, dtype=np.float64)
    if t_d == 0 or abs_times.size == 0:
        return abs_times.copy()
    registered = []
    last = -math.inf
    for a in abs_times.tolist():
        if a - last >= t_d:
            registered.append(a)
            last = a
    return np.asarray(registered, dtype=np.float64)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def dropped_after(times, kept):
    """Each arrival missing from kept, with the registration before it (None if none).

    Asserts that kept is an in-order subsequence of times.
    """
    dropped, j = [], 0
    for a in times.tolist():
        if j < kept.size and a == kept[j]:
            j += 1
        else:
            dropped.append((a, kept[j - 1] if j else None))
    assert j == kept.size, "output is not an in-order subsequence of the input"
    return dropped


# Sorted arrivals built from their gaps, so runs of arrivals closer than
# the dead time are common and ties occur.
sorted_arrivals = st.lists(st.floats(0.0, 10.0), max_size=300).map(
    lambda gaps: np.cumsum(np.array(gaps, dtype=np.float64))
)
dead_times = st.one_of(st.just(0.0), st.floats(0.0, 30.0))

# Fixed example sequence, so that the suite draws the same cases on every run.
CULL_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestCullProperties:
    @CULL_SETTINGS
    @given(times=sorted_arrivals, t_d=dead_times)
    def test_matches_list_loop_bit_for_bit(self, times, t_d):
        assert_same_bits(cull_dead_time(times, t_d), reference_cull(times, t_d))

    @CULL_SETTINGS
    @given(times=sorted_arrivals, t_d=dead_times)
    def test_output_is_in_order_subsequence(self, times, t_d):
        kept = cull_dead_time(times, t_d)
        assert len(dropped_after(times, kept)) == times.size - kept.size

    @CULL_SETTINGS
    @given(times=sorted_arrivals, t_d=dead_times)
    def test_registrations_at_least_dead_time_apart(self, times, t_d):
        assert np.all(np.diff(cull_dead_time(times, t_d)) >= t_d)

    @CULL_SETTINGS
    @given(times=sorted_arrivals, t_d=dead_times)
    def test_dropped_arrivals_fall_in_dead_time(self, times, t_d):
        # Greedy-maximal: an arrival is dropped only while the detector is
        # still dead from the last registration, never from another drop.
        for a, last in dropped_after(times, cull_dead_time(times, t_d)):
            assert last is not None and a - last < t_d

    @CULL_SETTINGS
    @given(times=sorted_arrivals)
    def test_zero_dead_time_returns_input(self, times):
        assert np.array_equal(cull_dead_time(times, 0.0), times)


@st.composite
def segmented_arrivals(draw):
    """(times, t_d): runs of gaps below t_d cut by gaps well above it.

    Up to 400 arrivals, or enough for the lockstep path. A lattice of t_d / 4
    steps far from zero makes a - last >= t_d and a >= last + t_d disagree
    often, and rounds small gaps to ties.
    """
    lockstep = oracle.LOCKSTEP_ARRIVALS
    n = draw(st.one_of(st.integers(1, 400), st.integers(lockstep, lockstep + 2000)))
    t_d = draw(st.sampled_from([0.11, 0.56, 1.0, 8.0]))
    mean_gap = draw(st.floats(0.01, 1.5)) * t_d
    cut_share = draw(st.sampled_from([0.0, 0.002, 0.02, 0.1, 0.5]))
    offset = draw(st.sampled_from([0.0, -1e3, 1e6]))
    lattice = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.exponential(mean_gap, n)
    cuts = rng.random(n) < cut_share
    gaps[cuts] = t_d * (1.0 + rng.exponential(5.0, np.count_nonzero(cuts)))
    if lattice:
        gaps = np.round(gaps / (t_d / 4)) * (t_d / 4)
    return offset + np.cumsum(gaps), t_d


@contextlib.contextmanager
def forced_lockstep():
    """Run the cull's lockstep on any input, down to the last segment."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ("LOCKSTEP_ARRIVALS", "TAIL_SEGMENTS"):
            patch.setattr(oracle, name, 0)
        yield


def embedded(times, t_d):
    """times between two blocks of arrivals at gaps of mean t_d / 2, enough for the lockstep path."""
    rng = np.random.default_rng(17)
    block = oracle.LOCKSTEP_ARRIVALS // 2
    left = times[0] - 1.0 - np.cumsum(rng.exponential(t_d / 2, block))[::-1]
    right = times[-1] + 1.0 + np.cumsum(rng.exponential(t_d / 2, block))
    return np.concatenate([left, times, right])


LOCKSTEP_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestCullLockstep:
    @LOCKSTEP_SETTINGS
    @given(case=segmented_arrivals())
    def test_matches_list_loop_bit_for_bit(self, case):
        times, t_d = case
        want = reference_cull(times, t_d)
        assert_same_bits(cull_dead_time(times, t_d), want)
        with forced_lockstep():
            assert_same_bits(cull_dead_time(times, t_d), want)

    @LOCKSTEP_SETTINGS
    @given(case=segmented_arrivals())
    def test_arrival_after_long_gap_registered(self, case):
        times, t_d = case
        after_gap = times[1:][times[1:] - times[:-1] >= t_d]
        for kept in (cull_dead_time(times, t_d), reference_cull(times, t_d)):
            assert kept[0] == times[0]
            assert np.all(np.isin(after_gap, kept))

    @pytest.mark.parametrize(
        "times, t_d, kept",
        [([2.9, 3.01], 0.11, [2.9]), ([0.32, 0.88], 0.56, [0.32, 0.88]),
         ([0.32, 0.5, 0.88], 0.56, [0.32, 0.88])],
        ids=["difference-below", "threshold-above", "threshold-above-after-skip"],
    )
    def test_difference_form_in_many_segments(self, times, t_d, kept):
        # TestCull's pairs, where a - last >= t_d and a >= last + t_d
        # disagree, inside an input that takes the lockstep path.
        assert (times[-1] - times[0] >= t_d) != (times[-1] >= times[0] + t_d)
        big = embedded(np.array(times), t_d)
        assert big.size >= oracle.LOCKSTEP_ARRIVALS
        assert np.count_nonzero(big[1:] - big[:-1] >= t_d) > oracle.TAIL_SEGMENTS
        out = cull_dead_time(big, t_d)
        assert_same_bits(out, reference_cull(big, t_d))
        assert_same_bits(out[(out >= times[0]) & (out <= times[-1])], np.array(kept))

    def test_one_search_per_registration(self, monkeypatch):
        # The lockstep searches from each registration once: no chain runs
        # past the start of the next segment.
        keys = []
        searchsorted = np.searchsorted

        def counted(a, v, *args, **kwargs):
            keys.append(np.size(v))
            return searchsorted(a, v, *args, **kwargs)

        times = np.cumsum(np.random.default_rng(5).exponential(8.0 / 3, 30_000))
        monkeypatch.setattr(np, "searchsorted", counted)
        kept = cull_dead_time(times, 8.0)
        assert len(keys) > 2 and sum(keys) == kept.size


class TestSimulateRegistrations:
    def test_zero_dead_time_matches_arrivals(self):
        sys_p = SystemParams(t_d=0.0, n_cycles=500)
        grid = TimeGrid(256, 10.0)
        env = EnvParams(4.0, 1.0, 1.0)
        reg = simulate_registrations(sys_p, env, grid, RngHandle(30))
        assert reg.m_r == reg.m_a
        arr = simulate_arrivals(sys_p, env, grid, RngHandle(31))
        assert stats.ks_2samp(reg.rel_times.times, arr.times).pvalue > 0.01

    def test_counts_and_range(self):
        sys_p = SystemParams()
        grid = TimeGrid(256, 10.0)
        reg = simulate_registrations(sys_p, EnvParams(4.0, 2.0, 1.0), grid, RngHandle(32))
        assert 0 < reg.m_r <= reg.m_a
        assert np.all((reg.rel_times.times >= 0) & (reg.rel_times.times < 10.0))

    def test_rate_ceiling(self):
        sys_p = SystemParams()
        grid = TimeGrid(256, 10.0)
        ceiling = sys_p.n_cycles * sys_p.t_r / sys_p.t_d + 1
        for i in range(5):
            reg = simulate_registrations(sys_p, EnvParams(4.0, 10.0, 5.0), grid, RngHandle(33, i))
            assert reg.m_r <= ceiling

    def test_zero_energy(self):
        reg = simulate_registrations(
            SystemParams(), EnvParams(4.0, 0.0, 0.0), TimeGrid(64, 10.0), RngHandle(0)
        )
        assert reg.m_a == reg.m_r == 0

    def test_arrivals_drawn_as_simulate_arrivals(self):
        sys_p = SystemParams()
        grid = TimeGrid(256, 10.0)
        env = EnvParams(4.0, 2.0, 1.0)
        for i in range(10):
            reg = simulate_registrations(sys_p, env, grid, RngHandle(35, i))
            assert reg.m_a == simulate_arrivals(sys_p, env, grid, RngHandle(35, i)).count

    def test_determinism(self):
        sys_p = SystemParams()
        grid = TimeGrid(256, 10.0)
        env = EnvParams(4.0, 2.0, 1.0)
        a = simulate_registrations(sys_p, env, grid, RngHandle(34, 7))
        b = simulate_registrations(sys_p, env, grid, RngHandle(34, 7))
        assert a.m_a == b.m_a and a.m_r == b.m_r
        assert np.array_equal(a.rel_times.times, b.rel_times.times)


class TestCountPhenomenology:
    def test_zero_energy_counts(self):
        m_a, m_r = registration_counts(
            SystemParams(), EnvParams(4.0, 0.0, 0.0), TimeGrid(64, 10.0), 5, RngHandle(0)
        )
        assert np.array_equal(m_a, np.zeros(5)) and np.array_equal(m_r, np.zeros(5))

    def test_needs_one_realization(self):
        args = (SystemParams(), EnvParams(4.0, 1.0, 1.0), TimeGrid(64, 10.0), 0, RngHandle(0))
        for run in (registration_counts, empirical_pdf):
            with pytest.raises(ParameterError):
                run(*args)

    def test_registration_count_concentrates(self):
        sys_p = SystemParams()
        grid = TimeGrid(256, 10.0)
        m_a, m_r = registration_counts(sys_p, EnvParams(4.0, 4.0, 2.0), grid, 1000, RngHandle(40))
        assert np.all(m_r <= m_a)
        assert m_r.var() / m_a.var() < 1.0
        assert abs(stats.skew(m_r)) < 0.5

    def test_mean_saturates_with_energy(self):
        sys_p = SystemParams()
        grid = TimeGrid(256, 10.0)
        _, low = registration_counts(sys_p, EnvParams(4.0, 8.0, 4.0), grid, 600, RngHandle(41))
        _, high = registration_counts(sys_p, EnvParams(4.0, 16.0, 8.0), grid, 600, RngHandle(42))
        assert abs(high.mean() - low.mean()) / low.mean() < 0.10


class TestEmpiricalPdf:
    def test_uniform_background_no_dead_time(self):
        sys_p = SystemParams(t_d=0.0)
        grid = TimeGrid(64, 10.0)
        pdf = empirical_pdf(sys_p, EnvParams(4.0, 0.0, 2.0), grid, 50, RngHandle(50))
        assert pdf.is_pdf()
        # 3-sigma multinomial band per bin around the uniform density 0.1
        total = 50 * sys_p.n_cycles * 2.0
        p = 1.0 / grid.n_bins
        sigma_density = np.sqrt(total * p * (1 - p)) / (total * grid.bin_width)
        assert np.all(np.abs(pdf.values - 0.1) <= 4.0 * sigma_density)

    def test_no_dead_time_matches_arrival_pdf(self):
        sys_p = SystemParams(t_d=0.0)
        grid = TimeGrid(128, 10.0)
        env = EnvParams(4.0, 1.0, 1.0)
        # Pool registrations and chi-square them against the arrival PDF.
        pooled = np.concatenate(
            [
                simulate_registrations(sys_p, env, grid, RngHandle(51, i)).rel_times.times
                for i in range(20)
            ]
        )
        pdf = arrival_pdf(build_flux(sys_p, env, grid))
        observed = np.histogram(pooled, bins=grid.edges())[0]
        expected = pdf.values * grid.bin_width * pooled.size
        keep = expected >= 5
        result = stats.chisquare(
            observed[keep], expected[keep] * observed[keep].sum() / expected[keep].sum()
        )
        assert result.pvalue > 0.01

    def test_high_energy_peak_shifts_left(self):
        sys_p = SystemParams()
        grid = TimeGrid(256, 10.0)
        pdf = empirical_pdf(sys_p, EnvParams(4.0, 20.0, 0.0), grid, 300, RngHandle(52))
        peak = grid.centers()[np.argmax(pdf.values)]
        assert peak < 4.0

    def test_noise_bump_location(self):
        sys_p = SystemParams()
        grid = TimeGrid(256, 10.0)
        env = EnvParams(4.0, 4.0, 2.0)
        pdf = empirical_pdf(sys_p, env, grid, 2000, RngHandle(53))
        smoothed = np.convolve(pdf.values, np.ones(3) / 3, mode="same")
        target_bin = int(((env.tau - (sys_p.t_r - sys_p.t_d)) % sys_p.t_r) / grid.bin_width)
        window = smoothed[target_bin - 5 : target_bin + 6]
        k = target_bin - 5 + int(np.argmax(window))
        # A genuine bump: higher than the baseline left of it and the decay
        # to its right.
        assert smoothed[k] > smoothed[k - 12 : k - 6].max()
        assert smoothed[k] > smoothed[k + 6 : k + 12].max()

    def test_degenerate_raises(self):
        sys_p = SystemParams(n_cycles=1)
        grid = TimeGrid(64, 10.0)
        with pytest.raises(DegenerateDistributionError):
            empirical_pdf(sys_p, EnvParams(4.0, 0.0, 0.0), grid, 1, RngHandle(0))
