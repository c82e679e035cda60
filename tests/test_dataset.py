import concurrent.futures
import multiprocessing
import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from splsim import (
    EnvParams,
    EnvRanges,
    FormatError,
    ParameterError,
    RngHandle,
    SystemParams,
    TimeGrid,
    build_flux,
    generate_dataset,
    read_dataset,
    write_dataset,
)
from splsim import dataset
from splsim.core import DegenerateDistributionError
from splsim.dataset import (
    MIN_ENERGY,
    TEST_FRACTION_DENOM,
    Dataset,
    DatasetHeader,
    make_pair,
    sample_env,
    split_tag,
)

from conftest import DESK_BINS, DESK_PAIRS, DESK_REALIZATIONS, DESK_SEED, header_bit_flips


class TestEnvSampling:
    def test_ranges_respected(self):
        ranges = EnvRanges((0.5, 1.0), (0.0, 0.2), (3.0, 3.5))
        gen = RngHandle(100).generator()
        for _ in range(200):
            env = sample_env(gen, ranges)
            assert ranges.inside(env.tau, env.s_level, env.b_level)

    def test_default_ranges_uniform(self):
        # Per-coordinate KS against the uniform CDF on the default box.
        from scipy import stats

        gen = RngHandle(101).generator()
        envs = [sample_env(gen) for _ in range(2000)]
        s = np.array([e.s_level for e in envs])
        b = np.array([e.b_level for e in envs])
        tau = np.array([e.tau for e in envs])
        assert stats.kstest(s / 3.0, "uniform").pvalue > 0.01
        assert stats.kstest(b / 3.0, "uniform").pvalue > 0.01
        assert stats.kstest((tau - 2.0) / 4.0, "uniform").pvalue > 0.01

    def test_invalid_range(self):
        with pytest.raises(ParameterError):
            EnvRanges(s_range=(2.0, 1.0))


class TestSplit:
    def test_deterministic(self):
        assert all(split_tag(7, i) == split_tag(7, i) for i in range(100))

    def test_fraction_near_one_fifth(self):
        tags = [split_tag(DESK_SEED, i) for i in range(10_000)]
        frac = tags.count("test") / len(tags)
        assert abs(frac - 1.0 / TEST_FRACTION_DENOM) < 0.02

    def test_depends_on_seed(self):
        a = [split_tag(1, i) for i in range(500)]
        b = [split_tag(2, i) for i in range(500)]
        assert a != b


class TestMakePair:
    def test_shapes_and_normalization(self):
        sys_p = SystemParams(n_cycles=300)
        grid = TimeGrid(64, 10.0)
        label = make_pair(sys_p, EnvParams(4.0, 1.0, 1.0), grid, 5, RngHandle(3))
        assert label.shape == (64,)
        assert label.sum() * grid.bin_width == pytest.approx(1.0, abs=1e-9)


def _serial_reference(sys_p, grid, n_samples, n_realizations, seed, ranges, label_fn=make_pair):
    """The labelling loop in one process, draw k on stream (seed, 1).child(k): env, label, degenerate draws."""
    env_gen, base = RngHandle(seed, 0).generator(), RngHandle(seed, 1)
    envs, labels, attempt, degenerate = [], [], 0, 0
    while len(labels) < n_samples:
        env = sample_env(env_gen, ranges)
        attempt += 1
        if env.energy < MIN_ENERGY:
            continue
        try:
            labels.append(label_fn(sys_p, env, grid, n_realizations, base.child(attempt)))
        except DegenerateDistributionError:
            degenerate += 1
            continue
        envs.append((env.tau, env.s_level, env.b_level))
    return np.array(envs), np.array(labels), degenerate


# Low energies, so that some draws fall below MIN_ENERGY and are skipped.
_DIM_RANGES = EnvRanges(s_range=(0.0, 0.5), b_range=(0.0, 0.02))


class TestGenerate:
    def test_counts_and_split_tags(self, desk_dataset):
        assert desk_dataset.env.shape == (DESK_PAIRS, 3)
        assert desk_dataset.flux.shape == desk_dataset.label.shape == (DESK_PAIRS, DESK_BINS)
        tags = ["test" if t else "train" for t in desk_dataset.is_test]
        assert tags == [split_tag(DESK_SEED, i) for i in range(DESK_PAIRS)]

    def test_derived_columns_match_their_definitions(self, tiny_setup):
        ds = tiny_setup["dataset"]
        h = ds.header
        expected = [build_flux(h.sys, EnvParams(*env), ds.grid).values for env in ds.env]
        assert np.array_equal(ds.flux, np.array(expected))
        assert np.array_equal(ds.is_test, [split_tag(h.seed, i) == "test" for i in range(h.n_samples)])
        tx, ty = ds.arrays("train")
        assert np.array_equal(tx, ds.flux[~ds.is_test]) and np.array_equal(ty, ds.label[~ds.is_test])

    @pytest.mark.parametrize("column, shape", [("env", (20, 4)), ("env", (19, 3)), ("label", (20, 32))])
    def test_column_shape_must_match_header(self, tiny_setup, column, shape):
        ds = tiny_setup["dataset"]
        columns = {"env": ds.env, "label": ds.label, column: np.zeros(shape)}
        with pytest.raises(ParameterError):
            Dataset(header=ds.header, **columns)

    def test_envs_inside_ranges(self, desk_dataset):
        ranges = desk_dataset.header.ranges
        tau, s_level, b_level = desk_dataset.env.T
        assert ranges.inside(tau, s_level, b_level).all()

    def test_labels_are_pdfs(self, desk_dataset, desk_grid):
        labels = desk_dataset.label[:200]
        assert np.all(labels >= 0)
        assert labels.sum(axis=1) * desk_grid.bin_width == pytest.approx(np.ones(200), abs=1e-9)

    def test_deterministic_regeneration(self):
        sys_p = SystemParams(n_cycles=200)
        grid = TimeGrid(64, 10.0)
        a = generate_dataset(sys_p, grid, 10, n_realizations=3, seed=11)
        b = generate_dataset(sys_p, grid, 10, n_realizations=3, seed=11)
        assert np.array_equal(a.env, b.env)
        assert np.array_equal(a.flux, b.flux)
        assert np.array_equal(a.label, b.label)

    def test_seed_changes_content(self):
        sys_p = SystemParams(n_cycles=200)
        grid = TimeGrid(64, 10.0)
        a = generate_dataset(sys_p, grid, 5, n_realizations=3, seed=1)
        b = generate_dataset(sys_p, grid, 5, n_realizations=3, seed=2)
        assert not np.array_equal(a.env, b.env)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            generate_dataset(SystemParams(), TimeGrid(64, 10.0), 0)

    @pytest.mark.parametrize(
        "n_samples, n_realizations, name",
        [(2.5, 3, "n_samples"), (4, 1.5, "n_realizations"), (4, 0, "n_realizations")],
        ids=["fractional-samples", "fractional-realizations", "zero-realizations"],
    )
    def test_counts_checked_before_the_pool_starts(self, monkeypatch, n_samples, n_realizations, name):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        with pytest.raises(ParameterError, match=f"{name} must be an integer >= 1"):
            generate_dataset(SystemParams(n_cycles=200), TimeGrid(64, 10.0), n_samples,
                             n_realizations=n_realizations)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_same_bits_on_any_cpu_count(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sys_p, grid = SystemParams(n_cycles=200), TimeGrid(64, 10.0)
        ds = generate_dataset(sys_p, grid, 13, n_realizations=3, seed=21, ranges=_DIM_RANGES)
        env, label, _ = _serial_reference(sys_p, grid, 13, 3, 21, _DIM_RANGES)
        assert np.array_equal(ds.env, env)
        assert np.array_equal(ds.label, label)

    def test_degenerate_draws_are_skipped_and_logged_by_the_parent(self, monkeypatch, caplog):
        def fussy_pair(sys_p, env, grid, n_realizations, rng):
            if env.s_level < 1.0:
                raise DegenerateDistributionError("no registrations")
            return make_pair(sys_p, env, grid, n_realizations, rng)

        monkeypatch.setattr(dataset, "make_pair", fussy_pair)
        sys_p, grid = SystemParams(n_cycles=200), TimeGrid(64, 10.0)
        with caplog.at_level("INFO", logger="splsim.dataset"):
            ds = generate_dataset(sys_p, grid, 9, n_realizations=3, seed=4)
        env, label, degenerate = _serial_reference(sys_p, grid, 9, 3, 4, EnvRanges(), label_fn=fussy_pair)
        assert np.array_equal(ds.env, env)
        assert np.array_equal(ds.label, label)
        resampled = [r for r in caplog.records if "zero registrations" in r.getMessage()]
        assert degenerate > 0 and len(resampled) == degenerate
        assert {r.process for r in resampled} == {os.getpid()}

    def test_worker_error_reaches_caller_and_leaves_no_child(self, monkeypatch):
        def broken_pair(sys_p, env, grid, n_realizations, rng):
            if env.s_level > 2.0:
                raise ParameterError(f"refused in process {os.getpid()}")
            return make_pair(sys_p, env, grid, n_realizations, rng)

        monkeypatch.setattr(dataset, "make_pair", broken_pair)
        with pytest.raises(ParameterError, match="refused in process") as caught:
            generate_dataset(SystemParams(n_cycles=200), TimeGrid(64, 10.0), 40, n_realizations=3, seed=6)
        assert str(os.getpid()) not in str(caught.value)
        assert multiprocessing.active_children() == []

    def test_arrays_partition(self, desk_dataset):
        tx, ty = desk_dataset.arrays("train")
        vx, vy = desk_dataset.arrays("test")
        assert tx.shape[0] + vx.shape[0] == DESK_PAIRS
        assert tx.shape[1] == ty.shape[1] == DESK_BINS
        # roughly 4:1
        assert 0.15 < vx.shape[0] / DESK_PAIRS < 0.25

    def test_arrays_unknown_split(self, tiny_setup):
        with pytest.raises(ParameterError):
            tiny_setup["dataset"].arrays("validation")


# The SPLDS2 layout spelled out field by field, as a reference reader.
_REF_HEADER = struct.Struct("<dddIIQIddddddI")
_REF_ENV = struct.Struct("<ddd")  # tau, s, b
_REF_START = 6 + _REF_HEADER.size
_N_BINS_OFFSET = 6 + struct.calcsize("<dddI")
_N_SAMPLES_OFFSET = _REF_START - 4


def _reference_read(raw: bytes):
    fields = _REF_HEADER.unpack_from(raw, 6)
    k, n = fields[4], fields[-1]
    env, label = [], []
    off = _REF_START
    for _ in range(n):
        env.append(_REF_ENV.unpack_from(raw, off))
        off += _REF_ENV.size
        label.append(struct.unpack_from(f"<{k}d", raw, off))
        off += 8 * k
    assert off == len(raw) - 4
    return np.array(env), np.array(label)


def _write_with_crc(raw: bytearray, path):
    """Write raw with its trailing CRC recomputed, so only the edit is wrong."""
    raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])))
    path.write_bytes(bytes(raw))


class TestDatasetIO:
    def test_roundtrip(self, tiny_setup, tmp_path):
        ds = tiny_setup["dataset"]
        path = tmp_path / "rt.splds"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.header == ds.header
        assert np.array_equal(back.env, ds.env)
        assert np.array_equal(back.is_test, ds.is_test)
        assert np.array_equal(back.flux, ds.flux)
        assert np.array_equal(back.label, ds.label)

    def test_read_holds_the_file_once(self, tmp_path):
        n, k = 300, 1024
        gen = np.random.default_rng(8)
        header = DatasetHeader(sys=SystemParams(), n_bins=k, ranges=EnvRanges(), seed=1, n_realizations=2,
                               n_samples=n)
        path = tmp_path / "big.splds"
        env = gen.uniform((2.0, 0.0, 0.0), (6.0, 3.0, 3.0), size=(n, 3))  # tau, S, B
        write_dataset(Dataset(header=header, env=env, label=gen.uniform(size=(n, k))), path)
        tracemalloc.start()
        try:
            back = read_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * path.stat().st_size
        assert not back.env.flags.writeable and not back.label.flags.writeable
        tx, ty = back.arrays("train")
        assert tx.flags.c_contiguous and ty.flags.c_contiguous

    def test_layout_matches_reference_reader(self, tiny_setup):
        ds = tiny_setup["dataset"]
        env, label = _reference_read(tiny_setup["dataset_path"].read_bytes())
        assert np.array_equal(env, ds.env)
        assert np.array_equal(label, ds.label)

    def test_regenerable_from_header(self, tiny_setup):
        h = read_dataset(tiny_setup["dataset_path"]).header
        regen = generate_dataset(
            h.sys, h.grid, h.n_samples, n_realizations=h.n_realizations,
            seed=h.seed, ranges=h.ranges,
        )
        assert np.array_equal(regen.label, tiny_setup["dataset"].label)

    def test_bad_magic(self, tiny_setup, tmp_path):
        path = tmp_path / "bad.splds"
        raw = bytearray(tiny_setup["dataset_path"].read_bytes())
        raw[:6] = b"XXXXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_splds1_file_rejected(self, tiny_setup, tmp_path):
        # The previous layout: the same header after an SPLDS1 magic, then per
        # sample tau, S, B, a split flag, the flux times the bin width and the label.
        ds = tiny_setup["dataset"]
        raw = bytearray(b"SPLDS1" + tiny_setup["dataset_path"].read_bytes()[6:_REF_START])
        for env, flag, flux, label in zip(ds.env, ds.is_test, ds.flux * ds.grid.bin_width, ds.label):
            raw += struct.pack("<dddB", *env, int(flag)) + flux.astype("<f8").tobytes() + label.astype("<f8").tobytes()
        raw += bytes(4)
        path = tmp_path / "old.splds"
        _write_with_crc(raw, path)
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_corruption_detected(self, tiny_setup, tmp_path):
        path = tmp_path / "corrupt.splds"
        raw = bytearray(tiny_setup["dataset_path"].read_bytes())
        raw[200] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_header_bit_flip_is_format_error(self, tiny_setup, tmp_path):
        # Byte 21 is the exponent byte of t_d; the flip makes t_d >= t_r.
        path = tmp_path / "flipped.splds"
        raw = bytearray(tiny_setup["dataset_path"].read_bytes())
        raw[21] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_every_header_bit_flip_loads_or_is_format_error(self, tiny_setup, tmp_path):
        path = tmp_path / "flipped.splds"
        flips = list(header_bit_flips(tiny_setup["dataset_path"].read_bytes(), _REF_START))
        assert len(flips) == 816
        for raw in flips:
            path.write_bytes(raw)
            try:
                read_dataset(path)
            except FormatError:
                pass

    def test_truncation_detected(self, tiny_setup, tmp_path):
        path = tmp_path / "trunc.splds"
        raw = tiny_setup["dataset_path"].read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(FormatError):
            read_dataset(path)

    @pytest.mark.parametrize(
        "offset, value",
        [(_N_SAMPLES_OFFSET, 2**32 - 1), (_N_BINS_OFFSET, 2**32 - 1), (_N_BINS_OFFSET, 0)],
        ids=["huge-n_samples", "huge-n_bins", "zero-n_bins"],
    )
    def test_hostile_header_count(self, tiny_setup, tmp_path, offset, value):
        path = tmp_path / "hostile.splds"
        raw = bytearray(tiny_setup["dataset_path"].read_bytes())
        struct.pack_into("<I", raw, offset, value)
        _write_with_crc(raw, path)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                read_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(raw)

    def test_negative_env_rejected(self, tiny_setup, tmp_path):
        path = tmp_path / "negative.splds"
        for value in (-1.0, np.inf):
            raw = bytearray(tiny_setup["dataset_path"].read_bytes())
            struct.pack_into("<d", raw, _REF_START + 8, value)  # S of the first sample
            _write_with_crc(raw, path)
            with pytest.raises(FormatError):
                read_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_hostile_label_rejected(self, tiny_setup, tmp_path, value):
        path = tmp_path / "label.splds"
        raw = bytearray(tiny_setup["dataset_path"].read_bytes())
        struct.pack_into("<d", raw, _REF_START + 24 + 8 * 5, value)  # bin 5 of the first label
        _write_with_crc(raw, path)
        with pytest.raises(FormatError):
            read_dataset(path)
