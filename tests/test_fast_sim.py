import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from scipy import stats

import splsim.fast_sim

from splsim import (
    EnvParams,
    build_flux,
    estimate_count,
    predict_pdf,
    sample_count,
    FormatError,
    NoPhotonError,
    ParameterError,
    RngHandle,
    SystemParams,
    TimeGrid,
    estimate_depth,
    fast_simulate,
    ramp_scene,
    read_scene,
    simulate_image,
    simulate_registrations,
    write_scene,
)
from splsim.arrival import TimestampBatch, sample_bin_counts
from splsim.fast_sim import BLOCK_PIXELS, SceneSpec, _simulate_block, write_depth_csv


def reference_fast_image(scene, sys_p, grid, model, rng):
    """The fast engine pixel by pixel: each pixel's flux, PDF, count and bin-count draw on its own."""
    out = []
    for idx in range(scene.height * scene.width):
        env = scene.env_at(*divmod(idx, scene.width))
        if env.energy == 0:
            out.append(np.empty(0))
            continue
        gen = rng.child(idx).generator()
        f_r = predict_pdf(model, build_flux(sys_p, env, grid))
        est = estimate_count(sys_p, env, f_r)
        count = sample_count(est.mean_r, est.std_r, gen)
        out.append(sample_bin_counts(count, f_r.values / f_r.values.sum(), grid, gen))
    return out


class TestFastSimulate:
    def test_zero_energy_empty(self, trained_model, desk_grid, default_sys):
        batch = fast_simulate(
            default_sys, EnvParams(4.0, 0.0, 0.0), trained_model, desk_grid, RngHandle(0)
        )
        assert batch.count == 0

    def test_times_in_period(self, trained_model, desk_grid, default_sys):
        batch = fast_simulate(
            default_sys, EnvParams(4.0, 2.0, 1.0), trained_model, desk_grid, RngHandle(1)
        )
        assert batch.count > 0
        assert np.all((batch.times >= 0) & (batch.times < default_sys.t_r))

    def test_deterministic(self, trained_model, desk_grid, default_sys):
        env = EnvParams(3.0, 1.0, 0.5)
        a = fast_simulate(default_sys, env, trained_model, desk_grid, RngHandle(2, 5))
        b = fast_simulate(default_sys, env, trained_model, desk_grid, RngHandle(2, 5))
        assert np.array_equal(a.times, b.times)

    def test_out_of_range_warns(self, trained_model, desk_grid, default_sys):
        with pytest.warns(UserWarning):
            fast_simulate(
                default_sys, EnvParams(4.0, 10.0, 1.0), trained_model, desk_grid, RngHandle(3)
            )

    def test_count_matches_oracle(self, trained_model, desk_grid, default_sys):
        # Mean fast-engine count within a few percent of the oracle's.
        env = EnvParams(4.0, 2.0, 1.0)
        fast_counts = np.array(
            [
                fast_simulate(
                    default_sys, env, trained_model, desk_grid, RngHandle(4, i)
                ).count
                for i in range(50)
            ]
        )
        oracle_counts = np.array(
            [
                simulate_registrations(default_sys, env, desk_grid, RngHandle(5, i)).m_r
                for i in range(50)
            ]
        )
        assert fast_counts.mean() == pytest.approx(oracle_counts.mean(), rel=0.05)

    def test_distribution_matches_oracle(self, trained_model, desk_grid, default_sys):
        env = EnvParams(4.0, 2.0, 1.0)
        fast = np.concatenate(
            [
                fast_simulate(
                    default_sys, env, trained_model, desk_grid, RngHandle(6, i)
                ).times
                for i in range(10)
            ]
        )
        oracle = np.concatenate(
            [
                simulate_registrations(default_sys, env, desk_grid, RngHandle(7, i)).rel_times.times
                for i in range(10)
            ]
        )
        assert stats.ks_2samp(fast, oracle).statistic <= 0.05


class TestDepthEstimate:
    def test_point_mass(self):
        batch = TimestampBatch(np.full(100, 3.25))
        assert estimate_depth(batch) == pytest.approx(3.25)

    def test_empty_raises(self):
        with pytest.raises(NoPhotonError):
            estimate_depth(TimestampBatch(np.empty(0)))


class TestSceneSpec:
    def test_ramp_geometry(self):
        scene = ramp_scene(6, 4, tau_range=(2.0, 6.0))
        assert (scene.height, scene.width) == (4, 6)
        assert scene.depths[0, 0] == 2.0
        assert scene.depths[-1, -1] == 6.0
        assert np.all(np.diff(scene.depths, axis=1) > 0)

    def test_env_at(self):
        scene = SceneSpec(
            depths=np.array([[3.0, 4.0]]),
            reflectivity=np.array([[0.5, 1.0]]),
            b_level=0.7,
            pulse_energy=2.0,
        )
        env = scene.env_at(0, 0)
        assert env.tau == 3.0
        assert env.s_level == 1.0
        assert env.b_level == 0.7

    def test_validation(self):
        with pytest.raises(ParameterError):
            SceneSpec(
                depths=np.ones(4), reflectivity=1.0, b_level=1.0, pulse_energy=1.0
            )
        with pytest.raises(ParameterError):
            SceneSpec(
                depths=np.ones((2, 2)), reflectivity=-1.0, b_level=1.0, pulse_energy=1.0
            )

    def test_scene_file_roundtrip(self, tmp_path):
        scene = ramp_scene(5, 3, reflectivity=0.8, b_level=0.25, pulse_energy=1.5)
        path = tmp_path / "scene.txt"
        write_scene(scene, path)
        back = read_scene(path)
        assert np.array_equal(back.depths, scene.depths)
        assert np.array_equal(back.reflectivity, scene.reflectivity)
        assert back.b_level == scene.b_level
        assert back.pulse_energy == scene.pulse_energy

    def test_scene_file_malformed(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("2 2 0.5 1.0\n1 2 3\n")
        with pytest.raises(FormatError):
            read_scene(path)

    def test_scene_file_not_utf8(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_bytes(b"\xb3 1 0.5 1.0\n4 1\n")
        with pytest.raises(FormatError):
            read_scene(path)

    def test_scene_file_bit_flips_load_or_raise_format_error(self, tmp_path):
        path = tmp_path / "scene.txt"
        write_scene(ramp_scene(2, 1), path)
        raw = path.read_bytes()
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                read_scene(path)
            except FormatError:
                pass

    def test_scene_file_negative_size(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("-2 -2 0.5 1.0\n" + " ".join(["1"] * 8) + "\n")
        with pytest.raises(FormatError):
            read_scene(path)

    @pytest.mark.parametrize(
        "field, value",
        [("depths", np.inf), ("depths", np.nan), ("depths", -1.0), ("reflectivity", np.nan),
         ("b_level", np.nan), ("pulse_energy", np.inf),
         pytest.param("reflectivity", np.ones((3, 2)), id="reflectivity-shape")],
    )
    def test_bad_values_rejected(self, tmp_path, field, value):
        fields = dict(depths=np.full((2, 2), 4.0), reflectivity=np.ones((2, 2)), b_level=0.5, pulse_energy=1.0)
        if field in ("depths", "reflectivity") and np.ndim(value) == 0:
            fields[field][0, 1] = value
        else:
            fields[field] = value
        with pytest.raises(ParameterError):
            SceneSpec(**fields)
        path = tmp_path / "scene.txt"
        path.write_text(
            f"2 2 {fields['b_level']} {fields['pulse_energy']}\n"
            + " ".join(str(v) for v in np.concatenate([fields["depths"].ravel(), fields["reflectivity"].ravel()]))
        )
        with pytest.raises(FormatError):
            read_scene(path)


class TestSimulateImage:
    def test_requires_model_for_fast(self, default_sys, desk_grid):
        scene = ramp_scene(2, 2)
        with pytest.raises(ParameterError):
            simulate_image(scene, default_sys, desk_grid, "fast", RngHandle(0))

    def test_unknown_engine(self, default_sys, desk_grid):
        with pytest.raises(ParameterError):
            simulate_image(ramp_scene(2, 2), default_sys, desk_grid, "nope", RngHandle(0))

    def test_oracle_image_recovers_ramp(self, default_sys, desk_grid):
        # Low flux keeps the mean-of-minima dead-time bias well below the
        # tolerance: most cycles register at most one pulse photon.
        scene = ramp_scene(4, 2, reflectivity=0.25, b_level=0.0, pulse_energy=2.0)
        result = simulate_image(scene, default_sys, desk_grid, "oracle", RngHandle(10))
        assert not np.isnan(result.depth_estimate).any()
        assert np.allclose(result.depth_estimate, scene.depths, atol=0.05)

    @pytest.mark.parametrize("engine", ["oracle", "fast"])
    def test_zero_energy_pixel_invalid(self, default_sys, desk_grid, engine, request):
        scene = SceneSpec(
            depths=np.array([[4.0, 4.0]]),
            reflectivity=np.array([[0.0, 1.0]]),
            b_level=0.0,
            pulse_energy=2.0,
        )
        model = request.getfixturevalue("trained_model") if engine == "fast" else None
        result = simulate_image(scene, default_sys, desk_grid, engine, RngHandle(11), model=model)
        assert np.isnan(result.depth_estimate[0, 0])
        assert not np.isnan(result.depth_estimate[0, 1])

    def test_fast_image_shape_and_timing(self, trained_model, default_sys, desk_grid):
        scene = ramp_scene(3, 2)
        result = simulate_image(
            scene, default_sys, desk_grid, "fast", RngHandle(12), model=trained_model
        )
        assert result.depth_estimate.shape == (2, 3)
        assert 0 < result.mean_pixel_seconds * 6 <= result.total_seconds

    def test_pixel_streams_independent_of_traversal(
        self, trained_model, default_sys, desk_grid
    ):
        # The same pixel environment and index gives identical photons even
        # when the surrounding scene differs.
        base = ramp_scene(3, 1)
        sub = SceneSpec(
            depths=base.depths[:, :1],
            reflectivity=base.reflectivity[:, :1],
            b_level=base.b_level,
            pulse_energy=base.pulse_energy,
        )
        full = simulate_image(
            base, default_sys, desk_grid, "fast", RngHandle(13), model=trained_model
        )
        only = simulate_image(
            sub, default_sys, desk_grid, "fast", RngHandle(13), model=trained_model
        )
        assert np.array_equal(full.batches[0].times, only.batches[0].times)

    def test_fast_image_matches_per_pixel_reference(self, trained_model, default_sys, desk_grid):
        # 2 blocks plus a partial one; one zero-energy pixel.
        sys_p = SystemParams(n_cycles=10_000)
        width, height = 13, 11
        assert (width * height) % BLOCK_PIXELS
        refl = np.random.default_rng(3).uniform(0.05, 1.5, size=(height, width))
        refl[4, 7] = 0.0
        scene = SceneSpec(
            depths=ramp_scene(width, height, tau_range=(2.5, 5.5)).depths,
            reflectivity=refl,
            b_level=0.0,
            pulse_energy=2.0,
        )
        result = simulate_image(scene, sys_p, desk_grid, "fast", RngHandle(14), model=trained_model)
        reference = reference_fast_image(scene, sys_p, desk_grid, trained_model, RngHandle(14))
        counts = np.array([b.count for b in result.batches])
        assert np.array_equal(counts, [t.size for t in reference])
        assert counts[4 * width + 7] == 0
        for batch, times in zip(result.batches, reference):
            assert np.allclose(batch.times, times, rtol=0, atol=1e-9)

    def test_block_pixel_matches_lone_pixel(self, trained_model, default_sys, desk_grid):
        # Every pixel of a block, around a zero-energy one, draws what it
        # draws with the same stream when every other pixel of the block is dark.
        tau = np.array([3.0, 3.5, 4.0, 4.5, 5.0])
        s_level = np.array([1.0, 2.0, 0.0, 0.5, 3.0])
        b_level = np.array([1.0, 0.5, 0.0, 1.5, 0.2])
        rngs = [RngHandle(16, i) for i in range(tau.size)]
        block = _simulate_block(
            default_sys, desk_grid, trained_model, tau, s_level, b_level,
            (rngs[i].generator() for i in np.flatnonzero(s_level + b_level)), BLOCK_PIXELS,
        )
        assert block[2].count == 0
        for i, batch in enumerate(block):
            dark = np.arange(tau.size) != i
            alone = _simulate_block(
                default_sys, desk_grid, trained_model, tau,
                np.where(dark, 0.0, s_level), np.where(dark, 0.0, b_level), [rngs[i].generator()], BLOCK_PIXELS,
            )
            assert sum(b.count for b in alone) == batch.count
            assert np.array_equal(batch.times, alone[i].times)

    def test_out_of_range_mask_warns_once(self, trained_model, default_sys, desk_grid):
        refl = np.ones((2, 3))
        refl[0, 1] = refl[1, 2] = 10.0  # S = 20, above the trained S range
        refl[1, 0] = 0.0
        scene = SceneSpec(depths=np.full((2, 3), 4.0), reflectivity=refl, b_level=0.0, pulse_energy=2.0)
        with pytest.warns(UserWarning, match="outside the trained") as caught:
            result = simulate_image(scene, default_sys, desk_grid, "fast", RngHandle(15), model=trained_model)
        assert sum("outside the trained" in str(w.message) for w in caught) == 1
        assert np.array_equal(result.out_of_range, refl == 10.0)

    @pytest.mark.parametrize("cpus", [1, 7])
    def test_oracle_image_matches_per_pixel_reference(self, desk_grid, monkeypatch, cpus):
        # An odd pixel count, so the workers' shares differ; one zero-energy
        # pixel. Seven workers on fewer cores, switching threads every
        # microsecond, must still leave every pixel at its own index.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sys_p = SystemParams(n_cycles=10_000)
        width, height = 5, 3
        refl = np.random.default_rng(4).uniform(0.25, 1.5, size=(height, width))
        refl[1, 3] = 0.0
        scene = SceneSpec(
            depths=ramp_scene(width, height, tau_range=(2.5, 5.5)).depths,
            reflectivity=refl,
            b_level=0.0,
            pulse_energy=2.0,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = simulate_image(scene, sys_p, desk_grid, "oracle", RngHandle(17))
        finally:
            sys.setswitchinterval(interval)
        assert result.batches[width + 3].count == 0
        for idx, batch in enumerate(result.batches):
            env = scene.env_at(*divmod(idx, width))
            reference = simulate_registrations(sys_p, env, desk_grid, RngHandle(17).child(idx)).rel_times
            assert np.array_equal(batch.times, reference.times)

    @pytest.mark.parametrize("fault", ["error", "interrupt"])
    def test_oracle_pixel_error_propagates_and_stops_the_others(self, default_sys, desk_grid, monkeypatch, fault):
        # Pixel 0 fails at once, or interrupts the caller's thread; every
        # other pixel takes 10 ms, so workers that kept going after it would
        # run all 40 of them. Switching threads every microsecond lets the
        # interrupt land while the caller is still starting the workers.
        if fault == "interrupt" and not hasattr(signal, "pthread_kill"):
            pytest.skip("signal.pthread_kill is not available")
        boom = RuntimeError("pixel 0 failed")
        calls = []

        def acquisition(sys_p, env, grid, gen):
            calls.append(env.tau)
            if env.tau == 0.5:
                if fault == "error":
                    raise boom
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.01)
            return simulate_registrations(sys_p, env, grid, gen)

        monkeypatch.setattr(splsim.fast_sim, "simulate_registrations", acquisition)
        depths = np.full((1, 41), 4.0)
        depths[0, 0] = 0.5
        scene = SceneSpec(depths=depths, reflectivity=0.0, b_level=1.0, pulse_energy=2.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(RuntimeError if fault == "error" else KeyboardInterrupt) as info:
                simulate_image(scene, default_sys, desk_grid, "oracle", RngHandle(18))
        finally:
            sys.setswitchinterval(interval)
        assert fault == "interrupt" or info.value is boom
        assert 1 <= len(calls) <= 10

    def test_oracle_worker_warning_reaches_caller(self, default_sys, desk_grid):
        # tau = 0 puts half the pulse before the period starts.
        scene = SceneSpec(depths=np.array([[4.0, 0.0, 4.0]]), reflectivity=1.0, b_level=1.0, pulse_energy=2.0)
        with pytest.warns(UserWarning, match="not fully contained"):
            simulate_image(scene, default_sys, desk_grid, "oracle", RngHandle(19))

    def test_depth_csv(self, tmp_path):
        depth = np.array([[1.0, 2.0], [3.0, np.nan]])
        path = tmp_path / "depth.csv"
        write_depth_csv(depth, path)
        back = np.loadtxt(path, delimiter=",")
        assert np.allclose(back[:1], depth[:1])
        assert np.isnan(back[1, 1])
