"""Acceptance suite: one test per headline requirement.

Each test prints a single PASS line on success (visible with `pytest -s`
or in captured output); a failure shows up as an ordinary pytest failure.
The desk-scale dataset and model come from session fixtures in conftest.
"""

import warnings

import numpy as np
import pytest
from scipy import stats

from splsim import (
    DiscretizedFunction,
    EnvParams,
    RngHandle,
    SystemParams,
    TimeGrid,
    build_flux,
    empirical_pdf,
    estimate_count,
    fast_simulate,
    predict_pdf,
    simulate_arrivals,
    simulate_registrations,
)
from splsim.bench import run_benchmark
from splsim.fast_sim import SceneSpec, estimate_depth
from splsim.oracle import cull_dead_time, registration_counts
from splsim.pdf_net import _forward_batch, backward, build_model, loss_mse

from conftest import DESK_EPOCHS


def _report(name, detail):
    print(f"[PASS] {name}: {detail}")


class TestAcceptance:
    def test_1_oracle_correctness(self, default_sys):
        # Hand-traced nonparalyzable culling.
        assert np.array_equal(cull_dead_time(np.array([1.0, 2.0, 3.5]), 2.0), [1.0, 3.5])
        # With zero dead time, registrations must be distributed like arrivals.
        sys_p = SystemParams(t_d=0.0, n_cycles=500)
        grid = TimeGrid(256, sys_p.t_r)
        env_gen = RngHandle(200).generator()
        pvals = []
        for i in range(5):
            env = EnvParams(
                tau=env_gen.uniform(2.0, 6.0),
                s_level=env_gen.uniform(0.2, 3.0),
                b_level=env_gen.uniform(0.2, 3.0),
            )
            reg = simulate_registrations(sys_p, env, grid, RngHandle(201, i))
            arr = simulate_arrivals(sys_p, env, grid, RngHandle(202, i))
            p = stats.ks_2samp(reg.rel_times.times, arr.times).pvalue
            pvals.append(p)
            assert p > 0.01
        _report("oracle correctness", f"hand trace exact; KS p-values {['%.3f' % p for p in pvals]}")

    def test_2_registration_phenomenology(self, default_sys):
        grid = TimeGrid(256, default_sys.t_r)
        # (a) count distribution concentrates: reduced variance, near-symmetric.
        m_a, m_r = registration_counts(
            default_sys, EnvParams(4.0, 4.0, 2.0), grid, 5000, RngHandle(210)
        )
        var_ratio = m_r.var() / m_a.var()
        skew = float(stats.skew(m_r))
        assert var_ratio < 1.0
        assert abs(skew) < 0.5
        # (b) doubling the per-cycle energy at fixed SBR barely moves the mean.
        _, low = registration_counts(
            default_sys, EnvParams(4.0, 8.0, 4.0), grid, 5000, RngHandle(211)
        )
        _, high = registration_counts(
            default_sys, EnvParams(4.0, 16.0, 8.0), grid, 5000, RngHandle(212)
        )
        mean_change = abs(high.mean() - low.mean()) / low.mean()
        assert mean_change < 0.10
        # (c) dead-time echo of the pulse appears one dead window later.
        env = EnvParams(4.0, 4.0, 2.0)
        pdf = empirical_pdf(default_sys, env, grid, 5000, RngHandle(213))
        smoothed = np.convolve(pdf.values, np.ones(3) / 3, mode="same")
        target = int(
            ((env.tau - (default_sys.t_r - default_sys.t_d)) % default_sys.t_r)
            / grid.bin_width
        )
        window = smoothed[target - 5 : target + 6]
        k = target - 5 + int(np.argmax(window))
        assert abs(k - target) <= 5
        assert smoothed[k] > smoothed[k - 12 : k - 6].max()
        assert smoothed[k] > smoothed[k + 6 : k + 12].max()
        _report(
            "registration phenomenology",
            f"var ratio {var_ratio:.4f}, |skew| {abs(skew):.3f}, "
            f"mean shift {100 * mean_change:.1f}%, bump at bin {k} (target {target})",
        )

    def test_3_count_model_grid(self, default_sys):
        grid = TimeGrid(256, default_sys.t_r)
        levels = [0.5, 1.0, 2.0, 3.0]
        worst_mean, worst_std = 0.0, 1.0
        for i, s in enumerate(levels):
            for j, b in enumerate(levels):
                env = EnvParams(4.0, s, b)
                f_r = empirical_pdf(default_sys, env, grid, 300, RngHandle(220, 10 * i + j))
                est = estimate_count(default_sys, env, f_r)
                _, m_r = registration_counts(
                    default_sys, env, grid, 5000, RngHandle(221, 10 * i + j)
                )
                mean_err = abs(est.mean_r - m_r.mean()) / m_r.mean()
                std_ratio = est.std_r / m_r.std()
                assert mean_err <= 0.05, (s, b, mean_err)
                assert 0.5 <= std_ratio <= 2.0, (s, b, std_ratio)
                worst_mean = max(worst_mean, mean_err)
                worst_std = max(worst_std, std_ratio, 1.0 / std_ratio)
        _report(
            "count model grid",
            f"worst mean error {100 * worst_mean:.2f}%, worst std factor {worst_std:.2f} "
            f"over {len(levels) ** 2} (S,B) points",
        )

    def test_4_gradient_check(self):
        model = build_model(16, input_scale=1.0, seed=2, layer_dims=[16, 8, 16])
        gen = RngHandle(230).generator()
        x = gen.random(16)
        label = gen.random(16)
        grads = backward(model, x, label)
        h = 1e-5
        worst = 0.0
        probes = 0
        probe_gen = RngHandle(231).generator()
        flat = [(p.reshape(-1), g.reshape(-1)) for p, g in zip(model.parameters(), grads)]
        while probes < 100:
            pi = int(probe_gen.integers(len(flat)))
            p, g = flat[pi]
            j = int(probe_gen.integers(p.size))
            orig = p[j]
            p[j] = orig + h
            up = loss_mse(_forward_batch(model, x[None, :])[0], label[None, :])
            p[j] = orig - h
            down = loss_mse(_forward_batch(model, x[None, :])[0], label[None, :])
            p[j] = orig
            fd = (up - down) / (2 * h)
            rel = abs(g[j] - fd) / max(abs(fd), abs(g[j]), 1e-8)
            assert rel < 1e-4
            worst = max(worst, rel)
            probes += 1
        _report("gradient check", f"100 probes, worst relative error {worst:.2e}")

    def test_5_desk_scale_training(self, desk_dataset, trained_model, desk_grid):
        test_x, test_y = desk_dataset.arrays("test")
        dx = desk_grid.bin_width
        sq_errs, ks_stats = [], []
        for xi, yi in zip(test_x, test_y):
            flux = DiscretizedFunction(desk_grid, xi)
            pred = predict_pdf(trained_model, flux).values
            sq_errs.append(np.mean((pred - yi) ** 2))
            ks_stats.append(np.max(np.abs(np.cumsum(pred - yi) * dx)))
        rmse = float(np.sqrt(np.mean(sq_errs)))
        ks_median = float(np.median(ks_stats))
        assert rmse <= 0.05
        assert ks_median <= 0.06
        _report(
            "desk-scale training",
            f"{DESK_EPOCHS} epochs on {test_x.shape[0]} held-out pairs: "
            f"RMSE {rmse:.4f} (<= 0.05), median KS {ks_median:.4f} (<= 0.06)",
        )

    def test_6_end_to_end_depth(self, trained_model, default_sys, desk_grid):
        # 8x8 constant-depth scene; per-pixel depth averaged over 20
        # independent runs per engine, compared as a bias against the
        # oracle's own run-to-run depth spread.
        scene = SceneSpec(
            depths=np.full((8, 8), 4.0),
            reflectivity=1.0,
            b_level=1.0,
            pulse_energy=2.0,
        )
        n_runs = 20
        n_pix = scene.height * scene.width
        oracle_depths = np.empty((n_runs, n_pix))
        fast_depths = np.empty((n_runs, n_pix))
        for idx in range(n_pix):
            row, col = divmod(idx, scene.width)
            env = scene.env_at(row, col)
            for run in range(n_runs):
                o = simulate_registrations(
                    default_sys, env, desk_grid, RngHandle(240, run).child(idx)
                ).rel_times
                oracle_depths[run, idx] = estimate_depth(o)
                f = fast_simulate(
                    default_sys, env, trained_model, desk_grid, RngHandle(241, run).child(idx)
                )
                fast_depths[run, idx] = estimate_depth(f)
        bias = np.abs(fast_depths.mean(axis=0) - oracle_depths.mean(axis=0))
        oracle_std = oracle_depths.std(axis=0, ddof=1)
        mean_bias = float(bias.mean())
        assert mean_bias <= 0.02 * default_sys.t_r
        assert mean_bias <= float(oracle_std.mean())
        _report(
            "end-to-end depth",
            f"mean |depth bias| {mean_bias:.4f} <= 2% of t_r ({0.02 * default_sys.t_r:.2f}) "
            f"and <= oracle run-to-run std ({oracle_std.mean():.4f})",
        )

    def test_7_speedup(self, trained_model, default_sys, desk_grid):
        env = EnvParams(4.0, 20.0, 5.0)  # high flux, outside training range
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = run_benchmark(
                default_sys, env, [100, 1000, 10_000], 5, trained_model, desk_grid, RngHandle(250)
            )
        medians = {(row.engine, row.n_cycles): row.seconds for row in rows}
        speedup = medians["oracle", 10_000] / medians["fast", 10_000]
        oracle_growth = medians["oracle", 10_000] / medians["oracle", 100]
        fast_growth = medians["fast", 10_000] / medians["fast", 100]
        assert speedup >= 10.0
        assert oracle_growth >= 5.0
        assert fast_growth <= 2.0
        _report(
            "speedup",
            f"fast {speedup:.1f}x faster at N=1e4; oracle grows {oracle_growth:.1f}x, "
            f"fast grows {fast_growth:.2f}x from N=1e2 to N=1e4",
        )

    def test_8_determinism(self, tiny_setup, tmp_path, capsys):
        # Every subcommand, run twice with the same seed, must reproduce its
        # data outputs byte for byte. Wall-clock columns and files are the
        # only permitted difference, so they are stripped before comparing.
        from splsim import ramp_scene, write_scene
        from splsim.cli import main

        model = str(tiny_setup["model_path"])
        dataset = str(tiny_setup["dataset_path"])
        scene_path = tmp_path / "scene.txt"
        write_scene(ramp_scene(3, 2), scene_path)

        def strip_times(text):
            rows = [line.split(",") for line in text.strip().splitlines()]
            return [
                [c for i, c in enumerate(row) if "seconds" not in rows[0][i]]
                for row in rows
            ]

        checked = []
        for rep in ("a", "b"):
            root = tmp_path / rep
            root.mkdir()
            assert main([
                "gen-dataset", "--n", "3", "--bins", "64",
                "--realizations", "2", "--n-cycles", "100", "--seed", "9",
                "--out", str(root / "d.splds"),
            ]) == 0
            assert main([
                "train", "--dataset", dataset, "--epochs", "2",
                "--batch-size", "8", "--seed", "9", "--out", str(root / "m.splae"),
            ]) == 0
            assert main([
                "simulate", "--engine", "oracle", "--n-cycles", "100",
                "--bins", "64", "--seed", "9", "--out", str(root / "pix"),
            ]) == 0
            assert main([
                "simulate", "--engine", "fast", "--model", model,
                "--scene", str(scene_path), "--n-cycles", "100", "--seed", "9",
                "--out", str(root / "img"),
            ]) == 0
            capsys.readouterr()
            assert main([
                "estimate-count", "--n-cycles", "100", "--bins", "64",
                "--realizations", "3", "--seed", "9",
            ]) == 0
            est_out = capsys.readouterr().out
            assert main([
                "benchmark", "--model", model, "--cycles", "50,100",
                "--reps", "3", "--seed", "9", "--out", str(root / "bench.csv"),
            ]) == 0
            assert main([
                "plot-data", "--kind", "count-hist", "--realizations", "4",
                "--n-cycles", "100", "--bins", "64", "--seed", "9",
                "--out", str(root / "hist.csv"),
            ]) == 0
            assert main([
                "plot-data", "--kind", "pdf-compare", "--model", model,
                "--realizations", "3", "--n-cycles", "100", "--seed", "9",
                "--out", str(root / "pdfs.csv"),
            ]) == 0
            assert main([
                "depth-demo", "--model", model, "--width", "3", "--height", "2",
                "--n-cycles", "100", "--seed", "9", "--out", str(root / "demo"),
            ]) == 0
            checked.append({
                "dataset": (root / "d.splds").read_bytes(),
                "model": (root / "m.splae").read_bytes(),
                "pix_csv": (root / "pix" / "timestamps.csv").read_bytes(),
                "pix_bin": (root / "pix" / "timestamps.bin").read_bytes(),
                "img_depth": (root / "img" / "depth_fast.csv").read_bytes(),
                "estimate": est_out,
                "bench": strip_times((root / "bench.csv").read_text()),
                "hist": (root / "hist.csv").read_bytes(),
                "pdfs": (root / "pdfs.csv").read_bytes(),
                "demo_scene": (root / "demo" / "scene.txt").read_bytes(),
                "demo_true": (root / "demo" / "depth_true.csv").read_bytes(),
                "demo_oracle": (root / "demo" / "depth_oracle.csv").read_bytes(),
                "demo_fast": (root / "demo" / "depth_fast.csv").read_bytes(),
            })
        a, b = checked
        for key in a:
            assert a[key] == b[key], f"{key} differs between identical runs"
        _report(
            "determinism",
            f"{len(a)} outputs across 9 subcommand invocations byte-identical "
            "(wall-clock columns excluded)",
        )
