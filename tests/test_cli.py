import shlex
from pathlib import Path

import numpy as np
import pytest

from splsim import load_model, read_dataset
from splsim.arrival import read_times_binary, read_times_csv
from splsim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, build_parser, main
from splsim.config import load_config, merge_settings
from splsim.core import ParameterError

from conftest import BAD_INPUT_SCALES, HOSTILE_MODEL_DIMS, write_model_file

README = Path(__file__).resolve().parents[1] / "README.md"

# Flags a subcommand does not read, so its parser refuses them.
REMOVED_FLAGS = (
    ("gen-dataset", ("--tau", "4")),
    ("gen-dataset", ("--s-level", "2")),
    ("gen-dataset", ("--b-level", "1")),
    ("gen-dataset", ("--dataset-bins", "64")),
    ("gen-dataset", ("--full-scale",)),
    ("train", ("--bins", "64")),
    ("train", ("--t-r", "10")),
    ("train", ("--t-d", "8")),
    ("train", ("--sigma-t", "0.1")),
    ("train", ("--tau", "4")),
    ("train", ("--s-level", "2")),
    ("train", ("--b-level", "1")),
    ("train", ("--n-cycles", "100")),
    ("train", ("--full-scale",)),
    ("estimate-count", ("--out", "x.csv")),
    ("benchmark", ("--bins", "64")),
    ("benchmark", ("--n-cycles", "100")),
    ("depth-demo", ("--tau", "4")),
    ("depth-demo", ("--s-level", "2")),
    ("depth-demo", ("--bins", "64")),
)


def run(*argv):
    return main([str(a) for a in argv])


class TestConfig:
    def test_load_and_merge(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("# comment\n\ntau = 3.0\nn_bins=128\n")
        values = load_config(cfg)
        assert values == {"tau": 3.0, "n_bins": 128}
        merged = merge_settings(cfg, {"tau": None, "seed": 9})
        assert merged["tau"] == 3.0
        assert merged["n_bins"] == 128
        assert merged["seed"] == 9
        assert merged["t_r"] == 10.0

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("nope=1\n")
        with pytest.raises(ParameterError):
            load_config(cfg)

    def test_bad_value(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("tau=abc\n")
        with pytest.raises(ParameterError):
            load_config(cfg)

    def test_override_beats_config(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("seed=1\n")
        assert merge_settings(cfg, {"seed": 2})["seed"] == 2


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == EXIT_USAGE

    def test_missing_out_is_validation_error(self, tmp_path):
        assert run("gen-dataset", "--n", 2) == EXIT_VALIDATION

    def test_fast_without_model(self, tmp_path):
        code = run("simulate", "--engine", "fast", "--out", tmp_path / "o")
        assert code == EXIT_VALIDATION

    def test_missing_model_file_is_runtime_error(self, tmp_path):
        code = run(
            "simulate", "--engine", "fast",
            "--model", tmp_path / "does-not-exist.splae",
            "--out", tmp_path / "o",
        )
        assert code == EXIT_RUNTIME

    def test_corrupt_dataset_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.splds"
        bad.write_bytes(b"garbage")
        code = run("train", "--dataset", bad, "--out", tmp_path / "m.splae")
        assert code == EXIT_RUNTIME

    def test_dataset_header_bit_flip_is_runtime_error(self, tiny_setup, tmp_path):
        bad = tmp_path / "flipped.splds"
        raw = bytearray(tiny_setup["dataset_path"].read_bytes())
        raw[21] ^= 0x10  # exponent byte of t_d
        bad.write_bytes(bytes(raw))
        code = run("train", "--dataset", bad, "--out", tmp_path / "m.splae")
        assert code == EXIT_RUNTIME

    @pytest.mark.parametrize("dims", HOSTILE_MODEL_DIMS)
    def test_hostile_model_is_runtime_error(self, tmp_path, dims):
        bad = tmp_path / "hostile.splae"
        write_model_file(bad, dims)
        code = run("simulate", "--engine", "fast", "--model", bad, "--out", tmp_path / "o")
        assert code == EXIT_RUNTIME

    def test_malformed_scene_is_runtime_error(self, tmp_path):
        bad = tmp_path / "scene.txt"
        bad.write_text("-2 -2 0.5 1.0\n" + " ".join(["1"] * 8) + "\n")
        code = run("simulate", "--engine", "oracle", "--scene", bad, "--out", tmp_path / "o")
        assert code == EXIT_RUNTIME

    def test_non_utf8_scene_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xb3 1 0.5 1.0\n4 1\n")
        code = run("simulate", "--engine", "oracle", "--scene", bad, "--bins", 64, "--n-cycles", 50,
                   "--out", tmp_path / "o")
        assert code == EXIT_RUNTIME

    def test_non_finite_parameter_is_validation_error(self, tmp_path, capsys):
        code = run("simulate", "--engine", "oracle", "--sigma-t", "nan", "--out", tmp_path / "o")
        assert code == EXIT_VALIDATION
        assert "sigma_t" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", BAD_INPUT_SCALES[:3])
    def test_bad_model_input_scale_is_runtime_error(self, tmp_path, scale):
        bad = tmp_path / "scaled.splae"
        write_model_file(bad, [16, 8, 16], input_scale=scale)
        code = run("simulate", "--engine", "fast", "--model", bad, "--out", tmp_path / "o")
        assert code == EXIT_RUNTIME

    @pytest.mark.parametrize("command", ["simulate", "estimate-count", "plot-data"])
    def test_bins_unlike_model_is_validation_error(self, tiny_setup, tmp_path, command):
        extra = {
            "simulate": ("--engine", "fast", "--out", tmp_path / "o"),
            "estimate-count": (),
            "plot-data": ("--kind", "pdf-compare", "--realizations", 2, "--out", tmp_path / "p.csv"),
        }[command]
        code = run(command, "--model", tiny_setup["model_path"], "--bins", 32, "--n-cycles", 50, *extra)
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "command, flag", REMOVED_FLAGS, ids=[f"{command} {flag[0]}" for command, flag in REMOVED_FLAGS]
    )
    def test_removed_flag_is_usage_error(self, tiny_setup, tmp_path, command, flag):
        model = tiny_setup["model_path"]
        valid = {
            "gen-dataset": ("--n", 2, "--realizations", 1, "--n-cycles", 50, "--out", tmp_path / "d.splds"),
            "train": ("--dataset", tiny_setup["dataset_path"], "--epochs", 1, "--out", tmp_path / "m.splae"),
            "estimate-count": ("--model", model, "--n-cycles", 50),
            "benchmark": ("--model", model, "--cycles", 10, "--reps", 3, "--out", tmp_path / "b.csv"),
            "depth-demo": (
                "--model", model, "--width", 1, "--height", 1, "--n-cycles", 50, "--out", tmp_path / "demo",
            ),
        }[command]
        with pytest.raises(SystemExit) as info:
            run(command, *valid, *flag)
        assert info.value.code == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--tau", "--s-level", "--b-level"])
    def test_env_flag_with_scene_is_validation_error(self, tmp_path, capsys, flag):
        from splsim import ramp_scene, write_scene

        scene_path = tmp_path / "scene.txt"
        write_scene(ramp_scene(2, 1), scene_path)
        code = run(
            "simulate", "--engine", "oracle", "--scene", scene_path, flag, 3,
            "--bins", 64, "--n-cycles", 50, "--out", tmp_path / "o",
        )
        assert code == EXIT_VALIDATION
        assert flag in capsys.readouterr().err

    def test_model_with_count_hist_is_validation_error(self, tmp_path, capsys):
        code = run(
            "plot-data", "--kind", "count-hist", "--model", tmp_path / "missing.splae",
            "--realizations", 2, "--n-cycles", 50, "--bins", 32, "--out", tmp_path / "c.csv",
        )
        assert code == EXIT_VALIDATION
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lr, expected",
        [("nan", EXIT_VALIDATION), ("-1", EXIT_VALIDATION), ("1e300", EXIT_RUNTIME)],
        ids=["nan", "negative", "diverges"],
    )
    def test_bad_learning_rate(self, tiny_setup, tmp_path, lr, expected):
        code = run(
            "train", "--dataset", tiny_setup["dataset_path"], "--epochs", 2, "--batch-size", 8,
            "--lr", lr, "--out", tmp_path / "m.splae",
        )
        assert code == expected

    def test_bad_cycles_list(self, tiny_setup, tmp_path):
        code = run(
            "benchmark", "--model", tiny_setup["model_path"],
            "--cycles", "10,abc", "--out", tmp_path / "b.csv",
        )
        assert code == EXIT_VALIDATION


class TestGenAndTrain:
    def test_gen_dataset_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "small.splds"
        code = run(
            "gen-dataset", "--n", 4, "--bins", 64, "--realizations", 2,
            "--n-cycles", 100, "--seed", 5, "--out", out,
        )
        assert code == EXIT_OK
        assert "4 pairs" in capsys.readouterr().out
        ds = read_dataset(out)
        assert ds.flux.shape == ds.label.shape == (4, 64)
        assert ds.grid.n_bins == 64

    def test_gen_dataset_bins_from_config(self, tmp_path):
        config = tmp_path / "c.txt"
        config.write_text("n_bins=64\n")
        common = ("gen-dataset", "--config", config, "--n", 3, "--realizations", 2, "--n-cycles", 100)
        assert run(*common, "--out", tmp_path / "config.splds") == EXIT_OK
        assert read_dataset(tmp_path / "config.splds").grid.n_bins == 64
        assert run(*common, "--bins", 32, "--out", tmp_path / "flag.splds") == EXIT_OK
        assert read_dataset(tmp_path / "flag.splds").grid.n_bins == 32

    def test_train_without_held_out_split(self, tmp_path, capsys):
        data = tmp_path / "all-train.splds"
        gen = ("gen-dataset", "--n", 3, "--bins", 64, "--realizations", 2, "--n-cycles", 100)
        assert run(*gen, "--seed", 0, "--out", data) == EXIT_OK
        assert read_dataset(data).arrays("test")[0].shape[0] == 0
        code = run("train", "--dataset", data, "--epochs", 2, "--batch-size", 2, "--out", tmp_path / "m.splae")
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "no held-out split" in printed and "nan" not in printed

    def test_train_writes_model(self, tiny_setup, tmp_path, capsys):
        out = tmp_path / "model.splae"
        code = run(
            "train", "--dataset", tiny_setup["dataset_path"],
            "--epochs", 2, "--batch-size", 8, "--out", out,
        )
        assert code == EXIT_OK
        model = load_model(out)
        assert model.n_bins == 64
        assert "2 epochs" in capsys.readouterr().out


class TestSimulate:
    def test_single_pixel_oracle(self, tmp_path):
        out = tmp_path / "pixel"
        code = run(
            "simulate", "--engine", "oracle", "--n-cycles", 100,
            "--bins", 64, "--seed", 3, "--out", out,
        )
        assert code == EXIT_OK
        csv_batch = read_times_csv(out / "timestamps.csv")
        bin_batch = read_times_binary(out / "timestamps.bin")
        assert csv_batch.count == bin_batch.count > 0
        assert np.array_equal(csv_batch.times, bin_batch.times)

    def test_single_pixel_fast(self, tiny_setup, tmp_path):
        out = tmp_path / "pixel"
        code = run(
            "simulate", "--engine", "fast", "--model", tiny_setup["model_path"],
            "--n-cycles", 200, "--seed", 3, "--out", out,
        )
        assert code == EXIT_OK
        assert (out / "timestamps.csv").exists()
        assert (out / "timestamps.bin").exists()

    def test_deterministic_across_runs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                run(
                    "simulate", "--engine", "oracle", "--n-cycles", 100,
                    "--bins", 64, "--seed", 7, "--out", out,
                )
                == EXIT_OK
            )
            outs.append((out / "timestamps.bin").read_bytes())
        assert outs[0] == outs[1]

    def test_scene_mode(self, tiny_setup, tmp_path):
        from splsim import ramp_scene, write_scene

        scene_path = tmp_path / "scene.txt"
        write_scene(ramp_scene(3, 2), scene_path)
        out = tmp_path / "img"
        code = run(
            "simulate", "--engine", "fast", "--model", tiny_setup["model_path"],
            "--scene", scene_path, "--n-cycles", 200, "--seed", 1, "--out", out,
        )
        assert code == EXIT_OK
        depth = np.loadtxt(out / "depth_fast.csv", delimiter=",")
        assert depth.shape == (2, 3)
        runtime = (out / "runtime_fast.csv").read_text().splitlines()
        assert runtime[0] == "engine,total_seconds,mean_pixel_seconds"
        assert runtime[1].startswith("fast,")


class TestEstimateCount:
    def test_oracle_path(self, capsys):
        code = run(
            "estimate-count", "--n-cycles", 200, "--bins", 64,
            "--realizations", 3, "--seed", 2,
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mean_r,std_r,e_loss"
        mean_r, std_r, e_loss = (float(v) for v in lines[1].split(","))
        assert mean_r > 0 and std_r > 0 and e_loss > 0

    def test_model_path(self, tiny_setup, capsys):
        code = run(
            "estimate-count", "--model", tiny_setup["model_path"], "--n-cycles", 200
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines[1].split(",")) == 3


class TestBenchmarkAndPlots:
    def test_benchmark_csv(self, tiny_setup, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            "benchmark", "--model", tiny_setup["model_path"],
            "--cycles", "50,100", "--reps", 3, "--out", out,
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "engine,n_cycles,median_pixel_seconds,mean_registered_photons"
        assert len(lines) == 5  # 2 cycle counts x 2 engines

    def test_benchmark_ignores_config_n_cycles(self, tiny_setup, tmp_path):
        config = tmp_path / "c.txt"
        config.write_text("n_cycles=0\n")
        code = run(
            "benchmark", "--config", config, "--model", tiny_setup["model_path"],
            "--cycles", 10, "--reps", 3, "--out", tmp_path / "b.csv",
        )
        assert code == EXIT_OK

    def test_plot_count_hist(self, tmp_path):
        out = tmp_path / "hist.csv"
        code = run(
            "plot-data", "--kind", "count-hist", "--realizations", 5,
            "--n-cycles", 100, "--bins", 64, "--out", out,
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "realization,arrivals,registrations"
        assert len(lines) == 6

    def test_plot_pdf_compare(self, tiny_setup, tmp_path):
        out = tmp_path / "pdfs.csv"
        code = run(
            "plot-data", "--kind", "pdf-compare", "--model", tiny_setup["model_path"],
            "--realizations", 3, "--n-cycles", 200, "--out", out,
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "bin_center,oracle_density,predicted_density"
        assert len(lines) == 65

    def test_plot_pdf_compare_requires_model(self, tmp_path):
        code = run("plot-data", "--kind", "pdf-compare", "--out", tmp_path / "x.csv")
        assert code == EXIT_VALIDATION


class TestDepthDemo:
    def test_outputs(self, tiny_setup, tmp_path, capsys):
        out = tmp_path / "demo"
        code = run(
            "depth-demo", "--model", tiny_setup["model_path"],
            "--width", 3, "--height", 2, "--n-cycles", 100, "--seed", 4, "--out", out,
        )
        assert code == EXIT_OK
        for name in (
            "scene.txt", "depth_true.csv", "depth_oracle.csv", "depth_fast.csv",
            "runtime.csv",
        ):
            assert (out / name).exists()
        true_depth = np.loadtxt(out / "depth_true.csv", delimiter=",")
        assert true_depth.shape == (2, 3)
        printed = capsys.readouterr().out
        assert "oracle:" in printed and "fast:" in printed


class TestReadme:
    def test_cli_commands_parse(self):
        text = README.read_text()
        block = text[text.index("## CLI"):text.index("## Layout")]
        commands = [line for line in block.splitlines() if line.startswith("splsim ")]
        assert len(commands) >= 10
        parser = build_parser()
        for line in commands:
            parser.parse_args(shlex.split(line, comments=True)[1:])
