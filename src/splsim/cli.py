"""Unified command-line entry point.

Subcommands: gen-dataset, train, simulate, estimate-count, benchmark,
plot-data, depth-demo. Exit codes: 0 ok, 2 usage, 3 validation error,
4 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import sys as _sys
from pathlib import Path

from .arrival import RngHandle, write_times_binary, write_times_csv
from .bench import run_benchmark
from .config import DEFAULTS, SETTINGS, merge_settings
from .core import (
    DegenerateDistributionError,
    EnvParams,
    FormatError,
    NoPhotonError,
    ParameterError,
    SystemParams,
    TimeGrid,
    build_flux,
)
from .count_model import estimate_count
from .dataset import generate_dataset, read_dataset, write_dataset
from .fast_sim import (
    ENGINES,
    fast_simulate,
    ramp_scene,
    read_scene,
    simulate_image,
    write_depth_csv,
    write_scene,
)
from .oracle import empirical_pdf, registration_counts, simulate_registrations
from .pdf_net import (
    AEModel,
    TrainConfig,
    TrainingDivergedError,
    build_model,
    load_model,
    predict_pdf,
    save_model,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

DATASET_BINS = 256  # gen-dataset's grid resolution unless a flag or the config sets n_bins

SYSTEM_KEYS = ("t_r", "t_d", "sigma_t", "n_cycles")


def _add_settings(p: argparse.ArgumentParser, *keys: str) -> None:
    """--config plus one flag for each setting the command reads."""
    p.add_argument("--config", type=Path, help="key=value settings file (unread keys are ignored)")
    for key in keys:
        setting = SETTINGS[key]
        p.add_argument(setting.flag, dest=key, type=setting.type, help=setting.help)


def _settings(args, defaults: dict = DEFAULTS) -> dict:
    overrides = {key: getattr(args, key, None) for key in SETTINGS}
    return merge_settings(args.config, overrides, defaults)


def _sys_params(s: dict) -> SystemParams:
    return SystemParams(
        t_r=s["t_r"], t_d=s["t_d"], sigma_t=s["sigma_t"], n_cycles=s["n_cycles"]
    )


def _env_params(s: dict) -> EnvParams:
    return EnvParams(tau=s["tau"], s_level=s["s_level"], b_level=s["b_level"])


def _grid(args, s: dict, model: "AEModel | None" = None) -> TimeGrid:
    """The run's time grid: K is the model's when a model is given, else n_bins.

    A --bins flag that disagrees with the model's K is a validation error.
    """
    if model is None:
        return TimeGrid(n_bins=s["n_bins"], t_r=s["t_r"])
    bins = getattr(args, "n_bins", None)
    if bins is not None and bins != model.n_bins:
        raise ParameterError(f"--bins {bins} disagrees with the model's {model.n_bins} bins")
    return TimeGrid(n_bins=model.n_bins, t_r=s["t_r"])


def _require_out(args) -> Path:
    if args.out is None:
        raise ParameterError("--out is required for this subcommand")
    return args.out


def _write_table(path: Path, header: "list[str]", rows) -> None:
    """Every CSV table the CLI writes: the csv module's defaults, so CRLF line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _run_scene(scene, engines, sys_p, grid, rng, model, out: Path, runtime_name: str) -> list:
    """Write each engine's depth_<engine>.csv, then one runtime table; returns the table's rows as tuples."""
    runtimes = []
    for engine in engines:
        result = simulate_image(scene, sys_p, grid, engine, rng, model=model)
        write_depth_csv(result.depth_estimate, out / f"depth_{engine}.csv")
        runtimes.append((engine, result.total_seconds, result.mean_pixel_seconds))
    _write_table(
        out / runtime_name,
        ["engine", "total_seconds", "mean_pixel_seconds"],
        ([engine, f"{total:.9f}", f"{per_pixel:.9f}"] for engine, total, per_pixel in runtimes),
    )
    return runtimes


def cmd_gen_dataset(args) -> int:
    s = _settings(args, {**DEFAULTS, "n_bins": DATASET_BINS})
    out = _require_out(args)
    sys_p = _sys_params(s)
    grid = _grid(args, s)
    ds = generate_dataset(
        sys_p, grid, n_samples=args.n, n_realizations=args.realizations, seed=s["seed"]
    )
    write_dataset(ds, out)
    print(f"wrote {args.n} pairs at K={grid.n_bins} to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    s = _settings(args)
    out = _require_out(args)
    ds = read_dataset(args.dataset)
    train_x, train_y = ds.arrays("train")
    test_x, test_y = ds.arrays("test")
    cfg = TrainConfig(
        batch_size=args.batch_size,
        epochs=args.epochs,
        learning_rate=args.lr,
        seed=s["seed"],
    )
    model = build_model(ds.grid.n_bins, input_scale=ds.grid.bin_width, seed=s["seed"])
    result = train(model, train_x, train_y, cfg, val_x=test_x, val_y=test_y)
    save_model(model, out)
    held_out = (
        f"held-out loss {result.val_loss[-1][1]:.6g}" if result.val_loss else "no held-out split"
    )
    print(
        f"trained {args.epochs} epochs; final train loss {result.train_loss[-1]:.6g}, "
        f"{held_out}; model written to {out}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    s = _settings(args)
    out = _require_out(args)
    unread = [SETTINGS[key].flag for key in ("tau", "s_level", "b_level") if getattr(args, key) is not None]
    if args.scene is not None and unread:
        raise ParameterError(f"{' '.join(unread)}: not read with --scene, which sets each pixel's environment")
    out.mkdir(parents=True, exist_ok=True)
    sys_p = _sys_params(s)
    rng = RngHandle(s["seed"])
    model = load_model(args.model) if args.model else None
    if args.engine == "fast" and model is None:
        raise ParameterError("--model is required with --engine fast")
    grid = _grid(args, s, model)
    if args.scene is not None:
        scene = read_scene(args.scene)
        _run_scene(scene, [args.engine], sys_p, grid, rng, model, out, f"runtime_{args.engine}.csv")
        print(f"simulated {scene.height}x{scene.width} scene with the {args.engine} engine")
    else:
        env = _env_params(s)
        if args.engine == "oracle":
            batch = simulate_registrations(sys_p, env, grid, rng).rel_times
        else:
            batch = fast_simulate(sys_p, env, model, grid, rng)
        write_times_csv(batch, out / "timestamps.csv")
        write_times_binary(batch, out / "timestamps.bin")
        print(f"wrote {batch.count} timestamps to {out}")
    return EXIT_OK


def cmd_estimate_count(args) -> int:
    s = _settings(args)
    sys_p = _sys_params(s)
    env = _env_params(s)
    model = load_model(args.model) if args.model else None
    grid = _grid(args, s, model)
    if model is not None:
        f_r = predict_pdf(model, build_flux(sys_p, env, grid))
    else:
        f_r = empirical_pdf(sys_p, env, grid, args.realizations, RngHandle(s["seed"]))
    est = estimate_count(sys_p, env, f_r)
    print("mean_r,std_r,e_loss")
    print(f"{est.mean_r:.9g},{est.std_r:.9g},{est.e_loss:.9g}")
    return EXIT_OK


def _parse_cycles(spec: str) -> "list[int]":
    try:
        cycles = [int(tok) for tok in spec.split(",") if tok]
    except ValueError as exc:
        raise ParameterError(f"bad --cycles list: {spec!r}") from exc
    if not cycles or any(c < 1 for c in cycles):
        raise ParameterError(f"--cycles must be positive integers, got {spec!r}")
    return cycles


def cmd_benchmark(args) -> int:
    s = _settings(args)
    out = _require_out(args)
    cycles = _parse_cycles(args.cycles)
    sys_p = _sys_params({**s, "n_cycles": cycles[0]})  # --cycles sets N, not n_cycles
    model = load_model(args.model)
    grid = _grid(args, s, model)
    rows = run_benchmark(sys_p, _env_params(s), cycles, args.reps, model, grid, RngHandle(s["seed"]))
    _write_table(
        out,
        ["engine", "n_cycles", "median_pixel_seconds", "mean_registered_photons"],
        ([r.engine, r.n_cycles, f"{r.seconds:.9f}", f"{r.photons:.3f}"] for r in rows),
    )
    print(f"benchmark written to {out}")
    return EXIT_OK


def cmd_plot_data(args) -> int:
    s = _settings(args)
    out = _require_out(args)
    sys_p = _sys_params(s)
    if args.kind == "count-hist":
        if args.model is not None:
            raise ParameterError("--model is read only by --kind pdf-compare")
        m_a, m_r = registration_counts(
            sys_p, _env_params(s), _grid(args, s), args.realizations, RngHandle(s["seed"])
        )
        _write_table(
            out, ["realization", "arrivals", "registrations"],
            zip(range(len(m_a)), m_a.tolist(), m_r.tolist()),
        )
    else:  # pdf-compare
        if not args.model:
            raise ParameterError("--model is required for pdf-compare")
        model = load_model(args.model)
        grid = _grid(args, s, model)
        env = _env_params(s)
        oracle_pdf = empirical_pdf(sys_p, env, grid, args.realizations, RngHandle(s["seed"]))
        predicted = predict_pdf(model, build_flux(sys_p, env, grid))
        _write_table(
            out,
            ["bin_center", "oracle_density", "predicted_density"],
            ([f"{v:.17g}" for v in row] for row in zip(grid.centers(), oracle_pdf.values, predicted.values)),
        )
    print(f"{args.kind} data written to {out}")
    return EXIT_OK


def cmd_depth_demo(args) -> int:
    s = _settings(args)
    out = _require_out(args)
    out.mkdir(parents=True, exist_ok=True)
    sys_p = _sys_params(s)
    model = load_model(args.model)
    grid = _grid(args, s, model)
    scene = ramp_scene(
        args.width, args.height, b_level=s["b_level"], pulse_energy=args.pulse_energy
    )
    write_scene(scene, out / "scene.txt")
    write_depth_csv(scene.depths, out / "depth_true.csv")
    runtimes = _run_scene(scene, ENGINES, sys_p, grid, RngHandle(s["seed"]), model, out, "runtime.csv")
    for engine, total, per_pixel in runtimes:
        print(f"{engine}: {total:.3f}s total, {per_pixel * 1e3:.3f}ms per pixel")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splsim",
        description="Single-photon LiDAR timestamp simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="generate training pairs")
    _add_settings(p, *SYSTEM_KEYS, "n_bins", "seed")
    p.add_argument("--out", type=Path, help="output dataset file")
    p.add_argument("--n", type=int, default=2000, help="number of pairs (desk scale)")
    p.add_argument("--realizations", type=int, default=20, help="realizations averaged per label")
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("train", help="train the PDF mapper")
    _add_settings(p, "seed")
    p.add_argument("--out", type=Path, help="output model file")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--lr", type=float, default=1e-3)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="simulate timestamps or a scene")
    _add_settings(p, *SETTINGS)
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument("--engine", choices=("oracle", "fast"), required=True)
    p.add_argument("--scene", type=Path, help="scene file; omit for a single pixel")
    p.add_argument("--model", type=Path, help="trained model (required for fast engine)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate-count", help="registration count estimate")
    _add_settings(p, *SETTINGS)
    p.add_argument("--model", type=Path, help="use the network-predicted PDF")
    p.add_argument("--realizations", type=int, default=20, help="oracle realizations for f_r")
    p.set_defaults(func=cmd_estimate_count)

    p = sub.add_parser("benchmark", help="runtime-vs-cycles comparison")
    _add_settings(p, "t_r", "t_d", "sigma_t", "tau", "s_level", "b_level", "seed")
    p.add_argument("--out", type=Path, help="output CSV file")
    p.add_argument("--cycles", default="100,1000,10000", help="comma-separated cycle counts")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--model", type=Path, required=True)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("plot-data", help="emit figure data as CSV")
    _add_settings(p, *SETTINGS)
    p.add_argument("--out", type=Path, help="output CSV file")
    p.add_argument("--kind", choices=("count-hist", "pdf-compare"), required=True)
    p.add_argument("--realizations", type=int, default=5000)
    p.add_argument("--model", type=Path)
    p.set_defaults(func=cmd_plot_data)

    p = sub.add_parser("depth-demo", help="two-engine depth map demo")
    _add_settings(p, *SYSTEM_KEYS, "b_level", "seed")
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument("--width", type=int, default=24)
    p.add_argument("--height", type=int, default=16)
    p.add_argument("--pulse-energy", type=float, default=2.0)
    p.add_argument("--model", type=Path, required=True)
    p.set_defaults(func=cmd_depth_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"splsim: invalid parameters: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    except (DegenerateDistributionError, NoPhotonError, FormatError, TrainingDivergedError, OSError) as exc:
        print(f"splsim: {exc}", file=_sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    _sys.exit(main())
