"""The benchmark workloads: inputs made from a seed, one timed pass, its checks.

Every call into splsim goes through a module attribute
(``fast_sim.simulate_image``, ``dataset.write_dataset``, ...) so that the
traced run sees it. Checks use statistical tolerances only, so a correct
change that lays out the random streams differently still passes.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from splsim import SystemParams, TimeGrid
from splsim import count_model, dataset, fast_sim, oracle, pdf_net
from splsim.arrival import RngHandle
from splsim.core import DiscretizedFunction

N_BINS = 256
TAU_RANGE = (2.5, 5.5)
REFLECTIVITY_RANGE = (0.25, 1.5)  # S = 0.5..3 at pulse energy 2, inside the trained S range
B_LEVEL = 1.0
PULSE_ENERGY = 2.0

DEPTH_BIAS_TOL = 0.02  # share of t_r, as in acceptance test 6
COUNT_TOL = 0.05       # relative, as in acceptance test 3

WORK_ROOT = Path(__file__).resolve().parent / ".work"  # scratch files, inside the checkout


@dataclass
class Pass:
    """One timed unit of work: its output and how many items it carried."""

    items: int
    data: object


def _seeds(seed: int, n: int) -> "list[int]":
    """Independent non-negative integer seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint32)]


def make_scene(gen: np.random.Generator, width: int, height: int) -> fast_sim.SceneSpec:
    """Left-to-right depth ramp with per-pixel reflectivity drawn from ``gen``."""
    depths = fast_sim.ramp_scene(width, height, tau_range=TAU_RANGE).depths
    refl = gen.uniform(*REFLECTIVITY_RANGE, size=(height, width))
    return fast_sim.SceneSpec(depths=depths, reflectivity=refl, b_level=B_LEVEL, pulse_energy=PULSE_ENERGY)


def _image_digest(result) -> str:
    h = hashlib.sha256()
    h.update(np.array([b.count for b in result.batches], dtype="<i8").tobytes())
    for b in result.batches:
        h.update(b.times.astype("<f8").tobytes())
    return h.hexdigest()


def _timestamps_in_period(result, t_r: float) -> "list[str]":
    # Pixel by pixel: a check that copied the whole image would set the peak memory.
    filled = [b.times for b in result.batches if b.count]
    lo = min((t.min() for t in filled), default=0.0)
    hi = max((t.max() for t in filled), default=0.0)
    if not (lo >= 0.0 and hi < t_r):
        return [f"timestamps outside [0, {t_r}): min {lo}, max {hi}"]
    return []


class Workload:
    """Interface the runner drives; ``sizes`` maps a size name to its parameters."""

    name = ""
    item = ""
    sizes: "dict[str, dict]" = {}

    def __init__(self, size: str = "full"):
        self.size = dict(self.sizes[size])

    def setup(self, seed: int):
        """Build the inputs; this is what ``setup_s`` times."""
        raise NotImplementedError

    def prepare(self, state) -> None:
        """Untimed reference work the checks need."""

    def run(self, state, index: int) -> Pass:
        raise NotImplementedError

    def check(self, state, out: Pass) -> "list[str]":
        """Failure messages for one pass; empty when it is correct."""
        raise NotImplementedError

    def digest(self, out: Pass) -> str:
        raise NotImplementedError

    def close(self, state) -> None:
        """Release what ``setup`` created outside the process."""


class ImageFast(Workload):
    """The learned engine on a 64x64 scene at N = 10^3, checked against an oracle subsample."""

    name = "image_fast"
    item = "px"
    sizes = {
        "full": dict(width=64, height=64, n_cycles=1000, model_pairs=300, model_realizations=10,
                     model_epochs=300, check_pixels=512),
        "tiny": dict(width=8, height=8, n_cycles=1000, model_pairs=300, model_realizations=10,
                     model_epochs=300, check_pixels=64),
    }

    def setup(self, seed):
        s = self.size
        scene_seed, data_seed, model_seed, sim_seed, ref_seed = _seeds(seed, 5)
        sys_p = SystemParams(n_cycles=s["n_cycles"])
        grid = TimeGrid(n_bins=N_BINS, t_r=sys_p.t_r)
        scene = make_scene(np.random.default_rng(scene_seed), s["width"], s["height"])
        ds = dataset.generate_dataset(sys_p, grid, s["model_pairs"], n_realizations=s["model_realizations"],
                                      seed=data_seed)
        train_x, train_y = ds.arrays("train")
        model = pdf_net.build_model(N_BINS, input_scale=grid.bin_width, seed=model_seed)
        cfg = pdf_net.TrainConfig(batch_size=128, epochs=s["model_epochs"], seed=model_seed)
        pdf_net.train(model, train_x, train_y, cfg)
        return dict(sys=sys_p, grid=grid, scene=scene, model=model, sim_seed=sim_seed, ref_seed=ref_seed)

    def prepare(self, state):
        scene, n_px = state["scene"], state["scene"].height * state["scene"].width
        gen = np.random.default_rng(state["ref_seed"])
        idx = np.sort(gen.choice(n_px, size=min(self.size["check_pixels"], n_px), replace=False))
        ref = RngHandle(state["ref_seed"])
        depths, counts = [], []
        for i in idx:
            env = scene.env_at(*divmod(int(i), scene.width))
            batch = oracle.simulate_registrations(state["sys"], env, state["grid"], ref.child(int(i))).rel_times
            counts.append(batch.count)
            depths.append(batch.times.mean() if batch.count else np.nan)
        state["check_idx"] = idx
        state["ref_depths"] = np.array(depths)
        state["ref_count"] = float(np.mean(counts))

    def run(self, state, index):
        result = fast_sim.simulate_image(state["scene"], state["sys"], state["grid"], "fast",
                                         RngHandle(state["sim_seed"], index), model=state["model"])
        return Pass(items=state["scene"].height * state["scene"].width, data=result)

    def check(self, state, out):
        result, idx, t_r = out.data, state["check_idx"], state["sys"].t_r
        failures = _timestamps_in_period(result, t_r)
        fast_depths = result.depth_estimate.ravel()[idx]
        both = ~np.isnan(fast_depths) & ~np.isnan(state["ref_depths"])
        bias = abs(fast_depths[both].mean() - state["ref_depths"][both].mean())
        if not bias <= DEPTH_BIAS_TOL * t_r:
            failures.append(f"image-mean depth bias {bias:.4f} > {DEPTH_BIAS_TOL} * t_r")
        counts = np.array([b.count for b in result.batches])[idx]
        rel = counts.mean() / state["ref_count"] - 1.0
        if not abs(rel) <= COUNT_TOL:
            failures.append(f"mean registered count off the oracle by {rel:+.2%}")
        return failures

    def digest(self, out):
        return _image_digest(out.data)


class ImageOracle(Workload):
    """The oracle on a 24x16 scene at N = 10^4, checked against the count model."""

    name = "image_oracle"
    item = "px"
    sizes = {
        "full": dict(width=24, height=16, n_cycles=10_000),
        "tiny": dict(width=4, height=4, n_cycles=2000),
    }

    def setup(self, seed):
        scene_seed, sim_seed = _seeds(seed, 2)
        sys_p = SystemParams(n_cycles=self.size["n_cycles"])
        grid = TimeGrid(n_bins=N_BINS, t_r=sys_p.t_r)
        scene = make_scene(np.random.default_rng(scene_seed), self.size["width"], self.size["height"])
        return dict(sys=sys_p, grid=grid, scene=scene, sim_seed=sim_seed)

    def run(self, state, index):
        result = fast_sim.simulate_image(state["scene"], state["sys"], state["grid"], "oracle",
                                         RngHandle(state["sim_seed"], index))
        return Pass(items=state["scene"].height * state["scene"].width, data=result)

    def check(self, state, out):
        """Mean count against ``estimate_count`` fed each pixel's own registration histogram."""
        result, scene, grid, sys_p = out.data, state["scene"], state["grid"], state["sys"]
        failures = _timestamps_in_period(result, sys_p.t_r)
        counts, modeled = [], []
        for i, batch in enumerate(result.batches):
            counts.append(batch.count)
            if batch.count == 0:
                modeled.append(0.0)
                continue
            hist = np.histogram(batch.times, bins=grid.edges())[0]
            f_r = DiscretizedFunction(grid, hist / (batch.count * grid.bin_width))
            env = scene.env_at(*divmod(i, scene.width))
            modeled.append(count_model.estimate_count(sys_p, env, f_r).mean_r)
        rel = np.mean(counts) / np.mean(modeled) - 1.0
        if not abs(rel) <= COUNT_TOL:
            failures.append(f"image-mean count off the count model by {rel:+.2%}")
        return failures

    def digest(self, out):
        return _image_digest(out.data)


@dataclass
class PipelineOutput:
    generated: object
    read_back: object
    model: object
    loaded: object
    val_loss: "list[tuple[int, float]]"
    files: "tuple[Path, Path]"


def _same_dataset(a, b) -> bool:
    return a.header == b.header and all(
        np.array_equal(x, y) for split in ("train", "test") for x, y in zip(a.arrays(split), b.arrays(split))
    )


def _same_model(a, b) -> bool:
    return (
        a.layer_dims == b.layer_dims and a.activations == b.activations and a.input_scale == b.input_scale
        and all(np.array_equal(x, y) for x, y in zip(a.parameters(), b.parameters()))
    )


class TrainPipeline(Workload):
    """Generate pairs, write, read back, train, save and reload the model."""

    name = "train_pipeline"
    item = "pairs"
    sizes = {
        "full": dict(pairs=240, realizations=10, n_cycles=1000, epochs=200),
        "tiny": dict(pairs=40, realizations=3, n_cycles=200, epochs=60),
    }

    def setup(self, seed):
        (pass_seed,) = _seeds(seed, 1)
        sys_p = SystemParams(n_cycles=self.size["n_cycles"])
        WORK_ROOT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="pipeline-", dir=WORK_ROOT))
        return dict(sys=sys_p, grid=TimeGrid(n_bins=N_BINS, t_r=sys_p.t_r), pass_seed=pass_seed, workdir=workdir)

    def run(self, state, index):
        s, grid = self.size, state["grid"]
        seed = _seeds(state["pass_seed"] + index, 1)[0]
        data_path, model_path = state["workdir"] / "pairs.splds", state["workdir"] / "model.splae"
        generated = dataset.generate_dataset(state["sys"], grid, s["pairs"], n_realizations=s["realizations"],
                                             seed=seed)
        dataset.write_dataset(generated, data_path)
        read_back = dataset.read_dataset(data_path)
        train_x, train_y = read_back.arrays("train")
        val_x, val_y = read_back.arrays("test")
        model = pdf_net.build_model(N_BINS, input_scale=grid.bin_width, seed=seed)
        cfg = pdf_net.TrainConfig(batch_size=128, epochs=s["epochs"], seed=seed)
        trained = pdf_net.train(model, train_x, train_y, cfg, val_x=val_x, val_y=val_y)
        pdf_net.save_model(model, model_path)
        loaded = pdf_net.load_model(model_path)
        out = PipelineOutput(generated, read_back, model, loaded, trained.val_loss, (data_path, model_path))
        return Pass(items=s["pairs"], data=out)

    def check(self, state, out):
        result, failures = out.data, []
        if not _same_dataset(result.generated, result.read_back):
            failures.append("dataset changed on write -> read")
        if not _same_model(result.model, result.loaded):
            failures.append("model changed on save -> load")
        first, last = result.val_loss[0][1], result.val_loss[-1][1]
        if not last < first:
            failures.append(f"held-out loss did not fall: {first:.4g} -> {last:.4g}")
        return failures

    def digest(self, out):
        h = hashlib.sha256()
        for path in out.data.files:
            h.update(path.read_bytes())
        return h.hexdigest()

    def close(self, state):
        shutil.rmtree(state["workdir"], ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass


WORKLOADS = {w.name: w for w in (ImageFast, ImageOracle, TrainPipeline)}
