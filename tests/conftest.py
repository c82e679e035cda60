"""Shared fixtures: desk-scale dataset, trained model, and tiny artifacts.

The desk-scale fixtures are expensive (tens of seconds) and session-scoped;
everything derived from them is deterministic for the pinned seeds.
"""

import struct
import zlib

import numpy as np
import pytest

from splsim import SystemParams, TimeGrid
from splsim.dataset import generate_dataset, write_dataset
from splsim.pdf_net import MODEL_MAGIC, TrainConfig, build_model, save_model, train

DESK_SEED = 123
DESK_BINS = 256
DESK_PAIRS = 2000
DESK_REALIZATIONS = 20
DESK_EPOCHS = 300

# Layer widths no consistent model file declares: too wide for any file,
# zero-wide, and an output width unlike the input width.
HOSTILE_MODEL_DIMS = (
    pytest.param([2**32 - 1] * 3, id="too-wide"),
    pytest.param([0, 0], id="zero-wide"),
    pytest.param([64, 16, 32], id="out-unlike-in"),
)

BAD_INPUT_SCALES = (
    pytest.param(float("nan"), id="nan"),
    pytest.param(float("inf"), id="inf"),
    pytest.param(0.0, id="zero"),
    pytest.param(-1.0, id="negative"),
)


def write_model_file(path, dims, max_params=4096, input_scale=1.0):
    """A model file declaring dims and input_scale, with linear layers and a valid CRC.

    Every parameter is 1, so the network output has mass; the file holds
    one per declared parameter, up to max_params.
    """
    declared = sum(out_dim * (in_dim + 1) for in_dim, out_dim in zip(dims, dims[1:]))
    buf = bytearray(MODEL_MAGIC)
    buf += struct.pack(f"<I{len(dims)}I", len(dims), *dims)
    buf += bytes(len(dims) - 1)
    buf += struct.pack("<d", input_scale)
    buf += np.ones(min(declared, max_params), dtype="<f8").tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    path.write_bytes(bytes(buf))


def header_bit_flips(raw: bytes, n_header: int):
    """Every copy of raw with one bit of its first n_header bytes flipped and the trailing CRC32 recomputed."""
    for offset in range(n_header):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[offset] ^= 1 << bit
            flipped[-4:] = struct.pack("<I", zlib.crc32(bytes(flipped[:-4])))
            yield bytes(flipped)


@pytest.fixture(scope="session")
def default_sys():
    return SystemParams()


@pytest.fixture(scope="session")
def desk_grid(default_sys):
    return TimeGrid(n_bins=DESK_BINS, t_r=default_sys.t_r)


@pytest.fixture(scope="session")
def desk_dataset(default_sys, desk_grid, tmp_path_factory):
    ds = generate_dataset(
        default_sys,
        desk_grid,
        DESK_PAIRS,
        n_realizations=DESK_REALIZATIONS,
        seed=DESK_SEED,
    )
    path = tmp_path_factory.mktemp("data") / "desk.splds"
    write_dataset(ds, path)
    return ds


@pytest.fixture(scope="session")
def trained_model(desk_dataset, desk_grid, tmp_path_factory):
    train_x, train_y = desk_dataset.arrays("train")
    test_x, test_y = desk_dataset.arrays("test")
    model = build_model(desk_grid.n_bins, input_scale=desk_grid.bin_width, seed=0)
    cfg = TrainConfig(batch_size=128, epochs=DESK_EPOCHS, learning_rate=1e-3, seed=0)
    train(model, train_x, train_y, cfg, val_x=test_x, val_y=test_y)
    path = tmp_path_factory.mktemp("model") / "desk.splae"
    save_model(model, path)
    return model


@pytest.fixture(scope="session")
def tiny_setup(tmp_path_factory):
    """Small dataset + model for CLI and serialization tests."""
    sys_p = SystemParams(n_cycles=200)
    grid = TimeGrid(n_bins=64, t_r=sys_p.t_r)
    ds = generate_dataset(sys_p, grid, 20, n_realizations=3, seed=5)
    root = tmp_path_factory.mktemp("tiny")
    ds_path = root / "tiny.splds"
    write_dataset(ds, ds_path)
    model = build_model(64, input_scale=grid.bin_width, seed=1)
    tx, ty = ds.arrays("train")
    train(model, tx, ty, TrainConfig(batch_size=8, epochs=10, learning_rate=1e-3, seed=1))
    model_path = root / "tiny.splae"
    save_model(model, model_path)
    return {"sys": sys_p, "grid": grid, "dataset": ds, "dataset_path": ds_path, "model": model, "model_path": model_path}
