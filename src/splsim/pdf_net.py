"""Dense autoencoder mapping a discretized flux to the registration PDF.

The encoder halves the width per layer down to a 16-dimensional bottleneck
and the decoder symmetrically doubles back to the input width. Hidden
layers use a leaky rectifier, the output layer is linear, and training
minimizes the mean squared error against empirical registration PDFs.
Forward, backward, and Adam are implemented directly in numpy so the
gradients are fully inspectable.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .arrival import RngHandle
from .core import (
    DegenerateDistributionError,
    DiscretizedFunction,
    FormatError,
    ParameterError,
    require_integer,
)

MODEL_MAGIC = b"SPLAE1"
BOTTLENECK = 16
LEAKY_SLOPE = 0.01
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
VAL_EVERY = 25  # epochs between held-out loss evaluations; the last epoch is always evaluated

ACT_LINEAR = 0
ACT_LEAKY_RELU = 1


def standard_layer_dims(n_bins: int) -> "list[int]":
    """Widths halving from n_bins down to the BOTTLENECK, then doubling back."""
    if n_bins < BOTTLENECK:
        raise ParameterError(f"need at least {BOTTLENECK} bins, got {n_bins}")
    down = [n_bins]
    while down[-1] > BOTTLENECK:
        if down[-1] % 2:
            raise ParameterError(
                f"bin count {n_bins} does not halve cleanly to the {BOTTLENECK}-wide bottleneck"
            )
        down.append(down[-1] // 2)
    if down[-1] != BOTTLENECK:
        raise ParameterError(f"bin count {n_bins} does not reach the {BOTTLENECK}-wide bottleneck")
    return down + down[-2::-1]


@dataclass
class AEModel:
    """Affine layer stack with per-layer activations and an input scale.

    weights[i] has shape (layer_dims[i+1], layer_dims[i]); the input scale
    multiplies the raw flux vector before the first layer and is stored in
    the model file so inference matches training.
    """

    layer_dims: "list[int]"
    weights: "list[np.ndarray]"
    biases: "list[np.ndarray]"
    activations: "list[int]"
    input_scale: float = 1.0

    def __post_init__(self):
        n_affine = len(self.layer_dims) - 1
        if n_affine < 1:
            raise ParameterError("model needs at least one affine layer")
        if not (len(self.weights) == len(self.biases) == len(self.activations) == n_affine):
            raise ParameterError("weights/biases/activations must have one entry per affine layer")
        for i in range(n_affine):
            expected = (self.layer_dims[i + 1], self.layer_dims[i])
            if self.weights[i].shape != expected:
                raise ParameterError(
                    f"layer {i}: weight shape {self.weights[i].shape} != {expected}"
                )
            if self.biases[i].shape != (self.layer_dims[i + 1],):
                raise ParameterError(f"layer {i}: bias shape mismatch")
            if not (np.all(np.isfinite(self.weights[i])) and np.all(np.isfinite(self.biases[i]))):
                raise ParameterError(f"layer {i}: non-finite parameters")
            if self.activations[i] not in (ACT_LINEAR, ACT_LEAKY_RELU):
                raise ParameterError(f"layer {i}: unknown activation id {self.activations[i]}")
        if not (np.isfinite(self.input_scale) and self.input_scale > 0):
            raise ParameterError(f"input scale must be finite and positive, got {self.input_scale}")

    @property
    def n_bins(self) -> int:
        return self.layer_dims[0]

    def parameters(self) -> "list[np.ndarray]":
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def build_model(
    n_bins: int,
    input_scale: float,
    seed: int = 0,
    layer_dims: "list[int] | None" = None,
) -> AEModel:
    """Initialize a model with uniform fan-in scaled weights (seeded)."""
    dims = list(layer_dims) if layer_dims is not None else standard_layer_dims(n_bins)
    if dims[0] != n_bins or dims[-1] != n_bins:
        raise ParameterError("first and last layer widths must equal the bin count")
    gen = RngHandle(seed).generator()
    weights, biases, acts = [], [], []
    n_affine = len(dims) - 1
    for i in range(n_affine):
        bound = 1.0 / np.sqrt(dims[i])
        weights.append(gen.uniform(-bound, bound, size=(dims[i + 1], dims[i])))
        biases.append(np.zeros(dims[i + 1]))
        acts.append(ACT_LINEAR if i == n_affine - 1 else ACT_LEAKY_RELU)
    return AEModel(dims, weights, biases, acts, input_scale=input_scale)


def _activate(z: np.ndarray, kind: int) -> np.ndarray:
    if kind == ACT_LINEAR:
        return z
    # With a slope below 1, the larger of z and slope * z is z where z > 0
    # and slope * z elsewhere (signed zeros included), in two passes not three.
    return np.maximum(z, LEAKY_SLOPE * z)


def _activate_grad(z: np.ndarray, kind: int) -> np.ndarray:
    if kind == ACT_LINEAR:
        return np.ones_like(z)
    return np.where(z > 0, 1.0, LEAKY_SLOPE)


def _forward_batch(model: AEModel, x: np.ndarray) -> "tuple[np.ndarray, list, list]":
    """Batch forward pass; returns output plus cached pre/post activations."""
    h = x
    pre, post = [], [x]
    for w, b, act in zip(model.weights, model.biases, model.activations):
        z = h @ w.T + b
        h = _activate(z, act)
        pre.append(z)
        post.append(h)
    return h, pre, post


def forward(model: AEModel, flux_vec: np.ndarray) -> np.ndarray:
    """Raw network output for one (already scaled) input vector."""
    x = np.asarray(flux_vec, dtype=np.float64)
    if x.shape != (model.n_bins,):
        raise ParameterError(f"expected input of shape ({model.n_bins},), got {x.shape}")
    out, _, _ = _forward_batch(model, x[None, :])
    return out[0]


def loss_mse(pred: np.ndarray, label: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    label = np.asarray(label, dtype=np.float64)
    if pred.shape != label.shape:
        raise ParameterError(f"shape mismatch: {pred.shape} vs {label.shape}")
    diff = pred - label
    return float(np.mean(diff * diff))


def backward(model: AEModel, x: np.ndarray, label: np.ndarray) -> "list[np.ndarray]":
    """Gradient of the MSE loss w.r.t. every parameter, parameters() order.

    Accepts a single vector or a batch (rows = samples); batch gradients
    average the per-sample losses, matching the training objective.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    label = np.atleast_2d(np.asarray(label, dtype=np.float64))
    out, pre, post = _forward_batch(model, x)
    return _backprop(model, out, pre, post, label)


def _backprop(model: AEModel, out: np.ndarray, pre: list, post: list, label: np.ndarray) -> "list[np.ndarray]":
    """Backward sweep over a cached forward pass; see backward."""
    delta = 2.0 * (out - label) / out.size
    grads: "list[np.ndarray]" = []
    for i in reversed(range(len(model.weights))):
        delta = delta * _activate_grad(pre[i], model.activations[i])
        grads.append(delta.sum(axis=0))       # bias
        grads.append(delta.T @ post[i])       # weight
        if i:
            delta = delta @ model.weights[i]
    grads.reverse()
    return grads


@dataclass
class TrainConfig:
    batch_size: int = 128
    epochs: int = 5000
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        require_integer("batch_size", self.batch_size, 1)
        require_integer("epochs", self.epochs, 1)
        require_integer("seed", self.seed, 0)
        if not 0 <= self.learning_rate < math.inf:
            raise ParameterError(f"learning rate must be non-negative and finite, got {self.learning_rate}")


@dataclass
class AdamState:
    """First/second moment accumulators mirroring the parameter list."""

    m: "list[np.ndarray]"
    v: "list[np.ndarray]"
    step: int = 0

    @classmethod
    def for_model(cls, model: AEModel) -> "AdamState":
        params = model.parameters()
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )

    def update(self, params: "list[np.ndarray]", grads: "list[np.ndarray]", cfg: TrainConfig):
        self.step += 1
        corr1 = 1.0 - ADAM_BETA1 ** self.step
        corr2 = 1.0 - ADAM_BETA2 ** self.step
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= cfg.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, batch_index: int):
        super().__init__(f"loss became non-finite at epoch {epoch}, batch {batch_index}")
        self.epoch = epoch
        self.batch_index = batch_index


@dataclass
class TrainResult:
    model: AEModel
    train_loss: "list[float]"                   # per-epoch mean training loss
    val_loss: "list[tuple[int, float]]" = field(default_factory=list)


def train(
    model: AEModel,
    train_x: np.ndarray,
    train_y: np.ndarray,
    cfg: TrainConfig,
    val_x: "np.ndarray | None" = None,
    val_y: "np.ndarray | None" = None,
) -> TrainResult:
    """Mini-batch Adam training on (scaled flux, label PDF) pairs.

    A validation set with no rows counts as none.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64)
    if train_x.ndim != 2 or train_x.shape != train_y.shape:
        raise ParameterError("training inputs and labels must be matching 2-D arrays")
    if train_x.shape[0] == 0:
        raise ParameterError("training set is empty")
    n = train_x.shape[0]
    has_val = val_x is not None and len(val_x) > 0
    params = model.parameters()
    adam = AdamState.for_model(model)
    shuffle_gen = RngHandle(cfg.seed, stream=1).generator()
    history: "list[float]" = []
    val_history: "list[tuple[int, float]]" = []
    # A diverging run overflows in the arithmetic before its loss turns
    # non-finite; the loss check reports it, once, as TrainingDivergedError.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = shuffle_gen.permutation(n)
            epoch_loss = 0.0
            for bi, start in enumerate(range(0, n, cfg.batch_size)):
                idx = order[start : start + cfg.batch_size]
                xb, yb = train_x[idx], train_y[idx]
                out, pre, post = _forward_batch(model, xb)
                batch_loss = loss_mse(out, yb)
                if not np.isfinite(batch_loss):
                    raise TrainingDivergedError(epoch, bi)
                adam.update(params, _backprop(model, out, pre, post, yb), cfg)
                epoch_loss += batch_loss * len(idx)
            history.append(epoch_loss / n)
            if has_val and (epoch % VAL_EVERY == 0 or epoch == cfg.epochs - 1):
                val_out, _, _ = _forward_batch(model, np.asarray(val_x, dtype=np.float64))
                val_history.append((epoch, loss_mse(val_out, np.asarray(val_y, dtype=np.float64))))
    return TrainResult(model=model, train_loss=history, val_loss=val_history)


def predict_pdf(model: AEModel, flux: DiscretizedFunction) -> DiscretizedFunction:
    """Network prediction post-processed into a valid PDF on the flux grid."""
    rows = predict_pdf_rows(model, flux.values[None, :], flux.grid.bin_width)
    return DiscretizedFunction(flux.grid, rows[0])


def predict_pdf_rows(model: AEModel, flux: np.ndarray, bin_width: float) -> np.ndarray:
    """predict_pdf for P flux rows (P x K) in one batched forward pass.

    Each output row is clamped at zero and normalized to unit integral;
    every row must come out finite with positive mass.
    """
    if flux.shape[1] != model.n_bins:
        raise ParameterError(
            f"model expects {model.n_bins} bins, flux has {flux.shape[1]}"
        )
    raw, _, _ = _forward_batch(model, flux * model.input_scale)
    pdf = np.maximum(raw, 0.0, out=raw)
    total = pdf.sum(axis=1) * bin_width
    if (total <= 0).any():
        raise DegenerateDistributionError("network output has no positive mass")
    pdf /= total[:, None]
    if not np.isfinite(pdf).all():
        raise ParameterError("network output must be finite")
    return pdf


def save_model(model: AEModel, path: "str | Path") -> None:
    """Little-endian binary dump with a trailing CRC32 checksum."""
    buf = bytearray()
    buf += MODEL_MAGIC
    buf += struct.pack("<I", len(model.layer_dims))
    buf += struct.pack(f"<{len(model.layer_dims)}I", *model.layer_dims)
    buf += struct.pack(f"<{len(model.activations)}B", *model.activations)
    buf += struct.pack("<d", model.input_scale)
    for w, b in zip(model.weights, model.biases):
        buf += np.ascontiguousarray(w, dtype="<f8").tobytes()
        buf += np.ascontiguousarray(b, dtype="<f8").tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    Path(path).write_bytes(bytes(buf))


def load_model(path: "str | Path") -> AEModel:
    raw = Path(path).read_bytes()
    if len(raw) < len(MODEL_MAGIC) + 8 or raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise FormatError(f"{path}: not a {MODEL_MAGIC.decode()} model file")
    stored_crc = struct.unpack_from("<I", raw, len(raw) - 4)[0]
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise FormatError(f"{path}: checksum mismatch")
    off = len(MODEL_MAGIC)
    try:
        (n_dims,) = struct.unpack_from("<I", raw, off)
        off += 4
        dims = list(struct.unpack_from(f"<{n_dims}I", raw, off))
        off += 4 * n_dims
        acts = list(struct.unpack_from(f"<{n_dims - 1}B", raw, off))
        off += n_dims - 1
        (input_scale,) = struct.unpack_from("<d", raw, off)
        off += 8
    except struct.error as exc:
        raise FormatError(f"{path}: truncated or malformed model file") from exc
    if min(dims) < 1 or dims[0] != dims[-1]:
        raise FormatError(f"{path}: layer widths {dims} must be positive and end where they start")
    n_params = sum(out_dim * (in_dim + 1) for in_dim, out_dim in zip(dims, dims[1:]))
    if 8 * n_params != len(raw) - 4 - off:
        raise FormatError(f"{path}: layer widths {dims} do not match {len(raw) - 4 - off} parameter bytes")
    weights, biases = [], []
    for in_dim, out_dim in zip(dims, dims[1:]):
        w = np.frombuffer(raw, dtype="<f8", count=out_dim * in_dim, offset=off)
        off += 8 * out_dim * in_dim
        b = np.frombuffer(raw, dtype="<f8", count=out_dim, offset=off)
        off += 8 * out_dim
        weights.append(w.reshape(out_dim, in_dim).astype(np.float64))
        biases.append(b.astype(np.float64))
    try:
        return AEModel(dims, weights, biases, acts, input_scale=input_scale)
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}") from exc
