"""Dense autoencoder mapping a discretized flux to the registration PDF.

The encoder halves the width per layer down to a 16-dimensional bottleneck
and the decoder symmetrically doubles back to the input width. Hidden
layers use a leaky rectifier, the output layer is linear, and training
minimizes the mean squared error against empirical registration PDFs.
Forward, backward, and Adam are implemented directly in numpy so the
gradients are fully inspectable.

All parameters live in one float64 vector, layer by layer, weight then
bias, as the .splae body stores them; weights, biases and gradients are
per-layer views of vectors with that layout, and Adam steps the whole one.
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


def _param_views(dims: "list[int]", vec: np.ndarray) -> "list[np.ndarray]":
    """Views of vec as [weight 0, bias 0, weight 1, bias 1, ...] of layers with widths dims."""
    shapes = [shape for d_in, d_out in zip(dims, dims[1:]) for shape in ((d_out, d_in), (d_out,))]
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(vec, ends[:-1]), shapes)]


@dataclass
class AEModel:
    """Affine layer stack with per-layer activations and an input scale.

    weights[i] has shape (layer_dims[i+1], layer_dims[i]); the input scale
    multiplies the raw flux vector before the first layer and is stored in
    the model file so inference matches training. The constructor copies
    the given weights and biases into flat; weights, biases and
    parameters() are views of it.
    """

    layer_dims: "list[int]"
    weights: "list[np.ndarray]"
    biases: "list[np.ndarray]"
    activations: "list[int]"
    input_scale: float = 1.0
    flat: np.ndarray = field(init=False, repr=False)

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
            if self.activations[i] not in (ACT_LINEAR, ACT_LEAKY_RELU):
                raise ParameterError(f"layer {i}: unknown activation id {self.activations[i]}")
        if not (np.isfinite(self.input_scale) and self.input_scale > 0):
            raise ParameterError(f"input scale must be finite and positive, got {self.input_scale}")
        layers = zip(self.weights, self.biases)
        self.flat = np.concatenate([np.ravel(a) for layer in layers for a in layer], dtype=np.float64)
        if not np.isfinite(self.flat).all():
            raise ParameterError("non-finite parameters")
        params = self.parameters()
        self.weights, self.biases = params[0::2], params[1::2]

    @property
    def n_bins(self) -> int:
        return self.layer_dims[0]

    def parameters(self) -> "list[np.ndarray]":
        """Views of flat: [weight 0, bias 0, weight 1, bias 1, ...]."""
        return _param_views(self.layer_dims, self.flat)


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
    weights = [gen.uniform(-1.0 / np.sqrt(d_in), 1.0 / np.sqrt(d_in), size=(d_out, d_in))
               for d_in, d_out in zip(dims, dims[1:])]
    acts = [ACT_LEAKY_RELU] * (len(dims) - 2) + [ACT_LINEAR]
    return AEModel(dims, weights, [np.zeros(d_out) for d_out in dims[1:]], acts, input_scale=input_scale)


def _activate(z: np.ndarray, kind: int) -> np.ndarray:
    if kind == ACT_LINEAR:
        return z
    # With a slope below 1, the larger of z and slope * z is z where z > 0
    # and slope * z elsewhere (signed zeros included), in two passes not three.
    return np.maximum(z, LEAKY_SLOPE * z)


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
    return _backprop(model, out, pre, post, label, _param_views(model.layer_dims, np.empty_like(model.flat)))


def _backprop(model: AEModel, out: np.ndarray, pre: list, post: list, label: np.ndarray, grads: list) -> list:
    """Backward sweep over a cached forward pass into grads, views laid out as parameters(); returns grads."""
    delta = 2.0 * (out - label) / out.size
    for i in reversed(range(len(model.weights))):
        if model.activations[i] == ACT_LEAKY_RELU:
            delta *= (pre[i] > 0) * (1 - LEAKY_SLOPE) + LEAKY_SLOPE  # exactly 1.0 or LEAKY_SLOPE
        delta.sum(axis=0, out=grads[2 * i + 1])
        np.matmul(delta.T, post[i], out=grads[2 * i])
        if i:
            delta = delta @ model.weights[i]
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


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, batch_index: int):
        super().__init__(f"loss became non-finite at epoch {epoch}, batch {batch_index}")
        self.epoch = epoch
        self.batch_index = batch_index


@dataclass
class TrainResult:
    train_loss: "list[float]"                   # per-epoch mean training loss
    val_loss: "list[tuple[int, float]]" = field(default_factory=list)


def _pairs(x_name: str, x, y_name: str, y, n_bins: int) -> "tuple[np.ndarray, np.ndarray]":
    """x and y as float64 arrays, checked to be (rows, n_bins) of the same shape."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != n_bins:
        raise ParameterError(f"{x_name} must have shape (rows, {n_bins}), got {x.shape}")
    if y.shape != x.shape:
        raise ParameterError(f"{y_name} shape {y.shape} does not match {x_name} shape {x.shape}")
    return x, y


def train(
    model: AEModel,
    train_x: np.ndarray,
    train_y: np.ndarray,
    cfg: TrainConfig,
    val_x: "np.ndarray | None" = None,
    val_y: "np.ndarray | None" = None,
) -> TrainResult:
    """Mini-batch Adam training of model, in place, on (flux, label PDF) pairs.

    train_x and val_x hold raw flux rows; like predict_pdf_rows, training
    multiplies them by model.input_scale before the first layer. Every
    array is checked before the first update. A validation set with no
    rows counts as none.
    """
    train_x, train_y = _pairs("train_x", train_x, "train_y", train_y, model.n_bins)
    if train_x.shape[0] == 0:
        raise ParameterError("training set is empty")
    if (val_x is None) != (val_y is None):
        raise ParameterError("val_x and val_y must be given together")
    if val_x is not None:
        val_x, val_y = _pairs("val_x", val_x, "val_y", val_y, model.n_bins)
    has_val = val_x is not None and len(val_x) > 0
    n = train_x.shape[0]
    grad, m, v, step_size, denom = (np.zeros_like(model.flat) for _ in range(5))  # Adam state and scratch
    grads = _param_views(model.layer_dims, grad)
    shuffle_gen = RngHandle(cfg.seed, stream=1).generator()
    history: "list[float]" = []
    val_history: "list[tuple[int, float]]" = []
    step = 0
    # A diverging run overflows in the arithmetic before its loss turns
    # non-finite; the loss check reports it, once, as TrainingDivergedError.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = shuffle_gen.permutation(n)
            epoch_loss = 0.0
            for bi, start in enumerate(range(0, n, cfg.batch_size)):
                idx = order[start : start + cfg.batch_size]
                xb, yb = train_x[idx], train_y[idx]
                xb *= model.input_scale  # a copy: idx is an index array
                out, pre, post = _forward_batch(model, xb)
                batch_loss = loss_mse(out, yb)
                if not np.isfinite(batch_loss):
                    raise TrainingDivergedError(epoch, bi)
                _backprop(model, out, pre, post, yb, grads)
                step += 1
                corr1, corr2 = 1.0 - ADAM_BETA1 ** step, 1.0 - ADAM_BETA2 ** step  # Adam, in place over flat
                m *= ADAM_BETA1
                m += np.multiply(1.0 - ADAM_BETA1, grad, out=step_size)
                v *= ADAM_BETA2
                v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grad, out=denom), grad, out=denom)
                np.multiply(np.divide(m, corr1, out=step_size), cfg.learning_rate, out=step_size)
                np.add(np.sqrt(np.divide(v, corr2, out=denom), out=denom), ADAM_EPS, out=denom)
                model.flat -= np.divide(step_size, denom, out=step_size)
                epoch_loss += batch_loss * len(idx)
            history.append(epoch_loss / n)
            if has_val and (epoch % VAL_EVERY == 0 or epoch == cfg.epochs - 1):
                val_out, _, _ = _forward_batch(model, val_x * model.input_scale)
                val_history.append((epoch, loss_mse(val_out, val_y)))
    return TrainResult(train_loss=history, val_loss=val_history)


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
    n_dims = len(model.layer_dims)
    head = struct.pack(f"<I{n_dims}I{n_dims - 1}Bd", n_dims, *model.layer_dims, *model.activations,
                       model.input_scale)
    body = MODEL_MAGIC + head + model.flat.astype("<f8", copy=False).tobytes()
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def load_model(path: "str | Path") -> AEModel:
    raw = Path(path).read_bytes()
    if len(raw) < len(MODEL_MAGIC) + 8 or raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise FormatError(f"{path}: not a {MODEL_MAGIC.decode()} model file")
    stored_crc = struct.unpack_from("<I", raw, len(raw) - 4)[0]
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise FormatError(f"{path}: checksum mismatch")
    try:
        (n_dims,) = struct.unpack_from("<I", raw, len(MODEL_MAGIC))
        head = struct.Struct(f"<{n_dims}I{n_dims - 1}Bd")
        fields = head.unpack_from(raw, len(MODEL_MAGIC) + 4)
    except struct.error as exc:
        raise FormatError(f"{path}: truncated or malformed model file") from exc
    dims, acts, input_scale = list(fields[:n_dims]), list(fields[n_dims:-1]), fields[-1]
    off = len(MODEL_MAGIC) + 4 + head.size
    if min(dims) < 1 or dims[0] != dims[-1]:
        raise FormatError(f"{path}: layer widths {dims} must be positive and end where they start")
    n_params = sum(out_dim * (in_dim + 1) for in_dim, out_dim in zip(dims, dims[1:]))
    if 8 * n_params != len(raw) - 4 - off:
        raise FormatError(f"{path}: layer widths {dims} do not match {len(raw) - 4 - off} parameter bytes")
    params = _param_views(dims, np.frombuffer(raw, dtype="<f8", count=n_params, offset=off))
    try:
        return AEModel(dims, params[0::2], params[1::2], acts, input_scale=input_scale)
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}") from exc
