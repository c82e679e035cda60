import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from splsim import (
    DegenerateDistributionError,
    DiscretizedFunction,
    FormatError,
    ParameterError,
    RngHandle,
    TimeGrid,
    build_model,
    load_model,
    predict_pdf,
    save_model,
    train,
)
from splsim.pdf_net import (
    ACT_LEAKY_RELU,
    ACT_LINEAR,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    MODEL_MAGIC,
    VAL_EVERY,
    AEModel,
    TrainConfig,
    TrainingDivergedError,
    _backprop,
    _forward_batch,
    _param_views,
    backward,
    loss_mse,
    standard_layer_dims,
)

from conftest import BAD_INPUT_SCALES, HOSTILE_MODEL_DIMS, header_bit_flips, write_model_file

TOY_DIMS = [16, 8, 16]


def toy_model(seed=0):
    return build_model(16, input_scale=1.0, seed=seed, layer_dims=TOY_DIMS)


class TestArchitecture:
    def test_standard_dims_halve_and_mirror(self):
        assert standard_layer_dims(256) == [256, 128, 64, 32, 16, 32, 64, 128, 256]
        dims = standard_layer_dims(1024)
        assert dims[0] == dims[-1] == 1024
        assert min(dims) == 16
        assert dims == dims[::-1]

    @pytest.mark.parametrize("bad", [8, 48, 100, 257])
    def test_non_halving_widths_rejected(self, bad):
        with pytest.raises(ParameterError):
            standard_layer_dims(bad)

    def test_build_model_layout(self):
        model = build_model(256, input_scale=10.0 / 256, seed=3)
        assert model.layer_dims == standard_layer_dims(256)
        assert model.activations[-1] == ACT_LINEAR
        assert all(a == ACT_LEAKY_RELU for a in model.activations[:-1])
        assert all(np.all(b == 0.0) for b in model.biases)

    def test_build_model_seeded(self):
        a = build_model(64, input_scale=1.0, seed=9)
        b = build_model(64, input_scale=1.0, seed=9)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            AEModel(
                [4, 2, 4],
                weights=[np.zeros((2, 4)), np.zeros((4, 3))],
                biases=[np.zeros(2), np.zeros(4)],
                activations=[ACT_LEAKY_RELU, ACT_LINEAR],
            )

    def test_nonfinite_params_rejected(self):
        w = np.zeros((2, 4))
        w[0, 0] = np.inf
        with pytest.raises(ParameterError):
            AEModel(
                [4, 2],
                weights=[w],
                biases=[np.zeros(2)],
                activations=[ACT_LINEAR],
            )


class TestForwardBackward:
    def test_linear_single_layer_forward(self):
        # One linear layer is just an affine map we can compute directly.
        w = np.arange(12, dtype=float).reshape(3, 4)
        b = np.array([1.0, -1.0, 0.5])
        model = AEModel([4, 3], weights=[w], biases=[b], activations=[ACT_LINEAR])
        x = np.array([0.5, -2.0, 1.0, 3.0])
        assert np.allclose(_forward_batch(model, x[None, :])[0], w @ x + b)

    def test_leaky_relu_kink(self):
        w = np.eye(2)
        model = AEModel(
            [2, 2], weights=[w.copy()], biases=[np.zeros(2)], activations=[ACT_LEAKY_RELU]
        )
        out, _, _ = _forward_batch(model, np.array([[2.0, -2.0]]))
        assert np.allclose(out, [[2.0, -0.02]])

    def test_loss_mse_scalar(self):
        assert loss_mse(np.array([1.0, 3.0]), np.array([0.0, 1.0])) == pytest.approx(2.5)

    def test_gradient_matches_finite_differences(self):
        # Oracle: central finite differences of the scalar loss.
        model = toy_model(seed=2)
        gen = RngHandle(90).generator()
        x = gen.random(16)
        label = gen.random(16)
        grads = backward(model, x, label)
        params = model.parameters()
        h = 1e-5
        probe_gen = RngHandle(91).generator()
        for p, g in zip(params, grads):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for j in probe_gen.choice(flat_p.size, size=min(12, flat_p.size), replace=False):
                orig = flat_p[j]
                flat_p[j] = orig + h
                up = loss_mse(_forward_batch(model, x[None, :])[0], label[None, :])
                flat_p[j] = orig - h
                down = loss_mse(_forward_batch(model, x[None, :])[0], label[None, :])
                flat_p[j] = orig
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(flat_g[j]), 1e-8)
                assert abs(flat_g[j] - fd) / scale < 1e-4

    def test_gradient_scales_with_residual(self):
        # MSE gradients are linear in (pred - label).
        model = toy_model(seed=4)
        gen = RngHandle(92).generator()
        x = gen.random(16)
        pred = _forward_batch(model, x[None, :])[0][0]
        label1 = pred - np.full(16, 0.1)
        label2 = pred - np.full(16, 0.3)
        g1 = backward(model, x, label1)
        g2 = backward(model, x, label2)
        for a, b in zip(g1, g2):
            assert np.allclose(3.0 * a, b, atol=1e-12)

    def test_batch_gradient_averages_samples(self):
        model = toy_model(seed=6)
        gen = RngHandle(93).generator()
        xs = gen.random((4, 16))
        ys = gen.random((4, 16))
        batch_grads = backward(model, xs, ys)
        singles = [backward(model, xs[i], ys[i]) for i in range(4)]
        for k, bg in enumerate(batch_grads):
            mean_g = sum(s[k] for s in singles) / 4.0
            assert np.allclose(bg, mean_g, atol=1e-12)


def _per_layer_adam_reference(model, x, y, cfg):
    """Mini-batch Adam as a loop over the layers' weights and biases, one array at a time."""
    params = model.parameters()
    grads, m, v = (_param_views(model.layer_dims, np.zeros_like(model.flat)) for _ in range(3))
    shuffle_gen = RngHandle(cfg.seed, stream=1).generator()
    step = 0
    for _ in range(cfg.epochs):
        order = shuffle_gen.permutation(len(x))
        for start in range(0, len(x), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            out, pre, post = _forward_batch(model, x[idx] * model.input_scale)
            _backprop(model, out, pre, post, y[idx], grads)
            step += 1
            corr1, corr2 = 1.0 - ADAM_BETA1 ** step, 1.0 - ADAM_BETA2 ** step
            for p, g, m_i, v_i in zip(params, grads, m, v):
                m_i *= ADAM_BETA1
                m_i += (1.0 - ADAM_BETA1) * g
                v_i *= ADAM_BETA2
                v_i += (1.0 - ADAM_BETA2) * g * g
                p -= cfg.learning_rate * (m_i / corr1) / (np.sqrt(v_i / corr2) + ADAM_EPS)
    return model.flat


class TestTraining:
    @pytest.mark.parametrize("batch_size", [4, 13])
    def test_flat_adam_matches_per_layer_reference(self, batch_size):
        gen = RngHandle(98).generator()
        x, y = gen.random((13, 16)), gen.random((13, 16))
        cfg = TrainConfig(batch_size=batch_size, epochs=4, learning_rate=3e-3, seed=2)  # 4 or 16 steps
        models = [build_model(16, input_scale=0.5, seed=5, layer_dims=[16, 8, 4, 8, 16]) for _ in range(3)]
        reference = _per_layer_adam_reference(models[1], x, y, cfg)
        train(models[0], x, y, cfg)
        assert np.array_equal(models[0].flat, reference)
        assert not np.array_equal(models[0].flat, models[2].flat)

    def test_overfits_single_sample(self):
        model = toy_model(seed=1)
        gen = RngHandle(94).generator()
        x = gen.random((1, 16))
        y = gen.random((1, 16))
        result = train(model, x, y, TrainConfig(batch_size=1, epochs=500, seed=0))
        assert result.train_loss[-1] < 1e-4
        assert result.train_loss[-1] < result.train_loss[0]

    def test_train_applies_input_scale(self):
        # One full batch at lr 0: the recorded loss is that of the scaled rows.
        model = build_model(16, input_scale=0.5, seed=1, layer_dims=TOY_DIMS)
        gen = RngHandle(97).generator()
        x, y = gen.random((1, 16)), gen.random((1, 16))
        result = train(model, x, y, TrainConfig(batch_size=1, epochs=1, learning_rate=0.0, seed=0))
        assert result.train_loss[0] == loss_mse(_forward_batch(model, x * 0.5)[0], y)

    def test_zero_learning_rate_freezes_params(self):
        model = toy_model(seed=1)
        before = [p.copy() for p in model.parameters()]
        gen = RngHandle(95).generator()
        train(
            model,
            gen.random((8, 16)),
            gen.random((8, 16)),
            TrainConfig(batch_size=4, epochs=3, learning_rate=0.0, seed=0),
        )
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p, b)

    def test_deterministic(self):
        gen = RngHandle(96).generator()
        xs = gen.random((32, 16))
        ys = gen.random((32, 16))
        cfg = TrainConfig(batch_size=8, epochs=20, seed=7)
        m1 = toy_model(seed=3)
        m2 = toy_model(seed=3)
        r1 = train(m1, xs.copy(), ys.copy(), cfg)
        r2 = train(m2, xs.copy(), ys.copy(), cfg)
        assert r1.train_loss == r2.train_loss
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(a, b)

    def test_divergence_detected(self):
        model = toy_model(seed=1)
        xs = np.ones((4, 16))
        ys = np.full((4, 16), np.inf)
        with pytest.raises(TrainingDivergedError) as info:
            train(model, xs, ys, TrainConfig(batch_size=4, epochs=2, seed=0))
        assert info.value.epoch == 0

    def test_divergence_reported_without_numpy_warnings(self):
        model = toy_model(seed=1)
        gen = RngHandle(99).generator()
        xs, ys = gen.random((8, 16)), gen.random((8, 16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError):
                train(model, xs, ys, TrainConfig(batch_size=4, epochs=20, learning_rate=1e300, seed=0))

    def test_val_loss_recorded(self):
        model = toy_model(seed=1)
        gen = RngHandle(97).generator()
        xs = gen.random((16, 16))
        ys = gen.random((16, 16))
        result = train(
            model,
            xs,
            ys,
            TrainConfig(batch_size=8, epochs=VAL_EVERY + 5, seed=0),
            val_x=xs[:4],
            val_y=ys[:4],
        )
        epochs = [e for e, _ in result.val_loss]
        assert epochs == [0, VAL_EVERY, VAL_EVERY + 4]

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ParameterError, match="learning rate"):
            TrainConfig(learning_rate=lr)

    def test_shape_mismatch_rejected(self):
        model = toy_model()
        with pytest.raises(ParameterError):
            train(model, np.ones((4, 16)), np.ones((4, 8)), TrainConfig(epochs=1))

    def test_empty_val_set_is_no_val_set(self):
        gen = RngHandle(98).generator()
        xs = gen.random((8, 16))
        ys = gen.random((8, 16))
        empty = np.empty((0, 16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = train(
                toy_model(seed=1), xs, ys, TrainConfig(batch_size=4, epochs=2, seed=0),
                val_x=empty, val_y=empty,
            )
        assert result.val_loss == []
        assert len(result.train_loss) == 2

    @pytest.mark.parametrize(
        "shapes, bad",
        [
            pytest.param(((8, 8), (8, 8), None, None), "train_x", id="narrow-train-set"),
            pytest.param(((8, 16), (8, 16), (4, 8), (4, 8)), "val_x", id="narrow-val-x"),
            pytest.param(((8, 16), (8, 16), (4, 16), (4, 8)), "val_y", id="mismatched-val-y"),
            pytest.param(((8, 16), (8, 16), (4, 16), None), "val_y", id="val-x-without-val-y"),
        ],
    )
    def test_bad_arrays_rejected_before_any_update(self, shapes, bad):
        # Each bad array must be named in a ParameterError raised before
        # epoch 0 changes the caller's model.
        model = toy_model(seed=1)
        before = [p.copy() for p in model.parameters()]
        gen = RngHandle(100).generator()
        train_x, train_y, val_x, val_y = (None if s is None else gen.random(s) for s in shapes)
        with pytest.raises(ParameterError, match=bad):
            train(model, train_x, train_y, TrainConfig(batch_size=4, epochs=2, seed=0), val_x=val_x, val_y=val_y)
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p, b)


class TestPredictPdf:
    def test_output_is_valid_pdf(self, trained_model, desk_grid, default_sys):
        from splsim import EnvParams, build_flux

        flux = build_flux(default_sys, EnvParams(4.0, 1.5, 1.0), desk_grid)
        pdf = predict_pdf(trained_model, flux)
        assert pdf.is_pdf()
        assert np.all(pdf.values >= 0.0)

    def test_bin_count_mismatch(self, trained_model):
        grid = TimeGrid(64, 10.0)
        flux = DiscretizedFunction(grid, np.full(64, 0.1))
        with pytest.raises(ParameterError):
            predict_pdf(trained_model, flux)

    def test_degenerate_output(self):
        # A model whose output is forced non-positive cannot be normalized.
        w = np.zeros((16, 16))
        model = AEModel(
            [16, 16],
            weights=[w],
            biases=[np.full(16, -1.0)],
            activations=[ACT_LINEAR],
        )
        grid = TimeGrid(16, 10.0)
        flux = DiscretizedFunction(grid, np.full(16, 0.1))
        with pytest.raises(DegenerateDistributionError):
            predict_pdf(model, flux)


class TestModelIO:
    def test_roundtrip_bit_identical(self, tmp_path):
        model = toy_model(seed=8)
        model.input_scale = 10.0 / 16.0
        path = tmp_path / "m.splae"
        save_model(model, path)
        back = load_model(path)
        assert back.layer_dims == model.layer_dims
        assert back.activations == model.activations
        assert back.input_scale == model.input_scale
        for a, b in zip(back.parameters(), model.parameters()):
            assert np.array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.splae"
        save_model(toy_model(), path)
        raw = bytearray(path.read_bytes())
        raw[:6] = b"NOTMOD"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_model(path)

    def test_corrupted_payload(self, tmp_path):
        path = tmp_path / "m.splae"
        save_model(toy_model(), path)
        raw = bytearray(path.read_bytes())
        raw[50] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.splae"
        save_model(toy_model(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.splae"
        save_model(toy_model(), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("scale", BAD_INPUT_SCALES)
    def test_bad_input_scale(self, tmp_path, scale):
        path = tmp_path / "scaled.splae"
        write_model_file(path, TOY_DIMS, input_scale=scale)
        with pytest.raises(FormatError, match="input scale"):
            load_model(path)
        with pytest.raises(ParameterError):
            build_model(16, input_scale=scale, layer_dims=TOY_DIMS)

    def test_every_header_bit_flip_loads_or_is_format_error(self, tmp_path):
        # A 64-bin header: magic 6, width count 4, five widths 20, four activations 4, scale 8.
        path = tmp_path / "m.splae"
        save_model(build_model(64, input_scale=10.0 / 64, seed=3), path)
        flips = list(header_bit_flips(path.read_bytes(), 42))
        assert len(flips) == 336
        for raw in flips:
            path.write_bytes(raw)
            try:
                load_model(path)
            except FormatError:
                pass

    @pytest.mark.parametrize("dims", HOSTILE_MODEL_DIMS)
    def test_hostile_layer_widths(self, tmp_path, dims):
        path = tmp_path / "hostile.splae"
        write_model_file(path, dims)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Bounded by the file, plus a fixed 64 KiB for raising the error.
        assert peak < 4 * path.stat().st_size + (1 << 16)


class TestParameterVector:
    def test_constructor_copies_caller_arrays(self):
        w = np.arange(12, dtype=float).reshape(3, 4)
        b = np.array([1.0, -1.0, 0.5])
        model = AEModel([4, 3], weights=[w], biases=[b], activations=[ACT_LINEAR])
        x = np.array([0.5, -2.0, 1.0, 3.0])
        expected = w @ x + b
        w[:] = 0.0
        b[:] = 0.0
        assert np.array_equal(_forward_batch(model, x[None, :])[0][0], expected)
        assert np.array_equal(model.flat, np.r_[np.arange(12.0), 1.0, -1.0, 0.5])

    def test_parameters_are_views_of_flat(self):
        # TOY_DIMS layer 1's weight starts after layer 0's 8x16 weight and 8 biases.
        model = toy_model(seed=5)
        x = RngHandle(101).generator().random(16)
        out_before = _forward_batch(model, x[None, :])[0]
        flat_before = model.flat.copy()
        model.parameters()[2][0, 0] += 1.0
        assert model.flat[8 * 16 + 8] == flat_before[8 * 16 + 8] + 1.0
        assert model.weights[1][0, 0] == model.flat[8 * 16 + 8]
        assert np.count_nonzero(model.flat != flat_before) == 1
        assert not np.array_equal(_forward_batch(model, x[None, :])[0], out_before)

    def test_loaded_model_trains(self, tmp_path):
        path = tmp_path / "m.splae"
        save_model(toy_model(seed=6), path)
        model = load_model(path)
        assert model.flat.flags.writeable and model.flat.flags.owndata
        before = model.flat.copy()
        gen = RngHandle(102).generator()
        train(model, gen.random((8, 16)), gen.random((8, 16)), TrainConfig(batch_size=4, epochs=2, seed=0))
        assert not np.array_equal(model.flat, before)

    def test_file_layout(self, tmp_path):
        # Built by hand: magic, width count, widths, activation ids, input
        # scale, each layer's weight then bias as <f8, then the CRC32 of it all.
        gen = RngHandle(103).generator()
        weights = [gen.random((8, 16)), gen.random((16, 8))]
        biases = [gen.random(8), gen.random(16)]
        model = AEModel(TOY_DIMS, weights, biases, [ACT_LEAKY_RELU, ACT_LINEAR], input_scale=0.625)
        body = MODEL_MAGIC + struct.pack("<I", 3) + struct.pack("<3I", 16, 8, 16)
        body += bytes([ACT_LEAKY_RELU, ACT_LINEAR]) + struct.pack("<d", 0.625)
        for w, b in zip(weights, biases):
            body += w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
        path = tmp_path / "m.splae"
        save_model(model, path)
        assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))


class TestDeskModel:
    def test_desk_rmse(self, desk_dataset, trained_model, desk_grid):
        # Post-processed predictions on held-out pairs.
        test_x, test_y = desk_dataset.arrays("test")
        errs = []
        for xi, yi in zip(test_x, test_y):
            flux = DiscretizedFunction(desk_grid, xi)
            pred = predict_pdf(trained_model, flux)
            errs.append(np.mean((pred.values - yi) ** 2))
        rmse = float(np.sqrt(np.mean(errs)))
        assert rmse <= 0.05
