"""Model container tests: manifest/blob parsing, traced forwards, prediction."""

import numpy as np
import pytest

from relprop.errors import BlobError, ChainError, ManifestError, ShapeError, UnknownLayerError
from relprop.model import (
    ForwardTrace,
    LayerParams,
    LayerSpec,
    NetworkModel,
    Preprocessing,
    forward,
    infer_shapes,
    load_model,
    predict_topk,
    save_model,
)
from relprop import tensor

from oracles import naive_conv2d, naive_dense, naive_maxpool, naive_softmax

MINIMAL_MANIFEST = """\
RELPROP-MODEL 1
# a 4x4 grayscale input flattened into a two-class head
input 4 4 1
layer dense in=16 out=2 bias=1
layer softmax
mean 0
pixel_range 0 255
"""


def write_minimal(tmp_path, blob_floats):
    manifest = tmp_path / "model.txt"
    weights = tmp_path / "model.bin"
    manifest.write_text(MINIMAL_MANIFEST)
    weights.write_bytes(np.asarray(blob_floats, dtype="<f4").tobytes())
    return manifest, weights


def dense_softmax_model(w, b=None, input_shape=None, means=None):
    """input -> dense -> softmax built directly from arrays."""
    out, n = w.shape
    if input_shape is None:
        input_shape = (1, n, 1)
    if means is None:
        means = np.zeros(input_shape[2])
    layers = (
        LayerSpec("dense", {"in": n, "out": out, "bias": int(b is not None)}),
        LayerSpec("softmax"),
    )
    return NetworkModel(
        input_shape=input_shape,
        layers=layers,
        params=(LayerParams(w, b), None),
        preprocessing=Preprocessing(means=means, pixel_range=(0.0, 255.0)),
    )


class TestLoadModel:
    def test_minimal_manifest_valid(self, tmp_path):
        """A 4x4x1 input, 16->2 dense head, and softmax consume exactly 34 floats."""
        values = np.arange(34.0)
        manifest, weights = write_minimal(tmp_path, values)
        model = load_model(manifest, weights)
        assert model.input_shape == (4, 4, 1)
        assert [l.kind for l in model.layers] == ["dense", "softmax"]
        assert model.params[0].weights.shape == (2, 16)
        assert model.params[0].bias.shape == (2,)
        assert model.params[0].weights.dtype == np.float64
        np.testing.assert_allclose(model.params[0].weights.reshape(-1), values[:32])
        np.testing.assert_allclose(model.params[0].bias, values[32:])
        assert model.num_classes == 2

    def test_blob_one_float_short(self, tmp_path):
        """A truncated blob reports the expected and actual counts."""
        manifest, weights = write_minimal(tmp_path, np.zeros(33))
        with pytest.raises(BlobError) as err:
            load_model(manifest, weights)
        assert "34" in str(err.value)
        assert str(33 * 4) in str(err.value)

    def test_dense_after_softmax_is_chain_error(self, tmp_path):
        manifest = tmp_path / "model.txt"
        manifest.write_text(
            "RELPROP-MODEL 1\n"
            "input 4 4 1\n"
            "layer dense in=16 out=2 bias=1\n"
            "layer softmax\n"
            "layer dense in=2 out=2 bias=1\n"
            "mean 0\n"
            "pixel_range 0 255\n"
        )
        weights = tmp_path / "model.bin"
        weights.write_bytes(np.zeros(34 + 6, dtype="<f4").tobytes())
        with pytest.raises(ChainError):
            load_model(manifest, weights)

    def test_unknown_layer_kind_names_line(self, tmp_path):
        manifest = tmp_path / "model.txt"
        manifest.write_text(
            "RELPROP-MODEL 1\ninput 4 4 1\nlayer warp\nmean 0\npixel_range 0 255\n"
        )
        weights = tmp_path / "model.bin"
        weights.write_bytes(b"")
        with pytest.raises(UnknownLayerError) as err:
            load_model(manifest, weights)
        assert ":3:" in str(err.value)

    def test_bad_magic(self, tmp_path):
        manifest = tmp_path / "model.txt"
        manifest.write_text("SOME-OTHER-FORMAT 9\ninput 4 4 1\n")
        weights = tmp_path / "model.bin"
        weights.write_bytes(b"")
        with pytest.raises(ManifestError) as err:
            load_model(manifest, weights)
        assert ":1:" in str(err.value)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        manifest = tmp_path / "model.txt"
        manifest.write_text(
            "# leading comment\n\nRELPROP-MODEL 1\ninput 2 2 1  # trailing\n\n"
            "layer dense in=4 out=2 bias=0\nlayer softmax\nmean 0\npixel_range 0 255\n"
        )
        weights = tmp_path / "model.bin"
        weights.write_bytes(np.zeros(8, dtype="<f4").tobytes())
        model = load_model(manifest, weights)
        assert model.input_shape == (2, 2, 1)

    def test_parametric_layer_without_relu_names_its_line(self, tmp_path):
        """A chain whose second conv is fed without relu loads with its relu lines
        and is rejected without them, at the line of that conv."""
        layer_lines = [
            "layer conv2d in=3 out=4 kh=3 kw=3 stride=1 pad=1 bias=1",
            "layer relu",
            "layer maxpool kh=2 kw=2 stride=2",
            "layer conv2d in=4 out=8 kh=3 kw=3 stride=1 pad=1 bias=1",
            "layer relu",
            "layer maxpool kh=2 kw=2 stride=2",
            "layer flatten",
            "layer dense in=32 out=6 bias=1",
            "layer relu",
            "layer dense in=6 out=3 bias=1",
            "layer softmax",
        ]
        weights = tmp_path / "model.bin"
        weights.write_bytes(np.zeros(112 + 296 + 198 + 21, dtype="<f4").tobytes())
        manifest = tmp_path / "model.txt"
        for lines in (layer_lines, [line for line in layer_lines if line != "layer relu"]):
            header, footer = ["RELPROP-MODEL 1", "input 8 8 3"], ["mean 0 0 0", "pixel_range 0 255"]
            manifest.write_text("\n".join(header + lines + footer))
            if "layer relu" in lines:
                assert load_model(manifest, weights).num_classes == 3
        with pytest.raises(ChainError) as err:
            load_model(manifest, weights)
        assert f"{manifest}:5:" in str(err.value) and "conv2d" in str(err.value)

    def test_save_load_blob_round_trip(self, tmp_path):
        """Reserializing a loaded model reproduces the weight blob byte for byte."""
        rng = np.random.default_rng(42)
        manifest, weights = write_minimal(tmp_path, rng.normal(size=34).astype("<f4"))
        model = load_model(manifest, weights)
        manifest2 = tmp_path / "again.txt"
        weights2 = tmp_path / "again.bin"
        save_model(model, manifest2, weights2)
        assert weights2.read_bytes() == weights.read_bytes()
        reloaded = load_model(manifest2, weights2)
        np.testing.assert_array_equal(reloaded.params[0].weights, model.params[0].weights)


class TestChainValidation:
    def test_infer_shapes_conv_chain(self):
        layers = [
            LayerSpec("conv2d", {"in": 3, "out": 4, "kh": 3, "kw": 3, "stride": 1, "pad": 1, "bias": 1}),
            LayerSpec("relu"),
            LayerSpec("maxpool", {"kh": 2, "kw": 2, "stride": 2}),
            LayerSpec("flatten"),
            LayerSpec("dense", {"in": 64, "out": 5, "bias": 1}),
            LayerSpec("softmax"),
        ]
        shapes = infer_shapes((8, 8, 3), layers)
        assert shapes == [(8, 8, 4), (8, 8, 4), (4, 4, 4), (64,), (5,), (5,)]

    def test_dense_size_mismatch(self):
        layers = [LayerSpec("dense", {"in": 10, "out": 2, "bias": 0}), LayerSpec("softmax")]
        with pytest.raises(ChainError) as err:
            infer_shapes((2, 2, 1), layers)
        assert "layer 0" in str(err.value)

    def test_softmax_must_be_last(self):
        layers = [
            LayerSpec("dense", {"in": 4, "out": 2, "bias": 0}),
            LayerSpec("softmax"),
            LayerSpec("relu"),
        ]
        with pytest.raises(ChainError):
            infer_shapes((1, 4, 1), layers)

    def test_missing_layer_parameter_rejected(self):
        with pytest.raises(ManifestError):
            LayerSpec("conv2d", {"in": 3, "out": 4})

    def test_model_must_end_dense_softmax(self):
        with pytest.raises(ChainError):
            NetworkModel(
                input_shape=(1, 2, 1),
                layers=(LayerSpec("flatten"), LayerSpec("softmax")),
                params=(None, None),
                preprocessing=Preprocessing(means=np.zeros(1), pixel_range=(0.0, 255.0)),
            )


class TestForward:
    def test_dense_identity_logits(self):
        """Identity weights pass [1,2] through as the logits."""
        model = dense_softmax_model(np.eye(2), input_shape=(1, 2, 1))
        trace = forward(model, np.array([1.0, 2.0]).reshape(1, 2, 1))
        np.testing.assert_allclose(trace.logits, [1.0, 2.0])
        np.testing.assert_allclose(trace.probabilities, naive_softmax([1.0, 2.0]))

    def test_probabilities_sum_to_one(self):
        """Probabilities land in (0,1) and sum to 1 within 1e-12 on random inputs.

        Weights are scaled so logit gaps stay inside the range where float64
        softmax is strictly inside (0,1); beyond ~745 nats it saturates.
        """
        rng = np.random.default_rng(42)
        model = dense_softmax_model(0.001 * rng.normal(size=(4, 6)), input_shape=(2, 3, 1))
        for _ in range(50):
            trace = forward(model, rng.uniform(0, 255, size=(2, 3, 1)))
            p = trace.probabilities
            assert np.all(p > 0) and np.all(p < 1)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_conv_model_matches_oracle_composition(self):
        """A conv/pool/dense chain equals the composed naive kernels within 1e-10."""
        rng = np.random.default_rng(42)
        conv_w = rng.normal(size=(2, 3, 3, 3))
        conv_b = rng.normal(size=2)
        dense_w = rng.normal(size=(3, 8))
        dense_b = rng.normal(size=3)
        model = NetworkModel(
            input_shape=(4, 4, 3),
            layers=(
                LayerSpec("conv2d", {"in": 3, "out": 2, "kh": 3, "kw": 3, "stride": 1, "pad": 1, "bias": 1}),
                LayerSpec("relu"),
                LayerSpec("maxpool", {"kh": 2, "kw": 2, "stride": 2}),
                LayerSpec("flatten"),
                LayerSpec("dense", {"in": 8, "out": 3, "bias": 1}),
                LayerSpec("softmax"),
            ),
            params=(
                LayerParams(conv_w, conv_b),
                None,
                None,
                None,
                LayerParams(dense_w, dense_b),
                None,
            ),
            preprocessing=Preprocessing(means=np.zeros(3), pixel_range=(0.0, 255.0)),
        )
        x = rng.uniform(0, 255, size=(4, 4, 3))
        trace = forward(model, x)
        a = np.maximum(naive_conv2d(x, conv_w, conv_b, 1, 1), 0.0)
        pooled, _ = naive_maxpool(a, 2, 2, 2)
        logits = naive_dense(pooled.reshape(-1), dense_w, dense_b)
        np.testing.assert_allclose(trace.logits, logits, rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            trace.probabilities, naive_softmax(logits), rtol=0, atol=1e-10
        )

    def test_trace_replay_is_bit_identical(self):
        """Re-running each layer on its recorded input reproduces its output exactly."""
        rng = np.random.default_rng(1)
        conv_w = rng.normal(size=(2, 1, 2, 2))
        dense_w = rng.normal(size=(2, 8))
        model = NetworkModel(
            input_shape=(4, 4, 1),
            layers=(
                LayerSpec("conv2d", {"in": 1, "out": 2, "kh": 2, "kw": 2, "stride": 2, "pad": 0, "bias": 0}),
                LayerSpec("relu"),
                LayerSpec("flatten"),
                LayerSpec("dense", {"in": 8, "out": 2, "bias": 0}),
                LayerSpec("softmax"),
            ),
            params=(LayerParams(conv_w, None), None, None, LayerParams(dense_w, None), None),
            preprocessing=Preprocessing(means=np.zeros(1), pixel_range=(0.0, 255.0)),
        )
        trace = forward(model, rng.uniform(0, 255, size=(4, 4, 1)))
        assert len(trace.entries) == len(model.layers)
        for layer, lp, entry in zip(model.layers, model.params, trace.entries):
            p = layer.params
            if layer.kind == "conv2d":
                replay = tensor.conv2d_forward(
                    entry.input, lp.weights, np.zeros(p["out"]), p["stride"], p["pad"]
                )
            elif layer.kind == "relu":
                replay = tensor.relu(entry.input)
            elif layer.kind == "flatten":
                replay = tensor.flatten(entry.input)
            elif layer.kind == "dense":
                replay = tensor.dense_forward(entry.input, lp.weights, np.zeros(p["out"]))
            else:
                replay = tensor.softmax(entry.input)
            np.testing.assert_array_equal(replay, entry.output)

    def test_forward_determinism(self):
        """Two forwards on one input agree bit for bit."""
        rng = np.random.default_rng(9)
        model = dense_softmax_model(rng.normal(size=(3, 4)), input_shape=(1, 4, 1))
        x = rng.uniform(0, 255, size=(1, 4, 1))
        t1 = forward(model, x)
        t2 = forward(model, x)
        np.testing.assert_array_equal(t1.probabilities, t2.probabilities)
        np.testing.assert_array_equal(t1.logits, t2.logits)

    def test_mean_subtraction_flag(self):
        """preprocessed=False shifts the input by the per-channel means first."""
        w = np.eye(2)
        model = dense_softmax_model(
            w, input_shape=(1, 2, 1), means=np.array([10.0])
        )
        raw = np.array([30.0, 50.0]).reshape(1, 2, 1)
        shifted = forward(model, raw, preprocessed=False)
        np.testing.assert_allclose(shifted.logits, [20.0, 40.0])

    def test_wrong_shape_raises(self):
        model = dense_softmax_model(np.eye(2), input_shape=(1, 2, 1))
        with pytest.raises(ShapeError):
            forward(model, np.zeros((2, 2, 1)))

    def test_stack_rows_are_single_forwards(self):
        """A [3, H, W, C] stack gives one probability row per image."""
        rng = np.random.default_rng(11)
        model = dense_softmax_model(0.01 * rng.normal(size=(3, 4)), input_shape=(2, 2, 1))
        stack = rng.uniform(0, 255, size=(3, 2, 2, 1))
        probs = forward(model, stack, preprocessed=False).probabilities
        assert probs.shape == (3, 3)
        for k in range(3):
            single = forward(model, stack[k], preprocessed=False).probabilities
            np.testing.assert_array_equal(probs[k], single)

    def test_stack_with_one_non_finite_image_raises(self):
        model = dense_softmax_model(np.eye(2), input_shape=(1, 2, 1))
        stack = np.zeros((4, 1, 2, 1))
        stack[2, 0, 1, 0] = np.nan
        with pytest.raises(ShapeError, match="non-finite"):
            forward(model, stack)

    def test_stack_of_wrong_image_shape_raises(self):
        model = dense_softmax_model(np.eye(2), input_shape=(1, 2, 1))
        for bad in (np.zeros((3, 2, 2, 1)), np.zeros((2, 3, 1, 2, 1)), np.zeros((0, 1, 2, 1))):
            with pytest.raises(ShapeError):
                forward(model, bad)

    def test_stacked_trace_has_no_single_prediction(self):
        """Only the probabilities of a stacked trace are meaningful; reading a
        prediction from it is a shape error, not the argmax of the flat stack."""
        model = dense_softmax_model(np.eye(2), input_shape=(1, 2, 1))
        trace = forward(model, np.array([[1.0, 2.0], [2.0, 1.0]]).reshape(2, 1, 2, 1))
        with pytest.raises(ShapeError):
            trace.prediction
        with pytest.raises(ShapeError):
            predict_topk(trace, 1)


class TestPredictTopk:
    def _trace_with_probs(self, probs):
        """Build a real trace whose softmax output equals `probs` by seeding logits."""
        logits = np.log(np.asarray(probs, dtype=np.float64))
        model = dense_softmax_model(np.eye(len(probs)), input_shape=(1, len(probs), 1))
        return forward(model, logits.reshape(1, len(probs), 1))

    def test_descending_pairs(self):
        """[0.1,0.7,0.2] at k=2 yields [(1,0.7),(2,0.2)]."""
        trace = self._trace_with_probs([0.1, 0.7, 0.2])
        got = predict_topk(trace, 2)
        assert [cls for cls, _ in got] == [1, 2]
        np.testing.assert_allclose([p for _, p in got], [0.7, 0.2], atol=1e-12)

    def test_tie_takes_lower_class(self):
        """[0.5,0.5] at k=1 reports class 0."""
        trace = self._trace_with_probs([0.5, 0.5])
        got = predict_topk(trace, 1)
        assert got[0][0] == 0
        assert abs(got[0][1] - 0.5) <= 1e-12

    def test_k_out_of_range(self):
        trace = self._trace_with_probs([0.5, 0.5])
        with pytest.raises(ShapeError):
            predict_topk(trace, 3)
        with pytest.raises(ShapeError):
            predict_topk(trace, 0)
