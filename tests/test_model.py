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
    TRACE_LIMIT_BYTES,
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
DENSE_LINE = "layer dense in=16 out=2 bias=1\n"  # line 4 of MINIMAL_MANIFEST


# Layers and parameters of the directly built models in TestChainValidation.
DENSE_2x4, DENSE_2x2, RELU, SOFTMAX = (
    LayerSpec("dense", {"in": 4, "out": 2, "bias": 0}), LayerSpec("dense", {"in": 2, "out": 2, "bias": 0}),
    LayerSpec("relu"), LayerSpec("softmax"),
)
W_2x4, W_2x2 = LayerParams(np.zeros((2, 4)), None), LayerParams(np.zeros((2, 2)), None)


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# c\n\nRELPROP-MODEL 2\ninput 4 4 1\n", ":3: expected magic line 'RELPROP-MODEL 1'"),
            ("# c\n", ":1: expected magic line 'RELPROP-MODEL 1'"),
            ("RELPROP-MODEL 1\n\n# c\nlayer relu\n", ":4: second entry must be 'input H W C'"),
            ("\nRELPROP-MODEL 1\n", ":2: second entry must be 'input H W C'"),
            (MINIMAL_MANIFEST.replace("input 4 4 1", "input 4 4"), ":3: input needs exactly H W C"),
            (MINIMAL_MANIFEST.replace("input 4 4 1", "input a b c"), ":3: non-integer input extent"),
            (MINIMAL_MANIFEST.replace("layer softmax", "layer"), ":5: layer line missing kind"),
            (MINIMAL_MANIFEST.replace(DENSE_LINE, "layer maxpool kh=1 kw=1 stride=0\n" + DENSE_LINE),
             ":4: layer maxpool: stride=0 out of range"),
            (MINIMAL_MANIFEST.replace("bias=1", "bias=2"), ":4: layer dense: bias must be 0 or 1"),
            (MINIMAL_MANIFEST.replace(DENSE_LINE, "layer maxpool kh=2 kw=2 stride=2 kh=2\n" + DENSE_LINE),
             ":4: repeated parameter 'kh=2'"),
            (MINIMAL_MANIFEST.replace("bias=1", "bias=1 bias=0"), ":4: repeated parameter 'bias=0'"),
            (MINIMAL_MANIFEST.replace("input 4 4 1", "input 4_0 +4 1"), ":3: non-integer input extent"),
            (MINIMAL_MANIFEST.replace(DENSE_LINE, "layer maxpool kh=1 kw=1 stride=\uff12\n" + DENSE_LINE),
             ":4: non-integer value in 'stride=\uff12'"),
            (MINIMAL_MANIFEST.replace(DENSE_LINE, "layer conv2d in=1 out=1 kh=1 kw=1 stride=1 pad=-1 bias=0\n"
                                      + DENSE_LINE), ":4: layer conv2d: pad=-1 out of range"),
        ],
    )
    def test_magic_and_input_errors_name_their_line(self, tmp_path, text, message):
        """A bad first or second entry names its own line, past comments and blank
        lines; an empty manifest names line 1, and one that stops at its magic line
        names that line. A malformed input or layer line (an integer that is not ASCII digits
        after an optional minus, or a parameter given twice), or a value out of range, names
        that line too."""
        manifest = tmp_path / "model.txt"
        manifest.write_text(text)
        weights = tmp_path / "model.bin"
        weights.write_bytes(b"")
        with pytest.raises(ManifestError) as err:
            load_model(manifest, weights)
        assert str(err.value) == f"{manifest}{message}"

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

    def test_preprocessing_errors_name_their_line(self, tmp_path):
        """A mean line whose length is not the channel count or that is not
        numeric, a pixel_range whose lower bound exceeds its upper or that has one
        value, a second mean, a pixel_range ahead of the mean, and a layer after
        the mean or the pixel_range are rejected
        naming the manifest and line; a missing pixel_range names the manifest only."""
        _, weights = write_minimal(tmp_path, np.zeros(34))
        manifest = tmp_path / "bad.txt"
        cases = {
            ("mean 0", "mean 1 2"): ":6: mean entries 2 != input channels 1",
            ("mean 0", "mean a"): ":6: non-numeric mean",
            ("mean 0", "mean 1_0"): ":6: non-numeric mean",
            ("pixel_range 0 255", "pixel_range 0 \uff12\uff15\uff15"): ":7: non-numeric pixel_range",
            ("pixel_range 0 255", "pixel_range 255 0"): ":7: pixel_range lower bound 255.0 exceeds upper 0.0",
            ("pixel_range 0 255", "pixel_range 0"): ":7: pixel_range needs two values",
            ("mean 0\n", "mean 0\nmean 0\n"): ":7: duplicate mean line",
            ("mean 0\n", "mean 0\nlayer relu\n"): ":7: layer after mean line",
            ("pixel_range 0 255\n", "pixel_range 0 255\nlayer relu\n"): ":8: layer after pixel_range line",
            ("mean 0\npixel_range 0 255\n", "pixel_range 0 255\nmean 0\n"):
                ":6: pixel_range must follow mean",
            ("pixel_range 0 255\n", ""): ": missing mean or pixel_range line",
        }
        for (good, bad), message in cases.items():
            manifest.write_text(MINIMAL_MANIFEST.replace(good, bad))
            with pytest.raises(ManifestError) as err:
                load_model(manifest, weights)
            assert str(err.value) == f"{manifest}{message}"

    @pytest.mark.parametrize(
        "good, bad, message",
        [
            (DENSE_LINE, "layer softmax\n" + DENSE_LINE, ":4: layer 0 (softmax): softmax must be the final layer"),
            (DENSE_LINE, "layer maxpool kh=3 kw=3 stride=2\n" + DENSE_LINE,
             ":4: layer 0 (maxpool): maxpool: window 3x3 stride=2 does not tile 4x4"),
            ("input 4 4 1", "input 0 4 1", ":3: input shape (0, 4, 1) must be three positive extents"),
            ("layer softmax\n", "", ": model must end with a dense layer followed by softmax"),
            (DENSE_LINE, "layer flatten\nlayer conv2d in=1 out=1 kh=1 kw=1 stride=1 pad=0 bias=1\n"
             "layer dense in=16 out=2 bias=0\n", ":5: layer 1 (conv2d): needs [H,W,C] input, has (16,)"),
            (DENSE_LINE, "layer conv2d in=2 out=1 kh=1 kw=1 stride=1 pad=0 bias=0\n"
             "layer dense in=16 out=2 bias=0\n", ":4: layer 0 (conv2d): expects 2 channels, input has 1"),
            ("input 4 4 1\n" + DENSE_LINE,
             "input 20000 20000 1\nlayer maxpool kh=5000 kw=5000 stride=5000\n" + DENSE_LINE,
             ":3: input shape (20000, 20000, 1): one image's trace needs 3200000160 float64 bytes,"
             " over the 1073741824-byte limit"),
        ],
        ids=["softmax-inside", "pool-tiling", "input-zero", "no-tail", "conv-after-flatten",
             "conv-channels", "trace-oversized"],
    )
    def test_chain_errors_name_the_line_at_fault(self, tmp_path, good, bad, message):
        """A softmax inside the chain, a pool that does not tile, a conv after a
        flatten or with the wrong channel count, a zero input extent, and an input
        whose one-image trace would pass the size limit (told from the shapes, with
        nothing allocated) are rejected naming the manifest and the line of that
        layer or of the input; an error about the chain as a whole names the
        manifest only. (Each bad chain keeps the blob's 34 values.)"""
        _, weights = write_minimal(tmp_path, np.zeros(34))
        manifest = tmp_path / "bad.txt"
        manifest.write_text(MINIMAL_MANIFEST.replace(good, bad))
        with pytest.raises(ChainError) as err:
            load_model(manifest, weights)
        assert str(err.value) == f"{manifest}{message}"

    def test_non_finite_parameter_names_the_blob_and_the_layer_line(self, tmp_path):
        """A NaN in the blob names the blob file, then the manifest line of the layer it feeds."""
        manifest, weights = write_minimal(tmp_path, np.r_[np.zeros(5), np.nan, np.zeros(28)])
        with pytest.raises(BlobError) as err:
            load_model(manifest, weights)
        assert str(err.value) == f"{weights}: {manifest}:4: layer 0 (dense): non-finite parameters"

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

    def test_loaded_parameters_are_frozen(self, tmp_path):
        """The relevance rules' per-model constants derive from the weights, so
        a loaded model refuses in-place writes to any weight or bias, and load
        itself builds none of those constants."""
        manifest, weights = write_minimal(tmp_path, np.arange(34.0))
        model = load_model(manifest, weights)
        for array in (model.params[0].weights, model.params[0].bias):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.params[0].weights += 1.0
        assert model.rule_constants == {}


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

    def test_softmax_needs_a_1d_input(self):
        with pytest.raises(ChainError, match=r"layer 0 \(softmax\): needs a 1-D input, has \(2, 2, 1\)"):
            infer_shapes((2, 2, 1), [LayerSpec("softmax")])

    def test_weightless_layer_has_no_weight_shape(self):
        with pytest.raises(ShapeError, match="layer relu has no weights"):
            LayerSpec("relu").weight_shape()

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

    @pytest.mark.parametrize(
        "layers, params, error, message, where",
        [
            ((DENSE_2x4, SOFTMAX), (W_2x4,), ChainError, "one parameter slot per layer required", None),
            ((RELU, DENSE_2x4, SOFTMAX), (W_2x4, W_2x4, None), ChainError,
             "layer 0 (relu) cannot carry parameters", 0),
            ((DENSE_2x4, SOFTMAX), (None, None), ChainError, "layer 0 (dense) is missing parameters", 0),
            ((DENSE_2x4, SOFTMAX), (LayerParams(np.zeros((2, 3)), None), None), ShapeError,
             "layer 0 (dense): weights (2, 3) != (2, 4)", 0),
            ((DENSE_2x4, SOFTMAX), (LayerParams(np.zeros((2, 4)), np.zeros(2)), None), ChainError,
             "layer 0 (dense): bias presence mismatch", 0),
            ((LayerSpec("dense", {"in": 4, "out": 2, "bias": 1}), SOFTMAX),
             (LayerParams(np.zeros((2, 4)), np.ones(5)), None), ShapeError,
             "layer 0 (dense): bias (5,) != (2,)", 0),
            ((DENSE_2x4, DENSE_2x2, SOFTMAX), (W_2x4, W_2x2, None), ChainError,
             "dense layer not fed through relu", 1),
        ],
        ids=["slot-count", "params-on-relu", "missing-params", "weight-shape", "bias-mismatch",
             "bias-shape", "not-fed"],
    )
    def test_directly_built_model_errors_name_the_layer(self, layers, params, error, message, where):
        """A NetworkModel built directly checks its parameter slots, weight and
        bias shapes included, against its layers, and that each parametric
        layer after the first is fed through a relu, as a loaded one is; an
        error about one layer carries that layer's index, which load_model
        turns into its manifest line."""
        with pytest.raises(error) as err:
            NetworkModel((1, 4, 1), layers, params, Preprocessing(np.zeros(1), (0.0, 255.0)))
        assert type(err.value) is error and str(err.value) == message and err.value.where == where

    def test_trace_limit_is_inclusive(self):
        """A model whose one-image trace is exactly TRACE_LIMIT_BYTES builds; one row more, 24 bytes
        over, is rejected naming its input. Input (n, 1, 1) > 1x1 conv > relu > a pool over the
        column > dense 1->2 > softmax traces 8 * (3n + 5) bytes, 2**30 at n = 44739241; the check
        reads shapes only, so no array of that size is allocated."""

        def build(n):
            layers = (
                LayerSpec("conv2d", {"in": 1, "out": 1, "kh": 1, "kw": 1, "stride": 1, "pad": 0, "bias": 0}),
                RELU,
                LayerSpec("maxpool", {"kh": n, "kw": 1, "stride": 1}),
                LayerSpec("dense", {"in": 1, "out": 2, "bias": 0}),
                SOFTMAX,
            )
            params = (LayerParams(np.ones((1, 1, 1, 1)), None), None, None, LayerParams(np.ones((2, 1)), None), None)
            return NetworkModel((n, 1, 1), layers, params, Preprocessing(np.zeros(1), (0.0, 255.0)))

        assert 8 * (3 * 44739241 + 5) == TRACE_LIMIT_BYTES
        assert build(44739241).num_classes == 2
        with pytest.raises(ChainError) as err:
            build(44739242)
        assert err.value.where == "input" and f"needs {TRACE_LIMIT_BYTES + 24} float64 bytes" in str(err.value)


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

    @staticmethod
    def _conv_flatten_model(rng):
        """4x4x1 > 2x2 conv, stride 2 > relu > flatten > dense 8 to 2 > softmax, bias-free."""
        conv_w = rng.normal(size=(2, 1, 2, 2))
        dense_w = rng.normal(size=(2, 8))
        return NetworkModel(
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

    def test_trace_replay_is_bit_identical(self):
        """Re-running each layer on its recorded input reproduces its output exactly."""
        rng = np.random.default_rng(1)
        model = self._conv_flatten_model(rng)
        trace = forward(model, rng.uniform(0, 255, size=(4, 4, 1)))
        assert len(trace.activations) == len(model.layers) + 1
        acts = trace.activations
        for layer, lp, x, y in zip(model.layers, model.params, acts, acts[1:]):
            p = layer.params
            if layer.kind == "conv2d":
                replay = tensor.conv2d_forward(x, lp.weights, np.zeros(p["out"]), p["stride"], p["pad"])
            elif layer.kind == "relu":
                replay = np.maximum(x, 0.0)
            elif layer.kind == "flatten":
                replay = x.reshape(-1)
            elif layer.kind == "dense":
                replay = tensor.dense_forward(x, lp.weights, np.zeros(p["out"]))
            else:
                replay = tensor.softmax(x)
            np.testing.assert_array_equal(replay, y)

    def test_flatten_is_a_row_major_view_of_the_activation_before_it(self):
        """A flatten layer's trace entry is the row-major flatten of each image's
        activation before it, and shares its memory: for one image, for a full
        stacked forward, and for an incremental forward whose edits reach every
        position, so that the flatten reads the last crop itself."""
        rng = np.random.default_rng(1)
        model = self._conv_flatten_model(rng)
        image = rng.uniform(0, 255, size=(4, 4, 1))
        stack = np.stack([image, image])
        stack[0, 0, 0], stack[1, 3, 3] = 0.0, 1.0
        traces = (forward(model, image), forward(model, stack), forward(model, stack, base=forward(model, image)))
        for trace, lead in zip(traces, ((), (2,), (2,))):
            before, flat = trace.activations[2:4]
            assert flat.shape == lead + (8,) and flat.tobytes() == before.tobytes()
            assert np.shares_memory(flat, before)

    def test_forward_determinism(self):
        """Two forwards on one input agree bit for bit."""
        rng = np.random.default_rng(9)
        model = dense_softmax_model(rng.normal(size=(3, 4)), input_shape=(1, 4, 1))
        x = rng.uniform(0, 255, size=(1, 4, 1))
        t1 = forward(model, x)
        t2 = forward(model, x)
        np.testing.assert_array_equal(t1.probabilities, t2.probabilities)
        np.testing.assert_array_equal(t1.logits, t2.logits)

    def test_input_taken_as_is(self):
        """forward reads the model input as given: the means are preprocess's to subtract."""
        model = dense_softmax_model(np.eye(2), input_shape=(1, 2, 1), means=np.array([10.0]))
        trace = forward(model, np.array([30.0, 50.0]).reshape(1, 2, 1))
        np.testing.assert_array_equal(trace.logits, [30.0, 50.0])

    def test_layer_error_names_the_layer(self):
        """A finite image whose logits overflow is a ShapeError naming the layer
        whose output is not finite."""
        model = dense_softmax_model(np.full((2, 4), 1e308), input_shape=(1, 4, 1))
        with np.errstate(over="ignore"), pytest.raises(ShapeError) as err:
            forward(model, np.full((1, 4, 1), 255.0))
        assert str(err.value) == "layer 0 (dense): dense output: non-finite values present"

    def test_wrong_shape_raises(self):
        model = dense_softmax_model(np.eye(2), input_shape=(1, 2, 1))
        with pytest.raises(ShapeError):
            forward(model, np.zeros((2, 2, 1)))

    def test_stack_rows_are_single_forwards(self):
        """A [3, H, W, C] stack gives one probability row per image."""
        rng = np.random.default_rng(11)
        model = dense_softmax_model(0.01 * rng.normal(size=(3, 4)), input_shape=(2, 2, 1))
        stack = rng.uniform(0, 255, size=(3, 2, 2, 1))
        probs = forward(model, stack).probabilities
        assert probs.shape == (3, 3)
        for k in range(3):
            single = forward(model, stack[k]).probabilities
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
        """[0.5,0.5] at k=1 reports class 0. Over 20 classes in three tied groups,
        k=20 lists each group in ascending class order, which an unstable sort
        (numpy's quicksort, for one) does not keep."""
        trace = self._trace_with_probs([0.5, 0.5])
        got = predict_topk(trace, 1)
        assert got[0][0] == 0
        assert abs(got[0][1] - 0.5) <= 1e-12
        weights = [(7 * i) % 3 + 1 for i in range(20)]
        trace = self._trace_with_probs(np.array(weights) / sum(weights))
        got = [cls for cls, _ in predict_topk(trace, 20)]
        assert got == sorted(range(20), key=lambda i: (-weights[i], i))

    def test_k_out_of_range(self):
        trace = self._trace_with_probs([0.5, 0.5])
        with pytest.raises(ShapeError):
            predict_topk(trace, 3)
        with pytest.raises(ShapeError):
            predict_topk(trace, 0)
