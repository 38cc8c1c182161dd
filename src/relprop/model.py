"""Network description, weight loading, and traced forward passes.

A model is a linear chain of layers described by a small text manifest plus a
raw little-endian float32 weight blob. The manifest format:

    RELPROP-MODEL 1
    input H W C
    layer conv2d in=3 out=8 kh=3 kw=3 stride=1 pad=1 bias=1
    layer relu
    layer maxpool kh=2 kw=2 stride=2
    layer flatten
    layer dense in=128 out=10 bias=1
    layer softmax
    mean 103.939 116.779 123.68
    pixel_range 0 255

The text must be UTF-8; blank lines and `#` comments are ignored. An error in
a manifest line, or about the input, layer or mean it declares, names that line
(a non-finite parameter names the blob file, then its layer's line). Every
conv2d or dense layer after the first must be fed through a relu, with maxpool
or flatten allowed between, so that the relevance rules see non-negative
activations. The blob is the
concatenation, in manifest order, of each parametric layer's weights then bias
(if bias=1), with no header. It is promoted to float64 once, in one read-only
buffer of which every weight and bias is a view.

A model whose one-image forward trace (the input plus every layer's output, in
float64) would exceed TRACE_LIMIT_BYTES, 1 GiB, is rejected naming its input
line, so that no explain or evaluation of it fails allocating that trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import tensor
from .errors import BlobError, ChainError, ManifestError, RelpropError, ShapeError, UnknownLayerError

MAGIC = "RELPROP-MODEL 1"
TRACE_LIMIT_BYTES = 2**30
DIRECTIVES = ("input", "layer", "mean", "pixel_range")  # in manifest order; only layer repeats

_LAYER_KEYS = {  # in the order save_model writes them
    "conv2d": ("in", "out", "kh", "kw", "stride", "pad", "bias"),
    "maxpool": ("kh", "kw", "stride"),
    "dense": ("in", "out", "bias"),
    "relu": (),
    "flatten": (),
    "softmax": (),
}


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the chain: a kind plus its integer parameters."""

    kind: str
    params: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _LAYER_KEYS:
            raise UnknownLayerError(f"unknown layer kind {self.kind!r}")
        expected = set(_LAYER_KEYS[self.kind])
        got = set(self.params)
        if got != expected:
            raise ManifestError(
                f"layer {self.kind}: parameters {sorted(got)} != required {sorted(expected)}"
            )
        for key, value in self.params.items():
            low = 0 if key in ("pad", "bias") else 1
            if value < low:
                raise ManifestError(f"layer {self.kind}: {key}={value} out of range")
        if self.params.get("bias", 0) not in (0, 1):
            raise ManifestError(f"layer {self.kind}: bias must be 0 or 1")

    @property
    def has_bias(self) -> bool:
        return bool(self.params.get("bias", 0))

    @property
    def is_parametric(self) -> bool:
        return self.kind in ("conv2d", "dense")

    def weight_shape(self) -> tuple[int, ...]:
        p = self.params
        if self.kind == "conv2d":
            return (p["out"], p["in"], p["kh"], p["kw"])
        if self.kind == "dense":
            return (p["out"], p["in"])
        raise ShapeError(f"layer {self.kind} has no weights")


@dataclass(frozen=True)
class Preprocessing:
    """Per-channel dataset means and the raw pixel value range."""

    means: np.ndarray
    pixel_range: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.pixel_range
        if not lo <= hi:
            raise ManifestError(f"pixel_range lower bound {lo} exceeds upper {hi}")


@dataclass(frozen=True)
class LayerParams:
    weights: np.ndarray
    bias: np.ndarray | None


def infer_shapes(
    input_shape: tuple[int, int, int], layers: list[LayerSpec]
) -> list[tuple[int, ...]]:
    """Shape after each layer; raises ChainError on any incompatibility."""
    shapes: list[tuple[int, ...]] = []
    current: tuple[int, ...] = input_shape
    for i, layer in enumerate(layers):
        name = f"layer {i} ({layer.kind})"
        p = layer.params
        if i < len(layers) - 1 and layer.kind == "softmax":
            raise ChainError(f"{name}: softmax must be the final layer", i)
        if layer.kind in ("conv2d", "maxpool") and len(current) != 3:
            raise ChainError(f"{name}: needs [H,W,C] input, has {current}", i)
        if layer.kind == "conv2d" and current[2] != p["in"]:
            raise ChainError(f"{name}: expects {p['in']} channels, input has {current[2]}", i)
        try:
            if layer.kind == "conv2d":
                extent = tensor.conv_extent(*current[:2], p["kh"], p["kw"], p["stride"], p["pad"])
                current = (*extent, p["out"])
            elif layer.kind == "maxpool":
                extent = tensor.pool_extent(*current[:2], p["kh"], p["kw"], p["stride"])
                current = (*extent, current[2])
        except ShapeError as exc:
            raise ChainError(f"{name}: {exc}", i) from exc
        if layer.kind == "dense":
            n = math.prod(current)
            if n != p["in"]:
                raise ChainError(f"{name}: expects {p['in']} inputs, chain provides {n}", i)
            current = (p["out"],)
        elif layer.kind == "flatten":
            current = (math.prod(current),)
        elif layer.kind == "softmax":
            if len(current) != 1:
                raise ChainError(f"{name}: needs a 1-D input, has {current}", i)
        shapes.append(current)
    return shapes


@dataclass(frozen=True)
class NetworkModel:
    """A validated layer chain with loaded parameters and preprocessing record. They must not
    change after the first explain caches rule_terms from them in rule_constants (load_model freezes them).
    shapes, derived here, is every activation's one source of shape: the input's, then each layer's."""

    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]
    params: tuple[LayerParams | None, ...]
    preprocessing: Preprocessing
    shapes: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    rule_constants: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise ChainError(f"input shape {self.input_shape} must be three positive extents", "input")
        if len(self.layers) < 2 or self.layers[-1].kind != "softmax" or self.layers[-2].kind != "dense":
            raise ChainError("model must end with a dense layer followed by softmax")
        if len(self.params) != len(self.layers):
            raise ChainError("one parameter slot per layer required")
        shapes = (self.input_shape, *infer_shapes(self.input_shape, list(self.layers)))
        object.__setattr__(self, "shapes", shapes)
        trace_bytes = 8 * sum(map(math.prod, shapes))
        if trace_bytes > TRACE_LIMIT_BYTES:
            raise ChainError(f"input shape {self.input_shape}: one image's trace needs {trace_bytes}"
                             f" float64 bytes, over the {TRACE_LIMIT_BYTES}-byte limit", "input")
        for i, (layer, lp) in enumerate(zip(self.layers, self.params)):
            name = f"layer {i} ({layer.kind})"
            if not layer.is_parametric:
                if lp is not None:
                    raise ChainError(f"{name} cannot carry parameters", i)
                continue
            if lp is None:
                raise ChainError(f"{name} is missing parameters", i)
            if lp.weights.shape != layer.weight_shape():
                raise ShapeError(f"{name}: weights {lp.weights.shape} != {layer.weight_shape()}", i)
            if layer.has_bias != (lp.bias is not None):
                raise ChainError(f"{name}: bias presence mismatch", i)
            if lp.bias is not None and lp.bias.shape != lp.weights.shape[:1]:
                raise ShapeError(f"{name}: bias {lp.bias.shape} != {lp.weights.shape[:1]}", i)
            if not np.all(np.isfinite(lp.weights)) or (
                lp.bias is not None and not np.all(np.isfinite(lp.bias))
            ):
                raise BlobError(f"{name}: non-finite parameters", i)
        means, channels = self.preprocessing.means.shape[0], self.input_shape[2]
        if self.preprocessing.means.shape != (channels,):
            raise ManifestError(f"mean entries {means} != input channels {channels}", "mean")
        # Each parametric layer after the first (which reads pixels, under zbeta) runs zplus and
        # needs non-negative input: a relu since the previous one, kept by any maxpool or flatten.
        fed = True
        for i, layer in enumerate(self.layers):
            if layer.is_parametric and not fed:
                raise ChainError(f"{layer.kind} layer not fed through relu", i)
            fed = layer.kind == "relu" or (fed and not layer.is_parametric)

    @property
    def num_classes(self) -> int:
        return self.layers[-2].params["out"]


def _finite_values(tokens: list[str]) -> list[float]:
    """The numbers after a `mean` or `pixel_range` directive: ASCII with no `_`, and finite."""
    try:
        if not all(v.isascii() and "_" not in v for v in tokens[1:]):  # float() takes "1_0" and "１"
            raise ValueError
        values = [float(v) for v in tokens[1:]]
    except ValueError as exc:
        raise ManifestError(f"non-numeric {tokens[0]}") from exc
    if not all(map(math.isfinite, values)):
        raise ManifestError(f"non-finite {' '.join(tokens)}")
    return values


def read_entries(path: Path, error: type[RelpropError]) -> list[tuple[int, list[str]]]:
    """(line number, tokens) of each line of a UTF-8 text file that holds more than
    a `#` comment; bytes that are not UTF-8, or a NUL, raise `error` naming the file.
    Its callers read every integer token with parse_int."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    if "\0" in text:
        raise error(f"{path}: NUL byte in a text file")
    lines = (raw.split("#", 1)[0].split() for raw in text.splitlines())
    return [(lineno, tokens) for lineno, tokens in enumerate(lines, start=1) if tokens]


def parse_int(token: str, error: type[RelpropError], message: str) -> int:
    """token as an int if it is ASCII digits after an optional leading minus, else raise
    error(message); int() would also take "+2", "0_2" and "２"."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise error(message)
    return int(token)


def load_model(manifest_path: str | Path, weights_path: str | Path) -> NetworkModel:
    """Parse a manifest and its weight blob into a validated, explainable NetworkModel. Directives come in
    DIRECTIVES order, only layer lines repeat, a layer gives each parameter once; parse_int reads integers."""
    manifest_path = Path(manifest_path)
    entries = read_entries(manifest_path, ManifestError)
    if not entries or " ".join(entries[0][1]) != MAGIC:
        line = entries[0][0] if entries else 1
        raise ManifestError(f"{manifest_path}:{line}: expected magic line {MAGIC!r}")

    layers: list[LayerSpec] = []
    lines: dict[int | str, int] = {}  # keyed by a RelpropError's where
    previous = None  # the directive of the last entry read
    # A manifest that stops at its magic line fails on an empty entry standing in for the input line.
    for lineno, tokens in entries[1:] or [(entries[0][0], [""])]:
        head = tokens[0]
        try:
            if previous is None and head != "input":
                raise ManifestError("second entry must be 'input H W C'")
            if head not in DIRECTIVES or (head == "input" and previous):
                raise ManifestError(f"unrecognized directive {head!r}")
            if head == "pixel_range" and previous != "mean":
                raise ManifestError("pixel_range must follow mean")
            if head in ("layer", "mean") and DIRECTIVES.index(previous) > 1:  # after mean or pixel_range
                raise ManifestError(f"layer after {previous} line" if head == "layer" else "duplicate mean line")
            if head == "input":
                if len(tokens) != 4:
                    raise ManifestError("input needs exactly H W C")
                input_shape = tuple(parse_int(t, ManifestError, "non-integer input extent") for t in tokens[1:])
                lines["input"] = lineno
            elif head == "layer":
                if len(tokens) < 2:
                    raise ManifestError("layer line missing kind")
                params: dict[str, int] = {}
                for item in tokens[2:]:
                    key, sep, value = item.partition("=")
                    if not sep or key in params:
                        raise ManifestError(f"{'repeated' if sep else 'malformed'} parameter {item!r}")
                    params[key] = parse_int(value, ManifestError, f"non-integer value in {item!r}")
                lines[len(layers)] = lineno
                layers.append(LayerSpec(tokens[1], params))
            elif head == "mean":
                means = np.array(_finite_values(tokens), dtype=np.float64)
                lines["mean"] = lineno
            else:  # pixel_range
                if len(tokens) != 3:
                    raise ManifestError("pixel_range needs two values")
                preprocessing = Preprocessing(means=means, pixel_range=tuple(_finite_values(tokens)))
            previous = head
        except ManifestError as exc:  # UnknownLayerError keeps its type
            raise type(exc)(f"{manifest_path}:{lineno}: {exc}") from exc
    if previous != "pixel_range":
        raise ManifestError(f"{manifest_path}: missing mean or pixel_range line")

    sizes = [n for l in layers if l.is_parametric  # the blob's arrays: weights, then bias (size 0 if none)
             for n in (math.prod(l.weight_shape()), l.has_bias * l.params["out"])]
    expected = sum(sizes)
    blob = Path(weights_path).read_bytes()
    if len(blob) != 4 * expected:
        raise BlobError(
            f"{weights_path}: expected {expected} float32 values ({4 * expected} bytes),"
            f" got {len(blob)} bytes (offset {min(len(blob), 4 * expected)})"
        )
    with np.errstate(invalid="ignore"):  # a signalling NaN warns here; NetworkModel rejects it
        values = np.frombuffer(blob, dtype="<f4").astype(np.float64)
    values.flags.writeable = False  # every weight and bias is a view of it; see NetworkModel

    views = (values[end - n : end] for n, end in zip(sizes, accumulate(sizes)))
    def layer_params(layer: LayerSpec) -> LayerParams:
        weights, bias = next(views).reshape(layer.weight_shape()), next(views)
        return LayerParams(weights, bias if layer.has_bias else None)
    params = [layer_params(l) if l.is_parametric else None for l in layers]

    try:
        return NetworkModel(
            input_shape=input_shape,
            layers=tuple(layers),
            params=tuple(params),
            preprocessing=preprocessing,
        )
    except RelpropError as exc:  # the one prefix of an error about the model as loaded
        line = lines.get(exc.where)
        message = f"{manifest_path}:{line}: {exc}" if line else f"{manifest_path}: {exc}"
        raise type(exc)(f"{weights_path}: {message}" if isinstance(exc, BlobError) else message) from exc


def _format_number(v: float) -> str:
    return format(float(v), ".17g")


def save_model(model: NetworkModel, manifest_path: str | Path, weights_path: str | Path) -> None:
    """Write a manifest plus blob that load_model reads back equivalently.

    The blob round-trips byte-identically for any model whose parameters came
    from a float32 blob.
    """
    lines = [MAGIC, "input {} {} {}".format(*model.input_shape)]
    for layer in model.layers:
        rendered = "".join(f" {k}={layer.params[k]}" for k in _LAYER_KEYS[layer.kind])
        lines.append(f"layer {layer.kind}{rendered}")
    lines.append("mean " + " ".join(_format_number(m) for m in model.preprocessing.means))
    lines.append("pixel_range {} {}".format(*(_format_number(v) for v in model.preprocessing.pixel_range)))
    Path(manifest_path).write_text("\n".join(lines) + "\n")

    chunks = []
    for lp in model.params:
        if lp is None:
            continue
        chunks.append(lp.weights.astype("<f4").tobytes())
        if lp.bias is not None:
            chunks.append(lp.bias.astype("<f4").tobytes())
    Path(weights_path).write_bytes(b"".join(chunks))


@dataclass(frozen=True)
class ForwardTrace:
    """Record of one forward pass: the input, then each layer's output.

    Of a stack's trace only the probabilities are meant to be read; the incremental forward takes
    only a stack and keeps some layers as crops. model ran it; one image's trace has its shapes.
    """

    activations: tuple[np.ndarray, ...]
    model: NetworkModel = field(repr=False, compare=False)

    @property
    def logits(self) -> np.ndarray:
        return self.activations[-2]

    @property
    def probabilities(self) -> np.ndarray:
        return self.activations[-1]

    @property
    def prediction(self) -> int:
        self.check_one_image("prediction: trace")
        return int(np.argmax(self.probabilities))

    def check_one_image(self, what: str, model: NetworkModel | None = None) -> None:
        """Raise a ShapeError unless this is the trace of one image through model (by default the
        one that ran it): model made it, and every activation has its shape in model.shapes. A trace
        that any other model object produced, even one of the same shapes, is rejected."""
        shapes = tuple(a.shape for a in self.activations)
        if self.model is not (model or self.model) or shapes != self.model.shapes:
            through = " through this model" if model is not None else ""
            raise ShapeError(f"{what} does not fit: not the trace of one image{through}")


def _dirty_box(x: np.ndarray, start: np.ndarray) -> tuple[tuple[int, int, int, int], np.ndarray]:
    """The box (r0, r1, c0, c1) outside which every image of x has start's bytes, and x inside it."""
    h, w, c = x.shape[1:]
    dirty = (x.view(np.int64) != start.view(np.int64)).reshape(-1, h, w * c).any(axis=0)  # fast reduction
    rows, cols = np.flatnonzero(dirty.any(1)), np.flatnonzero(dirty.any(0).reshape(w, c).any(1))
    box = (int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1) if rows.size else (0,) * 4
    return box, x[..., box[0] : box[1], box[2] : box[3], :]


def _paste(dst: np.ndarray, at, src: np.ndarray, src_at) -> np.ndarray:
    """dst with src copied into the positions they share; at and src_at place each one's [0, 0]."""
    (r, c), (sr, sc) = at, src_at
    r0, c0 = max(r, sr), max(c, sc)
    r1 = max(r0, min(r + dst.shape[-3], sr + src.shape[-3]))
    c1 = max(c0, min(c + dst.shape[-2], sc + src.shape[-2]))
    dst[..., r0 - r : r1 - r, c0 - c : c1 - c, :] = src[..., r0 - sr : r1 - sr, c0 - sc : c1 - sc, :]
    return dst


def _layer_output(layer: LayerSpec, lp, x: np.ndarray, lead: int, pad: int | None = None) -> np.ndarray:
    """One layer over x, which has `lead` image axes; pad=0 runs a conv on x unpadded."""
    p = layer.params
    if layer.kind in ("conv2d", "dense"):
        bias = lp.bias if lp.bias is not None else np.zeros(p["out"])
    if layer.kind == "conv2d":
        return tensor.conv2d_forward(x, lp.weights, bias, p["stride"], p["pad"] if pad is None else pad)
    if layer.kind == "maxpool":
        return tensor.maxpool_forward(x, p["kh"], p["kw"], p["stride"])
    if layer.kind == "relu":
        return np.maximum(x, 0.0)
    if layer.kind == "softmax":
        return tensor.softmax(x)
    flat = x.reshape(x.shape[:lead] + (-1,))  # a view of a contiguous x
    return flat if layer.kind == "flatten" else tensor.dense_forward(flat, lp.weights, bias)


def _reach_output(layer: LayerSpec, lp, box: tuple, crop: np.ndarray, a: np.ndarray,
                  out: tuple[int, ...]) -> tuple[tuple, np.ndarray]:
    """A conv, maxpool or relu (a 1x1 window of stride 1) over a stack that holds crop in box and a
    elsewhere (its output has shape out): the box of every output whose padded window meets box, and
    the stack's output there, from only the window that reads: zeros where a conv pads, a, then crop."""
    p, (r0, r1, c0, c1) = layer.params, box
    s, kh, kw, pad = p.get("stride", 1), p.get("kh", 1), p.get("kw", 1), p.get("pad", 0)
    rows = max(0, -((kh - 1 - r0 - pad) // s)), min(out[0], (r1 - 1 + pad) // s + 1)
    cols = max(0, -((kw - 1 - c0 - pad) // s)), min(out[1], (c1 - 1 + pad) // s + 1)
    if not r0 < r1 or rows[0] >= rows[1] or cols[0] >= cols[1]:  # the edits reach no output
        return (0,) * 4, np.empty(crop.shape[:-3] + (0, 0, out[2]))
    (r0, r1), (c0, c1) = rows, cols
    origin, extent = (r0 * s - pad, c0 * s - pad), ((r1 - r0 - 1) * s + kh, (c1 - c0 - 1) * s + kw)
    if (origin, extent) != (box[0::2], crop.shape[-3:-1]):  # else crop is the window (a relu's)
        window = np.zeros(crop.shape[:-3] + extent + crop.shape[-1:])
        crop = _paste(_paste(window, origin, a, (0, 0)), origin, crop, box[0::2])
    return (r0, r1, c0, c1), _layer_output(layer, lp, crop, 1, pad=0)


def forward(model: NetworkModel, image: np.ndarray, base: ForwardTrace | None = None) -> ForwardTrace:
    """Run the chain on one image, recording its input and every layer's output.

    image is the model input as is, preprocess's output: its means are already
    subtracted. It may also be a stack [N, H, W, C]; every layer then maps the
    images side by side, and row k of the probabilities is image k's.

    base, the trace of one image through this model object (a trace that any
    other model produced, even one of the same shapes, is a ShapeError), makes
    the forward of a stack incremental; one image with base is a ShapeError.
    The rows and columns where any image differs from base's input in its bytes
    bound a box. Each conv, relu and maxpool layer before the first flatten or
    dense layer computes only the output positions that box reaches, which
    bound the next box, on the input window they read: base's array, zeros
    where a conv pads, and the stack's last box pasted in. The trace records
    them as [N, rows, cols, C] crops. The first flatten or dense layer, and
    every layer after it, runs on full rows. Max and relu are exact and an
    unpadded conv over such a window carries the full conv's bytes, so the
    probabilities are the full stacked forward's to the byte.
    """
    x = np.asarray(image, dtype=np.float64)
    if x.ndim not in (3, 4) or x.shape[-3:] != model.input_shape or x.size == 0:
        raise ShapeError(
            f"forward: need an image {model.input_shape} or a non-empty stack, got {x.shape}"
        )
    lead = x.ndim - 3
    if not np.all(np.isfinite(x)):
        raise ShapeError("forward: image contains non-finite values")
    activations, box = [x], None
    if base is not None:
        if not lead:
            raise ShapeError(f"forward: base= needs a stack [N, H, W, C], got one image {x.shape}")
        base.check_one_image("forward: base", model)
        box, x = _dirty_box(x, base.activations[0])  # the stack is base's array with x in box
    for i, (layer, lp) in enumerate(zip(model.layers, model.params)):
        try:
            if box is not None and layer.kind in ("conv2d", "relu", "maxpool"):
                box, x = _reach_output(layer, lp, box, x, base.activations[i], model.shapes[i + 1])
            else:
                if box is not None and x.shape[1:] != model.shapes[i]:  # full rows, once
                    x = _paste(np.repeat(base.activations[i][None], len(x), 0), (0, 0), x, box[0::2])
                box, x = None, _layer_output(layer, lp, x, lead)
        except ShapeError as exc:
            raise ShapeError(f"layer {i} ({layer.kind}): {exc}") from exc
        activations.append(x)
    return ForwardTrace(activations=tuple(activations), model=model)


def predict_topk(trace: ForwardTrace, k: int) -> list[tuple[int, float]]:
    """Top-k (class, probability) pairs, descending; ties go to the lower class index."""
    trace.check_one_image("predict_topk: trace")
    probs, n = trace.probabilities, trace.model.num_classes
    if not 1 <= k <= n:
        raise ShapeError(f"predict_topk: k={k} outside 1..{n}")
    order = np.argsort(-probs, kind="stable")
    return [(int(i), float(probs[i])) for i in order[:k]]
