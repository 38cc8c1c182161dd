"""Hand-built models and synthetic data used by the test suite.

The two-shape world: 32x32 black images containing one filled 7x7 square and
one 9x9 plus-shaped cross with 1-px arms, both white, channel-replicated to
RGB. The paired model is a hand-set detector CNN whose dense head deliberately
mixes the two feature channels (each logit reads the other shape's channel at
0.4x its own weight), so a non-contrastive explanation provably spreads onto
the non-target shape.
"""

import numpy as np

from relprop.evaluate import BoundingBox
from relprop.imaging import write_ppm
from relprop.model import LayerParams, LayerSpec, NetworkModel, Preprocessing

SIZE = 32
SQUARE = 7
CROSS = 9

# per-pixel contribution of a lit (255,255,255) pixel through one unit kernel tap
_TAP = 1.0 / 765.0


def make_two_shape_model() -> NetworkModel:
    """Conv(blob, line detectors) -> relu -> maxpool -> dense logits -> softmax."""
    conv_w = np.zeros((2, 3, 3, 3))
    conv_w[0] = _TAP  # blob: 3x3 box sum, fires only where 8+ neighbors are lit
    conv_w[1] = -_TAP  # line: center-surround, fires on 1-px-wide strokes
    conv_w[1, :, 1, 1] = 8.0 * _TAP
    conv_b = np.array([-7.0, -4.0])

    dense_w = np.zeros((2, 2 * 16 * 16))
    flat = np.arange(16 * 16 * 2).reshape(16, 16, 2)
    dense_w[0, flat[:, :, 0].reshape(-1)] = 0.10  # square logit reads blob
    dense_w[0, flat[:, :, 1].reshape(-1)] = 0.04  # ...and leaks from line
    dense_w[1, flat[:, :, 0].reshape(-1)] = 0.04
    dense_w[1, flat[:, :, 1].reshape(-1)] = 0.10
    dense_b = np.zeros(2)

    layers = (
        LayerSpec("conv2d", {"in": 3, "out": 2, "kh": 3, "kw": 3, "stride": 1, "pad": 1, "bias": 1}),
        LayerSpec("relu"),
        LayerSpec("maxpool", {"kh": 2, "kw": 2, "stride": 2}),
        LayerSpec("flatten"),
        LayerSpec("dense", {"in": 512, "out": 2, "bias": 1}),
        LayerSpec("softmax"),
    )
    params = (
        LayerParams(conv_w, conv_b),
        None,
        None,
        None,
        LayerParams(dense_w, dense_b),
        None,
    )
    return NetworkModel(
        input_shape=(SIZE, SIZE, 3),
        layers=layers,
        params=params,
        preprocessing=Preprocessing(means=np.zeros(3), pixel_range=(0.0, 255.0)),
    )


def _paint_square(image: np.ndarray, x: int, y: int, value: float) -> None:
    image[y : y + SQUARE, x : x + SQUARE, :] = value


def _paint_cross(image: np.ndarray, x: int, y: int, value: float) -> None:
    mid = CROSS // 2
    image[y : y + CROSS, x + mid, :] = value
    image[y + mid, x : x + CROSS, :] = value


def _disjoint(ax0, ay0, aw, ah, bx0, by0, bw, bh, gap=2):
    return (
        ax0 + aw + gap <= bx0
        or bx0 + bw + gap <= ax0
        or ay0 + ah + gap <= by0
        or by0 + bh + gap <= ay0
    )


def make_two_shape_image(rng: np.random.Generator):
    """One image plus 1-px-dilated boxes for (square, cross).

    Shape intensities vary in 215..255 so logits differ image to image while
    both detectors still clear their firing thresholds.
    """
    while True:
        sx = int(rng.integers(1, SIZE - SQUARE - 1))
        sy = int(rng.integers(1, SIZE - SQUARE - 1))
        cx = int(rng.integers(1, SIZE - CROSS - 1))
        cy = int(rng.integers(1, SIZE - CROSS - 1))
        if _disjoint(sx, sy, SQUARE, SQUARE, cx, cy, CROSS, CROSS):
            break
    image = np.zeros((SIZE, SIZE, 3))
    _paint_square(image, sx, sy, float(rng.uniform(215.0, 255.0)))
    _paint_cross(image, cx, cy, float(rng.uniform(215.0, 255.0)))
    square_box = BoundingBox(0, sx - 1, sy - 1, sx + SQUARE, sy + SQUARE)
    cross_box = BoundingBox(1, cx - 1, cy - 1, cx + CROSS, cy + CROSS)
    return image, square_box, cross_box


def make_two_shape_dataset(n: int, seed: int):
    """n samples alternating target class 0 (square) / 1 (cross)."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        image, square_box, cross_box = make_two_shape_image(rng)
        label = i % 2
        box = square_box if label == 0 else cross_box
        samples.append((f"img{i:04d}", image, label, box))
    return samples


def tensor_to_ppm(image: np.ndarray, path) -> None:
    """Write a [H,W,3] float tensor of 0..255 sample values as binary PPM."""
    write_ppm(np.clip(np.rint(image), 0, 255).astype(np.uint8), path)


def _dense_chain_model(w1, b1, w2, b2, input_shape):
    """input -> dense -> relu -> dense -> softmax with optional biases."""
    layers = (
        LayerSpec("dense", {"in": w1.shape[1], "out": w1.shape[0], "bias": int(b1 is not None)}),
        LayerSpec("relu"),
        LayerSpec("dense", {"in": w2.shape[1], "out": w2.shape[0], "bias": int(b2 is not None)}),
        LayerSpec("softmax"),
    )
    params = (LayerParams(w1, b1), None, LayerParams(w2, b2), None)
    return NetworkModel(
        input_shape=input_shape,
        layers=layers,
        params=params,
        preprocessing=Preprocessing(means=np.zeros(input_shape[2]), pixel_range=(0.0, 255.0)),
    )


def make_shared_evidence_model() -> NetworkModel:
    """Three-pixel net where a shared hidden unit feeds both logits.

    Pixels (x1, x2, x3) along the width. Hidden: h1 reads x1 (specific to
    class 0), h2 reads x3 (feeds BOTH logits, weight 0.006 vs 0.004 for the
    specific paths), h3 reads x2 (specific to class 1).
    """
    w1 = np.zeros((3, 3))
    w1[0, 0] = 1.0
    w1[1, 2] = 1.0
    w1[2, 1] = 1.0
    w2 = np.zeros((2, 3))
    w2[0, 0] = 0.004
    w2[0, 1] = 0.006
    w2[1, 2] = 0.004
    w2[1, 1] = 0.006
    return _dense_chain_model(w1, None, w2, None, (1, 3, 1))


SHARED_EVIDENCE_INPUT = np.full((1, 3, 1), 150.0)


def make_uniform_penalty_model() -> NetworkModel:
    """Three-class net where uniform contrastive penalties cancel the true pixel.

    Target class 1 reads x2 (via h2) and x3 (via h4) evenly. A weak decoy
    class 0 reads x2 through a second hidden unit h3; class 2 reads x1. With
    logits (0.6, 3.0, 2.2) a uniform -z_t/2 penalty down each non-target path
    exactly cancels x2's credit, while probability-weighted penalties leave
    it positive.
    """
    w1 = np.zeros((4, 3))
    w1[0, 0] = 1.0  # h1 <- x1
    w1[1, 1] = 1.0  # h2 <- x2
    w1[2, 1] = 1.0  # h3 <- x2
    w1[3, 2] = 1.0  # h4 <- x3
    w2 = np.zeros((3, 4))
    w2[0, 2] = 0.006  # decoy logit reads x2's second path
    w2[1, 1] = 0.015  # target reads x2
    w2[1, 3] = 0.015  # ...and x3
    w2[2, 0] = 0.022  # strong competitor reads x1
    return _dense_chain_model(w1, None, w2, None, (1, 3, 1))


UNIFORM_PENALTY_INPUT = np.full((1, 3, 1), 100.0)
