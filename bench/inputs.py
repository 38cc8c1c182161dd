"""Generated benchmark inputs: model files, PPM images, list and box files.

Everything here is written with plain numpy and file I/O, never through
relprop, so the program under test only ever sees the files.

Models are fixed (their own seed); images, labels and boxes come from the
workload seed, so the same seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODEL_SEED = 20190812
NUM_CLASSES = 10
MEANS = (118.5, 112.25, 101.75)
LOGIT_SHIFT = 4.0


@dataclass(frozen=True)
class ModelFiles:
    name: str
    manifest: Path
    blob: Path
    size: int  # model input side (square)


@dataclass(frozen=True)
class ImageFile:
    image_id: str
    path: Path
    label: int
    box: tuple[int, int, int, int]  # x_min y_min x_max y_max in model-input pixels


def write_model(name: str, size: int, out_dir: Path) -> ModelFiles:
    """conv3x3*16 > relu > pool2 > conv3x3*32 > relu > pool2 > flatten > dense64 > relu > dense10.

    He-scaled float32 weights from MODEL_SEED; the first conv also absorbs the
    0..255 pixel scale, so logits spread over a few units. The logit bias is
    shifted up so most logits are positive and one-hot seeds rarely vanish.
    """
    rng = np.random.default_rng(MODEL_SEED + size)
    flat = (size // 4) * (size // 4) * 32
    layers = [  # weight shape, weight variance divisor, bias offset
        ((16, 3, 3, 3), 27 * 64.0**2, 0.0),
        ((32, 16, 3, 3), 144 / 2.0, 0.0),
        ((64, flat), flat / 2.0, 0.0),
        ((NUM_CLASSES, 64), 64 / 4.0, LOGIT_SHIFT),
    ]
    chunks = []
    for shape, variance_divisor, offset in layers:
        weights = rng.standard_normal(shape) / np.sqrt(variance_divisor)
        bias = offset + 0.05 * rng.standard_normal(shape[0])
        chunks += [weights.astype("<f4").tobytes(), bias.astype("<f4").tobytes()]
    manifest = "\n".join(
        [
            "RELPROP-MODEL 1",
            f"input {size} {size} 3",
            "layer conv2d in=3 out=16 kh=3 kw=3 stride=1 pad=1 bias=1",
            "layer relu",
            "layer maxpool kh=2 kw=2 stride=2",
            "layer conv2d in=16 out=32 kh=3 kw=3 stride=1 pad=1 bias=1",
            "layer relu",
            "layer maxpool kh=2 kw=2 stride=2",
            "layer flatten",
            f"layer dense in={flat} out=64 bias=1",
            "layer relu",
            f"layer dense in=64 out={NUM_CLASSES} bias=1",
            "layer softmax",
            "mean " + " ".join(repr(m) for m in MEANS),
            "pixel_range 0 255",
            "",
        ]
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    files = ModelFiles(name, out_dir / f"{name}.txt", out_dir / f"{name}.bin", size)
    files.manifest.write_text(manifest)
    files.blob.write_bytes(b"".join(chunks))
    return files


def write_images(seed: int, count: int, size: int, out_dir: Path) -> list[ImageFile]:
    """`count` landscape PPMs a little larger than the model input.

    Each holds a noisy background and one coloured rectangle (the object);
    preprocess crops them to a square and resizes them, and the box is the
    object's extent in model-input pixels.
    """
    rng = np.random.default_rng(seed)
    height = size + size // 8
    width = size + size // 4
    side, left = height, (width - height) // 2
    out_dir.mkdir(parents=True, exist_ok=True)
    images = []
    for i in range(count):
        pixels = rng.integers(0, 256, size=3) * 0.6 + rng.normal(0, 30, (height, width, 3))
        ow, oh = (int(v) for v in rng.integers(side // 5, side // 2, size=2))
        ox = int(rng.integers(left, left + side - ow))
        oy = int(rng.integers(0, side - oh))
        pixels[oy : oy + oh, ox : ox + ow] = rng.integers(0, 256, size=3)
        raw = np.clip(np.rint(pixels), 0, 255).astype(np.uint8)
        image_id = f"img{i:04d}"
        path = out_dir / f"{image_id}.ppm"
        path.write_bytes(f"P6\n{width} {height}\n255\n".encode("ascii") + raw.tobytes())
        scale = size / side
        box = (
            int((ox - left) * scale),
            int(oy * scale),
            min(size - 1, int((ox - left + ow - 1) * scale)),
            min(size - 1, int((oy + oh - 1) * scale)),
        )
        images.append(ImageFile(image_id, path, int(rng.integers(NUM_CLASSES)), box))
    return images


def write_list(images: list[ImageFile], path: Path) -> Path:
    """A labelled `image_path label` list, paths relative to the list file."""
    lines = [f"{image.path.relative_to(path.parent)} {image.label}" for image in images]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_boxes(images: list[ImageFile], path: Path) -> Path:
    """One box per image, scored against the image's label."""
    path.write_text(
        "".join(f"{im.image_id} {im.label} {' '.join(map(str, im.box))}\n" for im in images)
    )
    return path
