"""Compare every CLI artifact of two relprop source trees, byte for byte.

    python3 tools/compare_outputs.py HEAD~1 HEAD
    python3 tools/compare_outputs.py path/to/other/checkout .

Each side is a git revision of this repository (its `src/` is extracted with
`git archive` into a temporary directory, so the working tree and the
repository's metadata are left alone) or a directory: a checkout holding
`src/relprop`, or a `src` directory holding `relprop`. Both sides run the same
commands on the same inputs, which bench/inputs.py generates (imported, never
changed): the cnn28, cnn32 and cnn64 models and IMAGES (24) PPMs each, with labels
and boxes. cnn28's second conv has 196 GEMM columns, not a multiple of 8, so
its artifacts show whether a change moves a conv's bytes on such shapes. Two
more models, strided24 and dense16, are written here (write_extra_model) and get
their PPMs, labels and boxes from bench/inputs.py too. The bench models' convs are
stride-1 and keep their extent, so conv2d_transpose adds their taps as whole
contiguous blocks; strided24's convs (3x3 with stride 2 and pad 1, then an
unpadded 3x3) take its strided col2im scatter, so both scatter paths are
compared. dense16's first parametric layer is a dense layer behind a flatten,
so it compares the zbeta bounds spread over a flattened input. The five models
give 886 artifacts.
Per model the commands are mask-eval in both target modes, pointing, explain
with every method on every image, and predict on every image. Each side runs
in its own Python process with one BLAS thread. Each side also runs predict on
malformed copies of the cnn32 manifest or blob (LOAD_ERRORS), one for each
error load_model raises, and records its exit code and stderr, with the input
directory written as <inputs>. It records the same for two cnn32 harness runs
that fail on one image (HARNESS_ERRORS): mask-eval on a list whose last label is
10, one past cnn32's classes, and pointing with one box that starts outside its
image; for predict on malformed copies of the first cnn32 PPM (IMAGE_ERRORS; one of
them, a comment right after the magic, is a valid header and exits 0); and
for explain and pointing on that PPM under a copy of the cnn32 manifest whose
pixel_range is 0 200 (RANGE_ERRORS): its largest sample is 231, so the zbeta
rule's range check, the one rule message the CLI can reach, fails.

The report gives each side's `relprop/*.py` line count (as `wc -l` counts it)
and lists every artifact that differs or exists on one side only (CSVs, meta
JSON, PGMs, .f32 maps, predict output, exit codes) and the largest relative
difference of a pointing.csv `tau`, then every load error whose exit code or
message differs, with both sides' lines, and the same for the harness errors and
the image and range errors. It prints "identical" for the artifacts and for each kind of
error, and exits 0, when nothing differs; it exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MODELS = {"cnn28": 28, "cnn32": 32, "cnn64": 64, "strided24": 24, "dense16": 16}
METHODS = ("lrp", "clrp", "sglrp")
IMAGES = 24  # generated images per model
IMAGE_SEED, RUN_SEED = 77, 5  # seed of the generated images; --seed of every CLI call
# name: (bytes of the cnn32 manifest to replace, or None for the whole text, and the replacement).
# "blob-short" and "blob-nan" keep the manifest (an empty replacement) and alter the blob instead.
LOAD_ERRORS = {
    "not-utf8": (b"layer relu", b"layer \xffrelu"),
    "nul-byte": (b"layer relu", b"layer\0relu"),
    "empty": (None, b"# nothing but a comment\n\n"),
    "bad-magic": (b"RELPROP-MODEL 1\n", b"# c\n\nRELPROP-MODEL 2\n"),
    "magic-only": (None, b"\nRELPROP-MODEL 1\n"),
    "no-input": (b"input 32 32 3\n", b"# c\n"),
    "input-arity": (b"input 32 32 3", b"input 32 32"),
    "input-extent": (b"input 32 32 3", b"input 32 x 3"),
    "input-zero": (b"input 32 32 3", b"input 0 32 3"),
    "layer-no-kind": (b"layer relu", b"layer"),
    "layer-param": (b"kh=2 kw=2", b"kh=2 kw2"),
    "layer-int": (b"kh=2 kw=2", b"kh=2 kw=two"),
    "layer-unknown": (b"layer relu", b"layer warp"),
    "layer-keys": (b"kh=2 kw=2 stride=2", b"kh=2 kw=2"),
    "layer-range": (b"stride=2", b"stride=0"),
    "layer-bias": (b"out=64 bias=1", b"out=64 bias=2"),
    "pool-tiling": (b"kh=2 kw=2 stride=2", b"kh=3 kw=3 stride=2"),
    "layer-after-mean": (b"pixel_range", b"layer relu\npixel_range"),
    "layer-after-range": (b"pixel_range 0 255\n", b"pixel_range 0 255\nlayer relu\n"),
    "mean-twice": (b"pixel_range", b"mean 1 2 3\npixel_range"),
    "mean-text": (b"mean 118.5", b"mean x118.5"),
    "mean-inf": (b"mean 118.5", b"mean inf"),
    "mean-channels": (b"mean 118.5 112.25 101.75", b"mean 118.5 112.25"),
    "range-first": (b"mean", b"pixel_range 0 255\nmean"),
    "range-arity": (b"pixel_range 0 255", b"pixel_range 0"),
    "range-text": (b"pixel_range 0 255", b"pixel_range 0 x"),
    "range-nan": (b"pixel_range 0 255", b"pixel_range 0 nan"),
    "range-inverted": (b"pixel_range 0 255", b"pixel_range 255 0"),
    "no-range": (b"pixel_range 0 255\n", b""),
    "directive": (b"layer flatten\n", b"layer flatten\ninput 1 1 1\n"),
    "softmax-inside": (b"layer relu\n", b"layer relu\nlayer softmax\n"),
    "not-fed": (b"out=64 bias=1\nlayer relu\n", b"out=64 bias=1\n"),
    "blob-short": (b"", b""),
    "blob-nan": (b"", b""),
}
# cnn32 runs that fail on one image: mask-eval on list-label-10.txt, pointing with boxes-outside.txt.
HARNESS_ERRORS = ("mask-label-10", "point-box-outside")
# explain and pointing on the first cnn32 PPM alone, under cnn32 with pixel_range 0 200.
RANGE_ERRORS = ("explain-range-200", "point-range-200")
# name: the malformed copy of the first cnn32 PPM, made from its width, height and samples.
IMAGE_ERRORS = {
    "ppm-ascii-magic": lambda w, h, px: b"P3\n%d %d\n255\n%b" % (w, h, px),
    "ppm-maxval-65535": lambda w, h, px: b"P6\n%d %d\n65535\n%b" % (w, h, px),
    "ppm-width-plus-4": lambda w, h, px: b"P6\n+4 %d\n255\n%b" % (h, px),
    "ppm-truncated": lambda w, h, px: b"P6\n%d %d\n255\n%b" % (w, h, px[:-1]),
    "ppm-no-space-after-maxval": lambda w, h, px: b"P6\n%d %d\n255%b" % (w, h, px),
    "ppm-ends-at-maxval": lambda w, h, px: b"P6\n%d %d\n255" % (w, h),
    "ppm-width-zero": lambda w, h, px: b"P6\n0 %d\n255\n%b" % (h, px),
    "ppm-comment-after-magic": lambda w, h, px: b"P6#c\n%d %d\n255\n%b" % (w, h, px),  # valid: exit 0
    "ppm-comment-after-maxval": lambda w, h, px: b"P6\n%d %d\n255#c\n%b" % (w, h, px),
}


def resolve_src(side: str, scratch: Path) -> Path:
    """The directory holding the `relprop` package for a side: a path or a revision."""
    path = Path(side)
    for candidate in (path / "src", path):
        if (candidate / "relprop" / "__init__.py").is_file():
            return candidate.resolve()
    rev = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{side}^{{commit}}"],
        capture_output=True, text=True,
    )
    if rev.returncode != 0:
        sys.exit(f"compare_outputs: {side!r} is neither a relprop source tree nor a revision")
    target = scratch / rev.stdout.strip()[:12]
    if not target.exists():
        archive = scratch / "src.tar"
        subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--output", str(archive), rev.stdout.strip(), "src"],
            check=True,
        )
        with tarfile.open(archive) as tar:
            tar.extractall(target, filter="data")
        archive.unlink()
    return target / "src"


def source_lines(src: Path) -> int:
    """Newline count of the package's modules, as `wc -l src/relprop/*.py` totals it."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "relprop").glob("*.py"))


def write_extra_model(out: Path, name: str, means: tuple[float, ...], classes: int) -> None:
    """<name>.txt and .bin in out, for the models not in bench/inputs.py. strided24 is 24x24x3 >
    conv3x3*8 stride 2 pad 1 > relu > conv3x3*16 unpadded > relu > pool2 > flatten > dense10.
    dense16 is 16x16x3 > flatten > dense24 > relu > dense10, so its first parametric layer is a
    dense one behind a flatten. Weights are He-scaled float32 drawn with the input side as seed
    (the first parametric layer absorbs the 0..255 pixel scale; the logit bias is shifted up by 4)."""
    size, layers, specs = {  # (input side, layers, (weight shape, variance divisor, bias offset) each)
        "strided24": (24, ("conv2d in=3 out=8 kh=3 kw=3 stride=2 pad=1 bias=1", "relu",
                           "conv2d in=8 out=16 kh=3 kw=3 stride=1 pad=0 bias=1", "relu",
                           "maxpool kh=2 kw=2 stride=2", "flatten", f"dense in=400 out={classes} bias=1"),
                      (((8, 3, 3, 3), 27 * 64.0**2, 0.0), ((16, 8, 3, 3), 72 / 2.0, 0.0),
                       ((classes, 400), 400 / 4.0, 4.0))),
        "dense16": (16, ("flatten", "dense in=768 out=24 bias=1", "relu", f"dense in=24 out={classes} bias=1"),
                    (((24, 768), 768 * 64.0**2, 0.0), ((classes, 24), 24 / 4.0, 4.0))),
    }[name]
    rng = np.random.default_rng(size)
    chunks = []
    for shape, divisor, offset in specs:
        chunks += [(rng.standard_normal(shape) / np.sqrt(divisor)).astype("<f4").tobytes(),
                   (offset + 0.05 * rng.standard_normal(shape[0])).astype("<f4").tobytes()]
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.txt").write_text("\n".join(
        ["RELPROP-MODEL 1", f"input {size} {size} 3", *(f"layer {layer}" for layer in (*layers, "softmax")),
         "mean " + " ".join(map(repr, means)), "pixel_range 0 255", ""]))
    (out / f"{name}.bin").write_bytes(b"".join(chunks))


def write_inputs(out: Path) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True  # leave bench/ exactly as checked in
    import inputs

    for name, size in MODELS.items():
        if name in ("strided24", "dense16"):
            write_extra_model(out / name, name, inputs.MEANS, inputs.NUM_CLASSES)
        else:
            inputs.write_model(name, size, out / name)
        written = inputs.write_images(IMAGE_SEED, IMAGES, size, out / name / "images")
        inputs.write_list(written, out / name / "images" / "list.txt")
        inputs.write_boxes(written, out / name / "images" / "boxes.txt")
    errors, model, images = out / "errors", out / "cnn32" / "cnn32", out / "cnn32" / "images"
    listed = (images / "list.txt").read_text().splitlines()
    listed[-1] = listed[-1].rsplit(" ", 1)[0] + " 10"  # cnn32 has classes 0..9
    (images / "list-label-10.txt").write_text("\n".join(listed) + "\n")
    boxes = [line.split() for line in (images / "boxes.txt").read_text().splitlines()]
    boxes[-1][2:5:2] = ["40", "40"]  # x_min and x_max of the last box, on a 32x32 image
    (images / "boxes-outside.txt").write_text("".join(" ".join(box) + "\n" for box in boxes))
    manifest, blob = model.with_suffix(".txt").read_bytes(), model.with_suffix(".bin").read_bytes()
    blobs = {"blob-short": blob[:-4], "blob-nan": np.array(np.nan, "<f4").tobytes() + blob[4:]}
    errors.mkdir()
    for case, (old, new) in LOAD_ERRORS.items():
        (errors / f"{case}.txt").write_bytes(new if old is None else manifest.replace(old, new, 1))
        (errors / f"{case}.bin").write_bytes(blobs.get(case, blob))
    (errors / "range-200.txt").write_bytes(manifest.replace(b"pixel_range 0 255", b"pixel_range 0 200", 1))
    (errors / "range-200.bin").write_bytes(blob)
    first = sorted(images.glob("*.ppm"))[0]
    one = [(images / name).read_text().splitlines()[0] + "\n" for name in ("list.txt", "boxes.txt")]
    assert one[0].split()[0] == first.name, "bench/inputs.py lists another image first"
    (images / "list-first.txt").write_text(one[0])
    (images / "boxes-first.txt").write_text(one[1])
    magic, extent, maxval, samples = first.read_bytes().split(b"\n", 3)
    assert (magic, maxval) == (b"P6", b"255"), "bench/inputs.py writes another PPM header"
    width, height = map(int, extent.split())
    for case, make in IMAGE_ERRORS.items():
        (errors / f"{case}.ppm").write_bytes(make(width, height, samples))


def run_side(src: Path, inputs_dir: Path, out: Path, errors_out: Path) -> None:
    """Run every command against the relprop under src, writing artifacts to out and
    each load, harness and image error's exit code and stderr to errors_out; called in a child process."""
    sys.path.insert(0, str(src))
    import contextlib
    import io

    from relprop.cli import main

    codes = []

    def call(argv: list[str]) -> str:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        codes.append(f"{code} {' '.join(a.replace(str(out), '<out>') for a in argv[:1] + argv[3:])}")
        return stdout.getvalue()

    for name in MODELS:
        model = [str(inputs_dir / name / f"{name}.txt"), str(inputs_dir / name / f"{name}.bin")]
        images = inputs_dir / name / "images"
        listed, seed = str(images / "list.txt"), ["--seed", str(RUN_SEED)]
        for target in ("ground-truth", "second-probable"):
            call(["mask-eval", *model, listed, "--out-dir", str(out / name / f"mask-{target}"),
                  "--target", target, *seed])
        call(["pointing", *model, listed, str(images / "boxes.txt"),
              "--out-dir", str(out / name / "pointing"), *seed])
        (out / name / "predict").mkdir(parents=True)
        for image in sorted(images.glob("*.ppm")):
            for method in METHODS:
                call(["explain", *model, str(image), "--method", method, "--target", "top",
                      "--out", str(out / name / "explain" / f"{image.stem}_{method}")])
            predicted = call(["predict", *model, str(image)])
            (out / name / "predict" / f"{image.stem}.txt").write_text(predicted)
    (out / "exit_codes.txt").write_text("\n".join(codes) + "\n")
    errors_out.mkdir(parents=True)

    def record(case: str, argv: list[str]) -> None:
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        message = stderr.getvalue().replace(str(inputs_dir), "<inputs>")
        (errors_out / case).write_text(f"{code} {message}")

    images = inputs_dir / "cnn32" / "images"
    image = str(sorted(images.glob("*.ppm"))[0])
    for case in LOAD_ERRORS:
        files = [str(inputs_dir / "errors" / f"{case}{suffix}") for suffix in (".txt", ".bin")]
        record(case, ["predict", *files, image])
    model = [str(inputs_dir / "cnn32" / f"cnn32{suffix}") for suffix in (".txt", ".bin")]
    runs = ["--out-dir", str(errors_out / "runs"), "--seed", str(RUN_SEED)]
    record("mask-label-10", ["mask-eval", *model, str(images / "list-label-10.txt"), *runs])
    record("point-box-outside",
           ["pointing", *model, str(images / "list.txt"), str(images / "boxes-outside.txt"), *runs])
    for case in IMAGE_ERRORS:
        record(case, ["predict", *model, str(inputs_dir / "errors" / f"{case}.ppm")])
    narrow = [str(inputs_dir / "errors" / f"range-200{suffix}") for suffix in (".txt", ".bin")]
    record("explain-range-200", ["explain", *narrow, image, "--method", "sglrp", "--target", "top",
                                 "--out", str(errors_out / "runs" / "range-200")])
    record("point-range-200", ["pointing", *narrow, str(images / "list-first.txt"),
                               str(images / "boxes-first.txt"), *runs])


def _taus(path: Path) -> list[str]:
    with path.open(newline="") as fh:
        return [row["tau"] for row in csv.DictReader(fh)]


def compare(a: Path, b: Path) -> tuple[list[str], float, int]:
    """Artifacts that differ or exist on one side only, the largest relative tau gap,
    and the number of artifacts."""
    names = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    differing, tau_gap = [], 0.0
    for name in names:
        left, right = a / name, b / name
        if not (left.is_file() and right.is_file()):
            differing.append(f"{name} (only in {'A' if left.is_file() else 'B'})")
        elif left.read_bytes() != right.read_bytes():
            differing.append(str(name))
        if name.name == "pointing.csv" and left.is_file() and right.is_file():
            for x, y in zip(_taus(left), _taus(right)):
                if x and y and float(x) != float(y):
                    tau_gap = max(tau_gap, abs(float(x) - float(y)) / max(abs(float(x)), abs(float(y))))
    return differing, tau_gap, len(names)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", nargs="?", help="revision or source tree A")
    parser.add_argument("b", nargs="?", help="revision or source tree B")
    parser.add_argument("--run-side", nargs=4, metavar=("SRC", "INPUTS", "OUT", "ERRORS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run_side:
        run_side(*map(Path, args.run_side))
        return 0
    if args.b is None:
        parser.error("two revisions or source trees are required")
    with tempfile.TemporaryDirectory(prefix="relprop-compare-") as tmp:
        tmp = Path(tmp)
        (tmp / "trees").mkdir()
        srcs = [resolve_src(side, tmp / "trees") for side in (args.a, args.b)]
        lines = [source_lines(src) for src in srcs]
        write_inputs(tmp / "inputs")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("RELPROP_THREADS", None)
        for label, src in zip("AB", srcs):
            subprocess.run(
                [sys.executable, __file__, "--run-side", str(src), str(tmp / "inputs"),
                 str(tmp / f"out{label}"), str(tmp / f"errors{label}")],
                check=True, env=env,
            )
        differing, tau_gap, total = compare(tmp / "outA", tmp / "outB")
        errors = {case: [(tmp / f"errors{label}" / case).read_text().strip() for label in "AB"]
                  for case in (*LOAD_ERRORS, *HARNESS_ERRORS, *IMAGE_ERRORS, *RANGE_ERRORS)}
    print(f"A: {args.a} (relprop/*.py: {lines[0]} lines)\nB: {args.b} (relprop/*.py: {lines[1]} lines)")
    print(f"{total} artifacts over {len(MODELS)} models")
    print(f"largest relative tau difference in pointing.csv: {tau_gap:.3g}")
    print(f"{len(differing)} differ:" if differing else "identical")
    for name in differing:
        print(f"  {name}")
    sections = {"load errors of malformed cnn32 manifests and blobs": LOAD_ERRORS,
                "harness errors of cnn32 mask-eval and pointing runs": HARNESS_ERRORS,
                "image errors of malformed cnn32 PPMs": IMAGE_ERRORS,
                "range errors of cnn32 explain and pointing under pixel_range 0 200": RANGE_ERRORS}
    for title, cases in sections.items():
        changed = [case for case in cases if errors[case][0] != errors[case][1]]
        print(f"{len(cases)} {title}")
        print(f"{len(changed)} differ:" if changed else "identical")
        for case in changed:
            print(f"  {case}\n    A: {errors[case][0]}\n    B: {errors[case][1]}")
    return 1 if differing or any(a != b for a, b in errors.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
