"""Command-line interface.

Subcommands: predict, explain, mask-eval, pointing. Exit codes: 0 on success,
1 on runtime or data errors (missing files, malformed inputs), 2 on usage
errors. RELPROP_THREADS is still parsed and validated (a non-integer or a
value below 1 exits 1), but evaluation runs serially and starts no threads.
All randomness in a run flows from --seed, so reruns with the same seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
from pathlib import Path

import numpy as np

from . import evaluate, imaging
from .errors import DataError, RelpropError
from .model import NetworkModel, forward, load_model, predict_topk
from .relevance import METHODS, explain


class UsageError(Exception):
    """Invalid argument combination detected after parsing."""


def _no_repeats(values: tuple, what: str) -> tuple:
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(
            f"{what} listed more than once: {', '.join(map(str, repeated))}"
        )
    return values


def _parse_methods(text: str) -> tuple[str, ...]:
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    for m in methods:
        if m not in evaluate.EVAL_METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {m!r}; choose from {', '.join(evaluate.EVAL_METHODS)}"
            )
    if not methods:
        raise argparse.ArgumentTypeError("at least one method required")
    return _no_repeats(methods, "method")


def _parse_patches(text: str) -> tuple[int, ...]:
    try:
        patches = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"non-integer patch size in {text!r}") from exc
    for p in patches:
        if p < 1 or p % 2 == 0:
            raise argparse.ArgumentTypeError(f"patch sizes must be odd and positive, got {p}")
    return _no_repeats(patches, "patch size")


def _parse_energies(text: str) -> tuple[float, ...]:
    try:
        energies = tuple(float(e) for e in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"non-numeric energy in {text!r}") from exc
    for e in energies:
        if not 0.0 < e <= 1.0:
            raise argparse.ArgumentTypeError(f"energies must lie in (0, 1], got {e}")
    return _no_repeats(energies, "energy")


def _workers() -> int:
    """RELPROP_THREADS, validated; the harnesses accept it but start no threads."""
    raw = os.environ.get("RELPROP_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise DataError(f"RELPROP_THREADS={raw!r} is not an integer") from exc
    if n < 1:
        raise DataError(f"RELPROP_THREADS={n} must be >= 1")
    return n


def _load_raw_image(path: Path, model: NetworkModel) -> np.ndarray:
    return imaging.preprocess(imaging.read_ppm(path), model, subtract_mean=False)


def _read_image_list(path: Path) -> list[tuple[str, Path, int | None]]:
    """Lines of `image_path [label]`; paths resolve relative to the list file.

    The file stem is the image id that reports and box files use, so two
    entries with the same stem are rejected.
    """
    entries = []
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) > 2:
            raise DataError(f"{path}:{lineno}: expected `image_path [label]`")
        label = None
        if len(parts) == 2:
            try:
                label = int(parts[1])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-integer label {parts[1]!r}") from exc
        image_path = Path(parts[0])
        if not image_path.is_absolute():
            image_path = path.parent / image_path
        image_id = image_path.stem
        if image_id in first_line:
            raise DataError(
                f"{path}:{lineno}: duplicate image id {image_id!r}"
                f" (already listed on line {first_line[image_id]})"
            )
        first_line[image_id] = lineno
        entries.append((image_id, image_path, label))
    if not entries:
        raise DataError(f"{path}: no images listed")
    return entries


def _write_metadata(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_predict(args) -> int:
    model = load_model(args.manifest, args.weights)
    if args.top is None:
        top = min(5, model.num_classes)
    else:
        top = args.top
        if not 1 <= top <= model.num_classes:
            raise UsageError(f"--top {top} outside 1..{model.num_classes}")
    image = imaging.preprocess(imaging.read_ppm(args.image), model)
    trace = forward(model, image)
    for rank, (cls, prob) in enumerate(predict_topk(trace, top), start=1):
        print(f"{rank} {cls} {prob:.6f}")
    return 0


def cmd_explain(args) -> int:
    model = load_model(args.manifest, args.weights)
    trace = forward(model, _load_raw_image(Path(args.image), model), preprocessed=False)
    if args.target == "top":
        target = trace.prediction
    elif args.target == "second":
        target = predict_topk(trace, 2)[1][0]
    else:
        try:
            target = int(args.target)
        except ValueError:
            raise UsageError(f"--target {args.target!r} must be a class index, 'top', or 'second'")
        if not 0 <= target < model.num_classes:
            raise UsageError(f"--target {target} outside 0..{model.num_classes - 1}")
    result = explain(model, trace, target, args.method)
    rendered = imaging.render_heatmap(result.values, result.raw)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    imaging.write_pgm(rendered, out.with_suffix(".pgm"))
    h, w = result.values.shape
    payload = struct.pack("<II", h, w) + result.values.astype("<f8").tobytes()
    out.with_suffix(".f32").write_bytes(payload)
    print(f"wrote {out.with_suffix('.pgm')} and {out.with_suffix('.f32')}")
    return 0


def cmd_mask_eval(args) -> int:
    if "random" in args.methods and args.seed is None:
        raise UsageError("--seed is required when methods include 'random'")
    model = load_model(args.manifest, args.weights)
    entries = _read_image_list(Path(args.images))
    target_mode = args.target.replace("-", "_")
    samples = []
    for image_id, image_path, label in entries:
        if target_mode == "ground_truth" and label is None:
            raise DataError(f"{args.images}: {image_id} has no label for ground-truth targets")
        samples.append(
            evaluate.MaskSample(image_id, _load_raw_image(image_path, model), label)
        )
    rows = evaluate.run_masking(
        model,
        samples,
        target_mode=target_mode,
        methods=args.methods,
        patch_sizes=args.patches,
        seed=args.seed,
        workers=_workers(),
    )
    out_dir = Path(args.out_dir)
    per_image, aggregate = evaluate.write_masking_reports(rows, out_dir)
    _write_metadata(
        out_dir / "masking_meta.json",
        {
            "protocol": "maximal patch masking",
            "methods": list(args.methods),
            "patch_sizes": list(args.patches),
            "target": args.target,
            "seed": args.seed,
            "images": len(samples),
            "patch_fill": "per-channel dataset means",
            "patch_clipping": "patches are clipped at image borders",
        },
    )
    print(f"wrote {per_image}, {aggregate}, {out_dir / 'masking_meta.json'}")
    return 0


def cmd_pointing(args) -> int:
    if "random" in args.methods and args.seed is None:
        raise UsageError("--seed is required when methods include 'random'")
    model = load_model(args.manifest, args.weights)
    entries = _read_image_list(Path(args.images))
    boxes = evaluate.read_bounding_boxes(Path(args.boxes))
    by_image: dict[str, list[evaluate.BoundingBox]] = {}
    for image_id, box in boxes:
        by_image.setdefault(image_id, []).append(box)
    samples = []
    for image_id, image_path, _ in entries:
        if image_id not in by_image:
            raise DataError(f"{args.boxes}: no box for image {image_id!r}")
        image = _load_raw_image(image_path, model)
        for box in by_image[image_id]:
            samples.append(evaluate.PointSample(image_id, image, box))
    rows = evaluate.run_pointing(
        model,
        samples,
        methods=args.methods,
        energies=args.energies,
        seed=args.seed,
        workers=_workers(),
    )
    out_dir = Path(args.out_dir)
    per_image, aggregate = evaluate.write_pointing_reports(rows, out_dir)
    _write_metadata(
        out_dir / "pointing_meta.json",
        {
            "protocol": "energy-thresholded pointing game",
            "methods": list(args.methods),
            "energies": list(args.energies),
            "seed": args.seed,
            "images": len(entries),
            "boxes": len(samples),
            "box_clipping": "boxes are clipped to image bounds",
        },
    )
    print(f"wrote {per_image}, {aggregate}, {out_dir / 'pointing_meta.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relprop",
        description="Class-discriminative relevance maps for small CNNs, with evaluation harnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("manifest", help="model manifest file")
        p.add_argument("weights", help="model weight blob")

    p = sub.add_parser("predict", help="classify one PPM image")
    add_model_args(p)
    p.add_argument("image", help="binary P6 PPM image")
    p.add_argument(
        "--top", type=int, default=None, help="classes to print (default: up to 5)"
    )
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explain", help="write a relevance heatmap for one image")
    add_model_args(p)
    p.add_argument("image", help="binary P6 PPM image")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument(
        "--target", required=True, help="class index, or 'top' / 'second' of the prediction"
    )
    p.add_argument("--out", required=True, help="output prefix; writes <out>.pgm and <out>.f32")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("mask-eval", help="maximal patch masking over an image list")
    add_model_args(p)
    p.add_argument("images", help="list file with `image_path [label]` lines")
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--methods",
        type=_parse_methods,
        default=("lrp", "clrp", "sglrp", "random"),
        help="comma-separated subset of lrp,clrp,sglrp,random",
    )
    p.add_argument(
        "--patches",
        type=_parse_patches,
        default=evaluate.DEFAULT_PATCH_SIZES,
        help="comma-separated odd patch sizes (default 1,3,5,7,9)",
    )
    p.add_argument(
        "--target",
        choices=("ground-truth", "second-probable"),
        default="ground-truth",
        help="how to pick the explained class",
    )
    p.add_argument("--seed", type=int, default=None, help="run seed; required with 'random'")
    p.set_defaults(func=cmd_mask_eval)

    p = sub.add_parser("pointing", help="energy-thresholded pointing game over an image list")
    add_model_args(p)
    p.add_argument("images", help="list file with `image_path [label]` lines")
    p.add_argument("boxes", help="box file with `image_id class x_min y_min x_max y_max` lines")
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--methods",
        type=_parse_methods,
        default=("lrp", "clrp", "sglrp", "random"),
        help="comma-separated subset of lrp,clrp,sglrp,random",
    )
    p.add_argument(
        "--energies",
        type=_parse_energies,
        default=evaluate.DEFAULT_ENERGIES,
        help="comma-separated energies in (0,1] (default 0.1..1.0)",
    )
    p.add_argument("--seed", type=int, default=None, help="run seed; required with 'random'")
    p.set_defaults(func=cmd_pointing)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"relprop: {exc}", file=sys.stderr)
        return 2
    except (RelpropError, OSError) as exc:
        print(f"relprop: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
