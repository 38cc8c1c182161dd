"""Command-line interface.

Subcommands: predict, explain, mask-eval, pointing. Exit codes: 0 on success,
1 on runtime or data errors (missing files, malformed inputs, running out of
memory), 2 on usage errors. All randomness in a run flows from --seed, so
reruns with the same seed are byte-identical.
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
from .model import NetworkModel, forward, load_model, parse_int, predict_topk, read_entries
from .relevance import METHODS, explain


class UsageError(Exception):
    """Invalid argument combination detected after parsing."""


def _comma_list(what: str, convert, valid, rule: str):
    """An argparse type for a non-empty comma-separated list without repeats: each item goes
    through convert (blank items it keeps as "" are dropped) and must pass valid (rule says why)."""

    def parse(text: str) -> tuple:
        try:
            values = tuple(v for v in map(convert, text.split(",")) if v != "")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"malformed {what} in {text!r}") from exc
        for v in values:
            if not valid(v):
                raise argparse.ArgumentTypeError(f"{what} {v!r} invalid: {rule}")
        if not values:
            raise argparse.ArgumentTypeError(f"at least one {what} required")
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise argparse.ArgumentTypeError(
                f"{what} listed more than once: {', '.join(map(str, repeated))}"
            )
        return values

    return parse


def _load_image(path: str | Path, model: NetworkModel) -> np.ndarray:
    return imaging.preprocess(imaging.read_ppm(path), model)


def _read_image_list(path: Path) -> list[tuple[str, Path, int | None]]:
    """Lines of `image_path [label]`; paths resolve relative to the list file.

    The file stem is the image id that reports and box files use, so two
    entries with the same stem are rejected.
    """
    entries = []
    first_line: dict[str, int] = {}
    for lineno, parts in read_entries(path, DataError):
        if len(parts) > 2:
            raise DataError(f"{path}:{lineno}: expected `image_path [label]`")
        label = None if len(parts) < 2 else parse_int(
            parts[1], DataError, f"{path}:{lineno}: non-integer label {parts[1]!r}")
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


def _write_metadata(args, name: str, reports: tuple[Path, Path], protocol: dict) -> int:
    """Write <out-dir>/<name>_meta.json: protocol plus the --methods and --seed of the run."""
    path = Path(args.out_dir) / f"{name}_meta.json"
    payload = {**protocol, "methods": list(args.methods), "seed": args.seed}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {reports[0]}, {reports[1]}, {path}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.manifest, args.weights)
    if args.top is None:
        top = min(5, model.num_classes)
    else:
        top = args.top
        if not 1 <= top <= model.num_classes:
            raise UsageError(f"--top {top} outside 1..{model.num_classes}")
    trace = forward(model, _load_image(args.image, model))
    for rank, (cls, prob) in enumerate(predict_topk(trace, top), start=1):
        print(f"{rank} {cls} {prob:.6f}")
    return 0


def cmd_explain(args) -> int:
    if not args.out or args.out.endswith(("/", os.sep)):
        raise UsageError(f"--out {args.out!r} must be a file prefix, not empty or a directory")
    model = load_model(args.manifest, args.weights)
    trace = forward(model, _load_image(args.image, model))
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
    pgm, f32 = Path(args.out + ".pgm"), Path(args.out + ".f32")
    pgm.parent.mkdir(parents=True, exist_ok=True)
    imaging.write_pgm(rendered, pgm)
    h, w = result.values.shape
    f32.write_bytes(struct.pack("<II", h, w) + result.values.astype("<f8").tobytes())
    print(f"wrote {pgm} and {f32}")
    return 0


def cmd_mask_eval(args) -> int:
    model = load_model(args.manifest, args.weights)
    entries = _read_image_list(Path(args.images))
    target_mode = args.target.replace("-", "_")
    samples = []
    for image_id, image_path, label in entries:
        if target_mode == "ground_truth" and label is None:
            raise DataError(f"{args.images}: {image_id} has no label for ground-truth targets")
        samples.append(evaluate.MaskSample(image_id, _load_image(image_path, model), label))
    rows = evaluate.run_masking(
        model,
        samples,
        target_mode=target_mode,
        methods=args.methods,
        patch_sizes=args.patches,
        seed=args.seed,
    )
    reports = evaluate.write_masking_reports(rows, Path(args.out_dir))
    return _write_metadata(args, "masking", reports, {
        "protocol": "maximal patch masking",
        "patch_sizes": list(args.patches),
        "target": args.target,
        "images": len(samples),
        "patch_fill": "per-channel dataset means",
        "patch_clipping": "patches are clipped at image borders",
    })


def cmd_pointing(args) -> int:
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
        image = _load_image(image_path, model)
        for box in by_image[image_id]:
            samples.append(evaluate.PointSample(image_id, image, box))
    rows = evaluate.run_pointing(
        model,
        samples,
        methods=args.methods,
        energies=args.energies,
        seed=args.seed,
    )
    reports = evaluate.write_pointing_reports(rows, Path(args.out_dir))
    return _write_metadata(args, "pointing", reports, {
        "protocol": "energy-thresholded pointing game",
        "energies": list(args.energies),
        "images": len(entries),
        "boxes": len(samples),
        "box_clipping": "boxes are clipped to image bounds",
    })


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

    def add_dataset_args(p):
        add_model_args(p)
        p.add_argument("images", help="list file with `image_path [label]` lines")
        p.add_argument("--out-dir", required=True)
        p.add_argument(
            "--methods",
            type=_comma_list("method", str.strip, evaluate.EVAL_METHODS.__contains__,
                             f"choose from {', '.join(evaluate.EVAL_METHODS)}"),
            default=evaluate.EVAL_METHODS,
            help="comma-separated subset of lrp,clrp,sglrp,random",
        )
        p.add_argument("--seed", type=int, default=None, help="run seed; required with 'random'")

    p = sub.add_parser("mask-eval", help="maximal patch masking over an image list")
    add_dataset_args(p)
    p.add_argument(
        "--patches",
        type=_comma_list("patch size", int, lambda v: v >= 1 and v % 2, "must be odd and positive"),
        default=evaluate.DEFAULT_PATCH_SIZES,
        help="comma-separated odd patch sizes (default 1,3,5,7,9)",
    )
    p.add_argument(
        "--target",
        choices=("ground-truth", "second-probable"),
        default="ground-truth",
        help="how to pick the explained class",
    )
    p.set_defaults(func=cmd_mask_eval)

    p = sub.add_parser("pointing", help="energy-thresholded pointing game over an image list")
    add_dataset_args(p)
    p.add_argument("boxes", help="box file with `image_id class x_min y_min x_max y_max` lines")
    p.add_argument(
        "--energies",
        type=_comma_list("energy", float, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
        default=evaluate.DEFAULT_ENERGIES,
        help="comma-separated energies in (0,1] (default 0.1..1.0)",
    )
    p.set_defaults(func=cmd_pointing)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "random" in getattr(args, "methods", ()) and args.seed is None:
            raise UsageError("--seed is required when methods include 'random'")
        return args.func(args)
    except UsageError as exc:
        print(f"relprop: {exc}", file=sys.stderr)
        return 2
    except (RelpropError, OSError, MemoryError) as exc:  # a backstop: an OOM kill raises nothing
        print(f"relprop: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
