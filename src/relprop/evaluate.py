"""Faithfulness evaluation: maximal patch masking and the pointing game.

Both harnesses take model inputs, preprocess's output. Masking: classify,
explain, find the maximal point of the map, set a p x p patch around it to
0.0 (the dataset means, once subtracted), re-classify, and record the drop
in the target probability. The occluded images around each distinct maximal
point, one per patch size, are re-classified as one stack, by one forward from
the unmasked image's trace that computes only what they reach (model.forward).

Pointing: threshold the map so that at least a fraction E of its positive
pixels survive, then count surviving pixels inside (hits) and outside
(misses) the target's bounding box; accuracy = hits / (hits + misses).

Per image, each harness keeps one entry per method, a maximal point or a map.
The `random` baseline is one more entry, a uniform center or noise map drawn from
the image's own substream of the run seed. One loop, _each_sample, drives both
over a dataset, one image after another, in list order. The reports write each
float column's cells as repr(float(v)).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, RelpropError, ShapeError
from .model import ForwardTrace, NetworkModel, forward, parse_int, predict_topk, read_entries
from .relevance import METHODS, explain_all

EVAL_METHODS = METHODS + ("random",)
DEFAULT_PATCH_SIZES = (1, 3, 5, 7, 9)
DEFAULT_ENERGIES = tuple(round(0.1 * i, 1) for i in range(1, 11))


class NoPositiveRelevanceError(RelpropError):
    """A relevance map holds no positive entries, so no threshold exists."""


def check_methods(methods: tuple[str, ...]) -> None:
    """Reject a method outside EVAL_METHODS, or one listed twice, with a DataError."""
    if not set(methods) <= set(EVAL_METHODS) or len(set(methods)) != len(methods):
        raise DataError(f"methods {methods} must be distinct entries of {EVAL_METHODS}")


def maximal_point(values: np.ndarray) -> tuple[int, int]:
    """(x, y) of the largest map entry; ties go to the lowest row-major index."""
    if values.ndim != 2 or values.size == 0:
        raise ShapeError(f"maximal_point: need a non-empty 2-D map, got {values.shape}")
    flat = int(np.argmax(values))
    return flat % values.shape[1], flat // values.shape[1]


def mask_patch(image: np.ndarray, center: tuple[int, int], patch_size: int) -> np.ndarray:
    """Copy of a model input with a patch_size square around center set to 0.0, the
    dataset mean of every channel once it has been subtracted.

    patch_size must be odd; the patch is clipped at the image border.
    """
    if image.ndim != 3:
        raise ShapeError(f"mask_patch: image must be [H,W,C], got {image.shape}")
    if patch_size < 1 or patch_size % 2 == 0:
        raise ShapeError(f"mask_patch: patch size {patch_size} must be odd and positive")
    h, w, _ = image.shape
    x, y = center
    r = patch_size // 2
    y0, y1 = max(0, y - r), min(h, y + r + 1)
    x0, x1 = max(0, x - r), min(w, x + r + 1)
    out = image.copy()
    out[y0:y1, x0:x1, :] = 0.0
    return out


@dataclass(frozen=True)
class MaskingResult:
    """One (method, patch size) masking measurement for one image."""

    method: str
    patch_size: int
    target: int
    prob_before: float
    prob_after: float
    drop: float
    point: tuple[int, int]


def _resolve_target(trace: ForwardTrace, target_mode: str, label: int | None) -> int:
    if target_mode == "ground_truth":
        if label is None:
            raise DataError("ground_truth target mode needs a label")
        n = trace.model.num_classes
        if not 0 <= label < n:
            raise DataError(f"label {label} outside 0..{n - 1}")
        return label
    if target_mode == "second_probable":
        return predict_topk(trace, 2)[1][0]
    raise DataError(f"unknown target mode {target_mode!r}")


def patch_masking_eval(
    model: NetworkModel,
    image: np.ndarray,
    *,
    target_mode: str = "ground_truth",
    label: int | None = None,
    methods: tuple[str, ...] = EVAL_METHODS,
    patch_sizes: tuple[int, ...] = DEFAULT_PATCH_SIZES,
    rng: np.random.Generator | None = None,
) -> list[MaskingResult]:
    """Run the masking protocol for one model input (preprocess's output)."""
    check_methods(methods)
    if "random" in methods and rng is None:
        raise DataError("the random baseline needs a seeded generator")
    trace = forward(model, image)
    target = _resolve_target(trace, target_mode, label)
    prob_before = float(trace.probabilities[target])
    maps = explain_all(model, trace, target, tuple(m for m in methods if m in METHODS))
    if not patch_sizes:
        return []
    points = {method: maximal_point(m.values) for method, m in maps.items()}
    if "random" in methods:
        h, w, _ = image.shape
        points["random"] = (int(rng.integers(0, w)), int(rng.integers(0, h)))
    results, probs = [], {}  # per distinct point
    for method in methods:
        point = points[method]
        if point not in probs:
            masked = np.stack([mask_patch(image, point, p) for p in patch_sizes])
            probs[point] = forward(model, masked, base=trace).probabilities[:, target]
        for p, after in zip(patch_sizes, map(float, probs[point])):
            results.append(
                MaskingResult(
                    method=method,
                    patch_size=p,
                    target=target,
                    prob_before=prob_before,
                    prob_after=after,
                    drop=prob_before - after,
                    point=point,
                )
            )
    return results


@dataclass(frozen=True)
class BoundingBox:
    """Inclusive pixel-coordinate box for one object of one class."""

    class_index: int
    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def __post_init__(self):
        if self.class_index < 0:
            raise DataError(f"box class {self.class_index} negative")
        if not (0 <= self.x_min <= self.x_max and 0 <= self.y_min <= self.y_max):
            raise DataError(
                f"degenerate box ({self.x_min},{self.y_min})..({self.x_max},{self.y_max})"
            )

    def clip(self, width: int, height: int) -> "BoundingBox":
        """Clip to image extent; a box fully outside is a data error."""
        if self.x_min >= width or self.y_min >= height:
            raise DataError(f"box starts outside a {width}x{height} image")
        return replace(
            self, x_max=min(self.x_max, width - 1), y_max=min(self.y_max, height - 1)
        )


def _thresholds(values: np.ndarray, energies) -> tuple[np.ndarray, np.ndarray]:
    """The map's positive entries in ascending order, and per energy its threshold among them: with
    K positive entries, the k-th largest for k = max(1, floor(energy * K))."""
    for energy in energies:
        if not 0.0 < energy <= 1.0:
            raise ShapeError(f"energy {energy} outside (0, 1]")
    ranked = np.sort(values[values > 0])
    if ranked.size == 0:
        raise NoPositiveRelevanceError("map has no positive entries")
    return ranked, ranked[[ranked.size - max(1, math.floor(e * ranked.size)) for e in energies]]


def energy_threshold(values: np.ndarray, energy: float) -> float:
    """Smallest threshold keeping at least `energy` of the positive pixels.

    With K positive entries, the threshold is the k-th largest positive value
    for k = max(1, floor(energy * K)), so energy = 1.0 admits every positive
    pixel and never any zero.
    """
    return float(_thresholds(values, (energy,))[1][0])


@dataclass(frozen=True)
class PointingResult:
    """Hit/miss counts for one energy level on one map."""

    energy: float
    tau: float
    hits: int
    misses: int
    accuracy: float


def pointing_game(
    values: np.ndarray, box: BoundingBox, energies: tuple[float, ...] = DEFAULT_ENERGIES
) -> list[PointingResult]:
    """Score one map against one box at each energy level, at energy_threshold's thresholds."""
    if values.ndim != 2:
        raise ShapeError(f"pointing_game: map must be 2-D, got {values.shape}")
    h, w = values.shape
    if box.x_max >= w or box.y_max >= h:
        raise ShapeError(f"box ..({box.x_max},{box.y_max}) exceeds {w}x{h} map")
    ranked, taus = _thresholds(values, energies)  # taus > 0, so the pixels at or above each are positives
    inside = np.sort(values[box.y_min : box.y_max + 1, box.x_min : box.x_max + 1], axis=None)
    totals = (ranked.size - np.searchsorted(ranked, taus)).tolist()
    hits = (inside.size - np.searchsorted(inside, taus)).tolist()
    return [
        PointingResult(energy=energy, tau=tau, hits=hit, misses=total - hit, accuracy=hit / total)
        for energy, tau, total, hit in zip(energies, taus.tolist(), totals, hits)
    ]


def random_relevance_map(
    height: int, width: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform(0,1) noise map, the chance-level pointing baseline."""
    return rng.random((height, width))


@dataclass(frozen=True)
class MaskSample:
    """One image of a masking run; image is its model input, preprocess's output."""

    image_id: str
    image: np.ndarray
    label: int | None = None


@dataclass(frozen=True)
class PointSample:
    """One box of a pointing run; image is its model input, preprocess's output."""

    image_id: str
    image: np.ndarray
    box: BoundingBox


@dataclass(frozen=True)
class PointingRow:
    """One (image, method, energy) pointing record; result None means skipped."""

    image_id: str
    method: str
    energy: float
    result: PointingResult | None


def _each_sample(samples: list, methods: tuple[str, ...], seed: int | None, rows_of) -> list:
    """The rows of rows_of(sample, rng) over samples, in sample order. Each sample's generator is its
    own substream of seed (not negative), for its random baseline only. A DataError gets the image id first."""
    check_methods(methods)
    if "random" in methods and seed is None:
        raise DataError("runs with the random baseline need a seed")
    if seed is not None and seed < 0:
        raise DataError(f"seed {seed} must be non-negative")
    rows = []
    for sample, stream in zip(samples, np.random.SeedSequence(seed).spawn(len(samples))):
        try:
            rows.extend(rows_of(sample, np.random.default_rng(stream)))
        except DataError as exc:
            raise DataError(f"{sample.image_id}: {exc}") from exc
    return rows


def run_masking(
    model: NetworkModel,
    samples: list[MaskSample],
    *,
    target_mode: str = "ground_truth",
    methods: tuple[str, ...] = EVAL_METHODS,
    patch_sizes: tuple[int, ...] = DEFAULT_PATCH_SIZES,
    seed: int | None = None,
) -> list[tuple[str, MaskingResult]]:
    """Masking protocol over a dataset; rows come back in sample order."""

    def rows_of(sample: MaskSample, rng: np.random.Generator) -> list[tuple[str, MaskingResult]]:
        results = patch_masking_eval(model, sample.image, target_mode=target_mode, label=sample.label,
                                     methods=methods, patch_sizes=patch_sizes, rng=rng)
        return [(sample.image_id, r) for r in results]

    return _each_sample(samples, methods, seed, rows_of)


def _pointing_eval(model: NetworkModel, sample: PointSample, methods: tuple[str, ...],
                   energies: tuple[float, ...], rng: np.random.Generator) -> list[PointingRow]:
    """Run the pointing game for one box, with the box's class as the explanation target."""
    h, w, _ = sample.image.shape
    box = sample.box.clip(w, h)
    if box.class_index >= model.num_classes:
        raise DataError(f"box class {box.class_index} outside model's {model.num_classes} classes")
    trace = forward(model, sample.image)
    maps = explain_all(model, trace, box.class_index, tuple(m for m in methods if m in METHODS))
    values = {method: m.values for method, m in maps.items()}
    if "random" in methods:
        values["random"] = random_relevance_map(h, w, rng)
    rows = []
    for method in methods:
        try:
            scored = pointing_game(values[method], box, energies)
        except NoPositiveRelevanceError:
            rows.extend(PointingRow(sample.image_id, method, e, None) for e in energies)
            continue
        rows.extend(PointingRow(sample.image_id, method, r.energy, r) for r in scored)
    return rows


def run_pointing(
    model: NetworkModel,
    samples: list[PointSample],
    *,
    methods: tuple[str, ...] = EVAL_METHODS,
    energies: tuple[float, ...] = DEFAULT_ENERGIES,
    seed: int | None = None,
) -> list[PointingRow]:
    """Pointing game over a dataset; each box's class is the explanation target."""
    return _each_sample(samples, methods, seed,
                        lambda sample, rng: _pointing_eval(model, sample, methods, energies, rng))


def read_bounding_boxes(path: str | Path) -> list[tuple[str, BoundingBox]]:
    """Parse `image_id class x_min y_min x_max y_max` lines, preserving order."""
    path = Path(path)
    boxes = []
    for lineno, parts in read_entries(path, DataError):
        if len(parts) != 6:
            raise DataError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
        numbers = [parse_int(v, DataError, f"{path}:{lineno}: non-integer field") for v in parts[1:]]
        try:
            boxes.append((parts[0], BoundingBox(*numbers)))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return boxes


def _grouped(pairs) -> dict:
    """{key: [item, ...]} over (key, item) pairs, keys in first-seen order."""
    groups: dict = {}
    for key, item in pairs:
        groups.setdefault(key, []).append(item)
    return groups


def aggregate_masking(rows: list[tuple[str, MaskingResult]]) -> list[dict]:
    """Mean before/after/drop per (method, patch size), in first-seen order."""
    out = []
    for (method, p), rs in _grouped(((r.method, r.patch_size), r) for _, r in rows).items():
        means = {f"mean_{k}": float(np.mean([getattr(r, k) for r in rs]))
                 for k in ("prob_before", "prob_after", "drop")}
        out.append({"method": method, "patch_size": p, "n": len(rs), **means})
    return out


def aggregate_pointing(rows: list[PointingRow]) -> list[dict]:
    """Mean accuracy per (method, energy) over non-skipped rows, in first-seen order."""
    out = []
    for (method, energy), results in _grouped(((r.method, r.energy), r.result) for r in rows).items():
        accuracies = [r.accuracy for r in results if r is not None]
        mean = float(np.mean(accuracies)) if accuracies else ""
        out.append({"method": method, "energy": energy, "n": len(accuracies), "mean_accuracy": mean})
    return out


# Every cell of these columns is written as repr(float(v)), or left blank, whatever number type
# the caller passed: run_pointing(..., energies=(1,)) writes energy 1.0.
_FLOAT_COLUMNS = {"prob_before", "prob_after", "drop", "mean_prob_before", "mean_prob_after",
                  "mean_drop", "energy", "tau", "accuracy", "mean_accuracy"}


def _write_reports(out_dir: str | Path, stem: str, header: list[str], lines, aggregate_header: list[str],
                   groups: list[dict]) -> tuple[Path, Path]:
    """Write lines (lists of cells in header order) to <stem>.csv and groups (read in
    aggregate_header order) to <stem>_aggregate.csv under out_dir, which is created if missing;
    returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = out_dir / f"{stem}.csv", out_dir / f"{stem}_aggregate.csv"
    tables = (header, lines), (aggregate_header, ([g[k] for k in aggregate_header] for g in groups))
    for path, (columns, cells) in zip(paths, tables):
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([repr(float(v)) if c in _FLOAT_COLUMNS and v != "" else v
                              for c, v in zip(columns, line)] for line in cells)
    return paths


def write_masking_reports(
    rows: list[tuple[str, MaskingResult]], out_dir: str | Path
) -> tuple[Path, Path]:
    """Write per-image and aggregate masking CSVs; returns their paths."""
    header = ["image_id", "method", "patch_size", "target", "prob_before", "prob_after", "drop",
              "point_x", "point_y"]
    lines = (
        [image_id, r.method, r.patch_size, r.target, r.prob_before, r.prob_after, r.drop, *r.point]
        for image_id, r in rows
    )
    aggregate_header = ["method", "patch_size", "n", "mean_prob_before", "mean_prob_after", "mean_drop"]
    return _write_reports(out_dir, "masking", header, lines, aggregate_header, aggregate_masking(rows))


def _pointing_line(row: PointingRow) -> list:
    r = row.result
    if r is None:
        return [row.image_id, row.method, row.energy, "", "", "", "", "skipped"]
    return [row.image_id, row.method, r.energy, r.tau, r.hits, r.misses, r.accuracy, "ok"]


def write_pointing_reports(
    rows: list[PointingRow], out_dir: str | Path
) -> tuple[Path, Path]:
    """Write per-image and aggregate pointing CSVs; returns their paths."""
    header = ["image_id", "method", "energy", "tau", "hits", "misses", "accuracy", "status"]
    return _write_reports(out_dir, "pointing", header, map(_pointing_line, rows),
                          ["method", "energy", "n", "mean_accuracy"], aggregate_pointing(rows))
