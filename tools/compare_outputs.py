"""Compare every CLI artifact of two relprop source trees, byte for byte.

    python3 tools/compare_outputs.py HEAD~1 HEAD
    python3 tools/compare_outputs.py path/to/other/checkout .

Each side is a git revision of this repository (its `src/` is extracted with
`git archive` into a temporary directory, so the working tree and the
repository's metadata are left alone) or a directory: a checkout holding
`src/relprop`, or a `src` directory holding `relprop`. Both sides run the same
commands on the same inputs, which bench/inputs.py generates (imported, never
changed): the cnn32 and cnn64 models and IMAGES (24) PPMs each, with labels and boxes.
Per model the commands are mask-eval in both target modes, pointing, explain
with every method on every image, and predict on every image. Each side runs
in its own Python process with one BLAS thread.

The report gives each side's `relprop/*.py` line count (as `wc -l` counts it)
and lists every artifact that differs or exists on one side only (CSVs, meta
JSON, PGMs, .f32 maps, predict output, exit codes) and the largest relative
difference of a pointing.csv `tau`. It prints "identical" and exits 0
when nothing differs, and exits 1 otherwise.
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

ROOT = Path(__file__).resolve().parents[1]
MODELS = {"cnn32": 32, "cnn64": 64}
METHODS = ("lrp", "clrp", "sglrp")
IMAGES = 24  # generated images per model
IMAGE_SEED, RUN_SEED = 77, 5  # seed of the generated images; --seed of every CLI call


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


def write_inputs(out: Path) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True  # leave bench/ exactly as checked in
    import inputs

    for name, size in MODELS.items():
        inputs.write_model(name, size, out / name)
        written = inputs.write_images(IMAGE_SEED, IMAGES, size, out / name / "images")
        inputs.write_list(written, out / name / "images" / "list.txt")
        inputs.write_boxes(written, out / name / "images" / "boxes.txt")


def run_side(src: Path, inputs_dir: Path, out: Path) -> None:
    """Run every command against the relprop under src; called in a child process."""
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
    parser.add_argument("--run-side", nargs=3, metavar=("SRC", "INPUTS", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run_side:
        src, inputs_dir, out = map(Path, args.run_side)
        run_side(src, inputs_dir, out)
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
                 str(tmp / f"out{label}")],
                check=True, env=env,
            )
        differing, tau_gap, total = compare(tmp / "outA", tmp / "outB")
    print(f"A: {args.a} (relprop/*.py: {lines[0]} lines)\nB: {args.b} (relprop/*.py: {lines[1]} lines)")
    print(f"{total} artifacts over {len(MODELS)} models")
    print(f"largest relative tau difference in pointing.csv: {tau_gap:.3g}")
    if not differing:
        print("identical")
        return 0
    print(f"{len(differing)} differ:")
    for name in differing:
        print(f"  {name}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
