"""Run the tier-1 suite against single-line mutants of src/relprop, standard library only.

    python3 tools/mutation_probe.py                # every mutant in MUTANTS
    python3 tools/mutation_probe.py --only model   # those whose "file: why" contains "model"

Each mutant in MUTANTS is (module, old, new, why): the text old, which must occur exactly
once in src/relprop/<module>, is replaced by new. The probe extracts one copy of the tree
with `git archive`, as compare_outputs' resolve_src extracts a revision: HEAD, or, when the
working tree or index has changes to tracked files, the commit `git stash create` makes of
them (untracked files are left out). It first runs the suite on the unmutated copy, which
must pass. Then, for each mutant, it writes the mutated module into the copy, runs
`pytest -x -q` there with bytecode writing off, and restores the module. A mutant is
killed when the suite fails (or runs past TIMEOUT_S seconds) and survives when it passes.

It prints one line per mutant and the killed and survived counts. It exits 1 if any mutant
survives that is not in EQUIVALENT, which gives the reason each listed mutant cannot change
what the suite can observe; 2 if a mutant's old text is not found exactly once or the
unmutated suite fails; 0 otherwise. A full run takes about 15 s per mutant on 2 cores.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

MUTANTS = [
    ("__init__.py", "    energy_threshold,", "", "energy_threshold stays in __all__ but is not imported"),
    ("errors.py", "self.where = where", "self.where = None", "errors lose the model part they name"),
    ("cli.py", "top = min(5, model.num_classes)", "top = min(4, model.num_classes)",
     "predict's default --top prints 4 classes"),
    ("cli.py", "target = predict_topk(trace, 2)[1][0]", "target = predict_topk(trace, 2)[0][0]",
     "explain --target second takes the top class"),
    ("cli.py", "        return 2\n", "        return 1\n", "a usage error exits 1, like a data error"),
    ("cli.py", 'if v != "")', ")", "a blank comma-list item is kept"),
    ("evaluate.py", "max(1, math.floor(e * ranked.size))", "max(1, math.ceil(e * ranked.size))",
     "an energy admits the ceiling of its share of positives"),
    ("evaluate.py", "if not 0.0 < energy <= 1.0:", "if not 0.0 < energy < 1.0:", "energy 1.0 is rejected"),
    ("evaluate.py", "if point not in probs:", "if True:", "methods at one point do not share a forward"),
    ("evaluate.py", "np.searchsorted(inside, taus)).tolist()", "np.searchsorted(inside, taus, side=\"right\")).tolist()",
     "a box pixel equal to the threshold is not a hit"),
    ("evaluate.py", "if self.x_min >= width or", "if self.x_min > width or", "a box starting one past the edge clips"),
    ("evaluate.py", "x_max=min(self.x_max, width - 1)", "x_max=min(self.x_max, width)", "a clipped box ends one past the edge"),
    ("imaging.py", "top = (height - side) // 2", "top = 0", "a tall image is cropped at its top, not its center"),
    ("imaging.py", "np.floor(clamped * 255.0 + 0.5)", "np.floor(clamped * 255.0)", "heatmap levels truncate"),
    ("imaging.py", "if maxval != 255:", "if maxval > 255:", "a maxval below 255 is read as 255"),
    ("model.py", "return int(np.argmax(self.probabilities))", "return int(np.argmax(self.logits[:-1]))",
     "the prediction never takes the last class"),
    ("model.py", "if trace_bytes > TRACE_LIMIT_BYTES:", "if trace_bytes > 2 * TRACE_LIMIT_BYTES:",
     "the trace limit admits twice its bytes"),
    ("model.py", 'order = np.argsort(-probs, kind="stable")', 'order = np.argsort(-probs, kind="quicksort")',
     "ties among more than 16 classes lose class order"),
    ("model.py", "low = 0 if key in (\"pad\", \"bias\") else 1", "low = 0", "a zero stride or extent loads"),
    ("model.py", "fed = layer.kind == \"relu\" or (fed and not layer.is_parametric)",
     "fed = layer.kind == \"relu\" or not layer.is_parametric", "a parametric layer counts as feeding through relu"),
    ("model.py", "if not lead:", "if lead:", "the incremental forward takes one image and rejects a stack"),
    ("model.py", "x.shape[1:] != base.activations[i].shape", "x.shape[2:] != base.activations[i].shape",
     "full rows are rebuilt from base even when the last crop is already full-size"),
    ("model.py", "(r1 - 1 + pad) // s + 1)", "(r1 - 2 + pad) // s + 1)", "the reach box drops its last row"),
    ("model.py", "return np.maximum(x, 0.0)", "return np.abs(x)", "relu reflects negatives"),
    ("relevance.py", "keep = np.abs(denom) >= DENOMINATOR_FLOOR", "keep = np.abs(denom) > DENOMINATOR_FLOOR",
     "a denominator exactly at the floor is dropped"),
    ("relevance.py", "row[target] = p * (1.0 - p) if", "row[target] = p * p if", "sglrp's target entry is p^2"),
    ("relevance.py", "row[:] = -z / (n - 1) if", "row[:] = -z / n if", "clrp's shares divide by every class"),
    ("relevance.py", "wp = np.maximum(weights, 0.0)", "wp = weights", "zplus keeps negative weights"),
    ("relevance.py", "or np.any(a > bound[1][0])", "", "zbeta accepts an input over its upper bound"),
    ("relevance.py", "if len(set(methods)) != len(methods):", "if False:", "a repeated method is explained twice"),
    ("relevance.py", "return np.maximum(self.raw, 0.0).sum(axis=2)", "return np.abs(self.raw).sum(axis=2)",
     "the 2-D map counts negative relevance"),
    ("tensor.py", "(wp - kw) // stride + 1", "(wp - kh) // stride + 1", "conv output width uses the kernel height"),
    ("tensor.py", "for i in reversed(range(kh)):", "for i in range(kh):", "pool ties go to the last row"),
    ("tensor.py", "np.maximum(out, tap, out=out)", "np.minimum(out, tap, out=out)", "max pooling takes the min"),
    ("tensor.py", "shifted = z - np.max(z, axis=-1, keepdims=True)", "shifted = z", "softmax without the max shift"),
    ("tensor.py", "for t in range(pad):", "for t in range(pad - 1):", "the transpose keeps one padding tap"),
    ("tensor.py", "if weights.ndim != 2 or weights.shape[1] != x.shape[-1]:", "if weights.ndim != 2:",
     "dense takes a mismatched input to the matmul"),
]
# (module, new): why that mutant cannot change anything the suite can observe.
EQUIVALENT: dict[tuple[str, str], str] = {}


def tree_revision() -> str:
    """HEAD, or the commit `git stash create` makes of changes to tracked files."""
    stash = subprocess.run(["git", "-C", str(ROOT), "stash", "create"], capture_output=True, text=True, check=True)
    return stash.stdout.strip() or "HEAD"


def extract(rev: str, target: Path) -> None:
    archive = target.parent / "tree.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--output", str(archive), rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()


def run_suite(tree: Path) -> tuple[bool, float]:
    """(passed, seconds) of `pytest -x -q` in tree."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.monotonic()
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"], cwd=tree,
                             env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, time.monotonic() - start
    return run.returncode == 0, time.monotonic() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", default="", help='run the mutants whose "module: why" contains this text')
    args = parser.parse_args()
    chosen = [m for m in MUTANTS if args.only in f"{m[0]}: {m[3]}"]
    for module, old, _, why in chosen:
        count = (ROOT / "src" / "relprop" / module).read_text().count(old)
        if count != 1:
            print(f"{module}: {why}: old text found {count} times, not once: {old!r}")
            return 2
    with tempfile.TemporaryDirectory(prefix="relprop-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        extract(tree_revision(), tree)
        passed, seconds = run_suite(tree)
        if not passed:
            print(f"the unmutated suite fails ({seconds:.0f} s); no mutant can be judged")
            return 2
        print(f"unmutated suite passes in {seconds:.0f} s; {len(chosen)} mutants")
        killed, unexplained = 0, 0
        for module, old, new, why in chosen:
            path = tree / "src" / "relprop" / module
            text = path.read_text()
            path.write_text(text.replace(old, new))
            try:
                passed, seconds = run_suite(tree)
            finally:
                path.write_text(text)
            if not passed:
                killed, verdict = killed + 1, "killed"
            elif (module, new) in EQUIVALENT:
                verdict = f"survived (equivalent: {EQUIVALENT[module, new]})"
            else:
                unexplained, verdict = unexplained + 1, "SURVIVED"
            print(f"{verdict:>8}  {seconds:4.0f} s  {module}: {why}", flush=True)
    print(f"{killed} killed, {len(chosen) - killed} survived ({unexplained} not listed as equivalent)")
    return int(unexplained > 0)


if __name__ == "__main__":
    sys.exit(main())
