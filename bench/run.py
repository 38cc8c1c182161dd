"""Benchmark of relprop's CLI: dataset masking and pointing, and one-shot explain.

Run from the root of a relprop checkout:

    python3 bench/run.py --workload mask-cnn32 --seed 1 --seconds 25 --trace 0

It generates two models (fixed) and PPM images, labels and boxes (from
--seed) under .bench_work/, then drives `relprop.cli.main` in-process in a
closed loop: one client, the next CLI call starting when the previous one
returned. Every call's output is checked, and a fixed reference input is
checked against bench/references.json.

--trace 0 measures the end-to-end metrics for --seconds with tracing off.
--trace 1 runs a fixed amount of work (so counts repeat exactly) with every
function in spans.TRACED wrapped, and reports per-layer metrics; it first
runs a quarter of that work untraced to get the tracing overhead. The work
is sized so that both parts together take about --seconds on the reference
machine.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
A fuller record (machine, versions, per-function table, spans of one call)
goes to .bench_out/. `--record-references` rewrites bench/references.json.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread on every workload and commit

import argparse
import contextlib
import ctypes
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references.json"
REFERENCE_SEED = 0
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
MALLOC_THRESHOLDS = {M_MMAP_THRESHOLD: 32 << 20, M_TRIM_THRESHOLD: 256 << 20}

if not (SRC / "relprop" / "__init__.py").is_file():
    sys.exit(f"bench: no relprop package under {SRC}; run from a relprop checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import relprop  # noqa: E402
import relprop.cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "mask-eval", "pointing" or "oneshot"
    model: str
    threads: str | None  # RELPROP_THREADS during timed calls
    images_per_job: int  # one job: one list call, or the four one-shot calls on one image
    pool: int  # distinct generated images; jobs cycle through them
    trace_images_per_s: float  # traced plus untraced work = --seconds * this many images


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mask-cnn32", "mask-eval", "cnn32", None, 4, 40, 22.0),
        Workload("point-cnn32", "pointing", "cnn32", None, 4, 40, 45.0),
        Workload("oneshot-cnn64", "oneshot", "cnn64", None, 1, 16, 7.0),
        Workload("mask-cnn32-threads2", "mask-eval", "cnn32", "2", 4, 40, 18.0),
    )
}
MODEL_SIZES = {"cnn32": 32, "cnn64": 64}
ONESHOT_METHODS = ("lrp", "clrp", "sglrp")
PREDICT_TOP = 3
MIN_SETUP_SAMPLES = 11
IDENTITY_JOBS = (0, 1)  # jobs rerun serially on the threads2 workload

CALL_METRICS = [
    "cli.main",
    "cli.build_parser",
    "model.load_model",
    "model.forward",
    "model.predict_topk",
    "tensor.conv2d_forward",
    "tensor.conv2d_transpose",
    "tensor.maxpool_forward",
    "tensor.dense_forward",
    "tensor.relu",
    "tensor.flatten",
    "tensor.softmax",
    "relevance.explain",
    "relevance.seed_lrp",
    "relevance.seed_clrp",
    "relevance.seed_sglrp",
    "relevance.propagate_zbeta_input",
    "relevance.propagate_zplus_conv",
    "relevance.propagate_zplus_dense",
    "relevance.propagate_maxpool",
    "relevance.propagate_flatten",
    "relevance.propagate_relu",
    "evaluate.run_masking",
    "evaluate.run_pointing",
    "evaluate.patch_masking_eval",
    "evaluate.pointing_game",
    "evaluate.energy_threshold",
    "evaluate.mask_patch",
    "evaluate.maximal_point",
    "evaluate.write_masking_reports",
    "evaluate.write_pointing_reports",
    "imaging.read_ppm",
    "imaging.preprocess",
    "imaging.render_heatmap",
    "imaging.write_pgm",
]
SELF_TIME_METRICS = ["model.forward", "relevance.explain"]
KERNEL_METRICS = ["tensor.conv2d_forward", "tensor.conv2d_transpose", "tensor.dense_forward"]


@dataclass
class Call:
    seconds: float
    code: object  # exit code, or the exception that escaped
    stdout: str


def pin_allocator() -> str:
    """Fix glibc's malloc thresholds for the whole run.

    By default glibc mmaps large blocks and moves its threshold as it sees them
    freed, so whether a model's arrays cost fresh page faults depended on the
    process's history, and set-up time swung 2x from run to run. Fixed
    thresholds keep blocks under 32 MiB on the heap for every workload and
    commit, like the BLAS thread count.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "default"
    if all(libc.mallopt(param, value) == 1 for param, value in MALLOC_THRESHOLDS.items()):
        return "mmap_threshold=32MiB trim_threshold=256MiB"
    return "default"


def call_cli(argv: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = relprop.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is a failed call; keep measuring the rest
        code = traceback.format_exc(limit=3)
    return Call(time.perf_counter() - start, code, out.getvalue())


class Workspace:
    """Generated files for one workload and seed, and the CLI calls of each job."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        size = MODEL_SIZES[workload.model]
        self.model = inputs.write_model(workload.model, size, work / "models")
        self.images = inputs.write_images(seed, workload.pool, size, work / "images")
        self.boxes = inputs.write_boxes(self.images, work / "images" / "boxes.txt")

    def job_images(self, index: int) -> list[inputs.ImageFile]:
        n = self.w.images_per_job
        start = (index * n) % len(self.images)
        return self.images[start : start + n]

    def out_dir(self, index: int, tag: str = "") -> Path:
        return self.work / "out" / f"{index}{tag}"

    def argvs(self, index: int, tag: str = "") -> list[list[str]]:
        model = [str(self.model.manifest), str(self.model.blob)]
        out = self.out_dir(index, tag)
        if self.w.command == "oneshot":
            (image,) = self.job_images(index)
            explains = [
                ["explain", *model, str(image.path), "--method", m, "--target", "top",
                 "--out", str(out / f"{image.image_id}_{m}")]
                for m in ONESHOT_METHODS
            ]
            return explains + [["predict", *model, str(image.path), "--top", str(PREDICT_TOP)]]
        listed = inputs.write_list(self.job_images(index), self.work / "images" / f"list{index}.txt")
        run = ["--out-dir", str(out), "--seed", str(self.seed + index)]
        if self.w.command == "pointing":
            return [["pointing", *model, str(listed), str(self.boxes), *run]]
        return [["mask-eval", *model, str(listed), *run]]

    def check(self, index: int, calls: list[Call], tag: str = "") -> list[str]:
        problems = [f"{c.code!r}" for c in calls if c.code != 0]
        if problems:
            return problems
        out, n = self.out_dir(index, tag), self.w.images_per_job
        if self.w.command == "mask-eval":
            return checks.check_masking(out, n)
        if self.w.command == "pointing":
            return checks.check_pointing(out, n)
        (image,) = self.job_images(index)
        for m in ONESHOT_METHODS:
            problems += checks.check_map(out / f"{image.image_id}_{m}", self.model.size)
        if checks.parse_predict(calls[-1].stdout, PREDICT_TOP, inputs.NUM_CLASSES) is None:
            problems.append(f"predict output malformed: {calls[-1].stdout!r}")
        return problems


class Runner:
    """Runs jobs in a closed loop and keeps the tallies the metrics need."""

    def __init__(self, data: Workspace, tracer: Tracer | None = None):
        self.data = data
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies: list[float] = []
        self.images = 0
        self.skipped = 0
        self.point_rows = 0

    def tally(self, calls: list[Call], problems: list[str]) -> None:
        """A call fails when it exits non-zero; a bad output fails the job's calls at least once."""
        self.attempted += len(calls)
        self.failed += sum(c.code != 0 for c in calls) or bool(problems)
        self.problems += problems

    def job(self, index: int, keep: bool = False) -> float:
        """Run one job; returns its CLI seconds. Checks and clean-up are untimed."""
        calls = []
        for argv in self.data.argvs(index):
            if self.tracer:
                self.tracer.request += 1
                self.tracer.active = True
            calls.append(call_cli(argv))
            if self.tracer:
                self.tracer.active = False
        problems = self.data.check(index, calls)
        self.tally(calls, problems)
        if not problems and self.data.w.command == "pointing":
            skipped, rows = checks.skipped_rows(self.data.out_dir(index))
            self.skipped += skipped
            self.point_rows += rows
        if not keep:
            shutil.rmtree(self.data.out_dir(index), ignore_errors=True)
        self.latencies += [c.seconds for c in calls]
        self.images += self.data.w.images_per_job
        return sum(c.seconds for c in calls)

    def serial_identity(self, index: int) -> None:
        """Rerun a threaded job with RELPROP_THREADS unset; its CSVs must match byte for byte."""
        threads = os.environ.pop("RELPROP_THREADS", None)
        try:
            calls = [call_cli(argv) for argv in self.data.argvs(index, "-serial")]
        finally:
            if threads is not None:
                os.environ["RELPROP_THREADS"] = threads
        problems = self.data.check(index, calls, "-serial")
        threaded, serial = self.data.out_dir(index), self.data.out_dir(index, "-serial")
        for name in ("masking.csv", "masking_aggregate.csv"):
            if not problems and (threaded / name).read_bytes() != (serial / name).read_bytes():
                problems.append(f"job {index}: {name} differs between thread counts")
        self.tally(calls, problems)


def reference_digest(workload: Workload, work: Path) -> tuple[object, list[str]]:
    """Run the workload's command on the fixed reference inputs; returns (digest, problems)."""
    data = Workspace(workload, REFERENCE_SEED, work / "reference")
    calls = [call_cli(argv) for argv in data.argvs(0)]
    problems = data.check(0, calls)
    if problems:
        return None, problems
    out = data.out_dir(0)
    if workload.command == "mask-eval":
        return checks.numeric(checks.read_csv(out / "masking_aggregate.csv")), []
    if workload.command == "pointing":
        return checks.numeric(checks.read_csv(out / "pointing_aggregate.csv")), []
    (image,) = data.job_images(0)
    maps = []
    for m in ONESHOT_METHODS:
        values = checks.read_map(out / f"{image.image_id}_{m}")
        maps.append([m, float(values.sum()), float(values.max()), int(np.argmax(values))])
    return [maps, checks.parse_predict(calls[-1].stdout, PREDICT_TOP, inputs.NUM_CLASSES)], []


def reference_key(workload: Workload) -> str:
    return f"{workload.command}-{workload.model}"


def check_reference(workload: Workload, work: Path, runner: Runner) -> None:
    """Tally the reference run into runner as one call that passes or fails."""
    digest, problems = reference_digest(workload, work)
    expected = json.loads(REFERENCES.read_text())[reference_key(workload)]
    if not problems and not checks.same(digest, expected):
        problems = [f"{digest!r} != recorded {expected!r}"]
    runner.attempted += 1
    runner.failed += bool(problems)
    runner.problems += [f"reference run: {p}" for p in problems]


def set_threads(workload: Workload) -> None:
    if workload.threads is None:
        os.environ.pop("RELPROP_THREADS", None)
    else:
        os.environ["RELPROP_THREADS"] = workload.threads


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def setup_once(data: Workspace, index: int) -> float:
    """Time the work every CLI call does before its first forward, for job `index`."""
    paths = [im.path for im in data.job_images(index)]
    start = time.perf_counter()
    model = relprop.load_model(data.model.manifest, data.model.blob)
    for path in paths:
        relprop.preprocess(relprop.read_ppm(path), model, subtract_mean=False)
    return time.perf_counter() - start


def end_to_end(runner: Runner, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "images_per_s": (runner.images / sum(runner.latencies), "1/s"),
        "call_ms_p90": (1000 * statistics.quantiles(runner.latencies, n=10, method="inclusive")[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(
    tracer: Tracer, runner: Runner, overhead_ratio: float
) -> tuple[dict[str, tuple[float, str]], dict]:
    table = tracer.totals()
    empty = {"calls": 0, "s": 0.0, "errors": 0, "self_s": 0.0, "durations": []}

    def row(name):
        return table.get(name, empty)

    metrics: dict[str, tuple[float, str]] = {}
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = (row(name)["calls"], "count")
        metrics[f"{name}.s"] = (row(name)["s"], "s")
    for name in SELF_TIME_METRICS:
        metrics[f"{name}.self_s"] = (row(name)["self_s"], "s")
    for name in KERNEL_METRICS:
        flop, nbytes = tracer.work.get(name, (0, 0))
        seconds = row(name)["s"]
        metrics[f"{name}.gflop_computed"] = (flop / 1e9, "GFLOP")
        metrics[f"{name}.mb_computed"] = (nbytes / 1e6, "MB")
        metrics[f"{name}.gflop_per_s"] = (ratio(flop / 1e9, seconds), "GFLOP/s")
    per_image = row("evaluate.patch_masking_eval")["durations"]
    protocol_s = row("evaluate.run_masking")["s"] + row("evaluate.run_pointing")["s"]
    blocking_s = protocol_s or row("cli.main")["s"]
    metrics.update(
        {
            "evaluate.forwards_per_image": (row("model.forward")["calls"] / runner.images, "count/image"),
            "evaluate.explains_per_image": (row("relevance.explain")["calls"] / runner.images, "count/image"),
            "evaluate.skipped_ratio": (ratio(runner.skipped, runner.point_rows), "ratio"),
            "evaluate.parallelism": (ratio(sum(per_image), row("evaluate.run_masking")["s"]), "ratio"),
            "evaluate.image_ms_p50": (1000 * statistics.median(per_image) if per_image else 0.0, "ms"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
            "trace.blocking_coverage": (
                ratio(row("model.forward")["s"] + row("relevance.explain")["s"], blocking_s),
                "ratio",
            ),
            "trace.errors": (sum(r["errors"] for r in table.values()), "count"),
            "trace.absent": (len(tracer.absent), "count"),
        }
    )
    functions = {
        name: {k: v for k, v in r.items() if k != "durations"} for name, r in sorted(table.items())
    }
    return metrics, functions


def prepare(workload: Workload, seed: int, work: Path) -> tuple[Workspace, Runner]:
    """Generate inputs, check the reference run, and warm up with one untallied job."""
    data = Workspace(workload, seed, work)
    set_threads(workload)
    runner = Runner(data)
    check_reference(workload, work, runner)
    Runner(data).job(0)  # lazy imports, allocator, page cache
    return data, runner


def measure(workload: Workload, seed: int, seconds: float, work: Path) -> tuple[Runner, dict, dict]:
    data, runner = prepare(workload, seed, work)
    keep = set(IDENTITY_JOBS) if workload.threads else set()
    # one set-up sample after each job, so set-up is timed under the same machine load
    setup_times = []
    start, index = time.perf_counter(), 0
    while time.perf_counter() - start < seconds or len(setup_times) < MIN_SETUP_SAMPLES:
        runner.job(index, keep=index in keep)
        setup_times.append(setup_once(data, index))
        index += 1
    for job in sorted(keep & set(range(index))):
        runner.serial_identity(job)
    detail = {"call_seconds": runner.latencies, "setup_seconds": setup_times}
    return runner, end_to_end(runner, statistics.median(setup_times)), detail


def measure_traced(workload: Workload, seed: int, seconds: float, work: Path) -> tuple[Runner, dict, dict]:
    data, untraced = prepare(workload, seed, work)
    jobs = max(4, round(0.8 * seconds * workload.trace_images_per_s / workload.images_per_job))
    baseline_jobs = jobs // 4
    untraced_s = sum(untraced.job(i) for i in range(baseline_jobs))
    tracer = Tracer()
    tracer.install("relprop")
    runner = Runner(data, tracer)
    runner.attempted, runner.failed, runner.problems = (
        untraced.attempted, untraced.failed, untraced.problems
    )
    traced_s = [runner.job(i) for i in range(jobs)]
    overhead = sum(traced_s[:baseline_jobs]) / untraced_s
    metrics, functions = per_layer(tracer, runner, overhead)
    first_call = [s for s in tracer.spans if s[5] == 1]
    detail = {
        "functions": functions,
        "absent": tracer.absent,
        "kernel_count_failures": tracer.count_failures,
        "jobs": jobs,
        "spans_of_first_call": [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "thread": s[6], "ok": s[7]}
            for s in first_call
        ],
    }
    return runner, metrics, detail


def blas_info() -> dict:
    """BLAS name and version numpy was built with, and its thread count in effect."""
    info = {"env_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["threads"] = getter()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
    return info


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_record(args, malloc: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "malloc": malloc,
        "relprop": getattr(relprop, "__version__", None),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def record_references() -> None:
    work = ROOT / ".bench_work" / f"references-{os.getpid()}"
    try:
        os.environ.pop("RELPROP_THREADS", None)
        recorded = {}
        for workload in WORKLOADS.values():
            key = reference_key(workload)
            if key in recorded:
                continue
            digest, problems = reference_digest(workload, work / key)
            if problems:
                sys.exit(f"bench: reference run for {key} failed: {problems}")
            recorded[key] = digest
        REFERENCES.write_text(json.dumps(recorded, indent=1) + "\n")
        print(f"wrote {REFERENCES}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()
    if args.record_references:
        record_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    malloc = pin_allocator()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        measure_fn = measure_traced if args.trace else measure
        runner, metrics, detail = measure_fn(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = run_record(args, malloc)
    failed_ratio = runner.failed / runner.attempted
    print("run record: " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {failed_ratio:.6g} ratio ({runner.failed}/{runner.attempted} calls)")
    if not args.trace:
        # Unscored: machine speed here switches between two levels every few seconds,
        # so the median call flips between them from run to run; p90 and the mean hold.
        print(f"call_ms_p50 {1000 * statistics.median(runner.latencies):.6g} ms (unscored)")
        beyond = sum(t > metrics["call_ms_p90"][0] / 1000 for t in runner.latencies)
        print(f"latency samples {len(runner.latencies)}, {beyond} beyond p90")
    for problem in runner.problems[:20]:
        print(f"problem: {problem}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {**result, "record": record, "failed_ratio": failed_ratio, "problems": runner.problems, **detail},
            indent=1,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
